import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from covagg import (
    AngleMapConfig,
    ContractError,
    DescriptorSet,
    MonomialConfig,
    angle_feature_batch,
    fourier_coeffs,
    monomial_output_dim,
)
from covagg.aggregate import AGGREGATE_CHUNK, aggregate
from covagg.monomial import _phi3_plan, phi_monomial_batch, phi_monomial_weighted_sum


def monomial_kernel(x, y, degree):
    """Inner product of the two embeddings; equals <x, y>**degree."""
    config = MonomialConfig(degree, x.shape[-1])
    return float(np.dot(phi_monomial_batch(x[None], config)[0],
                        phi_monomial_batch(y[None], config)[0]))


def brute_dim(degree, d):
    """Count monomial components by enumeration."""
    if degree == 1:
        return d
    if degree == 2:
        return d + d * (d - 1) // 2
    return d + d * (d - 1) + d * (d - 1) * (d - 2) // 6


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_output_dim_formula(degree, d):
    assert monomial_output_dim(degree, d) == brute_dim(degree, d)


def test_table_dims():
    assert monomial_output_dim(2, 80) == 3240
    assert monomial_output_dim(3, 80) == 88560


def test_axis_vector_degree2():
    out = phi_monomial_batch(np.array([1.0, 0.0])[None], MonomialConfig(2, 2))[0]
    assert out == pytest.approx([1.0, 0.0, 0.0], abs=0)


def test_degree3_component_order():
    a, b, c = 0.2, -0.4, math.sqrt(1 - 0.2**2 - 0.4**2)
    x = np.array([a, b, c])
    out = phi_monomial_batch(x[None], MonomialConfig(3, 3))[0]
    s3, s6 = math.sqrt(3), math.sqrt(6)
    expected = [
        a**3, b**3, c**3,
        a * a * b * s3, a * a * c * s3,
        b * b * a * s3, b * b * c * s3,
        c * c * a * s3, c * c * b * s3,
        a * b * c * s6,
    ]
    assert out == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_kernel_exactness_random_pairs(rng, degree):
    X = unit_rows(rng, 100, 16)
    Y = unit_rows(rng, 100, 16)
    for x, y in zip(X, Y):
        lhs = monomial_kernel(x, y, degree)
        assert abs(lhs - float(np.dot(x, y)) ** degree) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 24),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_kernel_exactness_property(d, degree, seed):
    rng = np.random.default_rng(seed)
    x, y = unit_rows(rng, 2, d)
    assert abs(monomial_kernel(x, y, degree) - float(np.dot(x, y)) ** degree) < 1e-10


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_kernel_exactness_at_dim_128(rng, degree):
    x, y = unit_rows(rng, 2, 128)
    assert abs(monomial_kernel(x, y, degree) - float(np.dot(x, y)) ** degree) < 1e-10


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_norm_preservation(rng, degree):
    X = unit_rows(rng, 20, 12)
    out = phi_monomial_batch(X, MonomialConfig(degree, 12))
    assert np.linalg.norm(out, axis=1) == pytest.approx(np.ones(20), abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 600])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 32, 33])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_weighted_sum_matches_dense_embedding(rng, degree, d, n):
    # d < 3 has no degree-3 triples; the gather must still cover every component
    config = MonomialConfig(degree, d)
    X = unit_rows(rng, n, d)
    W = rng.standard_normal((n, 7))
    out = phi_monomial_weighted_sum(W, X, config)
    assert out.shape == (7, config.output_dim)
    assert np.max(np.abs(out - W.T @ phi_monomial_batch(X, config))) < 1e-12


@pytest.mark.parametrize("n", [AGGREGATE_CHUNK - 1, AGGREGATE_CHUNK + 1])
def test_phi3_aggregate_matches_dense_embedding(rng, n):
    config = MonomialConfig(3, 13)
    dset = DescriptorSet(unit_rows(rng, n, 13), rng.uniform(-3.1, 3.1, n))
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
    feats = angle_feature_batch(dset.angles, coeffs)
    ref = (feats.T @ phi_monomial_batch(dset.descriptors, config)).ravel()
    out = aggregate(dset, config, coeffs).values
    assert np.max(np.abs(out - ref / np.linalg.norm(ref))) < 1e-12


def layout_triples(d):
    """The sorted index triple of each phi3 component, in phi_monomial_batch order."""
    cubes = [(i, i, i) for i in range(d)]
    squares = [tuple(sorted((i, i, j))) for i, j in itertools.permutations(range(d), 2)]
    return cubes + squares + list(itertools.combinations(range(d), 3))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 32, 33])
def test_phi3_plan_reads_each_triple_once_from_its_block(d):
    K = 7
    blocks, size, cols, weights = _phi3_plan(d, K)
    pairs = list(itertools.combinations_with_replacement(range(d), 2))
    assert len(blocks) == min(4, d)
    assert blocks[0][0] == 0 and blocks[-1][1] == d * K and blocks[-1][4] == size
    assert cols.shape == (K, monomial_output_dim(3, d)) and not cols.flags.writeable
    triples = layout_triples(d)
    assert sorted(triples) == list(itertools.combinations_with_replacement(range(d), 3))
    for f in range(K):
        for component, pos in enumerate(cols[f]):
            (r0, r1, p0, start, stop), = [b for b in blocks if b[3] <= pos < b[4]]
            row, offset = divmod(pos - start, len(pairs) - p0)
            a, weight_row = divmod(r0 + row, K)
            assert weight_row == f and r0 + row < r1
            assert (a, *pairs[p0 + offset]) == triples[component]
    assert np.all(weights[:d] == 1.0)
    assert len(np.unique(cols)) == cols.size


def test_self_and_orthogonal_cases():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert monomial_kernel(x, x, 2) == pytest.approx(1.0, abs=1e-14)
    assert monomial_kernel(x, y, 2) == pytest.approx(0.0, abs=1e-14)


def test_deterministic_output(rng):
    x = unit_rows(rng, 1, 9)[0]
    config = MonomialConfig(3, 9)
    assert np.array_equal(phi_monomial_batch(x[None], config)[0],
                          phi_monomial_batch(x[None], config)[0])


def test_rejects_non_unit_input():
    with pytest.raises(ContractError):
        phi_monomial_batch(np.array([1.0, 1.0])[None], MonomialConfig(2, 2))[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rejects_non_finite_rows(rng, degree, bad):
    config = MonomialConfig(degree, 4)
    X = unit_rows(rng, 5, 4)
    X[2, 1] = bad
    with pytest.raises(ContractError, match="finite"):
        phi_monomial_batch(X, config)
    with pytest.raises(ContractError, match="finite"):
        phi_monomial_weighted_sum(np.ones((5, 3)), X, config)


def test_rejects_bad_degree():
    with pytest.raises(ContractError):
        MonomialConfig(4, 8)
