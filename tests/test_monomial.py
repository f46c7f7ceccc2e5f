import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from covagg import (
    ContractError,
    MonomialConfig,
    monomial_kernel_check,
    monomial_output_dim,
    phi_monomial,
)
from covagg.monomial import phi_monomial_batch, phi_monomial_weighted_sum


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
    out = phi_monomial(np.array([1.0, 0.0]), MonomialConfig(2, 2))
    assert out == pytest.approx([1.0, 0.0, 0.0], abs=0)


def test_degree3_component_order():
    a, b, c = 0.2, -0.4, math.sqrt(1 - 0.2**2 - 0.4**2)
    x = np.array([a, b, c])
    out = phi_monomial(x, MonomialConfig(3, 3))
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
        lhs = monomial_kernel_check(x, y, degree)
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
    assert abs(monomial_kernel_check(x, y, degree) - float(np.dot(x, y)) ** degree) < 1e-10


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_kernel_exactness_at_dim_128(rng, degree):
    x, y = unit_rows(rng, 2, 128)
    assert abs(monomial_kernel_check(x, y, degree) - float(np.dot(x, y)) ** degree) < 1e-10


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_norm_preservation(rng, degree):
    X = unit_rows(rng, 20, 12)
    out = phi_monomial_batch(X, MonomialConfig(degree, 12))
    assert np.linalg.norm(out, axis=1) == pytest.approx(np.ones(20), abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 600])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_weighted_sum_matches_dense_embedding(rng, degree, d, n):
    # d < 3 has no degree-3 triples; the gather must still cover every component
    config = MonomialConfig(degree, d)
    X = unit_rows(rng, n, d)
    W = rng.standard_normal((n, 7))
    out = phi_monomial_weighted_sum(W, X, config)
    assert out.shape == (7, config.output_dim)
    assert np.max(np.abs(out - W.T @ phi_monomial_batch(X, config))) < 1e-12


def test_self_and_orthogonal_cases():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert monomial_kernel_check(x, x, 2) == pytest.approx(1.0, abs=1e-14)
    assert monomial_kernel_check(x, y, 2) == pytest.approx(0.0, abs=1e-14)


def test_deterministic_output(rng):
    x = unit_rows(rng, 1, 9)[0]
    config = MonomialConfig(3, 9)
    assert np.array_equal(phi_monomial(x, config), phi_monomial(x, config))


def test_rejects_non_unit_input():
    with pytest.raises(ContractError):
        phi_monomial(np.array([1.0, 1.0]), MonomialConfig(2, 2))


def test_rejects_bad_degree():
    with pytest.raises(ContractError):
        MonomialConfig(4, 8)
