import numpy as np
import pytest

from conftest import random_set, unit_rows
from covagg import (
    AngleMapConfig,
    FourierCoefficients,
    MonomialConfig,
    fourier_coeffs,
    score_cosine,
)
from covagg.aggregate import aggregate
from covagg.oracle import brute_match_kernel, brute_monomial_kernel

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
EMB8 = MonomialConfig(1, 8)


def test_self_kernel_is_one(rng):
    xs = random_set(rng, 8, 8)
    assert brute_match_kernel(xs, xs, EMB8, K8_N3) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_and_bounded(rng):
    xs = random_set(rng, 8, 8, "x")
    ys = random_set(rng, 8, 8, "y")
    k_xy = brute_match_kernel(xs, ys, EMB8, K8_N3)
    k_yx = brute_match_kernel(ys, xs, EMB8, K8_N3)
    assert k_xy == pytest.approx(k_yx, abs=1e-12)
    assert abs(k_xy) <= 1.0 + 1e-12


def test_constant_angle_kernel_reduces_to_plain_match_kernel(rng):
    trivial = FourierCoefficients(np.array([1.0]))
    xs = random_set(rng, 6, 8, "x")
    ys = random_set(rng, 6, 8, "y")
    value = brute_match_kernel(xs, ys, EMB8, trivial)

    def plain(a, b):
        return sum(
            float(np.dot(x, y)) for x in a.descriptors for y in b.descriptors
        )

    expected = plain(xs, ys) / np.sqrt(plain(xs, xs) * plain(ys, ys))
    assert value == pytest.approx(expected, abs=1e-12)


def test_monomial_degree_one_equals_mean_vector_cosine(rng):
    X = unit_rows(rng, 6, 8)
    Y = unit_rows(rng, 6, 8)
    value = brute_monomial_kernel(X, Y, 1)
    sx = X.sum(axis=0)
    sy = Y.sum(axis=0)
    expected = float(np.dot(sx, sy)) / (np.linalg.norm(sx) * np.linalg.norm(sy))
    assert value == pytest.approx(expected, abs=1e-12)


def test_monomial_singletons(rng):
    x = unit_rows(rng, 1, 8)
    y = unit_rows(rng, 1, 8)
    for p in (1, 2, 3):
        assert brute_monomial_kernel(x, y, p) == pytest.approx(
            float(np.dot(x[0], y[0])) ** p / 1.0, abs=1e-12
        )


def test_monomial_kernel_matches_unmodulated_aggregate(rng):
    trivial = FourierCoefficients(np.array([1.0]))
    for p in (1, 2, 3):
        emb = MonomialConfig(p, 8)
        xs = random_set(rng, 6, 8, "x")
        ys = random_set(rng, 6, 8, "y")
        agg = score_cosine(aggregate(xs, emb, trivial), aggregate(ys, emb, trivial))
        ref = brute_monomial_kernel(xs.descriptors, ys.descriptors, p)
        assert abs(agg - ref) < 1e-10
