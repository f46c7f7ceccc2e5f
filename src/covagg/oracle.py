"""Reference forms that the test suite compares the package against.

The double-sum kernels are quadratic in the set sizes and deliberately
naive: 64-bit scalars accumulated in plain loops. The rest are the
explicit definitions that the runtime never needs in this form: the
Kronecker modulation of one descriptor, a set seen after a global
rotation, and the objectives that k-means and EM training must not
worsen. Not part of the supported public surface.
"""

from __future__ import annotations

import numpy as np

from .angle_map import FourierCoefficients, truncated_kernel, wrap_angle
from .codebooks import GmmModel, _as_matrix, _log_density, _logsumexp_rows, _pairwise_sq_dists
from .descriptors import DescriptorSet, EmbeddingConfig, embed_batch
from .errors import ContractError, DegenerateDataError


def modulate(v, a) -> np.ndarray:
    """Modulated descriptor kron(a, v): one base-dim block per angle feature component."""
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.ndim != 1 or a.ndim != 1 or a.size % 2 == 0:
        raise ContractError("modulate expects a 1-D vector and an odd-length angle feature")
    return np.multiply.outer(a, v).ravel()


def rotate_set(dset: DescriptorSet, theta: float) -> DescriptorSet:
    """The same image as seen after a global rotation by ``theta``."""
    return DescriptorSet(
        dset.descriptors,
        np.asarray(wrap_angle(dset.angles - theta)),
        image_id=dset.image_id,
        raw=dset.raw,
    )


def quantization_error(data, centroids) -> float:
    """Sum of squared distances to the nearest centroid: the k-means objective."""
    data = _as_matrix(data, "data")
    d2 = _pairwise_sq_dists(data, np.asarray(centroids, dtype=np.float64))
    return float(np.sum(np.min(d2, axis=1)))


def gmm_log_likelihood(data, model: GmmModel) -> float:
    """Mean per-point log density under the mixture: the EM objective."""
    data = _as_matrix(data, "data")
    return float(np.mean(_logsumexp_rows(_log_density(data, model))))


def _raw_modulated_sum(
    xset: DescriptorSet,
    yset: DescriptorSet,
    ex: np.ndarray,
    ey: np.ndarray,
    coeffs: FourierCoefficients,
) -> float:
    total = 0.0
    for i in range(len(xset)):
        for j in range(len(yset)):
            sim = float(np.dot(ex[i], ey[j]))
            weight = float(
                truncated_kernel(float(xset.angles[i] - yset.angles[j]), coeffs)
            )
            total += sim * weight
    return total


def brute_match_kernel(
    xset: DescriptorSet,
    yset: DescriptorSet,
    embedding: EmbeddingConfig,
    coeffs: FourierCoefficients,
) -> float:
    """Normalized double-sum match kernel between two descriptor sets."""
    ex = embed_batch(xset.descriptors, embedding)
    ey = embed_batch(yset.descriptors, embedding)
    self_x = _raw_modulated_sum(xset, xset, ex, ex, coeffs)
    self_y = _raw_modulated_sum(yset, yset, ey, ey, coeffs)
    if self_x <= 0.0 or self_y <= 0.0:
        raise DegenerateDataError("set self-similarity is not positive")
    cross = _raw_modulated_sum(xset, yset, ex, ey, coeffs)
    return cross / np.sqrt(self_x * self_y)


def _raw_power_sum(X: np.ndarray, Y: np.ndarray, degree: int) -> float:
    total = 0.0
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            total += float(np.dot(X[i], Y[j])) ** degree
    return total


def brute_monomial_kernel(X, Y, degree: int) -> float:
    """Normalized double sum of inner-product powers between two lists."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    self_x = _raw_power_sum(X, X, degree)
    self_y = _raw_power_sum(Y, Y, degree)
    if self_x <= 0.0 or self_y <= 0.0:
        raise DegenerateDataError("set self-similarity is not positive")
    return _raw_power_sum(X, Y, degree) / np.sqrt(self_x * self_y)
