"""Exact feature maps for integer powers of the inner product.

For unit vectors x, y and degree p in {1, 2, 3}, the map phi_p satisfies
<phi_p(x), phi_p(y)> = <x, y>**p exactly. Component ordering is fixed:
within each term class, indices run in lexicographic order, so equal
inputs always produce bit-identical outputs.

``phi_monomial_weighted_sum`` gives weighted sums of embeddings from
moments of the inputs, which is how images are aggregated; the explicit
``phi_monomial_batch`` defines the layout and is its reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError

UNIT_NORM_TOL = 1e-6

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)


def monomial_output_dim(degree: int, input_dim: int) -> int:
    d = input_dim
    if degree == 1:
        return d
    if degree == 2:
        return d * (d + 1) // 2
    if degree == 3:
        return (d**3 + 3 * d**2 + 2 * d) // 6
    raise ContractError(f"monomial degree must be 1, 2 or 3, got {degree!r}")


@dataclass(frozen=True)
class MonomialConfig:
    degree: int
    input_dim: int

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ContractError(f"monomial degree must be 1, 2 or 3, got {self.degree!r}")
        if int(self.input_dim) != self.input_dim or self.input_dim < 1:
            raise ContractError(f"input_dim must be a positive integer, got {self.input_dim!r}")

    @property
    def output_dim(self) -> int:
        return monomial_output_dim(self.degree, self.input_dim)


@lru_cache(maxsize=None)
def _pair_indices(d: int, k: int = 1):
    # i + k <= j, lexicographic
    i, j = np.triu_indices(d, k=k)
    return i.astype(np.intp), j.astype(np.intp)


@lru_cache(maxsize=None)
def _ordered_pair_indices(d: int):
    # i != j, lexicographic on (i, j)
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    return i.astype(np.intp), j.astype(np.intp)


@lru_cache(maxsize=None)
def _triple_indices(d: int):
    # i < j < k, lexicographic
    if d < 3:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(d), 3)),
        dtype=np.intp,
    ).reshape(-1, 3)
    return flat[:, 0], flat[:, 1], flat[:, 2]


def _unit_rows(X, config: MonomialConfig) -> np.ndarray:
    """X as a float64 matrix of unit rows (within 1e-6) of the configured dim."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("expected a 2-D array of descriptors")
    if X.shape[1] != config.input_dim:
        raise ContractError(
            f"descriptor dim {X.shape[1]} does not match configured dim {config.input_dim}"
        )
    norms = np.linalg.norm(X, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ContractError(f"descriptors must be unit vectors within {UNIT_NORM_TOL}; worst deviation {worst:.3g}")
    return X


def phi_monomial_batch(X, config: MonomialConfig) -> np.ndarray:
    """Embed the rows of X; rows must be unit vectors within 1e-6."""
    X = _unit_rows(X, config)
    n, d = X.shape
    p = config.degree
    if p == 1:
        return X.copy()
    out = np.empty((n, config.output_dim))
    if p == 2:
        i, j = _pair_indices(d)
        out[:, :d] = X * X
        out[:, d:] = _SQRT2 * X[:, i] * X[:, j]
        return out
    oi, oj = _ordered_pair_indices(d)
    ti, tj, tk = _triple_indices(d)
    out[:, :d] = X**3
    stop = d + oi.size
    out[:, d:stop] = _SQRT3 * X[:, oi] ** 2 * X[:, oj]
    out[:, stop:] = _SQRT6 * X[:, ti] * X[:, tj] * X[:, tk]
    return out


@lru_cache(maxsize=None)
def _moment_gather(degree: int, d: int):
    """Where each phi component sits in the flattened moments, and its weight.

    For degree p in {2, 3} the moments are ``L.T @ R`` reshaped to
    (K, d * m): L is the row-wise product of the weights and X, R is X
    (m = d) for p = 2 and the m = d(d+1)/2 pair products x_j x_l (j <= l)
    for p = 3, so column i * m + c holds sum_n w_n x_i R_c. The arrays
    are read-only, since every caller shares them.
    """
    if degree == 2:
        i, j = _pair_indices(d)
        cols = np.concatenate([np.arange(d) * (d + 1), i * d + j])
        weights = np.concatenate([np.ones(d), np.full(i.size, _SQRT2)])
    else:
        m = d * (d + 1) // 2
        pair = np.zeros((d, d), dtype=np.intp)
        pair[_pair_indices(d, 0)] = np.arange(m)
        diag = np.arange(d)
        oi, oj = _ordered_pair_indices(d)
        ti, tj, tk = _triple_indices(d)
        # x_i^3 at [i, (i,i)], x_i^2 x_j at [j, (i,i)], x_i x_j x_k at [i, (j,k)]
        cols = np.concatenate(
            [diag * m + pair[diag, diag], oj * m + pair[oi, oi], ti * m + pair[tj, tk]]
        )
        weights = np.concatenate(
            [np.ones(d), np.full(oi.size, _SQRT3), np.full(ti.size, _SQRT6)]
        )
    cols.setflags(write=False)
    weights.setflags(write=False)
    return cols, weights


def phi_monomial_weighted_sum(W, X, config: MonomialConfig) -> np.ndarray:
    """``W.T @ phi_monomial_batch(X, config)`` without forming the embedding.

    W holds one row of weights per descriptor (n x K). For degrees 2 and
    3 the sums come from one moment GEMM, an n x K*d by d or d(d+1)/2
    product, and a fixed weighted gather (``_moment_gather``) instead of
    an n x output_dim embedding.
    """
    X = _unit_rows(X, config)
    W = np.asarray(W, dtype=np.float64)
    if config.degree == 1:
        return W.T @ X
    n, d = X.shape
    left = (W[:, :, None] * X[:, None, :]).reshape(n, -1)
    if config.degree == 2:
        right = X
    else:
        # row gathers of the transpose are far cheaper than column gathers
        Xt = np.ascontiguousarray(X.T)
        pi, pj = _pair_indices(d, 0)
        right = (Xt[pi] * Xt[pj]).T
    cols, weights = _moment_gather(config.degree, d)
    return np.take((left.T @ right).reshape(W.shape[1], -1), cols, axis=1) * weights


def phi_monomial(x, config: MonomialConfig) -> np.ndarray:
    """Embed a single unit vector."""
    return phi_monomial_batch(np.asarray(x, dtype=np.float64)[None, :], config)[0]


def monomial_kernel_check(x, y, degree: int) -> float:
    """Inner product of the two embeddings; equals <x, y>**degree."""
    x = np.asarray(x, dtype=np.float64)
    config = MonomialConfig(degree=degree, input_dim=x.shape[-1])
    return float(np.dot(phi_monomial(x, config), phi_monomial(y, config)))
