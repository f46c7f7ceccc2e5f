"""Exact feature maps for integer powers of the inner product.

For unit vectors x, y and degree p in {1, 2, 3}, the map phi_p satisfies
<phi_p(x), phi_p(y)> = <x, y>**p exactly. Component ordering is fixed:
within each term class, indices run in lexicographic order, so equal
inputs always produce bit-identical outputs.

``phi_monomial_weighted_sum`` gives weighted sums of embeddings from
moments of the inputs, which is how images are aggregated: phi2 from all
second moments, phi3 from blocked GEMMs that compute only the third
moments its components read. The explicit ``phi_monomial_batch`` defines
the layout and is their reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, _descriptor_matrix, check_integer

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
        input_dim = check_integer(
            self.input_dim, f"input_dim must be a positive integer, got {self.input_dim!r}", 1
        )
        object.__setattr__(self, "input_dim", input_dim)
        monomial_output_dim(self.degree, input_dim)  # refuses a degree other than 1, 2 or 3

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
    """X as a float64 matrix of finite unit rows (within 1e-6) of the configured dim."""
    X = _descriptor_matrix(X, config.input_dim, "configured")
    # the row norms as np.linalg.norm takes them, without its argument handling
    deviation = np.abs(np.sqrt(np.add.reduce(X * X, axis=1)) - 1.0)
    # NaN fails every comparison, so test for rows within the tolerance
    if not (deviation <= UNIT_NORM_TOL).all():
        worst = float(np.max(deviation))
        raise ContractError(
            f"descriptors must be finite unit vectors within {UNIT_NORM_TOL}; worst deviation {worst:.3g}"
        )
    return X


def phi_monomial_batch(X, config: MonomialConfig) -> np.ndarray:
    """Embed the rows of X; rows must be finite unit vectors within 1e-6."""
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
def _moment_gather(d: int):
    """Where each phi2 component sits in the flattened moments, and its weight.

    The moments are ``L.T @ X`` reshaped to (K, d * d), L the n x K*d
    row-wise product of the weights and X, so column i * d + j holds
    sum_n w_n x_i x_j. The arrays are read-only, since every caller
    shares them.
    """
    i, j = _pair_indices(d)
    cols = np.concatenate([np.arange(d) * (d + 1), i * d + j])
    weights = np.concatenate([np.ones(d), np.full(i.size, _SQRT2)])
    cols.setflags(write=False)
    weights.setflags(write=False)
    return cols, weights


@lru_cache(maxsize=None)
def _phi3_plan(d: int, K: int):
    """The blocked phi3 moment GEMMs and where each component sits in their output.

    The left rows are i-major (row i * K + f holds w_f x_i) and the pair
    rows P hold x_j x_l for j <= l in lexicographic order. The rows of
    ``min(4, d)`` blocks of i, [i0, i1), each take one GEMM against the
    suffix of P from pair (i0, i0), written row-major into one flat
    buffer. ``blocks`` holds (left row start, stop, pair start, buffer
    start, stop) per GEMM. A component with sorted index triple
    a <= b <= c is read for weight f at left row a * K + f and pair
    (b, c), which the suffix of a's block holds since b >= a >= i0:
    ``cols[f]`` holds those buffer positions in ``phi_monomial_batch``
    order, and ``weights`` the 1, sqrt 3 or sqrt 6 of each component.
    The arrays are read-only, since every caller shares them.
    """
    m = d * (d + 1) // 2
    pair = np.zeros((d, d), dtype=np.intp)
    pair[_pair_indices(d, 0)] = np.arange(m)
    n_blocks = min(4, d)
    edges = np.arange(n_blocks + 1) * d // n_blocks
    first = pair[edges[:-1], edges[:-1]]  # each block's first pair
    suffix = m - first
    starts = np.concatenate([[0], np.cumsum(np.diff(edges) * K * suffix)])
    blocks = tuple(zip(edges[:-1] * K, edges[1:] * K, first, starts[:-1], starts[1:]))
    diag = np.arange(d)
    oi, oj = _ordered_pair_indices(d)
    ti, tj, tk = _triple_indices(d)
    # x_i^3 is (i,i,i); x_i^2 x_j is (i,i,j) or (j,i,i); x_i x_j x_k is (i,j,k)
    a = np.concatenate([diag, np.minimum(oi, oj), ti])
    b = np.concatenate([diag, oi, tj])
    c = np.concatenate([diag, np.maximum(oi, oj), tk])
    blk = np.searchsorted(edges, a, side="right") - 1
    base = starts[blk] + (a - edges[blk]) * K * suffix[blk] + pair[b, c] - first[blk]
    cols = base + np.arange(K)[:, None] * suffix[blk]
    weights = np.concatenate([np.ones(d), np.full(oi.size, _SQRT3), np.full(ti.size, _SQRT6)])
    cols.setflags(write=False)
    weights.setflags(write=False)
    return blocks, int(starts[-1]), cols, weights


def _phi3_weighted_sum(W, X) -> np.ndarray:
    n, d = X.shape
    Xt = np.ascontiguousarray(X.T)
    pairs = np.empty((d * (d + 1) // 2, n))
    row = 0
    for j in range(d):
        np.multiply(Xt[j], Xt[j:], out=pairs[row : row + d - j])
        row += d - j
    # a strided W.T would make this product eight times slower
    left = (Xt[:, None, :] * np.ascontiguousarray(W.T)[None, :, :]).reshape(-1, n)
    blocks, size, cols, weights = _phi3_plan(d, W.shape[1])
    moments = np.empty(size)
    for r0, r1, p0, start, stop in blocks:
        np.matmul(left[r0:r1], pairs[p0:].T, out=moments[start:stop].reshape(r1 - r0, -1))
    out = np.take(moments, cols)
    out *= weights
    return out


def phi_monomial_weighted_sum(W, X, config: MonomialConfig) -> np.ndarray:
    """``W.T @ phi_monomial_batch(X, config)`` without forming the embedding.

    W holds one row of weights per descriptor (n x K). phi2 takes one
    moment GEMM, the n x K*d row-wise product of W and X against X, and
    a fixed weighted gather (``_moment_gather``). phi3 computes only the
    moments its gather reads: each of ``min(4, d)`` blocks of the i-major
    products w_f x_i takes one GEMM against the pair products x_j x_l
    (j <= l) from pair (i0, i0) on (``_phi3_plan``). At d = 32 and K = 7
    that is 56 thousand multiply-adds per descriptor, where all K*d by
    d(d+1)/2 moments would take 118 thousand.
    """
    X = _unit_rows(X, config)
    W = np.asarray(W, dtype=np.float64)
    if config.degree == 1:
        return W.T @ X
    if config.degree == 3:
        return _phi3_weighted_sum(W, X)
    n, d = X.shape
    # the same products as W[:, :, None] * X[:, None, :], in 60 % of its time
    left = np.einsum("nk,nd->nkd", W, X, order="C").reshape(n, -1)
    cols, weights = _moment_gather(d)
    out = (left.T @ X).reshape(W.shape[1], -1).take(cols, axis=1)
    out *= weights
    return out

