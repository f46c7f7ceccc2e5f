"""Similarity scoring, including the rotation-swept trigonometric score.

Because the aggregated vector transforms block-wise under a global
rotation of either image, the similarity as a function of the relative
rotation angle is a trigonometric polynomial of degree N in the basis of
``angle_map.harmonics``. Its 2N+1 coefficients come from 1 + 4N block
inner products: one constant-block product plus the 2 x 2 products of
each frequency's (cos, sin) block pairs. ``score_coefficients`` takes
them for any number of database rows; ``score_polynomial`` is its
one-row case. The maximum is found exactly, among the roots of the
derivative, at the cost of one 2N x 2N eigenvalue problem.

``query_multi_rotation`` scores a grid of query rotations against a
whole database. When the pipeline is block-covariant (no plain power
law, no RN, no truncation), the stored rows keep the block layout and
the grid is read off every row's polynomial, whatever the grid size.
Other pipelines post-process each rotated query row and score all of
them against the database, which is streamed through that product in
cache-sized tiles: one product over the whole store takes longer than a
read of it, most likely because the BLAS packs the store first.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .aggregate import ModulatedVector
from .angle_map import harmonics, wrap_angle
from .descriptors import DescriptorSet
from .errors import ContractError

_block_dot_counter = ContextVar("block_dot_counter", default=None)


@contextmanager
def count_block_dots():
    """Count the block inner products made in this context, not its threads; for tests."""
    counter = SimpleNamespace(count=0)
    token = _block_dot_counter.set(counter)
    try:
        yield counter
    finally:
        _block_dot_counter.reset(token)


@dataclass(frozen=True)
class ScorePolynomial:
    """Score as a function of the relative rotation angle.

    s(theta) = c0 + sum_n a_n cos(n theta) + b_n sin(n theta).
    """

    c0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.a, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=np.float64))
        if a.ndim != 1 or b.shape != a.shape:
            raise ContractError("coefficient vectors a and b must be 1-D and equal length")
        if not (np.isfinite(self.c0) and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ContractError("score polynomial coefficients must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_freq(self) -> int:
        return self.a.size

    def evaluate(self, theta):
        t = np.asarray(theta, dtype=np.float64)
        basis = harmonics(t, self.n_freq)
        out = np.full(t.shape, self.c0)
        for n in range(1, self.n_freq + 1):
            out += self.a[n - 1] * basis[..., 2 * n - 1] + self.b[n - 1] * basis[..., 2 * n]
        if t.ndim == 0:
            return float(out)
        return out


def _check_compatible(X: ModulatedVector, Y: ModulatedVector):
    if X.base_dim != Y.base_dim or X.n_freq != Y.n_freq:
        raise ContractError(
            f"vectors come from different configurations: "
            f"({X.base_dim}, {X.n_freq}) vs ({Y.base_dim}, {Y.n_freq})"
        )


def score_cosine(X: ModulatedVector, Y: ModulatedVector) -> float:
    """Plain inner product of two aggregated vectors."""
    _check_compatible(X, Y)
    return float(np.dot(X.values, Y.values))


def score_polynomial(X: ModulatedVector, Y: ModulatedVector) -> ScorePolynomial:
    """Coefficients of the rotation-score polynomial between two images.

    Uses exactly 1 + 4N inner products of base-dim blocks.
    """
    _check_compatible(X, Y)
    row = score_coefficients(X, Y.values[None])[0]
    return ScorePolynomial(c0=float(row[0]), a=row[1::2], b=row[2::2])


def max_score(poly: ScorePolynomial, samples: int = 64):
    """Angle in (-pi, pi] and value of the polynomial maximum.

    With z = exp(i theta), z^N s'(theta) is a degree-2N polynomial in z
    whose coefficient of z^(N+n) is n (b_n + i a_n) / 2 and of z^(N-n)
    its conjugate. The angles of its roots are every critical point of
    s, so the best of them is the maximum, exact to rounding. The
    ``samples`` uniformly spaced angles (at least 2N+1) are candidates
    too, which keeps the result at or above every grid sample however
    ill-conditioned the roots are.
    """
    min_samples = 2 * poly.n_freq + 1
    if int(samples) != samples or samples < min_samples:
        raise ContractError(f"need at least {min_samples} samples, got {samples!r}")
    grid = np.linspace(-np.pi, np.pi, int(samples), endpoint=False)
    upper = np.arange(1, poly.n_freq + 1) * (poly.b + 1j * poly.a) / 2.0
    # Terms below rounding are zeroed, since np.roots divides by the
    # leading term and a subnormal one overflows. np.roots drops zero
    # leading terms and returns no root when every term is zero.
    upper[np.abs(upper) <= np.finfo(float).eps * np.abs(upper).max(initial=0.0)] = 0.0
    critical = np.angle(np.roots(np.concatenate([upper[::-1], [0.0], upper.conj()])))
    theta = wrap_angle(np.concatenate([grid, critical]))
    vals = poly.evaluate(theta)
    best = int(np.argmax(vals))
    return float(theta[best]), float(vals[best])


def _database(db_vectors, dim: int) -> np.ndarray:
    db = np.asarray(db_vectors, dtype=np.float64)
    if db.ndim != 2:
        raise ContractError("database vectors must form a 2-D array")
    if db.shape[1] != dim:
        raise ContractError(f"query pipeline produces dim {dim} but database stores {db.shape[1]}")
    return db


def score_coefficients(X: ModulatedVector, db_vectors) -> np.ndarray:
    """Score-polynomial coefficients of X against every database row.

    Returns an (n_db, 2N+1) array whose row i is [c0, a_1, b_1, ..., a_N,
    b_N] of ``score_polynomial(X, row i)``, in the order of ``harmonics``
    and of the stored blocks. The constant blocks take one product; every
    frequency of every row then takes the 2 x 2 products of its (cos, sin)
    block pair with the query's in one batched matmul, so a row costs
    1 + 4N block products and the database is not copied.
    """
    db = _database(db_vectors, X.dim)
    n_db, n_freq, q = db.shape[0], X.n_freq, X.blocks
    blocks = db.reshape(n_db, 2 * n_freq + 1, X.base_dim)
    out = np.empty((n_db, 2 * n_freq + 1))
    out[:, 0] = blocks[:, 0] @ q[0]
    # p[i, n] = [[yc.qc, yc.qs], [ys.qc, ys.qs]] for row i, frequency n
    pairs = blocks[:, 1:].reshape(n_db, n_freq, 2, X.base_dim)
    p = pairs @ q[1:].reshape(n_freq, 2, X.base_dim).transpose(0, 2, 1)
    np.add(p[..., 0, 0], p[..., 1, 1], out=out[:, 1::2])
    np.subtract(p[..., 0, 1], p[..., 1, 0], out=out[:, 2::2])
    counter = _block_dot_counter.get()
    if counter is not None:
        counter.count += n_db + p.size
    return out


# Tile shape of the rotated-row product; see ``_rotated_row_scores``.
_TILE_COLS = 2048  # components per column block
_TILE_MADDS = 500_000  # multiply-adds per tile product
_TILE_MAX_ROTATIONS = 8  # more rotations, or one, take a single product


def _rotated_row_scores(rows: np.ndarray, db: np.ndarray) -> np.ndarray:
    """(n_db, R) inner products of every database row with every rotated row.

    The database is read once, in row tiles x column blocks, and the
    column blocks of a tile are added together. At 10000 x 3696 and
    R = 8 (one OpenBLAS thread, AVX-512) the single product took 42-48
    ms, the R = 1 pass over the same store 18 ms, and these tiles 30-34
    ms; tiles just over 10^6 multiply-adds took 44 ms, so the BLAS most
    likely packs the store for larger products. The column block keeps
    the rotated rows' share of a tile in cache. At one rotation the
    product is a matrix-vector pass, and beyond eight the single product
    is as fast or faster, so both run as one tile over the whole database.
    """
    n_db, dim = db.shape
    n_rot = rows.shape[0]
    if n_rot == 1 or n_rot > _TILE_MAX_ROTATIONS:
        return (rows @ db.T).T  # in this order: db @ rows.T took up to 1.5x as long
    out = np.empty((n_db, n_rot))
    rows_t = rows.T
    cols = min(dim, _TILE_COLS)
    step = max(1, _TILE_MADDS // (cols * n_rot))
    partial = np.empty((step, n_rot))
    for lo in range(0, n_db, step):
        hi = min(lo + step, n_db)
        np.matmul(db[lo:hi, :cols], rows_t[:cols], out=out[lo:hi])
        for k0 in range(cols, dim, cols):
            block = partial[: hi - lo]
            np.matmul(db[lo:hi, k0 : k0 + cols], rows_t[k0 : k0 + cols], out=block)
            out[lo:hi] += block
    return out


def query_multi_rotation(query: DescriptorSet, pipeline, db_vectors, n_rot: int = 8):
    """Best score per database vector over n_rot query rotation hypotheses.

    The query is aggregated once. For a block-covariant pipeline each
    hypothesis is evaluated on every database row's score polynomial
    (``score_coefficients``) and no rotated row is built. Otherwise the
    query's blocks are rotated per hypothesis, the rotated rows are
    post-processed together (``Pipeline.encode_rotations``), and all
    hypotheses are scored against the database in one pass over it,
    streamed in cache-sized tiles (``_rotated_row_scores``).
    Returns (scores, thetas): the per-database maximum and the rotation
    hypothesis that achieved it (the first one, on a tie).
    """
    if int(n_rot) != n_rot or n_rot < 1:
        raise ContractError(f"n_rot must be a positive integer, got {n_rot!r}")
    db = _database(db_vectors, pipeline.output_dim)
    thetas = 2.0 * np.pi * np.arange(int(n_rot)) / float(n_rot)
    if pipeline.block_covariant:
        coefficients = score_coefficients(pipeline.modulated(query), db)
        scores_all = (harmonics(thetas, pipeline.n_freq) @ coefficients.T).T
    else:
        scores_all = _rotated_row_scores(pipeline.encode_rotations(query, thetas), db)
    best = np.argmax(scores_all, axis=1)
    return scores_all[np.arange(db.shape[0]), best], np.asarray(wrap_angle(thetas[best]))
