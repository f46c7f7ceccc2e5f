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

``query_multi_rotation`` scores a grid of R query rotations against a
whole database by one rule, ``Pipeline.commuting_turns``: the g turns
that commute with post-processing are read off the score polynomials of
the first R/g post-processed rows, (R/g)(1 + 4N) block products per
database row, and at g = 1 the R rows are scored directly, R(2N + 1).
All polynomials come from one tiled kernel, ``_block_coefficients``.
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
from .errors import ContractError, check_integer

_block_dot_counter = ContextVar("block_dot_counter", default=None)

# Largest rotation grid ``query_multi_rotation`` takes: one hypothesis per degree. The exact
# maximum is ``max_score``'s, and a huge grid would fail allocating its angles.
MAX_ROTATIONS = 360


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
    samples = check_integer(
        samples, f"need at least {min_samples} samples, got {samples!r}", min_samples
    )
    grid = np.linspace(-np.pi, np.pi, samples, endpoint=False)
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
    """The database as a 2-D array of width ``dim``; float32 and float64 stay as they are.

    The scoring products widen a float32 store one tile at a time, so it
    is never copied whole.
    """
    db = np.asarray(db_vectors)
    if db.dtype not in (np.float32, np.float64):
        db = db.astype(np.float64)
    if db.ndim != 2:
        raise ContractError("database vectors must form a 2-D array")
    if db.shape[1] != dim:
        raise ContractError(f"query pipeline produces dim {dim} but database stores {db.shape[1]}")
    return db


# Multiply-adds per row tile of ``_block_coefficients``. At 10000 x 3696
# tiles of 4 * 10^6 and a single tile took 1.6-2.2x as long; over shapes
# from 48 x 41888 to 10000 x 3696 the time rose past 2-3.5 * 10^6.
_COEF_TILE_MADDS = 1_000_000


def _block_coefficients(rows: np.ndarray, db: np.ndarray, base_dim: int, n_freq: int) -> np.ndarray:
    """(2N+1, B, n_db) score-polynomial coefficients of B query rows against every database row.

    Entry [:, j, i] is [c0, a_1, b_1, ..., a_N, b_N] of query row j against
    database row i, in the order of ``harmonics`` and of the stored blocks.
    The store is read once, in row tiles: the constant blocks take one
    (B x d) by (d x T) product, and the tile's 2N (cos, sin) blocks, viewed
    as (N, 2, d, T) without a copy, take one batched product with each
    frequency's (2B x d) matrix [q_c; q_s]. Then a = p_cc + p_ss and
    b = p_cs - p_sc, so a row costs 1 + 4N block products per query row.
    """
    n_db, dim = db.shape
    n_rows = rows.shape[0]
    q = rows.reshape(n_rows, 2 * n_freq + 1, base_dim)
    # q_pairs[n, 0] = [q_c; q_s] of frequency n + 1, one row per query row
    q_pairs = q[:, 1:].reshape(n_rows, n_freq, 2, base_dim).transpose(1, 2, 0, 3)
    q_pairs = np.ascontiguousarray(q_pairs).reshape(n_freq, 1, 2 * n_rows, base_dim)
    out = np.empty((2 * n_freq + 1, n_rows, n_db))
    # equal tiles of about _COEF_TILE_MADDS: a last tile of a few rows costs
    # nearly as much as a full one
    n_tiles = max(1, round(n_db * dim * n_rows / _COEF_TILE_MADDS))
    step = max(1, -(-n_db // n_tiles))
    for lo in range(0, n_db, step):
        tile = db[lo : lo + step].astype(np.float64, copy=False)  # widening is exact
        size = tile.shape[0]
        np.matmul(q[:, 0], tile[:, :base_dim].T, out=out[0, :, lo : lo + size])
        if not n_freq:
            continue
        # p_c[n], p_s[n]: [q_c; q_s] of frequency n + 1 by the cos and by the sin blocks
        if size == 1:  # one (d x 2) product per frequency reads [q_c; q_s] once, not twice
            pair = tile.reshape(2 * n_freq + 1, base_dim)[1:].reshape(n_freq, 1, 2, base_dim)
            p = (q_pairs @ pair.transpose(0, 1, 3, 2))[:, 0]
            p_c, p_s = p[..., :1], p[..., 1:]
        else:
            pairs = tile[:, base_dim:].reshape(size, n_freq, 2, base_dim).transpose(1, 2, 3, 0)
            p = q_pairs @ pairs
            p_c, p_s = p[:, 0], p[:, 1]
        np.add(p_c[:, :n_rows], p_s[:, n_rows:], out=out[1::2, :, lo : lo + size])
        np.subtract(p_c[:, n_rows:], p_s[:, :n_rows], out=out[2::2, :, lo : lo + size])
    counter = _block_dot_counter.get()
    if counter is not None:
        counter.count += (1 + 4 * n_freq) * n_db * n_rows
    return out


def score_coefficients(X: ModulatedVector, db_vectors) -> np.ndarray:
    """Score-polynomial coefficients of X against every database row.

    Returns an (n_db, 2N+1) array whose row i is [c0, a_1, b_1, ..., a_N,
    b_N] of ``score_polynomial(X, row i)``, in the order of ``harmonics``
    and of the stored blocks: ``_block_coefficients`` with one query row,
    1 + 4N block products per database row and no copy of the database.
    """
    db = _database(db_vectors, X.dim)
    return _block_coefficients(X.values[None], db, X.base_dim, X.n_freq)[:, 0].T


# Tile shape of the rotated-row product; see ``_rotated_row_scores``.
_TILE_COLS = 2048  # components per column block
_TILE_MADDS = 500_000  # multiply-adds per tile product
_TILE_MAX_ROTATIONS = 8  # more rotations, or one, take a single product
_WIDEN_BYTES = 1 << 21  # float64 bytes of a float32 store that the single product widens at once


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
    is as fast or faster, so both run as one product over the whole float64
    database. A float32 store is widened a tile at a time in every case:
    the single product then takes row tiles of ``_WIDEN_BYTES``.
    """
    n_db, dim = db.shape
    n_rot = rows.shape[0]
    if n_rot == 1 or n_rot > _TILE_MAX_ROTATIONS:
        if db.dtype == np.float64:
            return (rows @ db.T).T  # in this order: db @ rows.T took up to 1.5x as long
        out = np.empty((n_db, n_rot))
        # whole multiples of 8 rows gave the float64 store's R = 1 scores bit for bit
        step = max(8, _WIDEN_BYTES // (64 * dim) * 8)
        for lo in range(0, n_db, step):
            out[lo : lo + step] = (rows @ db[lo : lo + step].astype(np.float64).T).T
        return out
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


def _turn_harmonics(n_turns: int, n_freq: int) -> np.ndarray:
    """``harmonics`` of the turns 2 pi k / n_turns; exact 0 and +-1 at quarter turns."""
    basis = harmonics(2.0 * np.pi * np.arange(n_turns) / float(n_turns), n_freq)
    return np.rint(basis) if 4 % n_turns == 0 else basis


def _turn_scores(base: np.ndarray, db: np.ndarray, n_turns: int, base_dim: int, n_freq: int):
    """(n_db, B * n_turns) scores; column k * B + b is base row b turned by 2 pi k / n_turns."""
    coefficients = _block_coefficients(base, db, base_dim, n_freq).reshape(2 * n_freq + 1, -1)
    by_turn = _turn_harmonics(n_turns, n_freq) @ coefficients
    return by_turn.reshape(n_turns * base.shape[0], db.shape[0]).T


def query_multi_rotation(query: DescriptorSet, pipeline, db_vectors, n_rot: int = 8):
    """Best score per database vector over n_rot query rotation hypotheses.

    The query is aggregated once. Hypothesis k is a turn by 2 pi k / n_rot.
    With g = ``pipeline.commuting_turns(n_rot)``, the first n_rot / g
    rotated rows are post-processed (``Pipeline.encode_rotations``), and:

    * g = 1: the rows are scored in one pass over the database, streamed in
      cache-sized tiles (``_rotated_row_scores``): n_rot(2N + 1) block
      products per database row;
    * g > 1: hypothesis k * (n_rot / g) + b is row b turned by 2 pi k / g,
      read off its score polynomial (``_turn_scores``): (n_rot / g)(1 + 4N)
      block products per database row, 1 + 4N when every turn commutes.

    Returns (scores, thetas): the per-database maximum and the rotation
    hypothesis that achieved it (the first one, on a tie).
    """
    n_rot = check_integer(
        n_rot, f"n_rot must be an integer in [1, {MAX_ROTATIONS}], got {n_rot!r}", 1, MAX_ROTATIONS
    )
    db = _database(db_vectors, pipeline.output_dim)
    thetas = 2.0 * np.pi * np.arange(n_rot) / float(n_rot)
    g = pipeline.commuting_turns(n_rot)
    rows = pipeline.encode_rotations(query, thetas[: n_rot // g])
    if g == 1:
        scores_all = _rotated_row_scores(rows, db)
    else:
        scores_all = _turn_scores(rows, db, g, pipeline.base_dim, pipeline.n_freq)
    best = np.argmax(scores_all, axis=1)
    return scores_all[np.arange(db.shape[0]), best], np.asarray(wrap_angle(thetas[best]))
