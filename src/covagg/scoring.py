"""Similarity scoring, including the rotation-swept trigonometric score.

Because the aggregated vector transforms block-wise under a global
rotation of either image, the similarity as a function of the relative
rotation angle is a trigonometric polynomial of degree N. Its 2N+1
coefficients come from 1 + 4N block inner products (one constant-block
product plus four per frequency). Its maximum is found exactly, among
the roots of its derivative, at the cost of one 2N x 2N eigenvalue
problem.

``query_multi_rotation`` scores a grid of query rotations against a
whole database. When the pipeline is block-covariant (no plain power
law, no RN, no truncation), the stored rows keep the block layout and
the grid is read off every row's polynomial: ``score_coefficients``
takes the same 1 + 4N block products per database row, whatever the
grid size. Other pipelines post-process each rotated query row and
score all of them with one matrix product.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .aggregate import ModulatedVector
from .angle_map import wrap_angle
from .descriptors import DescriptorSet
from .errors import ContractError

class BlockDotCounter:
    """Counts base-dim inner products performed by score_polynomial."""

    def __init__(self):
        self.count = 0


_active_counter: BlockDotCounter | None = None


@contextmanager
def count_block_dots():
    """Context manager that counts block inner products; test instrumentation."""
    global _active_counter
    previous = _active_counter
    counter = BlockDotCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = previous


def _block_dot(x: np.ndarray, y: np.ndarray) -> float:
    if _active_counter is not None:
        _active_counter.count += 1
    return float(np.dot(x, y))


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
        out = np.full(t.shape, self.c0)
        for n in range(1, self.n_freq + 1):
            out += self.a[n - 1] * np.cos(n * t) + self.b[n - 1] * np.sin(n * t)
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
    n_freq = X.n_freq
    c0 = _block_dot(X.block_const(), Y.block_const())
    a = np.empty(n_freq)
    b = np.empty(n_freq)
    for n in range(1, n_freq + 1):
        xc, xs = X.block_cos(n), X.block_sin(n)
        yc, ys = Y.block_cos(n), Y.block_sin(n)
        a[n - 1] = _block_dot(xc, yc) + _block_dot(xs, ys)
        b[n - 1] = _block_dot(xs, yc) - _block_dot(xc, ys)
    return ScorePolynomial(c0=c0, a=a, b=b)


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

    Returns an (n_db, 2N+1) array whose row i is [c0, a_1..a_N, b_1..b_N]
    of ``score_polynomial(X, row i)``. Each frequency takes two
    (n_db x d) @ (d x 2) products on strided views of the database's
    cos and sin blocks, so a row costs 1 + 4N block products.
    """
    db = _database(db_vectors, X.dim)
    n_freq, q = X.n_freq, X.blocks
    blocks = db.reshape(db.shape[0], 2 * n_freq + 1, X.base_dim)
    out = np.empty((db.shape[0], 2 * n_freq + 1))
    out[:, 0] = blocks[:, 0] @ q[0]
    for n in range(1, n_freq + 1):
        qc, qs = q[2 * n - 1], q[2 * n]
        # a_n = yc.qc + ys.qs and b_n = yc.qs - ys.qc
        ab = blocks[:, 2 * n - 1] @ np.column_stack([qc, qs])
        ab += blocks[:, 2 * n] @ np.column_stack([qs, -qc])
        out[:, n], out[:, n_freq + n] = ab.T
    return out


def query_multi_rotation(query: DescriptorSet, pipeline, db_vectors, n_rot: int = 8):
    """Best score per database vector over n_rot query rotation hypotheses.

    The query is aggregated once. For a block-covariant pipeline each
    hypothesis is evaluated on every database row's score polynomial
    (``score_coefficients``) and no rotated row is built. Otherwise the
    query's blocks are rotated per hypothesis, the rotated rows are
    post-processed together (``Pipeline.encode_rotations``), and all
    hypotheses are scored against the whole database with a single
    matrix product.
    Returns (scores, thetas): the per-database maximum and the rotation
    hypothesis that achieved it.
    """
    if int(n_rot) != n_rot or n_rot < 1:
        raise ContractError(f"n_rot must be a positive integer, got {n_rot!r}")
    db = _database(db_vectors, pipeline.output_dim)
    thetas = 2.0 * np.pi * np.arange(int(n_rot)) / float(n_rot)
    if pipeline.block_covariant:
        n_theta = thetas[:, None] * np.arange(1, pipeline.n_freq + 1)
        basis = np.column_stack([np.ones(thetas.size), np.cos(n_theta), np.sin(n_theta)])
        scores_all = basis @ score_coefficients(pipeline.modulated(query), db).T
    else:
        scores_all = pipeline.encode_rotations(query, thetas) @ db.T
    best = np.argmax(scores_all, axis=0)
    cols = np.arange(db.shape[0])
    return scores_all[best, cols], np.asarray(wrap_angle(thetas[best]))
