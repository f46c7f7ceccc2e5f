"""Burstiness-tempering normalizations applied to aggregated image vectors.

Three stages, each optional: a component-wise signed power law (or its
pair-modulus variant that keeps the per-frequency phase intact), a
learned rotation followed by a second power law, and truncation to the
leading components. ``power_law``, ``rn_apply`` and ``truncate_l2`` take
one vector or an (R, D) matrix of row vectors and normalize each row.
"""

from __future__ import annotations

import copy
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .aggregate import ModulatedVector
from .codebooks import ORTHO_TOL, _principal_axes
from .errors import ContractError, check_integer

_ORTHO_PROBE_DIM = 1024
_ORTHO_PROBE_TILE = 128  # rotation rows per product of the norm probe


def _check_exponent(a: float):
    if not (isinstance(a, numbers.Real) and np.isfinite(a) and 0.0 < a <= 1.0):
        raise ContractError(f"power-law exponent must be a real in (0, 1], got {a!r}")


def _as_rows(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ContractError(f"expected a vector or a row matrix, got a {v.ndim}-D array")
    return v


def _signed_power(v: np.ndarray, a: float, out=None) -> np.ndarray:
    """sign(v) * |v|**a, into ``out`` (which may be ``v``) or else a new array.

    A zero of either sign comes out +0.0, as it does from np.sign(v) * 0.0;
    np.copysign keeps -0.0, which the added +0.0 clears. The product form
    takes twice as long in place: np.sign is slow writing over its input.
    """
    magnitude = np.abs(v)
    magnitude **= a  # the operator, as ``v ** a``: numpy takes sqrt for a = 0.5
    out = np.copysign(magnitude, v, out=magnitude if out is None else out)
    out += 0.0  # -0.0 + 0.0 is +0.0; no other value changes
    return out


def _unit(v: np.ndarray, out=None) -> np.ndarray:
    """Each row divided by its l2 norm, into ``out`` (which may be ``v``); zero rows stay zero."""
    # one BLAS dot per row, as np.linalg.norm takes for a lone vector, so a
    # row comes out bit for bit as it would on its own
    norms = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    norms[norms == 0.0] = 1.0
    return np.divide(v, norms, out=out)


def power_law(v, exponent: float, out=None) -> np.ndarray:
    """Component-wise signed power followed by l2 normalization of each row.

    ``out``, which may be ``v`` itself, receives the result; by default it
    is a new array.
    """
    _check_exponent(exponent)
    rows = _signed_power(_as_rows(v), exponent, out=out)
    return _unit(rows, out=rows)


def adapted_power_law_rows(rows: np.ndarray, n_freq: int, exponent: float) -> np.ndarray:
    """``adapted_power_law`` of each row of the float64 matrix ``rows``, in place.

    Each row holds 2N+1 contiguous blocks, N = ``n_freq``, and comes out
    bit for bit as it would alone.
    """
    _check_exponent(exponent)
    blocks = rows.reshape(rows.shape[0], 2 * n_freq + 1, -1)  # splitting an axis is a view
    peak = np.max(np.abs(rows), axis=1)
    peak[peak == 0.0] = 1.0
    blocks /= peak[:, None, None]
    _signed_power(blocks[:, 0], exponent, out=blocks[:, 0])
    c, s = blocks[:, 1::2], blocks[:, 2::2]
    modulus = np.sqrt(c * c + s * s)
    scale = np.zeros_like(modulus)
    np.power(modulus, exponent - 1.0, out=scale, where=modulus > 0.0)
    c *= scale
    s *= scale
    return _unit(rows, out=rows)


def adapted_power_law(X: ModulatedVector, exponent: float) -> ModulatedVector:
    """Power law on pair moduli, preserving per-frequency phase.

    The constant block gets the plain signed power. For every frequency
    and base component, the (cos, sin) pair is divided by
    modulus**(1 - exponent), i.e. the pair modulus is raised to the
    exponent while atan2(sin, cos) is untouched. Zero-modulus pairs stay
    zero. The whole vector is l2-normalized at the end.

    Every output term has degree ``exponent`` in the input before that
    normalization, so the law ignores a positive scale of the input. The
    blocks are first divided by their largest magnitude, which keeps the
    squares in the pair moduli from overflowing or underflowing for any
    pair that matters.
    """
    values = X.values.copy()
    adapted_power_law_rows(values[None], X.n_freq, exponent)
    return ModulatedVector(values=values, base_dim=X.base_dim, n_freq=X.n_freq)


@dataclass(frozen=True)
class RnModel:
    """Learned rotation plus a second power law (or whitening).

    ``rotation`` rows are ordered most-energetic first so truncation after
    application keeps the high-variance directions. A constructed model
    is square; ``leading_rows`` gives a row slice of one for RN followed
    by truncation.
    """

    rotation: np.ndarray
    exponent: float = 0.5
    whiten: bool = False
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        rot = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ContractError("rotation must be a square matrix")
        _check_exponent(self.exponent)
        dim = rot.shape[0]
        if dim <= _ORTHO_PROBE_DIM:
            # |R R^T - I| in place, so the check holds one dim x dim matrix
            gram = rot @ rot.T
            gram.flat[:: dim + 1] -= 1.0
            if not np.max(np.abs(gram, out=gram)) <= ORTHO_TOL:  # NaN fails too
                raise ContractError("rotation rows are not orthonormal")
        else:
            # full Gram check is cubic; probe with a few random vectors
            rng = np.random.default_rng(0)
            probes = rng.standard_normal((4, dim))
            # in tiles of rotation rows: for one (4 x dim) @ (dim x dim)
            # product OpenBLAS packs the whole rotation (14 MiB at dim
            # 1344), which took twice as long as tiles that fit in cache
            images = np.empty((4, dim))
            for lo in range(0, dim, _ORTHO_PROBE_TILE):
                hi = lo + _ORTHO_PROBE_TILE
                images[:, lo:hi] = probes @ rot[lo:hi].T
            if not np.max(
                np.abs(np.linalg.norm(images, axis=1) - np.linalg.norm(probes, axis=1))
            ) <= ORTHO_TOL * np.sqrt(dim):
                raise ContractError("rotation does not preserve norms")
        rot.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        eig = self.eigenvalues
        if eig is not None:
            eig = np.ascontiguousarray(np.asarray(eig, dtype=np.float64))
            if eig.shape != (dim,) or not np.all(eig >= 0):  # NaN fails too
                raise ContractError("eigenvalues must be non-negative, one per dim")
            eig.setflags(write=False)
            object.__setattr__(self, "eigenvalues", eig)
        elif self.whiten:
            raise ContractError("whitening requires eigenvalues")

    @property
    def dim(self) -> int:
        """Input dimension; a row slice outputs fewer components."""
        return self.rotation.shape[1]

    def leading_rows(self, rows: int) -> RnModel:
        """The model restricted to its first ``rows`` outputs.

        Truncating RN's output to them equals applying this slice, since
        the signed power and the whitening act per component and the
        result is re-normalized. The rotation is a view of this
        validated model's and is not checked again; ``eigenvalues``
        stays whole, so the whitening floor is unchanged.
        """
        sliced = copy.copy(self)
        object.__setattr__(sliced, "rotation", self.rotation[:rows])
        return sliced


def rn_train(vectors, exponent: float = 0.5, whiten: bool = False) -> RnModel:
    """Learn the rotation from a held-out collection of image vectors.

    When there are fewer samples than dimensions the covariance is
    rank-deficient; the returned rotation is informative on the sample
    span and an arbitrary (deterministic) orthonormal completion on the
    rest, and a warning is emitted. Non-finite vectors are refused.
    """
    _check_exponent(exponent)
    V = np.asarray(vectors if isinstance(vectors, np.ndarray) else list(vectors), dtype=np.float64)
    if V.ndim != 2 or V.shape[0] < 1:
        raise ContractError("need a non-empty 2-D collection of vectors")
    if not np.isfinite(V).all():
        raise ContractError("vectors must be finite")
    n, dim = V.shape
    if n > dim:
        evals, rotation = _principal_axes(V - V.mean(axis=0))
        return RnModel(rotation=rotation, exponent=exponent, whiten=whiten, eigenvalues=evals)

    warnings.warn(
        f"learning a {dim}-dim rotation from only {n} vectors; directions outside "
        "the sample span are an arbitrary orthonormal completion",
        stacklevel=2,
    )
    centered = V - V.mean(axis=0)
    gram = centered @ centered.T / max(n - 1, 1)
    gvals, gvecs = np.linalg.eigh(gram)
    gvals = np.clip(gvals[::-1], 0.0, None)
    gvecs = gvecs[:, ::-1]
    if gvals[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(gvals > gvals[0] * 1e-12))
    eigenvalues = np.zeros(dim)
    if rank == 0:
        return RnModel(
            rotation=np.eye(dim), exponent=exponent, whiten=whiten, eigenvalues=eigenvalues
        )
    eigenvalues[:rank] = gvals[:rank]
    span = centered.T @ gvecs[:, :rank] / np.sqrt(gvals[:rank] * max(n - 1, 1))
    # span's columns are orthonormal only up to rounding, which the
    # division by small eigenvalues amplifies; qr's are orthonormal, and
    # a column times the sign of its R diagonal points along span's
    full, upper = np.linalg.qr(span, mode="complete")
    full[:, :rank] *= np.where(np.diag(upper) < 0.0, -1.0, 1.0)
    return RnModel(rotation=full.T, exponent=exponent, whiten=whiten, eigenvalues=eigenvalues)


def rn_apply(v, model: RnModel) -> np.ndarray:
    """Rotate, re-normalize the spectrum, and return unit rows."""
    v = _as_rows(v)
    if v.shape[-1] != model.dim:
        raise ContractError(f"vector dim {v.shape[-1]} does not match model dim {model.dim}")
    y = (model.rotation @ v.T).T  # R @ v for a lone vector keeps stored vectors bit-stable
    if model.whiten:
        eig = model.eigenvalues
        floor = max(float(eig.max()) * 1e-6, 1e-300)
        y = y / np.sqrt(np.maximum(eig[: y.shape[-1]], floor))
    else:
        y = _signed_power(y, model.exponent)
    return _unit(y)


def truncate_l2(v, d_out: int) -> np.ndarray:
    """Keep the first ``d_out`` components of each row and re-normalize."""
    v = _as_rows(v)
    d_out = check_integer(d_out, f"d_out must be a positive integer, got {d_out!r}", 1)
    if d_out > v.shape[-1]:
        raise ContractError(f"d_out={d_out} exceeds vector length {v.shape[-1]}")
    return _unit(v[..., :d_out])
