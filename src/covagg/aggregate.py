"""Kronecker modulation of embedded descriptors and their normalized sum.

Modulating an embedded descriptor v by the angle feature a(theta)
multiplies every component of v by every component of a, so inner
products factor: <m(v, a(t1)), m(w, a(t2))> = <v, w> * k(t1 - t2).

The product is stored in frequency-major block order: the constant block
first, then the cosine and sine blocks of each frequency, each block
contiguous with the base embedding dimension. This is a fixed
permutation of the raw Kronecker (per-component interleaved) order and
therefore preserves inner products; it makes the per-frequency subvector
reads used by rotation-aware scoring contiguous. A global rotation of the
image turns each frequency's (cos, sin) block pair by a 2-D rotation, so
every rotation hypothesis follows from one aggregate (``rotate_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angle_map import FourierCoefficients, angle_feature_batch, harmonics
from .descriptors import DescriptorSet, EmbeddingConfig, embed_weighted_sum
from .errors import ContractError, DegenerateDataError

AGGREGATE_CHUNK = 512


def block_order(n_freq: int) -> np.ndarray:
    """Permutation taking [const, cos 1..N, sin 1..N] to [const, c1, s1, ..., cN, sN]."""
    order = np.empty(2 * n_freq + 1, dtype=np.intp)
    order[0] = 0
    if n_freq:
        order[1::2] = np.arange(1, n_freq + 1)
        order[2::2] = np.arange(n_freq + 1, 2 * n_freq + 1)
    return order


@dataclass(frozen=True)
class ModulatedVector:
    """Aggregated image vector stored as 2N+1 contiguous base-dim blocks."""

    values: np.ndarray
    base_dim: int
    n_freq: int

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 1:
            raise ContractError("modulated vector must be 1-D")
        expected = self.base_dim * (2 * self.n_freq + 1)
        if self.base_dim < 1 or self.n_freq < 0 or vals.size != expected:
            raise ContractError(
                f"expected {expected} components for base_dim={self.base_dim}, "
                f"n_freq={self.n_freq}; got {vals.size}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def blocks(self) -> np.ndarray:
        """Read-only (2N+1, base_dim) view: const, then cos n and sin n at rows 2n-1, 2n."""
        return self.values.reshape(2 * self.n_freq + 1, self.base_dim)

    def block_cos(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.n_freq:
            raise ContractError(f"frequency {n} outside 1..{self.n_freq}")
        return self.blocks[2 * n - 1]

    def block_sin(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.n_freq:
            raise ContractError(f"frequency {n} outside 1..{self.n_freq}")
        return self.blocks[2 * n]


def rotated_rows(X: ModulatedVector, thetas) -> np.ndarray:
    """(R, dim) matrix whose row r is the vector of the set rotated by thetas[r].

    Rotating the image shifts every angle by -theta, which turns each
    frequency's (cos, sin) block pair by the 2-D rotation of angle n*theta.
    All R rotations are one broadcast over (R, N, base_dim).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    blocks, n_freq = X.blocks, X.n_freq
    basis = harmonics(thetas, n_freq)[:, :, None]
    cn, sn = basis[:, 1 : n_freq + 1], basis[:, n_freq + 1 :]
    c, s = blocks[1::2], blocks[2::2]
    out = np.empty((thetas.size,) + blocks.shape)
    out[:, 0] = blocks[0]
    out[:, 1::2] = c * cn + s * sn
    out[:, 2::2] = s * cn - c * sn
    return out.reshape(thetas.size, X.dim)


def rotate_blocks(X: ModulatedVector, theta: float) -> ModulatedVector:
    """The vector that re-encoding the set rotated by theta gives."""
    return ModulatedVector(
        values=rotated_rows(X, theta)[0], base_dim=X.base_dim, n_freq=X.n_freq
    )


def modulate(v, a) -> np.ndarray:
    """Modulated descriptor in frequency-major block layout."""
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.ndim != 1 or a.ndim != 1 or a.size % 2 == 0:
        raise ContractError("modulate expects a 1-D vector and an odd-length angle feature")
    n_freq = (a.size - 1) // 2
    return np.multiply.outer(a[block_order(n_freq)], v).ravel()


def aggregate_raw_sum(
    dset: DescriptorSet, embedding: EmbeddingConfig, coeffs: FourierCoefficients
) -> np.ndarray:
    """Unnormalized sum of modulated embeddings, flattened.

    Descriptors are consumed in record order, ``AGGREGATE_CHUNK`` at a
    time, and chunk partial sums are added in chunk order, so results
    are machine-deterministic.
    """
    if len(dset) == 0:
        raise ContractError("cannot encode an empty descriptor set")
    order = block_order(coeffs.n_freq)
    total = None
    for start in range(0, len(dset), AGGREGATE_CHUNK):
        stop = start + AGGREGATE_CHUNK
        feats = angle_feature_batch(dset.angles[start:stop], coeffs)[:, order]
        part = embed_weighted_sum(feats, dset.descriptors[start:stop], embedding)
        total = part if total is None else total + part
    return total.ravel()


def aggregate(
    dset: DescriptorSet, embedding: EmbeddingConfig, coeffs: FourierCoefficients
) -> ModulatedVector:
    """Normalized aggregated image vector."""
    flat = aggregate_raw_sum(dset, embedding, coeffs)
    norm = float(np.linalg.norm(flat))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateDataError("aggregated vector has no usable magnitude")
    return ModulatedVector(
        values=flat / norm, base_dim=embedding.output_dim, n_freq=coeffs.n_freq
    )


def aggregate_rotations(
    dset: DescriptorSet, embedding: EmbeddingConfig, coeffs: FourierCoefficients, thetas
) -> list[ModulatedVector]:
    """The aggregates of the set rotated by each theta, from one aggregate."""
    base = aggregate(dset, embedding, coeffs)
    return [rotate_blocks(base, float(t)) for t in np.atleast_1d(thetas)]
