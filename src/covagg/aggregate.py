"""Kronecker modulation of embedded descriptors and their normalized sum.

Modulating an embedded descriptor v by the angle feature a(theta)
multiplies every component of v by every component of a, so inner
products factor: <m(v, a(t1)), m(w, a(t2))> = <v, w> * k(t1 - t2).

The product a (x) v is stored as it comes: 2N+1 contiguous base-dim
blocks in the order of ``angle_map.harmonics``, the constant block first,
then the cosine and sine blocks of each frequency. A global rotation of
the image turns each frequency's (cos, sin) block pair by a 2-D
rotation, so every rotation hypothesis follows from one aggregate
(``rotated_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angle_map import FourierCoefficients, angle_feature_batch, harmonics
from .descriptors import DescriptorSet, EmbeddingConfig, embed_weighted_sum
from .errors import ContractError, DegenerateDataError

AGGREGATE_CHUNK = 512


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
    blocks = X.blocks
    basis = harmonics(thetas, X.n_freq)[:, :, None]
    cn, sn = basis[:, 1::2], basis[:, 2::2]
    c, s = blocks[1::2], blocks[2::2]
    out = np.empty((thetas.size,) + blocks.shape)
    out[:, 0] = blocks[0]
    out[:, 1::2] = c * cn + s * sn
    out[:, 2::2] = s * cn - c * sn
    return out.reshape(thetas.size, X.dim)


def modulate(v, a) -> np.ndarray:
    """Modulated descriptor kron(a, v): one base-dim block per angle feature component."""
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.ndim != 1 or a.ndim != 1 or a.size % 2 == 0:
        raise ContractError("modulate expects a 1-D vector and an odd-length angle feature")
    return np.multiply.outer(a, v).ravel()


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
    total = None
    for start in range(0, len(dset), AGGREGATE_CHUNK):
        stop = start + AGGREGATE_CHUNK
        feats = angle_feature_batch(dset.angles[start:stop], coeffs)
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
    return [
        ModulatedVector(values=row, base_dim=base.base_dim, n_freq=base.n_freq)
        for row in rotated_rows(base, thetas)
    ]
