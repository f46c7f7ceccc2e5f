"""Per-descriptor preprocessing and the embedding stage of each coding family.

An image is a ``DescriptorSet``: a bag of (descriptor, dominant
orientation) pairs. Descriptors can be embedded per one of three
families before aggregation:

* monomial: exact feature map of an inner-product power (codebook-free);
* VLAD: normalized residual to the nearest codebook centroid;
* Fisher: posterior-weighted standardized deviations from mixture means
  (mean gradients only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .angle_map import wrap_angle
from .codebooks import (
    CodebookModel,
    GmmModel,
    PcaModel,
    _pairwise_sq_dists,
    gmm_posteriors,
)
from .errors import ContractError, DegenerateDataError
from .monomial import MonomialConfig, phi_monomial_batch


@dataclass(frozen=True)
class DescriptorSet:
    """All (descriptor, orientation) pairs of one image.

    Angles are normalized to (-pi, pi] at construction; descriptors are
    stored as the rows of a read-only float64 matrix. ``raw`` marks
    histogram-valued descriptors that still need square-root
    normalization before use.
    """

    descriptors: np.ndarray
    angles: np.ndarray
    image_id: str = ""
    raw: bool = False

    def __post_init__(self):
        desc = np.ascontiguousarray(np.asarray(self.descriptors, dtype=np.float64))
        ang = np.ascontiguousarray(np.asarray(self.angles, dtype=np.float64))
        if desc.ndim != 2:
            raise ContractError("descriptors must form a 2-D array")
        if ang.shape != (desc.shape[0],):
            raise ContractError("need exactly one angle per descriptor")
        if not np.all(np.isfinite(desc)):
            raise ContractError("descriptors must be finite")
        if not np.all(np.isfinite(ang)):
            raise ContractError("angles must be finite")
        ang = np.asarray(wrap_angle(ang))
        desc.setflags(write=False)
        ang.setflags(write=False)
        object.__setattr__(self, "descriptors", desc)
        object.__setattr__(self, "angles", ang)

    def __len__(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


def rotate_set(dset: DescriptorSet, theta: float) -> DescriptorSet:
    """The same image as seen after a global rotation by ``theta``."""
    return DescriptorSet(
        dset.descriptors,
        np.asarray(wrap_angle(dset.angles - theta)),
        image_id=dset.image_id,
        raw=dset.raw,
    )


def rootsift_batch(raw) -> np.ndarray:
    """l1-normalize then take component-wise square roots, row by row."""
    X = np.asarray(raw, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("expected a 2-D array of raw descriptors")
    if np.any(X < 0.0):
        raise ContractError("raw descriptors must have non-negative components")
    l1 = X.sum(axis=1)
    if np.any(l1 == 0.0):
        raise ContractError("raw descriptor is all zero")
    out = np.sqrt(X / l1[:, None])
    # unit l2 norm is implied by the l1 step; renormalize to kill rounding
    return out / np.linalg.norm(out, axis=1)[:, None]


def rootsift(raw) -> np.ndarray:
    return rootsift_batch(np.asarray(raw, dtype=np.float64)[None, :])[0]


def preprocess_batch(X, pca: PcaModel, reduce: bool) -> np.ndarray:
    """Center by the PCA mean, rotate by its basis, re-normalize rows.

    With ``reduce`` the output keeps the model's ``out_dim`` leading
    components (the basis rows); without it the basis must cover the full
    input dimension so the transform is a pure rotation.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("expected a 2-D array of descriptors")
    if X.shape[1] != pca.input_dim:
        raise ContractError(
            f"descriptor dim {X.shape[1]} does not match pca input dim {pca.input_dim}"
        )
    if not reduce and pca.out_dim != pca.input_dim:
        raise ContractError(
            "rotation-only preprocessing requires a full-dimension pca basis; "
            f"got {pca.out_dim} rows for {pca.input_dim} dims"
        )
    Y = (X - pca.mean) @ pca.basis.T
    norms = np.linalg.norm(Y, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateDataError("descriptor vanished after centering and rotation")
    return Y / norms[:, None]


def preprocess(x, pca: PcaModel, reduce: bool) -> np.ndarray:
    return preprocess_batch(np.asarray(x, dtype=np.float64)[None, :], pca, reduce)[0]


@dataclass(frozen=True)
class VladEmbedding:
    """Nearest-centroid residual coding with per-residual normalization."""

    codebook: CodebookModel

    @property
    def input_dim(self) -> int:
        return self.codebook.dim

    @property
    def output_dim(self) -> int:
        return self.codebook.k * self.codebook.dim


@dataclass(frozen=True)
class FisherEmbedding:
    """Posterior-weighted standardized deviations from mixture means."""

    gmm: GmmModel

    @property
    def input_dim(self) -> int:
        return self.gmm.dim

    @property
    def output_dim(self) -> int:
        return self.gmm.k * self.gmm.dim


EmbeddingConfig = Union[MonomialConfig, VladEmbedding, FisherEmbedding]


def _vlad_batch(X: np.ndarray, codebook: CodebookModel) -> np.ndarray:
    C = codebook.centroids
    d2 = _pairwise_sq_dists(X, C)
    assign = np.argmin(d2, axis=1)  # ties resolve to the lowest centroid index
    resid = X - C[assign]
    norms = np.linalg.norm(resid, axis=1)
    nz = norms > 0.0
    resid[nz] /= norms[nz, None]
    n, d = X.shape
    out = np.zeros((n, C.shape[0] * d))
    cols = assign[:, None] * d + np.arange(d)[None, :]
    out[np.arange(n)[:, None], cols] = resid
    return out


def _fisher_batch(X: np.ndarray, gmm: GmmModel) -> np.ndarray:
    resp = gmm_posteriors(X, gmm)
    sigma = np.sqrt(gmm.variances)
    coef = resp / np.sqrt(gmm.weights)[None, :]
    blocks = coef[:, :, None] * (X[:, None, :] - gmm.means[None]) / sigma[None]
    return blocks.reshape(X.shape[0], -1)


def embed_batch(X, config: EmbeddingConfig) -> np.ndarray:
    """Embed the rows of X under the configured coding family."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("expected a 2-D array of descriptors")
    if isinstance(config, MonomialConfig):
        return phi_monomial_batch(X, config)
    if isinstance(config, (VladEmbedding, FisherEmbedding)):
        if X.shape[1] != config.input_dim:
            raise ContractError(
                f"descriptor dim {X.shape[1]} does not match model dim {config.input_dim}"
            )
        if isinstance(config, VladEmbedding):
            return _vlad_batch(X, config.codebook)
        return _fisher_batch(X, config.gmm)
    raise ContractError(f"unknown embedding config {type(config).__name__}")


def embed_descriptor(x, config: EmbeddingConfig) -> np.ndarray:
    """Embed a single descriptor."""
    return embed_batch(np.asarray(x, dtype=np.float64)[None, :], config)[0]
