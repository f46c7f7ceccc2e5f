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
from .errors import ContractError, DegenerateDataError, _descriptor_matrix
from .monomial import MonomialConfig, phi_monomial_batch, phi_monomial_weighted_sum


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
        if not np.isfinite(desc).all():
            raise ContractError("descriptors must be finite")
        if not np.isfinite(ang).all():
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


def preprocess_batch(X, pca: PcaModel) -> np.ndarray:
    """Center by the PCA mean, project on its basis, re-normalize rows.

    The output keeps the model's ``out_dim`` leading components; a model
    with ``out_dim == input_dim`` makes the transform a pure rotation.
    """
    X = _descriptor_matrix(X, pca.input_dim, "pca input")
    Y = (X - pca.mean) @ pca.basis.T
    norms = np.linalg.norm(Y, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateDataError("descriptor vanished after centering and rotation")
    return Y / norms[:, None]


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


def _vlad_residuals(X: np.ndarray, codebook: CodebookModel):
    """Nearest-centroid index and unit residual of each row; zero residuals stay zero."""
    C = codebook.centroids
    d2 = _pairwise_sq_dists(X, C)
    assign = np.argmin(d2, axis=1)  # ties resolve to the lowest centroid index
    resid = X - C[assign]
    norms = np.linalg.norm(resid, axis=1)
    nz = norms > 0.0
    resid[nz] /= norms[nz, None]
    return assign, resid


def _fisher_coefs(X: np.ndarray, gmm: GmmModel) -> np.ndarray:
    """Posteriors over the square roots of the mixture weights, n x k."""
    return gmm_posteriors(X, gmm) / np.sqrt(gmm.weights)[None, :]


def _vlad_batch(X: np.ndarray, codebook: CodebookModel) -> np.ndarray:
    assign, resid = _vlad_residuals(X, codebook)
    n, d = X.shape
    out = np.zeros((n, codebook.k * d))
    cols = assign[:, None] * d + np.arange(d)[None, :]
    out[np.arange(n)[:, None], cols] = resid
    return out


def _fisher_batch(X: np.ndarray, gmm: GmmModel) -> np.ndarray:
    coef = _fisher_coefs(X, gmm)
    sigma = np.sqrt(gmm.variances)
    blocks = coef[:, :, None] * (X[:, None, :] - gmm.means[None]) / sigma[None]
    return blocks.reshape(X.shape[0], -1)


def _vlad_weighted_sum(W: np.ndarray, X: np.ndarray, codebook: CodebookModel) -> np.ndarray:
    # the residual form; a GEMM of X with the centroid sums subtracted after
    # it cancels badly for a descriptor next to its centroid
    assign, resid = _vlad_residuals(X, codebook)
    n, K = W.shape
    left = np.zeros((n, K, codebook.k))
    left[np.arange(n), :, assign] = W
    return (left.reshape(n, -1).T @ resid).reshape(K, -1)


def _fisher_weighted_sum(W: np.ndarray, X: np.ndarray, gmm: GmmModel) -> np.ndarray:
    n, K = W.shape
    left = (W[:, :, None] * _fisher_coefs(X, gmm)[:, None, :]).reshape(n, -1)
    sums = left.sum(axis=0).reshape(K, gmm.k, 1)
    moments = (left.T @ X).reshape(K, gmm.k, -1) - sums * gmm.means
    return (moments / np.sqrt(gmm.variances)).reshape(K, -1)


def embed_batch(X, config: EmbeddingConfig) -> np.ndarray:
    """Embed the rows of X under the configured coding family."""
    if isinstance(config, MonomialConfig):
        return phi_monomial_batch(X, config)
    if not isinstance(config, (VladEmbedding, FisherEmbedding)):
        raise ContractError(f"unknown embedding config {type(config).__name__}")
    X = _descriptor_matrix(X, config.input_dim, "model")
    if isinstance(config, VladEmbedding):
        return _vlad_batch(X, config.codebook)
    return _fisher_batch(X, config.gmm)


def embed_weighted_sum(W, X, config: EmbeddingConfig) -> np.ndarray:
    """``W.T @ embed_batch(X, config)``: per-column weighted sums of the embeddings.

    W holds one row of weights per descriptor (n x K). No family builds
    the n x output_dim embedding. Monomial families take the sums from
    moments of X. VLAD multiplies the n x K*k product of W and the
    one-hot assignment into the n x d unit residuals. Fisher takes
    ``((W∘γ/√w)ᵀ X − s·μ) / σ``, with s the column sums of ``W∘γ/√w``.
    """
    if isinstance(config, MonomialConfig):
        return phi_monomial_weighted_sum(W, X, config)
    W = np.asarray(W, dtype=np.float64)
    if not isinstance(config, (VladEmbedding, FisherEmbedding)):
        raise ContractError(f"unknown embedding config {type(config).__name__}")
    X = _descriptor_matrix(X, config.input_dim, "model")
    if isinstance(config, VladEmbedding):
        return _vlad_weighted_sum(W, X, config.codebook)
    return _fisher_weighted_sum(W, X, config.gmm)
