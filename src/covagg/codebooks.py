"""Training of the auxiliary models: PCA, k-means codebooks, diagonal GMMs.

All trainers are deterministic given (data, parameters, seed) and keep
their documented monotonicity guarantees: the k-means objective never
increases across Lloyd iterations and the GMM log-likelihood never
decreases across EM iterations (up to a small slack introduced by the
variance floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateDataError, check_integer

ORTHO_TOL = 1e-8
_RANK_REL_TOL = 1e-10
VARIANCE_FLOOR_FRACTION = 1e-4


def _as_matrix(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ContractError(f"{what} must be a non-empty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{what} must be finite")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _principal_axes(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending and clipped at 0, and the eigenvectors as rows.

    They decompose the sample covariance of the rows of ``centered``,
    which must have more than one row and a zero column mean. Each row
    is flipped so that its largest-magnitude entry is positive.

    At most two dim x dim matrices are held at a time: the covariance
    is divided in place, and the eigenvector rows are made C-contiguous
    once and flipped in place, so ``RnModel`` takes them without a copy.
    ``centered`` is dropped before ``eigh``, so that a temporary argument
    is freed before LAPACK allocates its workspace.
    """
    cov = centered.T @ centered
    cov /= centered.shape[0] - 1
    del centered
    evals, evecs = np.linalg.eigh(cov)
    del cov
    rows = np.ascontiguousarray(evecs[:, ::-1].T)
    del evecs
    signs = np.sign(rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)])
    signs[signs == 0] = 1.0
    rows *= signs[:, None]
    return np.clip(evals[::-1], 0.0, None), rows


@dataclass(frozen=True)
class PcaModel:
    """Mean, orthonormal row basis (most energetic first) and eigenvalues."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if basis.ndim != 2 or mean.ndim != 1 or eig.ndim != 1:
            raise ContractError("bad pca model shapes")
        if basis.shape[1] != mean.size or basis.shape[0] != eig.size:
            raise ContractError("inconsistent pca model dimensions")
        if basis.shape[0] > basis.shape[1]:
            raise ContractError("pca basis cannot have more rows than input dims")
        gram = basis @ basis.T
        # NaN fails each test below, since it compares False
        if not np.max(np.abs(gram - np.eye(basis.shape[0]))) <= ORTHO_TOL:
            raise ContractError("pca basis rows are not orthonormal")
        if not (np.all(eig >= 0) and np.all(np.diff(eig) <= 1e-12)):
            raise ContractError("pca eigenvalues must be non-negative and descending")
        if not np.all(np.isfinite(mean)):
            raise ContractError("pca mean must be finite")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "basis", _freeze(basis))
        object.__setattr__(self, "eigenvalues", _freeze(eig))

    @property
    def input_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[0]


def pca_train(data, out_dim: int) -> PcaModel:
    """Mean-centered eigendecomposition of the empirical covariance.

    Keeps the top ``out_dim`` components. Raises if the data rank cannot
    support the request, naming the achievable rank.
    """
    data = _as_matrix(data, "training data")
    n, d = data.shape
    out_dim = check_integer(
        out_dim, f"out_dim must be an integer in [1, {d}], got {out_dim!r}", 1, d
    )
    if n <= out_dim:
        raise ContractError(f"need more than {out_dim} samples, got {n}")
    mean = data.mean(axis=0)
    evals, axes = _principal_axes(data - mean)
    if evals[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(evals > evals[0] * _RANK_REL_TOL))
    if rank < out_dim:
        raise DegenerateDataError(
            f"requested {out_dim} components but the data only supports rank {rank}"
        )
    return PcaModel(mean=mean, basis=axes[:out_dim], eigenvalues=evals[:out_dim])


@dataclass(frozen=True)
class CodebookModel:
    """k-means centroids, one per row."""

    centroids: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ContractError("centroids must form a non-empty 2-D array")
        if not np.all(np.isfinite(c)):
            raise ContractError("centroids must be finite")
        d2 = _pairwise_sq_dists(c, c)
        np.fill_diagonal(d2, np.inf)
        if not np.min(d2) > 0.0:  # NaN from overflowing distances counts as a duplicate
            raise ContractError("codebook contains duplicate centroids")
        object.__setattr__(self, "centroids", _freeze(c))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _pairwise_sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(C * C, axis=1)[None, :]
        - 2.0 * (X @ C.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plusplus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    d2 = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # every remaining point coincides with a centroid
            remaining = np.setdiff1d(np.arange(n), chosen[:j])
            idx = int(rng.choice(remaining))
        chosen[j] = idx
        d2 = np.minimum(d2, np.sum((data - data[idx]) ** 2, axis=1))
    return data[chosen].copy()


def _lloyd(data: np.ndarray, centroids: np.ndarray, max_iter: int) -> np.ndarray:
    cents = centroids.copy()
    k = cents.shape[0]
    assign = None
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(data, cents)
        new_assign = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        min_d2 = d2[np.arange(data.shape[0]), new_assign]
        counts = np.bincount(new_assign, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            # empty cluster: re-seed from the point farthest from its centroid
            far = int(np.argmax(min_d2))
            cents[c] = data[far]
            new_assign[far] = c
            min_d2[far] = 0.0
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
        for c in range(k):
            cents[c] = data[assign == c].mean(axis=0)
    return cents


def _check_iterations(max_iter: int) -> int:
    return check_integer(
        max_iter, f"iteration count must be a non-negative integer, got {max_iter!r}", 0
    )


def kmeans_train(data, k: int, max_iter: int = 25, seed: int = 0) -> CodebookModel:
    """Lloyd iterations from a seeded k-means++ initialization."""
    data = _as_matrix(data, "training data")
    k = check_integer(k, f"k must be a positive integer, got {k!r}", 1)
    if data.shape[0] < k:
        raise ContractError(f"need at least k={k} samples, got {data.shape[0]}")
    max_iter = _check_iterations(max_iter)
    rng = np.random.default_rng(seed)
    cents = _plusplus_init(data, k, rng)
    cents = _lloyd(data, cents, max_iter)
    return CodebookModel(centroids=cents)


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or m.ndim != 2 or v.shape != m.shape or w.size != m.shape[0]:
            raise ContractError("bad gmm model shapes")
        # NaN fails each test below, since it compares False
        if not (np.all(w > 0) and abs(float(w.sum()) - 1.0) <= 1e-10):
            raise ContractError("gmm weights must be positive and sum to 1")
        if not np.all(v > 0):
            raise ContractError("gmm variances must be positive")
        if not np.all(np.isfinite(m)):
            raise ContractError("gmm means must be finite")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "means", _freeze(m))
        object.__setattr__(self, "variances", _freeze(v))

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_density(X: np.ndarray, model: GmmModel) -> np.ndarray:
    inv = 1.0 / model.variances
    logdet = np.sum(np.log(model.variances), axis=1)
    maha = (
        (X * X) @ inv.T
        - 2.0 * (X @ (model.means * inv).T)
        + np.sum(model.means**2 * inv, axis=1)[None, :]
    )
    const = X.shape[1] * np.log(2.0 * np.pi)
    return np.log(model.weights)[None, :] - 0.5 * (const + logdet[None, :] + maha)


def _logsumexp_rows(lp: np.ndarray) -> np.ndarray:
    """log(sum(exp(lp), axis=1)) without overflow, as an (n, 1) column."""
    top = np.max(lp, axis=1, keepdims=True)
    return top + np.log(np.sum(np.exp(lp - top), axis=1, keepdims=True))


def gmm_posteriors(X, model: GmmModel) -> np.ndarray:
    """Per-point component responsibilities; rows sum to 1."""
    X = _as_matrix(X, "data")
    lp = _log_density(X, model)
    return np.exp(lp - _logsumexp_rows(lp))


def gmm_train(data, k: int, max_iter: int = 100, seed: int = 0) -> GmmModel:
    """EM on a diagonal mixture, initialized from the k-means codebook.

    Variances are floored at ``VARIANCE_FLOOR_FRACTION`` times the global
    per-dimension variance to prevent collapse.
    """
    data = _as_matrix(data, "training data")
    n, _ = data.shape
    k = check_integer(k, f"k must be a positive integer, got {k!r}", 1)
    if n < 10 * k:
        raise ContractError(f"need at least 10*k={10 * k} samples, got {n}")
    max_iter = _check_iterations(max_iter)

    floor = np.maximum(VARIANCE_FLOOR_FRACTION * data.var(axis=0), 1e-12)
    codebook = kmeans_train(data, k, seed=seed)
    assign = np.argmin(_pairwise_sq_dists(data, codebook.centroids), axis=1)
    weights = np.maximum(np.bincount(assign, minlength=k) / n, 1e-12)
    weights = weights / weights.sum()
    means = codebook.centroids.copy()
    variances = np.empty_like(means)
    for c in range(k):
        members = data[assign == c]
        variances[c] = members.var(axis=0) if members.shape[0] > 1 else 0.0
    variances = np.maximum(variances, floor)
    model = GmmModel(weights=weights, means=means, variances=variances)

    for _ in range(max_iter):
        resp = gmm_posteriors(data, model)
        nk = resp.sum(axis=0)
        safe_nk = np.maximum(nk, 1e-12)
        weights = np.maximum(nk / n, 1e-12)
        weights = weights / weights.sum()
        means = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ (data * data)) / safe_nk[:, None]
        variances = np.maximum(second - means**2, floor)
        model = GmmModel(weights=weights, means=means, variances=variances)
    return model
