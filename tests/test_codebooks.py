import numpy as np
import pytest

from covagg import (
    CodebookModel,
    ContractError,
    DegenerateDataError,
    GmmModel,
    PcaModel,
    gmm_posteriors,
    gmm_train,
    kmeans_train,
    pca_train,
)
from covagg.codebooks import _lloyd, _plusplus_init
from covagg.oracle import gmm_log_likelihood, quantization_error


class TestPca:
    def test_exact_planar_recovery(self, rng):
        # points on a 2-D plane embedded in 5-D
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        coords = rng.standard_normal((200, 2)) * np.array([3.0, 1.0])
        data = coords @ basis.T + rng.standard_normal(5)
        model = pca_train(data, 2)
        projected = (data - model.mean) @ model.basis.T
        recon = projected @ model.basis + model.mean
        assert np.max(np.abs(recon - data)) < 1e-10

    @pytest.mark.parametrize(
        "field, message",
        [("mean", "mean must be finite"), ("basis", "not orthonormal"),
         ("eigenvalues", "non-negative and descending")],
    )
    def test_model_refuses_a_nan(self, field, message):
        # NaN compares False, so a check written as "bad > tol" lets it through
        arrays = {"mean": np.zeros(3), "basis": np.eye(2, 3), "eigenvalues": np.array([2.0, 1.0])}
        arrays[field].flat[1] = np.nan
        with pytest.raises(ContractError, match=message):
            PcaModel(**arrays)

    def test_full_dim_preserves_variance(self, rng):
        data = rng.standard_normal((300, 6)) * rng.uniform(0.5, 2.0, 6)
        model = pca_train(data, 6)
        total = np.sum(np.var(data, axis=0, ddof=1))
        assert float(model.eigenvalues.sum()) == pytest.approx(total, rel=1e-8)
        gram = model.basis @ model.basis.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_anisotropic_eigenvalue_ratio(self):
        rng = np.random.default_rng(99)
        data = rng.standard_normal((10_000, 2)) * np.array([2.0, 1.0])
        model = pca_train(data, 2)
        ratio = model.eigenvalues[0] / model.eigenvalues[1]
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_rank_deficiency_names_rank(self, rng):
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        data = rng.standard_normal((50, 2)) @ basis.T
        with pytest.raises(DegenerateDataError, match="rank 2"):
            pca_train(data, 3)

    def test_projection_never_grows_norm(self, rng):
        data = rng.standard_normal((100, 8))
        model = pca_train(data, 4)
        centered = data - model.mean
        projected = centered @ model.basis.T
        assert np.all(
            np.linalg.norm(projected, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-10
        )

    def test_requires_enough_samples(self, rng):
        with pytest.raises(ContractError):
            pca_train(rng.standard_normal((3, 4)), 3)


def blobs(rng, centers, per_blob=60, spread=0.05):
    parts = [c + spread * rng.standard_normal((per_blob, len(c))) for c in centers]
    return np.vstack(parts)


class TestKmeans:
    def test_recovers_separated_blobs(self, rng):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        data = blobs(rng, centers)
        model = kmeans_train(data, 3, seed=3)
        for c in centers:
            assert np.min(np.linalg.norm(model.centroids - c, axis=1)) < 0.1

    def test_k1_is_mean(self, rng):
        data = rng.standard_normal((40, 3))
        model = kmeans_train(data, 1, seed=0)
        assert model.centroids[0] == pytest.approx(data.mean(axis=0), abs=1e-12)

    def test_k_equals_n_zero_objective(self, rng):
        data = rng.standard_normal((12, 4))
        model = kmeans_train(data, 12, seed=5)
        assert quantization_error(data, model.centroids) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, rng):
        data = rng.standard_normal((80, 5))
        a = kmeans_train(data, 6, seed=11)
        b = kmeans_train(data, 6, seed=11)
        assert np.array_equal(a.centroids, b.centroids)

    def test_objective_non_increasing(self, rng):
        # determinism makes runs with growing iteration budgets nested,
        # so their final objectives trace the per-iteration objective
        data = rng.standard_normal((150, 4))
        errors = [
            quantization_error(data, kmeans_train(data, 8, max_iter=m, seed=2).centroids)
            for m in range(1, 10)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_negative_iterations_refused(self, rng):
        data = rng.standard_normal((60, 3))
        with pytest.raises(ContractError, match="iteration count"):
            kmeans_train(data, 4, max_iter=-1)
        with pytest.raises(ContractError, match="iteration count"):
            gmm_train(data, 4, max_iter=-1)

    def test_zero_iterations_is_initialization_only(self, rng):
        data = rng.standard_normal((60, 3))
        expected = _plusplus_init(data, 4, np.random.default_rng(5))
        assert np.array_equal(kmeans_train(data, 4, max_iter=0, seed=5).centroids, expected)
        gmm = gmm_train(data, 4, max_iter=0, seed=5)
        assert np.array_equal(gmm.means, kmeans_train(data, 4, seed=5).centroids)

    def test_empty_cluster_reseeded_from_farthest_point(self):
        data = np.array([[0.0], [0.1], [0.2], [10.0]])
        # third centroid starts far away from every point: empty at first assign
        init = np.array([[0.05], [0.15], [-100.0]])
        cents = _lloyd(data, init.copy(), max_iter=5)
        # the far centroid must have been re-seeded onto the outlier
        assert np.min(np.abs(cents - 10.0)) < 1e-9
        assert quantization_error(data, cents) <= quantization_error(data, init)

    def test_needs_enough_points(self, rng):
        with pytest.raises(ContractError):
            kmeans_train(rng.standard_normal((3, 2)), 4)

    def test_duplicate_centroids_rejected(self):
        with pytest.raises(ContractError):
            CodebookModel(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_large_duplicate_centroids_rejected(self):
        # squared distances overflow to inf - inf = NaN, which must not pass
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ContractError):
            CodebookModel(np.array([[1e200, 0.0], [1e200, 0.0]]))


class TestGmm:
    def test_recovers_two_gaussians(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((400, 2)) * 0.3 + np.array([0.0, 0.0])
        b = rng.standard_normal((400, 2)) * 0.3 + np.array([4.0, 4.0])
        data = np.vstack([a, b])
        model = gmm_train(data, 2, seed=1)
        order = np.argsort(model.means[:, 0])
        assert model.means[order[0]] == pytest.approx([0.0, 0.0], abs=0.1)
        assert model.means[order[1]] == pytest.approx([4.0, 4.0], abs=0.1)
        assert model.weights == pytest.approx([0.5, 0.5], abs=0.05)

    def test_k1_matches_moments(self, rng):
        data = rng.standard_normal((200, 3)) * np.array([1.0, 2.0, 0.5])
        model = gmm_train(data, 1, seed=0)
        assert model.means[0] == pytest.approx(data.mean(axis=0), abs=1e-8)
        assert model.variances[0] == pytest.approx(data.var(axis=0), rel=1e-6)

    def test_log_likelihood_non_decreasing(self, rng):
        data = np.vstack(
            [
                rng.standard_normal((120, 3)) + 2.0,
                rng.standard_normal((120, 3)) - 2.0,
            ]
        )
        lls = [
            gmm_log_likelihood(data, gmm_train(data, 3, max_iter=m, seed=4))
            for m in range(1, 12)
        ]
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

    def test_deterministic(self, rng):
        data = rng.standard_normal((250, 4))
        a = gmm_train(data, 2, seed=9)
        b = gmm_train(data, 2, seed=9)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.weights, b.weights)

    def test_variance_floor_on_degenerate_dimension(self, rng):
        data = rng.standard_normal((100, 2))
        data[:, 1] = 5.0  # zero variance dimension
        model = gmm_train(data, 2, seed=0)
        assert np.all(model.variances > 0.0)

    def test_posteriors_sum_to_one(self, rng):
        data = rng.standard_normal((200, 3))
        model = gmm_train(data, 4, max_iter=10, seed=0)
        resp = gmm_posteriors(rng.standard_normal((50, 3)), model)
        assert resp.sum(axis=1) == pytest.approx(np.ones(50), abs=1e-10)

    def test_requires_ten_points_per_component(self, rng):
        with pytest.raises(ContractError):
            gmm_train(rng.standard_normal((19, 2)), 2)

    @pytest.mark.parametrize(
        "field, message",
        [("weights", "sum to 1"), ("means", "means must be finite"),
         ("variances", "variances must be positive")],
    )
    def test_model_refuses_a_nan(self, field, message):
        arrays = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
                  "variances": np.ones((2, 2))}
        arrays[field].flat[1] = np.nan
        with pytest.raises(ContractError, match=message):
            GmmModel(**arrays)

    def test_model_validation(self):
        with pytest.raises(ContractError):
            GmmModel(
                weights=np.array([0.6, 0.6]),
                means=np.zeros((2, 2)),
                variances=np.ones((2, 2)),
            )
