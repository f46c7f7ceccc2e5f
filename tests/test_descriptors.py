import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from covagg import (
    AngleMapConfig,
    CodebookModel,
    ContractError,
    DegenerateDataError,
    DescriptorSet,
    FisherEmbedding,
    GmmModel,
    MonomialConfig,
    PcaModel,
    VladEmbedding,
    angle_feature_batch,
    embed_batch,
    fourier_coeffs,
    gmm_train,
    pca_train,
    preprocess_batch,
    rootsift_batch,
)
from covagg.aggregate import AGGREGATE_CHUNK, _raw_sum
from covagg.codebooks import VARIANCE_FLOOR_FRACTION
from covagg.descriptors import embed_weighted_sum
from covagg.oracle import rotate_set


class TestDescriptorSet:
    def test_wraps_angles(self, rng):
        dset = DescriptorSet(unit_rows(rng, 3, 4), [0.0, 4.0, -4.0])
        assert np.all(dset.angles > -np.pi)
        assert np.all(dset.angles <= np.pi)
        assert np.cos(dset.angles[1]) == pytest.approx(np.cos(4.0))

    def test_rejects_non_finite(self, rng):
        with pytest.raises(ContractError):
            DescriptorSet(unit_rows(rng, 2, 4), [0.0, np.nan])
        bad = unit_rows(rng, 2, 4)
        bad[0, 0] = np.inf
        with pytest.raises(ContractError):
            DescriptorSet(bad, [0.0, 0.0])

    def test_rotate_set_shifts_and_wraps(self, rng):
        dset = DescriptorSet(unit_rows(rng, 2, 4), [3.0, -3.0])
        rotated = rotate_set(dset, 0.5)
        assert rotated.angles[0] == pytest.approx(2.5)
        assert rotated.angles[1] == pytest.approx(-3.5 + 2 * np.pi)


class TestRootsift:
    def test_one_hot_unchanged(self):
        x = np.zeros(8)
        x[3] = 7.0
        assert rootsift_batch(x[None])[0] == pytest.approx(np.eye(8)[3], abs=0)

    def test_uniform_vector(self):
        out = rootsift_batch(np.full((1, 128), 0.25))[0]
        assert out == pytest.approx(np.full(128, 1.0 / np.sqrt(128)), rel=1e-12)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_norm(self, seed):
        raw = np.random.default_rng(seed).uniform(0.0, 10.0, 64)
        raw[0] += 1e-3  # keep at least one positive component
        assert np.linalg.norm(rootsift_batch(raw[None])[0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ContractError):
            rootsift_batch(np.zeros((1, 4)))
        with pytest.raises(ContractError):
            rootsift_batch(np.array([[1.0, -0.5, 0.0]]))


class TestPreprocess:
    def test_identity_model_keeps_vector(self, rng):
        x = unit_rows(rng, 1, 4)
        model = PcaModel(mean=np.zeros(4), basis=np.eye(4), eigenvalues=np.ones(4))
        assert preprocess_batch(x, model) == pytest.approx(x, abs=1e-12)

    def test_reduce_to_80_dims(self, rng):
        data = rng.standard_normal((400, 128))
        model = pca_train(data, 80)
        out = preprocess_batch(unit_rows(rng, 1, 128), model)[0]
        assert out.shape == (80,)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_preserves_centered_inner_products(self, rng):
        data = rng.standard_normal((300, 16))
        model = pca_train(data, 16)
        X = unit_rows(rng, 10, 16)
        centered = X - model.mean
        rotated = centered @ model.basis.T
        before = centered @ centered.T
        after = rotated @ rotated.T
        assert np.max(np.abs(before - after)) < 1e-10

    def test_zero_after_centering_is_degenerate(self):
        model = PcaModel(mean=np.array([1.0, 0.0]), basis=np.eye(2), eigenvalues=np.ones(2))
        with pytest.raises(DegenerateDataError):
            preprocess_batch(np.array([[1.0, 0.0]]), model)


class TestVlad:
    @pytest.fixture
    def codebook(self, rng):
        return CodebookModel(rng.standard_normal((4, 8)))

    def test_centroid_input_gives_zero_vector(self, codebook):
        emb = VladEmbedding(codebook)
        out = embed_batch(codebook.centroids[2][None], emb)[0]
        assert np.all(out == 0.0)

    def test_single_nonzero_block_with_unit_residual(self, rng, codebook):
        emb = VladEmbedding(codebook)
        X = rng.standard_normal((20, 8))
        out = embed_batch(X, emb)
        blocks = out.reshape(20, 4, 8)
        norms = np.linalg.norm(blocks, axis=2)
        assert np.all(np.sum(norms > 1e-12, axis=1) == 1)
        assert np.max(np.abs(np.max(norms, axis=1) - 1.0)) < 1e-12

    def test_assignment_invariant_to_distance_scaling(self, rng, codebook):
        X = rng.standard_normal((30, 8))
        scaled = CodebookModel(codebook.centroids * 2.5)
        a = embed_batch(X, VladEmbedding(codebook)).reshape(30, 4, 8)
        b = embed_batch(X * 2.5, VladEmbedding(scaled)).reshape(30, 4, 8)
        assert np.array_equal(
            np.linalg.norm(a, axis=2) > 0, np.linalg.norm(b, axis=2) > 0
        )

    def test_tie_breaks_to_lowest_index(self):
        codebook = CodebookModel(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        out = embed_batch(np.array([[0.0, 1.0]]), VladEmbedding(codebook))[0]
        assert np.linalg.norm(out[:2]) > 0
        assert np.all(out[2:] == 0.0)

    def test_output_dim(self, rng):
        emb = VladEmbedding(CodebookModel(rng.standard_normal((32, 128))))
        assert emb.output_dim == 4096


class TestFisher:
    def test_single_component_standardizes(self, rng):
        gmm = GmmModel(
            weights=np.array([1.0]),
            means=np.array([[0.5, -0.5, 0.0]]),
            variances=np.array([[4.0, 1.0, 0.25]]),
        )
        x = np.array([1.5, 0.5, 1.0])
        out = embed_batch(x[None], FisherEmbedding(gmm))[0]
        assert out == pytest.approx((x - gmm.means[0]) / np.sqrt(gmm.variances[0]))

    def test_output_dim(self, rng):
        weights = np.full(32, 1 / 32.0)
        gmm = GmmModel(weights, rng.standard_normal((32, 80)), np.ones((32, 80)))
        assert FisherEmbedding(gmm).output_dim == 2560

    def test_deterministic(self, rng):
        weights = np.array([0.3, 0.7])
        gmm = GmmModel(weights, rng.standard_normal((2, 6)), np.ones((2, 6)))
        x = unit_rows(rng, 1, 6)
        emb = FisherEmbedding(gmm)
        assert np.array_equal(embed_batch(x, emb), embed_batch(x, emb))


def test_embed_monomial_dispatch(rng):
    out = embed_batch(unit_rows(rng, 1, 6), MonomialConfig(2, 6))
    assert out.shape == (1, 21)


def test_embed_dim_mismatch(rng):
    codebook = CodebookModel(rng.standard_normal((4, 8)))
    with pytest.raises(ContractError):
        embed_batch(rng.standard_normal((5, 7)), VladEmbedding(codebook))
    with pytest.raises(ContractError, match="does not match model dim"):
        embed_weighted_sum(np.ones((5, 3)), rng.standard_normal((5, 7)), VladEmbedding(codebook))


def descriptor_checks():
    """(name, owner word, call) of each function that checks a 4-wide descriptor matrix."""
    rng = np.random.default_rng(0)
    pca = pca_train(rng.standard_normal((40, 4)), 4)
    gmm = GmmModel(np.full(2, 0.5), rng.standard_normal((2, 4)), np.ones((2, 4)))
    families = {
        "vlad": (VladEmbedding(CodebookModel(rng.standard_normal((3, 4)))), "model"),
        "fisher": (FisherEmbedding(gmm), "model"),
        **{f"phi{p}": (MonomialConfig(p, 4), "configured") for p in (1, 2, 3)},
    }
    checks = [("preprocess_batch", "pca input", lambda X: preprocess_batch(X, pca))]
    for name, (emb, owner) in families.items():
        checks.append((f"embed_batch-{name}", owner, lambda X, emb=emb: embed_batch(X, emb)))
        checks.append((f"embed_weighted_sum-{name}", owner,
                       lambda X, emb=emb: embed_weighted_sum(np.ones((len(X), 2)), X, emb)))
    return checks


@pytest.mark.parametrize("name, owner, call", descriptor_checks(),
                         ids=[name for name, _, _ in descriptor_checks()])
@pytest.mark.parametrize("bad", ["one-d", "wrong-width"])
def test_descriptor_matrix_errors_name_the_owner(name, owner, call, bad):
    X, message = {
        "one-d": (np.ones(4), "expected a 2-D array of descriptors"),
        "wrong-width": (np.ones((3, 5)), f"descriptor dim 5 does not match {owner} dim 4"),
    }[bad]
    with pytest.raises(ContractError) as exc:
        call(X)
    assert str(exc.value) == message


def assert_matches_dense(W, X, emb):
    """embed_weighted_sum equals W.T @ embed_batch within 1e-12 of the sums' scale."""
    ref = W.T @ embed_batch(X, emb)
    out = embed_weighted_sum(W, X, emb)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def codebook_families(centroids, variances):
    k = centroids.shape[0]
    return [
        VladEmbedding(CodebookModel(centroids)),
        FisherEmbedding(GmmModel(np.full(k, 1.0 / k), centroids, variances)),
    ]


class TestCodebookWeightedSum:
    @pytest.mark.parametrize("n", [1, 2, 37, AGGREGATE_CHUNK, AGGREGATE_CHUNK + 37])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, seed, n):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 10)), int(rng.integers(2, 30))
        X = unit_rows(rng, n, d)
        W = rng.standard_normal((n, 7))
        for emb in codebook_families(unit_rows(rng, k, d), rng.uniform(1e-3, 0.2, (k, d))):
            assert_matches_dense(W, X, emb)

    @pytest.mark.parametrize("offset", [0.0, 1e-9])
    def test_descriptor_at_or_next_to_a_centroid(self, rng, offset):
        centroids = unit_rows(rng, 8, 24)
        X = unit_rows(rng, 40, 24)
        X[3] = centroids[5]
        X[4] = centroids[0] + offset * unit_rows(rng, 1, 24)[0]
        W = rng.standard_normal((40, 7))
        for emb in codebook_families(centroids, np.full((8, 24), 0.05)):
            assert_matches_dense(W, X, emb)
            assert_matches_dense(W[3:5], X[3:5], emb)

    def test_tied_centroids_go_to_the_lowest_index(self, rng):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        X = np.array([[0.0, 1.0], [0.6, 0.8], [0.0, 1.0]])
        W = rng.standard_normal((3, 5))
        vlad, fisher = codebook_families(centroids, np.full((3, 2), 0.3))
        out = embed_weighted_sum(W, X, vlad).reshape(5, 3, 2)
        assert np.all(out[:, 1:] == 0.0)
        assert_matches_dense(W, X, vlad)
        assert_matches_dense(W, X, fisher)

    def test_gmm_at_its_variance_floor(self, rng):
        # repeated points collapse their components onto the variance floor
        data = np.vstack([np.repeat(unit_rows(rng, 8, 24), 60, axis=0), unit_rows(rng, 200, 24)])
        gmm = gmm_train(data, 8, max_iter=5)
        floor = VARIANCE_FLOOR_FRACTION * data.var(axis=0)
        assert np.any(np.isclose(gmm.variances, floor, rtol=1e-12, atol=0.0))
        X = data[rng.integers(0, data.shape[0], 512)]
        assert_matches_dense(rng.standard_normal((512, 7)), X, FisherEmbedding(gmm))

    def test_aggregate_across_chunks_matches_dense(self, rng):
        n = 2 * AGGREGATE_CHUNK + 5
        dset = DescriptorSet(unit_rows(rng, n, 6), rng.uniform(-3.1, 3.1, n))
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
        feats = angle_feature_batch(dset.angles, coeffs)
        for emb in codebook_families(unit_rows(rng, 4, 6), np.full((4, 6), 0.1)):
            ref = (feats.T @ embed_batch(dset.descriptors, emb)).ravel()
            out = _raw_sum(dset.angles, dset.descriptors, emb, coeffs)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
