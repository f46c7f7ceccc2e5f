import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from covagg import (
    CodebookModel,
    ContractError,
    DegenerateDataError,
    DescriptorSet,
    FisherEmbedding,
    GmmModel,
    MonomialConfig,
    PcaModel,
    VladEmbedding,
    embed_batch,
    embed_descriptor,
    pca_train,
    preprocess,
    rootsift,
    rotate_set,
)


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
        assert rootsift(x) == pytest.approx(np.eye(8)[3], abs=0)

    def test_uniform_vector(self):
        out = rootsift(np.full(128, 0.25))
        assert out == pytest.approx(np.full(128, 1.0 / np.sqrt(128)), rel=1e-12)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_norm(self, seed):
        raw = np.random.default_rng(seed).uniform(0.0, 10.0, 64)
        raw[0] += 1e-3  # keep at least one positive component
        assert np.linalg.norm(rootsift(raw)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ContractError):
            rootsift(np.zeros(4))
        with pytest.raises(ContractError):
            rootsift(np.array([1.0, -0.5, 0.0]))


class TestPreprocess:
    def test_identity_model_keeps_vector(self, rng):
        x = unit_rows(rng, 1, 4)[0]
        model = PcaModel(mean=np.zeros(4), basis=np.eye(4), eigenvalues=np.ones(4))
        assert preprocess(x, model, reduce=False) == pytest.approx(x, abs=1e-12)

    def test_reduce_to_80_dims(self, rng):
        data = rng.standard_normal((400, 128))
        model = pca_train(data, 80)
        out = preprocess(unit_rows(rng, 1, 128)[0], model, reduce=True)
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

    def test_rotation_only_needs_square_basis(self, rng):
        data = rng.standard_normal((400, 8))
        model = pca_train(data, 4)
        with pytest.raises(ContractError):
            preprocess(unit_rows(rng, 1, 8)[0], model, reduce=False)

    def test_zero_after_centering_is_degenerate(self):
        model = PcaModel(mean=np.array([1.0, 0.0]), basis=np.eye(2), eigenvalues=np.ones(2))
        with pytest.raises(DegenerateDataError):
            preprocess(np.array([1.0, 0.0]), model, reduce=False)


class TestVlad:
    @pytest.fixture
    def codebook(self, rng):
        return CodebookModel(rng.standard_normal((4, 8)))

    def test_centroid_input_gives_zero_vector(self, codebook):
        emb = VladEmbedding(codebook)
        out = embed_descriptor(codebook.centroids[2], emb)
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
        out = embed_descriptor(np.array([0.0, 1.0]), VladEmbedding(codebook))
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
        out = embed_descriptor(x, FisherEmbedding(gmm))
        assert out == pytest.approx((x - gmm.means[0]) / np.sqrt(gmm.variances[0]))

    def test_output_dim(self, rng):
        weights = np.full(32, 1 / 32.0)
        gmm = GmmModel(weights, rng.standard_normal((32, 80)), np.ones((32, 80)))
        assert FisherEmbedding(gmm).output_dim == 2560

    def test_deterministic(self, rng):
        weights = np.array([0.3, 0.7])
        gmm = GmmModel(weights, rng.standard_normal((2, 6)), np.ones((2, 6)))
        x = unit_rows(rng, 1, 6)[0]
        emb = FisherEmbedding(gmm)
        assert np.array_equal(embed_descriptor(x, emb), embed_descriptor(x, emb))


def test_embed_monomial_dispatch(rng):
    x = unit_rows(rng, 1, 6)[0]
    out = embed_descriptor(x, MonomialConfig(2, 6))
    assert out.shape == (21,)


def test_embed_dim_mismatch(rng):
    codebook = CodebookModel(rng.standard_normal((4, 8)))
    with pytest.raises(ContractError):
        embed_batch(rng.standard_normal((5, 7)), VladEmbedding(codebook))
