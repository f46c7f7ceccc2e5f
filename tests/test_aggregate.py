import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_set
from covagg import (
    AngleMapConfig,
    CodebookModel,
    ContractError,
    DegenerateDataError,
    DescriptorSet,
    FisherEmbedding,
    GmmModel,
    ModulatedVector,
    MonomialConfig,
    Pipeline,
    RnModel,
    VladEmbedding,
    angle_feature_batch,
    fourier_coeffs,
    score_cosine,
    truncated_kernel,
)
import covagg.aggregate as aggregate_module
from covagg import oracle
from covagg.aggregate import _raw_sum, aggregate, aggregate_rotations, rotated_rows
from covagg.monomial import phi_monomial_batch
from covagg.oracle import modulate, rotate_set

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))


class TestModulate:
    def test_axis_vector_at_zero_angle(self):
        v = np.zeros(5)
        v[0] = 1.0
        out = modulate(v, angle_feature_batch(np.array([0.0]), K8_N3)[0])
        root = np.sqrt(K8_N3.gamma)
        assert out[0] == pytest.approx(root[0])
        # sine blocks (indices 2 and 4 of the block sequence) vanish
        blocks = out.reshape(7, 5)
        assert np.all(blocks[2] == 0.0)
        assert np.all(blocks[4] == 0.0)
        assert np.all(blocks[6] == 0.0)

    def test_matches_literal_kronecker_inner_products(self, rng):
        for _ in range(20):
            v, w = rng.standard_normal((2, 6))
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            a1, a2 = angle_feature_batch(np.array([t1, t2]), K8_N3)
            lhs = float(np.dot(modulate(v, a1), modulate(w, a2)))
            rhs = float(np.dot(np.kron(v, a1), np.kron(w, a2)))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.integers(0, 6))
    def test_factorization_identity(self, seed, dim, n_freq):
        rng = np.random.default_rng(seed)
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        v, w = rng.standard_normal((2, dim))
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        a1, a2 = angle_feature_batch(np.array([t1, t2]), coeffs)
        lhs = float(np.dot(modulate(v, a1), modulate(w, a2)))
        rhs = float(np.dot(v, w)) * truncated_kernel(t1 - t2, coeffs)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    def test_is_the_kronecker_product(self, rng, n_freq):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        v = rng.standard_normal(6)
        a = angle_feature_batch(np.array([0.8]), coeffs)[0]
        assert np.array_equal(modulate(v, a), np.kron(a, v))

    def test_dim_80_n3_gives_560(self, rng):
        out = modulate(rng.standard_normal(80), angle_feature_batch(np.array([0.4]), K8_N3)[0])
        assert out.shape == (560,)


class TestModulatedVector:
    def test_block_views(self, rng):
        values = rng.standard_normal(15)
        values /= np.linalg.norm(values)
        mv = ModulatedVector(values, base_dim=3, n_freq=2)
        assert np.array_equal(mv.blocks[0], values[:3])
        assert np.array_equal(mv.blocks[1], values[3:6])  # cos 1
        assert np.array_equal(mv.blocks[2], values[6:9])  # sin 1
        assert np.array_equal(mv.blocks[3], values[9:12])  # cos 2
        assert mv.blocks.shape == (5, 3)

    def test_length_validation(self):
        with pytest.raises(ContractError):
            ModulatedVector(np.zeros(10), base_dim=3, n_freq=1)


class TestAggregate:
    def test_single_descriptor(self, rng):
        emb = MonomialConfig(1, 8)
        dset = random_set(rng, 1, 8)
        vec = aggregate(dset, emb, K8_N3)
        direct = modulate(dset.descriptors[0], angle_feature_batch(dset.angles, K8_N3)[0])
        assert vec.values == pytest.approx(direct / np.linalg.norm(direct), abs=1e-12)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-10)

    def test_matches_oracle_double_sum(self, rng):
        emb = MonomialConfig(2, 8)
        for _ in range(5):
            xs = random_set(rng, 10, 8, "x")
            ys = random_set(rng, 10, 8, "y")
            X = aggregate(xs, emb, K8_N3)
            Y = aggregate(ys, emb, K8_N3)
            ref = oracle.brute_match_kernel(xs, ys, emb, K8_N3)
            assert abs(score_cosine(X, Y) - ref) < 1e-8

    def test_phi2_dim(self, rng):
        emb = MonomialConfig(2, 80)
        vec = aggregate(random_set(rng, 4, 80), emb, K8_N3)
        assert vec.dim == 22680

    def test_permutation_invariance(self, rng):
        emb = MonomialConfig(1, 8)
        dset = random_set(rng, 50, 8)
        perm = rng.permutation(50)
        shuffled = DescriptorSet(dset.descriptors[perm], dset.angles[perm])
        a = aggregate(dset, emb, K8_N3)
        b = aggregate(shuffled, emb, K8_N3)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_chunking_does_not_change_result(self, rng, monkeypatch):
        emb = MonomialConfig(1, 8)
        dset = random_set(rng, 33, 8)
        monkeypatch.setattr(aggregate_module, "AGGREGATE_CHUNK", 4)
        a = aggregate(dset, emb, K8_N3)
        monkeypatch.setattr(aggregate_module, "AGGREGATE_CHUNK", 512)
        b = aggregate(dset, emb, K8_N3)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_raw_sum_matches_dense_embedding(self, rng, degree):
        # 600 descriptors cross the AGGREGATE_CHUNK boundary
        emb = MonomialConfig(degree, 8)
        dset = random_set(rng, 600, 8)
        feats = angle_feature_batch(dset.angles, K8_N3)
        dense = feats.T @ phi_monomial_batch(dset.descriptors, emb)
        raw = _raw_sum(dset.angles, dset.descriptors, emb, K8_N3)
        assert np.max(np.abs(raw - dense.ravel())) < 1e-12

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("bad", ["non-unit", "wrong-dim"])
    def test_bad_descriptors_refused(self, rng, degree, bad):
        emb = MonomialConfig(degree, 8)
        if bad == "non-unit":
            dset = DescriptorSet(2.0 * random_set(rng, 5, 8).descriptors, np.zeros(5))
        else:
            dset = random_set(rng, 5, 6)
        with pytest.raises(ContractError):
            aggregate(dset, emb, K8_N3)
        with pytest.raises(ContractError):
            Pipeline(emb, K8_N3, power_exponent=0.2).encode(dset)

    def test_monomial_aggregation_never_builds_the_embedding(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phi_monomial_batch called during aggregation")

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "phi_monomial_batch", None)
            if name.split(".")[0] == "covagg" and bound is phi_monomial_batch:
                monkeypatch.setattr(module, "phi_monomial_batch", refuse)
        thetas = np.array([0.0, 1.1])
        for degree, adapted in ((2, False), (3, True)):
            emb = MonomialConfig(degree, 8)
            dset = random_set(rng, 20, 8)
            aggregate(dset, emb, K8_N3)
            pipe = Pipeline(emb, K8_N3, power_exponent=0.2, adapted=adapted)
            assert pipe.encode_rotations(dset, thetas).shape == (2, pipe.output_dim)

    def test_global_rotation_preserves_sum_norm(self, rng):
        emb = MonomialConfig(1, 8)
        for _ in range(5):
            dset = random_set(rng, 20, 8)
            shift = rng.uniform(-np.pi, np.pi)
            moved = rotate_set(dset, shift)
            n0 = np.linalg.norm(_raw_sum(dset.angles, dset.descriptors, emb, K8_N3))
            n1 = np.linalg.norm(_raw_sum(moved.angles, moved.descriptors, emb, K8_N3))
            assert abs(n0 - n1) < 1e-10

    def test_rotations_match_rotated_sets(self, rng):
        emb = MonomialConfig(1, 8)
        dset = random_set(rng, 12, 8)
        thetas = np.array([0.0, 0.9, -2.2])
        multi = aggregate_rotations(dset, emb, K8_N3, thetas)
        for theta, vec in zip(thetas, multi):
            direct = aggregate(rotate_set(dset, theta), emb, K8_N3)
            assert np.max(np.abs(vec.values - direct.values)) < 1e-12

    def test_rotations_are_the_rotated_rows(self, rng):
        emb = MonomialConfig(2, 8)
        dset = random_set(rng, 12, 8)
        thetas = np.array([0.0, 0.9, -2.2, np.pi])
        multi = aggregate_rotations(dset, emb, K8_N3, thetas)
        rows = rotated_rows(aggregate(dset, emb, K8_N3), thetas)
        assert [(vec.base_dim, vec.n_freq) for vec in multi] == [(emb.output_dim, 3)] * 4
        assert np.array_equal(np.stack([vec.values for vec in multi]), rows)

    @pytest.mark.parametrize(
        "family",
        ["phi2", "phi3-adapted", "phi2-none", "vlad", "fisher", "phi2-adapted-rn-truncate",
         "fisher-whiten"],
    )
    def test_encode_rotations_match_rotated_sets(self, rng, family):
        # the adapted power law runs once before rotating, since it commutes
        # with block rotation; the plain power law, RN and truncation run on
        # all rotated rows at once. Each row must equal the full encode of
        # the rotated set.
        def rn(emb, whiten=False):
            dim = emb.output_dim * (2 * K8_N3.n_freq + 1)
            rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            return RnModel(
                rotation=rotation, exponent=0.5, whiten=whiten,
                eigenvalues=rng.uniform(0.1, 1.0, dim),
            )

        def fisher():
            weights = rng.uniform(0.5, 1.5, 3)
            return FisherEmbedding(GmmModel(
                weights / weights.sum(), rng.standard_normal((3, 8)), rng.uniform(0.5, 2.0, (3, 8))
            ))

        if family == "phi2":
            pipe = Pipeline(MonomialConfig(2, 8), K8_N3, power_exponent=0.5, adapted=True)
        elif family == "phi3-adapted":
            pipe = Pipeline(MonomialConfig(3, 8), K8_N3, power_exponent=0.2, adapted=True)
        elif family == "phi2-none":
            pipe = Pipeline(MonomialConfig(2, 8), K8_N3)
        elif family == "vlad":
            emb = VladEmbedding(CodebookModel(rng.standard_normal((4, 8))))
            pipe = Pipeline(emb, K8_N3, power_exponent=0.4)
        elif family == "fisher":
            emb = fisher()
            pipe = Pipeline(emb, K8_N3, power_exponent=0.4, rn=rn(emb), truncate_dim=40)
        elif family == "phi2-adapted-rn-truncate":
            emb = MonomialConfig(2, 8)
            pipe = Pipeline(
                emb, K8_N3, power_exponent=0.3, adapted=True, rn=rn(emb), truncate_dim=50
            )
        else:
            emb = fisher()
            pipe = Pipeline(emb, K8_N3, power_exponent=0.4, rn=rn(emb, whiten=True))
        query = random_set(rng, 30, 8)
        thetas = np.array([0.0, 0.7, 2.5, -1.3])
        rows = pipe.encode_rotations(query, thetas)
        assert rows.shape == (thetas.size, pipe.output_dim)
        for theta, row in zip(thetas, rows):
            direct = pipe.encode(rotate_set(query, theta))
            assert np.max(np.abs(row - direct)) < 1e-10

    def test_empty_set_rejected(self, rng):
        emb = MonomialConfig(1, 8)
        empty = DescriptorSet(np.empty((0, 8)), np.empty(0))
        with pytest.raises(ContractError):
            aggregate(empty, emb, K8_N3)

    def test_cancelling_set_is_degenerate(self):
        emb = MonomialConfig(1, 2)
        x = np.array([1.0, 0.0])
        dset = DescriptorSet(np.stack([x, -x]), [0.3, 0.3])
        with pytest.raises(DegenerateDataError):
            aggregate(dset, emb, K8_N3)
