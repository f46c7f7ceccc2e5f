import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_set
from covagg import (
    AngleMapConfig,
    ContractError,
    ModulatedVector,
    MonomialConfig,
    RnModel,
    adapted_power_law,
    fourier_coeffs,
    power_law,
    rn_apply,
    rn_train,
    rotate_set,
    truncate_l2,
)
from covagg.aggregate import aggregate, rotated_rows

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))


class TestPowerLaw:
    def test_identity_exponent_just_normalizes(self, rng):
        v = rng.standard_normal(40)
        assert power_law(v, 1.0) == pytest.approx(v / np.linalg.norm(v), abs=1e-12)

    def test_square_root_case(self):
        assert power_law(np.array([4.0, 0.0]), 0.5) == pytest.approx([1.0, 0.0], abs=0)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    def test_sign_preserved_and_unit_norm(self, seed, exponent):
        v = np.random.default_rng(seed).standard_normal(32)
        out = power_law(v, exponent)
        assert np.array_equal(np.sign(out), np.sign(v))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_exponent_validation(self):
        for bad in (0.0, -0.3, 1.5, np.nan):
            with pytest.raises(ContractError):
                power_law(np.ones(3), bad)

    @pytest.mark.parametrize("bad", [None, "0.5", 0.5j, np.array([0.5])])
    def test_exponent_must_be_a_real(self, bad):
        with pytest.raises(ContractError, match="exponent"):
            power_law(np.ones(3), bad)


class TestAdaptedPowerLaw:
    def test_hand_computed_pair(self):
        # single (cos, sin) pair (3, 4): modulus 5 -> sqrt(5), phase kept
        mv = ModulatedVector(np.array([0.0, 3.0, 4.0]), base_dim=1, n_freq=1)
        out = adapted_power_law(mv, 0.5)
        assert out.values == pytest.approx([0.0, 0.6, 0.8], abs=1e-12)

    def test_identity_exponent(self, rng):
        vec = aggregate(random_set(rng, 10, 6), MonomialConfig(1, 6), K8_N3)
        out = adapted_power_law(vec, 1.0)
        assert out.values == pytest.approx(vec.values, abs=1e-12)

    def test_phase_invariance(self, rng):
        vec = aggregate(random_set(rng, 10, 6), MonomialConfig(1, 6), K8_N3)
        out = adapted_power_law(vec, 0.3)
        for n in range(1, 4):
            before = np.arctan2(vec.block_sin(n), vec.block_cos(n))
            after = np.arctan2(out.block_sin(n), out.block_cos(n))
            assert np.max(np.abs(before - after)) < 1e-10

    def test_zero_modulus_pairs_stay_zero(self):
        # base component 0 has cos = sin = 0: a zero-modulus pair
        values = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 0.5])
        mv = ModulatedVector(values / np.linalg.norm(values), base_dim=2, n_freq=1)
        out = adapted_power_law(mv, 0.5)
        assert np.all(np.isfinite(out.values))
        assert out.values[2] == 0.0  # cos component of the zero pair
        assert out.values[4] == 0.0  # sin component of the zero pair

    def test_all_zero_frequency_stays_zero(self, rng):
        blocks = rng.standard_normal((7, 5))
        blocks[3:5] = 0.0  # cos 2 and sin 2
        out = adapted_power_law(ModulatedVector(blocks.ravel(), base_dim=5, n_freq=3), 0.3)
        assert np.all(out.blocks[3:5] == 0.0)
        assert np.all(out.blocks[[0, 1, 2, 5, 6]] != 0.0)
        assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_invariant_to_extreme_scale(self, rng, factor):
        # the squared pair components of the scaled vector underflow or
        # overflow unless the blocks are rescaled first
        vec = aggregate(random_set(rng, 10, 6), MonomialConfig(1, 6), K8_N3)
        scaled = ModulatedVector(vec.values * factor, base_dim=6, n_freq=3)
        for exponent in (0.2, 0.5, 1.0):
            expected = adapted_power_law(vec, exponent).values
            assert np.max(np.abs(adapted_power_law(scaled, exponent).values - expected)) < 1e-12

    def test_matches_hypot_formula(self, rng):
        def reference(X, exponent):
            blocks = X.blocks.copy()
            blocks[0] = np.sign(blocks[0]) * np.abs(blocks[0]) ** exponent
            modulus = np.hypot(blocks[1::2], blocks[2::2])
            scale = np.zeros_like(modulus)
            nz = modulus > 0.0
            scale[nz] = modulus[nz] ** (exponent - 1.0)
            blocks[1::2] *= scale
            blocks[2::2] *= scale
            return blocks.ravel() / np.linalg.norm(blocks)

        for _ in range(20):
            n_freq = int(rng.integers(0, 5))
            base_dim = int(rng.integers(1, 12))
            X = ModulatedVector(
                rng.standard_normal(base_dim * (2 * n_freq + 1)), base_dim, n_freq
            )
            exponent = float(rng.uniform(0.05, 1.0))
            assert np.max(np.abs(adapted_power_law(X, exponent).values
                                 - reference(X, exponent))) < 1e-12

    def test_commutes_with_block_rotation(self, rng):
        # re-encoding with shifted angles, then normalizing, matches
        # rotating the normalized blocks afterwards
        emb = MonomialConfig(1, 6)
        dset = random_set(rng, 12, 6)
        shift = 1.234
        lhs = adapted_power_law(aggregate(rotate_set(dset, shift), emb, K8_N3), 0.4)
        rhs = rotated_rows(adapted_power_law(aggregate(dset, emb, K8_N3), 0.4), shift)[0]
        assert np.max(np.abs(lhs.values - rhs)) < 1e-9


class TestRn:
    def test_identity_rotation_unit_exponent(self, rng):
        v = rng.standard_normal(6)
        model = RnModel(rotation=np.eye(6), exponent=1.0)
        assert rn_apply(v, model) == pytest.approx(v / np.linalg.norm(v), abs=1e-12)

    def test_component_sqrt_example(self):
        model = RnModel(rotation=np.eye(4), exponent=0.5)
        out = rn_apply(np.array([0.64, 0.36, 0.0, 0.0]), model)
        assert out == pytest.approx([0.8, 0.6, 0.0, 0.0], abs=1e-12)

    def test_output_always_unit_norm(self, rng):
        data = rng.standard_normal((60, 8))
        model = rn_train(data)
        for _ in range(10):
            out = rn_apply(rng.standard_normal(8), model)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_train_orders_rotation_by_energy(self, rng):
        data = rng.standard_normal((500, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        model = rn_train(data)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        gram = model.rotation @ model.rotation.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_few_samples_warns_and_stays_orthonormal(self, rng):
        data = rng.standard_normal((4, 10))
        with pytest.warns(UserWarning, match="sample span"):
            model = rn_train(data)
        gram = model.rotation @ model.rotation.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-8
        # spanned directions come first
        assert np.count_nonzero(model.eigenvalues > 0) == 3

    def test_whiten_path(self, rng):
        data = rng.standard_normal((200, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        model = rn_train(data, whiten=True)
        out = rn_apply(rng.standard_normal(5), model)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_whiten_requires_eigenvalues(self):
        with pytest.raises(ContractError):
            RnModel(rotation=np.eye(3), whiten=True)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            RnModel(rotation=np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_large_rotation_is_probed_for_norms(self, rng):
        # above the Gram-check size the rotation is probed with random vectors
        dim = 1100
        with pytest.raises(ContractError, match="rotation does not preserve norms"):
            RnModel(rotation=1.01 * np.eye(dim))
        signed_permutation = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)
        assert RnModel(rotation=signed_permutation).dim == dim

    def test_identical_vectors_train_the_identity_and_warn(self, rng):
        data = np.tile(rng.standard_normal(6), (4, 1))
        with pytest.warns(UserWarning, match="sample span"):
            model = rn_train(data)
        assert np.array_equal(model.rotation, np.eye(6))
        assert np.array_equal(model.eigenvalues, np.zeros(6))

    def test_row_slice_whitens_with_the_full_floor(self, rng):
        # the largest eigenvalue lies outside the slice, so only the full
        # spectrum puts the floor (1e-6) above the kept eigenvalues
        eig = np.array([1e-9, 2e-9, 1.0, 0.5, 0.25, 0.125])
        model = RnModel(rotation=np.eye(6), whiten=True, eigenvalues=eig)
        v = rng.standard_normal((3, 6))
        ref = truncate_l2(rn_apply(v, model), 2)
        assert np.max(np.abs(rn_apply(v, model.leading_rows(2)) - ref)) < 1e-15


class TestTruncate:
    def test_full_length_is_identity(self, rng):
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        assert truncate_l2(v, 10) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("d_out", [128, 1024])
    def test_compact_sizes(self, rng, d_out):
        v = rng.standard_normal(22680)
        out = truncate_l2(v, d_out)
        assert out.shape == (d_out,)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sizes(self, rng):
        v = rng.standard_normal(8)
        with pytest.raises(ContractError):
            truncate_l2(v, 0)
        with pytest.raises(ContractError):
            truncate_l2(v, -3)
        with pytest.raises(ContractError):
            truncate_l2(v, 9)

    @pytest.mark.parametrize("bad", [None, 2.5, np.nan, "3"])
    def test_size_must_be_an_integer(self, rng, bad):
        with pytest.raises(ContractError, match="d_out"):
            truncate_l2(rng.standard_normal(8), bad)


STAGES = ["power-law", "rn-power", "rn-whiten", "truncate"]


def _stage(name, rng, dim=12):
    """One post-processing stage as a function of a vector or row matrix."""
    if name == "power-law":
        return lambda v: power_law(v, 0.3)
    if name == "truncate":
        return lambda v: truncate_l2(v, 7)
    model = rn_train(rng.standard_normal((60, dim)), whiten=name == "rn-whiten")
    return lambda v: rn_apply(v, model)


class TestRowMatrices:
    @pytest.mark.parametrize("name", STAGES)
    def test_rows_match_one_vector_at_a_time(self, rng, name):
        stage = _stage(name, rng)
        rows = rng.standard_normal((6, 12))
        batched = stage(rows)
        assert batched.shape[0] == 6
        for row, out in zip(rows, batched):
            assert np.max(np.abs(out - stage(row))) < 1e-15

    @pytest.mark.parametrize("name", STAGES)
    def test_zero_row_stays_zero(self, rng, name):
        stage = _stage(name, rng)
        rows = rng.standard_normal((4, 12))
        rows[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stage(rows)
        assert np.all(out[2] == 0.0)
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out[[0, 1, 3]], axis=1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", STAGES)
    def test_three_d_input_refused(self, rng, name):
        with pytest.raises(ContractError):
            _stage(name, rng)(np.ones((2, 3, 12)))

    def test_wrong_last_dim_refused(self, rng):
        with pytest.raises(ContractError, match="dim"):
            _stage("rn-power", rng)(np.ones((3, 11)))
        with pytest.raises(ContractError, match="exceeds"):
            truncate_l2(np.ones((3, 6)), 7)
