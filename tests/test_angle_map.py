import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from covagg import (
    AngleMapConfig,
    ContractError,
    FourierCoefficients,
    angle_feature_batch,
    bessel_i,
    fourier_coeffs,
    harmonics,
    truncated_kernel,
    vm_kernel,
    wrap_angle,
)
from covagg.angle_map import BESSEL_MAX_ORDER, cosines, wrapped_angle_features

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))


class TestWrapAngle:
    def test_known_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    @given(st.floats(-1e6, 1e6))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -np.pi < w <= np.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-6)

    def test_wrapping_twice_changes_no_bit(self):
        # aggregation takes a DescriptorSet's wrapped angles without wrapping them again
        rng = np.random.default_rng(0)
        edges = [np.pi, -np.pi, np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0), 0.0, -0.0,
                 5e-324, -5e-324, 1e-300, 1e300, -1e300, 2.0 * np.pi, -2.0 * np.pi]
        draws = [np.array(edges)]
        for magnitude in 10.0 ** np.arange(-30, 3):  # float32 angles, as files store them
            draws.append((rng.uniform(-1.0, 1.0, 20000) * magnitude).astype(np.float32))
        lo, hi = np.array([3.0, np.pi], dtype=np.float32).view(np.uint32)
        draws.append(np.arange(lo, hi + 1, dtype=np.uint32).view(np.float32))  # all of [3, pi]
        once = wrap_angle(np.concatenate(draws).astype(np.float64))
        assert wrap_angle(once).tobytes() == once.tobytes()
        assert np.all((once > -np.pi) & (once <= np.pi))

    def test_the_float_just_above_pi_wraps_to_pi(self):
        # the remainder rounds up to 2 pi there; -pi would be outside (-pi, pi]
        above = np.nextafter(np.pi, 4.0)
        assert wrap_angle(above) == np.pi
        assert wrap_angle(np.array([above, -np.pi]))[0] == np.pi


class TestBessel:
    def test_zero_argument(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(7, 0.0) == 0.0

    def test_i0_at_8(self):
        # Frozen from the independent high-precision evaluation of the
        # ascending series (matches scipy.special.iv to 1e-13 relative).
        assert bessel_i(0, 8.0) == pytest.approx(427.56411572180474, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 8.0, 50.0, 100.0])
    def test_against_scipy(self, kappa):
        for n in range(0, 21):
            ours = bessel_i(n, kappa)
            ref = float(scipy.special.iv(n, kappa))
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 8.0, 32.0])
    def test_recurrence_residual(self, kappa):
        for n in range(1, 11):
            lhs = bessel_i(n + 1, kappa)
            rhs = bessel_i(n - 1, kappa) - (2.0 * n / kappa) * bessel_i(n, kappa)
            assert abs(lhs - rhs) / bessel_i(n - 1, kappa) < 1e-10

    @pytest.mark.parametrize(
        "order,x", [(-1, 1.0), (65, 1.0), (0.5, 1.0), (0, -1.0), (0, 101.0), (0, np.nan)]
    )
    def test_domain_errors(self, order, x):
        with pytest.raises(ContractError):
            bessel_i(order, x)


class TestVmKernel:
    @pytest.mark.parametrize("kappa", [2.0, 4.0, 8.0, 32.0])
    def test_endpoints(self, kappa):
        assert vm_kernel(0.0, kappa) == pytest.approx(1.0, abs=1e-15)
        assert vm_kernel(np.pi, kappa) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn_value(self):
        # direct evaluation of the defining ratio at delta = pi/2
        expected = (1.0 - math.exp(-8.0)) / (2.0 * math.sinh(8.0))
        assert vm_kernel(np.pi / 2, 8.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.354e-4, rel=1e-3)

    @given(st.floats(-20.0, 20.0), st.floats(0.1, 60.0))
    def test_symmetry_and_periodicity(self, delta, kappa):
        k = vm_kernel(delta, kappa)
        assert 0.0 <= k <= 1.0 + 1e-12
        assert vm_kernel(-delta, kappa) == pytest.approx(k, abs=1e-12)
        assert vm_kernel(delta + 2 * np.pi, kappa) == pytest.approx(k, abs=1e-9)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ContractError):
            vm_kernel(0.3, 0.0)
        with pytest.raises(ContractError):
            vm_kernel(0.3, -2.0)


class TestFourierCoeffs:
    def test_von_mises_k8_n3(self):
        # Frozen from the Bessel series; cross-checked against the
        # three-term recurrence in TestBessel.
        expected = (0.14343169, 0.26828502, 0.21979234, 0.15838885)
        assert K8_N3.gamma == pytest.approx(expected, abs=1e-7)

    def test_degenerate_truncation(self):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=0))
        assert coeffs.gamma.shape == (1,)
        assert coeffs.gamma[0] == pytest.approx(K8_N3.gamma[0])

    @pytest.mark.parametrize("kappa", [2.0, 8.0, 32.0])
    def test_strictly_decreasing_for_positive_orders(self, kappa):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=kappa, n_freq=16))
        tail = coeffs.gamma[1:]
        assert np.all(np.diff(tail) < 0.0)
        assert np.all(coeffs.gamma >= 0.0)

    def test_cosine_power_p2(self):
        coeffs = fourier_coeffs(AngleMapConfig(family="cosine_power", power=2))
        assert coeffs.gamma == pytest.approx([0.5, 0.5], abs=0)

    def test_cosine_power_forces_n_freq(self):
        config = AngleMapConfig(family="cosine_power", power=8, n_freq=99)
        assert config.n_freq == 4

    def test_config_validation(self):
        with pytest.raises(ContractError):
            AngleMapConfig(kappa=-1.0)
        with pytest.raises(ContractError):
            AngleMapConfig(family="cosine_power", power=3)
        with pytest.raises(ContractError):
            AngleMapConfig(family="cosine_power", power=None)
        with pytest.raises(ContractError):
            AngleMapConfig(family="mystery")
        assert AngleMapConfig(n_freq=BESSEL_MAX_ORDER).n_freq == BESSEL_MAX_ORDER
        config = AngleMapConfig(family="cosine_power", power=2 * BESSEL_MAX_ORDER)
        assert config.n_freq == BESSEL_MAX_ORDER
        with pytest.raises(ContractError, match=r"n_freq must be an integer in \[0, 64\]"):
            AngleMapConfig(n_freq=BESSEL_MAX_ORDER + 1)
        with pytest.raises(ContractError, match=r"even power in \[2, 128\]"):
            AngleMapConfig(family="cosine_power", power=2 * BESSEL_MAX_ORDER + 2)
        with pytest.raises(ContractError):
            AngleMapConfig(n_freq=10**13)
        with pytest.raises(ContractError):
            AngleMapConfig(family="cosine_power", power=2 * 10**13)
        with pytest.raises(ContractError):
            FourierCoefficients(np.array([0.5, -0.1]))


class TestTruncatedKernel:
    def test_value_at_zero(self):
        assert truncated_kernel(0.0, K8_N3) == pytest.approx(float(K8_N3.gamma.sum()))
        assert truncated_kernel(0.0, K8_N3) == pytest.approx(0.7899, abs=1e-4)

    def test_value_at_pi(self):
        g = K8_N3.gamma
        alternating = g[0] - g[1] + g[2] - g[3]
        assert truncated_kernel(np.pi, K8_N3) == pytest.approx(alternating, rel=1e-12)
        assert alternating == pytest.approx(-0.0635, abs=1e-4)

    def test_cosine_power_is_exact(self):
        coeffs = fourier_coeffs(AngleMapConfig(family="cosine_power", power=2))
        deltas = np.linspace(-np.pi, np.pi, 257)
        assert truncated_kernel(deltas, coeffs) == pytest.approx(
            np.cos(deltas / 2.0) ** 2, abs=1e-14
        )

    def test_even_and_periodic(self, rng):
        deltas = rng.uniform(-10, 10, 64)
        k = truncated_kernel(deltas, K8_N3)
        assert truncated_kernel(-deltas, K8_N3) == pytest.approx(k, abs=1e-12)
        assert truncated_kernel(deltas + 2 * np.pi, K8_N3) == pytest.approx(k, abs=1e-9)


class TestHarmonics:
    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    def test_layout(self, n_freq):
        thetas = np.array([[-2.5, 0.0], [0.7, 3.1]])
        basis = harmonics(thetas, n_freq)
        assert basis.shape == (2, 2, 2 * n_freq + 1)
        assert np.all(basis[..., 0] == 1.0)
        for n in range(1, n_freq + 1):
            assert np.array_equal(basis[..., 2 * n - 1], np.cos(n * thetas))
            assert np.array_equal(basis[..., 2 * n], np.sin(n * thetas))

    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    def test_scalar_gives_one_row(self, n_freq):
        assert np.array_equal(harmonics(0.7, n_freq), harmonics(np.array([0.7]), n_freq)[0])


class TestAngleFeature:
    @pytest.mark.parametrize(
        "config",
        [AngleMapConfig(kappa=8.0, n_freq=n) for n in (0, 1, 3)]
        + [AngleMapConfig(family="cosine_power", power=8)],
        ids=["vm-n0", "vm-n1", "vm-n3", "cos-p8"],
    )
    def test_batch_is_bit_identical_to_the_direct_formula(self, rng, config):
        coeffs = fourier_coeffs(config)
        thetas = np.concatenate([rng.uniform(-20.0, 20.0, 500), [0.0, np.pi, -np.pi]])
        root, n_freq = np.sqrt(coeffs.gamma), coeffs.n_freq
        phases = wrap_angle(thetas)[:, None] * np.arange(1, n_freq + 1)[None, :]
        expected = np.empty((thetas.size, 2 * n_freq + 1))
        expected[:, 0] = root[0]
        expected[:, 1::2] = root[1:] * np.cos(phases)
        expected[:, 2::2] = root[1:] * np.sin(phases)
        assert np.array_equal(angle_feature_batch(thetas, coeffs), expected)

    def test_layout_at_zero(self):
        feat = angle_feature_batch(np.array([0.0]), K8_N3)[0]
        root = np.sqrt(K8_N3.gamma)
        assert feat[0] == pytest.approx(root[0])
        assert feat[1::2] == pytest.approx(root[1:])
        assert feat[2::2] == pytest.approx(np.zeros(3), abs=0)

    @given(st.floats(-10.0, 10.0))
    def test_constant_squared_norm(self, theta):
        feat = angle_feature_batch(np.array([theta]), K8_N3)[0]
        assert float(feat @ feat) == pytest.approx(float(K8_N3.gamma.sum()), abs=1e-12)

    def test_inner_product_matches_kernel(self):
        a1, a2 = angle_feature_batch(np.array([0.3, -1.1]), K8_N3)
        lhs = float(a1 @ a2)
        assert abs(lhs - truncated_kernel(1.4, K8_N3)) < 1e-12

    @settings(max_examples=60)
    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    def test_inner_product_identity_everywhere(self, t1, t2):
        a1, a2 = angle_feature_batch(np.array([t1, t2]), K8_N3)
        lhs = float(a1 @ a2)
        assert abs(lhs - truncated_kernel(t1 - t2, K8_N3)) < 1e-12

    def test_exactness_on_grid(self):
        thetas = np.linspace(-np.pi, np.pi, 256)
        feats = angle_feature_batch(thetas, K8_N3)
        gram = feats @ feats.T
        target = truncated_kernel(thetas[:, None] - thetas[None, :], K8_N3)
        assert np.max(np.abs(gram - target)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            angle_feature_batch(np.array([np.nan]), K8_N3)

    def test_wrapped_angles_take_the_same_kernel_unchecked(self, rng):
        thetas = rng.uniform(-20.0, 20.0, 300)
        wrapped = wrap_angle(thetas)
        expected = angle_feature_batch(thetas, K8_N3)
        assert wrapped_angle_features(wrapped, K8_N3).tobytes() == expected.tobytes()
        assert np.array_equal(K8_N3.feature_scale, np.repeat(np.sqrt(K8_N3.gamma), 2)[1:])


class TestCosines:
    @pytest.mark.parametrize("shape", [(), (7,), (40, 30)])
    def test_are_the_cosines_of_harmonics_bit_for_bit(self, rng, shape):
        thetas = rng.uniform(-20.0, 20.0, shape)
        for n_freq in (0, 1, 3, 8):
            assert cosines(thetas, n_freq).tobytes() == harmonics(thetas, n_freq)[..., 1::2].tobytes()

    def test_truncated_kernel_is_the_series_of_harmonics_bit_for_bit(self, rng):
        deltas = np.concatenate([rng.uniform(-9.0, 9.0, 999), [0.0, np.pi, -np.pi]])
        for coeffs in (K8_N3, fourier_coeffs(AngleMapConfig(family="cosine_power", power=8))):
            basis = harmonics(wrap_angle(deltas), coeffs.n_freq)
            expected = np.full(deltas.shape, coeffs.gamma[0])
            for n in range(1, coeffs.n_freq + 1):
                expected += coeffs.gamma[n] * basis[:, 2 * n - 1]
            assert truncated_kernel(deltas, coeffs).tobytes() == expected.tobytes()
            assert truncated_kernel(float(deltas[5]), coeffs) == expected[5]


def test_convergence_to_target_kernel():
    grid = np.linspace(-np.pi, np.pi, 4096)
    target = vm_kernel(grid, 8.0)
    errors = []
    for n_freq in range(1, 17):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        errors.append(float(np.max(np.abs(truncated_kernel(grid, coeffs) - target))))
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3
