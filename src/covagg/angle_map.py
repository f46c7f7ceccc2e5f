"""Angular similarity kernels and their explicit feature maps.

The central object is a truncated cosine series

    k(delta) = gamma_0 + sum_{n=1..N} gamma_n cos(n delta)

together with the feature map alpha(theta) whose inner products evaluate
it exactly: <alpha(t1), alpha(t2)> = k(t1 - t2).

The series, the feature map, the block rotation and the rotation-score
polynomial are all written in the basis
[1, cos theta, sin theta, ..., cos N theta, sin N theta] of ``harmonics``.
It and its cosine-only companion ``cosines``, which the series takes, are
the one place that takes the cosine or sine of a multiple angle. This is
also the order of the blocks of a stored aggregate, so no code permutes
between orders.

Two coefficient families are supported:

* ``von_mises``: the series matches a shifted and rescaled
  exponential-of-cosine bump that equals 1 at delta=0 and 0 at delta=pi.
  Its coefficients involve modified Bessel functions and the series is an
  approximation whose quality grows with the number of retained
  frequencies N.
* ``cosine_power``: the series is the exact expansion of
  cos(delta/2)**P for even P, obtained from power-reduction identities.
  Here N = P/2 and there is no truncation error.

Coefficients are computed once per configuration and cached inside a
``FourierCoefficients`` value; nothing here evaluates Bessel functions in
per-descriptor code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, check_integer

VON_MISES = "von_mises"
COSINE_POWER = "cosine_power"

# Ranges over which the ascending power series is known to deliver
# better than 1e-12 relative accuracy in 64-bit arithmetic.
BESSEL_MAX_ORDER = 64
BESSEL_MAX_ARG = 100.0


def wrap_angle(theta):
    """Wrap angles (scalar or array) to the interval (-pi, pi].

    Wrapping a wrapped angle changes no bit, so angles are wrapped once,
    where a ``DescriptorSet`` takes them.
    """
    t = np.asarray(theta, dtype=np.float64)
    turns = np.remainder(np.pi - t, 2.0 * np.pi)
    # the remainder rounds up to 2 pi when pi - t lies a hair below a multiple
    # of 2 pi, as for the float just above pi; that t wraps to pi, not -pi
    wrapped = np.pi - np.where(turns == 2.0 * np.pi, 0.0, turns)
    if t.ndim == 0:
        return float(wrapped)
    return wrapped


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, I_order(x).

    Evaluated with the ascending power series, stopping once the next
    term falls below 1e-16 of the running sum. All terms are positive so
    there is no cancellation; within the supported range
    (order <= 64, 0 <= x <= 100) the result is accurate to better than
    1e-12 relative error.
    """
    n = check_integer(
        order, f"bessel order must be an integer in [0, {BESSEL_MAX_ORDER}], got {order!r}",
        0, BESSEL_MAX_ORDER,
    )
    if not (np.isfinite(x) and 0.0 <= x <= BESSEL_MAX_ARG):
        raise ContractError(
            f"bessel argument must lie in [0, {BESSEL_MAX_ARG}], got {x!r}"
        )
    half = 0.5 * float(x)
    term = half**n / math.factorial(n)
    total = term
    k = 1
    while term > 0.0:
        term *= (half * half) / (k * (k + n))
        total += term
        if term <= total * 1e-16:
            break
        k += 1
    return total


def vm_kernel(delta, kappa: float):
    """Shifted exponential-of-cosine angle similarity, in [0, 1].

    Even, 2*pi-periodic, equal to 1 at delta=0 and exactly 0 at
    delta=pi. ``kappa`` controls the angular selectivity. Evaluated in a
    rescaled form that cannot overflow for large kappa.
    """
    if not (np.isfinite(kappa) and kappa > 0.0):
        raise ContractError(f"kappa must be a positive real, got {kappa!r}")
    d = np.asarray(wrap_angle(delta), dtype=np.float64)
    decay = math.exp(-2.0 * kappa)
    out = (np.exp(kappa * (np.cos(d) - 1.0)) - decay) / (1.0 - decay)
    if d.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class AngleMapConfig:
    """Selects the kernel family and the number of retained frequencies.

    For the ``cosine_power`` family the expansion terminates at
    ``power // 2`` frequencies, so ``n_freq`` is forced to that value.
    The von Mises family has no power, so ``power`` is dropped to None.
    Either family runs at most ``BESSEL_MAX_ORDER`` frequencies.
    """

    kappa: float = 8.0
    n_freq: int = 3
    family: str = VON_MISES
    power: int | None = None

    def __post_init__(self):
        if self.family == VON_MISES:
            if not (np.isfinite(self.kappa) and self.kappa > 0.0):
                raise ContractError(f"kappa must be positive, got {self.kappa!r}")
            n_freq = check_integer(
                self.n_freq,
                f"n_freq must be an integer in [0, {BESSEL_MAX_ORDER}], got {self.n_freq!r}",
                0, BESSEL_MAX_ORDER,
            )
            object.__setattr__(self, "n_freq", n_freq)
            object.__setattr__(self, "power", None)
        elif self.family == COSINE_POWER:
            top = 2 * BESSEL_MAX_ORDER
            message = f"cosine-power family needs an even power in [2, {top}], got {self.power!r}"
            p = check_integer(self.power, message, 2, top)
            if p % 2 != 0:
                raise ContractError(message)
            object.__setattr__(self, "power", p)
            object.__setattr__(self, "n_freq", p // 2)
        else:
            raise ContractError(f"unknown angle kernel family {self.family!r}")


@dataclass(frozen=True)
class FourierCoefficients:
    """Non-negative cosine-series weights gamma_0..gamma_N.

    ``feature_scale`` is sqrt([g0, g1, g1, ..., gN, gN]), g = gamma: the
    factor by which an angle feature scales its ``harmonics``.
    """

    gamma: np.ndarray
    feature_scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.gamma, dtype=np.float64))
        if g.ndim != 1 or g.size < 1:
            raise ContractError("coefficients must form a non-empty 1-D vector")
        if not np.all(np.isfinite(g)) or np.any(g < 0.0):
            raise ContractError("coefficients must be finite and non-negative")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        scale = np.repeat(np.sqrt(g), 2)[1:]
        scale.setflags(write=False)
        object.__setattr__(self, "feature_scale", scale)

    @property
    def n_freq(self) -> int:
        return self.gamma.size - 1


def fourier_coeffs(config: AngleMapConfig) -> FourierCoefficients:
    """Series coefficients for the configured kernel family."""
    if config.family == VON_MISES:
        kappa = float(config.kappa)
        sinh_k = math.sinh(kappa)
        gamma = np.empty(config.n_freq + 1)
        gamma[0] = (bessel_i(0, kappa) - math.exp(-kappa)) / (2.0 * sinh_k)
        for n in range(1, config.n_freq + 1):
            gamma[n] = bessel_i(n, kappa) / sinh_k
    else:
        p = config.power
        half_p = p // 2
        scale = 0.5**p
        gamma = np.empty(half_p + 1)
        gamma[0] = scale * math.comb(p, half_p)
        for j in range(1, half_p + 1):
            gamma[j] = 2.0 * scale * math.comb(p, half_p - j)
    return FourierCoefficients(gamma)


def _phases(theta, n_freq: int) -> np.ndarray:
    """n theta for n = 1..N on a new last axis."""
    return np.asarray(theta, dtype=np.float64)[..., None] * np.arange(1, n_freq + 1)


def harmonics(theta, n_freq: int) -> np.ndarray:
    """[1, cos theta, sin theta, ..., cos N theta, sin N theta] on a new last axis."""
    phases = _phases(theta, n_freq)
    out = np.empty(phases.shape[:-1] + (2 * n_freq + 1,))
    out[..., 0] = 1.0
    np.cos(phases, out=out[..., 1::2])
    np.sin(phases, out=out[..., 2::2])
    return out


def cosines(theta, n_freq: int) -> np.ndarray:
    """[cos theta, ..., cos N theta] on a new last axis: the cosines of ``harmonics``."""
    return np.cos(_phases(theta, n_freq))


def truncated_kernel(delta, coeffs: FourierCoefficients):
    """Evaluate the cosine series at ``delta`` (scalar or array)."""
    d = np.asarray(wrap_angle(delta), dtype=np.float64)
    g = coeffs.gamma
    basis = cosines(d, coeffs.n_freq)
    out = np.full(d.shape, g[0])
    for n in range(1, g.size):
        out += g[n] * basis[..., n - 1]
    if d.ndim == 0:
        return float(out)
    return out


def wrapped_angle_features(angles: np.ndarray, coeffs: FourierCoefficients) -> np.ndarray:
    """``angle_feature_batch`` of a 1-D array of finite angles already in (-pi, pi].

    A ``DescriptorSet`` holds such angles, so aggregation takes their
    features without checking or wrapping them again; wrapping twice
    changes no bit (``tests/test_angle_map.py``).
    """
    out = harmonics(angles, coeffs.n_freq)
    out *= coeffs.feature_scale
    return out


def angle_feature_batch(thetas, coeffs: FourierCoefficients) -> np.ndarray:
    """One row per angle: its ``harmonics`` times ``coeffs.feature_scale``.

    The squared row norm equals sum(gamma), independent of theta.
    """
    t = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    if not np.all(np.isfinite(t)):
        raise ContractError("angles must be finite")
    return wrapped_angle_features(wrap_angle(t), coeffs)


SIM_HIST_HEADER = (
    "angle_bin", "delta_lo", "delta_hi", "sim_lo", "sim_hi", "count_raw", "count_modulated",
)


def similarity_histogram(set_a, set_b, bins: int, coeffs: FourierCoefficients,
                         value_bins: int = 24):
    """Per-angle-bin histograms of raw and angle-weighted pair similarities.

    Row i of the descriptor sets ``set_a`` and ``set_b`` is one matched
    pair. Angle differences split [-pi, pi] into ``bins`` equal bins;
    within each, both the plain inner products and the products weighted
    by the angle kernel are histogrammed over [-1, 1] with ``value_bins``
    cells. Returns a list of rows matching ``SIM_HIST_HEADER``.
    """
    bins = check_integer(bins, f"bins must be a positive integer, got {bins!r}", 1)
    value_bins = check_integer(
        value_bins, f"value_bins must be a positive integer, got {value_bins!r}", 1
    )
    if len(set_a) != len(set_b):
        raise ContractError(
            f"paired sets must have equal record counts, got {len(set_a)} and {len(set_b)}"
        )
    if set_a.dim != set_b.dim:
        raise ContractError(
            f"paired sets must have equal descriptor dims, got {set_a.dim} and {set_b.dim}"
        )
    # one dot product per row, each the same as np.dot of the pair
    sims = (set_a.descriptors[:, None, :] @ set_b.descriptors[:, :, None]).ravel()
    deltas = wrap_angle(set_a.angles - set_b.angles)
    modulated = sims * truncated_kernel(deltas, coeffs)
    angle_idx = np.clip(((deltas + np.pi) / (2.0 * np.pi) * bins).astype(int), 0, bins - 1)
    raw_counts = np.zeros((bins, value_bins), dtype=np.int64)
    mod_counts = np.zeros((bins, value_bins), dtype=np.int64)
    for values, counts in ((sims, raw_counts), (modulated, mod_counts)):
        value_idx = np.clip(((values + 1.0) / 2.0 * value_bins).astype(int), 0, value_bins - 1)
        np.add.at(counts, (angle_idx, value_idx), 1)
    angle_edges = np.linspace(-np.pi, np.pi, bins + 1)
    value_edges = np.linspace(-1.0, 1.0, value_bins + 1)
    rows = []
    for bi in range(bins):
        for vi in range(value_bins):
            rows.append(
                (
                    bi,
                    float(angle_edges[bi]),
                    float(angle_edges[bi + 1]),
                    float(value_edges[vi]),
                    float(value_edges[vi + 1]),
                    int(raw_counts[bi, vi]),
                    int(mod_counts[bi, vi]),
                )
            )
    return rows
