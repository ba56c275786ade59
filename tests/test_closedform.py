import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from morreykit import (
    Annulus,
    MorreyParams,
    NormMethod,
    ParameterError,
    PiecewiseRadialPower,
    annulus_p_integral,
    centered_norm,
    chunk_lower_bound,
    epsilon_upper_bound,
    local_quantity,
    power_norm_exact,
    sphere_area,
)
from morreykit.closedform import morrey_quantity, shell_integral
from morreykit.sampling import random_bounded_profile, random_params


def quadrature_power_norm(params, r=1.0):
    """Independent oracle: centered quantity of the pure power at one radius."""
    d, p, q = params.d, params.p, params.q
    integrand = lambda s: s ** (d - 1 - d * p / q)
    radial, _ = integrate.quad(integrand, 0.0, r, epsabs=1e-13, epsrel=1e-12)
    volume = sphere_area(d) / d * r**d
    return volume ** (1.0 / q - 1.0 / p) * (sphere_area(d) * radial) ** (1.0 / p)


class TestPowerNormExact:
    # expected values computed with quadrature_power_norm and frozen
    cases = [
        ((1.0, 2.0, 1), 2.8284271247461903),   # 2 sqrt(2)
        ((1.0, 2.0, 2), 3.5449077018110318),   # 2 sqrt(pi)
        ((2.0, 4.0, 1), 1.6817928305074290),   # 2^(3/4)
    ]

    @pytest.mark.parametrize("triple,expected", cases)
    def test_frozen_values(self, triple, expected):
        params = MorreyParams(*triple)
        assert math.isclose(power_norm_exact(params), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("triple,expected", cases)
    def test_against_quadrature_oracle(self, triple, expected):
        params = MorreyParams(*triple)
        for r in (0.5, 1.0, 10.0):
            assert math.isclose(
                power_norm_exact(params), quadrature_power_norm(params, r),
                rel_tol=1e-9,
            )


class TestAnnulusPIntegral:
    def test_d1_quadrature(self):
        params = MorreyParams(1.0, 2.0, 1)
        value = annulus_p_integral(params, Annulus(0.25, 1.0))
        assert math.isclose(value, 2.0, rel_tol=1e-12)
        oracle, _ = integrate.quad(lambda r: 2.0 * r**-0.5, 0.25, 1.0)
        assert math.isclose(value, oracle, rel_tol=1e-10)

    def test_d2_monte_carlo(self):
        # |x|^(-1) over the unit disk by rejection sampling
        params = MorreyParams(1.0, 2.0, 2)
        value = annulus_p_integral(params, Annulus(0.0, 1.0))
        assert math.isclose(value, 2.0 * math.pi, rel_tol=1e-12)
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.0, 1.0, size=(2_000_000, 2))
        r = np.linalg.norm(pts, axis=1)
        inside = r < 1.0
        samples = np.where(inside, 1.0 / np.where(r > 0, r, 1.0), 0.0)
        mc = 4.0 * samples.mean()
        se = 4.0 * samples.std() / math.sqrt(samples.size)
        assert abs(value - mc) < 3.0 * se

    def test_unbounded_rejected(self):
        params = MorreyParams(1.0, 2.0, 1)
        with pytest.raises(ParameterError):
            annulus_p_integral(params, Annulus(0.0, math.inf))

    def test_degenerate_annulus_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            Annulus(0.5, 0.5)

    def test_thin_annulus_limit(self):
        # boundary case r_hi -> r_lo: the integral tends to 0
        params = MorreyParams(1.0, 2.0, 1)
        assert annulus_p_integral(params, Annulus(0.5, 0.5 + 1e-12)) < 1e-11


class TestLocalQuantity:
    def test_example(self):
        params = MorreyParams(1.0, 2.0, 1)
        value = local_quantity(params, 1.0, Annulus(0.25, 1.0))
        assert math.isclose(value, math.sqrt(2.0), rel_tol=1e-12)

    def test_scaling_invariance_reference_cases(self):
        params = MorreyParams(1.0, 2.0, 1)
        big_r = 4.0
        values = [
            local_quantity(params, c * big_r, Annulus(c, c * big_r))
            for c in (0.1, 1.0, 7.0)
        ]
        for v in values[1:]:
            assert math.isclose(v, values[0], rel_tol=1e-13)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    def test_full_disk_reproduces_power_norm(self, radius):
        for triple in [(1.0, 2.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 3)]:
            params = MorreyParams(*triple)
            value = local_quantity(params, radius, Annulus(0.0, radius))
            assert math.isclose(value, power_norm_exact(params), rel_tol=1e-13)

    def test_rejects_bad_radius(self):
        params = MorreyParams(1.0, 2.0, 1)
        with pytest.raises(ParameterError):
            local_quantity(params, 0.0, Annulus(0.25, 1.0))
        with pytest.raises(ParameterError):
            local_quantity(params, -1.0, Annulus(0.25, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=1.0, max_value=4.0),
        gap=st.floats(min_value=0.3, max_value=3.0),
        d=st.integers(min_value=1, max_value=5),
        c1=st.floats(min_value=1e-3, max_value=1e3),
        c2=st.floats(min_value=1e-3, max_value=1e3),
        big_r=st.floats(min_value=1.01, max_value=100.0),
    )
    def test_scaling_invariance_property(self, p, gap, d, c1, c2, big_r):
        params = MorreyParams(p=p, q=p + gap, d=d)
        v1 = local_quantity(params, c1 * big_r, Annulus(c1, c1 * big_r))
        v2 = local_quantity(params, c2 * big_r, Annulus(c2, c2 * big_r))
        assert math.isclose(v1, v2, rel_tol=1e-12)


class TestEpsilonUpperBound:
    def test_examples(self):
        assert math.isclose(
            epsilon_upper_bound(MorreyParams(1.0, 2.0, 1), 0.5), 0.25,
            rel_tol=1e-12,
        )
        assert math.isclose(
            epsilon_upper_bound(MorreyParams(2.0, 4.0, 1), 0.19), 0.3439**2,
            rel_tol=1e-10,
        )

    def test_inversion(self):
        # any epsilon below the bound restores (1-eps^alpha)^(1/p) > 1-delta
        for triple, delta in [((1.0, 2.0, 1), 0.5), ((2.0, 4.0, 1), 0.19),
                              ((1.5, 3.0, 2), 0.07)]:
            params = MorreyParams(*triple)
            bound = epsilon_upper_bound(params, delta)
            eps = bound * (1.0 - 1e-9)
            factor = (1.0 - eps**params.alpha) ** (1.0 / params.p)
            assert factor > 1.0 - delta

    def test_delta_to_one_limit(self):
        params = MorreyParams(1.0, 2.0, 1)
        assert epsilon_upper_bound(params, 1.0 - 1e-12) > 1.0 - 1e-5

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ParameterError):
            epsilon_upper_bound(MorreyParams(1.0, 2.0, 1), delta)


class TestChunkLowerBound:
    def test_example(self):
        params = MorreyParams(1.0, 2.0, 1)
        assert math.isclose(
            chunk_lower_bound(params, 0.25), math.sqrt(2.0), rel_tol=1e-12
        )

    def test_limits(self):
        params = MorreyParams(1.0, 2.0, 1)
        assert math.isclose(
            chunk_lower_bound(params, 1e-14), power_norm_exact(params),
            rel_tol=1e-6,
        )
        assert chunk_lower_bound(params, 1.0 - 1e-14) < 1e-6

    def test_matches_local_quantity(self):
        # the bound is attained by the centered ball at the outer radius
        for triple in [(1.0, 2.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 3)]:
            params = MorreyParams(*triple)
            for eps in (0.1, 0.5, 0.9):
                direct = local_quantity(params, 1.0, Annulus(eps, 1.0))
                assert math.isclose(
                    chunk_lower_bound(params, eps), direct, rel_tol=1e-12
                )

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ParameterError):
            chunk_lower_bound(MorreyParams(1.0, 2.0, 1), eps)


def dense_grid_oracle(profile, lo, hi, points=100_000):
    """Plain dense scan of the centered quantity with textbook formulas."""
    params = profile.params
    p, q, d = params.p, params.q, params.d
    alpha, omega = params.alpha, params.sphere_area
    radii = np.linspace(lo, hi, points)
    mass = np.zeros_like(radii)
    for ann, coeff in profile.segments:
        cut = np.clip(radii, ann.r_lo, ann.r_hi)
        mass += abs(coeff) ** p * omega * (cut**alpha - ann.r_lo**alpha) / alpha
    values = (omega / d * radii**d) ** (1.0 / q - 1.0 / p) * mass ** (1.0 / p)
    return float(values.max())


class TestCenteredNorm:
    params = MorreyParams(1.0, 2.0, 1)

    def test_annulus_profile(self):
        profile = PiecewiseRadialPower.power_restriction(self.params, 0.25, 1.0)
        report = centered_norm(profile)
        assert math.isclose(report.value, math.sqrt(2.0), rel_tol=1e-12)
        assert report.argmax_ball.radius >= 1.0 - 1e-12
        assert report.argmax_ball.center_dist == 0.0
        # the scan is resolution-limited near the peak, so it can only
        # undershoot the searched supremum
        oracle = dense_grid_oracle(profile, 0.25, 10.0)
        assert report.value >= oracle - 1e-9
        assert math.isclose(report.value, oracle, rel_tol=1e-4)

    def test_pure_power(self):
        profile = PiecewiseRadialPower.pure_power(self.params)
        report = centered_norm(profile)
        assert report.method is NormMethod.CLOSED_FORM
        assert report.abs_uncertainty == 0.0
        assert math.isclose(report.value, power_norm_exact(self.params), rel_tol=1e-14)

    def test_homogeneity(self):
        profile = PiecewiseRadialPower(
            self.params,
            ((Annulus(0.1, 0.4), 1.5), (Annulus(0.4, 1.3), -0.7)),
        )
        base = centered_norm(profile).value
        scaled = centered_norm(profile.scale_coefficients(3.5)).value
        assert math.isclose(scaled, 3.5 * base, rel_tol=1e-12)

    def test_dilation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = random_params(rng)
            profile = random_bounded_profile(params, rng)
            base = centered_norm(profile).value
            for c in (1e-3, 0.7, 1e3):
                dilated = centered_norm(profile.scale_annuli(c)).value
                assert math.isclose(dilated, base, rel_tol=1e-11)

    def test_upper_envelope(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            params = random_params(rng)
            profile = random_bounded_profile(params, rng)
            cap = np.max(np.abs(profile.coefficients)) * power_norm_exact(params)
            assert centered_norm(profile).value <= cap * (1.0 + 1e-12)

    def test_chunk_bound_grid(self):
        for triple in [(1.0, 2.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 1)]:
            params = MorreyParams(*triple)
            for eps in (0.05, 0.3, 0.7):
                for k in (0, 1, 4):
                    chunk = PiecewiseRadialPower.annular_chunk(params, eps, k)
                    assert centered_norm(chunk).value >= \
                        chunk_lower_bound(params, eps) - 1e-9


def gapped_profile(rng):
    """Random profile for d = 1..5: up to 12 segments, mixed signs, zero
    coefficients, gaps between segments, support from 0 or from a hole."""
    params = random_params(rng, d_max=5)
    count = int(rng.integers(1, 13))
    cuts = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 2 * count)))
    if rng.random() < 0.3:
        cuts[0] = 0.0
    segments = []
    for k in range(count):
        lo, hi = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if rng.random() < 0.5 and k + 1 < count:
            hi = float(cuts[2 * k + 2])  # no gap to the next segment
        coeff = 0.0 if rng.random() < 0.1 else float(rng.normal(scale=1.5))
        if hi > lo:
            segments.append((Annulus(lo, hi), coeff))
    return PiecewiseRadialPower(params, tuple(segments))


def _centered_value(profile, r):
    """Centered-ball quantity at radius r for a bounded profile, summed
    afresh over every annulus: the reference for centered_norm's single
    pass."""
    params = profile.params
    mass = 0.0
    for ann, coeff in profile.segments:
        if coeff == 0.0 or r <= ann.r_lo:
            continue
        mass += abs(coeff) ** params.p * shell_integral(params, ann.r_lo, min(r, ann.r_hi))
    return morrey_quantity(params, r, mass) if mass > 0.0 else 0.0


class TestCenteredBoundaryMaximum:
    """The centered quantity is monotone between annulus boundaries, so its
    supremum is its largest value at a positive boundary."""

    profiles = [gapped_profile(np.random.default_rng(seed)) for seed in range(60)]

    @pytest.mark.parametrize("index", range(len(profiles)))
    def test_dominates_dense_sweep(self, index):
        profile = self.profiles[index]
        report = centered_norm(profile)
        bounds = [float(b) for b in profile.boundaries if b > 0.0]
        radii = np.concatenate([
            np.geomspace(1e-3 * bounds[0], 10.0 * profile.support_radius, 2000),
            bounds,
        ])
        sweep = max(_centered_value(profile, float(r)) for r in radii)
        # slack for rounding only: the sweep holds no radius that can beat
        # the boundaries by more than a few ulps
        assert report.value >= sweep * (1.0 - 1e-14)

    @pytest.mark.parametrize("index", range(len(profiles)))
    def test_equals_boundary_maximum(self, index):
        profile = self.profiles[index]
        report = centered_norm(profile)
        values = [(_centered_value(profile, float(b)), float(b))
                  for b in profile.boundaries if b > 0.0]
        best = max(v for v, _ in values)
        assert report.value == best
        assert report.argmax_ball.center_dist == 0.0
        assert report.argmax_ball.radius == next(r for v, r in values if v == best)
