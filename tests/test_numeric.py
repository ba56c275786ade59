import decimal
import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, sparse

from morreykit import (
    Annulus,
    Ball,
    MorreyParams,
    NormMethod,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
    SearchConfig,
    annulus_p_integral,
    ball_p_integral,
    centered_norm,
    monotone_profile_check,
    morrey_norm_numeric,
    morrey_norms_shared,
    power_norm_exact,
    shell_area,
    sin_power_integral,
    sphere_area,
)
from morreykit.constants import build_witnesses, min_signed_norm
from morreykit import numeric
from morreykit.closedform import annulus_ends, log_morrey_quantity, morrey_quantity
from morreykit.numeric import _BALL_BLOCK, _BatchObjective
from morreykit.sampling import random_bounded_profile, random_params
from witness_reference import _combination_profiles

#: The most that a batched value may be off the adaptive integral; a bound
#: on the cap rule's error (numeric._PIECE_NODES), not a search setting.
_BATCHED_RTOL = 1e-3


class TestSinPowerIntegral:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_against_quadrature(self, m):
        # independent oracle: adaptive quadrature of sin^m
        for t in (0.05, 0.6, math.pi / 2 - 1e-8, math.pi / 2, math.pi / 2 + 1e-6, 2.2,
                  math.pi - 1e-4):
            oracle, _ = integrate.quad(lambda x: math.sin(x) ** m, 0.0, t,
                                       epsabs=1e-13, epsrel=1e-13)
            assert math.isclose(float(sin_power_integral(m, t)), oracle,
                                rel_tol=1e-10, abs_tol=1e-12)

    def test_elementary_forms(self):
        t = np.linspace(0.0, math.pi, 101)
        assert np.allclose(sin_power_integral(0, t), t)
        assert np.allclose(sin_power_integral(1, t), 1.0 - np.cos(t))

    def test_m1_keeps_its_digits_near_zero(self):
        # 1 - cos t would be 2.9e-13, 5.2e-9 and 8.9e-5 off here
        for t in (1e-2, 1e-4, 1e-6):
            exact = 2.0 * math.sin(0.5 * t) ** 2
            assert math.isclose(float(sin_power_integral(1, t)), exact, rel_tol=1e-15)

    def test_rejects_negative_power(self):
        with pytest.raises(ParameterError):
            sin_power_integral(-1, 0.5)


class TestShellArea:
    def test_d1_counts(self):
        # interval (a-R, a+R) = (0.5, 2.5): +r inside for r in (0.5, 2.5),
        # -r inside for r < -0.5 + ... never, since a > R
        vals = shell_area(1, np.array([0.4, 1.0, 3.0]), 1.5, 1.0)
        assert vals.tolist() == [0.0, 1.0, 0.0]
        vals = shell_area(1, np.array([0.2, 0.8, 1.6]), 0.3, 1.0)
        assert vals.tolist() == [2.0, 1.0, 0.0]

    def test_d2_arc_length(self):
        a, big_r = 0.8, 0.5
        for r in (0.35, 0.7, 1.2):
            cos_half = (a * a + r * r - big_r * big_r) / (2 * a * r)
            expected = 0.0
            if -1.0 < cos_half < 1.0:
                expected = 2.0 * r * math.acos(cos_half)
            assert math.isclose(float(shell_area(2, r, a, big_r)), expected,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_d3_cap_area(self):
        a, big_r = 0.6, 0.9
        for r in (0.5, 1.0, 1.4):
            cos_half = (a * a + r * r - big_r * big_r) / (2 * a * r)
            expected = 0.0
            if cos_half <= -1.0:
                expected = 4.0 * math.pi * r * r
            elif cos_half < 1.0:
                expected = 2.0 * math.pi * r * r * (1.0 - cos_half)
            assert math.isclose(float(shell_area(3, r, a, big_r)), expected,
                                rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_integrates_to_ball_volume(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            a = float(2.0 * rng.random())
            big_r = float(0.2 + 1.5 * rng.random())
            total, _ = integrate.quad(
                lambda r: float(shell_area(d, r, a, big_r)),
                max(a - big_r, 0.0), a + big_r,
                limit=300, points=[abs(big_r - a), a + big_r],
            )
            volume = sphere_area(d) / d * big_r**d
            assert math.isclose(total, volume, rel_tol=1e-8)


class TestBallPIntegral:
    def test_pure_power_centered_d1(self):
        params = MorreyParams(1.0, 2.0, 1)
        pure = PiecewiseRadialPower.pure_power(params)
        for big_r in (0.25, 1.0, 4.0):
            value = ball_p_integral(pure, Ball(0.0, big_r))
            assert math.isclose(value, 4.0 * math.sqrt(big_r), rel_tol=1e-12)

    def test_ball_outside_support(self):
        params = MorreyParams(1.0, 2.0, 2)
        profile = PiecewiseRadialPower.power_restriction(params, 0.2, 0.5)
        assert ball_p_integral(profile, Ball(3.0, 1.0)) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_centered_matches_closed_form(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(8):
            params = MorreyParams(1.0 + rng.random(), 2.5 + 2 * rng.random(), d)
            profile = random_bounded_profile(params, rng)
            big_r = float(0.3 + 2.0 * rng.random())
            expected = sum(
                abs(coeff) ** params.p * annulus_p_integral(
                    params, Annulus(ann.r_lo, min(ann.r_hi, big_r))
                )
                for ann, coeff in profile.segments
                if ann.r_lo < big_r and coeff != 0.0
            )
            value = ball_p_integral(profile, Ball(0.0, big_r))
            assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-14)

    @staticmethod
    def rejection_mc(profile, ball, samples, seed):
        """Independent oracle: uniform box samples, rejected outside the ball."""
        params = profile.params
        d = params.d
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-ball.radius, ball.radius, size=(samples, d))
        inside = np.linalg.norm(pts, axis=1) < ball.radius
        pts[:, 0] += ball.center_dist
        r = np.linalg.norm(pts, axis=1)
        vals = np.zeros(samples)
        for ann, coeff in profile.segments:
            mask = inside & (r > ann.r_lo) & (r < ann.r_hi)
            vals[mask] = abs(coeff) ** params.p * r[mask] ** (
                -d * params.p / params.q
            )
        box = (2.0 * ball.radius) ** d
        return box * vals.mean(), box * vals.std() / math.sqrt(samples)

    @pytest.mark.parametrize("d", [1, 2])
    def test_monte_carlo_cross_check(self, d):
        rng = np.random.default_rng(20 + d)
        for trial in range(3):
            params = MorreyParams(1.0 + rng.random(), 2.5 + rng.random(), d)
            profile = random_bounded_profile(params, rng)
            ball = Ball(float(1.2 * rng.random()), float(0.3 + rng.random()))
            exact = ball_p_integral(profile, ball)
            mc, se = self.rejection_mc(profile, ball, 1_000_000, 1000 + trial)
            assert abs(exact - mc) <= max(3.0 * se, 1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_library_mc_matches_adaptive(self, d):
        rng = np.random.default_rng(40 + d)
        params = MorreyParams(1.0 + rng.random(), 2.5 + rng.random(), d)
        profile = random_bounded_profile(params, rng)
        ball = Ball(float(rng.random()), float(0.3 + rng.random()))
        exact = ball_p_integral(profile, ball)
        mc, se = self.rejection_mc(profile, ball, 1_000_000, 77)
        assert abs(exact - mc) <= max(3.0 * se, 1e-12)

    @pytest.mark.parametrize("d", [4, 5])
    def test_high_dimension_cap_path(self, d):
        # d >= 4 is the incomplete-beta branch of the cap-angle factor
        params = MorreyParams(1.5, 3.0, d)
        profile = PiecewiseRadialPower(
            params,
            ((Annulus(0.2, 0.7), 1.3), (Annulus(0.7, 1.2), -0.4)),
        )
        ball = Ball(0.7, 0.45)
        exact = ball_p_integral(profile, ball)
        mc, se = self.rejection_mc(profile, ball, 1_000_000, d)
        assert abs(exact - mc) <= 3.0 * se

    def test_near_centered_ball_sliver(self):
        # a center distance at the float-resolution limit shrinks the cap
        # region to an unsubdividable sliver; it must behave like a=0
        params = MorreyParams(1.5, 2.5, 2)
        profile = PiecewiseRadialPower.power_restriction(params, 1.4e-19, 3.7e-16)
        near = ball_p_integral(profile, Ball(3.5e-32, 7.2e-18))
        centered = ball_p_integral(profile, Ball(0.0, 7.2e-18))
        assert math.isclose(near, centered, rel_tol=1e-9)

    # Balls for the independent references below: R just above, at and just
    # below a (R = a on a profile from r = 0 too), thin balls, and others.
    HARD_BALLS = (Ball(0.5, 0.5 * (1 + 1e-5)), Ball(0.5, 0.5 * (1 + 1e-8)),
                  Ball(0.5, 0.5), Ball(0.5, 0.5 * (1 - 1e-8)), Ball(0.9, 1e-3),
                  Ball(0.9, 1e-5), Ball(0.3, 1.1), Ball(1.0, 0.45))

    @staticmethod
    def _profile(params, first_lo=0.0):
        return PiecewiseRadialPower(params, ((Annulus(first_lo, 0.7), 1.3),
                                             (Annulus(0.7, 1.2), -0.4)))

    @staticmethod
    def _d3_decimal_mass(profile, ball):
        """Independent d = 3 reference: the cap factor is 1 - cos theta =
        (R^2 - (r - a)^2) / (2 a r), whose product with r^(alpha - 1) has an
        elementary antiderivative, evaluated in 50-digit decimal."""
        params = profile.params
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            dec = decimal.Decimal
            pi = dec("3.14159265358979323846264338327950288419716939937511")
            alpha = dec(params.d) * (1 - dec(params.p) / dec(params.q))
            a, big_r = dec(ball.center_dist), dec(ball.radius)

            def cap(r):  # antiderivative of r^(alpha-1) (R^2 - (r-a)^2) / (2 a r)
                out = 2 * a * r**alpha / alpha - r ** (alpha + 1) / (alpha + 1)
                if big_r != a:
                    out += (big_r * big_r - a * a) * r ** (alpha - 1) / (alpha - 1)
                return out / (2 * a)

            total = dec(0)
            for ann, coeff in profile.segments:
                weight = abs(dec(coeff)) ** dec(params.p)
                lo, hi = dec(ann.r_lo), dec(ann.r_hi)
                top = min(hi, max(big_r - a, dec(0)))
                if top > lo:
                    total += weight * 4 * pi / alpha * (top**alpha - lo**alpha)
                s_lo, s_hi = max(lo, abs(big_r - a)), min(hi, big_r + a)
                if s_hi > s_lo:
                    total += weight * 2 * pi * (cap(s_hi) - cap(s_lo))
            return float(total)

    @pytest.mark.parametrize("params", [MorreyParams(1.0, 2.0, 3), MorreyParams(2.0, 2.5, 3)])
    def test_d3_matches_elementary_antiderivative(self, params):
        profile = self._profile(params)
        for ball in self.HARD_BALLS:
            exact = self._d3_decimal_mass(profile, ball)
            assert math.isclose(ball_p_integral(profile, ball), exact, rel_tol=1e-12), ball

    @staticmethod
    def _mpmath_mass(profile, ball, mpmath, digits=30):
        """Independent reference: the cap-angle cosine in r, integrated by
        mpmath's tanh-sinh quadrature in u = r^alpha."""
        params = profile.params
        d = params.d
        with mpmath.workdps(digits):
            alpha = d * (1 - mpmath.mpf(params.p) / params.q)
            a, big_r = mpmath.mpf(ball.center_dist), mpmath.mpf(ball.radius)
            factor = {2: lambda t: t, 3: lambda t: 1 - mpmath.cos(t),
                      4: lambda t: t / 2 - mpmath.sin(2 * t) / 4}[d]

            def cap(u):
                r = u ** (1 / alpha)
                cos_t = (a * a + r * r - big_r * big_r) / (2 * a * r)
                return factor(mpmath.acos(max(-1, min(1, cos_t))))

            total = mpmath.mpf(0)
            for ann, coeff in profile.segments:
                weight = abs(mpmath.mpf(coeff)) ** params.p
                lo, hi = mpmath.mpf(ann.r_lo), mpmath.mpf(ann.r_hi)
                top = min(hi, max(big_r - a, 0))
                if top > lo:
                    total += weight * sphere_area(d) / alpha * (top**alpha - lo**alpha)
                s_lo, s_hi = max(lo, abs(big_r - a)), min(hi, big_r + a)
                if s_hi > s_lo:
                    total += weight * sphere_area(d - 1) / alpha * mpmath.quad(
                        cap, [s_lo**alpha, s_hi**alpha])
            return float(total)

    @pytest.mark.parametrize("params, first_lo", [
        (MorreyParams(1.5, 3.0, 4), 0.2),
        (MorreyParams(1.5, 3.0, 2), 0.2),
        (MorreyParams(1.0, 1.16, 2), 0.0),  # alpha = 0.28, from r = 0
        (MorreyParams(1.0, 1.2, 4), 0.0),   # alpha = 0.67, from r = 0
    ])
    def test_matches_mpmath(self, params, first_lo):
        mpmath = pytest.importorskip("mpmath")
        profile = self._profile(params, first_lo)
        for ball in self.HARD_BALLS + (Ball(0.5, 5e-4),):
            exact = self._mpmath_mass(profile, ball, mpmath)
            assert math.isclose(ball_p_integral(profile, ball), exact, rel_tol=1e-12), ball

    @pytest.mark.parametrize("q", [1.1, 2.0])
    @pytest.mark.parametrize("s", [1e-10, 1e-13, 1e-16])
    def test_window_end_at_r_equal_a(self, q, s):
        # R = a puts the window's lower end at 0, far below the scale of a,
        # and theta = acos(r / 2a) on the annulus (s, 2s).
        mpmath = pytest.importorskip("mpmath")
        params = MorreyParams(1.0, q, 2)
        profile = PiecewiseRadialPower(params, ((Annulus(s, 2.0 * s), 1.0),))
        with mpmath.workdps(30):
            alpha = 2 * (1 - mpmath.mpf(1) / q)
            exact = 2 * mpmath.quad(lambda r: r ** (alpha - 1) * mpmath.acos(r), [s, 2 * s])
        assert math.isclose(ball_p_integral(profile, Ball(0.5, 0.5)), float(exact),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("segment, ball", [
        # the window's top few ulps of 1, above the annulus' inner end
        ((1.0, 2.0), Ball(0.5, 0.5000000000000006)),
        ((1.0, 2.0), Ball(0.5, 0.5000000000000004)),
        ((1.0, 2.0), Ball(0.5, 0.5000000000000011)),
        # a thin ball, its whole window inside the annulus
        ((0.1, 1.0), Ball(0.5, 7e-12)),
    ])
    def test_window_ends_are_exact(self, d, segment, ball):
        # The window's ends a -+ R are rounded sums: a piece that the window
        # clips must end on its exact end, not on fl(a -+ R), which is off by
        # up to 9% of these masses.
        mpmath = pytest.importorskip("mpmath")
        profile = PiecewiseRadialPower(MorreyParams(1.0, 2.0, d), ((Annulus(*segment), 1.0),))
        exact = self._mpmath_mass(profile, ball, mpmath, digits=90)
        assert math.isclose(ball_p_integral(profile, ball), exact, rel_tol=1e-13)

    def test_split_limit_names_the_ball(self, monkeypatch):
        monkeypatch.setattr(numeric, "_CAP_SPLITS", 0)
        params = MorreyParams(1.0, 1.16, 2)
        ball = Ball(0.5, 0.5 * (1 + 1e-8))
        with pytest.raises(NumericalFailure) as failure:
            ball_p_integral(self._profile(params), ball)
        message = str(failure.value)
        for part in ("center_dist=0.5", f"radius={ball.radius!r}", "d=2",
                     f"alpha={params.alpha!r}", "annulus (0.0, 0.7)"):
            assert part in message

    def test_pure_power_offcenter_matches_mc(self):
        params = MorreyParams(1.0, 2.0, 2)
        pure = PiecewiseRadialPower.pure_power(params)
        ball = Ball(0.7, 0.5)
        exact = ball_p_integral(pure, ball)
        mc, se = self.rejection_mc(pure, ball, 2_000_000, 9)
        assert abs(exact - mc) <= 3.0 * se


class TestMonotoneProfileCheck:
    params = MorreyParams(1.0, 2.0, 1)

    def test_pure_power(self):
        assert monotone_profile_check(PiecewiseRadialPower.pure_power(self.params))

    def test_zero_annulus_outside_nonzero(self):
        # inward-ordered coefficients (0, 0, 3, 0) on (eps^(k+1), eps^k)
        eps = 0.5
        segments = []
        inward = [0.0, 0.0, 3.0, 0.0]
        for k in range(3, -1, -1):
            ann = Annulus(eps ** (k + 1), eps**k)
            segments.append((ann, inward[k]))
        profile = PiecewiseRadialPower(self.params, tuple(segments))
        assert not monotone_profile_check(profile)

    def test_growing_inner_coefficient(self):
        # a larger inner coefficient passes: the jump at the shared boundary
        # still goes downward when moving outward
        profile = PiecewiseRadialPower(
            self.params,
            ((Annulus(0.0, 0.5), 2.0), (Annulus(0.5, 1.0), 1.0)),
        )
        assert monotone_profile_check(profile)
        # flipped coefficients jump upward at 0.5
        profile = PiecewiseRadialPower(
            self.params,
            ((Annulus(0.0, 0.5), 1.0), (Annulus(0.5, 1.0), 2.0)),
        )
        assert not monotone_profile_check(profile)

    def test_central_hole_disqualifies(self):
        # the modulus jumps from 0 to a positive value at the inner support
        # edge, so the centered reduction is not guaranteed; at these
        # exponents a small ball on the inner edge of a thin far shell
        # strictly beats every centered ball
        profile = PiecewiseRadialPower(
            MorreyParams(1.76, 5.37, 1),
            ((Annulus(0.83, 0.88), 0.96), (Annulus(0.88, 1.66), 0.3)),
        )
        assert not monotone_profile_check(profile)
        closed = centered_norm(profile).value
        numeric = morrey_norm_numeric(profile).value
        assert numeric > closed * 1.2

    def test_mid_gap_disqualifies(self):
        profile = PiecewiseRadialPower(
            self.params,
            ((Annulus(0.0, 0.5), 2.0), (Annulus(0.8, 1.0), 1.0)),
        )
        assert not monotone_profile_check(profile)


class TestMorreyNormNumeric:
    def test_zero_profile(self):
        params = MorreyParams(1.0, 2.0, 1)
        profile = PiecewiseRadialPower(params, ((Annulus(0.2, 1.0), 0.0),))
        report = morrey_norm_numeric(profile)
        assert report.value == 0.0

    def test_pure_power(self):
        for triple in [(1.0, 2.0, 1), (1.0, 2.0, 2)]:
            params = MorreyParams(*triple)
            report = morrey_norm_numeric(PiecewiseRadialPower.pure_power(params))
            assert math.isclose(report.value, power_norm_exact(params), rel_tol=1e-9)

    @pytest.mark.parametrize("triple", [(1.0, 2.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 3)])
    def test_pure_power_is_closed_form(self, triple):
        params = MorreyParams(*triple)
        pure = PiecewiseRadialPower.pure_power(params)
        reports = [morrey_norm_numeric(pure), *morrey_norms_shared([pure, pure])]
        for report in reports:
            assert report.value == power_norm_exact(params)
            assert report.method is NormMethod.CLOSED_FORM
            assert report.abs_uncertainty == 0.0

    def test_oracle_agreement_on_monotone_profiles(self):
        # the two norm backends validate each other where the centered
        # reduction provably applies
        rng = np.random.default_rng(99)
        triples = [(1.0, 2.0, 1), (1.0, 2.0, 2), (2.0, 3.0, 1)]
        checked = 0
        for i in range(50):
            params = MorreyParams(*triples[i % 3])
            profile = random_bounded_profile(params, rng, monotone=True)
            if not monotone_profile_check(profile):
                continue
            checked += 1
            closed = centered_norm(profile).value
            numeric = morrey_norm_numeric(profile).value
            assert math.isclose(closed, numeric, rel_tol=1e-3)
        assert checked >= 40

    def test_offcenter_never_beats_centered_on_monotone(self):
        rng = np.random.default_rng(123)
        for i in range(20):
            params = random_params(rng, d_max=2)
            profile = random_bounded_profile(params, rng, monotone=True)
            closed = centered_norm(profile).value
            report = morrey_norm_numeric(profile)
            assert report.value <= closed * (1.0 + 1e-6)

    def test_numeric_at_least_centered_on_sign_mixed(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = random_params(rng, d_max=2)
            profile = random_bounded_profile(params, rng, monotone=False)
            closed = centered_norm(profile).value
            report = morrey_norm_numeric(profile)
            assert report.value >= closed * (1.0 - 1e-6)

    def test_supremum_at_window_corner(self):
        # The best ball covers exactly the outer segment (1.717, 2.221): both
        # ends of its radial window sit on boundaries, a (center, radius)
        # pair that no grid holds, and it beats the grid's best by about 2%.
        params = MorreyParams(1.1224139543823741, 2.4167178382700034, 1)
        bounds = (0.9062843287984365, 0.9476917573206366, 1.0710172462046843,
                  1.7168373684630203, 2.2208841455043653)
        coeffs = (0.946180050140826, 2.3225425362469236, 0.015709543378024254,
                  -2.1934916856306774)
        profile = PiecewiseRadialPower(params, tuple(
            (Annulus(lo, hi), c) for lo, hi, c in zip(bounds, bounds[1:], coeffs)))
        lo, hi = bounds[3], bounds[4]
        # d = 1: the ball covers one of the annulus' two intervals
        mass = abs(coeffs[3]) ** params.p * annulus_p_integral(params, Annulus(lo, hi)) / 2
        corner = params.ball_volume((hi - lo) / 2) ** (1 / params.q - 1 / params.p) \
            * mass ** (1 / params.p)
        report = morrey_norm_numeric(profile)
        assert report.value >= corner * (1.0 - 1e-12)
        assert report.value <= corner * (1.0 + 1e-9)

    @pytest.mark.parametrize("p, q, d, segments, corner", [
        (1.0, 4.0, 1, ((0.1, 0.2, 0.3), (1.0, 1.01, 1.0)), Ball(1.005, 0.005)),
        (1.0, 4.0, 2, ((0.7, 0.707, 4.0), (1.0, 1.1, 1.0)), Ball(0.7035, 0.0035)),
        (1.6786290113252538, 5.516032719928011, 1,
         ((0.052939224787730194, 0.5479694484806839, -0.5942854957096391),
          (0.5479694484806839, 1.1198342778303492, -1.6369933525435636),
          (1.1198342778303492, 1.2832417156064782, -2.032813119307109)),
         Ball(0.9156055820435811, 0.36763613356289715)),
    ], ids=["d1-thin-shell", "d2-thin-shell", "d1-two-annuli"])
    def test_supremum_at_corner_ball(self, p, q, d, segments, corner):
        # The corner ball's window is the outer thin shell, or the two outer
        # annuli: a window-corner ball beside the origin that no grid of
        # centers and radii holds, and that the compass from the grid's best
        # ball does not reach.  Its adaptive value bounds the norm below.
        profile = PiecewiseRadialPower(MorreyParams(p, q, d), tuple(
            (Annulus(lo, hi), c) for lo, hi, c in segments))
        value = morrey_norm_numeric(profile).value
        assert value >= numeric._rescore(profile, corner) * (1.0 - 1e-12)

    def test_deterministic(self):
        params = MorreyParams(1.0, 2.0, 2)
        profile = PiecewiseRadialPower(
            params, ((Annulus(0.1, 0.6), 1.0), (Annulus(0.6, 1.1), -2.0))
        )
        first = morrey_norm_numeric(profile)
        second = morrey_norm_numeric(profile)
        assert first.value == second.value
        assert first.argmax_ball == second.argmax_ball


class TestMorreyNormsShared:
    params = MorreyParams(1.0, 2.0, 2)
    annuli = (Annulus(0.1, 0.6), Annulus(0.6, 1.1))

    def _profile(self, *coeffs):
        return PiecewiseRadialPower(self.params, tuple(zip(self.annuli, coeffs)))

    def test_columns_match_single_searches(self):
        profiles = [self._profile(1.0, -2.0), self._profile(0.0, 3.0),
                    self._profile(0.0, 0.0)]
        shared = morrey_norms_shared(profiles)
        for profile, report in zip(profiles, shared):
            alone = morrey_norm_numeric(profile)
            assert math.isclose(report.value, alone.value, rel_tol=1e-12)
            assert report.argmax_ball == alone.argmax_ball
        assert shared[2].value == 0.0

    def test_uncertainty_floored_and_small(self):
        # max(|grid value - rescored value|, 1e-9 value): the fixed-order
        # grid quadrature moves the winner's value far less than 1e-6
        report = morrey_norm_numeric(self._profile(1.0, -2.0))
        assert 1e-9 * report.value <= report.abs_uncertainty <= 1e-6 * report.value

    def test_rejects_different_annuli(self):
        other = PiecewiseRadialPower(self.params, ((Annulus(0.1, 0.5), 1.0),
                                                   (Annulus(0.5, 1.1), 1.0)))
        with pytest.raises(ParameterError):
            morrey_norms_shared([self._profile(1.0, 1.0), other])
        with pytest.raises(ParameterError):
            morrey_norms_shared([])


@pytest.mark.parametrize("n, d, q", [
    pytest.param(7, 1, 2.0, id="7-1"),
    pytest.param(7, 2, 2.0, id="7-2"),
    pytest.param(8, 1, 2.0, id="8-1"),
    pytest.param(8, 2, 2.0, id="8-2"),
    pytest.param(7, 3, 2.0, id="7-3"),
    pytest.param(8, 3, 2.0, id="8-3"),
    pytest.param(7, 2, 3.5, id="7-2-q3.5"),
])
def test_witness_patterns_equal_their_centered_sup(n, d, q):
    # Annuli down to eps^(2^(n-1)): on no signed combination of the delta = 0.1
    # witness family may the search land away from the closed-form centered
    # supremum, neither above it nor below.  This audits the witness path
    # (constants.min_signed_norm), which takes the centered supremum as each
    # combination's norm and runs no search.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        family = build_witnesses(MorreyParams(1.0, q, d), n, 0.1)
        jobs = _combination_profiles(family)
    reports = morrey_norms_shared([profile for _, profile in jobs])
    values = min_signed_norm(family).values.tolist()
    for (pattern, profile), report, value in zip(jobs, reports, values):
        assert math.isclose(report.value, centered_norm(profile).value, rel_tol=1e-12), pattern
        assert math.isclose(report.value, value, rel_tol=1e-12), pattern


def _two_sum(x, y):
    """x + y as w + err, w = fl(x + y), err exact (Knuth's TwoSum)."""
    w = x + y
    z = w - x
    return w, (x - (w - z)) + (y - z)


def _dense_objective(profiles, a, big_r):
    """Reference for the batched objective: every annulus for every ball,
    as (balls x K) closed-form interval masses plus, for d >= 2, dense
    (balls x K x Q) cap pieces, then one matmul with the |coeff|^p columns.
    The cap pieces take the batched rule in its trigonometric form:
    Q-point Gauss-Legendre in t = tan(phi/4) on r = w_lo + W sin^2(phi/2),
    in units of w_hi, with sin(phi/2) and cos(phi/2) from np.sin and np.cos;
    when alpha < 1, in y with (z0 + y^2)^P = g + t^2, P = 1 + 1/alpha,
    z0 = g^(1/P) and g = w_lo / 2W instead.  Q is 8, or 12 when alpha < 1/2
    or d >= 4.  The window ends and the cap angle are formed here, from the
    exact window ends and the half-angle formula of the triangle (a, R, r)."""
    params = profiles[0].params
    d, p, q, alpha = params.d, params.p, params.q, params.alpha
    lo = np.array([ann.r_lo for ann, _ in profiles[0].segments])
    hi = np.array([ann.r_hi for ann, _ in profiles[0].segments])
    cp = np.abs(np.array([pr.coefficients for pr in profiles]).T) ** p

    def upow(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, np.exp(alpha * np.log(x)), 0.0)

    def interval(w_lo, w_hi):
        s_lo = np.maximum(lo[None, :], w_lo[:, None])
        s_hi = np.minimum(hi[None, :], w_hi[:, None])
        return np.clip(upow(s_hi) - upow(s_lo), 0.0, None) / alpha

    if d == 1:
        per_annulus = interval(np.maximum(a - big_r, 0.0), a + big_r) \
            + interval(np.zeros_like(a), big_r - a)
    else:
        big, small = np.maximum(a, big_r)[:, None], np.minimum(a, big_r)[:, None]
        w_hi, width = big + small, 2.0 * small / (big + small)
        w_lo = (big - small) / w_hi
        s_lo = np.maximum(lo[None, :], np.abs(big_r - a)[:, None])
        s_hi = np.minimum(hi[None, :], (big_r + a)[:, None])
        active = (s_hi > s_lo) & (a[:, None] > 0.0)
        # big - small and big + small as unevaluated sums end + err (Knuth's
        # TwoSum), so that s's distances to the window ends keep their digits.
        lo_end, lo_err = _two_sum(big, -small)
        hi_end, hi_err = _two_sum(big, small)
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = np.maximum(0.5 * w_lo / width, 1e-300)[..., None]
            power = 1.0 + 1.0 / alpha
            z0 = offset ** (1.0 / power)
            ends = []
            # A piece that the window clips ends on the window's end, at
            # distance 0 from it.
            for s, lo_cut, hi_cut in ((s_lo, s_lo > lo, False), (s_hi, False, s_hi < hi)):
                e_lo = np.where(lo_cut, 0.0, np.maximum((s - lo_end) - lo_err, 0.0))
                e_hi = np.where(hi_cut, 0.0, np.maximum((hi_end - s) + hi_err, 0.0))
                t = np.tan(0.5 * np.arctan2(np.sqrt(e_lo), np.sqrt(e_hi)))[..., None]
                if alpha < 1.0:
                    t = np.sqrt(z0 * np.expm1(np.log1p(t * t / offset) / power))
                ends.append(t)
            fine = alpha < 0.5 or d >= 4
            nodes, weights = np.polynomial.legendre.leggauss(12 if fine else 8)
            y = ends[0] + (ends[1] - ends[0]) * 0.5 * (nodes + 1.0)
            if alpha < 1.0:
                t = np.sqrt(offset * np.expm1(power * np.log1p(y * y / z0)))
                dt_dy = power * y * (offset + t * t) / (z0 + y * y) / t
            else:
                t, dt_dy = y, 1.0
            half = 2.0 * np.arctan(t)
            e_lo = width[..., None] * np.sin(half) ** 2
            e_hi = width[..., None] * np.cos(half) ** 2
            r = w_lo[..., None] + e_lo
            # tan^2(theta/2) = (sigma - r)(sigma - a) / (sigma (sigma - R)),
            # 2 sigma = a + R + r: 2 (sigma - r) = e_hi, 2 sigma = r + w_hi, and
            # 2 (sigma - a), 2 (sigma - R) are r + w_lo, e_lo if R >= a, else
            # e_lo, r + w_lo.
            inside = (big_r >= a)[:, None, None]
            ratio = e_hi * np.where(inside, r + w_lo[..., None], e_lo) \
                / ((r + 1.0) * np.where(inside, e_lo, r + w_lo[..., None]))
            theta = 2.0 * np.arctan(np.sqrt(ratio))
            f = (r ** (alpha - 1.0) * sin_power_integral(d - 2, theta)
                 * 0.5 * width[..., None] * np.sin(2.0 * half) * 4.0 / (1.0 + t * t) * dt_dy)
            piece = (ends[1] - ends[0])[..., 0] * (f @ (0.5 * weights)) * upow(w_hi)
        piece = np.where(active, piece, 0.0)
        per_annulus = sphere_area(d - 1) * piece + sphere_area(d) \
            * interval(np.zeros_like(a), np.maximum(big_r - a, 0.0))
    mass = per_annulus @ cp
    volume = params.sphere_area / d * big_r ** d
    with np.errstate(divide="ignore"):
        value = np.exp((1.0 / q - 1.0 / p) * np.log(volume)[:, None] + np.log(mass) / p)
    return np.where(mass > 0.0, value, 0.0)


def _probe_balls(profile):
    """Centered balls, balls through the origin, balls whose window ends sit
    on annulus boundaries, thin off-center balls and balls beyond the
    support, as (center_dist, radius) arrays."""
    b = profile.boundaries[profile.boundaries > 0.0]
    top = b[-1]
    i, j = np.triu_indices(b.size, 1)
    keep = slice(None, None, max(1, i.size // 400))
    lo_end, hi_end = b[i][keep], b[j][keep]
    mids = np.sqrt(b[:-1] * b[1:])
    balls = [
        (np.zeros(b.size + mids.size + 2),
         np.concatenate([b, mids, [1e-3 * b[0], 2.0 * top]])),
        (np.concatenate([b, mids, [0.6 * top]]), np.concatenate([b, mids, [0.6 * top]])),
        (0.5 * (hi_end - lo_end), 0.5 * (hi_end + lo_end)),
        (0.5 * (hi_end + lo_end), 0.5 * (hi_end - lo_end)),
        (np.concatenate([b, mids, b]),
         np.concatenate([1e-3 * b, 1e-3 * mids, 1e-7 * b])),
        (np.array([3.0 * top, 10.0 * top, 1.5 * top]),
         np.array([0.5 * top, 1e-3 * top, 0.4 * top])),
    ]
    return np.concatenate([x for x, _ in balls]), np.concatenate([y for _, y in balls])


def _dyadic_profiles(params, rng, num_annuli=64):
    """Profiles on the annuli (2^-(k+1), 2^-k), whose boundaries are exact
    in binary, so window ends computed from them land exactly on them."""
    annuli = [Annulus(2.0 ** -(k + 1), 2.0 ** -k) for k in range(num_annuli - 1, -1, -1)]
    coeffs = rng.integers(-3, 4, size=(4, num_annuli)).astype(float)
    return [PiecewiseRadialPower(params, tuple(zip(annuli, row))) for row in coeffs]


def _objective_cases():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        params = MorreyParams(1.0, 2.0, d)
        for n, delta in ((3, 0.1), (7, 0.1), (7, 0.9)):
            family = build_witnesses(params, n, delta)
            profiles = [pr for _, pr in _combination_profiles(family)]
            yield pytest.param(profiles + [family.functions[0]],
                               id=f"witness-d{d}-n{n}-delta{delta}")
        yield pytest.param(_dyadic_profiles(params, rng), id=f"dyadic-d{d}")
    for k in range(12):
        drawn = random_params(rng)
        params = MorreyParams(drawn.p, drawn.q, 1 + k % 3)
        base = random_bounded_profile(params, rng, monotone=bool(k % 2))
        yield pytest.param([base, base.scale_coefficients(-0.5)],
                           id=f"random-{k}-d{params.d}")


def _small_alpha_cases():
    """p = 1 and alpha from 0.1 to 0.26, the range that random_params reaches
    at d = 2, 3, and d = 4, 5 on both sides of alpha = 1."""
    for d, alpha in [(d, alpha) for d in (2, 3) for alpha in (0.1, 0.16, 0.26)] \
            + [(4, 0.16), (5, 0.26), (5, 1.05)]:
        params = MorreyParams(1.0, d / (d - alpha), d)
        profile = PiecewiseRadialPower(params, (
            (Annulus(0.0, 0.7), 1.3), (Annulus(0.7, 1.2), -0.4), (Annulus(1.5, 2.0), 2.0)))
        yield pytest.param([profile], id=f"alpha{alpha}-d{d}")


def _near_equal_balls(profile):
    """Balls with R = a and R = a (1 +- 10^-k), k = 1..16, at four centers;
    at three of them the outer window end of R = a is an annulus boundary."""
    b = profile.boundaries[profile.boundaries > 0.0]
    a = np.repeat([0.5 * b[0], 0.5 * b[b.size // 2], 0.5 * b[-1], 0.7 * b[-1]], 33)
    step = 10.0 ** -np.arange(1.0, 17.0)
    return a, a * np.tile(np.concatenate([[1.0], 1.0 + step, 1.0 - step]), 4)


def _cap_balls(profile):
    """The probe balls and the balls with R near a, as (center_dist, radius)."""
    return tuple(map(np.concatenate, zip(_probe_balls(profile), _near_equal_balls(profile))))


#: The d >= 2 cases of _objective_cases and the small-alpha cases, built once
#: for the tests that share their adaptive masses.
_CAP_CASES = [case for case in _objective_cases() if case.values[0][0].params.d >= 2] \
    + list(_small_alpha_cases())


@functools.cache
def _adaptive_masses(profile):
    """ball_p_integral of the profile on each of its _cap_balls."""
    return np.array([ball_p_integral(profile, Ball(a, big_r))
                     for a, big_r in zip(*_cap_balls(profile))])


@pytest.mark.parametrize("profiles", _CAP_CASES)
def test_adaptive_integral_runs_on_every_probe(profiles):
    # R = a and R near a, thin balls, and window ends on boundaries far below
    # the scale of the ball: the cap quadrature converges on all of them.
    masses = _adaptive_masses(profiles[0])
    assert np.all(np.isfinite(masses) & (masses >= 0.0))


class TestBatchObjective:
    @pytest.mark.parametrize("profiles", _CAP_CASES)
    def test_matches_adaptive_integral(self, profiles):
        # The cap pieces of balls thinner than 1e-12 of their distance from
        # the origin carry too little of the mass to compare.
        profile = profiles[0]
        a, big_r = _cap_balls(profile)
        got = _BatchObjective([profile])(a, big_r)[:, 0]
        mass = _adaptive_masses(profile)
        exact = np.array([morrey_quantity(profile.params, r, m) if m > 0.0 else 0.0
                          for r, m in zip(big_r, mass)])
        keep = big_r >= 1e-12 * a
        assert np.all(np.abs(got - exact)[keep] <= _BATCHED_RTOL * exact[keep])

    @pytest.mark.parametrize("profiles", list(_objective_cases()) + list(_small_alpha_cases()))
    def test_matches_dense_reference(self, profiles):
        a, big_r = _probe_balls(profiles[0])
        got = _BatchObjective(profiles)(a, big_r)
        ref = _dense_objective(profiles, a, big_r)
        assert got.shape == ref.shape == (a.size, len(profiles))
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    @pytest.mark.parametrize("profiles", list(_objective_cases()))
    def test_value_does_not_depend_on_call_or_block(self, profiles):
        a, big_r = _probe_balls(profiles[0])
        # The probes repeated and shuffled into calls of several blocks.
        size = 2 * _BALL_BLOCK + 500
        order = np.random.default_rng(5).permutation(np.resize(np.arange(a.size), size))
        a, big_r = a[order], big_r[order]
        objective = _BatchObjective(profiles)
        whole = objective(a, big_r)
        cuts = [0, 1, 8, 300, _BALL_BLOCK + 300, size]
        parts = [objective(a[i:j], big_r[i:j]) for i, j in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("columns", [1, 17])
    @pytest.mark.parametrize("profiles", list(_objective_cases()))
    def test_segment_sum_matches_csr_product(self, profiles, columns):
        # P profiles on the case's annuli, with distinct |coeff|^p columns.
        profiles = [profiles[k % len(profiles)].scale_coefficients((-1) ** k * (1.0 + k / 8))
                    for k in range(columns)]
        objective = _BatchObjective(profiles)
        a, big_r = _probe_balls(profiles[0])
        ball, ann, mass = objective._window_pairs(a, big_r)
        # Row i of this (balls x K) CSR matrix holds ball i's pair masses.
        indptr = np.concatenate(([0], np.cumsum(np.bincount(ball, minlength=a.size))))
        pairs = sparse.csr_array((mass, ann, indptr), shape=(a.size, objective.lo.size))
        got = objective._window_mass(a, big_r)
        assert got.shape == (a.size, columns)
        assert np.array_equal(got, pairs @ objective.cp)

    def test_probes_put_window_ends_on_boundaries(self):
        profile = _dyadic_profiles(MorreyParams(1.0, 2.0, 2), np.random.default_rng(0))[0]
        a, big_r = _probe_balls(profile)
        w_lo, w_hi = np.abs(big_r - a), big_r + a
        b = profile.boundaries
        exact = np.isin(w_lo, b) & np.isin(w_hi, b) & (w_lo < w_hi) & (a > 0.0)
        # both with a full-sphere part below the window (R > a) and without
        assert np.sum(exact & (big_r > a)) >= 100
        assert np.sum(exact & (big_r < a)) >= 100

    def test_deep_balls_at_small_alpha(self):
        # Balls with R = a from 1e-250 down to 1e-300 inside the first
        # annulus, alpha = 0.26: dilations of one ball, so one value, which
        # r^(alpha - 1) formed from radii that underflow would make 0.
        profile = PiecewiseRadialPower(MorreyParams(1.0, 1.15, 2), (
            (Annulus(0.0, 1e-150), 1.0), (Annulus(1e-150, 1.0), -2.0)))
        a = np.array([1e-250, 1e-280, 2.1e-292, 1e-300])
        got = _BatchObjective([profile])(a, a)[:, 0]
        exact = numeric._rescore(profile, Ball(a[0], a[0]))
        assert np.allclose(got, got[0], rtol=1e-12, atol=0.0)
        assert abs(got[0] - exact) <= _BATCHED_RTOL * exact

    def test_keeps_attributes_read_by_tracers(self):
        objective = _BatchObjective([PiecewiseRadialPower.power_restriction(
            MorreyParams(1.0, 2.0, 2), 0.5, 1.0)])
        assert (objective.lo.size, objective.d) == (1, 2)
        assert objective.nodes.size == numeric._PIECE_NODES


def _zero_core_profile():
    """A zero coefficient on (0, r1), under the balls with R == a that the
    search holds at every boundary."""
    return PiecewiseRadialPower(MorreyParams(1.5, 4.0, 2), (
        (Annulus(0.0, 0.3), 0.0), (Annulus(0.3, 0.7), 2.0), (Annulus(0.7, 1.0), -1.0)))


def _bound_cases():
    rng = np.random.default_rng(23)
    for k in range(60):
        params = random_params(rng, d_max=5)
        base = random_bounded_profile(params, rng, max_segments=8)
        # random signs, and gaps where segments are dropped
        segments = tuple(seg for seg in base.segments if rng.random() < 0.7)
        profile = PiecewiseRadialPower(params, segments or base.segments[:1])
        yield pytest.param([profile], id=f"random-{k}-d{params.d}")
    yield pytest.param([_zero_core_profile()], id="zero-core")
    for d in (1, 2):
        for n in range(3, 9):
            family = build_witnesses(MorreyParams(1.0, 2.0, d), n, 0.1)
            profiles = [pr for _, pr in _combination_profiles(family)]
            yield pytest.param(profiles + [family.functions[0]], id=f"witness-d{d}-n{n}")


def _two_shells(rng, d):
    """Two thin shells of relative widths 1e-3 to 0.3, the second from 1.001
    to 4 times as far out as the first ends, 1 <= p < q."""
    p = 1.0 + rng.random()
    params = MorreyParams(p, p * (1.2 + 4.0 * rng.random()), d)
    widths = np.exp(rng.uniform(math.log(1e-3), math.log(0.3), 2))
    inner = rng.uniform(0.1, 1.0)
    outer = inner * (1.0 + widths[0]) * math.exp(rng.uniform(math.log(1.001), math.log(4.0)))
    c_in, c_out = rng.normal(scale=1.5, size=2)
    return PiecewiseRadialPower(params, (
        (Annulus(inner, inner * (1.0 + widths[0])), float(c_in)),
        (Annulus(outer, outer * (1.0 + widths[1])), float(c_out))))


def _two_shell_cases(count=36):
    """_two_shells at d = 1..3.  The pruning bounds an off-center ball that
    holds the origin by one centered mass and a ball beside the origin by a
    shell's, and it keeps and drops balls of both kinds here."""
    rng = np.random.default_rng(41)
    for k in range(count):
        profile = _two_shells(rng, 1 + k % 3)
        yield pytest.param([profile], id=f"two-shell-{k}-d{profile.params.d}")


#: The search's pruned grid against every grid ball.
_PRUNE_CASES = list(_bound_cases()) + list(_small_alpha_cases()) + list(_two_shell_cases())


def _report_tuples(reports):
    return [(r.value, r.argmax_ball, r.abs_uncertainty) for r in reports]


class TestMassBound:
    """The search's balls and reports against bounds that need no search: no
    ball holds more than the mass of its radial window, and no report falls
    below the centered norm.  The search scores a ball off the first row
    only where that shell bound (_BatchObjective._may_reach) can reach the
    row's best value, so the pruned balls never change a winner."""

    @staticmethod
    def _window_bound(objective, profile, a, big_r):
        """(balls x P) Morrey quantities that a ball would have if it held
        all the mass of the shell (a - R, a + R), or of the ball of radius
        R + a about the origin when R >= a, which holds it.  The powers are
        taken in units of R + a, so deep annuli do not underflow."""
        lo, hi = annulus_ends(profile)
        outer = big_r + a
        inner = np.where(big_r < a, a - big_r, 0.0) / outer
        lo_u, hi_u = lo[None, :] / outer[:, None], hi[None, :] / outer[:, None]
        alpha = objective.alpha
        unit = (np.clip(1.0, lo_u, hi_u) ** alpha
                - np.clip(inner[:, None], lo_u, hi_u) ** alpha) / alpha
        mass = sphere_area(objective.d) * (unit @ objective.cp)
        with np.errstate(divide="ignore"):
            log_mass = np.log(mass) + (alpha * np.log(outer))[:, None]
        return np.exp(log_morrey_quantity(objective.params, big_r[:, None], log_mass))

    @pytest.mark.parametrize("profiles", list(_bound_cases()))
    def test_bounds_every_grid_ball(self, profiles):
        # The bound is exact on the centered balls, which the batched values
        # take from whole-annulus prefix sums.
        objective = _BatchObjective(profiles)
        aa, rr = numeric._search_balls(profiles[0])
        value = objective(aa, rr)
        bound = self._window_bound(objective, profiles[0], aa, rr)
        noise = 0.0
        if objective.d == 1:
            # The d = 1 window (a - R, a + R) of a ball far thinner than its
            # distance from the origin loses R to rounding: an error of at
            # most 1e-5 of the largest value, which cannot decide a winner.
            noise = np.where((rr < 1e-3 * aa)[:, None], 1e-5 * value.max(axis=0), 0.0)
        assert np.all(value <= bound * (1.0 + 1e-12) + noise)

    @pytest.mark.parametrize("profiles", list(_bound_cases()))
    def test_pruning_bound_reaches_every_batched_value(self, profiles):
        # _may_reach with each ball's own batched value as the floor keeps
        # the ball: the library's bound is within _PRUNE_SLACK of it, down to
        # R = 1e-12 a / alpha.  Below that the bound's difference of two
        # centered masses cancels, and what the pruning needs still holds:
        # every ball it drops scores below the first row's best.
        objective = _BatchObjective(profiles)
        aa, rr = numeric._search_balls(profiles[0])
        values = objective(aa, rr)
        thick = rr >= 1e-12 * aa / objective.alpha
        for j, profile in enumerate(profiles):
            alone = _BatchObjective([profile])
            assert np.all(alone._may_reach(aa, rr, values[:, j:j + 1])[thick])
        row = int(np.argmax(aa > 0.0))
        floor = values[:row].max(axis=0)
        assert np.all(objective._may_reach(aa, rr, floor) | np.all(values < floor, axis=1))

    def test_keeps_a_nan_bound(self):
        # On the zero core at R == a = 0 the bound adds log(0) / p to
        # -(1/p - 1/q) log |B_0|, a NaN, and the ball is kept.  At R == a > 0 in the core the shell
        # holds no mass, the bound is 0 and the ball, which scores 0, goes.
        objective = _BatchObjective([_zero_core_profile()])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(log_morrey_quantity(objective.params, 0.0, np.log(0.0)))
        a = np.array([0.0, 0.1])
        assert objective._may_reach(a, a, np.ones(1)).tolist() == [True, False]
        assert objective(a[1:], a[1:]).tolist() == [[0.0]]

    @pytest.mark.parametrize("core, kept", [(1e-310, True), (1e-300, False)])
    def test_keeps_a_subnormal_shell_mass(self, core, kept):
        # The shell (0.55, 0.95) of B(0.75, 0.2) lies in the first annulus,
        # whose mass is about 4 core: far below the floor of 1 either way,
        # but a subnormal bound mass keeps the ball.
        profile = PiecewiseRadialPower(MorreyParams(1.0, 2.0, 2), (
            (Annulus(0.5, 1.0), core), (Annulus(2.0, 2.5), 1.0)))
        objective = _BatchObjective([profile])
        a, big_r = np.array([0.75]), np.array([0.2])
        assert objective._may_reach(a, big_r, np.ones(1)).tolist() == [kept]

    @pytest.mark.parametrize("profiles", list(_bound_cases()))
    def test_reports_reach_the_centered_norm(self, profiles):
        # The search holds the centered supremum's ball, and the report
        # re-scores the winner, so no report falls below the centered norm.
        for profile, report in zip(profiles, morrey_norms_shared(profiles)):
            assert report.value >= centered_norm(profile).value * (1.0 - 1e-12)

    @pytest.mark.parametrize("profiles", _PRUNE_CASES)
    def test_grid_winner_matches_unpruned_grid(self, profiles, monkeypatch):
        seen = []
        refine = numeric._refine

        def spy(objective, a0, r0, v0):
            seen.append((a0.copy(), r0.copy(), v0.copy()))
            return refine(objective, a0, r0, v0)

        monkeypatch.setattr(numeric, "_refine", spy)
        numeric._search(profiles)
        # Every search ball scored in one call; np.argmax keeps the first of
        # tied balls, as the search's strict comparison across blocks does.
        objective = _BatchObjective(profiles)
        aa, rr = numeric._search_balls(profiles[0])
        values = objective(aa, rr)
        best = np.argmax(values, axis=0)
        (a0, r0, v0), = seen
        assert np.array_equal(a0, aa[best])
        assert np.array_equal(r0, rr[best])
        assert np.array_equal(v0, values[best, np.arange(len(profiles))])

    @pytest.mark.parametrize("profiles", _PRUNE_CASES)
    def test_pruning_moves_no_report(self, profiles, monkeypatch):
        # With a bound that keeps every ball the search scores them all, and
        # every report stays exactly the same.
        scored, call = [], _BatchObjective.__call__

        def counted(objective, a, big_r):
            scored.append(np.size(a))
            return call(objective, a, big_r)

        monkeypatch.setattr(_BatchObjective, "__call__", counted)
        pruned = _report_tuples(numeric._search(profiles))
        pruned_balls = sum(scored)
        monkeypatch.setattr(_BatchObjective, "_may_reach",
                            lambda objective, a, big_r, floor: np.ones(a.size, dtype=bool))
        scored.clear()
        assert _report_tuples(numeric._search(profiles)) == pruned
        assert pruned_balls < sum(scored)


def test_corner_balls_put_window_ends_on_boundaries():
    # The search's balls end with two corner balls per pair of boundaries at
    # most _CORNER_SPAN annuli apart: one holding the origin, one beside it.
    profile = _dyadic_profiles(MorreyParams(1.0, 2.0, 2), np.random.default_rng(0))[0]
    b = profile.boundaries[profile.boundaries > 0.0]
    span = numeric._CORNER_SPAN
    pairs = {(b[i], b[j]) for i in range(b.size) for j in range(i + 1, min(i + span + 1, b.size))}
    a, big_r = numeric._search_balls(profile)
    a, big_r = a[-2 * len(pairs):], big_r[-2 * len(pairs):]
    w_lo, w_hi = np.abs(big_r - a), big_r + a
    assert np.all(np.isin(w_lo, b) & np.isin(w_hi, b))
    ends = set(zip(w_lo.tolist(), w_hi.tolist(), (big_r > a).tolist()))
    assert ends == {(lo, hi, holds) for lo, hi in pairs for holds in (True, False)}


@pytest.mark.parametrize("d, radius", [(2, 0.00055), (3, 0.000866)])
def test_compass_climbs_to_a_thin_shell_supremum(d, radius):
    # One shell of relative width 1e-3.  The best ball spans the shell's
    # thickness with neither window end on a boundary, so no grid or
    # window-corner ball holds it and only the compass (numeric._refine)
    # reaches it: without it the search ends 1.5% low at d = 2 and 14% low
    # at d = 3.
    profile = PiecewiseRadialPower.power_restriction(MorreyParams(1, 4, d), 1.0, 1.001)
    inside = numeric._rescore(profile, Ball(1.0005, radius))
    assert morrey_norm_numeric(profile).value >= inside * (1 - 1e-12)


# --- the step-ladder compass against the one-round compass -------------------


def _one_round_refine(objective, a0, r0, v0):
    """The compass with one round per objective call: the four moves at one
    step, the best of them taken if it improves, else the step shrunk.
    numeric._refine scores several rounds per call and must match it
    exactly."""
    x1, x2, best = a0 - r0, a0 + r0, v0.copy()
    step = numeric._STEP_START * r0
    active = best > 0.0
    moves = numeric._MOVES
    for _ in range(numeric._MAX_ROUNDS):
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        t1 = x1[cols] + moves[:, :1] * step[cols]
        t2 = x2[cols] + moves[:, 1:] * step[cols]
        i = np.arange(cols.size)
        vals = objective(0.5 * np.abs(t1 + t2).ravel(), 0.5 * (t2 - t1).ravel())
        vals = vals.reshape(len(moves), cols.size, -1)[:, i, cols]
        k = np.argmax(vals, axis=0)
        gain = vals[k, i] > best[cols]
        up, k_up, i_up = cols[gain], k[gain], i[gain]
        x1[up], x2[up], best[up] = t1[k_up, i_up], t2[k_up, i_up], vals[k_up, i_up]
        still = cols[~gain]
        step[still] *= numeric._STEP_SHRINK
        active[still] = step[still] > numeric._STEP_STOP * 0.5 * (x2[still] - x1[still])
    return 0.5 * np.abs(x1 + x2), 0.5 * (x2 - x1), best


def _stratified_cases():
    """One profile per (d, monotone, segment count) cell, d = 1..3 and 1..5
    segments, as in the oracle-compare battery."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for monotone in (False, True):
            for segments in range(1, 6):
                drawn = random_params(rng)
                params = MorreyParams(drawn.p, drawn.q, d)
                profile = random_bounded_profile(params, rng, segments, monotone)
                while len(profile.segments) != segments:
                    profile = random_bounded_profile(params, rng, segments, monotone)
                yield pytest.param([profile], id=f"d{d}-m{int(monotone)}-s{segments}")


def _thin_shell_cases(count=24):
    """Two shells of relative widths 1e-3 to 0.3 with a gap between, p = 1,
    d = 1..3: the compass's case, where the best ball spans a shell."""
    rng = np.random.default_rng(9)
    for k in range(count):
        params = MorreyParams(1.0, 1.3 + 4.7 * rng.random(), 1 + k % 3)
        widths = np.exp(rng.uniform(math.log(1e-3), math.log(0.3), 2))
        inner = rng.uniform(0.1, 1.0)
        outer = inner * (1.0 + widths[0]) * rng.uniform(1.01, 3.0)
        c_in, c_out = rng.normal(scale=1.5, size=2)
        profile = PiecewiseRadialPower(params, (
            (Annulus(inner, inner * (1.0 + widths[0])), float(c_in)),
            (Annulus(outer, outer * (1.0 + widths[1])), float(c_out))))
        yield pytest.param([profile], id=f"thin-{k}-d{params.d}")
    for d in (2, 3):
        yield pytest.param([PiecewiseRadialPower.power_restriction(
            MorreyParams(1, 4, d), 1.0, 1.001)], id=f"shell-1e-3-d{d}")


def _with_dead_column():
    """Two profiles on shared annuli, one of them zero: its grid best is 0,
    so its column never refines."""
    params, annuli = MorreyParams(1.0, 2.0, 2), (Annulus(0.1, 0.6), Annulus(0.6, 1.1))
    return [PiecewiseRadialPower(params, tuple(zip(annuli, coeffs)))
            for coeffs in ((1.0, -2.0), (0.0, 0.0), (0.0, 3.0))]


def _assert_ladder_matches_one_round(profiles, monkeypatch):
    """numeric._refine returns _one_round_refine's arrays exactly, and the
    reports of the search do not change with it."""
    ladder, refined = numeric._refine, []

    def spy(objective, a0, r0, v0):
        got = ladder(objective, a0, r0, v0)
        refined.append((got, _one_round_refine(objective, a0, r0, v0)))
        return got

    monkeypatch.setattr(numeric, "_refine", spy)
    reports = numeric._search(profiles)
    monkeypatch.setattr(numeric, "_refine", _one_round_refine)
    expected = numeric._search(profiles)
    monkeypatch.setattr(numeric, "_refine", ladder)
    (got, want), = refined
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert [(r.value, r.argmax_ball, r.abs_uncertainty) for r in reports] \
        == [(r.value, r.argmax_ball, r.abs_uncertainty) for r in expected]
    return got


@pytest.mark.parametrize("profiles", list(_bound_cases()) + list(_stratified_cases())
                         + list(_thin_shell_cases()))
def test_ladder_compass_matches_one_round_compass(profiles, monkeypatch):
    _assert_ladder_matches_one_round(profiles, monkeypatch)


@pytest.mark.parametrize("rounds", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("profiles", list(_thin_shell_cases(6))[:6]
                         + list(_stratified_cases())[10:20]
                         + [pytest.param(_with_dead_column(), id="dead-column")])
def test_ladder_compass_keeps_the_round_budget(profiles, rounds, monkeypatch):
    # A budget that ends inside a ladder: the rounds past it must not count.
    monkeypatch.setattr(numeric, "_MAX_ROUNDS", rounds)
    _assert_ladder_matches_one_round(profiles, monkeypatch)


def test_ladder_compass_leaves_a_dead_column(monkeypatch):
    *_, v = _assert_ladder_matches_one_round(_with_dead_column(), monkeypatch)
    assert v[1] == 0.0 and v[0] > 0.0 and v[2] > 0.0
    # Alone, the zero column scores no ball at all.
    objective, scored = _BatchObjective(_with_dead_column()[1:2]), []

    def counted(a, big_r):
        scored.append(a.size)
        return objective(a, big_r)

    *_, v = numeric._refine(counted, np.array([0.3]), np.array([0.5]), np.array([0.0]))
    assert scored == [] and v.tolist() == [0.0]


def test_search_config_validation():
    for name in ("center_grid", "radius_grid", "quad_points"):
        with pytest.raises(TypeError):
            SearchConfig(**{name: 8})


# --- exact d = 1 norms (numeric._interval_sups) ------------------------------


def _d1_cases(cases):
    return [case for case in cases if case.values[0][0].params.d == 1]


def _thin_two_shells(count, seed):
    rng = np.random.default_rng(seed)
    return [_two_shells(rng, 1) for _ in range(count)]


def _random_d1_profiles(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        drawn = random_params(rng)
        params = MorreyParams(drawn.p, drawn.q, 1)
        yield random_bounded_profile(params, rng, monotone=bool(i % 2))


def _ided(profiles, name):
    return [pytest.param(profile, id=f"{name}-{i}") for i, profile in enumerate(profiles)]


def _interval_quantities(profile, x1, x2):
    """Morrey quantities of the intervals (x1, x2), x1 < x2, from each
    annulus' two halves in closed form: int_s^t x^(-p/q) dx =
    t^alpha (1 - (s/t)^alpha) / alpha, with expm1 so that thin pieces keep
    their digits."""
    params, alpha = profile.params, profile.params.alpha
    lo, hi = annulus_ends(profile)

    def piece(s, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > s, t ** alpha * -np.expm1(alpha * np.log(s / t)) / alpha, 0.0)

    x1, x2 = x1[:, None], x2[:, None]
    pieces = (piece(np.clip(x1, lo, hi), np.clip(x2, lo, hi))
              + piece(np.clip(-x2, lo, hi), np.clip(-x1, lo, hi)))
    mass = pieces @ (np.abs(profile.coefficients) ** params.p)
    return (x2[:, 0] - x1[:, 0]) ** (1 / params.q - 1 / params.p) * mass ** (1 / params.p)


class TestIntervalSups:
    """At d = 1 morrey_norms_shared is exact, with no search: the centered
    supremum or the best interval between two boundaries beside the origin
    (numeric._interval_sups)."""

    @pytest.mark.parametrize("profile", _ided(_random_d1_profiles(16, 17), "random")
                             + _ided(_thin_two_shells(8, 5), "thin"))
    def test_value_is_attained_by_its_ball(self, profile):
        # |f|^p integrated over the reported interval in 30-digit mpmath,
        # piece by piece between 0 and the signed boundaries inside it.
        mpmath = pytest.importorskip("mpmath")
        report = morrey_norm_numeric(profile)
        assert report.method is NormMethod.OFFCENTER_EXACT
        assert report.abs_uncertainty == 4.0 * report.value * 1e-12
        assert report.value == pytest.approx(numeric._rescore(profile, report.argmax_ball),
                                             rel=1e-14)
        params, ball = profile.params, report.argmax_ball
        with mpmath.workdps(30):
            a, big_r = mpmath.mpf(ball.center_dist), mpmath.mpf(ball.radius)
            x1, x2 = a - big_r, a + big_r
            cuts = sorted({x1, x2, mpmath.mpf(0)} | {
                s * mpmath.mpf(b) for b in profile.boundaries.tolist() for s in (-1, 1)})
            cuts = [c for c in cuts if x1 <= c <= x2]
            alpha = 1 - mpmath.mpf(params.p) / params.q
            mass = mpmath.mpf(0)
            for s, t in zip(cuts, cuts[1:]):
                mid = abs((s + t) / 2)
                weight = sum((abs(mpmath.mpf(c)) ** params.p for ann, c in profile.segments
                              if ann.r_lo < mid < ann.r_hi), mpmath.mpf(0))
                mass += weight * abs(abs(t) ** alpha - abs(s) ** alpha) / alpha
            ref = (2 * big_r) ** (mpmath.mpf(1) / params.q - mpmath.mpf(1) / params.p) \
                * mass ** (1 / mpmath.mpf(params.p))
            assert abs(report.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("profile", _ided(_random_d1_profiles(12, 29), "random")
                             + _ided(_thin_two_shells(12, 6), "thin"))
    def test_dense_scan_finds_no_larger_interval(self, profile):
        # Every interval whose ends lie on the signed boundaries and on a
        # 300-point geometric grid, 0 included.
        bounds = profile.boundaries[profile.boundaries > 0.0]
        ends = np.unique(np.concatenate(
            [bounds, np.geomspace(bounds[0] * 1e-2, 1.5 * bounds[-1], 300)]))
        points = np.concatenate([-ends[::-1], [0.0], ends])
        x1, x2 = np.meshgrid(points, points, indexing="ij")
        pairs = (x1 < x2) & (x1 + x2 >= 0.0)
        scan = _interval_quantities(profile, x1[pairs], x2[pairs])
        assert scan.max() <= morrey_norm_numeric(profile).value * (1.0 + 1e-12)

    def test_edge_maximum_lies_below_the_centered_norm(self):
        # p = 1, q = 2: on the cell (4, 30), where G(x) = A + B x^(1/2) with
        # B = 2 c, c = 0.95 and A = G(4) - 4 c, G(4) = 2.2, the intervals
        # (-1, v) peak at v^(-1/2) = (G(1) + A) / B, G(1) = 2: v = 4.75^2.
        # The interval holds the origin, so the centered balls still bound it.
        profile = PiecewiseRadialPower(MorreyParams(1.0, 2.0, 1), (
            (Annulus(0.0, 1.0), 1.0), (Annulus(1.0, 4.0), 0.1), (Annulus(4.0, 30.0), 0.95)))
        v = 4.75 ** 2

        def log_q(x2):
            return math.log(numeric._rescore(profile, Ball(0.5 * (x2 - 1.0), 0.5 * (x2 + 1.0))))

        def slope(x2, h=1e-5):  # d log Q / d log v, by central differences
            return (log_q(x2 * (1 + h)) - log_q(x2 * (1 - h))) / (2 * h)

        assert abs(slope(v)) < 1e-8
        assert slope(v * 0.99) > 1e-4 and slope(v * 1.01) < -1e-4
        assert log_q(v) > max(log_q(v * 0.999), log_q(v * 1.001))
        assert math.exp(log_q(v)) < 0.9 * morrey_norm_numeric(profile).value

    def test_every_pair_scored_exactly_changes_no_report(self, monkeypatch):
        # With no rank slack every boundary pair is scored by
        # ball_p_integral, and the reports stay the same.
        profiles = [*_random_d1_profiles(8, 3), *_thin_two_shells(8, 4)]
        expected = [_report_tuples(morrey_norms_shared([pr])) for pr in profiles]
        scored, rescore = [], numeric._rescore

        def spy(profile, ball):
            scored.append(ball)
            return rescore(profile, ball)

        monkeypatch.setattr(numeric, "_RANK_SLACK", math.inf)
        monkeypatch.setattr(numeric, "_rescore", spy)
        assert [_report_tuples(morrey_norms_shared([pr])) for pr in profiles] == expected
        pairs = sum(b.size * (b.size - 1) // 2 for b in (pr.boundaries[pr.boundaries > 0.0]
                                                           for pr in profiles))
        assert len(scored) == pairs

    @pytest.mark.parametrize("gap", [1e-7, -1e-7])
    def test_pair_and_centered_ball_a_hair_apart(self, gap):
        # The outer shell's coefficient, by bisection, puts the interval
        # (2, 2.02) a relative gap above or below the centered supremum.
        params, ball = MorreyParams(1.0, 2.0, 1), Ball(2.01, 0.01)

        def profile(c):
            return PiecewiseRadialPower(params, ((Annulus(0.0, 1.0), 1.0),
                                                 (Annulus(2.0, 2.02), c)))

        def excess(c):
            return numeric._rescore(profile(c), ball) / centered_norm(profile(c)).value - 1.0

        low, high = 0.0, 100.0
        for _ in range(80):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if excess(mid) < gap else (low, mid)
        report, centered = morrey_norm_numeric(profile(high)), centered_norm(profile(high))
        assert excess(high) == pytest.approx(gap, rel=1e-3)
        if gap > 0.0:
            assert report.value == numeric._rescore(profile(high), report.argmax_ball)
            assert report.argmax_ball == Ball(0.5 * (2.0 + 2.02), 0.5 * (2.02 - 2.0))
        else:
            assert (report.value, report.argmax_ball) == (centered.value, centered.argmax_ball)

    @pytest.mark.parametrize("profiles", _d1_cases(_bound_cases()) + _d1_cases(_two_shell_cases())
                             + _d1_cases(_thin_shell_cases()))
    def test_never_below_the_search(self, profiles):
        # numeric._search is the grid and compass search, which still runs
        # at d = 1 as an independent oracle.
        for exact, found in zip(morrey_norms_shared(profiles), numeric._search(profiles)):
            assert exact.value >= found.value * (1.0 - 1e-12)

    def test_never_below_the_search_on_thin_shells(self):
        for profile in _thin_two_shells(200, 43):
            exact, found = morrey_norm_numeric(profile), numeric._search([profile])[0]
            assert exact.value >= found.value * (1.0 - 1e-12), profile

    def test_monotone_profiles_keep_the_centered_report(self):
        checked = 0
        for profile in _random_d1_profiles(80, 11):
            if monotone_profile_check(profile):
                checked += 1
                report, centered = morrey_norm_numeric(profile), centered_norm(profile)
                assert (report.value, report.argmax_ball) == (centered.value, centered.argmax_ball)
        assert checked >= 30

    def test_blocks_change_no_report(self, monkeypatch):
        # Blocks of one profile and one start cell, and one profile per call.
        family = build_witnesses(MorreyParams(1.0, 2.0, 1), 5, 0.1)
        shared = [pr for _, pr in _combination_profiles(family)]
        alone = list(_thin_two_shells(12, 4))
        expected = _report_tuples(morrey_norms_shared(shared))
        expected_alone = [_report_tuples(morrey_norms_shared([pr])) for pr in alone]
        assert any(r[0][1].center_dist > 0.0 for r in expected_alone)
        monkeypatch.setattr(numeric, "_PAIR_BLOCK", 1)
        assert _report_tuples(morrey_norms_shared(shared)) == expected
        assert expected == [_report_tuples(morrey_norms_shared([pr]))[0] for pr in shared]
        assert [_report_tuples(morrey_norms_shared([pr])) for pr in alone] == expected_alone
