"""Exact evaluation of the annular power-function quantities.

Everything here reduces to the radial primitive

    int_(lo,hi) |x|^(-d p / q) dx = omega * (hi^alpha - lo^alpha) / alpha,

with alpha = d - d p/q > 0, combined with the ball-volume weight
|B(0,r)|^(1/q - 1/p): shell_integral and morrey_quantity are the two
scalar kernels, and the numeric module uses them too.  Powers are taken in
the log domain so that very thin or very deep annuli keep full relative
precision.  The centered supremum needs no search: the centered quantity is
monotone between annulus boundaries (see centered_norm).
"""

import math

from .core import (
    Annulus,
    Ball,
    MorreyParams,
    NormMethod,
    NormReport,
    ParameterError,
    PiecewiseRadialPower,
    epsilon_upper_bound_raw,
    log_domain_pow,
)

def power_norm_exact(params: MorreyParams) -> float:
    """Norm of the pure power |x|^(-d/q): (omega/d)^(1/q) * (q/(q-p))^(1/p).

    The centered quantity |B(0,r)|^(1/q-1/p) (int_B |x|^(-dp/q))^(1/p) is
    independent of r and off-center balls never beat centered ones for a
    radially decreasing profile, so this is the supremum.
    """
    p, q = params.p, params.q
    log_ball = math.log(params.sphere_area / params.d)
    return math.exp(log_ball / q + math.log(q / (q - p)) / p)


def _log_power_diff(alpha: float, lo: float, hi: float) -> float:
    """log(hi^alpha - lo^alpha) without cancellation; requires 0 <= lo < hi."""
    if lo == 0.0:
        return alpha * math.log(hi)
    return alpha * math.log(hi) + math.log(-math.expm1(alpha * math.log(lo / hi)))


def shell_integral(params: MorreyParams, lo: float, hi: float) -> float:
    """int over lo < |x| < hi of |x|^(-d p/q) dx; 0 when hi <= lo."""
    if hi <= lo:
        return 0.0
    alpha = params.alpha
    return math.exp(math.log(params.sphere_area / alpha) + _log_power_diff(alpha, lo, hi))


def morrey_quantity(params: MorreyParams, radius: float, mass: float) -> float:
    """|B(radius)|^(1/q - 1/p) * mass^(1/p) for a ball of the given radius
    holding the given p-integral; mass must be positive."""
    p, q, d = params.p, params.q, params.d
    log_ball = math.log(params.sphere_area / d) + d * math.log(radius)
    return math.exp((1.0 / q - 1.0 / p) * log_ball + math.log(mass) / p)


def annulus_p_integral(params: MorreyParams, ann: Annulus) -> float:
    """int over the annulus of |x|^(-d p/q) dx."""
    if not ann.bounded:
        raise ParameterError("the p-integral diverges on an unbounded annulus")
    return shell_integral(params, ann.r_lo, ann.r_hi)


def local_quantity(params: MorreyParams, ball_radius: float, ann: Annulus) -> float:
    """|B(0, ball_radius)|^(1/q - 1/p) * (annulus p-integral)^(1/p).

    Invariant under joint dilation of the ball and the annulus: the d-th
    power of the radius in the ball factor cancels the alpha/p power coming
    out of the integral.
    """
    if not (ball_radius > 0 and math.isfinite(ball_radius)):
        raise ParameterError(f"ball_radius must be positive and finite, got {ball_radius}")
    if not ann.bounded:
        raise ParameterError("annulus must be bounded")
    return morrey_quantity(params, ball_radius, shell_integral(params, ann.r_lo, ann.r_hi))


def epsilon_upper_bound(params: MorreyParams, delta: float) -> float:
    """Largest admissible epsilon for a given delta: (1-(1-delta)^p)^(q/(dq-dp)).

    Any epsilon strictly below makes (1 - eps^alpha)^(1/p) exceed 1 - delta.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    return epsilon_upper_bound_raw(params, delta)


def chunk_lower_bound(params: MorreyParams, epsilon: float) -> float:
    """(1 - epsilon^alpha)^(1/p) times the pure-power norm.

    Lower bound for the norm of the power function restricted to any annulus
    (eps^(k+1), eps^k); witnessed by the centered ball at the outer radius.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    alpha = params.alpha
    factor = log_domain_pow(-math.expm1(alpha * math.log(epsilon)), 1.0 / params.p)
    return factor * power_norm_exact(params)


def centered_norm(profile: PiecewiseRadialPower) -> NormReport:
    """Supremum of the centered-ball quantity Q(r) over all radii.

    Between two consecutive annulus boundaries the centered mass is
    M(r) = A + B r^alpha with B >= 0 (A of either sign), and
    alpha = d p (1/p - 1/q) gives

        d/dr log Q(r) = -d (1/p - 1/q) A / (r M(r)),

    whose sign does not change on the bracket.  So Q is monotone between
    boundaries (constant below the smallest positive one, decreasing beyond
    the support), and its supremum is its largest value at a positive
    boundary.  Those are evaluated in order and the first strict maximum is
    kept; abs_uncertainty allows 4e-12 relative for rounding.  At a
    boundary every annulus that starts below it also ends at or below it,
    so the centered mass there is a running sum of whole-annulus masses in
    annulus order, and one pass over the segments gives every boundary.
    """
    if profile.is_pure_power:
        value = power_norm_exact(profile.params)
        return NormReport(
            value=value,
            argmax_ball=Ball(0.0, 1.0),
            method=NormMethod.CLOSED_FORM,
            abs_uncertainty=0.0,
        )

    params = profile.params
    value, radius = -1.0, None
    mass = 0.0
    segments = iter(profile.segments)
    pending = next(segments, None)
    bounds = profile.boundaries
    for r in bounds[bounds > 0.0]:
        r = float(r)
        while pending is not None and pending[0].r_lo < r:
            ann, coeff = pending
            if coeff != 0.0:
                mass += abs(coeff) ** params.p * shell_integral(params, ann.r_lo, ann.r_hi)
            pending = next(segments, None)
        here = morrey_quantity(params, r, mass) if mass > 0.0 else 0.0
        if here > value:
            value, radius = here, r
    return NormReport(
        value=value,
        argmax_ball=Ball(0.0, radius),
        method=NormMethod.CENTERED_SEARCH,
        abs_uncertainty=4.0 * value * 1e-12,
    )
