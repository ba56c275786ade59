"""Exact evaluation of the annular power-function quantities.

Everything here reduces to the radial primitive

    int_(lo,hi) |x|^(-d p / q) dx = omega * (hi^alpha - lo^alpha) / alpha,

with alpha = d - d p/q > 0, combined with the ball-volume weight
|B(0,r)|^(1/q - 1/p): shell_integral and morrey_quantity are the two
scalar kernels, and the numeric module uses them too.  Powers are taken in
the log domain so that very thin or very deep annuli keep full relative
precision.  The centered supremum needs no search: the centered quantity is
monotone between annulus boundaries (see centered_sups), and one kernel
gives it for every profile on a set of shared annuli.
"""

import math

import numpy as np

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


def log_morrey_quantity(params: MorreyParams, radius, log_mass):
    """morrey_quantity's exponent, vectorised, from log(mass).  In logs
    |B(radius)| cannot underflow (at d = 2 and radius 1e-160 it keeps about
    11 bits).  np.log and math.log can differ in the last bit."""
    p, q, d = params.p, params.q, params.d
    log_ball = math.log(params.sphere_area / d) + d * np.log(radius)
    return (1.0 / q - 1.0 / p) * log_ball + log_mass / p


def annulus_ends(profile: PiecewiseRadialPower) -> tuple:
    """The arrays (lo, hi) of the profile's annulus ends."""
    return (np.array([ann.r_lo for ann, _ in profile.segments]),
            np.array([ann.r_hi for ann, _ in profile.segments]))


def annulus_masses(params: MorreyParams, lo, hi) -> np.ndarray:
    """shell_integral over each annulus (lo[k], hi[k]), one scalar call each."""
    return np.array([shell_integral(params, a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def mass_prefix(masses, cp) -> np.ndarray:
    """(K+1) x P whole-annulus prefix: row j sums masses[k] * cp[k] over the
    first j annuli, where cp is the (K x P) matrix of |coeff|^p columns.
    np.cumsum adds one annulus at a time from 0, as a running sum does."""
    prefix = np.zeros((cp.shape[0] + 1, cp.shape[1]))
    np.cumsum(masses[:, None] * cp, axis=0, out=prefix[1:])
    return prefix


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
    """Supremum of the centered-ball quantity Q(r) over all radii: the pure
    power's closed form, else centered_sups on the profile alone."""
    if profile.is_pure_power:
        return NormReport(value=power_norm_exact(profile.params), argmax_ball=Ball(0.0, 1.0),
                          method=NormMethod.CLOSED_FORM, abs_uncertainty=0.0)
    p = profile.params.p
    cp = np.array([[abs(coeff) ** p] for _, coeff in profile.segments])
    return centered_sups(profile.params, *annulus_ends(profile), cp)[0]


#: Columns per block of centered_sups: at K = 2048 a block's (boundaries x
#: columns) arrays take about 4 MB each.
_COLUMN_BLOCK = 256

#: Log-domain slack of centered_sups' ranking.  It is far above the few ulps
#: by which log_morrey_quantity and morrey_quantity's exponent can differ, so
#: every boundary at a column's largest value is scored, and the first wins.
_RANK_SLACK = 1e-9


def centered_sups(params: MorreyParams, lo, hi, cp) -> list:
    """One centered-supremum NormReport per column of the (K x P) matrix cp
    of |coeff|^p (Python powers, to keep values bit for bit), for bounded
    profiles on the sorted, disjoint shared annuli (lo[k], hi[k]).

    Between two consecutive annulus boundaries the centered mass is
    M(r) = A + B r^alpha with B >= 0 (A of either sign), and
    alpha = d p (1/p - 1/q) gives

        d/dr log Q(r) = -d (1/p - 1/q) A / (r M(r)),

    whose sign does not change on the bracket.  So Q is monotone between
    boundaries (constant below the smallest positive one, decreasing beyond
    the support), and its supremum is its largest value at a positive
    boundary, the first one on ties; abs_uncertainty allows 4e-12 relative
    for rounding.  At a boundary every annulus that starts below it also
    ends at or below it, so the centered mass there is a row of mass_prefix.
    log_morrey_quantity ranks the boundaries, and those within _RANK_SLACK
    of a column's best are scored by morrey_quantity, which gives the value.
    """
    radii = sorted({r for r in lo.tolist() + hi.tolist() if r > 0.0})
    bounds = np.array(radii)
    below = np.searchsorted(lo, bounds)  # the annuli that start below each boundary
    masses = annulus_masses(params, lo, hi)
    reports = []
    for start in range(0, cp.shape[1], _COLUMN_BLOCK):
        mass = mass_prefix(masses, cp[:, start:start + _COLUMN_BLOCK])[below]
        with np.errstate(divide="ignore"):
            rank = log_morrey_quantity(params, bounds[:, None], np.log(mass))
        columns, rows = np.nonzero((rank >= rank.max(axis=0) - _RANK_SLACK).T)
        best = [(0.0, radii[0])] * mass.shape[1]
        for j, b, m in zip(columns.tolist(), rows.tolist(), mass[rows, columns].tolist()):
            here = morrey_quantity(params, radii[b], m) if m > 0.0 else 0.0
            if here > best[j][0]:
                best[j] = (here, radii[b])
        reports += [NormReport(value=value, argmax_ball=Ball(0.0, radius),
                               method=NormMethod.CENTERED_SEARCH,
                               abs_uncertainty=4.0 * value * 1e-12)
                    for value, radius in best]
    return reports
