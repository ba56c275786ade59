"""Brute-force norm evaluation: off-center ball integrals via the radial
reduction, a supremum search over one fixed set of balls (a grid of center
distances and radii plus the window-corner balls) with a batched local
refinement, shared by profiles on the same annuli.

For a radial integrand, the integral over a ball B(a, R) collapses to

    int_0^inf g(r) * A_d(r; a, R) dr,

where A_d is the surface measure of the origin-centered r-sphere inside the
ball: a full sphere for r <= R - a, empty beyond r >= R + a (or inside
r <= a - R when the origin lies outside), and a spherical cap in between.
Inside annuli the power part integrates in closed form; only the cap-angle
factor needs quadrature.

Importing this module loads numpy only.  scipy is loaded on first use by
the one path that needs it: the incomplete beta function of
sin_power_integral for sine powers m >= 2, that is for d >= 4.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closedform import (annulus_ends, annulus_masses, centered_norm, log_morrey_quantity,
                         mass_prefix, morrey_quantity, shell_integral)
from .core import (
    Ball,
    NormMethod,
    NormReport,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
    sphere_area,
)


@dataclass(frozen=True)
class SearchConfig:
    """No longer read: the search has no settings and oracle-compare's seed
    defaults to 0.  Kept only because perfbench/ passes it."""

    rng_seed: int = 0


DEFAULT_SEARCH = SearchConfig()


def sin_power_integral(m: int, t):
    """int_0^t sin(x)^m dx for t in [0, pi], vectorized in t.

    m = 0 and m = 1 (as 2 sin^2(t/2)) are elementary.  Otherwise (scipy.special is imported on
    the first call) it is an incomplete beta function in sin(t)^2 within pi/4
    of 0 or pi; nearer pi/2, where that one's derivative blows up, it is
    int_0^(pi/2) sin^m less int_0^(pi/2-t) cos^m, one in cos(t)^2.
    """
    if m < 0:
        raise ParameterError(f"sine power must be >= 0, got {m}")
    t = np.asarray(t, dtype=float)
    if m == 0:
        return t + 0.0
    if m == 1:
        return 2.0 * np.sin(0.5 * t) ** 2
    from scipy import special

    a, s2, c2 = 0.5 * (m + 1), np.sin(t) ** 2, np.cos(t) ** 2
    half = 0.5 * special.beta(a, 0.5)
    out = half * np.where(s2 <= c2, special.betainc(a, 0.5, s2),
                          1.0 - special.betainc(0.5, a, c2))
    return np.where(t <= 0.5 * np.pi, out, 2.0 * half - out)


def shell_area(d: int, r, center_dist: float, radius: float):
    """Surface measure of the sphere {|x| = r} inside B(a, R), vectorized in r.

    For d = 1 this is the number of points of {-r, +r} inside the interval;
    integrating it in r gives interval lengths, which is the correct
    one-dimensional reduction.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    a, big_r = float(center_dist), float(radius)
    r = np.asarray(r, dtype=float)
    if d == 1:
        inside_pos = np.abs(r - a) < big_r
        inside_neg = r + a < big_r
        return inside_pos.astype(float) + inside_neg.astype(float)
    # tan^2(theta/2) = e_hi m1 / (m2 (r + w_hi)), (m1, m2) = (e_lo, r + w_lo) if
    # R < a, else (r + w_lo, e_lo): no cosine cancels.  theta is pi below the
    # window of a ball that holds the origin, 0 beyond it.
    w_lo, w_hi = abs(big_r - a), big_r + a
    e_lo, e_hi = np.maximum(r - w_lo, 0.0), np.maximum(w_hi - r, 0.0)
    m1, m2 = (e_lo, r + w_lo) if big_r < a else (r + w_lo, e_lo)
    theta = 2.0 * np.arctan2(np.sqrt(e_hi * m1), np.sqrt(m2 * (r + w_hi)))
    return sphere_area(d - 1) * r ** (d - 1) * sin_power_integral(d - 2, theta)


def _log_pow(x, a_exp):
    """Elementwise x**a_exp via exp(a*log x) with x <= 0 mapped to 0 (a_exp > 0)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(a_exp * np.log(x))
    return np.where(x > 0.0, out, 0.0)


#: ball_p_integral's cap rule: Q (and 2Q) Gauss-Legendre nodes, the bound on |I_2Q - I_Q|
#: per panel relative to the window mass so far, and the most bisections and panels.
_CAP_NODES, _CAP_RTOL, _CAP_SPLITS, _CAP_PANELS = 16, 1e-14, 60, 4096


@functools.cache
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on (0, 1), by Newton's method on
    the Legendre recurrence, which needs neither numpy.polynomial nor LAPACK."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


def ball_p_integral(profile: PiecewiseRadialPower, ball: Ball) -> float:
    """int over the ball of |profile|^p, to near machine accuracy.

    Below max(R - a, 0) every sphere lies wholly inside the ball: the
    closed-form shell integral.  In the window (|R - a|, R + a) only a cap of
    each sphere does: for d = 1 one of the points {-r, +r}, half the shell;
    for d >= 2 the batched objective's cap rule, run adaptively with exact
    window ends (_adaptive_cap_mass).
    """
    params, d = profile.params, profile.params.d
    a, big_r = ball.center_dist, ball.radius
    lo, hi = annulus_ends(profile)
    cp = np.abs(profile.coefficients) ** params.p
    full_hi = max(big_r - a, 0.0)
    cap_lo, cap_hi = abs(big_r - a), a + big_r
    total = 0.0
    for lo_k, hi_k, cp_k in zip(lo.tolist(), hi.tolist(), cp.tolist()):
        if cp_k == 0.0:
            continue
        total += cp_k * shell_integral(params, lo_k, min(hi_k, full_hi))
        if d == 1:
            total += 0.5 * cp_k * shell_integral(params, max(lo_k, cap_lo), min(hi_k, cap_hi))
    if d >= 2 and a > 0.0:
        total += _adaptive_cap_mass(params, a, big_r, lo, hi, cp)
    return float(total)


def _cap_pieces(d, alpha, a, big_r, ends):
    """Set-up of the cap rule on the pieces (ends[0], ends[1]) of the windows
    (w_lo, w_hi) = (|R - a|, R + a) of the balls B(a, R), d >= 2; a piece's
    ends are its annulus' ends, or any radii between them and the window.

    A piece's mass is omega_(d-1) int r^(alpha-1) S_(d-2)(theta) dr, S_m(t) =
    int_0^t sin^m.  With (big, small) = (max, min)(a, R), W = 2 small and
    r = w_lo + W sin^2(phi/2), it is taken in t = tan(phi/4) from w_lo, or in
    t' = tan((pi - phi)/4) = (1 - t) / (1 + t) from w_hi, which swaps s and c
    and keeps dr's form.  With s = t / (1 + t^2), c = (1 - t^2) / (2 + 2 t^2),
    g = (big - small) / 4 small: r - w_lo = 4 W s^2, w_hi - r = 4 W c^2,
    dr = 16 W s c dt / (1 + t^2), and tan^2(theta/2) = c^2 (s^2 + g_in) /
    ((s^2 + g_out) (s^2 + big / 4 small)) (shell_area), (g_in, g_out) = (g, 0)
    if R >= a else (0, g): ratios, no trig and no cancelling difference.  When
    alpha < 1 the t-nodes are in y, (z0 + y^2)^P = g + t^2 with P = 1 + 1/alpha
    and z0 = g^(1/P): r^(alpha-1) t dt is P y (z0 + y^2)^alpha dy, up to a
    smooth factor.  Returns the (2 x pieces) ends in t (y) and in t', low end
    first; the integrand's constants, columns or, for one ball, scalars; and
    the pieces' factors in t (y) and in t': 32 small from dr, 2 from theta/2
    (d = 2) or T / (1 + T) (d = 3), omega_(d-1) and (8 small)^(alpha-1), as
    r = 8 small (s^2 + g/2).
    """
    big, small = np.maximum(a, big_r), np.minimum(a, big_r)
    # The ends' distances to w_lo and w_hi: big - small is exact if
    # big <= 2 small, else s - big (Sterbenz).  An end at or beyond a window
    # end is at distance 0 from it, and t is 0 or 1 there, exactly, however
    # fl(big -+ small) rounds.
    e_lo = np.where(big <= 2.0 * small, ends - (big - small), (ends - big) + small)
    e_lo, e_hi = np.sqrt(np.maximum(e_lo, 0.0)), np.sqrt(np.maximum((big - ends) + small, 0.0))
    root_w = np.sqrt(2.0 * small)
    t = np.minimum(e_lo / (e_hi + root_w), 1.0)
    top = np.minimum(e_hi / (e_lo + root_w), 1.0)[::-1]
    g = 0.25 * (big - small) / small
    consts = [0.5 * g, g * (big_r >= a), g * (big_r < a), 0.25 * big / small]
    scale = top_scale = (64.0 if d <= 3 else 32.0) * sphere_area(d - 1) \
        * small * (8.0 * small) ** (alpha - 1.0)
    if alpha < 1.0:  # g > 0 keeps y defined at R = a
        power, g = 1.0 + 1.0 / alpha, np.maximum(g, 1e-300)
        z0 = g ** (1.0 / power)
        t = np.sqrt(z0 * np.expm1(np.log1p(t * t / g) / power))
        consts += [g, 1.0 / z0]
        scale = power * scale / z0
    return t, top, consts, (scale, top_scale)


def _cap_integrand(d, alpha, y, consts, top=False):
    """The cap rule's integrand at nodes y (pieces x nodes) in t, or in t' if
    top, with _cap_pieces' constants as (pieces x 1) columns or scalars; y is
    overwritten.  With v = 1 / (1 + t^2) it is v^2 (v - 1/2) y (s^2 + g/2)^(alpha-1)
    cap(tan^2(theta/2)); in y (alpha < 1, not top), P y (g + t^2) / (z0 + y^2)
    = t dt/dy takes y's place, P / z0 aside.  v - 1/2 cancels near t = 1."""
    half_g, g_in, g_out, big_q, *grade = consts
    t2 = y * y
    if grade and not top:
        g, inv_z0 = grade
        u = t2 * inv_z0
        t2 = np.expm1(np.log1p(u) * (1.0 + 1.0 / alpha)) * g
        y *= (t2 + g) / (u + 1.0)
    # In place where an array is spent: a block's temporaries stay few.
    v = t2 + 1.0
    np.divide(1.0, v, out=v)
    s2 = t2 * v
    s2 *= v
    c = v - 0.5
    f = np.multiply(v, v, out=v)
    f *= c
    f *= y
    c2 = np.multiply(c, c, out=t2)
    s2, c2 = (c2, s2) if top else (s2, c2)
    if alpha != 1.0:
        f *= (s2 + half_g) ** (alpha - 1.0)
    num = np.add(s2, g_in, out=y)
    num *= c2
    den = np.add(s2, g_out, out=c)
    den *= np.add(s2, big_q, out=c2)
    if d == 3:  # 1 - cos(theta) = 2 T / (1 + T), T = tan^2(theta/2)
        den += num
        f *= np.divide(num, den, out=num)
    else:
        half = np.arctan(np.sqrt(np.divide(num, den, out=num), out=num), out=num)
        f *= half if d == 2 else sin_power_integral(d - 2, 2.0 * half)
    return f


def _adaptive_cap_mass(params, a, big_r, ann_lo, ann_hi, cp):
    """Window mass of B(a, R), d >= 2: the masses of the annuli (ann_lo,
    ann_hi) that meet the window times cp, by one vectorised adaptive
    quadrature of the cap rule (_cap_pieces).  A piece that starts above the
    window's midpoint is taken in t' from w_hi, where v - 1/2 does not
    cancel; the others in t (y when alpha < 1), as in _BatchObjective.  A
    panel whose Q- and 2Q-point Gauss-Legendre values differ by at most
    _CAP_RTOL times the window mass found so far adds its 2Q value; the
    others are bisected, all in the same arrays.  Sums use einsum: a BLAS
    matvec's thread start-up costs more."""
    d, alpha = params.d, params.alpha
    owner = np.flatnonzero((ann_hi > abs(big_r - a)) & (ann_lo < big_r + a) & (cp > 0.0))
    ends = np.array([ann_lo[owner], ann_hi[owner]])
    t, top, consts, scale = _cap_pieces(d, alpha, a, big_r, ends)
    flip = top[1] <= math.sqrt(2.0) - 1.0  # tan(pi/8): from above the midpoint
    lo, hi = np.where(flip, top, t)
    weight = cp[owner] * np.where(flip, scale[1], scale[0])
    piece = np.arange(owner.size)
    (nodes, weights), (nodes2, weights2) = map(_gauss_legendre, (_CAP_NODES, 2 * _CAP_NODES))
    nodes, total = np.append(nodes, nodes2), 0.0
    for level in range(_CAP_SPLITS + 1):
        span = hi - lo
        y = lo[:, None] + span[:, None] * nodes
        f, mirror = np.empty_like(y), flip[piece]
        for rows, side in ((~mirror, False), (mirror, True)):
            if rows.any():
                f[rows] = _cap_integrand(d, alpha, y[rows], consts, side)
        part = span * weight[piece]
        coarse = part * np.einsum("ij,j->i", f[:, :_CAP_NODES], weights)
        fine = part * np.einsum("ij,j->i", f[:, _CAP_NODES:], weights2)
        done = np.abs(fine - coarse) <= _CAP_RTOL * (total + fine.sum())
        total += fine[done].sum()
        if done.all():
            break
        lo, hi, piece = lo[~done], hi[~done], piece[~done]
        if level == _CAP_SPLITS or 2 * lo.size > _CAP_PANELS:
            k = owner[piece[0]]
            raise NumericalFailure(
                f"cap-region quadrature did not converge in {level} bisections: ball "
                f"center_dist={a!r}, radius={big_r!r}, d={d}, alpha={alpha!r}, annulus "
                f"{ann_lo[k].item(), ann_hi[k].item()}")
        mid = 0.5 * (lo + hi)
        lo, hi, piece = np.append(lo, mid), np.append(mid, hi), np.append(piece, piece)
    return total


def monotone_profile_check(profile: PiecewiseRadialPower) -> bool:
    """True when the profile modulus is radially nonincreasing on all of
    (0, inf), gaps between and below the listed annuli counting as zero.

    This is the sufficient condition for the centered-ball reduction: by the
    layer-cake decomposition the superlevel sets are centered balls, and a
    ball captures the most of a concentric ball, so moving the center off
    the origin only loses mass.  Boundary values |c_k| r^(-d/q) are compared
    explicitly because a larger coefficient on an inner annulus is fine as
    long as the jump at the shared boundary still goes downward.

    A hole below the support disqualifies a profile even when the values on
    the support itself decrease: a small ball hugging the inner edge of a
    thin shell far from the origin can beat every centered ball (d p < q
    makes the ball-volume penalty R^(d/q) weaker than the centered gain).
    """
    exponent = -profile.params.d / profile.params.q
    values = []
    previous_hi = 0.0
    for ann, coeff in profile.segments:
        c = abs(coeff)
        if ann.r_lo > previous_hi:
            values.append(0.0)  # gap: the profile vanishes there
        if ann.r_lo == 0.0:
            values.append(math.inf if c > 0.0 else 0.0)
        else:
            values.append(c * ann.r_lo**exponent)
        values.append(0.0 if not ann.bounded else c * ann.r_hi**exponent)
        previous_hi = ann.r_hi
    slack = 1.0 + 1e-12
    return all(v1 * slack >= v2 for v1, v2 in zip(values, values[1:]))


# --- vectorized objective over batches of balls -----------------------------


#: Balls per block of _BatchObjective.__call__ and per objective call of the
#: search, and (piece, node) points per cap block.  A block's temporaries then
#: stay near 140 kB (1024 balls x 17 profiles) and 56 kB, small enough to stay
#: in cache and to come back from the heap on the next block rather than being
#: mapped and faulted in afresh, and trimmed again, by every call.
_BALL_BLOCK = 1024
_PANEL_BLOCK = 7168

#: Slack of the search's shell-bound pruning (_may_reach).  Batched values
#: stay within 1e-12 of the bound, or 1e-5 of the best for d = 1 balls that
#: lose R to rounding; the bound, a difference of centered masses, loses about
#: 1e-16 a / (alpha R) of a ball near the floor: under 1e-4 for R >= 1e-12 a / alpha.
_PRUNE_SLACK = 1e-4

#: The nodes per cap piece of _BatchObjective, the fine count when alpha < 1/2
#: or d >= 4.  Against the adaptive integral (p = 1, d = 2..5, R >= 1e-12 a,
#: R = a(1 +- 10^-k) too) they are within 6e-4 down to alpha = 0.08, where
#: 8 nodes alone are up to 6.4e-3 off.
_PIECE_NODES, _FINE_PIECE_NODES = 8, 12


class _BatchObjective:
    """Morrey quantities of several profiles on arrays of (center_dist,
    radius) pairs.

    The profiles share params and annuli and differ only in their
    coefficients, held as the (K x P) matrix of |coeff|^p columns.  A ball
    B(a, R) splits the radial axis at its window (|R - a|, R + a): below it
    every sphere lies wholly inside the ball (for R > a), above it none
    does.  The full-sphere mass below max(R - a, 0) is a row of
    closedform.mass_prefix, as in closedform.centered_sups, plus one
    partial annulus.  Inside the window only the annuli that meet it carry
    mass, a contiguous index range because the annuli are sorted; those
    (ball, annulus) pairs are listed ball by ball, each pair's piece of the
    window gets ball_p_integral's cap rule at a fixed _PIECE_NODES nodes in t
    (_cap_masses), and a segment sum (np.bincount over (ball, profile) bins)
    adds pair masses times |coeff|^p back to the balls.  So a ball costs O(P)
    plus its active pairs, and only the cap-angle factor of d >= 4 needs
    scipy (sin_power_integral).  For d = 1 the folded interval (a - R, a + R)
    is twice the full part plus the window, whose cap factor is exactly 1.
    The value is exp(closedform.log_morrey_quantity).  Calls are scored in
    blocks of _BALL_BLOCK balls and cap pieces in blocks of _PANEL_BLOCK
    points, and every sum runs in a fixed order, so a ball's value does not
    depend on the call or block it comes in.  Accuracy only has to find the
    right ball (_PIECE_NODES): the search re-scores each winner with the
    adaptive integral.
    """

    def __init__(self, profiles):
        params = profiles[0].params
        self.params, self.d, self.alpha = params, params.d, params.alpha
        annuli = [ann for ann, _ in profiles[0].segments]
        if any(profile.params != params or [ann for ann, _ in profile.segments] != annuli
               for profile in profiles):
            raise ParameterError("batched profiles must share params and annuli")
        self.lo, self.hi = annulus_ends(profiles[0])
        self.cp = np.ascontiguousarray(
            np.abs(np.array([pr.coefficients for pr in profiles]).T) ** params.p)
        fine = self.alpha < 0.5 or self.d >= 4
        self.nodes, self.weights = _gauss_legendre(_FINE_PIECE_NODES if fine else _PIECE_NODES)
        self.prefix = mass_prefix(annulus_masses(params, self.lo, self.hi), self.cp)
        # One sentinel annulus past the last, empty, for balls that hold all.
        self.u_lo_ext = np.append(_log_pow(self.lo, self.alpha), np.inf)
        self.cp_ext = np.vstack([self.cp, np.zeros_like(self.cp[:1])])
        self.partial_factor = params.sphere_area / self.alpha

    def __call__(self, center, radius):
        """(balls x P) array of Morrey quantities, 0 where a ball has no mass."""
        a = np.atleast_1d(np.asarray(center, dtype=float))
        big_r = np.atleast_1d(np.asarray(radius, dtype=float))
        out = np.empty((a.size, self.cp.shape[1]))
        for start in range(0, a.size, _BALL_BLOCK):
            block = slice(start, start + _BALL_BLOCK)
            out[block] = self._values(a[block], big_r[block])
        return out

    def _values(self, a, big_r):
        """__call__ on one block of balls."""
        mass = self._full_mass(np.maximum(big_r - a, 0.0))
        mass += self._window_mass(a, big_r)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.exp(log_morrey_quantity(self.params, big_r[:, None], np.log(mass)))
        value[~np.isfinite(value)] = 0.0
        return value

    def _full_mass(self, t):
        """(balls x P) masses of the centered balls of radius t: the prefix
        row of the annuli wholly below t plus the part of the next one."""
        j = np.searchsorted(self.hi, t, side="right")
        partial = np.clip(_log_pow(t, self.alpha) - self.u_lo_ext[j], 0.0, None)
        out = self.cp_ext[j]
        out *= (partial * self.partial_factor)[:, None]
        out += self.prefix[j]
        return out

    def _may_reach(self, a, big_r, floor):
        """Whether each ball's shell bound, the Morrey quantity of all the mass
        of (max(a - R, 0), R + a), is NaN or at least floor / (1 + _PRUNE_SLACK)
        for some profile, or that mass is subnormal, where batched masses drift."""
        ends = self._full_mass(np.concatenate([big_r + a, np.maximum(a - big_r, 0.0)]))
        mass = ends[:a.size] - ends[a.size:]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = log_morrey_quantity(self.params, big_r[:, None], np.log(mass))
            short = bound < np.log(floor / (1.0 + _PRUNE_SLACK))
        return np.any(~short | ((mass > 0.0) & (mass < np.finfo(float).tiny)), axis=1)

    def _window_mass(self, a, big_r):
        """(balls x P) masses inside each ball's window (|R - a|, R + a):
        each (ball, profile) bin adds its pairs' masses times |coeff|^p in
        pair order, starting from 0."""
        ball, ann, mass = self._window_pairs(a, big_r)
        columns = self.cp.shape[1]
        bins = (ball[:, None] * columns + np.arange(columns)).ravel()
        pair_mass = (mass[:, None] * self.cp[ann]).ravel()
        return np.bincount(bins, weights=pair_mass,
                           minlength=a.size * columns).reshape(a.size, columns)

    def _window_pairs(self, a, big_r):
        """The (ball, annulus) pairs that meet each ball's window, grouped by
        ball in annulus order, with their masses per unit |coeff|^p."""
        w_lo, w_hi = np.abs(big_r - a), big_r + a
        first = np.searchsorted(self.hi, w_lo, side="right")
        counts = np.where(w_hi > w_lo,
                          np.searchsorted(self.lo, w_hi, side="left") - first, 0)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ball = np.repeat(np.arange(a.size), counts)
        ann = np.arange(ball.size) - indptr[ball] + first[ball]
        ends = np.array([self.lo[ann], self.hi[ann]])  # the pairs' annulus ends
        if self.d == 1:
            np.maximum(ends[0], w_lo[ball], out=ends[0])
            np.minimum(ends[1], w_hi[ball], out=ends[1])
            u = _log_pow(ends, self.alpha)
            return ball, ann, np.clip(u[1] - u[0], 0.0, None) / self.alpha
        return ball, ann, self._cap_masses(a[ball], big_r[ball], ends)

    def _cap_masses(self, a, big_r, ends):
        """d >= 2: the masses of the balls' window pieces in the annuli
        (ends[0], ends[1]), by _cap_pieces' rule at fixed nodes in t (y)."""
        t, _, consts, scale = _cap_pieces(self.d, self.alpha, a, big_r, ends)
        lo, span = t[0], t[1] - t[0]
        out = np.empty(a.size)
        step = _PANEL_BLOCK // self.nodes.size
        for first in range(0, a.size, step):
            part = slice(first, first + step)
            f = _cap_integrand(self.d, self.alpha, lo[part, None] + span[part, None] * self.nodes,
                               [column[part, None] for column in consts])
            # einsum, not a BLAS matvec: each row's sum has one fixed order, so
            # a piece's mass does not depend on the block it is scored in.
            out[part] = np.einsum("ij,j->i", f, self.weights)
        return out * span * scale[0]


#: The search's balls: _CENTERS center distances by _RADII radii, and the
#: window-corner balls of boundaries at most _CORNER_SPAN annuli apart.
_CENTERS, _RADII, _CORNER_SPAN = 56, 72, 3


def _search_balls(profile: PiecewiseRadialPower):
    """Every ball the search scores, as (center_dist, radius) arrays: the
    grid, then the window-corner balls.

    The grid takes _CENTERS center distances from 0, half linear and half
    geometric, and _RADII geometric radii, both with every annulus boundary.
    Its first row is the centered balls at every boundary, where the
    centered supremum sits (closedform.centered_norm).  A ball's radial
    window is (|R - a|, R + a); a window-corner ball has both ends on
    boundaries b_i < b_j with j - i <= _CORNER_SPAN, and is either the ball
    ((b_j - b_i)/2, (b_j + b_i)/2) that holds the origin or the ball
    ((b_j + b_i)/2, (b_j - b_i)/2) beside it.  Thin off-center shells put
    the supremum there, where a grid of centers and radii has no point.
    """
    bounds = profile.boundaries
    bounds = bounds[(bounds > 0.0) & np.isfinite(bounds)]
    top = profile.support_radius
    radii = np.unique(np.concatenate(
        [np.geomspace(bounds[0] * 1e-3, 4.0 * top, _RADII), bounds]))
    centers = np.unique(np.concatenate([
        np.linspace(0.0, 2.0 * top, _CENTERS // 2),
        np.geomspace(bounds[0] * 1e-2, 2.0 * top, _CENTERS - _CENTERS // 2), bounds]))
    aa, rr = np.meshgrid(centers, radii, indexing="ij")
    spans = range(1, _CORNER_SPAN + 1)
    inner = np.concatenate([bounds[:-span] for span in spans])
    outer = np.concatenate([bounds[span:] for span in spans])
    half_width, middle = 0.5 * (outer - inner), 0.5 * (outer + inner)
    return (np.concatenate([aa.ravel(), half_width, middle]),
            np.concatenate([rr.ravel(), middle, half_width]))


def morrey_norm_numeric(profile: PiecewiseRadialPower,
                        cfg: SearchConfig = DEFAULT_SEARCH) -> NormReport:
    """Supremum search over center distance and radius: morrey_norms_shared
    on the single profile."""
    return morrey_norms_shared([profile], cfg)[0]


def morrey_norms_shared(profiles, cfg: SearchConfig = DEFAULT_SEARCH) -> list:
    """Supremum searches for profiles that share params and annuli, from one
    pass over the balls of _search_balls; returns one NormReport per
    profile, in order.  The search reads nothing from cfg.

    The balls are scored for all profiles at once (see _BatchObjective), in
    blocks of _BALL_BLOCK, and each profile keeps its first best ball.  The
    grid's first row, the centered balls, sets each profile's floor; another
    ball is scored only where its shell bound may reach one (_may_reach).
    _refine improves each profile's best ball in batched rounds; the best
    ball and the refined ball are re-scored with the adaptive integral, and
    the larger value wins.  abs_uncertainty is max(|batched value -
    rescored value|, 1e-9 * value).

    The radii stop at 4 times the support radius, and no larger ball can
    win: a ball of radius R at least the support radius holds at most the
    mass of the centered ball at the support radius, a grid ball, so its
    Morrey quantity is at most (R / support)^(-d (1/p - 1/q)) times that
    ball's.

    The pure power's single annulus forces the unit coefficient, so every
    profile sharing it is the pure power, whose closed-form norm
    (closedform.centered_norm) is returned for each.
    """
    profiles = list(profiles)
    if not profiles:
        raise ParameterError("need at least one profile")
    if profiles[0].is_pure_power:
        return [centered_norm(profiles[0])] * len(profiles)

    objective = _BatchObjective(profiles)
    aa, rr = _search_balls(profiles[0])
    columns = np.arange(len(profiles))
    row = int(np.argmax(aa > 0.0))  # the grid's first row: the centered balls
    vals = objective(aa[:row], rr[:row])
    best = np.argmax(vals, axis=0)
    best_v = vals[best, columns]
    chunks = [slice(start, start + _BALL_BLOCK) for start in range(row, aa.size, _BALL_BLOCK)]
    kept = np.concatenate([chunk.start + np.flatnonzero(
        objective._may_reach(aa[chunk], rr[chunk], best_v)) for chunk in chunks])
    for start in range(0, kept.size, _BALL_BLOCK):
        index = kept[start:start + _BALL_BLOCK]
        vals = objective(aa[index], rr[index])
        idx = np.argmax(vals, axis=0)
        better = vals[idx, columns] > best_v
        best = np.where(better, index[idx], best)
        best_v = np.where(better, vals[idx, columns], best_v)
    best_a, best_r = aa[best], rr[best]

    ref_a, ref_r, ref_v = _refine(objective, best_a, best_r, best_v)
    reports = []
    for j, profile in enumerate(profiles):
        candidates = [(best_a[j], best_r[j], best_v[j])]
        if ref_v[j] > best_v[j]:
            candidates.append((ref_a[j], ref_r[j], ref_v[j]))
        reports.append(_rescored_report(profile, candidates))
    return reports


#: Compass refinement: the first step as a share of the best search ball's
#: radius, the factor a step shrinks by after a round without improvement,
#: the rounds (one step each, shrinking) scored per objective call, the
#: relative step at which a profile stops, and a cap on each profile's rounds.
_STEP_START, _STEP_SHRINK, _LADDER, _STEP_STOP, _MAX_ROUNDS = 0.1, 0.25, 4, 1e-12, 200
_MOVES = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def _refine(objective, a0, r0, v0):
    """Batched compass search from every profile's best search ball.

    A ball's radial window runs from x1 = a - R to x2 = a + R.  The
    objective has kinks where a window end crosses an annulus boundary;
    they are axis-parallel in (x1, x2), so moving one end at a time walks
    along them into the corners where both ends sit on boundaries, also
    those of boundaries further apart than _CORNER_SPAN, and up the ridges
    of d >= 2, where a supremum can lie inside a cell.

    A round takes the best of the four moves if it improves, and else
    shrinks the step.  A failed round moves nothing, so one objective call
    scores the next _LADDER rounds of every profile still refining, at the
    step and its next shrinks: each profile takes its first improving
    round, or all the shrinks.  A round counts while the step is above
    _STEP_STOP times the radius and the profile has rounds left.  Returns
    the refined centers, radii and batched values.
    """
    x1, x2, best = a0 - r0, a0 + r0, v0.copy()
    step = _STEP_START * r0
    rounds = np.zeros(best.size, dtype=int)
    active = best > 0.0
    level = np.arange(_LADDER)[:, None]
    while active.any():
        cols = np.flatnonzero(active)
        i = np.arange(cols.size)
        steps = [step[cols]]
        for _ in range(_LADDER):
            steps.append(steps[-1] * _STEP_SHRINK)
        steps = np.array(steps)
        t1 = x1[cols] + _MOVES[:, :1] * steps[:-1, None]
        t2 = x2[cols] + _MOVES[:, 1:] * steps[:-1, None]
        vals = objective(0.5 * np.abs(t1 + t2).ravel(), 0.5 * (t2 - t1).ravel())
        vals = vals.reshape(_LADDER, len(_MOVES), cols.size, -1)[:, :, i, cols]
        k = np.argmax(vals, axis=1)
        top = np.take_along_axis(vals, k[:, None], axis=1)[:, 0]
        floor = _STEP_STOP * 0.5 * (x2[cols] - x1[cols])
        live = (rounds[cols] + level < _MAX_ROUNDS) & ((level == 0) | (steps[:-1] > floor))
        gain = live & (top > best[cols])
        hit = gain.any(axis=0)
        used = np.where(hit, np.argmax(gain, axis=0), live.sum(axis=0))
        l_up, i_up = used[hit], i[hit]
        move, up = (l_up, k[l_up, i_up], i_up), cols[hit]
        x1[up], x2[up], best[up] = t1[move], t2[move], vals[move]
        step[cols] = steps[used, i]
        rounds[cols] += used + hit
        active[cols] = (hit | (step[cols] > floor)) & (rounds[cols] < _MAX_ROUNDS)
    return 0.5 * np.abs(x1 + x2), 0.5 * (x2 - x1), best


def _rescored_report(profile, candidates) -> NormReport:
    """Re-score one profile's candidate balls, given as (center, radius,
    batched value), with the adaptive integral and report the best."""
    value, ball, batched = -1.0, None, 0.0
    for a, r, v in candidates:
        cand = Ball(a, r)
        score = _rescore(profile, cand) if v > 0.0 else 0.0
        if score > value:
            value, ball, batched = score, cand, float(v)
    return NormReport(value=value, argmax_ball=ball, method=NormMethod.OFFCENTER_SEARCH,
                      abs_uncertainty=max(abs(batched - value), value * 1e-9))


def _rescore(profile, ball) -> float:
    """The Morrey quantity of one ball, with the adaptive integral."""
    mass = ball_p_integral(profile, ball)
    return morrey_quantity(profile.params, ball.radius, mass) if mass > 0.0 else 0.0

