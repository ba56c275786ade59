"""Witness families for the failure of uniform non-l1(n)-ness, and lower
bounds for the n-th James and Von Neumann-Jordan constants.

A witness family for a given delta lives on the K = 2^(n-1) nested annuli
(eps^(k+1), eps^k).  Function i carries the i-th row of the block sign
matrix, so every signed combination has one annulus where all rows agree
and the coefficients add up to n.

Every norm the verdict needs depends on n, p and r = eps^alpha alone.  The
combination with the signs of column j has the coefficient
C[j, c] = n - 2 popcount(j xor c) on column c (annulus K-1-c), over
shared_norm = ||power|| (1 - r^K)^(1/p).  At the centered ball B(0, eps^k)
the ball factor carries eps^(d k (1/q - 1/p)) and annulus k + m the mass
eps^(alpha k) r^m (1 - r) times a constant; as alpha/p = d (1/p - 1/q),
the powers of eps^k cancel, and so do ||power|| and the sphere area:

    Q_j(eps^k) = (S_k / (1 - r^K))^(1/p),  S_k = (1 - r)|C_k|^p + r S_(k+1),

from S_K = 0, with C_k the coefficient on annulus k; S stays in [0, n^p].
Q is monotone between boundaries (closedform.centered_sups), so the largest
Q_j(eps^k) is the combination's centered supremum, a lower bound for its
norm (test_witness_patterns_equal_their_centered_sup finds no ball above
it).  S >= (1 - r) n^p at the agreeing annulus and S <= (1 - r)|C|^p + r n^p
elsewhere, so a supremum needs (1 - r)(n^p - |C|^p) <= r n^p: it sits at the
agreeing annulus when (1 - r)(n^p - (n - 2)^p) > r n^p.  Per mask, a sum cut
where n^p r^M drops below half an ulp of (1 - r) n^p scores column j xor mask
of every pattern j in O(K M); where the masks times M exceed K, the recurrence
runs over all K boundaries instead, in O(K^2).  The minimum is at least
n ((1 - r) / (1 - r^K))^(1/p) > n (1 - eps^alpha)^(1/p) > n (1 - delta).
WitnessFamily.functions, on explicit radii that leave the double range long
before n = 20, is built only for the off-center audit and --emit-profiles.
"""

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .core import (
    Annulus,
    Ball,
    FiniteVectorTuple,
    MorreyParams,
    NormMethod,
    NormReport,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
    SIGN_MATRIX_MAX_N,
    SignMatrix,
    sign_matrix,
)
from . import closedform
from .numeric import DEFAULT_SEARCH

#: Another name for DEFAULT_SEARCH, kept only because perfbench/workloads.py
#: passes it to its reference search; the witness path runs no search.
WITNESS_SEARCH = DEFAULT_SEARCH

JAMES = "james"
VON_NEUMANN_JORDAN = "von_neumann_jordan"


@dataclass(frozen=True, eq=False)
class WitnessFamily:
    """n unit-norm annular power functions built from one (delta, epsilon):
    on the annuli (eps^(k+1), eps^k), k < K = 2^(n-1), each has the
    coefficients +-1/shared_norm, the norm of the power on (eps^K, 1)."""

    params: MorreyParams
    n: int
    delta: float
    epsilon: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and 2 <= self.n <= SIGN_MATRIX_MAX_N):
            raise ParameterError(f"n must be an int in [2, {SIGN_MATRIX_MAX_N}], got {self.n!r}")
        bound = closedform.epsilon_upper_bound(self.params, self.delta)
        if not (0.0 < self.epsilon < bound):
            raise ParameterError(f"epsilon must lie strictly inside (0, {bound}), "
                                 f"got {self.epsilon}")

    @property
    def num_annuli(self) -> int:
        return 2 ** (self.n - 1)

    @property
    def log_r(self) -> float:
        """log(r) for the annulus mass ratio r = eps^alpha."""
        return self.params.alpha * math.log(self.epsilon)

    @property
    def shared_norm(self) -> float:
        inner = -math.expm1(self.num_annuli * self.log_r)
        return closedform.power_norm_exact(self.params) * inner ** (1.0 / self.params.p)

    @functools.cached_property
    def functions(self) -> tuple:
        """The n functions, built on first access.  Annulus k gets the sign in
        column K-1-k, so segments and columns run from the innermost out."""
        params, n, epsilon, num_annuli = self.params, self.n, self.epsilon, self.num_annuli
        radii = np.exp(np.arange(num_annuli + 1) * math.log(epsilon))
        where = f"n={n} needs K={num_annuli} annuli and the innermost"
        if not radii[num_annuli] >= sys.float_info.min:
            raise NumericalFailure(f"{where} radius epsilon^K = {epsilon!r}^{num_annuli} is not a "
                                   "positive normal double; use a larger epsilon or a smaller n")
        if num_annuli * self.log_r < math.log(1e-300):
            warnings.warn(f"epsilon^(alpha*{num_annuli}) is below 1e-300; annulus integrals "
                          "will underflow 64-bit floats", RuntimeWarning, stacklevel=3)
        if closedform.shell_integral(params, radii[num_annuli], radii[num_annuli - 1]) == 0.0:
            raise NumericalFailure(f"{where} one's mass, at epsilon = {epsilon!r} and alpha = "
                                   f"{params.alpha!r}, underflows to 0; use a larger epsilon "
                                   "or a smaller n")
        annuli = [Annulus(radii[k + 1], radii[k]) for k in range(num_annuli - 1, -1, -1)]
        rows = sign_matrix(n).entries / self.shared_norm
        return tuple(PiecewiseRadialPower(params, tuple(zip(annuli, row))) for row in rows)


@dataclass(frozen=True, eq=False)
class SignedCombinationReport:
    """All 2^(n-1) signed-combination norms of a witness family: values[j]
    for the signs in column j of the sign matrix, its best ball
    B(0, eps^boundaries[j]).  A pattern lists the signs (s_2, ..., s_n), the
    first being pinned to +1 as the norm is even; pattern is the minimizer."""

    values: np.ndarray
    boundaries: np.ndarray
    epsilon: float

    @property
    def min_over_patterns(self) -> float:
        return float(self.values.min())

    @property
    def patterns(self) -> tuple:
        n = self.values.size.bit_length()
        return tuple(map(tuple, sign_matrix(n).entries[1:].T.tolist()))

    @property
    def pattern(self) -> tuple:
        return self.patterns[int(np.argmin(self.values))]

    @property
    def norm_values(self) -> np.ndarray:
        return self.values

    @property
    def reports(self) -> tuple:
        radii = np.exp(self.boundaries * math.log(self.epsilon))
        if not np.all(radii >= sys.float_info.min):
            raise NumericalFailure(f"a best ball's radius {self.epsilon!r}^"
                                   f"{self.boundaries.max()} is not a positive normal double")
        return tuple(NormReport(value=value, argmax_ball=Ball(0.0, radius),
                                method=NormMethod.CENTERED_SEARCH,
                                abs_uncertainty=4.0 * value * 1e-12)
                     for value, radius in zip(self.values.tolist(), radii.tolist()))


@dataclass(frozen=True)
class ConstantEstimate:
    """A certified lower bound for one of the n-indexed geometric constants."""

    kind: str
    n: int
    lower_bound: float
    witness: str
    space: str

    def __post_init__(self):
        if self.kind not in (JAMES, VON_NEUMANN_JORDAN):
            raise ParameterError(f"unknown constant kind {self.kind!r}")
        # Both constants sit in [1, n]; landing outside signals a bug.
        if not (1.0 - 1e-9 <= self.lower_bound <= self.n * (1.0 + 1e-9)):
            raise ParameterError(
                f"lower bound {self.lower_bound} escapes [1, {self.n}]"
            )


@dataclass(frozen=True)
class NonEll1nReport:
    """Outcome of one witness-family verification run, which is also one
    row of the constants ladder.  The family holds its params, n, delta,
    epsilon and shared_norm."""

    passed: bool
    threshold: float
    theoretical_lower_bound: float
    nj_ratio: float
    combinations: SignedCombinationReport
    family: WitnessFamily

    @property
    def delta(self) -> float:
        return self.family.delta

    @property
    def min_signed_norm(self) -> float:
        return self.combinations.min_over_patterns


@dataclass(frozen=True)
class JNJCheckReport:
    """Worst case of the min-vs-quadratic-mean step over a sample of tuples."""

    passed: bool
    worst_ratio: float
    worst_index: int


def build_witnesses(params: MorreyParams, n: int, delta: float,
                    epsilon: float | None = None) -> WitnessFamily:
    """The witness family at epsilon, by default half the admissible bound."""
    if epsilon is None:
        epsilon = closedform.epsilon_upper_bound(params, delta) / 2.0
    return WitnessFamily(params=params, n=n, delta=delta, epsilon=epsilon)


def combination_coefficients(matrix: SignMatrix) -> np.ndarray:
    """Per-column coefficients of every signed combination of the rows.

    Row j of the result is the coefficient vector of the combination whose
    signs are column j of the matrix; entry (j, c) is the coefficient on
    column c.  Exactly one entry per row reaches n, where the sign pattern
    matches the column.
    """
    m = matrix.entries.astype(np.int32)
    return m.T @ m


def _levels(n: int, p: float) -> np.ndarray:
    """|C|^p for C = n - 2h, by h = popcount(j xor c) = 0..n-1."""
    return np.abs(n - 2.0 * np.arange(n)) ** p


def _norms(sums, n: int, p: float, log_r: float) -> np.ndarray:
    return (sums / -math.expm1(2 ** (n - 1) * log_r)) ** (1.0 / p)


def _pattern_sups(n: int, p: float, log_r: float) -> tuple:
    """(values, boundaries): each pattern's centered supremum and the k of
    its ball B(0, eps^k), in column order, from n, p and r = exp(log_r)."""
    num, j = 2 ** (n - 1), np.arange(2 ** (n - 1))
    r, one_minus_r, levels = math.exp(log_r), -math.expm1(log_r), _levels(n, p)
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n - 1):
        popcount = np.concatenate((popcount, popcount + 1))
    weights = levels[popcount]  # |C|^p at j xor c
    masks = np.flatnonzero((one_minus_r * (levels[0] - levels) <= r * levels[0])[popcount])
    depth = min(num, int(math.log(math.ulp(one_minus_r * levels[0]) / 2 / levels[0]) / log_r) + 1)
    best, boundaries, sums = np.full(num, -1.0), np.zeros(num, dtype=np.int64), 0.0
    if masks.size * depth <= num:
        # Horner over each candidate column j xor mask and the columns inside it
        for mask in masks.tolist():
            acc = np.zeros(num)  # by column c, for the pattern c xor mask
            for m in range(depth - 1, -1, -1):
                acc[m:] *= r
                acc[m:] += weights[j[m:] ^ j[:num - m] ^ mask]
            sums = one_minus_r * acc[j ^ mask]
            better = sums > best  # on ties the lower mask stays
            best[better], boundaries[better] = sums[better], num - 1 - (j ^ mask)[better]
        return _norms(best, n, p, log_r), boundaries
    for c in range(num):  # innermost first: on ties the smaller ball stays
        sums = one_minus_r * weights[j ^ c] + r * sums
        better = sums > best
        best[better], boundaries[better] = sums[better], num - 1 - c
    return _norms(best, n, p, log_r), boundaries


def min_signed_norm(family: WitnessFamily) -> SignedCombinationReport:
    """The centered suprema of all 2^(n-1) signed combinations."""
    values, boundaries = _pattern_sups(family.n, family.params.p, family.log_r)
    return SignedCombinationReport(values=values, boundaries=boundaries,
                                   epsilon=family.epsilon)


def theoretical_lower_bound(family: WitnessFamily) -> float:
    """n ((1 - r) / (1 - r^K))^(1/p) in the kernel's own floating-point
    steps, so that no pattern rounds below it."""
    n, p, log_r = family.n, family.params.p, family.log_r
    return float(_norms(-math.expm1(log_r) * _levels(n, p)[:1], n, p, log_r)[0])


_ENVELOPE_SLACK = 1e-8


def _check_envelope(family: WitnessFamily, report: SignedCombinationReport) -> None:
    """Every combination norm must sit inside the two-sided analytic bound."""
    lower, upper = theoretical_lower_bound(family), float(family.n)
    below = report.values < lower * (1.0 - _ENVELOPE_SLACK)
    outside = below | (report.values > upper * (1.0 + _ENVELOPE_SLACK))
    if outside.any():
        j = int(np.argmax(outside))
        what = f"fell below the analytic bound {lower}" if below[j] else f"exceeds the cap {upper}"
        where = f"pattern {report.patterns[j]}, ball B(0, eps^{report.boundaries[j]})"
        raise NumericalFailure(f"combination norm {report.values[j]} at {where} {what}")


def verify_non_ell1n(params: MorreyParams, n: int, delta: float,
                     epsilon: float | None = None) -> NonEll1nReport:
    """Check min over signs of ||f_1 +- ... +- f_n|| > n(1-delta) by direct
    enumeration on a freshly built witness family, which the report carries,
    and give the family's NJ ratio."""
    family = build_witnesses(params, n, delta, epsilon)
    report = min_signed_norm(family)
    _check_envelope(family, report)
    threshold = n * (1.0 - delta)
    return NonEll1nReport(
        passed=bool(report.min_over_patterns > threshold),
        threshold=threshold,
        theoretical_lower_bound=theoretical_lower_bound(family),
        nj_ratio=_nj(report.values, n),
        combinations=report,
        family=family,
    )


@dataclass(frozen=True)
class ConstantsLadder:
    """Per-delta witness verifications (NonEll1nReport rows) plus the two
    resulting lower bounds."""

    params: MorreyParams
    n: int
    rows: tuple
    james: ConstantEstimate
    von_neumann_jordan: ConstantEstimate


def _validate_delta_sequence(delta_sequence) -> list:
    deltas = [float(x) for x in delta_sequence]
    if not deltas:
        raise ParameterError("delta sequence must be nonempty")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ParameterError("delta sequence must be strictly decreasing")
    return deltas


def estimate_constants(params: MorreyParams, n: int, delta_sequence) -> ConstantsLadder:
    """Run the witness ladder once and derive both lower bounds from it:
    each is its quantity's largest row, the first one on ties."""
    rows = tuple(verify_non_ell1n(params, n, delta)
                 for delta in _validate_delta_sequence(delta_sequence))
    space = f"morrey(p={params.p}, q={params.q}, d={params.d})"

    def estimate(kind, quantity):
        best = max(rows, key=quantity)
        return ConstantEstimate(kind=kind, n=n, lower_bound=quantity(best),
                                witness=f"witness family at delta={best.delta}",
                                space=space)

    return ConstantsLadder(
        params=params, n=n, rows=rows,
        james=estimate(JAMES, attrgetter("min_signed_norm")),
        von_neumann_jordan=estimate(VON_NEUMANN_JORDAN, attrgetter("nj_ratio")),
    )


def _signed_norms(obj) -> np.ndarray:
    """Every signed-combination norm of a vector tuple or a witness family."""
    if isinstance(obj, WitnessFamily):
        return min_signed_norm(obj).values
    if not isinstance(obj, FiniteVectorTuple):
        raise ParameterError(f"unsupported operand {type(obj).__name__}")
    return obj.vector_norms(sign_matrix(obj.n).entries.astype(float).T @ obj.vectors)


def _nj(signed: np.ndarray, total) -> float:  # total: the members' squared norms
    return float(np.sum(signed**2) / (signed.size * total))


def nj_ratio(obj) -> float:
    """sum over signs of ||x_1 +- ... +- x_n||^2 over 2^(n-1) sum ||x_i||^2.

    Equals 1 identically for Euclidean tuples: expanding the squares, every
    cross term is multiplied by a balanced set of signs and cancels.  For a
    witness family, every signed norm is a closed-form centered supremum (see
    min_signed_norm) and every member's norm is 1.
    """
    signed = _signed_norms(obj)
    if isinstance(obj, WitnessFamily):
        return _nj(signed, obj.n)
    norms = obj.vector_norms()
    if np.any(norms == 0.0):
        raise ParameterError("all tuple elements must be nonzero")
    return _nj(signed, np.sum(norms**2))


def j_nj_inequality_check(samples, rel_tol: float = 1e-9) -> JNJCheckReport:
    """Verify min^2 <= mean of squared signed norms on every sample.

    This is the quadratic-mean step that links the two constants; taking
    suprema over unit tuples turns it into J^2 <= n * NJ.  Returns the worst
    min^2 / mean-square ratio and the index of the worst sample.
    """
    worst = (-math.inf, -1)
    for idx, sample in enumerate(samples):
        signed = _signed_norms(sample)
        mean_sq = float(np.mean(signed**2))
        if mean_sq == 0.0:
            continue  # all combinations vanish; the bound is trivial
        ratio = float(np.min(signed)) ** 2 / mean_sq
        if ratio > worst[0]:
            worst = (ratio, idx)
    return JNJCheckReport(passed=bool(worst[0] <= 1.0 + rel_tol), worst_ratio=worst[0],
                          worst_index=worst[1])
