"""Witness families for the failure of uniform non-l1(n)-ness, and lower
bounds for the n-th James and Von Neumann-Jordan constants.

A witness family for a given delta lives on the K = 2^(n-1) nested annuli
(eps^(k+1), eps^k).  Function i carries the i-th row of the block sign
matrix, so for every choice of signs the combination sum_i s_i f_i has one
annulus where all rows agree and the coefficients add up to n.  That single
annulus already pushes the norm above n(1-eps^alpha)^(1/p) times the
pure-power norm, which beats the n(1-delta) threshold whenever eps is small
enough.

Every combination norm, and the norm of the base function in the NJ ratio,
is the profile's closed-form centered supremum: one closedform.centered_sups
call scores all 2^(n-1) combinations from one prefix matrix, and no ball
search runs on this path.
"""

import math
import sys
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .core import (
    Annulus,
    FiniteVectorTuple,
    MorreyParams,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
    SignMatrix,
    WitnessFamily,
    sign_matrix,
    warn_if_underflow,
)
from . import closedform
from .numeric import DEFAULT_SEARCH

#: Another name for DEFAULT_SEARCH, kept only because perfbench/workloads.py
#: passes it to its reference search; the witness path runs no search.
WITNESS_SEARCH = DEFAULT_SEARCH

JAMES = "james"
VON_NEUMANN_JORDAN = "von_neumann_jordan"


@dataclass(frozen=True)
class SignedCombinationReport:
    """All 2^(n-1) signed-combination norms of a witness family.

    Patterns list the signs (s_2, ..., s_n); the first sign is pinned to +1
    because the norm is even.  pattern is the minimizing one.
    """

    patterns: tuple
    reports: tuple
    min_over_patterns: float
    pattern: tuple

    def __post_init__(self):
        values = [r.value for r in self.reports]
        if not values or min(values) != self.min_over_patterns:
            raise ParameterError("min_over_patterns must be the minimum norm")

    @property
    def norm_values(self) -> np.ndarray:
        return np.array([r.value for r in self.reports])


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
    """Construct the n normalized witness functions for a given delta.

    Annulus k = 0..K-1 is (eps^(k+1), eps^k); it receives the sign stored in
    column K-1-k of the sign matrix, so column order runs from the innermost
    annulus outward.  All functions share the modulus of the power function
    restricted to (eps^K, 1) and are divided by that restriction's norm.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    matrix = sign_matrix(n)
    bound = closedform.epsilon_upper_bound(params, delta)
    if epsilon is None:
        epsilon = bound / 2.0
    elif not (0.0 < epsilon < bound):
        raise ParameterError(
            f"epsilon must lie strictly inside (0, {bound}), got {epsilon}"
        )
    num_annuli = matrix.num_patterns
    radii = np.exp(np.arange(num_annuli + 1) * math.log(epsilon))
    if not radii[num_annuli] >= sys.float_info.min:
        raise NumericalFailure(
            f"n={n} needs K={num_annuli} annuli and the innermost radius "
            f"epsilon^K = {epsilon!r}^{num_annuli} is not a positive normal "
            "double; use a larger epsilon or a smaller n"
        )
    warn_if_underflow(params, epsilon, num_annuli)
    if closedform.shell_integral(params, radii[num_annuli], radii[num_annuli - 1]) == 0.0:
        raise NumericalFailure(
            f"n={n} needs K={num_annuli} annuli and the innermost one's mass, at epsilon = "
            f"{epsilon!r} and alpha = {params.alpha!r}, underflows to 0; use a larger epsilon "
            "or a smaller n")

    shared = closedform.centered_norm(
        PiecewiseRadialPower.power_restriction(params, radii[num_annuli], 1.0)
    ).value

    functions = []
    for i in range(n):
        segments = []
        for k in range(num_annuli - 1, -1, -1):
            sign = float(matrix.entries[i, num_annuli - 1 - k])
            segments.append((Annulus(radii[k + 1], radii[k]), sign / shared))
        functions.append(PiecewiseRadialPower(params, tuple(segments)))

    return WitnessFamily(
        params=params, n=n, delta=delta, epsilon=epsilon,
        functions=tuple(functions), shared_norm=shared,
    )


def combination_coefficients(matrix: SignMatrix) -> np.ndarray:
    """Per-column coefficients of every signed combination of the rows.

    Row j of the result is the coefficient vector of the combination whose
    signs are column j of the matrix; entry (j, c) is the coefficient on
    column c.  Exactly one entry per row reaches n, where the sign pattern
    matches the column.
    """
    m = matrix.entries.astype(np.int32)
    return m.T @ m


def min_signed_norm(family: WitnessFamily) -> SignedCombinationReport:
    """Norms of all 2^(n-1) signed combinations and their minimum.

    Each norm is the combination's closed-form centered supremum, all from
    one closedform.centered_sups call: a lower bound for its Morrey norm,
    which is what the verdict needs.  The moduli of mixed-sign combinations
    need not be radially monotone, yet the off-center search finds no ball
    above these values (test_witness_patterns_equal_their_centered_sup).
    """
    matrix = sign_matrix(family.n)
    # Column k of the coefficients and segment k of every function are
    # annulus k, innermost first.  A coefficient is +-m / shared_norm with
    # m <= n, so n + 1 Python powers give every |coeff|^p.
    levels = np.array([(m / family.shared_norm) ** family.params.p
                       for m in range(family.n + 1)])
    cp = levels[np.abs(combination_coefficients(matrix))].T
    reports = closedform.centered_sups(
        family.params, *closedform.annulus_ends(family.functions[0]), cp)
    patterns = tuple(map(tuple, matrix.entries[1:].T.tolist()))
    values = [r.value for r in reports]
    argmin = int(np.argmin(values))
    return SignedCombinationReport(patterns=patterns, reports=tuple(reports),
                                   min_over_patterns=values[argmin], pattern=patterns[argmin])


def theoretical_lower_bound(family: WitnessFamily) -> float:
    """n (1 - eps^alpha)^(1/p) ||power|| / shared_norm, valid for every pattern."""
    chunk = closedform.chunk_lower_bound(family.params, family.epsilon)
    return family.n * chunk / family.shared_norm


_ENVELOPE_SLACK = 1e-8


def _check_envelope(family: WitnessFamily, report: SignedCombinationReport) -> None:
    """Every combination norm must sit inside the two-sided analytic bound."""
    lower = theoretical_lower_bound(family)
    upper = float(family.n)
    for pattern, r in zip(report.patterns, report.reports):
        where = f"pattern {pattern}, ball {r.argmax_ball}"
        if r.value < lower * (1.0 - _ENVELOPE_SLACK):
            raise NumericalFailure(
                f"combination norm {r.value} at {where} fell below the analytic bound {lower}")
        if r.value > upper * (1.0 + _ENVELOPE_SLACK):
            raise NumericalFailure(
                f"combination norm {r.value} at {where} exceeds the cap {upper}")


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
        nj_ratio=_family_nj_ratio(family, report),
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
    for x in deltas:
        if not (0.0 < x < 1.0):
            raise ParameterError(f"delta must lie in (0, 1), got {x}")
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


def _tuple_signed_norms(vectors: FiniteVectorTuple) -> np.ndarray:
    matrix = sign_matrix(vectors.n)
    combos = matrix.entries.astype(float).T @ vectors.vectors
    return vectors.vector_norms(combos)


def nj_ratio(obj) -> float:
    """sum over signs of ||x_1 +- ... +- x_n||^2 over 2^(n-1) sum ||x_i||^2.

    Equals 1 identically for Euclidean tuples: expanding the squares, every
    cross term is multiplied by a balanced set of signs and cancels.  For a
    witness family, every norm is a closed-form centered supremum (see
    min_signed_norm).
    """
    if isinstance(obj, FiniteVectorTuple):
        norms = obj.vector_norms()
        if np.any(norms == 0.0):
            raise ParameterError("all tuple elements must be nonzero")
        signed = _tuple_signed_norms(obj)
        return float(np.sum(signed**2) / (signed.size * np.sum(norms**2)))
    if isinstance(obj, WitnessFamily):
        return _family_nj_ratio(obj, min_signed_norm(obj))
    raise ParameterError(f"unsupported operand {type(obj).__name__}")


def _family_nj_ratio(family: WitnessFamily,
                     combinations: SignedCombinationReport) -> float:
    # All family members share one modulus, hence the one norm base.
    base = closedform.centered_norm(family.functions[0]).value
    signed = combinations.norm_values
    return float(np.sum(signed**2) / (signed.size * family.n * base**2))


def j_nj_inequality_check(samples, rel_tol: float = 1e-9) -> JNJCheckReport:
    """Verify min^2 <= mean of squared signed norms on every sample.

    This is the quadratic-mean step that links the two constants; taking
    suprema over unit tuples turns it into J^2 <= n * NJ.  Returns the worst
    min^2 / mean-square ratio and the index of the worst sample.
    """
    worst = (-math.inf, -1)
    for idx, sample in enumerate(samples):
        if isinstance(sample, FiniteVectorTuple):
            signed = _tuple_signed_norms(sample)
        elif isinstance(sample, WitnessFamily):
            signed = min_signed_norm(sample).norm_values
        else:
            raise ParameterError(f"unsupported sample {type(sample).__name__}")
        mean_sq = float(np.mean(signed**2))
        if mean_sq == 0.0:
            continue  # all combinations vanish; the bound is trivial
        ratio = float(np.min(signed)) ** 2 / mean_sq
        if ratio > worst[0]:
            worst = (ratio, idx)
    return JNJCheckReport(
        passed=bool(worst[0] <= 1.0 + rel_tol),
        worst_ratio=worst[0],
        worst_index=worst[1],
    )
