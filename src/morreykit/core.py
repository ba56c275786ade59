"""Shared domain types: Morrey exponent triples, annular power profiles,
balls, sign matrices."""

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

SIGN_MATRIX_MAX_N = 20

THREADS_ENV_VAR = "MORREYKIT_THREADS"


class ParameterError(ValueError):
    """Invalid domain parameter or malformed domain object."""


class NumericalFailure(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def thread_count() -> int:
    """The MORREYKIT_THREADS worker count (default 1).  No library path reads
    it; perfbench/run.py records it in its run metadata."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise ParameterError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    return value


def log_domain_pow(x: float, a: float) -> float:
    """x**a as exp(a*log(x)), with the x == 0 limit; avoids pow underflow chains."""
    if x < 0:
        raise ParameterError(f"negative base {x} in log-domain power")
    if x == 0.0:
        return 0.0 if a > 0 else math.inf
    return math.exp(a * math.log(x))


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2*pi^(d/2)/Gamma(d/2).

    Computed through lgamma so large d stays finite as long as the result does.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ParameterError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    return _sphere_area(d)


@functools.cache
def _sphere_area(d: int) -> float:
    """sphere_area once per validated dimension."""
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


@dataclass(frozen=True)
class MorreyParams:
    """Exponent triple (p, q, d) with 1 <= p < q and integer dimension d >= 1.

    The strict p < q keeps the decay exponent alpha = d - d*p/q positive,
    which makes every annular integral below finite.  The p == q case is a
    different space (plain L^q) and is rejected.
    """

    p: float
    q: float
    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise ParameterError(f"d must be an integer, got {self.d!r}")
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        p, q = float(self.p), float(self.q)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ParameterError("p and q must be finite")
        if not (1.0 <= p < q):
            raise ParameterError(f"need 1 <= p < q, got p={p}, q={q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def alpha(self) -> float:
        """Decay exponent d - d*p/q; positive for every valid triple."""
        return self.d - self.d * self.p / self.q

    @property
    def sphere_area(self) -> float:
        return sphere_area(self.d)

    def ball_volume(self, radius: float) -> float:
        """Lebesgue measure of a ball of the given radius."""
        return self.sphere_area / self.d * log_domain_pow(radius, self.d)


def epsilon_upper_bound_raw(params: MorreyParams, delta: float) -> float:
    """(1 - (1-delta)^p)^(q/(d q - d p)), for closedform.epsilon_upper_bound."""
    exponent = params.q / (params.d * params.q - params.d * params.p)
    return log_domain_pow(-math.expm1(params.p * math.log1p(-delta)), exponent)


@dataclass(frozen=True)
class Annulus:
    """Open annulus {x : r_lo < |x| < r_hi}; r_hi may be inf."""

    r_lo: float
    r_hi: float

    def __post_init__(self):
        lo, hi = float(self.r_lo), float(self.r_hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ParameterError("annulus radii must not be NaN")
        if lo < 0 or not lo < hi:
            raise ParameterError(f"need 0 <= r_lo < r_hi, got ({lo}, {hi})")
        object.__setattr__(self, "r_lo", lo)
        object.__setattr__(self, "r_hi", hi)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)


@dataclass(frozen=True)
class Ball:
    """A ball known only through |center| (radial symmetry) and its radius."""

    center_dist: float
    radius: float

    def __post_init__(self):
        a, r = float(self.center_dist), float(self.radius)
        if not (math.isfinite(a) and a >= 0):
            raise ParameterError(f"center_dist must be finite and >= 0, got {a}")
        if not (math.isfinite(r) and r > 0):
            raise ParameterError(f"radius must be finite and > 0, got {r}")
        object.__setattr__(self, "center_dist", a)
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class PiecewiseRadialPower:
    """x |-> sum_k coeff_k * |x|^(-d/q) * chi(annulus_k).

    Segments are (Annulus, coefficient) pairs, disjoint and sorted by r_lo.
    The single unbounded segment (0, inf, coeff 1) is the pure power
    |x|^(-d/q) itself and is only legal on its own.
    """

    params: MorreyParams
    segments: tuple

    def __post_init__(self):
        segs = []
        for entry in self.segments:
            ann, coeff = entry
            if not isinstance(ann, Annulus):
                raise ParameterError(f"segment annulus must be Annulus, got {ann!r}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ParameterError(f"segment coefficient must be finite, got {coeff}")
            segs.append((ann, coeff))
        if not segs:
            raise ParameterError("profile needs at least one segment")
        for (a1, _), (a2, _) in zip(segs, segs[1:]):
            if a2.r_lo < a1.r_hi:
                raise ParameterError(
                    f"annuli must be disjoint and sorted: ({a1.r_lo}, {a1.r_hi}) "
                    f"overlaps ({a2.r_lo}, {a2.r_hi})"
                )
        unbounded = [s for s in segs if not s[0].bounded]
        if unbounded:
            ann, coeff = unbounded[0]
            if len(segs) > 1 or ann.r_lo != 0.0 or coeff != 1.0:
                raise ParameterError(
                    "an unbounded segment is only allowed as the pure power "
                    "(r_lo=0, r_hi=inf, coeff=1) on its own"
                )
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def pure_power(cls, params: MorreyParams) -> "PiecewiseRadialPower":
        """The function |x|^(-d/q) on all of R^d."""
        return cls(params, ((Annulus(0.0, math.inf), 1.0),))

    @classmethod
    def power_restriction(cls, params: MorreyParams, r_lo: float, r_hi: float,
                          coeff: float = 1.0) -> "PiecewiseRadialPower":
        """|x|^(-d/q) restricted to the annulus (r_lo, r_hi)."""
        return cls(params, ((Annulus(r_lo, r_hi), coeff),))

    @classmethod
    def annular_chunk(cls, params: MorreyParams, epsilon: float, k: int) -> "PiecewiseRadialPower":
        """|x|^(-d/q) on the annulus (epsilon^(k+1), epsilon^k)."""
        if not (0.0 < epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
        if k < 0:
            raise ParameterError(f"chunk index must be >= 0, got {k}")
        log_eps = math.log(epsilon)
        lo = math.exp((k + 1) * log_eps)
        hi = math.exp(k * log_eps)
        return cls.power_restriction(params, lo, hi)

    @property
    def is_pure_power(self) -> bool:
        return not self.segments[-1][0].bounded

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c in self.segments], dtype=float)

    @property
    def boundaries(self) -> np.ndarray:
        """Sorted distinct annulus boundary radii."""
        vals = set()
        for ann, _ in self.segments:
            vals.add(ann.r_lo)
            vals.add(ann.r_hi)
        return np.array(sorted(vals), dtype=float)

    @property
    def support_radius(self) -> float:
        """Outer radius of the support (inf for the pure power)."""
        return self.segments[-1][0].r_hi

    def scale_coefficients(self, factor: float) -> "PiecewiseRadialPower":
        if self.is_pure_power:
            raise ParameterError("the pure power has a fixed unit coefficient")
        return PiecewiseRadialPower(
            self.params, tuple((ann, c * factor) for ann, c in self.segments)
        )

    def scale_annuli(self, factor: float) -> "PiecewiseRadialPower":
        """Dilate every annulus by a positive factor, keeping coefficients."""
        if factor <= 0 or not math.isfinite(factor):
            raise ParameterError(f"annulus scale factor must be positive, got {factor}")
        return PiecewiseRadialPower(
            self.params,
            tuple((Annulus(ann.r_lo * factor, ann.r_hi * factor), c)
                  for ann, c in self.segments),
        )


class NormMethod(str, Enum):
    CLOSED_FORM = "closed_form"
    CENTERED_SEARCH = "centered_search"
    OFFCENTER_SEARCH = "offcenter_search"


@dataclass(frozen=True)
class NormReport:
    """A norm value plus where and how it was found."""

    value: float
    argmax_ball: Ball
    method: NormMethod
    abs_uncertainty: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ParameterError(f"norm value must be finite and >= 0, got {self.value}")
        if not (math.isfinite(self.abs_uncertainty) and self.abs_uncertainty >= 0):
            raise ParameterError("abs_uncertainty must be finite and >= 0")
        if self.method is NormMethod.CLOSED_FORM and self.abs_uncertainty != 0.0:
            raise ParameterError("closed-form reports carry zero uncertainty")


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """n x 2^(n-1) matrix of +-1; row i alternates blocks of length 2^(n-i).

    Row 1 is all +1.  Restricted to rows 2..n, the columns run through every
    sign vector in {+-1}^(n-1) exactly once, so the columns double as the
    full list of sign patterns for n-term combinations with the first sign
    pinned to +1.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.n, 2 ** (self.n - 1)):
            raise ParameterError(
                f"sign matrix for n={self.n} must be {self.n} x {2 ** (self.n - 1)}"
            )
        if not np.all(np.abs(e) == 1):
            raise ParameterError("sign matrix entries must be +-1")
        if not np.all(e[0] == 1):
            raise ParameterError("first sign-matrix row must be all +1")

    @property
    def num_patterns(self) -> int:
        return self.entries.shape[1]


def sign_matrix(n: int) -> SignMatrix:
    """Block-alternating sign matrix for n functions.

    Column c (0-based) carries, in rows 2..n, the binary digits of c mapped
    to signs, which is what makes every column a distinct sign pattern.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 2 or n > SIGN_MATRIX_MAX_N:
        raise ParameterError(f"n must lie in [2, {SIGN_MATRIX_MAX_N}], got {n}")
    cols = np.arange(2 ** (n - 1), dtype=np.int64)
    shifts = np.array([n - i for i in range(1, n + 1)], dtype=np.int64)
    bits = (cols[None, :] >> shifts[:, None]) & 1
    entries = (1 - 2 * bits).astype(np.int8)
    entries.setflags(write=False)
    return SignMatrix(n=n, entries=entries)


@dataclass(frozen=True, eq=False)
class FiniteVectorTuple:
    """n vectors in R^m with a norm tag, for finite-dimensional sanity checks.

    norm is "euclidean" or "lp"; exponent is the l^p exponent (ignored for
    euclidean).
    """

    vectors: np.ndarray
    norm: str = "euclidean"
    exponent: float = 2.0

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise ParameterError("vectors must be an (n >= 2) x (m >= 1) array")
        if not np.all(np.isfinite(v)):
            raise ParameterError("vectors must be finite")
        if self.norm not in ("euclidean", "lp"):
            raise ParameterError(f"unknown norm tag {self.norm!r}")
        if self.norm == "lp" and not (self.exponent >= 1):
            raise ParameterError(f"lp exponent must be >= 1, got {self.exponent}")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def vector_norms(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Norms of the given stack of vectors (defaults to the tuple itself)."""
        v = self.vectors if rows is None else rows
        if self.norm == "euclidean":
            return np.linalg.norm(v, axis=-1)
        return np.sum(np.abs(v) ** self.exponent, axis=-1) ** (1.0 / self.exponent)
