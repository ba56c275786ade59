"""The benchmark's workloads: seeded inputs, the public calls a pass times,
and the correctness checks that run outside the timed region.

Every workload calls the same public functions as a CLI subcommand, in
process.  Inputs depend only on the seed; the program sees only the
generated inputs.  Profile collections are stratified (a full factorial
over dimension, monotonicity and segment count, with random exponents,
radii, coefficients and balls inside each cell), so a pass does the same
amount of work whatever the seed and the timings are comparable across
seeds.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from program import closedform, constants, core, document, numeric, sampling

#: Relative tolerance of every reference comparison and analytic bound.
#: Measured deviations are about 1e-15; this only catches real errors.
REL_TOL = 1e-9


@dataclass
class Inputs:
    calls: list            # one argument per timed public call
    items_per_call: list   # items each call completes
    describe: dict         # summary written to the run metadata


@dataclass
class Checked:
    checks: int = 0
    failed_items: int = 0
    compared: int = 0       # comparisons with an exact reference
    max_rel_err: float = 0.0
    messages: list = field(default_factory=list)

    def expect(self, ok, message):
        self.checks += 1
        if not ok:
            self.messages.append(message)
        return bool(ok)

    def close(self, value, exact, what):
        """value within REL_TOL of an exact reference; tracks the largest
        relative deviation seen."""
        err = abs(value - exact) / abs(exact) if exact != 0.0 else abs(value)
        self.compared += 1
        self.max_rel_err = max(self.max_rel_err, err)
        return self.expect(err <= REL_TOL,
                           f"{what}: {value!r} vs exact {exact!r} (rel {err:.3g})")


class CallFailed:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc):
        self.message = f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable    # (seed, smoke) -> Inputs
    call: Callable           # one timed public call
    reference: Callable      # Inputs -> data for check, computed untimed
    check: Callable          # (Inputs, reference, outputs, Checked) -> None
    one_item_per_call: bool  # whether item latency is per item

    def warm_up(self):
        """One untimed call on a fixed tiny input, to pay lazy set-up."""
        self.call(self.make_inputs(0, True).calls[0])


def _profile(params, rng, segments, monotone):
    """sampling.random_bounded_profile conditioned on the segment count.

    The generator draws the count first and everything else given the
    count, so redrawing with max_segments=segments keeps its distribution.
    """
    while True:
        profile = sampling.random_bounded_profile(
            params, rng, max_segments=segments, monotone=monotone)
        if len(profile.segments) == segments:
            return profile


def _stratified_profiles(rng, segment_counts):
    """One profile per (d, monotone, segment count) cell; p and q come from
    sampling.random_params, whose own d draw is replaced by the cell's."""
    cells = []
    for d in (1, 2, 3):
        for monotone in (False, True):
            for segments in segment_counts:
                drawn = sampling.random_params(rng)
                params = core.MorreyParams(p=drawn.p, q=drawn.q, d=d)
                cells.append((_profile(params, rng, segments, monotone), monotone))
    return cells


# --- witness-ladder ----------------------------------------------------------
# Why: the O(4^n) certificate.  estimate_constants at n=5 runs 16 pattern
# searches plus one base search per rung, all over one set of 16 annuli, and
# the grid and Nelder-Mead stages take nearly all of it.  ROADMAP items 3
# (pattern-batched sparse verification) and 5 (log-radius annuli) act here;
# peak RSS comes from the dense (balls x annuli x quad points) tensor.

WITNESS_PARAMS = core.MorreyParams(p=1.0, q=2.0, d=2)


def _witness_inputs(seed, smoke):
    rng = np.random.default_rng(seed)
    n, rungs = (2, 2) if smoke else (5, 3)
    deltas = np.exp(rng.uniform(math.log(0.005), math.log(0.3), rungs))
    ladder = {"n": n, "deltas": sorted((float(x) for x in deltas), reverse=True)}
    return Inputs(calls=[ladder], items_per_call=[rungs * 2 ** (n - 1)],
                  describe={"p": 1.0, "q": 2.0, "d": 2, **ladder})


def _witness_call(ladder):
    return constants.estimate_constants(WITNESS_PARAMS, ladder["n"], ladder["deltas"])


def _witness_reference(inputs):
    """Norm of each rung's base function, which is normalised to exactly 1."""
    ladder = inputs.calls[0]
    return [
        numeric.morrey_norm_numeric(
            constants.build_witnesses(WITNESS_PARAMS, ladder["n"], delta).functions[0],
            constants.WITNESS_SEARCH,
        ).value
        for delta in ladder["deltas"]
    ]


def _witness_check(inputs, base_norms, outputs, out):
    ladder, result = inputs.calls[0], outputs[0]
    n = ladder["n"]
    patterns = 2 ** (n - 1)
    if isinstance(result, CallFailed):
        out.expect(False, result.message)
        out.failed_items += inputs.items_per_call[0]
        return
    if not out.expect(len(result.rows) == len(ladder["deltas"])
                      and result.james.lower_bound
                      == max(r.min_signed_norm for r in result.rows)
                      and result.von_neumann_jordan.lower_bound
                      == max(r.nj_ratio for r in result.rows),
                      "the estimates are not the maxima over the ladder rows"):
        out.failed_items += inputs.items_per_call[0]
        return
    lo, hi = 1.0 - REL_TOL, 1.0 + REL_TOL
    for row, delta, base in zip(result.rows, ladder["deltas"], base_norms):
        tag = f"delta={delta!r}"
        # Every signed norm lies in [min, n], so their mean square bounds the
        # NJ ratio from both sides.
        nj_lo, nj_hi = row.min_signed_norm ** 2 / (n * base ** 2), n / base ** 2
        results = [
            out.close(base, 1.0, f"{tag} base function norm"),
            out.expect(row.delta == delta, f"{tag}: row is for delta={row.delta!r}"),
            out.expect(row.min_signed_norm > n * (1.0 - delta),
                       f"{tag}: verdict FAIL, min signed norm {row.min_signed_norm!r}"),
            out.expect(row.theoretical_lower_bound * lo <= row.min_signed_norm <= n * hi,
                       f"{tag}: min signed norm {row.min_signed_norm!r} outside "
                       f"[{row.theoretical_lower_bound!r}, {n}]"),
            out.expect(nj_lo * lo <= row.nj_ratio <= nj_hi * hi,
                       f"{tag}: nj ratio {row.nj_ratio!r} outside [{nj_lo!r}, {nj_hi!r}]"),
        ]
        if not all(results):
            out.failed_items += patterns


# --- oracle-battery ------------------------------------------------------------
# Why: the `oracle-compare` path on single profiles: the same grid and
# Nelder-Mead search at DEFAULT_SEARCH, but few annuli, a large grid and no
# pattern sharing, so pattern batching (ROADMAP item 3) is bypassed and
# should change nothing here.  Also the only workload on the d=1 and d=3
# objective paths.  ROADMAP item 4 (certified bounds) makes its
# non-monotone check two-sided.


def _oracle_inputs(seed, smoke):
    rng = np.random.default_rng(seed)
    cells = _stratified_profiles(rng, (1,) if smoke else (1, 2, 3, 4, 5))
    docs = [(document.format_profile_document(p), m) for p, m in cells]
    return Inputs(calls=docs, items_per_call=[1] * len(docs),
                  describe={"documents": len(docs), "segments": "1-5",
                            "search": "DEFAULT_SEARCH"})


def _oracle_call(doc):
    profile = document.parse_profile_document(doc[0])
    closed = closedform.centered_norm(profile).value
    found = numeric.morrey_norm_numeric(profile, numeric.DEFAULT_SEARCH).value
    return closed, found, numeric.monotone_profile_check(profile)


def _oracle_check(inputs, _reference, outputs, out):
    for i, ((_text, monotone), result) in enumerate(zip(inputs.calls, outputs)):
        if isinstance(result, CallFailed):
            out.expect(False, f"document {i}: {result.message}")
            out.failed_items += 1
            continue
        closed, found, checked = result
        ok = out.expect(checked == monotone and closed > 0.0,
                        f"document {i}: monotone check {checked}, generated "
                        f"{monotone}, closed norm {closed!r}")
        if monotone:
            ok = out.close(found, closed, f"document {i} numeric vs closed norm") and ok
        else:
            ok = out.expect(found >= closed * (1.0 - REL_TOL),
                            f"document {i}: numeric {found!r} below closed {closed!r}") and ok
        if not ok:
            out.failed_items += 1


# --- exact-catalog -------------------------------------------------------------
# Why: exact evaluation with many segments and no search.  The scalar
# closed-form centered search and the adaptive `quad` path of ball_p_integral
# do the work; the grid and refinement stages do none, so changes to them
# should show no change here.  ROADMAP item 2's single mass kernel rewrites
# exactly these two paths and shows its cost or gain here.

CENTERED_BALLS, OFFCENTER_BALLS = 3, 5


def _exact_inputs(seed, smoke):
    rng = np.random.default_rng(seed)
    counts = (1, 4) if smoke else tuple(int(k) for k in np.linspace(1, 40, 17).round())
    docs = []
    for profile, _monotone in _stratified_profiles(rng, counts):
        support = profile.support_radius
        radii = support * np.exp(rng.uniform(math.log(0.02), math.log(1.5),
                                              CENTERED_BALLS + OFFCENTER_BALLS))
        centers = np.concatenate([np.zeros(CENTERED_BALLS),
                                  support * rng.uniform(0.05, 1.2, OFFCENTER_BALLS)])
        balls = [(float(a), float(r)) for a, r in zip(centers, radii)]
        docs.append((document.format_profile_document(profile), balls))
    return Inputs(calls=docs, items_per_call=[1] * len(docs),
                  describe={"documents": len(docs), "segments": list(counts),
                            "balls_per_document": len(docs[0][1])})


def _exact_call(doc):
    text, balls = doc
    profile = document.parse_profile_document(text)
    norm = closedform.centered_norm(profile).value
    return norm, [numeric.ball_p_integral(profile, core.Ball(a, r)) for a, r in balls]


def _mass_between(profile, lo, hi):
    """Exact p-integral of the profile over lo < |x| < hi, by annuli."""
    params, total = profile.params, 0.0
    for ann, coeff in profile.segments:
        s_lo, s_hi = max(ann.r_lo, lo), min(ann.r_hi, hi)
        if coeff != 0.0 and s_hi > s_lo:
            total += abs(coeff) ** params.p * closedform.annulus_p_integral(
                params, core.Annulus(s_lo, s_hi))
    return total


def _exact_reference(inputs):
    """Per ball: ("exact", mass) for centered and d=1 balls, else
    ("bounds", lo, hi) with mass(B(0, R-a)) <= mass(B(a, R)) <= mass(B(0, R+a));
    per document: the best centered-ball quantity, a floor for the norm."""
    refs = []
    for text, balls in inputs.calls:
        profile = document.parse_profile_document(text)
        params = profile.params
        per_ball, floor = [], 0.0
        for a, r in balls:
            if a == 0.0:
                mass = _mass_between(profile, 0.0, r)
                per_ball.append(("exact", mass))
                if mass > 0.0:
                    floor = max(floor, params.ball_volume(r) ** (1 / params.q - 1 / params.p)
                                * mass ** (1 / params.p))
            elif params.d == 1:
                # the interval (a-r, a+r), folded onto the half line
                per_ball.append(("exact", 0.5 * (_mass_between(profile, max(a - r, 0.0), a + r)
                                                 + _mass_between(profile, 0.0, r - a))))
            else:
                per_ball.append(("bounds", _mass_between(profile, 0.0, r - a),
                                 _mass_between(profile, 0.0, r + a)))
        refs.append((per_ball, floor))
    return refs


def _exact_check(inputs, refs, outputs, out):
    for i, (result, (per_ball, floor)) in enumerate(zip(outputs, refs)):
        if isinstance(result, CallFailed):
            out.expect(False, f"document {i}: {result.message}")
            out.failed_items += 1
            continue
        norm, masses = result
        results = [out.expect(len(masses) == len(per_ball),
                              f"document {i}: {len(masses)} masses for "
                              f"{len(per_ball)} balls"),
                   out.expect(norm >= floor * (1.0 - REL_TOL),
                              f"document {i}: centered norm {norm!r} below the "
                              f"centered-ball quantity {floor!r}")]
        for j, (mass, ref) in enumerate(zip(masses, per_ball)):
            what = f"document {i} ball {j}"
            if ref[0] == "exact":
                results.append(out.close(mass, ref[1], what))
            else:
                results.append(out.expect(
                    ref[1] * (1.0 - REL_TOL) <= mass <= ref[2] * (1.0 + REL_TOL),
                    f"{what}: mass {mass!r} outside [{ref[1]!r}, {ref[2]!r}]"))
        if not all(results):
            out.failed_items += 1


def _no_reference(_inputs):
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="witness-ladder",
            why="O(4^n) witness certificates: estimate_constants at n=5, d=2 on a "
                "seeded 3-rung delta ladder; grid and Nelder-Mead dominate "
                "(ROADMAP items 3 and 5)",
            make_inputs=_witness_inputs, call=_witness_call,
            reference=_witness_reference, check=_witness_check,
            one_item_per_call=False),
        Workload(
            name="oracle-battery",
            why="oracle-compare on single profiles, d=1..3: same search, few "
                "annuli, no pattern sharing, so pattern batching should not "
                "matter (ROADMAP items 3, 4)",
            make_inputs=_oracle_inputs, call=_oracle_call,
            reference=_no_reference, check=_oracle_check,
            one_item_per_call=True),
        Workload(
            name="exact-catalog",
            why="closed-form centered search and adaptive quad ball integrals on "
                "profiles with up to 40 segments; no grid or refinement "
                "(ROADMAP item 2)",
            make_inputs=_exact_inputs, call=_exact_call,
            reference=_exact_reference, check=_exact_check,
            one_item_per_call=True),
    )
}
