import dataclasses
import math
import warnings

import numpy as np
import pytest

from morreykit import (
    ConstantEstimate,
    FiniteVectorTuple,
    MorreyParams,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
    build_witnesses,
    centered_norm,
    combination_coefficients,
    epsilon_upper_bound,
    j_nj_inequality_check,
    min_signed_norm,
    morrey_norm_numeric,
    nj_ratio,
    power_norm_exact,
    sign_matrix,
    verify_non_ell1n,
)
from morreykit import cli, numeric
from morreykit.constants import _check_envelope, estimate_constants
from morreykit.sampling import random_euclidean_tuple, random_lp_tuple
from witness_reference import _combination_profiles, _running_centered_sup

P121 = MorreyParams(1.0, 2.0, 1)
P122 = MorreyParams(1.0, 2.0, 2)


def _separate_nj_ratio(family, report):
    """The NJ ratio with the base norm of functions[0] from a search of its
    own: sum of squared signed norms over 2^(n-1) n ||functions[0]||^2."""
    base = morrey_norm_numeric(family.functions[0]).value
    signed = report.norm_values
    return float(np.sum(signed**2) / (signed.size * family.n * base**2))


class TestBuildWitnesses:
    def test_default_epsilon_is_half_the_bound(self):
        family = build_witnesses(P121, 3, 0.1)
        assert math.isclose(
            family.epsilon, epsilon_upper_bound(P121, 0.1) / 2.0, rel_tol=1e-14
        )

    def test_epsilon_interval_enforced(self):
        bound = epsilon_upper_bound(P121, 0.1)
        with pytest.raises(ParameterError):
            build_witnesses(P121, 3, 0.1, epsilon=bound)
        with pytest.raises(ParameterError):
            build_witnesses(P121, 3, 0.1, epsilon=0.0)
        build_witnesses(P121, 3, 0.1, epsilon=bound * 0.999)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, 2.0])
    def test_delta_range(self, delta):
        with pytest.raises(ParameterError):
            build_witnesses(P121, 3, delta)

    def test_third_function_sign_layout(self):
        # signs of f_3 over the annuli k = 3, 2, 1, 0 run +, -, +, -
        family = build_witnesses(P121, 3, 0.5, epsilon=0.05)
        f3 = family.functions[2]
        eps = family.epsilon
        inv = 1.0 / family.shared_norm
        # segments are sorted by r_lo: k = 3 (innermost) first
        expected_signs = [1.0, -1.0, 1.0, -1.0]
        for (ann, coeff), sign, k in zip(f3.segments, expected_signs, [3, 2, 1, 0]):
            assert math.isclose(ann.r_lo, eps ** (k + 1), rel_tol=1e-12)
            assert math.isclose(ann.r_hi, eps**k, rel_tol=1e-12)
            assert math.isclose(coeff, sign * inv, rel_tol=1e-12)

    def test_functions_have_unit_norm(self):
        family = build_witnesses(P122, 3, 0.2)
        for f in family.functions:
            assert math.isclose(centered_norm(f).value, 1.0, rel_tol=1e-10)
        # the numeric search does not find anything better off-center
        report = morrey_norm_numeric(family.functions[0])
        assert math.isclose(report.value, 1.0, rel_tol=1e-6)

    def test_prenormalization_norms_all_equal(self):
        # every function has modulus equal to the restricted power function,
        # so the shared norm is the norm of each of them
        family = build_witnesses(P121, 4, 0.1)
        restricted = PiecewiseRadialPower.power_restriction(
            P121, family.epsilon**family.num_annuli, 1.0
        )
        assert math.isclose(
            family.shared_norm, centered_norm(restricted).value, rel_tol=1e-14
        )

    def test_underflow_warning(self):
        # alpha = 2 and 1024 annuli: eps^(alpha K) is subnormal, about
        # 1e-311, while the boundaries stay normal and the innermost mass
        # stays positive (test_innermost_mass_underflow_raises has it at 0)
        with pytest.warns(RuntimeWarning):
            build_witnesses(MorreyParams(1.0, 3.0, 3), 11, 0.5, epsilon=0.705)

    @pytest.mark.parametrize("d,n,delta", [(2, 5, 0.005), (1, 8, 0.1), (2, 8, 0.1)])
    def test_no_warning_above_the_limits(self, d, n, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_witnesses(MorreyParams(1, 2, d), n, delta)

    def test_innermost_radius_underflow_raises(self):
        # alpha = 1/2 < 1: eps^K underflows to 0 at n = 9 (K = 256) while
        # eps^(alpha K) is still above the warning threshold
        with pytest.raises(NumericalFailure, match=r"n=9.*K=256.*0\.005"):
            build_witnesses(P121, 9, 0.1)

    def test_innermost_mass_underflow_raises(self):
        # d = 3, q = 3.5: eps^K = 2.6e-158 is a normal double, but with
        # alpha = 15/7 the innermost annulus' mass underflows to 0
        params = MorreyParams(1.0, 3.5, 3)
        with pytest.warns(RuntimeWarning), pytest.raises(
                NumericalFailure, match=r"n=8.*K=128.*alpha = 2\.14.*underflows"):
            build_witnesses(params, 8, 0.01)


class TestCombinationCoefficients:
    def test_n2_combinations(self):
        coeffs = combination_coefficients(sign_matrix(2))
        rows = {tuple(int(c) for c in row) for row in np.abs(coeffs)}
        assert rows == {(2, 0), (0, 2)}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_walsh_domination(self, n):
        coeffs = np.abs(combination_coefficients(sign_matrix(n)))
        assert np.all(coeffs.max(axis=1) == n)
        assert np.all((coeffs == n).sum(axis=1) == 1)
        assert np.all(coeffs <= n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_annulus_dominated_once(self, n):
        # across patterns, every annulus is the dominated one exactly once
        coeffs = np.abs(combination_coefficients(sign_matrix(n)))
        assert np.all((coeffs == n).sum(axis=0) == 1)


class TestMinSignedNorm:
    def test_reference_case(self):
        family = build_witnesses(P121, 3, 0.1, epsilon=0.005)
        report = min_signed_norm(family)
        assert report.min_over_patterns > 2.7
        assert len(report.reports) == 4
        assert report.pattern in report.patterns

    def test_sandwich(self):
        # pre-normalization combination norms lie between the chunk bound
        # and n times the shared norm
        for params, n, delta in [(P121, 3, 0.1), (P122, 2, 0.2)]:
            family = build_witnesses(params, n, delta)
            report = min_signed_norm(family)
            lower = n * (1.0 - family.epsilon**params.alpha) ** (1.0 / params.p) \
                * power_norm_exact(params)
            for r in report.reports:
                pre = r.value * family.shared_norm
                assert pre >= lower * (1.0 - 1e-8)
                assert pre <= n * family.shared_norm * (1.0 + 1e-8)

    def test_monotone_in_epsilon(self):
        values = []
        for eps in (0.2, 0.08, 0.02, 0.004):
            family = build_witnesses(P121, 3, 0.9, epsilon=eps)
            values.append(min_signed_norm(family).min_over_patterns)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_threads_env_leaves_norms_unchanged(self, monkeypatch):
        family = build_witnesses(P121, 3, 0.1)
        serial = min_signed_norm(family)
        monkeypatch.setenv("MORREYKIT_THREADS", "3")
        threaded = min_signed_norm(family)
        assert serial.norm_values.tolist() == threaded.norm_values.tolist()


def _reference_grid():
    for n in range(2, 9):
        for d in (1, 2, 3):
            for p in (1.0, 1.5):
                for q in (2.0, 3.5):
                    for delta in (0.3, 0.1, 0.01):
                        yield n, MorreyParams(p, q, d), delta


class TestPatternsEqualPerProfileLoop:
    """min_signed_norm scores all patterns from one prefix matrix; each
    pattern's value and radius equal a running-sum loop over that pattern's
    own profile exactly."""

    def test_grid(self):
        checked = 0
        for n, params, delta in _reference_grid():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    family = build_witnesses(params, n, delta)
            except NumericalFailure:
                continue  # an innermost radius or mass that underflows
            report = min_signed_norm(family)
            for (pattern, profile), got, have in zip(
                    _combination_profiles(family), report.reports, report.patterns):
                assert have == pattern
                value, radius = _running_centered_sup(profile)
                assert got.value == value, (n, params, delta, pattern)
                assert got.argmax_ball.radius == radius, (n, params, delta, pattern)
                assert got.argmax_ball.center_dist == 0.0
            checked += len(report.reports)
        # 9,180 patterns less the 9 families that build_witnesses refuses
        assert checked == 8056


class TestSharedSearch:
    """The witness path's pattern norms (centered suprema) and NJ ratio
    equal what the single-profile search finds."""

    @pytest.mark.parametrize("params", [P121, P122])
    @pytest.mark.parametrize("n", [3, 4])  # even n zeroes some coefficients
    def test_patterns_match_single_profile_search(self, params, n):
        family = build_witnesses(params, n, 0.1)
        report = min_signed_norm(family)
        for (pattern, profile), shared in zip(_combination_profiles(family),
                                              report.reports):
            alone = morrey_norm_numeric(profile).value
            assert math.isclose(shared.value, alone, rel_tol=1e-12), pattern

    @pytest.mark.parametrize("params", [P121, P122])
    @pytest.mark.parametrize("n", [3, 4])
    def test_ladder_nj_ratio_matches_standalone(self, params, n):
        row = estimate_constants(params, n, [0.1]).rows[0]
        family = build_witnesses(params, n, 0.1)
        assert math.isclose(row.nj_ratio, nj_ratio(family), rel_tol=1e-12)
        # the standalone base search on functions[0] alone
        separate = _separate_nj_ratio(family, min_signed_norm(family))
        assert math.isclose(row.nj_ratio, separate, rel_tol=1e-12)


class TestVerifyNonEll1n:
    @pytest.mark.parametrize("params,n,delta", [
        (P121, 2, 0.3),
        (P121, 3, 0.1),
        (P122, 4, 0.2),
    ])
    def test_theorem_cases(self, params, n, delta):
        report = verify_non_ell1n(params, n, delta)
        assert report.passed
        assert report.combinations.min_over_patterns > report.threshold
        assert report.theoretical_lower_bound > report.threshold
        assert len(report.combinations.reports) == 2 ** (n - 1)

    @pytest.mark.parametrize("value, failure", [(0.5, "fell below the analytic bound"),
                                                (3.5, "exceeds the cap")])
    def test_envelope_failure_names_pattern_and_ball(self, value, failure):
        family = build_witnesses(P121, 3, 0.1)
        report = min_signed_norm(family)
        reports = list(report.reports)
        reports[1] = dataclasses.replace(reports[1], value=value)
        sabotaged = dataclasses.replace(report, reports=tuple(reports),
                                        min_over_patterns=min(r.value for r in reports))
        with pytest.raises(NumericalFailure) as caught:
            _check_envelope(family, sabotaged)
        message = str(caught.value)
        assert failure in message
        assert f"pattern {report.patterns[1]}" in message
        assert f"ball {reports[1].argmax_ball}" in message

    def test_report_carries_inputs(self):
        report = verify_non_ell1n(P121, 2, 0.3, epsilon=0.01)
        family = report.family
        assert (family.params, family.n, family.delta) == (P121, 2, 0.3)
        assert family.epsilon == 0.01
        assert report.threshold == 2 * 0.7
        assert family.shared_norm > 0


class TestWitnessPathRunsNoSearch:
    """Every witness-path norm is a closed-form centered supremum: with the
    batched search objective made to raise, the library calls and the CLI
    commands on witness families all still run."""

    @pytest.fixture(autouse=True)
    def refuse_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness path ran the ball search")

        monkeypatch.setattr(numeric._BatchObjective, "__call__", refuse)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [3, 5])
    def test_library(self, n, d):
        params = MorreyParams(1.0, 2.0, d)
        assert verify_non_ell1n(params, n, 0.1).passed
        ladder = estimate_constants(params, n, [0.3, 0.1])
        family = build_witnesses(params, n, 0.1)
        assert nj_ratio(family) == ladder.rows[1].nj_ratio
        assert j_nj_inequality_check([family]).passed

    @pytest.mark.parametrize("d", ["1", "2"])
    @pytest.mark.parametrize("n", ["3", "5"])
    def test_cli(self, capsys, n, d):
        common = ["--d", d, "--n", n]
        sweeps = [("epsilon", "0.002", "0.004"), ("delta", "0.3", "0.1"),
                  ("q", "1.5", "3")]
        commands = [["witness", *common], ["constants", *common]] + [
            ["sweep", *common, "--vary", vary, "--start", start, "--stop", stop,
             "--steps", "2"]
            for vary, start, stop in sweeps
        ]
        for argv in commands:
            assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.count("verdict") == 1


class TestJamesLowerBound:
    def test_ladder_reaches_2_97(self):
        estimate = estimate_constants(P121, 3, [0.3, 0.1, 0.01]).james
        assert estimate.lower_bound >= 2.97
        assert estimate.lower_bound <= 3.0
        assert estimate.kind == "james"

    def test_n2_classical(self):
        estimate = estimate_constants(P121, 2, [0.1, 0.01]).james
        assert estimate.lower_bound >= 2 * 0.99
        assert estimate.lower_bound <= 2.0

    def test_sequence_validation(self):
        with pytest.raises(ParameterError):
            estimate_constants(P121, 3, [])
        with pytest.raises(ParameterError):
            estimate_constants(P121, 3, [0.1, 0.1])
        with pytest.raises(ParameterError):
            estimate_constants(P121, 3, [0.1, 0.3])
        with pytest.raises(ParameterError):
            estimate_constants(P121, 3, [1.2, 0.1])


class TestNjRatio:
    def test_euclidean_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                tup = random_euclidean_tuple(rng, n, int(rng.integers(2, 7)))
                assert math.isclose(nj_ratio(tup), 1.0, abs_tol=1e-12)

    def test_equal_vectors(self):
        tup = FiniteVectorTuple(vectors=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert math.isclose(nj_ratio(tup), 1.0, abs_tol=1e-14)

    def test_zero_vector_rejected(self):
        tup = FiniteVectorTuple(vectors=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ParameterError):
            nj_ratio(tup)

    def test_witness_family(self):
        family = build_witnesses(P121, 3, 0.01)
        report = min_signed_norm(family)
        ratio = _separate_nj_ratio(family, report)
        assert math.isclose(nj_ratio(family), ratio, rel_tol=1e-12)
        assert ratio > 2.9106
        assert ratio >= report.min_over_patterns**2 / 3 * (1.0 - 1e-9)
        assert ratio <= 3.0 + 1e-9

    def test_l1_tuple_can_exceed_one(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        tup = FiniteVectorTuple(vectors=vectors, norm="lp", exponent=1.0)
        # both signed combinations have l1 norm 2, so the ratio hits n = 2
        assert math.isclose(nj_ratio(tup), 2.0, rel_tol=1e-14)


class TestJNJInequality:
    def test_random_euclidean(self):
        rng = np.random.default_rng(11)
        samples = [random_euclidean_tuple(rng, int(rng.integers(2, 6)),
                                          int(rng.integers(2, 8)))
                   for _ in range(100)]
        report = j_nj_inequality_check(samples)
        assert report.passed
        assert report.worst_ratio <= 1.0 + 1e-9

    def test_orthonormal_pair_attains_equality(self):
        tup = FiniteVectorTuple(vectors=np.eye(2))
        report = j_nj_inequality_check([tup])
        assert report.passed
        assert math.isclose(report.worst_ratio, 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal_tuples_reach_sqrt_n(self, n):
        # every signed combination of n orthonormal vectors has norm sqrt(n),
        # the Hilbert-space value of the minimum over signs
        from morreykit.constants import _tuple_signed_norms

        tup = FiniteVectorTuple(vectors=np.eye(n))
        norms = _tuple_signed_norms(tup)
        assert np.allclose(norms, math.sqrt(n), rtol=1e-12)
        report = j_nj_inequality_check([tup])
        assert report.passed
        assert math.isclose(report.worst_ratio, 1.0, rel_tol=1e-12)

    def test_lp_tuples(self):
        rng = np.random.default_rng(12)
        samples = [random_lp_tuple(rng, 3, 5, exponent=float(e), unit=True)
                   for e in (1.0, 1.5, 4.0) for _ in range(20)]
        report = j_nj_inequality_check(samples)
        assert report.passed

    def test_witness_families(self):
        families = [build_witnesses(P121, n, 0.1) for n in (2, 3)]
        report = j_nj_inequality_check(families)
        assert report.passed


class TestConstantsLadder:
    def test_rows_and_estimates(self):
        ladder = estimate_constants(P121, 2, [0.3, 0.1])
        assert len(ladder.rows) == 2
        assert ladder.james.lower_bound == max(r.min_signed_norm for r in ladder.rows)
        assert ladder.von_neumann_jordan.lower_bound == max(
            r.nj_ratio for r in ladder.rows
        )
        assert ladder.von_neumann_jordan.kind == "von_neumann_jordan"
        for row in ladder.rows:
            assert row.min_signed_norm >= row.theoretical_lower_bound * (1 - 1e-9)

    def test_von_neumann_jordan_estimate(self):
        estimate = estimate_constants(P121, 2, [0.1]).von_neumann_jordan
        assert 1.0 <= estimate.lower_bound <= 2.0


def test_constant_estimate_caps():
    with pytest.raises(ParameterError):
        ConstantEstimate(kind="james", n=3, lower_bound=3.5, witness="", space="")
    with pytest.raises(ParameterError):
        ConstantEstimate(kind="james", n=3, lower_bound=0.5, witness="", space="")
    with pytest.raises(ParameterError):
        ConstantEstimate(kind="nope", n=3, lower_bound=2.0, witness="", space="")
