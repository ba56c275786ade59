import math
import os

import pytest

from morreykit import MorreyParams, cli, constants


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


@pytest.fixture
def pure_power_doc(tmp_path):
    path = tmp_path / "pure.profile"
    path.write_text("p = 1\nq = 2\nd = 1\nsegment = 0 inf 1\n")
    return str(path)


@pytest.fixture
def annulus_doc(tmp_path):
    path = tmp_path / "annulus.profile"
    path.write_text("p = 1\nq = 2\nd = 1\nsegment = 0.25 1 1\n")
    return str(path)


class TestNorm:
    def test_pure_power_value(self, capsys, pure_power_doc):
        code, out, _ = run(capsys, "norm", pure_power_doc, "--method", "closed")
        assert code == 0
        pairs = parse_kv(out)
        assert math.isclose(float(pairs["value"]), 2.828427, rel_tol=1e-5)
        assert pairs["method"] == "closed_form"
        assert float(pairs["abs_uncertainty"]) == 0.0

    def test_pure_power_numeric_is_closed_form(self, capsys, pure_power_doc):
        code, out, _ = run(capsys, "norm", pure_power_doc, "--method", "numeric")
        assert code == 0
        pairs = parse_kv(out)
        assert math.isclose(float(pairs["value"]), 2.828427, rel_tol=1e-5)
        assert pairs["method"] == "closed_form"
        assert float(pairs["abs_uncertainty"]) == 0.0

    def test_both_methods_agree(self, capsys, annulus_doc):
        code, out, _ = run(capsys, "norm", annulus_doc)
        assert code == 0
        pairs = parse_kv(out)
        assert float(pairs["relative_difference"]) < 1e-3
        assert math.isclose(float(pairs["closed_value"]), math.sqrt(2), rel_tol=1e-9)

    def test_empty_segments_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.profile"
        path.write_text("p = 1\nq = 2\nd = 1\n")
        code, _, err = run(capsys, "norm", str(path))
        assert code == 2
        assert "no segments" in err

    def test_parse_diagnostic_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p = 1\nq = 2\nd = 1\nsegment = a b c\n")
        code, _, err = run(capsys, "norm", str(path))
        assert code == 2
        assert "line 4" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "norm", str(tmp_path / "nope.profile"))
        assert code == 2

    def test_emit_profile_round_trip(self, capsys, annulus_doc, tmp_path):
        emitted = tmp_path / "canonical.profile"
        code, _, _ = run(capsys, "norm", annulus_doc, "--emit-profile", str(emitted))
        assert code == 0
        from morreykit import load_profile
        assert load_profile(str(emitted)) == load_profile(annulus_doc)

    def test_search_flags(self, capsys, annulus_doc):
        # The search has no settings and only oracle-compare --random draws
        # random numbers, so every subcommand refuses these flags.
        commands = {
            "norm": [annulus_doc], "witness": [], "constants": [],
            "sweep": ["--vary", "q", "--start", "2", "--stop", "3", "--steps", "2"],
            "oracle-compare": ["--random", "1"],
        }
        for command, args in commands.items():
            flags = ["--center-grid", "--radius-grid", "--mc-samples", "--quad-points"]
            if command != "oracle-compare":
                flags.append("--seed")
            for flag in flags:
                code, _, err = run(capsys, command, *args, flag, "8")
                assert code == 2 and flag in err, (command, flag)


class TestWitness:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3", "--delta", "0.1")
        assert code == 0
        pairs = parse_kv(out)
        assert pairs["verdict"] == "PASS"
        assert float(pairs["min_signed_norm"]) > 2.7
        assert math.isclose(float(pairs["threshold"]), 2.7, rel_tol=1e-12)
        assert "norm_+++" in pairs and "norm_+--" in pairs

    def test_n1_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "1")
        assert code == 2

    def test_delta_out_of_range(self, capsys):
        code, _, err = run(capsys, "witness", "--delta", "1.5")
        assert code == 2
        assert "delta" in err

    def test_underflowing_radius_exit_3(self, capsys, tmp_path):
        # the verdict needs no radii; only the written profiles do
        argv = ["witness", "--n", "9", "--d", "1", "--delta", "0.1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and parse_kv(out)["verdict"] == "PASS"
        code, out, err = run(capsys, *argv, "--emit-profiles", str(tmp_path / "w"))
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "n=9" in err and "K=256" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_mass_exit_3(self, capsys, tmp_path):
        # a normal innermost radius whose annulus' mass underflows to 0
        argv = ["witness", "--d", "3", "--q", "3.5", "--n", "8", "--delta", "0.01"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and parse_kv(out)["verdict"] == "PASS"
        code, out, err = run(capsys, *argv, "--emit-profiles", str(tmp_path / "w"))
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "underflows" in err and "K=128" in err

    def test_subnormal_mass_family_passes(self, capsys):
        # subnormal annulus masses once put this family 1e-11 below its bound
        code, out, _ = run(capsys, "witness", "--d", "2", "--q", "8", "--n", "8",
                           "--delta", "0.01")
        assert code == 0
        pairs = parse_kv(out)
        assert pairs["verdict"] == "PASS"
        assert float(pairs["min_signed_norm"]) >= float(pairs["theoretical_lower_bound"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_subnormal_masses_still_pass(self, capsys):
        code, out, _ = run(capsys, "witness", "--d", "3", "--n", "8", "--delta", "0.01")
        assert code == 0
        assert parse_kv(out)["verdict"] == "PASS"

    def test_epsilon_out_of_range(self, capsys):
        code, _, err = run(capsys, "witness", "--delta", "0.1", "--epsilon", "0.5")
        assert code == 2

    def test_emit_profiles(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = constants.build_witnesses

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(constants, "build_witnesses", counted)
        outdir = tmp_path / "witnesses"
        code, _, _ = run(capsys, "witness", "--n", "2", "--delta", "0.2",
                         "--emit-profiles", str(outdir))
        assert code == 0
        assert len(calls) == 1  # the verified family is the one written
        files = sorted(os.listdir(outdir))
        assert files == ["witness_f1.profile", "witness_f2.profile"]
        from morreykit import load_profile
        profile = load_profile(str(outdir / "witness_f1.profile"))
        assert len(profile.segments) == 2

    def test_failure_exit_4(self, capsys, monkeypatch):
        # force a verdict violation: pretend every combination norm is tiny
        real = constants.verify_non_ell1n

        def sabotaged(params, n, delta, epsilon=None):
            report = real(params, n, delta, epsilon=epsilon)
            object.__setattr__(report, "passed", False)
            return report

        monkeypatch.setattr(cli.constants, "verify_non_ell1n", sabotaged)
        code, out, _ = run(capsys, "witness", "--n", "2", "--delta", "0.3")
        assert code == 4
        assert parse_kv(out)["verdict"] == "FAIL"


class TestConstants:
    def test_reference_ladder(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "3",
                           "--deltas", "0.3,0.1,0.01")
        assert code == 0
        pairs = parse_kv(out)
        assert float(pairs["james_lower_bound"]) >= 2.97
        assert float(pairs["nj_lower_bound"]) >= 3 * 0.99**2
        assert float(pairs["upper_cap"]) == 3.0
        assert "delta_0.01_epsilon" in pairs

    def test_n2_classical(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2", "--deltas", "0.1,0.01")
        assert code == 0
        pairs = parse_kv(out)
        assert 1.9 <= float(pairs["james_lower_bound"]) <= 2.0

    def test_empty_deltas_exit_2(self, capsys):
        code, _, err = run(capsys, "constants", "--deltas", "")
        assert code == 2

    def test_increasing_deltas_exit_2(self, capsys):
        code, _, _ = run(capsys, "constants", "--deltas", "0.1,0.3")
        assert code == 2


class TestSweep:
    def test_epsilon_sweep_rows_beat_bound(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--vary", "epsilon", "--n", "2",
                         "--delta", "0.9", "--start", "0.02", "--stop", "0.3",
                         "--steps", "5", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "epsilon,theoretical_lower_bound,min_signed_norm,nj_ratio"
        assert len(lines) == 6
        for line in lines[1:]:
            eps, bound, min_norm, _ = map(float, line.split(","))
            assert min_norm >= 2 * (1 - math.sqrt(eps)) - 1e-9

    def test_single_point_range(self, capsys, tmp_path):
        out_file = tmp_path / "one.csv"
        code, _, _ = run(capsys, "sweep", "--vary", "delta", "--n", "2",
                         "--start", "0.2", "--stop", "0.9", "--steps", "1",
                         "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 2

    def test_delta_sweep_monotone(self, capsys, tmp_path):
        out_file = tmp_path / "deltas.csv"
        code, _, _ = run(capsys, "sweep", "--vary", "delta", "--n", "2",
                         "--start", "0.4", "--stop", "0.05", "--steps", "4",
                         "--out", str(out_file))
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        minima = [float(r[2]) for r in rows]
        # deltas decrease along the sweep, so the minima must not decrease
        assert all(b >= a - 1e-9 for a, b in zip(minima, minima[1:]))

    def test_delta_row_matches_constants_ladder(self, capsys, tmp_path):
        out_file = tmp_path / "row.csv"
        code, _, _ = run(capsys, "sweep", "--vary", "delta", "--n", "3", "--d", "2",
                         "--start", "0.1", "--stop", "0.1", "--steps", "1",
                         "--out", str(out_file))
        assert code == 0
        _, printed = out_file.read_text().splitlines()
        row = constants.estimate_constants(MorreyParams(1.0, 2.0, 2), 3, [0.1]).rows[0]
        expected = [cli._fmt(x) for x in (row.min_signed_norm, row.nj_ratio)]
        assert printed.split(",")[2:] == expected

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("sweep", "--vary", "q", "--start", "2.0", "--stop", "4.0",
                "--steps", "3", "--n", "2")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--vary", "delta", "--n", "2",
                           "--start", "0.2", "--stop", "0.3", "--steps", "1",
                           "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 3

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--vary", "delta", "--n", "2",
                           "--start", "0.3", "--stop", "0.3", "--steps", "1")
        assert code == 0
        assert out.startswith("delta,")


class TestOracleCompare:
    def test_random_battery(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "--random", "4", "--seed", "3")
        assert code == 0
        assert parse_kv(out)["verdict"] == "PASS"

    def test_profile_mode(self, capsys, annulus_doc):
        code, out, _ = run(capsys, "oracle-compare", "--profile", annulus_doc)
        assert code == 0

    def test_requires_a_source(self, capsys):
        code, _, _ = run(capsys, "oracle-compare")
        assert code == 2


#: Default output of two witness commands, as printed since the search has
#: one grid; every line after morreykit_version is pinned.
PINNED = {
    ("witness", "--d", "2", "--n", "5", "--delta", "0.1"): """\
p                              = 1
q                              = 2
d                              = 2
n                              = 5
delta                          = 0.1
epsilon                        = 0.05
shared_norm                    = 3.54490770181
threshold                      = 4.5
theoretical_lower_bound        = 4.75
norm_+++++                     = 4.75
norm_++++-                     = 4.8925
norm_+++-+                     = 4.804625
norm_+++--                     = 4.89974375
norm_++-++                     = 4.8000115625
norm_++-+-                     = 4.89501185937
norm_++--+                     = 4.80476187422
norm_++---                     = 4.89976187496
norm_+-+++                     = 4.89500000007
norm_+-++-                     = 4.89523750007
norm_+-+-+                     = 4.80475059382
norm_+-+--                     = 4.89975000156
norm_+--++                     = 4.80001187508
norm_+--+-                     = 4.89501187507
norm_+---+                     = 4.80476187507
norm_+----                     = 4.89976187507
min_signed_norm                = 4.75
verdict                        = PASS
""",
    ("constants", "--n", "3", "--deltas", "0.3,0.1,0.01"): """\
p                              = 1
q                              = 2
d                              = 1
n                              = 3
delta_0.3_epsilon              = 0.045
delta_0.3_min_signed_norm      = 2.36839990674
delta_0.3_nj_ratio             = 2.10857832546
delta_0.1_epsilon              = 0.005
delta_0.1_min_signed_norm      = 2.78793766409
delta_0.1_nj_ratio             = 2.68812594391
delta_0.01_epsilon             = 5e-05
delta_0.01_min_signed_norm     = 2.97878680401
delta_0.01_nj_ratio            = 2.96824265056
james_lower_bound              = 2.97878680401
james_witness                  = witness family at delta=0.01
nj_lower_bound                 = 2.96824265056
nj_witness                     = witness family at delta=0.01
upper_cap                      = 3
""",
}


@pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: argv[0])
def test_default_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    first, rest = out.split("\n", 1)
    assert code == 0
    assert first.startswith("morreykit_version ")
    assert rest == PINNED[argv]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_no_command_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2
