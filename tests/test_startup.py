"""Start-up guarantee: morreykit and its CLI import numpy alone, scipy is
loaded only by the one path that needs it, the incomplete beta function of
the cap-angle factor for d >= 4, and numpy.polynomial by none.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import morreykit
from morreykit import Annulus, Ball, MorreyParams, PiecewiseRadialPower, ball_p_integral
from morreykit.numeric import _BatchObjective

SRC = str(Path(morreykit.__file__).resolve().parent.parent)

# Prints the scipy and numpy.polynomial modules loaded so far, as one JSON line.
REPORT = ("print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
          "or m.split('.')[:2] == ['numpy', 'polynomial'])))")


def _run(body):
    """Run body in a fresh interpreter after `import json, sys`; returns the
    lines it printed, each parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "import json, sys\n" + textwrap.dedent(body).replace("REPORT", REPORT)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


# (r_lo, r_hi, coeff) of a sign-mixed profile, and its construction, which
# the fresh interpreters run too.
SEGMENTS = ((0.25, 0.5, 1.0), (0.5, 1.0, -2.0), (1.0, 3.0, 0.5))
PROFILE = ("profile = PiecewiseRadialPower(MorreyParams(1.0, 2.0, {d}), tuple("
           f"(Annulus(lo, hi), c) for lo, hi, c in {SEGMENTS!r}))")


def _cap_profile(d):
    return PiecewiseRadialPower(MorreyParams(1.0, 2.0, d),
                                tuple((Annulus(lo, hi), c) for lo, hi, c in SEGMENTS))


def test_cli_import_loads_no_scipy():
    assert _run("import morreykit.cli\nREPORT") == [[]]


def _command_loads(argv):
    """Exit code of the CLI on argv, run in process, and the modules REPORT
    names afterwards."""
    return _run(f"""
        import contextlib, io
        from morreykit.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        print(json.dumps(code))
        REPORT
    """)


def test_witness_command_loads_no_scipy():
    assert _command_loads(["witness", "--d", "2", "--n", "5"]) == [0, []]


@pytest.mark.parametrize("d", ["2", "3"])
def test_oracle_compare_loads_no_scipy(d):
    argv = ["oracle-compare", "--random", "5", "--seed", "3", "--d", d]
    assert _command_loads(argv) == [0, []]


def test_centered_norm_and_d1_ball_load_no_scipy():
    loaded = _run(f"""
        from morreykit import Annulus, Ball, MorreyParams, PiecewiseRadialPower
        from morreykit import ball_p_integral, centered_norm
        {PROFILE.format(d=1)}
        assert centered_norm(profile).value > 0.0
        assert ball_p_integral(profile, Ball(0.6, 0.3)) > 0.0
        REPORT
    """)
    assert loaded == [[]]


def test_offcenter_d2_d3_balls_load_no_scipy():
    ball = Ball(0.8, 0.6)
    expected = [ball_p_integral(_cap_profile(d), ball) for d in (2, 3)]
    loaded, values = _run(f"""
        from morreykit import Annulus, Ball, MorreyParams, PiecewiseRadialPower
        from morreykit import ball_p_integral
        values = []
        for d in (2, 3):
            {PROFILE.format(d="d")}
            ball = Ball({ball.center_dist!r}, {ball.radius!r})
            values.append(ball_p_integral(profile, ball).hex())
        REPORT
        print(json.dumps(values))
    """)
    # The cap quadrature is numpy's alone, and its values are the same in a
    # fresh interpreter, bit for bit.
    assert loaded == []
    assert [float.fromhex(v) for v in values] == expected


def test_d4_objective_loads_special_on_first_use():
    a, big_r = np.array([0.0, 0.8, 2.0]), np.array([0.5, 0.6, 1.5])
    expected = _BatchObjective([_cap_profile(4)])(a, big_r)
    before, after, values = _run(f"""
        from morreykit import Annulus, MorreyParams, PiecewiseRadialPower
        from morreykit.numeric import _BatchObjective
        {PROFILE.format(d=4)}
        REPORT
        values = _BatchObjective([profile])({a.tolist()!r}, {big_r.tolist()!r})
        REPORT
        print(json.dumps([v.hex() for v in values.ravel().tolist()]))
    """)
    assert before == []
    assert "scipy.special" in after
    assert "scipy.integrate" not in after
    assert [float.fromhex(v) for v in values] == expected.ravel().tolist()
