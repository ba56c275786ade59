"""Command-line interface: norm evaluation, witness verification, constant
estimation, parameter sweeps, and the closed-form vs numeric oracle battery.

Exit codes: 0 success, 2 invalid flags or unparseable input, 3 numerical
failure or unwritable output, 4 witness verification failed (which would
contradict the underlying theorem and therefore signals a bug).
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .core import (
    MorreyParams,
    NumericalFailure,
    ParameterError,
    PiecewiseRadialPower,
)
from . import closedform, constants, numeric, sampling
from .document import ProfileParseError, load_profile, save_profile

_KEY_WIDTH = 30


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(pairs, stream=None) -> None:
    stream = stream or sys.stdout
    for key, value in pairs:
        stream.write(f"{key:<{_KEY_WIDTH}} = {_fmt(value)}\n")


def _pattern_label(pattern) -> str:
    return "+" + "".join("+" if s > 0 else "-" for s in pattern)


def _write_text_atomic(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".morreykit-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=1.0, help="lower exponent (default 1)")
    parser.add_argument("--q", type=float, default=2.0, help="upper exponent (default 2)")
    parser.add_argument("--d", type=int, default=1, help="dimension (default 1)")


def _params_from_args(args) -> MorreyParams:
    return MorreyParams(p=args.p, q=args.q, d=args.d)


def _load_profile_checked(path: str) -> PiecewiseRadialPower:
    # An unreadable input document is an input error (exit 2), unlike
    # unwritable output paths which stay in the i/o class (exit 3).
    try:
        return load_profile(path)
    except OSError as exc:
        raise ProfileParseError(str(exc)) from exc


def _norm_report_pairs(prefix: str, report) -> list:
    return [
        (f"{prefix}value", report.value),
        (f"{prefix}argmax_center_dist", report.argmax_ball.center_dist),
        (f"{prefix}argmax_radius", report.argmax_ball.radius),
        (f"{prefix}method", report.method.value),
        (f"{prefix}abs_uncertainty", report.abs_uncertainty),
    ]


def _cmd_norm(args) -> int:
    profile = _load_profile_checked(args.profile)
    if args.emit_profile:
        save_profile(profile, args.emit_profile)
    pairs = [("morreykit_version", __version__), ("profile", args.profile)]
    if args.method in ("closed", "both"):
        closed = closedform.centered_norm(profile)
        prefix = "closed_" if args.method == "both" else ""
        pairs += _norm_report_pairs(prefix, closed)
    if args.method in ("numeric", "both"):
        num = numeric.morrey_norm_numeric(profile)
        prefix = "numeric_" if args.method == "both" else ""
        pairs += _norm_report_pairs(prefix, num)
    if args.method == "both":
        scale = max(abs(closed.value), abs(num.value), 1e-300)
        pairs.append(("relative_difference", abs(closed.value - num.value) / scale))
    _emit(pairs)
    return 0


def _cmd_witness(args) -> int:
    params = _params_from_args(args)
    report = constants.verify_non_ell1n(params, args.n, args.delta, epsilon=args.epsilon)
    if args.emit_profiles:
        os.makedirs(args.emit_profiles, exist_ok=True)
        for i, function in enumerate(report.family.functions, start=1):
            save_profile(
                function, os.path.join(args.emit_profiles, f"witness_f{i}.profile")
            )
    pairs = [
        ("morreykit_version", __version__),
        ("p", params.p), ("q", params.q), ("d", params.d),
        ("n", args.n), ("delta", args.delta),
        ("epsilon", report.family.epsilon),
        ("shared_norm", report.family.shared_norm),
        ("threshold", report.threshold),
        ("theoretical_lower_bound", report.theoretical_lower_bound),
    ]
    combos = report.combinations
    for pattern, value in zip(combos.patterns, combos.values.tolist()):
        pairs.append((f"norm_{_pattern_label(pattern)}", value))
    pairs += [
        ("min_signed_norm", combos.min_over_patterns),
        ("verdict", "PASS" if report.passed else "FAIL"),
    ]
    _emit(pairs)
    return 0 if report.passed else 4


def _cmd_constants(args) -> int:
    params = _params_from_args(args)
    deltas = _parse_float_list(args.deltas, "deltas")
    ladder = constants.estimate_constants(params, args.n, deltas)
    pairs = [
        ("morreykit_version", __version__),
        ("p", params.p), ("q", params.q), ("d", params.d), ("n", args.n),
    ]
    for row in ladder.rows:
        label = _fmt(row.delta)
        pairs += [
            (f"delta_{label}_epsilon", row.family.epsilon),
            (f"delta_{label}_min_signed_norm", row.min_signed_norm),
            (f"delta_{label}_nj_ratio", row.nj_ratio),
        ]
    pairs += [
        ("james_lower_bound", ladder.james.lower_bound),
        ("james_witness", ladder.james.witness),
        ("nj_lower_bound", ladder.von_neumann_jordan.lower_bound),
        ("nj_witness", ladder.von_neumann_jordan.witness),
        ("upper_cap", float(args.n)),
    ]
    _emit(pairs)
    return 0


def _sweep_values(args) -> np.ndarray:
    if args.steps < 1:
        raise ParameterError("--steps must be >= 1")
    if args.steps == 1:
        return np.array([args.start])
    return np.linspace(args.start, args.stop, args.steps)


def _cmd_sweep(args) -> int:
    params = _params_from_args(args)
    values = _sweep_values(args)
    lines = [f"{args.vary},theoretical_lower_bound,min_signed_norm,nj_ratio"]
    for value in values:
        value = float(value)
        row_params, delta, epsilon = params, args.delta, None
        if args.vary == "epsilon":
            epsilon = value
        elif args.vary == "delta":
            delta = value
        else:  # q
            row_params = MorreyParams(p=params.p, q=value, d=params.d)
        row = constants.verify_non_ell1n(row_params, args.n, delta, epsilon=epsilon)
        lines.append(",".join(
            _fmt(x) for x in
            (value, row.theoretical_lower_bound, row.min_signed_norm, row.nj_ratio)
        ))
    _write_text_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle_compare(args) -> int:
    cases = []
    if args.profile is not None:
        cases.append(("file", _load_profile_checked(args.profile)))
    else:
        params = _params_from_args(args)
        rng = np.random.default_rng(args.seed)
        for i in range(args.random):
            profile = sampling.random_bounded_profile(
                params, rng, monotone=bool(i % 2)
            )
            cases.append((f"random_{i}", profile))

    pairs = [("morreykit_version", __version__), ("tolerance", args.tol)]
    all_ok = True
    for name, profile in cases:
        closed = closedform.centered_norm(profile).value
        num = numeric.morrey_norm_numeric(profile).value
        monotone = numeric.monotone_profile_check(profile)
        scale = max(abs(closed), abs(num), 1e-300)
        rel = abs(closed - num) / scale
        if monotone:
            ok = rel <= args.tol
        else:
            # Only the one-sided relation is guaranteed: the centered search
            # can miss mass that an off-center ball captures.
            ok = num >= closed * (1.0 - args.tol)
        all_ok &= ok
        pairs += [
            (f"{name}_closed", closed),
            (f"{name}_numeric", num),
            (f"{name}_monotone", monotone),
            (f"{name}_relative_difference", rel),
            (f"{name}_ok", ok),
        ]
    pairs.append(("verdict", "PASS" if all_ok else "FAIL"))
    _emit(pairs)
    if not all_ok:
        raise NumericalFailure("closed-form and numeric norms disagree")
    return 0


def _parse_float_list(raw: str, name: str) -> list:
    parts = [chunk for chunk in raw.split(",") if chunk.strip()]
    if not parts:
        raise ParameterError(f"--{name} must be a nonempty comma-separated list")
    try:
        return [float(chunk) for chunk in parts]
    except ValueError as exc:
        raise ParameterError(f"--{name}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morreykit",
        description="Morrey-space norms, witness families, and geometric constants.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norm of a profile document")
    p_norm.add_argument("profile", help="path to a profile document")
    p_norm.add_argument("--method", choices=("closed", "numeric", "both"),
                        default="both")
    p_norm.add_argument("--emit-profile", default=None,
                        help="re-emit the parsed profile in canonical form")
    p_norm.set_defaults(func=_cmd_norm)

    p_wit = sub.add_parser("witness", help="build and verify a witness family")
    _add_param_flags(p_wit)
    p_wit.add_argument("--n", type=int, default=3, help="family size (default 3)")
    p_wit.add_argument("--delta", type=float, default=0.1,
                       help="slack in the n(1-delta) threshold (default 0.1)")
    p_wit.add_argument("--epsilon", type=float, default=None,
                       help="annulus ratio; default is half the admissible bound")
    p_wit.add_argument("--emit-profiles", default=None,
                       help="directory for the witness profile documents")
    p_wit.set_defaults(func=_cmd_witness)

    p_const = sub.add_parser(
        "constants",
        help="lower bounds for the n-th James and Von Neumann-Jordan constants",
        epilog="Each delta row reports: epsilon used, the minimum signed-"
               "combination norm (James candidate), and the quadratic "
               "sign-sum ratio (Von Neumann-Jordan candidate).",
    )
    _add_param_flags(p_const)
    p_const.add_argument("--n", type=int, default=3)
    p_const.add_argument("--deltas", default="0.3,0.1,0.01",
                         help="comma-separated, strictly decreasing")
    p_const.set_defaults(func=_cmd_constants)

    p_sweep = sub.add_parser("sweep", help="tabulate bounds along a parameter range")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--n", type=int, default=3)
    p_sweep.add_argument("--delta", type=float, default=0.1)
    p_sweep.add_argument("--vary", choices=("epsilon", "delta", "q"), required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-compare",
        help="cross-check the closed-form and numeric norm backends",
    )
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", default=None, help="profile document to check")
    group.add_argument("--random", type=int, default=None,
                       help="number of random profiles to check")
    p_oracle.add_argument("--tol", type=float, default=1e-3)
    p_oracle.add_argument("--seed", type=int, default=0, help="seed of the random profiles")
    _add_param_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProfileParseError as exc:
        print(f"morreykit: profile error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"morreykit: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"morreykit: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"morreykit: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
