"""morreykit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from its `src/`.
The untraced run (--trace 0) measures set-up time in fresh interpreters,
then repeats the workload's whole input set for S seconds (at least
MIN_PASSES passes) and reports the end-to-end metrics.  The traced run
(--trace 1) alternates untraced and traced passes for S seconds and reports
the per-layer metrics of the traced passes.  Every pass's outputs are
checked against exact references or analytic bounds outside the timed
region.  The last line of standard output is the result object; a detailed
record goes to perfbench/results/.  Exit status: 0 when every check passed,
1 when a check failed, 2 when the program cannot be imported.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 3
MIN_PASSES = 3
#: Seed that later changes hold out as the check for their claims.
HELDOUT_SEED = 7919
#: max_rel_err is reported as this floor plus the measured deviation, so the
#: metric is never 0 and a relative bound b on it acts as a fixed absolute
#: tolerance of about b * floor on the deviation.
REL_ERR_FLOOR = 1e-12
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "max_rel_err": "rel_plus_1e-12",
}

PER_LAYER_UNITS = {
    "numeric.grid_s": "s",
    "numeric.grid_balls": "count",
    "numeric.grid_us_per_ball": "us",
    "numeric.grid_tensor_mb": "MB_computed",
    "numeric.refine_s": "s",
    "numeric.refine_evals": "count",
    "numeric.refine_us_per_eval": "us",
    "numeric.refine_useful_ratio": "ratio",
    "numeric.refine_gain_max": "ratio",
    "numeric.refine_gain_median": "ratio",
    "numeric.search_s": "s",
    "numeric.search_calls": "count",
    "numeric.rescore_s": "s",
    "numeric.rescore_calls": "count",
    "closedform.centered_s": "s",
    "closedform.centered_calls": "count",
    "constants.estimate_s": "s",
    "constants.build_s": "s",
    "constants.build_calls": "count",
    "constants.patterns": "count",
    "document.parse_s": "s",
    "document.parse_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up probe, one pass minimum")
    return parser.parse_args(argv)


def _openblas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "openblas" in line.lower() and ".so" in line})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[Path(lib).name] = func()
                break
    return found or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _setup_seconds(workload, probes):
    """Median wall time of `import morreykit` plus the warm-up call, each in
    a fresh interpreter."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def _run_pass(workload, inputs, tracer=None):
    """Time one pass over the whole input set; returns (wall, outputs,
    per-call latencies).  Exceptions are recorded as failed outputs."""
    from workloads import CallFailed
    outputs, latencies = [], []
    gc.collect()
    start = time.perf_counter()
    for index, argument in enumerate(inputs.calls):
        began = time.perf_counter()
        try:
            if tracer is None:
                result = workload.call(argument)
            else:
                with tracer.span("bench.item", index):
                    result = workload.call(argument)
        except Exception as exc:  # recorded and counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            result = CallFailed(exc)
        latencies.append(time.perf_counter() - began)
        outputs.append(result)
    return time.perf_counter() - start, outputs, latencies


def _tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (TAIL_BEYOND+1)-th largest sample.  With too few samples, the max."""
    ordered = sorted(samples, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(inputs, walls, latencies, setup_s, max_rel_err):
    items = sum(inputs.items_per_call)
    wall = statistics.median(walls)
    tail, percentile = _tail(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": items / wall,
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_err": REL_ERR_FLOOR + max_rel_err,
    }
    metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    return metrics, {"item_tail_percentile": percentile,
                     "item_latency_samples": len(latencies)}


def _per_layer(traced, traced_walls, untraced_walls, installed):
    """Per-layer metrics, per pass, averaged over the traced passes."""
    from spans import OBJECTIVE

    def per_pass(key):
        return statistics.fmean(totals.get(key, 0.0) for totals in traced)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    grid_s, grid_balls = per_pass("grid_s"), per_pass("grid_balls")
    refine_s, refine_evals = per_pass("refine_s"), per_pass("refine_calls")
    searches = per_pass("numeric.search_calls")
    values = {
        "numeric.grid_s": grid_s,
        "numeric.grid_balls": grid_balls,
        "numeric.grid_us_per_ball": ratio(grid_s, grid_balls, 1e6),
        "numeric.grid_tensor_mb": per_pass("grid_tensor_bytes") / 1e6,
        "numeric.refine_s": refine_s,
        "numeric.refine_evals": refine_evals,
        "numeric.refine_us_per_eval": ratio(refine_s, refine_evals, 1e6),
        "numeric.refine_useful_ratio": ratio(per_pass("useful_searches"), searches),
        "numeric.refine_gain_max": per_pass("refine_gain_max"),
        "numeric.refine_gain_median": per_pass("refine_gain_median"),
        "numeric.search_s": per_pass("numeric.search_s"),
        "numeric.search_calls": searches,
        "numeric.rescore_s": per_pass("numeric.rescore_s"),
        "numeric.rescore_calls": per_pass("numeric.rescore_calls"),
        "closedform.centered_s": per_pass("closedform.centered_s"),
        "closedform.centered_calls": per_pass("closedform.centered_calls"),
        "constants.estimate_s": per_pass("constants.estimate_s"),
        "constants.build_s": per_pass("constants.build_s"),
        "constants.build_calls": per_pass("constants.build_calls"),
        "constants.patterns": per_pass("patterns"),
        "document.parse_s": per_pass("document.parse_s"),
        "document.parse_calls": per_pass("document.parse_calls"),
        "trace.wall_s": statistics.fmean(traced_walls),
        "trace.overhead_s": statistics.fmean(traced_walls) - statistics.fmean(untraced_walls),
    }
    # A boundary the program no longer has is reported as missing, not as 0.
    needs = {"numeric.grid": OBJECTIVE, "numeric.refine": OBJECTIVE,
             "numeric.search": "numeric.search", "numeric.rescore": "numeric.rescore",
             "closedform.": "closedform.centered",
             "constants.estimate": "constants.estimate",
             "constants.build": "constants.build", "constants.patterns": "constants.build",
             "document.": "document.parse"}
    for name in values:
        for prefix, span in needs.items():
            if name.startswith(prefix) and span not in installed:
                values[name] = None
    if per_pass("grid_tensor_unknown"):
        values["numeric.grid_tensor_mb"] = None
    return {k: _metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}


def _check(workload, inputs, reference, outputs, checked):
    try:
        workload.check(inputs, reference, outputs, checked)
    except Exception as exc:  # a check that cannot run fails the pass
        traceback.print_exc(file=sys.stderr)
        checked.expect(False, f"check raised {type(exc).__name__}: {exc}")
        checked.failed_items += sum(inputs.items_per_call)


def main(argv=None):
    args = _parse_args(argv)
    threads_env = os.environ.pop("MORREYKIT_THREADS", None)
    try:
        import numpy
        import program
        import scipy
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    min_passes = 1 if args.smoke else MIN_PASSES

    inputs = workload.make_inputs(args.seed, args.smoke)
    reference = workload.reference(inputs)
    workload.warm_up()

    checked = workloads.Checked()
    passes = []          # (traced, wall, latencies)
    traced = []          # (layer totals, spans, boundaries) per traced pass
    setup = None
    if not args.trace:
        setup = _setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES)

    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        wall, outputs, latencies = _run_pass(workload, inputs)
        passes.append((False, wall, latencies))
        _check(workload, inputs, reference, outputs, checked)
        if args.trace:
            tracer = spans.Tracer(program.MODULES)
            with tracer:
                wall, outputs, latencies = _run_pass(workload, inputs, tracer)
            passes.append((True, wall, latencies))
            _check(workload, inputs, reference, outputs, checked)
            traced.append((spans.layer_totals(tracer.spans), tracer.spans,
                           tracer.installed))

    attempted = sum(inputs.items_per_call) * len(passes)
    untraced = [p for p in passes if not p[0]]
    meta = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "smoke": args.smoke,
        "run_seconds": args.seconds,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "MORREYKIT_THREADS": threads_env,
        "library_workers": workloads.core.thread_count(),
        "inputs": inputs.describe,
        "items_per_pass": sum(inputs.items_per_call),
        "untraced_passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "pass_walls_s": [p[1] for p in passes],
        "checks_run": checked.checks,
        "fail_ratio": checked.failed_items / attempted,
        "max_rel_err_measured": checked.max_rel_err,
        "failures": checked.messages[:20],
    }
    if args.trace:
        installed = set.union(*(t[2] for t in traced))
        totals = [t[0] for t in traced]
        metrics = _per_layer(totals, [p[1] for p in passes if p[0]],
                             [p[1] for p in untraced], installed)
        counts = [{k: v for k, v in t.items() if k.endswith(("_calls", "_balls"))}
                  for t in totals]
        meta["layer_counts_repeat"] = all(c == counts[0] for c in counts)
        meta["boundaries_traced"] = sorted(installed)
        meta["metric_samples"] = dict.fromkeys(metrics, len(totals))
    else:
        metrics, latency_meta = _end_to_end(
            inputs, [p[1] for p in untraced],
            [x for p in untraced for x in p[2]], setup[0], checked.max_rel_err)
        meta.update(latency_meta)
        meta["setup_probe_s"] = setup[1]
        samples = latency_meta["item_latency_samples"]
        meta["metric_samples"] = {
            "setup_s": len(setup[1]), "wall_s": len(untraced), "items_per_s": len(untraced),
            "item_p50_ms": samples, "item_tail_ms": samples, "peak_rss_mb": 1,
            "max_rel_err": checked.compared}
        meta["item_latency_basis"] = (
            "one document per call" if workload.one_item_per_call else
            "one estimate_constants call per pass (items are not issued one at a time)")

    correct = checked.failed_items == 0 and checked.checks > 0
    result = {"correct": correct, "attempted": attempted,
              "failed": checked.failed_items, "metrics": metrics}
    _write_record(args, meta, result, [t[1] for t in traced])
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']!s:>24} {metric['unit']:16s} "
              f"n={meta['metric_samples'][name]}")
    print(f"{'fail_ratio':30s} {meta['fail_ratio']!s:>24} {'ratio':16s} n={attempted}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def _write_record(args, meta, result, traced_spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_smoke" if args.smoke else "")
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1, sort_keys=True) + "\n")
    if traced_spans:
        with open(RESULTS / f"{stem}_spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["pass", "id", "parent", "name", "item",
                                     "start", "end", "extra"]) + "\n")
            for number, recorded in enumerate(traced_spans):
                for span in recorded:
                    handle.write(json.dumps([number, *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
