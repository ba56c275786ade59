"""Repeat the benchmark over seeds and summarise it as a trajectory point.

    python3 perfbench/sweep.py --label NAME [--seeds 1-10|1,1] [--workloads a,b]
                               [--trace 0|1] [--baseline BENCH_x.json] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), each in its own process
and one at a time, with BENCHMARK.json's run_seconds.  For every metric it
records the values, their median and quartiles, and the spread
(q3 - q1) / median, which is compared with the metric's bound.  With
--baseline it also reports, per workload and metric, how far the median
moved against the baseline's median, in the metric's worse direction.
Writes perfbench/results/BENCH_<label>.json unless --out is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    """'1-10' or '1,1,7919'."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    point = {"label": args.label, "trace": args.trace, "run_seconds": bench["run_seconds"],
             "seeds": _seeds(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in point["seeds"]:
            done = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            meta = json.loads(lines[-2][len("meta "):]) if result else None
            runs.append({"seed": seed, "exit": done.returncode, "result": result, "meta": meta})
            print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr, flush=True)
            if done.returncode != 0:
                ok = False
                print(done.stderr[-2000:], file=sys.stderr)
        good = [r["result"] for r in runs if r["result"]]
        metrics = {}
        for name, spec in specs.items():
            values = [g["metrics"][name]["value"] for g in good]
            if not values or any(v is None for v in values):
                metrics[name] = {"values": values}
                continue
            entry = _summary(values)
            bound = spec.get("bound")
            if bound is not None and entry["spread"] is not None:
                entry["bound"] = bound
                entry["spread_within_bound"] = entry["spread"] <= bound
                entry["spread_within_third"] = entry["spread"] <= bound / 3
            if baseline and bound is not None:
                base = baseline["workloads"][workload]["metrics"][name]["median"]
                sign = 1.0 if spec["better"] == "lower" else -1.0
                entry["worse_than_baseline"] = sign * (entry["median"] - base) / base
                entry["within_bound_of_baseline"] = entry["worse_than_baseline"] <= bound
            metrics[name] = entry
        point["workloads"][workload] = {
            "runs": [{"seed": r["seed"], "exit": r["exit"],
                      "attempted": r["result"] and r["result"]["attempted"],
                      "failed": r["result"] and r["result"]["failed"],
                      "meta": r["meta"]} for r in runs],
            "metrics": metrics,
        }
        for name, entry in metrics.items():
            if "median" not in entry:
                print(f"{workload:15s} {name:30s} missing", flush=True)
                continue
            flags = "".join(
                f" {key}={entry[key]}" for key in
                ("spread_within_bound", "spread_within_third", "within_bound_of_baseline")
                if key in entry)
            spread = "n/a" if entry["spread"] is None else f"{entry['spread']:.4f}"
            print(f"{workload:15s} {name:30s} median {entry['median']:.6g} "
                  f"{specs[name]['unit']} (n={len(entry['values'])} runs) "
                  f"spread {spread}{flags}", flush=True)

    out = Path(args.out) if args.out else HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
