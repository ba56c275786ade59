"""Smoke tests of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs at tiny size (--smoke), untraced and traced, and must
emit every metric BENCHMARK.json names, with its unit, after checks that
ran and passed.  The checks themselves must reject wrong outputs, and the
benchmark must refuse to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, meta_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    meta = json.loads(meta_line.removeprefix("meta "))
    assert meta["checks_run"] > 0 and meta["fail_ratio"] == 0.0
    if trace:
        assert meta["layer_counts_repeat"]


def _wrong(workload, outputs, reference):
    """Outputs (and reference) that every item's checks must reject."""
    if workload == "witness-ladder":
        return outputs, [base * (1.0 + 1e-6) for base in reference]
    if workload == "oracle-battery":
        return [(2.0 * found, found, mono) for _closed, found, mono in outputs], reference
    return [(norm, [m * (1.0 + 1e-6) + 1e-3 for m in masses])
            for norm, masses in outputs], reference


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_wrong_outputs(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    spec = workloads.WORKLOADS[workload]
    inputs = spec.make_inputs(3, True)
    reference = spec.reference(inputs)
    outputs = [spec.call(argument) for argument in inputs.calls]

    good = workloads.Checked()
    spec.check(inputs, reference, outputs, good)
    assert good.checks > 0 and good.failed_items == 0, good.messages

    wrong_outputs, wrong_reference = _wrong(workload, outputs, reference)
    bad = workloads.Checked()
    spec.check(inputs, wrong_reference, wrong_outputs, bad)
    assert bad.failed_items == sum(inputs.items_per_call)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
