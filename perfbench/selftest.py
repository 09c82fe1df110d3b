#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (about two minutes on two cores).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload and both trace modes, a toy run must exit 0, record its
environment, pass its correctness gate and print exactly the metrics that
``BENCHMARK.json`` lists for the mode, with their units.  Every per-layer span
metric must read non-zero on some workload (a misspelt name reads 0).  A
draws_dense run with a designed-to-fail ``NEGATIVE_CONTROL`` item must count
that item as failed and still finish.  ``predictions.json`` may name only
listed metrics and workloads.  In a directory holding only ``BENCHMARK.json``
and ``perfbench/``, the benchmark must fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# per-layer span metrics that may read 0 on every healthy toy workload
MAY_BE_ZERO = {"profiles.integrate_profile.truncated"}


def run(*flags, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--toy", "--seed", "7", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done):
    assert done.returncode == 0, done.stderr[-2000:]
    *_, info_line, result_line = done.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    env = info["env"]
    for key in ("nproc", "python", "numpy", "scipy", "seed", "threads"):
        assert key in env, key
    assert env["seed"] == 7 and all(v == "1" for v in env["threads"].values()), env
    return info, result


def check_metrics(result, kind):
    listed = {m["name"]: m["unit"] for m in BENCH[kind]}
    got = result["metrics"]
    assert set(got) == set(listed), set(got) ^ set(listed)
    for name, entry in got.items():
        assert entry["unit"] == listed[name], (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def test_workloads():
    nonzero = set()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            info, result = parse(run("--workload", workload, "--seconds", "1", "--trace", str(trace)))
            check_metrics(result, kind)
            assert result["correct"] and result["failed"] == 0, info["failures"]
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            else:
                nonzero |= {n for n, m in result["metrics"].items() if m["value"] != 0}
                coverage = result["metrics"]["trace.coverage"]["value"]
                assert abs(coverage - 1.0) <= 0.05, coverage
            print(f"ok  {workload} trace={trace}: {result['attempted']} items", flush=True)
    spans = {
        m["name"] for m in BENCH["per_layer"]
        if m["name"].count(".") >= 2 or m["name"].endswith(".self_s")
    }
    never = spans - nonzero - MAY_BE_ZERO
    assert not never, f"per-layer metrics that read 0 on every workload: {sorted(never)}"


def test_negative_control_counts_as_failure():
    info, result = parse(run("--workload", "draws_dense", "--trace", "1", "--negative-control"))
    # one full cycle untraced and one traced: the control fails once in each
    assert result["failed"] == 2 and not result["correct"], result
    assert result["metrics"]["fail_ratio"]["value"] == 2 / result["attempted"]
    assert any("negative-control" in note for note in info["failures"]), info["failures"]
    print("ok  negative control counted as 2 failures of", result["attempted"], flush=True)


def test_predictions_name_listed_metrics():
    pred = json.loads((HERE / "predictions.json").read_text())
    layer_metrics = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for row in pred["layers"]:
        assert set(row["metrics"]) <= layer_metrics, set(row["metrics"]) - layer_metrics
        assert set(row["moves"]) <= e2e, row["moves"]
        for key in ("on", "little_on", "no_change_on"):
            assert set(row[key]) <= set(WORKLOADS), row[key]
    print("ok  predictions.json", flush=True)


def test_fails_without_the_program():
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = run("--workload", "suite", "--seconds", "1", "--trace", "0", cwd=bare)
    assert done.returncode != 0, done.stdout
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok  bare directory exits", done.returncode, "without a result", flush=True)


if __name__ == "__main__":
    test_predictions_name_listed_metrics()
    test_fails_without_the_program()
    test_negative_control_counts_as_failure()
    test_workloads()
    print("selftest passed")
