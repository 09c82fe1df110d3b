#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root::

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline/seed.json

For each workload this makes one ``--trace 0`` run per seed, then one
``--trace 1`` run on the first seed, one after another.  For each
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  The JSON written to ``--out`` keeps
every run's result and details line.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, info, result = done.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - t0,
            "result": json.loads(result), "details": json.loads(info)}


def summarize(runs: list[dict], catalog: list[dict]) -> dict:
    out = {}
    for entry in catalog:
        values = [r["result"]["metrics"][entry["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[entry["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": entry["bound"], "values": values,
        }
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(workload, seed, f"{r['wall_s']:.1f}s", r["result"]["correct"],
                  {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}, flush=True)
        entry = {"runs": runs, "end_to_end": summarize(runs, bench["end_to_end"])}
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" (bound {s['bound']})", flush=True)
        entry["traced"] = run(workload, args.seeds[0], args.seconds, 1)
        doc["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
