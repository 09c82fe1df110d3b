#!/usr/bin/env python3
"""meridian4 benchmark: certification throughput end to end, busy time per layer.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``suite``, ``draws_dense``, ``mesh_export``.

``--trace 0`` sets up (import, seeded inputs, one warm-up item), runs
whole cycles of the workload's inputs untraced until at least ``--seconds``
have passed, sets up twice more in child processes for the median
``setup_s``, and prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
Stopping only between cycles means every run measures and gates the same
mix of inputs, however fast the machine.  Times are scaled to a reference
machine speed (see ``stopwatch.py``).  ``--trace 1`` runs one cycle
untraced and then the same cycle traced (see ``tracing.py``), and prints
the ``per_layer`` metrics; its counts repeat exactly for a given seed and
do not depend on ``--seconds``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and run details.
BLAS and OpenMP pools are pinned to one thread before numpy is imported.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (inside the set-up time)
from stopwatch import Stopwatch  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("curves", "surfaces", "oracle", "algebra", "profiles", "harness", "export", "cli")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("suite", "draws_dense", "mesh_export"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # reduced grids, for the self-test
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    # adds a designed-to-fail item to draws_dense, for the self-test
    p.add_argument("--negative-control", action="store_true", help=argparse.SUPPRESS)
    # set up, print {"setup_s": ...} and exit; the parent takes the median
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import meridian4 from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "meridian4"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no meridian4 sources at {package}")
    sys.path.insert(0, str(SRC))
    import meridian4

    if Path(meridian4.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported meridian4 from {meridian4.__file__}, not {package}")


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up and the measuring loop
# ---------------------------------------------------------------------------


def set_up(args, work_dir: Path, tracer=None):
    """Import the program, make the seeded inputs (traced when a tracer is
    given, item id -1) and run one warm-up item.

    Returns the workload and a stopwatch holding one item: the time since
    the interpreter started.
    """
    watch = Stopwatch()
    with watch.running():
        import_program()
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        if tracer is not None:
            tracer.install()
        try:
            workload = cls(args.seed, work_dir, toy=args.toy,
                           negative_control=args.negative_control)
        finally:
            if tracer is not None:
                tracer.restore()
        workload.warm_up()
        watch.record(T_START, time.perf_counter())
    return workload, watch


def run_cycles(workload, seconds=0.0, tracer=None):
    """Run whole cycles of units until at least ``seconds`` of wall time
    passed; with ``seconds`` 0, exactly one cycle.

    Returns (items, stopwatch, units run).  A unit or gate that raises
    becomes a failed item; the loop goes on.
    """
    from workloads import Item

    items, watch = [], Stopwatch()
    start = time.perf_counter()
    k = 0
    with watch.running():
        while k == 0 or k % workload.cycle or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.item, tracer.active = k, True
            try:
                raw = workload.unit(k, watch)
            except Exception as exc:  # the program failed this item; keep measuring
                raw = exc
            finally:
                if tracer is not None:
                    tracer.active = False
            if isinstance(raw, Exception):
                items.append(Item(None, False, 0.0, f"unit {k}: {raw!r}"))
            else:
                try:
                    items.extend(workload.gate(raw))
                except Exception as exc:  # a malformed output is a failed item
                    items.append(Item(None, False, 0.0, f"gate {k}: {exc!r}"))
            k += 1
    return items, watch, k


def probe_setup(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.toy:
        cmd.append("--toy")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def accounting(items) -> dict:
    failed = [it for it in items if not it.ok]
    return {
        "attempted": len(items),
        "failed": len(failed),
        "fail_ratio": ratio(len(failed), len(items)),
        "worst_check_ratio": max((it.worst_ratio for it in items), default=0.0),
        "failures": [it.note for it in failed[:5]],
    }


def timing(items, watch) -> dict:
    """Scaled latencies of the timed items, and raw figures for reference."""
    scaled = watch.scaled()
    lat = sorted(scaled[it.slot] for it in items if it.slot is not None)
    raw = [watch.raw[it.slot] for it in items if it.slot is not None]
    kernel = [k for _, k in watch.ticks] or [0.0]
    n = len(lat)
    tail = None
    if n > 10:
        # the highest percentile with at least ten samples beyond it
        tail = {"level_pct": 100.0 * (n - 10) / n, "samples": n, "ms": 1e3 * lat[n - 11]}
    return {
        "latencies": lat,
        "latency_tail": tail,
        "raw_items_per_s": ratio(len(raw), sum(raw)),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw) if raw else 0.0,
        "kernel_ms": 1e3 * statistics.mean(kernel),
    }


def end_to_end(summary, peak_mb, setup_samples) -> dict:
    lat = summary["latencies"]
    return {
        "items_per_s": ratio(len(lat), sum(lat)),
        "latency_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_samples),
    }


def source_lines() -> dict:
    out, total = {}, 0
    for path in sorted((SRC / "meridian4").glob("*.py")):
        n = len(path.read_text().splitlines())
        out[f"{path.stem.strip('_')}.lines"] = n
        total += n
    out["src.lines"] = total
    return out


def per_layer(tracer, summary, setup, untraced, traced) -> dict:
    """Span metrics of the traced pass (item ids >= 0) and of the input
    draws (item id -1), derived rates, trace bookkeeping and line counts.
    Span seconds are scaled by the factor of the item they ran in, taken
    from the ``setup`` or ``traced`` stopwatch."""
    def measured(item):
        return item >= 0

    def in_setup(item):
        return item == -1

    starts = np.array([s[1] for s in tracer.spans])
    in_draws = np.array([s[4] == -1 for s in tracer.spans], dtype=bool)
    scale = np.where(in_draws, setup.factors_at(starts), traced.factors_at(starts))
    rows = tracer.summary(measured, scale)
    m = {}
    for name, row in rows.items():
        for key, value in row.items():
            m[f"{name}.{key}"] = value

    def get(key):
        return m.get(key, 0)

    for name in ("curves.integrate_frenet", "surfaces.assemble"):
        m[f"{name}.us_per_node"] = 1e6 * ratio(get(f"{name}.busy_s"), get(f"{name}.nodes"))
    stencils = tracer.children(measured, "surfaces.immersion", "oracle.fd_jet")
    fd_points = sum(s[5]["points"] for s in stencils)
    oracle_busy = get("oracle.fd_jet.busy_s") + get("oracle.fundamental_forms.busy_s")
    m["oracle.us_per_point"] = 1e6 * ratio(oracle_busy, fd_points / 9)

    draws = tracer.summary(in_setup, scale).get("harness.sample_case", {})
    m["harness.sample_case.calls"] = draws.get("calls", 0)
    m["harness.sample_case.busy_s"] = draws.get("busy_s", 0.0)
    # accepted phi-reduced draws (sample_case spans holding an attempt) over attempts
    attempts = tracer.children(in_setup, "profiles.phi_closed_form", "harness.sample_case")
    m["harness.sample_case.accept_ratio"] = ratio(len({s[3] for s in attempts}), len(attempts))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)
    m["trace.wall_s"] = sum(traced.scaled())
    m["trace.accounted_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.coverage"] = ratio(m["trace.accounted_s"], m["trace.wall_s"])
    m["trace.overhead_ratio"] = ratio(sum(traced.scaled()), sum(untraced.scaled()))
    m["trace.spans"] = sum(1 for s in tracer.spans if measured(s[4]))
    m["trace.kernel_ms"] = summary["kernel_ms"]
    m["fail_ratio"] = summary["fail_ratio"]
    m["worst_check_ratio"] = summary["worst_check_ratio"]
    m.update(source_lines())
    return m


def select(catalog, computed: dict) -> dict:
    """The catalog's metrics with their units.  A span metric of a layer the
    workload never called reads 0; any other missing metric is an error."""
    out = {}
    for entry in catalog:
        name = entry["name"]
        if name in computed:
            value = computed[name]
        elif name.split(".")[0] in LAYERS and name.count(".") >= 2:
            value = 0
        else:
            raise KeyError(f"metric {name!r} was not computed")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def report(args, catalog, computed, summary, details) -> None:
    info = {"env": environment(args), **details,
            "fail_ratio": summary["fail_ratio"],
            "worst_check_ratio": summary["worst_check_ratio"],
            **{k: summary[k] for k in ("latency_tail", "raw_items_per_s",
                                       "raw_latency_p50_ms", "kernel_ms", "failures")}}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": select(catalog, computed),
    }
    print(json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args, work_dir)[1].scaled()[0]}))
            return 0
        if args.trace == 0:
            workload, setup = set_up(args, work_dir)
            items, watch, units = run_cycles(workload, seconds=args.seconds)
            peak_mb = peak_rss_mb()
            setup_samples = [setup.scaled()[0]]
            setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
            summary = {**accounting(items), **timing(items, watch)}
            computed = end_to_end(summary, peak_mb, setup_samples)
            details = {"units": units, "cycles": units // workload.cycle,
                       "setup_samples_s": setup_samples}
            report(args, bench["end_to_end"], computed, summary, details)
            return 0
        tracer = Tracer()
        workload, setup = set_up(args, work_dir, tracer)
        items, untraced, units = run_cycles(workload)
        tracer.install()
        try:
            traced_items, traced, _ = run_cycles(workload, tracer=tracer)
        finally:
            tracer.restore()
        summary = {**accounting(items + traced_items), **timing(traced_items, traced)}
        computed = per_layer(tracer, summary, setup, untraced, traced)
        report(args, bench["per_layer"], computed, summary, {"units": units})
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
