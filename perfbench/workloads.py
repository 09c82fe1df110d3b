"""The three benchmark workloads: seeded inputs, timed units and correctness gates.

A workload turns a seed into inputs once (set-up), then runs *units*: one
call into the program, made of one or more timed *items*.  Each item gets
a latency from the :class:`Stopwatch` and an outcome from the benchmark's
correctness gate.  Gates run after the item's clock stops and never abort
the run: an exception or a failed check makes a failed item.

``suite``
    One unit is ``run_theorem_suite(seed=...)``: the 13 built-in cases at
    their defaults, one timed item per ``verify_case`` call, plus one untimed
    item for the hyperplane corollary.  A cycle is two units.
``draws_dense``
    One unit is ``verify_case`` of one ``sample_case`` draw on a 41x41 grid;
    the 12 draws cover the nine theorems, CMC at c = +m and -m.
``mesh_export``
    One unit is ``cli.main(["generate", ...])`` of one of two draws per
    theorem on a 201x201 grid, formats rotating csv, obj, json; the gate
    re-reads the file in a forked child process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meridian4 import cli, harness
from meridian4.algebra import SIG3_PPM, inner
from meridian4.curves import ChartKind
from meridian4.harness import Theorem, VerificationReport
from stopwatch import Stopwatch

FORMATS = ("csv", "obj", "json")
MINIMAL = (Theorem.MINIMAL_A, Theorem.MINIMAL_B, Theorem.MINIMAL_C)
QUASI = (Theorem.QUASI_A, Theorem.QUASI_B, Theorem.QUASI_C)
CMC = (Theorem.CMC_A, Theorem.CMC_B, Theorem.CMC_C)
# Relative tolerance of the carrier identity <x123, x123> = +-f^2 on exported points.
CARRIER_TOL = 1e-10


@dataclass
class Item:
    slot: int | None  # index of its latency in the Stopwatch; None if untimed
    ok: bool
    worst_ratio: float = 0.0
    note: str = ""


def worst_ratio(checks) -> float:
    """Largest value/threshold over the ``<=`` checks with a positive threshold."""
    ratios = [
        float(c["value"]) / float(c["threshold"])
        for c in checks
        if c["comparison"] == "<=" and float(c["threshold"]) > 0.0
    ]
    return max(ratios, default=0.0)


def gate_report(report: VerificationReport, slot: int) -> Item:
    doc = report.to_dict()
    recomputed = VerificationReport.recompute_status(doc)
    ok = report.status == "pass" and recomputed == report.status
    note = "" if ok else f"{doc['case']['theorem']}: status {report.status}, recomputed {recomputed}"
    return Item(slot, ok, worst_ratio(doc["checks"]), note)


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process; returns its JSON result.

    What the child allocates stays out of this process's peak resident
    memory (``ru_maxrss``), which the benchmark reports as the program's.
    An exception in the child is raised here as a RuntimeError.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        try:
            os.close(r)
            try:
                doc = {"value": fn(*args)}
            except Exception as exc:
                doc = {"error": repr(exc)}
            with os.fdopen(w, "w") as pipe:
                json.dump(doc, pipe)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    doc = json.loads(text)
    if "error" in doc:
        raise RuntimeError(doc["error"])
    return doc["value"]


@contextlib.contextmanager
def patched(owner, attr: str, wrapper_factory):
    """Temporarily replace ``owner.attr`` by ``wrapper_factory(current)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def cmc_magnitude(rng: np.random.Generator) -> float:
    """|c| of a seed's CMC draws: one of the acceptance criteria's targets."""
    return float(rng.choice([0.5, 1.0]))


class Suite:
    name = "suite"

    def __init__(self, seed: int, work_dir: Path, toy: bool = False,
                 negative_control: bool = False):
        if negative_control:
            raise ValueError("the suite has no negative-control item")
        self.overrides = {"seed": seed}
        # one unit is the whole suite; two make a cycle, so that the median
        # latency is taken over two timings of each case, not one
        self.cycle = 2
        if toy:
            self.overrides.update(nu=7, nv=7, n_probe=3)

    def warm_up(self) -> None:
        harness.run_theorem_suite(seed=self.overrides["seed"], nu=5, nv=5, n_probe=1, step=1e-2)

    def unit(self, k: int, watch: Stopwatch):
        """One suite pass, each ``verify_case`` call timed as an item."""
        slots: list[int] = []

        def timed(fn):
            def wrapper(*args, **kwargs):
                with watch.item():
                    out = fn(*args, **kwargs)
                slots.append(len(watch.raw) - 1)
                return out
            return wrapper

        with patched(harness, "verify_case", timed):
            reports, corollary = harness.run_theorem_suite(**self.overrides)
        return reports, corollary, slots

    def gate(self, raw) -> list[Item]:
        reports, corollary, slots = raw
        items = [gate_report(r, slot) for r, slot in zip(reports, slots, strict=True)]
        ok = bool(corollary["ok"]) and len(reports) == 13
        items.append(Item(None, ok, 0.0, "" if ok else f"corollary failed: {corollary}"))
        return items


class DrawsDense:
    name = "draws_dense"

    def __init__(self, seed: int, work_dir: Path, toy: bool = False,
                 negative_control: bool = False):
        rng = np.random.default_rng(seed)
        grid = 9 if toy else 41
        draws = [(t, None) for t in MINIMAL + QUASI]
        m = cmc_magnitude(rng)
        draws += [(t, c) for c in (m, -m) for t in CMC]
        self.specs = [harness.sample_case(t, rng, c=c, nu=grid, nv=grid) for t, c in draws]
        if negative_control:
            self.specs.insert(1, harness.CaseSpec(Theorem.NEGATIVE_CONTROL, nu=grid, nv=grid))
        self.cycle = len(self.specs)

    def warm_up(self) -> None:
        harness.verify_case(self.specs[0])

    def unit(self, k: int, watch: Stopwatch):
        with watch.item():
            report = harness.verify_case(self.specs[k % len(self.specs)])
        return report, len(watch.raw) - 1

    def gate(self, raw) -> list[Item]:
        return [gate_report(*raw)]


def generate_argv(spec: harness.CaseSpec, grid: int, out: Path, fmt: str) -> list[str]:
    """``meridian4 generate`` flags reproducing a drawn CaseSpec."""
    p = spec.params
    argv = ["generate", f"--theorem={spec.theorem.value}"]
    argv += [f"--{k}={float(v)!r}" for k, v in (("a", p.a), ("b", p.b), ("c", p.c), ("c0", p.c0))]
    if spec.f0 is not None:
        argv.append(f"--f0={float(spec.f0)!r}")
    if spec.u_span is not None:
        argv += [f"--u-min={float(spec.u_span[0])!r}", f"--u-max={float(spec.u_span[1])!r}"]
    argv += [
        f"--branch-signs={p.branch.as_string()}",
        f"--nu={grid}",
        f"--nv={grid}",
        f"--step={float(spec.step)!r}",
        f"--out={out}",
        f"--format={fmt}",
    ]
    return argv


def read_mesh(path: Path, fmt: str, nu: int, nv: int) -> np.ndarray:
    """Points of a written mesh, shape (nu, nv, 4), or (nu, nv, 3) for obj."""
    if fmt == "csv":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return rows[:, 2:].reshape(nu, nv, 4)
    if fmt == "obj":
        lines = path.read_text().splitlines()
        verts = [ln[2:].split() for ln in lines if ln.startswith("v ")]
        faces = sum(1 for ln in lines if ln.startswith("f "))
        if faces != 2 * (nu - 1) * (nv - 1):
            raise ValueError(f"obj has {faces} faces, expected {2 * (nu - 1) * (nv - 1)}")
        return np.array(verts, dtype=float).reshape(nu, nv, 3)
    doc = json.loads(path.read_text())
    if (doc["nu"], doc["nv"]) != (nu, nv):
        raise ValueError(f"json declares a {doc['nu']}x{doc['nv']} grid")
    return np.array(doc["points"], dtype=float).reshape(nu, nv, 4)


class MeshExport:
    name = "mesh_export"

    def __init__(self, seed: int, work_dir: Path, toy: bool = False,
                 negative_control: bool = False):
        if negative_control:
            raise ValueError("mesh_export has no negative-control item")
        rng = np.random.default_rng(seed)
        self.grid = 21 if toy else 201
        m = cmc_magnitude(rng)
        # two draws per theorem: a run's mean input cost then varies less by seed
        draws = [(t, None) for t in MINIMAL + QUASI]
        draws += [(t, m * float(rng.choice([1.0, -1.0]))) for t in CMC]
        self.specs = [harness.sample_case(t, rng, c=c) for _ in range(2) for t, c in draws]
        self.cycle = len(self.specs)
        self.work_dir = work_dir

    def _argv(self, k: int) -> tuple[list[str], Path, str]:
        n = len(self.specs)
        fmt = FORMATS[(k + k // n) % len(FORMATS)]
        out = self.work_dir / f"mesh-{k}.{fmt}"
        return generate_argv(self.specs[k % n], self.grid, out, fmt), out, fmt

    def warm_up(self) -> None:
        argv, out, _ = self._argv(0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        out.unlink(missing_ok=True)

    def unit(self, k: int, watch: Stopwatch):
        """One ``generate`` call; the surface it builds is kept for the gate."""
        argv, out, fmt = self._argv(k)
        built = []

        def keep(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                built.append(result[0])
                return result
            return wrapper

        with patched(cli, "_build_case", keep), contextlib.redirect_stdout(io.StringIO()):
            with watch.item():
                code = cli.main(argv)
        return code, built, out, fmt, len(watch.raw) - 1

    def gate(self, raw) -> list[Item]:
        code, built, out, fmt, slot = raw
        try:
            if code != 0 or len(built) != 1:
                return [Item(slot, False, 0.0, f"generate exit {code}")]
            note, ratio = in_child(self.check_file, built[0], out, fmt)
            return [Item(slot, not note, ratio, note)]
        finally:
            out.unlink(missing_ok=True)

    def check_file(self, surface, out: Path, fmt: str) -> tuple[str, float]:
        """The file must hold ``surface.grid_points`` exactly, and its points
        the carrier identity.  Returns (problem or "", carrier-identity
        deviation over ``CARRIER_TOL``)."""
        us = np.linspace(*surface.u_span, self.grid)
        vs = np.linspace(*surface.v_span, self.grid)
        expected = surface.grid_points(us, vs)
        got = read_mesh(out, fmt, self.grid, self.grid)
        if not np.array_equal(got, expected[..., : got.shape[-1]]):
            dev = float(np.max(np.abs(got - expected[..., : got.shape[-1]])))
            return f"{fmt} points differ by {dev:.3e}", 0.0
        # the first three coordinates are f(u) l(v) with l on the carrier quadric
        eps = 1.0 if surface.family.carrier is ChartKind.S21 else -1.0
        f2 = surface.profile_values(us)[0][:, None] ** 2
        dev = np.abs(inner(got[..., :3], got[..., :3], SIG3_PPM) - eps * f2)
        ratio = float(np.max(dev / np.maximum(1.0, f2))) / CARRIER_TOL
        ok = math.isfinite(ratio) and ratio <= 1.0
        return "" if ok else f"carrier identity ratio {ratio:.3g}", ratio


WORKLOADS = {w.name: w for w in (Suite, DrawsDense, MeshExport)}
