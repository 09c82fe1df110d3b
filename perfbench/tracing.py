"""In-memory span tracing of meridian4's public functions, from outside.

A :class:`Tracer` replaces functions where their callers look them up
(module attributes of ``meridian4.harness`` and ``meridian4.cli``, the
``orthonormalize`` seen by ``curves`` and ``oracle``, and the public
``MeridianSurface`` methods) with wrappers that record one span per call:
name, start, end, parent span and item id, plus a few work counters.
Spans stay in a list while the work runs and are summarized at the end.
The program's source is not changed.

A span's name is ``<module>.<function>``, where the module is the one that
defines the function; that module is the span's layer.  The stopwatch's
timer-signal kernel (``stopwatch.py``) runs inside whatever span is open,
so each layer's self time carries its share of that kernel, about 3 %.
Span seconds are scaled like item latencies: by the speed factor of the
item they ran in.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

# Work counters recorded after a call returns: name -> f(args, result).
COUNTERS = {
    "curves.integrate_frenet": lambda a, out: {
        "nodes": len(out.vs),
        "max_gram_drift": float(out.max_gram_drift),
    },
    "surfaces.assemble": lambda a, out: {"nodes": len(out.curve.vs) + len(out.profile.us)},
    "surfaces.immersion": lambda a, out: {"points": int(np.broadcast(a[1], a[2]).size)},
    "profiles.integrate_profile": lambda a, out: {
        "nodes": len(out.us),
        "truncated": int(out.truncated),
    },
    "profiles.minimal_profile": lambda a, out: {"nodes": len(out.us)},
    "export.export_mesh": lambda a, out: {"bytes": os.path.getsize(out)},
}

SURFACE_METHODS = ("immersion", "grid_points", "frames", "mean_curvature", "profile_values")


class Tracer:
    """Records spans while installed and :attr:`active`.

    Each span is a list ``[name, start, end, parent, item, counters]``;
    spans are appended when they open, so a parent precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    def patch(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the entry points, every meridian4 function imported into
        ``harness`` and ``cli``, ``orthonormalize`` and the surface methods."""
        from meridian4 import cli, curves, harness, oracle
        from meridian4.surfaces import MeridianSurface

        for module, entry in ((harness, ("verify_case", "sample_case")), (cli, ("main",))):
            for attr, obj in list(vars(module).items()):
                imported = (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("meridian4.")
                    and obj.__module__ != module.__name__
                )
                if imported or attr in entry:
                    self.patch(module, attr)
        self.patch(curves, "orthonormalize")
        self.patch(oracle, "orthonormalize")
        for attr in SURFACE_METHODS:
            self.patch(MeridianSurface, attr)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summarizing -----------------------------------------------------

    def summary(self, keep, scale=None) -> dict[str, dict]:
        """Per span name: calls, busy time, self time and summed counters,
        over spans whose item id satisfies ``keep``.

        Each span's duration is multiplied by its entry in ``scale`` (one
        factor per span, as :meth:`Stopwatch.factors_at` gives them), if given.
        Busy time counts a span only when no ancestor has the same name;
        self time is a span's duration minus that of its direct children.
        ``max_gram_drift`` is a maximum, every other counter a sum.
        """
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        if scale is not None:
            duration = [d * f for d, f in zip(duration, scale, strict=True)]
        self_s = list(duration)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_s[s[3]] -= duration[i]
        out: dict[str, dict] = {}
        for i, s in enumerate(spans):
            if not keep(s[4]):
                continue
            row = out.setdefault(s[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            if not self._nested_in_same(i):
                row["busy_s"] += duration[i]
            for key, value in (s[5] or {}).items():
                if key == "max_gram_drift":
                    row[key] = max(row.get(key, 0.0), value)
                else:
                    row[key] = row.get(key, 0) + value
        return out

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i][0], self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def children(self, keep, child: str, parent: str) -> list[list]:
        """``child`` spans, with item ids satisfying ``keep``, whose parent is a ``parent`` span."""
        return [
            s for s in self.spans
            if s[0] == child and keep(s[4]) and s[3] >= 0 and self.spans[s[3]][0] == parent
        ]
