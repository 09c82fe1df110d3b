"""Mesh export in CSV, OBJ and JSON, with byte-deterministic formatting.

Floats are written with ``repr``, i.e. the shortest decimal string that
round-trips to the same IEEE-754 double, so parse -> re-export is
byte-identical and diffs between runs are meaningful.  Files are ASCII
with ``\n`` line ends on every platform.

``repr`` is the cost of a mesh, so each renderer works one u grid line at
a time from whole arrays and formats each distinct value once: the
coordinates of a line, its u (and x4 where it is constant along the
line), the v grid and the vertex indices.  The JSON points block is
spliced into ``json.dumps(indent=1)``'s own layout.

A file's text is a head, the blocks of its sections and a tail; a block is
the text of one grid line (the csv rows, obj vertex lines or json points of
one u line, or the obj faces of one grid row).  Rendering fans out over the
usable CPUs (``os.sched_getaffinity``): each of k workers renders a
contiguous run of every section's blocks.  The parent is worker 0; workers
1 to k - 1 are forked children that send their runs back as ASCII bytes
over a pipe.  The parent writes the runs in order once every child has
exited 0, so a failed worker raises before the file is opened, and every
child is reaped on every path.  The mesh renders in-process, with the same
bytes, when it has fewer than ``_FAN_OUT_MIN_POINTS`` grid points (too few
to repay a fork), when one CPU is usable, when ``os.fork`` or
``os.sched_getaffinity`` is missing, and when another Python thread is
running (a forked child would hold only the calling thread).  The parent
also renders the runs of every worker that ``os.fork`` raised ``OSError``
for.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .surfaces import MeridianSurface, TildeSurface

__all__ = ["export_mesh", "CSV_HEADER"]

CSV_HEADER = "u,v,x1,x2,x3,x4"

_FORMATS = ("csv", "obj", "json")

# Below this many grid points (80x80) a mesh renders in-process.  Measured
# on 2 vCPU, Python 3.11, a 45 MB process: a fork, exit and reap takes
# 3.6 ms; two workers took 4-5 ms longer than one on a 21x21 mesh, broke
# even at 64x64 and took 0.7-0.8 of its time at 81x81 (rendering costs
# ~3 us per grid point).
_FAN_OUT_MIN_POINTS = 6400


def export_mesh(surface, us, vs, path, fmt: str = "csv") -> Path:
    """Evaluate ``surface`` on the product grid (us, vs) and write a mesh file.

    Formats
    -------
    csv
        Header ``u,v,x1,x2,x3,x4``; one row per sample, row-major in u then
        v (u is the outer loop).
    obj
        Wavefront OBJ of the projection to (x1, x2, x3); x4 is dropped and
        a leading comment declares the projection.  Faces triangulate the
        grid quads: 2 (nu-1)(nv-1) triangles.
    json
        Full samples plus metadata: family, profile parameters and
        provenance, grid vectors, tool version, and a schema tag; only a
        meridian surface or its T-image has them (``ValueError`` otherwise).

    The grid must lie inside the surface domains (domain errors, NaN
    included, propagate from evaluation).  Returns the written path; I/O
    failures are re-raised with the path attached.  A worker that fails to
    render raises ``RuntimeError`` before the file is opened.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}; choose one of {_FORMATS}")
    source = surface.source if isinstance(surface, TildeSurface) else surface
    if fmt == "json" and not isinstance(source, MeridianSurface):
        raise ValueError(f"json meshes carry a meridian surface's metadata; "
                         f"cannot export a {type(surface).__name__}")
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if us.ndim != 1 or vs.ndim != 1 or len(us) < 2 or len(vs) < 2:
        raise ValueError("us and vs must be 1-d grids with at least 2 samples each")
    points = surface.grid_points(us, vs)

    if fmt == "csv":
        text = _csv_text(us, vs, points)
    elif fmt == "obj":
        text = _obj_text(us, vs, points)
    else:
        text = _json_text(surface, us, vs, points)
    data = _file_bytes(text, _worker_count(len(us), len(us) * len(vs)))

    path = Path(path)
    try:
        with open(path, "wb") as out:
            out.writelines(data)
    except OSError as exc:
        raise OSError(f"failed to write mesh to {path}: {exc}") from exc
    return path


class _MeshText(NamedTuple):
    """A mesh file's text: ``head``, each section's blocks in order, ``tail``.

    A section is ``(n, block)``: ``block(i)`` is the text of block i < n,
    separators included, so any contiguous run of blocks renders on its own.
    """

    head: str
    sections: tuple[tuple[int, Callable[[int], str]], ...]
    tail: str

    def runs(self, w: int, k: int) -> list[bytes]:
        """Worker w's ASCII text of each section, when k workers split every
        section into contiguous runs of blocks."""
        return ["".join(map(block, range(n * w // k, n * (w + 1) // k))).encode("ascii")
                for n, block in self.sections]


def _worker_count(n_lines: int, n_points: int) -> int:
    """Workers for a mesh of ``n_lines`` u grid lines: 1 renders in-process."""
    if (n_points < _FAN_OUT_MIN_POINTS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_lines)


def _file_bytes(text: _MeshText, k: int) -> list[bytes]:
    """The file's ASCII bytes in order, as pieces, rendered by k workers
    (k = 1 renders in-process).

    Raises ``RuntimeError`` if a forked worker does not exit 0.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) of workers 1, 2, ...
    try:
        for w in range(1, k):
            try:
                children.append(_fork_worker(text, w, k))
            except OSError:
                break  # the parent renders the runs of the workers not forked
        own = [text.runs(w, k) for w in (0, *range(len(children) + 1, k))]
        received = [_receive(fd, len(text.sections)) for _, fd in children]
    finally:
        for _, fd in children:
            os.close(fd)
        failed = [pid for pid, _ in children if os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise RuntimeError(f"mesh rendering failed in worker process(es) {failed}")
    workers = own[:1] + received + own[1:]
    return [text.head.encode("ascii"),
            *(runs[s] for s in range(len(text.sections)) for runs in workers),
            text.tail.encode("ascii")]


def _fork_worker(text: _MeshText, w: int, k: int) -> tuple[int, int]:
    """Fork worker w of k; returns its pid and the read end of its pipe.

    The child closes that read end, so it cannot block on a pipe the parent
    has closed.  It renders all its runs, then sends each as an 8-byte
    length and its bytes, and exits 0 only after the last byte is written.
    """
    r, wr = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(wr)
        raise
    if pid == 0:  # the child never returns into the caller
        status = 1
        try:
            os.close(r)
            runs = text.runs(w, k)
            with open(wr, "wb") as pipe:
                for run in runs:
                    pipe.write(len(run).to_bytes(8, "little"))
                    pipe.write(run)
            status = 0
        except BaseException as exc:
            sys.excepthook(type(exc), exc, exc.__traceback__)
        finally:
            os._exit(status)
    os.close(wr)
    return pid, r


def _receive(fd: int, n: int) -> list[bytes]:
    """The n runs a worker sends over its pipe (fewer bytes if it failed)."""
    with open(fd, "rb", closefd=False) as pipe:
        return [pipe.read(int.from_bytes(pipe.read(8), "little")) for _ in range(n)]


def _xyz(line) -> tuple[list[str], list[str], list[str]]:
    """The text of x1, x2 and x3 at the points of one u grid line, shape
    (nv, 4): three lists, formatted from one ``tolist`` of the line."""
    text = list(map(float.__repr__, line[:, :3].ravel().tolist()))
    return text[0::3], text[1::3], text[2::3]


def _x4(points) -> Callable[[int], list[str]]:
    """``x4(i)``: the text of x4 at the points of u grid line i, one list.

    x4 is g(u) on a meridian surface, so a line whose x4 has one bit pattern
    formats it once; comparing bits, not values, keeps a line that mixes
    -0.0 and 0.0 apart.  A tilde surface mixes the coordinates, and its x4
    is formatted per point.
    """
    bits = points[..., 3].view(np.uint64)
    constant = (bits == bits[:, :1]).all(axis=1).tolist()

    def x4(i: int) -> list[str]:
        line = points[i, :, 3].tolist()
        return [float.__repr__(line[0])] * len(line) if constant[i] else list(map(float.__repr__, line))

    return x4


def _csv_text(us, vs, points) -> _MeshText:
    utext = list(map(float.__repr__, us.tolist()))
    vtext = list(map(float.__repr__, vs.tolist()))
    x4 = _x4(points)

    def rows(i: int) -> str:
        row = (utext[i] + ",{},{},{},{},{}\n").format
        return "".join(map(row, vtext, *_xyz(points[i]), x4(i)))

    return _MeshText(CSV_HEADER + "\n", ((len(us), rows),), "")


def _obj_text(us, vs, points) -> _MeshText:
    nu, nv = len(us), len(vs)
    head = ("# meridian surface mesh: orthogonal projection to (x1, x2, x3); "
            "coordinate x4 dropped\n")

    def vertices(i: int) -> str:
        return "".join(map("v {} {} {}\n".format, *_xyz(points[i])))

    # the quad at (i, j) has corners a = i nv + j + 1, b = a + nv, c = b + 1,
    # d = a + 1 (1-based); it is the two triangles (a, b, c) and (a, c, d)
    index = list(map(str, range(1, nu * nv + 1)))
    quad = "f {0} {1} {2}\nf {0} {2} {3}\n".format

    def faces(i: int) -> str:
        a, b = i * nv, (i + 1) * nv
        return "".join(map(quad, index[a : b - 1], index[b : b + nv - 1],
                           index[b + 1 : b + nv], index[a + 1 : b]))

    return _MeshText(head, ((nu, vertices), (nu - 1, faces)), "")


def _mesh_metadata(surface) -> dict:
    if isinstance(surface, TildeSurface):
        meta = _mesh_metadata(surface.source)
        meta["kind"] = surface.kind.value
        meta["note"] = "T-image of the source family listed under 'family'"
        return meta
    prof = surface.profile
    return {
        "family": surface.family.value,
        "provenance": prof.provenance.value,
        "params": prof.params.to_dict(),
        "truncated": prof.truncated,
        "truncation_reason": prof.truncation_reason,
    }


def _json_text(surface, us, vs, points) -> _MeshText:
    doc = {
        "schema": 1,
        "tool_version": __version__,
        "nu": len(us),
        "nv": len(vs),
        "u": [float(x) for x in us],
        "v": [float(x) for x in vs],
        "points": [],
    }
    doc.update(_mesh_metadata(surface))
    head, _, tail = json.dumps(doc, sort_keys=True, indent=1).partition('"points": []')
    # the points block in json.dumps' indent=1 layout: the key sits at depth 1,
    # so grid lines open at 2 spaces, points at 3 and coordinates at 4
    point = "   [\n    {},\n    {},\n    {},\n    {}\n   ]".format
    x4 = _x4(points)

    def line(i: int) -> str:
        return ((",\n  [\n" if i else "  [\n")
                + ",\n".join(map(point, *_xyz(points[i]), x4(i))) + "\n  ]")

    return _MeshText(head + '"points": [\n', ((len(us), line),), "\n ]" + tail + "\n")
