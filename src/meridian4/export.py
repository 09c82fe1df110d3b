"""Mesh export in CSV, OBJ and JSON, with byte-deterministic formatting.

Floats are written as ``repr`` writes them, i.e. the shortest decimal
string that round-trips to the same IEEE-754 double, so parse -> re-export
is byte-identical and diffs between runs are meaningful.  Files are ASCII
with ``\n`` line ends on every platform.

Each renderer turns a block of consecutive u grid lines (of grid rows, for
obj faces) into text with one flat ``orjson.dumps`` and one numpy pass over
its bytes that puts in the separators (``_lines``), and the file is written
block by block.  A block holds at most ``_BLOCK_VALUES`` values (~32 KB of
float64), so its arrays and text stay in cache; a grid line wider than that
is a block on its own.  orjson (Ryu) writes the same shortest round-trip
digits as ``repr``, and spells them the same way for 1e-4 <= |x| < 1e16
and for +-0; ``_floats`` puts ``repr``'s text in for every other value.
The JSON points block is spliced into ``json.dumps(indent=1)``'s own layout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson

from . import __version__
from .surfaces import MeridianSurface, TildeSurface

__all__ = ["export_mesh", "CSV_HEADER"]

CSV_HEADER = "u,v,x1,x2,x3,x4"

_FORMATS = ("csv", "obj", "json")

_NUMPY = orjson.OPT_SERIALIZE_NUMPY

# values rendered per block of grid lines: 4,096 float64 are 32 KB
_BLOCK_VALUES = 4096


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
    included, propagate from evaluation) before the file is opened; the
    file is then written in blocks of grid lines.  Returns the written
    path; I/O failures are re-raised with the path attached.
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

    path = Path(path)
    try:
        with open(path, "wb") as out:
            out.writelines(_render(fmt, surface, us, vs, points))
    except OSError as exc:
        raise OSError(f"failed to write mesh to {path}: {exc}") from exc
    return path


def _floats(a) -> bytes:
    """The text of a float array as orjson writes it (nested ``[..]`` lists,
    ``,`` between values), with every value spelled as ``float.__repr__``
    spells it.

    The two agree for 1e-4 <= |x| < 1e16 and for +-0.  Outside that band
    orjson writes 0.00001 and 1e16 where repr writes 1e-05 and 1e+16, and
    null for inf and nan; those values are dumped as NaN and repr's text
    replaces each ``null``, in order.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    mag = np.abs(a)
    outside = ~(((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0))  # NaN fails every test
    if not outside.any():
        return orjson.dumps(a, option=_NUMPY)
    text = orjson.dumps(np.where(outside, np.nan, a), option=_NUMPY).split(b"null")
    spliced = [b""] * (2 * len(text) - 1)
    spliced[0::2] = text
    spliced[1::2] = [float.__repr__(x).encode("ascii") for x in a[outside].tolist()]
    return b"".join(spliced)


def _lines(text: bytes, k: int, sep: bytes, prefix: bytes = b"", mark: bytes = b"",
           every: int = 0) -> bytes:
    """The flat dump ``[a,b,...]`` of an (n, k) block as n lines, each opened
    by ``prefix``: in one pass over a ``uint8`` view every comma becomes the
    one byte ``sep``, every k-th comma and the ``]`` a ``\n``, and, given a
    ``mark``, every ``every``-th comma that byte instead.  No value's text
    holds a comma (orjson's digits and ints; ``repr``'s ``1e-05``, ``inf``,
    ``nan``, ``5e-324``), so each comma parts two values."""
    buf = np.frombuffer(text, dtype=np.uint8)[1:].copy()
    commas = np.flatnonzero(buf == ord(","))
    buf[commas] = ord(sep)
    buf[commas[k - 1::k]] = buf[-1] = ord("\n")
    if mark:
        buf[commas[every - 1::every]] = ord(mark)
    lines = buf.tobytes()
    # each line end but the last opens the next line
    return prefix + lines.replace(b"\n", b"\n" + prefix, len(commas) // k) if prefix else lines


def _blocks(n: int, width: int) -> range:
    """The first line of each block of ``n`` lines of ``width`` values: as
    many whole lines as ``_BLOCK_VALUES`` holds, and at least one."""
    return range(0, n, max(1, _BLOCK_VALUES // width))


def _render(fmt: str, surface, us, vs, points) -> Iterator[bytes]:
    """The ASCII bytes of a mesh file, in pieces: a head, one piece per block
    of u grid lines (and per block of grid rows of obj faces), and a tail."""
    if fmt == "csv":
        return _csv(us, vs, points)
    if fmt == "obj":
        return _obj(points)
    return _json(surface, us, vs, points)


def _csv(us, vs, points) -> Iterator[bytes]:
    yield (CSV_HEADER + "\n").encode("ascii")
    nu, nv = points.shape[:2]
    starts = _blocks(nu, 6 * nv)
    rows = np.empty((min(starts.step, nu), nv, 6))  # (u, v, x1, x2, x3, x4) per sample
    rows[:, :, 1] = vs
    for i in starts:
        u = us[i:i + starts.step]
        block = rows[:len(u)]
        block[:, :, 0] = u[:, None]
        block[:, :, 2:] = points[i:i + starts.step]
        yield _lines(_floats(block.ravel()), 6, b",")


def _obj(points) -> Iterator[bytes]:
    nu, nv = points.shape[:2]
    yield (b"# meridian surface mesh: orthogonal projection to (x1, x2, x3); "
           b"coordinate x4 dropped\n")
    starts = _blocks(nu, 3 * nv)
    for i in starts:
        yield _lines(_floats(points[i:i + starts.step, :, :3].ravel()), 3, b" ", b"v ")
    # the quad at (i, j) has corners a = i nv + j + 1, b = a + nv, c = b + 1,
    # d = a + 1 (1-based); it is the two triangles (a, b, c) and (a, c, d)
    a = np.arange(1, nv, dtype=np.int64)
    quads = np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1], axis=1).ravel()
    starts = _blocks(nu - 1, quads.size)
    for i in starts:
        rows = np.arange(i, min(i + starts.step, nu - 1), dtype=np.int64)[:, None]
        yield _lines(orjson.dumps((quads + rows * nv).ravel(), option=_NUMPY), 3, b" ", b"f ")


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


def _json(surface, us, vs, points) -> Iterator[bytes]:
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
    yield (head + '"points": [\n').encode("ascii")
    # the points block in json.dumps' indent=1 layout: the key sits at depth 1,
    # so grid lines open at 2 spaces, points at 3 and coordinates at 4
    nu, nv = points.shape[:2]
    starts = _blocks(nu, 4 * nv)
    for i in starts:
        block = points[i:i + starts.step]
        # ";" between coordinates and "|" between grid lines: no value's text holds them
        text = _lines(_floats(block.ravel()), 4, b";", mark=b"|", every=4 * nv)
        # every point end but the block's last (the other grid line ends are "|")
        text = text.replace(b"\n", b"\n   ],\n   [\n    ", block.shape[0] * (nv - 1))
        text = text.replace(b"|", b"\n   ]\n  ],\n  [\n   [\n    ")
        yield ((b",\n  [\n   [\n    " if i else b"  [\n   [\n    ")
               + text.replace(b";", b",\n    ") + b"   ]\n  ]")
    yield ("\n ]" + tail + "\n").encode("ascii")
