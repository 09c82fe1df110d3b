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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .surfaces import MeridianSurface, TildeSurface

__all__ = ["export_mesh", "CSV_HEADER"]

CSV_HEADER = "u,v,x1,x2,x3,x4"

_FORMATS = ("csv", "obj", "json")


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
        provenance, grid vectors, tool version, and a schema tag.

    The grid must lie inside the surface domains (domain errors, NaN
    included, propagate from evaluation).  Returns the written path; I/O
    failures are re-raised with the path attached.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}; choose one of {_FORMATS}")
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if us.ndim != 1 or vs.ndim != 1 or len(us) < 2 or len(vs) < 2:
        raise ValueError("us and vs must be 1-d grids with at least 2 samples each")
    points = surface.grid_points(us, vs)

    if fmt == "csv":
        text = _render_csv(us, vs, points)
    elif fmt == "obj":
        text = _render_obj(us, vs, points)
    else:
        text = _render_json(surface, us, vs, points)

    path = Path(path)
    try:
        path.write_bytes(text.encode("ascii"))
    except OSError as exc:
        raise OSError(f"failed to write mesh to {path}: {exc}") from exc
    return path


def _xyz(points):
    """Per u grid line, the text of x1, x2 and x3 at its points: three lists.

    Each line is formatted from one ``tolist`` of the whole line.
    """
    for line in points[..., :3]:
        text = list(map(float.__repr__, line.ravel().tolist()))
        yield text[0::3], text[1::3], text[2::3]


def _x4(points):
    """Per u grid line, the text of x4 at its points: one list.

    x4 is g(u) on a meridian surface, so a line whose x4 has one bit pattern
    formats it once; comparing bits, not values, keeps a line that mixes
    -0.0 and 0.0 apart.  A tilde surface mixes the coordinates, and its x4
    is formatted per point.
    """
    x4 = points[..., 3]
    bits = x4.view(np.uint64)
    for line, constant in zip(x4.tolist(), (bits == bits[:, :1]).all(axis=1).tolist()):
        yield [float.__repr__(line[0])] * len(line) if constant else list(map(float.__repr__, line))


def _render_csv(us, vs, points) -> str:
    vtext = list(map(float.__repr__, vs.tolist()))
    parts = [CSV_HEADER]
    for u, xyz, x4 in zip(map(float.__repr__, us.tolist()), _xyz(points), _x4(points)):
        parts.append("\n".join(map((u + ",{},{},{},{},{}").format, vtext, *xyz, x4)))
    return "\n".join(parts) + "\n"


def _render_obj(us, vs, points) -> str:
    nu, nv = len(us), len(vs)
    parts = [
        "# meridian surface mesh: orthogonal projection to (x1, x2, x3); "
        "coordinate x4 dropped"
    ]
    parts += ("\n".join(map("v {} {} {}".format, *xyz)) for xyz in _xyz(points))
    # the quad at (i, j) has corners a = i nv + j + 1, b = a + nv, c = b + 1,
    # d = a + 1 (1-based); it is the two triangles (a, b, c) and (a, c, d)
    index = list(map(str, range(1, nu * nv + 1)))
    quad = "f {0} {1} {2}\nf {0} {2} {3}".format
    for a in range(0, (nu - 1) * nv, nv):
        b = a + nv
        parts.append(
            "\n".join(map(quad, index[a : b - 1], index[b : b + nv - 1],
                          index[b + 1 : b + nv], index[a + 1 : b]))
        )
    return "\n".join(parts) + "\n"


def _mesh_metadata(surface) -> dict:
    if isinstance(surface, TildeSurface):
        meta = _mesh_metadata(surface.source)
        meta["kind"] = surface.kind.value
        meta["note"] = "T-image of the source family listed under 'family'"
        return meta
    assert isinstance(surface, MeridianSurface)
    prof = surface.profile
    return {
        "family": surface.family.value,
        "provenance": prof.provenance.value,
        "params": prof.params.to_dict(),
        "truncated": prof.truncated,
        "truncation_reason": prof.truncation_reason,
    }


def _render_json(surface, us, vs, points) -> str:
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
    lines = (
        "  [\n" + ",\n".join(map(point, *xyz, x4)) + "\n  ]"
        for xyz, x4 in zip(_xyz(points), _x4(points))
    )
    return head + '"points": [\n' + ",\n".join(lines) + "\n ]" + tail + "\n"
