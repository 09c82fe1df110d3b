"""Mesh export in CSV, OBJ and JSON, with byte-deterministic formatting.

Floats are written with ``repr``, i.e. the shortest decimal string that
round-trips to the same IEEE-754 double, so parse -> re-export is
byte-identical and diffs between runs are meaningful.
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


def _fmt(x) -> str:
    """Shortest round-trip decimal for a double."""
    return repr(float(x))


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

    The grid must lie inside the surface domains (domain errors propagate
    from evaluation).  Returns the written path; I/O failures are
    re-raised with the path attached.
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
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"failed to write mesh to {path}: {exc}") from exc
    return path


def _render_csv(us, vs, points) -> str:
    lines = [CSV_HEADER]
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            x = points[i, j]
            lines.append(
                ",".join((_fmt(u), _fmt(v), _fmt(x[0]), _fmt(x[1]), _fmt(x[2]), _fmt(x[3])))
            )
    return "\n".join(lines) + "\n"


def _render_obj(us, vs, points) -> str:
    nu, nv = len(us), len(vs)
    lines = [
        "# meridian surface mesh: orthogonal projection to (x1, x2, x3); "
        "coordinate x4 dropped"
    ]
    for i in range(nu):
        for j in range(nv):
            x = points[i, j]
            lines.append(f"v {_fmt(x[0])} {_fmt(x[1])} {_fmt(x[2])}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


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
        "points": points.tolist(),
    }
    doc.update(_mesh_metadata(surface))
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
