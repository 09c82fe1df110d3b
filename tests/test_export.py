"""Tests for mesh export: formats, counts, byte determinism."""

import json
import math
import os
import threading
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    BranchSigns,
    CaseSpec,
    DomainError,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    Theorem,
    TildeSurface,
    export_mesh,
    minimal_profile,
    sample_case,
    verify_case,
)
from meridian4 import __version__, export
from meridian4.export import CSV_HEADER, _floats, _lines, _mesh_metadata, _render
from meridian4.harness import _build_case


@pytest.fixture(scope="module")
def small_surface():
    family = MeridianFamily.SECOND
    curve = FrameField(family.curve_family, 0.5, (0.0, 1.0))
    profile = minimal_profile(family, ProfileParams(a=0.0, b=1.0), (-0.4, 0.4), step=1e-2)
    return MeridianSurface(curve, profile)


@pytest.fixture(scope="module")
def grids():
    return np.linspace(-0.3, 0.3, 6), np.linspace(0.1, 0.9, 5)


def test_csv_layout(small_surface, grids, tmp_path):
    us, vs = grids
    path = export_mesh(small_surface, us, vs, tmp_path / "mesh.csv", fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(us) * len(vs)
    # u is the outer loop; second row is (us[0], vs[1])
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == us[0] and float(first[1]) == vs[0]
    assert float(second[0]) == us[0] and float(second[1]) == vs[1]
    # repr round-trip: parsed floats reproduce the evaluated points exactly
    pts = small_surface.grid_points(us, vs)
    row = np.array([float(x) for x in lines[1].split(",")[2:]])
    np.testing.assert_array_equal(row, pts[0, 0])


def test_obj_counts(small_surface, grids, tmp_path):
    us, vs = grids
    path = export_mesh(small_surface, us, vs, tmp_path / "mesh.obj", fmt="obj")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "projection" in lines[0]
    n_vert = sum(1 for ln in lines if ln.startswith("v "))
    n_face = sum(1 for ln in lines if ln.startswith("f "))
    assert n_vert == len(us) * len(vs)
    assert n_face == 2 * (len(us) - 1) * (len(vs) - 1)


def test_json_metadata(small_surface, grids, tmp_path):
    us, vs = grids
    path = export_mesh(small_surface, us, vs, tmp_path / "mesh.json", fmt="json")
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["family"] == "second"
    assert doc["provenance"] == "closed-form-minimal"
    assert doc["params"]["branch_signs"] == "++++"
    assert doc["nu"] == len(us) and doc["nv"] == len(vs)
    assert np.asarray(doc["points"]).shape == (len(us), len(vs), 4)
    assert doc["truncated"] is False


def test_mesh_profile_and_report_agree_on_params(tmp_path):
    # the truncated second-family case: the march stops at u = 2.063
    params = ProfileParams(a=0.5, c=2.0, c0=0.25, branch=BranchSigns(g=-1))
    spec = CaseSpec(Theorem.QUASI_C, params, f0=2.0, u_span=(0.0, 5.0), nu=7, nv=7)
    surface = _build_case(spec)[0]
    us, vs = np.linspace(*surface.u_span, 7), np.linspace(*surface.v_span, 7)
    mesh = json.loads(export_mesh(surface, us, vs, tmp_path / "m.json", fmt="json").read_text())
    report = verify_case(spec).to_dict()
    assert mesh["params"] == surface.profile.params.to_dict() == report["case"]["params"]
    assert mesh["params"] == {"a": 0.5, "b": 0.0, "c": 2.0, "c0": 0.25, "branch_signs": "+-++"}
    assert mesh["truncated"] is report["stats"]["truncated"] is True
    assert mesh["truncation_reason"] == report["stats"]["truncation_reason"] == "phi-inadmissible"


def test_tilde_metadata_notes_the_source(small_surface, grids, tmp_path):
    us, vs = grids
    til = TildeSurface(small_surface)
    path = export_mesh(til, us, vs, tmp_path / "tilde.json", fmt="json")
    doc = json.loads(path.read_text())
    assert doc["kind"] == "tilde-prime"
    assert doc["family"] == "second"
    assert "T-image" in doc["note"]


def test_json_of_another_surface_is_a_value_error_naming_its_type(small_surface, grids,
                                                                  tmp_path):
    """Only a meridian surface and its T-image carry json's metadata; any
    other surface fails before it is evaluated or a file is opened, and the
    same surface still writes csv and obj."""
    class PointCloud:
        def grid_points(self, us, vs):
            calls.append((len(us), len(vs)))
            return small_surface.grid_points(us, vs)

    us, vs = grids
    calls = []
    with pytest.raises(ValueError, match="cannot export a PointCloud$"):
        export_mesh(PointCloud(), us, vs, tmp_path / "cloud.json", fmt="json")
    assert calls == [] and not (tmp_path / "cloud.json").exists()
    for fmt in ("csv", "obj"):
        export_mesh(PointCloud(), us, vs, tmp_path / f"cloud.{fmt}", fmt=fmt)
    assert len(calls) == 2


def test_export_is_byte_deterministic(small_surface, grids, tmp_path):
    us, vs = grids
    a = export_mesh(small_surface, us, vs, tmp_path / "a.csv").read_bytes()
    b = export_mesh(small_surface, us, vs, tmp_path / "b.csv").read_bytes()
    assert a == b


def test_export_validation(small_surface, grids, tmp_path):
    us, vs = grids
    with pytest.raises(ValueError, match="unknown mesh format"):
        export_mesh(small_surface, us, vs, tmp_path / "x.bin", fmt="bin")
    with pytest.raises(ValueError, match="at least 2 samples"):
        export_mesh(small_surface, us[:1], vs, tmp_path / "x.csv")
    with pytest.raises(OSError, match="failed to write"):
        export_mesh(small_surface, us, vs, tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# Byte identity against the written-out per-element renderers: each formats
# every coordinate of every row on its own, the layout the files promise.


def _ref_fmt(x) -> str:
    return repr(float(x))


def _ref_csv(us, vs, points) -> str:
    lines = [CSV_HEADER]
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            x = points[i, j]
            lines.append(",".join((_ref_fmt(u), _ref_fmt(v), *map(_ref_fmt, x[:4]))))
    return "\n".join(lines) + "\n"


def _ref_obj(us, vs, points) -> str:
    nu, nv = len(us), len(vs)
    lines = [
        "# meridian surface mesh: orthogonal projection to (x1, x2, x3); "
        "coordinate x4 dropped"
    ]
    for i in range(nu):
        for j in range(nv):
            x = points[i, j]
            lines.append(f"v {_ref_fmt(x[0])} {_ref_fmt(x[1])} {_ref_fmt(x[2])}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def _ref_json(surface, us, vs, points) -> str:
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


def _reference(fmt, surface, us, vs):
    points = surface.grid_points(us, vs)
    if fmt == "json":
        return _ref_json(surface, us, vs, points)
    return {"csv": _ref_csv, "obj": _ref_obj}[fmt](us, vs, points)


def _truncated_quasi_c():
    # the case of test_mesh_profile_and_report_agree_on_params
    params = ProfileParams(a=0.5, c=2.0, c0=0.25, branch=BranchSigns(g=-1))
    spec = CaseSpec(Theorem.QUASI_C, params, f0=2.0, u_span=(0.0, 5.0), nu=7, nv=7)
    return _build_case(spec)[0]


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
@pytest.mark.parametrize("kind", ["meridian", "tilde", "truncated"])
@pytest.mark.parametrize("shape", [(6, 5), (2, 2), (2, 9), (9, 2)])
def test_export_bytes_match_the_per_element_reference(small_surface, tmp_path, fmt, kind, shape):
    meridian = _truncated_quasi_c() if kind == "truncated" else small_surface
    us, vs = np.linspace(*meridian.u_span, shape[0]), np.linspace(*meridian.v_span, shape[1])
    surface = TildeSurface(meridian) if kind == "tilde" else meridian
    path = export_mesh(surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert path.read_bytes() == _reference(fmt, surface, us, vs).encode("ascii")


# the band edges of _floats and two values orjson spells otherwise than repr
# (5.454766091567068e-6 and 0.00001)
_EDGES = [math.nextafter(x, y) for x in (1e-4, 1e16) for y in (0.0, math.inf)]
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e300, -1e300,
            1e-4, -1e-4, 5.454766091567068e-06, -5.454766091567068e-06, *_EDGES,
            *(-x for x in _EDGES)]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _point_grids(draw):
    nu, nv = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    us = np.array(draw(st.lists(_FLOATS, min_size=nu, max_size=nu)))
    vs = np.array(draw(st.lists(_FLOATS, min_size=nv, max_size=nv)))
    flat = draw(st.lists(_FLOATS, min_size=nu * nv * 4, max_size=nu * nv * 4))
    points = np.array(flat).reshape(nu, nv, 4)
    x4 = draw(st.sampled_from(["constant", "signed-zero", "free"]))
    if x4 == "constant":
        # g(u): one value along each u line, as on a meridian surface
        points[..., 3] = points[:, :1, 3]
    elif x4 == "signed-zero":
        # equal values, different bits: each point keeps its own sign
        points[..., 3] = np.where(np.array(draw(st.lists(st.booleans(), min_size=nv, max_size=nv))),
                                  -0.0, 0.0)
    return us, vs, points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=_point_grids())
def test_renderers_match_the_reference_on_any_finite_points(small_surface, grid):
    us, vs, points = grid
    def rendered(fmt):
        return b"".join(_render(fmt, small_surface, us, vs, points)).decode("ascii")

    assert rendered("csv") == _ref_csv(us, vs, points)
    assert rendered("obj") == _ref_obj(us, vs, points)
    assert rendered("json") == _ref_json(small_surface, us, vs, points)


# values per sample in each format's blocks: csv's (u, v, x1..x4), obj's
# vertex (x1, x2, x3), json's point
_PER_SAMPLE = {"csv": 6, "obj": 3, "json": 4}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=_point_grids(), lines=st.integers(0, 3), slack=st.integers(0, 47))
def test_blocks_of_any_number_of_grid_lines_match_the_reference(small_surface, grid, lines,
                                                               slack):
    """With the block budget cut to a few values, a block holds `lines` whole
    grid lines (0: one line over the budget, a block on its own), and the
    pieces still join to the reference text."""
    us, vs, points = grid
    nu, nv = points.shape[:2]
    refs = {"csv": _ref_csv(us, vs, points), "obj": _ref_obj(us, vs, points),
            "json": _ref_json(small_surface, us, vs, points)}
    for fmt, k in _PER_SAMPLE.items():
        budget = max(1, lines * k * nv + slack % (k * nv))  # short of lines + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(export, "_BLOCK_VALUES", budget)
            pieces = list(_render(fmt, small_surface, us, vs, points))
        assert b"".join(pieces).decode("ascii") == refs[fmt]
        if fmt != "obj":  # a head, the blocks (and json's tail)
            assert len(pieces) == 1 + -(-nu // max(1, lines)) + (fmt == "json")


def _render_peak(fmt, surface, nu, nv) -> int:
    """The traced peak of rendering random points on an nu x nv grid, each
    piece dropped as it comes, as a file write drops it."""
    rng = np.random.default_rng(nu * nv)
    us, vs, points = np.sort(rng.normal(size=nu)), rng.normal(size=nv), rng.normal(size=(nu, nv, 4))
    tracemalloc.start()
    try:
        for _ in _render(fmt, surface, us, vs, points):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
def test_rendering_holds_one_block_at_a_time(small_surface, fmt):
    """A 201x201 mesh (4-5 MB of text) renders under 1 MB of traced memory,
    and twice its grid lines add no more than a fifth: the renderer holds a
    block, not the file."""
    peak = _render_peak(fmt, small_surface, 201, 201)
    assert peak < 2**20
    assert _render_peak(fmt, small_surface, 401, 201) <= 1.2 * peak


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
def test_written_bytes_are_the_rendered_ascii_text(small_surface, grids, tmp_path, fmt):
    us, vs = grids
    data = export_mesh(small_surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt).read_bytes()
    assert data == _reference(fmt, small_surface, us, vs).encode("ascii")
    assert b"\r" not in data


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("axis", ["u", "v"])
def test_nan_grid_is_a_domain_error(small_surface, tmp_path, axis):
    us, vs = np.array([-0.3, math.nan, 0.3]), np.array([0.1, 0.5, 0.9])
    if axis == "v":
        us, vs = np.array([-0.3, 0.0, 0.3]), np.array([0.1, math.nan, 0.9])
    match = "profile domain" if axis == "u" else "directrix domain"
    with pytest.raises(DomainError, match=match):
        small_surface.immersion(us[:, None], vs[None, :])
    for fmt in ("csv", "obj", "json"):
        path = tmp_path / f"mesh.{fmt}"
        with pytest.raises(DomainError, match=match):
            export_mesh(small_surface, us, vs, path, fmt=fmt)
        assert not path.exists()
    # a finite grid still writes RFC 8259 JSON
    path = export_mesh(small_surface, us[[0, 2]], vs[[0, 2]], tmp_path / "ok.json", fmt="json")
    json.loads(path.read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# The float formatter: orjson's text where it equals repr's, repr's elsewhere.
# The band was established on orjson 3.8.3; an orjson that spells a value
# otherwise fails here.


def _repr_list(values) -> bytes:
    return ("[" + ",".join(map(float.__repr__, values.tolist())) + "]").encode("ascii")


def test_floats_spell_every_value_as_repr_does():
    rng = np.random.default_rng(20261020)
    # 1M bit patterns with exponents 2^-14 to 2^54, which cover the band
    # [1e-4, 1e16) where orjson's text is kept, then any bit pattern (NaNs,
    # infinities and subnormals included: 97% of them take repr's text)
    any_bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, size=1_000_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 54, size=1_000_000, dtype=np.uint64, endpoint=True)
    sign = rng.integers(0, 2, size=1_000_000, dtype=np.uint64)
    in_band_bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    decades = [float(f"1e{k}") for k in range(-324, 309)]
    edges = [math.nextafter(x, y) for x in decades for y in (0.0, math.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
               5.454766091567068e-06, 1e-05, 1e-4, 1e16, *_EDGES]
    for values in (in_band_bits.view(np.float64), any_bits.view(np.float64),
                   np.array(decades + edges + special), -np.array(decades + edges)):
        assert _floats(values) == _repr_list(values)
    # a 2-d array keeps its rows
    grid = np.array([[1e-05, 0.5], [math.inf, -0.0]])
    assert _floats(grid) == b"[[1e-05,0.5],[inf,-0.0]]"
    assert _floats(grid.T) == b"[[1e-05,inf],[0.5,-0.0]]"


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
def test_a_201x201_mesh_with_out_of_band_coordinates_matches_the_reference(tmp_path, fmt):
    surface = _build_case(sample_case(Theorem.CMC_B, np.random.default_rng(2), c=1.0))[0]
    us, vs = np.linspace(*surface.u_span, 201), np.linspace(*surface.v_span, 201)
    mag = np.abs(surface.grid_points(us, vs))
    assert np.any((mag != 0) & ((mag < 1e-4) | (mag >= 1e16)))  # the repr fallback runs
    path = export_mesh(surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert path.read_bytes() == _reference(fmt, surface, us, vs).encode("ascii")


# ---------------------------------------------------------------------------
# _lines places every separator with one pass over a flat dump's bytes; each
# block here is checked against a join of every element's own text.


def _joined(block, sep: str, prefix: str = "") -> bytes:
    rows = block.tolist()
    return "".join(prefix + sep.join(map(repr, row)) + "\n" for row in rows).encode("ascii")


_OUT_OF_BAND = [1e-05, math.inf, -math.inf, math.nan, 5e-324, 1e16]


@pytest.mark.parametrize("column", [0, 2, 4])
@pytest.mark.parametrize("sep, prefix", [(b",", b""), (b" ", b"v "), (b";", b"-0.5,")])
def test_lines_keep_out_of_band_values_whole_in_any_column(column, sep, prefix):
    block = np.random.default_rng(column).normal(size=(len(_OUT_OF_BAND), 5))
    block[:, column] = _OUT_OF_BAND
    block[::2, 4 - column] = _OUT_OF_BAND[::2]
    got = _lines(_floats(block.ravel()), 5, sep, prefix)
    assert got == _joined(block, sep.decode(), prefix.decode())


@pytest.mark.parametrize("shape", [(9, 1), (1, 6), (1, 1), (1, 5)])
@pytest.mark.parametrize("prefix", [b"", b"f "])
def test_lines_of_one_column_or_one_row(shape, prefix):
    values = np.array([*_OUT_OF_BAND, 0.5, -0.0, 1e300])[: shape[0] * shape[1]]
    block = values.reshape(shape)
    got = _lines(_floats(values), shape[1], b",", prefix)
    assert got == _joined(block, ",", prefix.decode())


@pytest.mark.parametrize("nv", [2, 3, 201])
def test_lines_of_a_face_block_match_a_per_element_join(nv):
    # the faces of one grid row as _obj dumps them, and ints of every width
    a = np.arange(1, nv, dtype=np.int64)
    quads = np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1], axis=1).reshape(-1, 3)
    rng = np.random.default_rng(nv)
    wide = rng.integers(0, 2**62, size=(nv, 3)) >> rng.integers(0, 62, size=(nv, 3))
    for block in (quads, quads + 199 * nv, wide):
        text = orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        assert _lines(text, 3, b" ", b"f ") == _joined(block, " ", "f ")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), k=st.integers(1, 6), data=st.data(),
       sep=st.sampled_from([b",", b" ", b";"]), prefix=st.sampled_from([b"", b"v ", b"1e-05,"]))
def test_lines_match_a_per_element_join_on_any_block(rows, k, data, sep, prefix):
    floats = st.one_of(st.sampled_from(_SPECIAL + _OUT_OF_BAND), st.floats())
    block = np.array(data.draw(st.lists(floats, min_size=rows * k, max_size=rows * k)))
    got = _lines(_floats(block), k, sep, prefix)
    assert got == _joined(block.reshape(rows, k), sep.decode(), prefix.decode())


def _fork_must_not_run():
    raise AssertionError("os.fork called")


def test_export_never_forks(small_surface, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    us = np.linspace(*small_surface.u_span, 201)
    vs = np.linspace(*small_surface.v_span, 201)
    for fmt in ("csv", "obj", "json"):
        path = export_mesh(small_surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
        assert path.read_bytes() == _reference(fmt, small_surface, us, vs).encode("ascii")


# ---------------------------------------------------------------------------
# One process on any machine: neither the CPU count, nor a missing or failing
# os.fork, nor another running thread changes the bytes.


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
@pytest.mark.parametrize("kind", ["meridian", "tilde", "truncated"])
@pytest.mark.parametrize("shape", [(2, 5), (7, 4)])
@pytest.mark.parametrize("workers", [2, 3])
def test_bytes_match_the_reference_at_any_cpu_count(small_surface, tmp_path, monkeypatch, fmt,
                                                    kind, shape, workers):
    # `workers` usable CPUs: the export still renders in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    meridian = _truncated_quasi_c() if kind == "truncated" else small_surface
    us, vs = np.linspace(*meridian.u_span, shape[0]), np.linspace(*meridian.v_span, shape[1])
    surface = TildeSurface(meridian) if kind == "tilde" else meridian
    path = export_mesh(surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert path.read_bytes() == _reference(fmt, surface, us, vs).encode("ascii")


def test_small_mesh_bytes_match_the_reference_with_three_cpus(small_surface, grids, tmp_path,
                                                              monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    us, vs = grids
    path = export_mesh(small_surface, us, vs, tmp_path / "mesh.csv")
    assert path.read_bytes() == _reference("csv", small_surface, us, vs).encode("ascii")


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_bytes_match_the_reference_without_the_os_calls(small_surface, grids, tmp_path, monkeypatch,
                                                        missing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    monkeypatch.delattr(os, missing)
    path = export_mesh(small_surface, *grids, tmp_path / "mesh.obj", fmt="obj")
    assert path.read_bytes() == _reference("obj", small_surface, *grids).encode("ascii")


def test_bytes_match_the_reference_while_another_thread_runs(small_surface, grids, tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        path = export_mesh(small_surface, *grids, tmp_path / "mesh.json", fmt="json")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert path.read_bytes() == _reference("json", small_surface, *grids).encode("ascii")
