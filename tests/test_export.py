"""Tests for mesh export: formats, counts, byte determinism."""

import errno
import json
import math
import os
import threading

import numpy as np
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
    TildeKind,
    export_mesh,
    minimal_profile,
    standard_initial_frame,
    tilde_surface,
    verify_case,
)
from meridian4 import __version__, export
from meridian4.export import (
    CSV_HEADER, _csv_text, _file_bytes, _json_text, _mesh_metadata, _obj_text,
)
from meridian4.harness import _build_case


@pytest.fixture(scope="module")
def small_surface():
    family = MeridianFamily.SECOND
    cf = family.curve_family
    curve = FrameField(cf, 0.5, standard_initial_frame(cf), (0.0, 1.0))
    profile = minimal_profile(family, ProfileParams(a=0.0, b=1.0), (-0.4, 0.4), step=1e-2)
    return MeridianSurface(family, curve, profile)


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
    til = tilde_surface(TildeKind.PRIME, small_surface)
    path = export_mesh(til, us, vs, tmp_path / "tilde.json", fmt="json")
    doc = json.loads(path.read_text())
    assert doc["kind"] == "tilde-prime"
    assert doc["family"] == "second"
    assert "T-image" in doc["note"]


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
    surface = tilde_surface(TildeKind.PRIME, meridian) if kind == "tilde" else meridian
    path = export_mesh(surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert path.read_bytes() == _reference(fmt, surface, us, vs).encode("ascii")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e300, -1e300]
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
    def in_process(text):
        return b"".join(_file_bytes(text, 1)).decode("ascii")

    assert in_process(_csv_text(us, vs, points)) == _ref_csv(us, vs, points)
    assert in_process(_obj_text(us, vs, points)) == _ref_obj(us, vs, points)
    assert in_process(_json_text(small_surface, us, vs, points)) == _ref_json(small_surface, us, vs, points)


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
# Fan-out over forked workers: the same bytes from any number of workers, a
# failed worker raises before the file is opened, and no child outlives a call.


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fan_out(monkeypatch):
    """``fan_out(w)``: render every mesh with w usable CPUs and no size floor;
    returns the list of pids that ``os.fork`` gave the parent."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def setup(workers):
        monkeypatch.setattr(export, "_FAN_OUT_MIN_POINTS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        monkeypatch.setattr(os, "fork", counting_fork)
        return forked

    return setup


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
@pytest.mark.parametrize("kind", ["meridian", "tilde", "truncated"])
@pytest.mark.parametrize("shape", [(2, 5), (7, 4)])
@pytest.mark.parametrize("workers", [2, 3])
def test_fanned_out_bytes_match_the_reference(small_surface, tmp_path, fan_out, fmt, kind,
                                              shape, workers):
    # nu = 2 gives fewer u lines than 3 workers (and one face row); 7 lines
    # split 3 + 4 or 2 + 2 + 3
    forked = fan_out(workers)
    meridian = _truncated_quasi_c() if kind == "truncated" else small_surface
    us, vs = np.linspace(*meridian.u_span, shape[0]), np.linspace(*meridian.v_span, shape[1])
    surface = tilde_surface(TildeKind.PRIME, meridian) if kind == "tilde" else meridian
    path = export_mesh(surface, us, vs, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert len(forked) == min(workers, shape[0]) - 1
    assert path.read_bytes() == _reference(fmt, surface, us, vs).encode("ascii")
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failing_worker_raises_and_writes_nothing(small_surface, grids, tmp_path, fan_out,
                                                    monkeypatch, capfd, workers):
    forked = fan_out(workers)
    parent, real_xyz = os.getpid(), export._xyz

    def xyz_failing_in_a_child(line):
        if os.getpid() != parent:
            raise ValueError("render failed in a child")
        return real_xyz(line)

    monkeypatch.setattr(export, "_xyz", xyz_failing_in_a_child)
    path = tmp_path / "mesh.obj"
    with pytest.raises(RuntimeError, match="mesh rendering failed in worker"):
        export_mesh(small_surface, *grids, path, fmt="obj")
    assert len(forked) == workers - 1
    assert not path.exists()
    assert "render failed in a child" in capfd.readouterr().err
    _assert_no_child_left()


def test_a_failing_parent_reaps_its_workers(small_surface, grids, tmp_path, fan_out, monkeypatch):
    forked = fan_out(3)
    parent, real_xyz = os.getpid(), export._xyz

    def xyz_failing_in_the_parent(line):
        if os.getpid() == parent:
            raise ValueError("render failed in the parent")
        return real_xyz(line)

    monkeypatch.setattr(export, "_xyz", xyz_failing_in_the_parent)
    path = tmp_path / "mesh.csv"
    with pytest.raises(ValueError, match="render failed in the parent"):
        export_mesh(small_surface, *grids, path)
    assert len(forked) == 2
    assert not path.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_a_fork_that_fails_renders_in_process(small_surface, grids, tmp_path, fan_out,
                                              monkeypatch, fmt, forks_before_failing):
    forked = fan_out(3)
    counting_fork = os.fork

    def fork_that_fails():
        if len(forked) >= forks_before_failing:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_that_fails)
    path = export_mesh(small_surface, *grids, tmp_path / f"mesh.{fmt}", fmt=fmt)
    assert len(forked) == forks_before_failing
    assert path.read_bytes() == _reference(fmt, small_surface, *grids).encode("ascii")
    _assert_no_child_left()


def _fork_must_not_run():
    raise AssertionError("os.fork called")


def test_small_meshes_render_in_process(small_surface, grids, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    us, vs = grids
    assert len(us) * len(vs) < export._FAN_OUT_MIN_POINTS
    path = export_mesh(small_surface, us, vs, tmp_path / "mesh.csv")
    assert path.read_bytes() == _reference("csv", small_surface, us, vs).encode("ascii")


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_fork_without_the_os_calls(small_surface, grids, tmp_path, fan_out, monkeypatch,
                                      missing):
    fan_out(3)
    monkeypatch.setattr(os, "fork", _fork_must_not_run)
    monkeypatch.delattr(os, missing)
    path = export_mesh(small_surface, *grids, tmp_path / "mesh.obj", fmt="obj")
    assert path.read_bytes() == _reference("obj", small_surface, *grids).encode("ascii")


def test_no_fork_while_another_thread_runs(small_surface, grids, tmp_path, fan_out, monkeypatch):
    fan_out(3)
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
