"""Tests for mesh export: formats, counts, byte determinism."""

import json

import numpy as np
import pytest

from meridian4 import (
    BranchSigns,
    CaseSpec,
    MeridianFamily,
    ProfileParams,
    Theorem,
    TildeKind,
    assemble,
    export_mesh,
    integrate_frenet,
    minimal_profile,
    standard_initial_frame,
    tilde_surface,
    verify_case,
)
from meridian4.export import CSV_HEADER
from meridian4.harness import _build_case


@pytest.fixture(scope="module")
def small_surface():
    family = MeridianFamily.SECOND
    cf = family.curve_family
    curve = integrate_frenet(cf, lambda v: 0.5, standard_initial_frame(cf), (0.0, 1.0), 1e-2)
    profile = minimal_profile(family, ProfileParams(a=0.0, b=1.0), (-0.4, 0.4), 81)
    return assemble(family, curve, profile)


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
