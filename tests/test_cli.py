"""CLI tests: flags, exit codes, report determinism."""

import copy
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meridian4.cli import main
from meridian4.harness import Theorem, _suite_cases


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "meridian4" in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--does-not-exist", "1"]) == 2


def test_theorem_or_family_required(capsys):
    assert main(["verify"]) == 2
    assert "--theorem or --family" in capsys.readouterr().err


def test_family_theorem_mismatch(capsys):
    assert main(["verify", "--family", "mpp", "--theorem", "minimal-a"]) == 2


def test_span_flags_must_pair(capsys):
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", "--u-min", "0"]) == 2


def test_bare_double_dash_branch_signs_is_usage_error(capsys):
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", "--branch-signs=--"]) == 2
    assert "write --branch-signs=--++" in capsys.readouterr().err


def test_verify_from_flags_passes(capsys):
    code = main(["verify", "--theorem", "quasi-a", "--a", "1", "--c", "2", "--f0", "3"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["schema"] == 1
    assert report["case"]["theorem"] == "quasi-a"


@pytest.mark.parametrize(
    "flags",
    [
        ["--theorem=minimal-a", "--a=1", "--b=1", "--v-min=0.5", "--v-max=1.5"],
        ["--theorem=quasi-a", "--a=1", "--c=2", "--f0=3", "--v-min=-0.5", "--v-max=0.5"],
        ["--theorem=cmc-b", "--a=3", "--b=0.5", "--c=0.5", "--f0=1", "--u-min=0", "--u-max=0.2",
         "--v-min=0.3", "--v-max=0.8"],
    ],
)
def test_verify_passes_on_a_v_window_away_from_zero(capsys, flags):
    assert main(["verify", *flags, "--nu=9", "--nv=9"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_verify_failure_exits_1(capsys, tmp_path):
    # inflated curvature makes the quasi-minimal <H,H> = 0 check fail
    code = main(
        [
            "verify", "--theorem", "quasi-a", "--a", "1.2", "--c", "1", "--f0", "2",
            "--u-min", "0", "--u-max", "0.8", "--seed", "1",
        ]
    )
    assert code == 0  # sanity: the honest case passes
    capsys.readouterr()
    report_path = tmp_path / "bad.json"
    spec = {
        "theorem": "quasi-a",
        "params": {"a": 1.2, "b": 0.0, "c": 1.0, "c0": 0.0, "branch_signs": "++++"},
        "curve_kappa": 1.7,
        "f0": 2.0,
        "u_span": [0.0, 0.8],
    }
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(spec))
    code = main(["verify", str(case_path), "--report", str(report_path)])
    assert code == 1
    assert "fail" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["status"] == "fail"


def test_verify_domain_error_exits_2(capsys):
    # a=0, b=-1 violates the first-timelike admissibility a^2 + b > 0
    assert main(["verify", "--theorem", "minimal-a", "--b", "-1"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_start_at_a_turning_point_exits_2(capsys):
    # f0 = 2 sits on a simple root of phi^2, where f' = 0 but f'' = -0.25
    argv = ["verify", "--theorem=quasi-a", "--a=0.5", "--c=1", "--f0=2", "--u-min=0", "--u-max=0.5"]
    assert main(argv) == 2
    assert "turning point" in capsys.readouterr().err


def test_verify_bad_case_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "case.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"theorem": "minimal-a", "params": {"a": 1.0, "zz": 2}}, "zz"),
        ({"theorem": "minimal-a", "params": [1.0, 2.0]}, "params"),
        ({"theorem": "minimal-a", "params": {"a": "1.0"}}, "params.a"),
        ({"theorem": "minimal-a", "params": {"branch_signs": 1}}, "params.branch_signs"),
        ({"theorem": "minimal-a", "nu": "21"}, "nu"),
        ({"theorem": "minimal-a", "nv": 21.5}, "nv"),
        ({"theorem": "minimal-a", "n_probe": True}, "n_probe"),
        ({"theorem": "minimal-a", "step": "1e-3"}, "step"),
        ({"theorem": "quasi-a", "f0": "2"}, "f0"),
        ({"theorem": "minimal-a", "u_span": [0.0]}, "u_span"),
        ({"theorem": "minimal-a", "v_span": [0.0, "1"]}, "v_span"),
        ({"params": {"b": 1.0}}, "theorem"),
        ({"theorem": "quasi-a", "params": {"a": 1.0, "c": 2.0}, "f0": float("inf")}, "f0"),
        ({"theorem": "minimal-a", "params": {"a": float("nan"), "b": 1.0}}, "parameter a"),
        ({"theorem": "minimal-a", "params": {"b": 1.0}, "tol_H": float("inf")}, "tol_H"),
        ({"theorem": "minimal-a", "params": {"a": 2**64, "b": 1}}, "u-grid of 2.951e+22"),
        ({"theorem": "minimal-a", "params": {"b": 10**400}}, "params.b"),
        ({"theorem": "minimal-a", "params": {"b": 1.0}, "n_probe": 10**7},
         "n_probe of 10000000 points exceeds the cap"),
        # kappa^2 overflows: the frame (given v-span) and the growth rate (default) name kappa
        ({"theorem": "minimal-a", "params": {"b": 1.0}, "curve_kappa": 1e300, "v_span": [0, 1]},
         "curvature kappa = 1e+300 is out of range: kappa^2 overflows"),
        ({"theorem": "minimal-a", "params": {"b": 1.0}, "curve_kappa": 1e300},
         "curvature kappa = 1e+300 is out of range: kappa^2 overflows"),
    ],
)
def test_verify_malformed_case_file_exits_2(tmp_path, capsys, doc, field):
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc))
    assert main(["verify", str(case_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--family", "ma", "--a", "nan", "--b", "1"], "parameter a must be finite, got nan"),
        (["--family", "ma", "--b=inf"], "parameter b must be finite, got inf"),
        (["--family", "ma", "--b", "1", "--c0=-inf"], "parameter c0 must be finite, got -inf"),
        (["--theorem=cmc-a", "--a", "2", "--b", "0.5", "--c", "1", "--f0", "inf"],
         "f0 must be finite, got inf"),
        (["--theorem=cmc-a", "--a", "2", "--b", "0.5", "--c", "1", "--f0=-inf"],
         "f0 must be finite, got -inf"),
        (["--family", "ma", "--b", "1", "--u-min", "0", "--u-max", "inf"],
         "u_span must be finite"),
        (["--family", "ma", "--b", "1", "--step", "nan"], "step must be finite, got nan"),
        # the default u-window overflows: the message names a and b, not a span
        (["--theorem=minimal-a", "--a=1e200"], "default u-window for a = 1e+200, b = 0.0 is"),
        (["--theorem=minimal-a", "--a=1e155"], "default u-window for a = 1e+155, b = 0.0 is"),
        (["--theorem=minimal-b", "--a=1e200", "--b=1"], "for a = 1e+200, b = 1.0 is (inf, inf)"),
        # finite, but lo + 1.0 == lo
        (["--theorem=minimal-b", "--a=1e154", "--b=1"], "for a = 1e+154, b = 1.0 is (2e+153"),
        # a given window: f'' is finite, its slope between samples is not
        (["--theorem=minimal-b", "--a=1e154", "--b=1", "--u-min=0", "--u-max=1"],
         "for a = 1e+154, b = 1.0 overflows on the u-window (0.0, 1.0)"),
        # finite slopes, but f varies on a scale of 1e-100 between samples 5e-4 apart
        (["--theorem=minimal-b", "--a=1e100", "--b=1", "--u-min=0", "--u-max=1"],
         "for a = 1e+100, b = 1.0 is not resolved on the u-window (0.0, 1.0)"),
        # f ~ 1e150, so f^3 in f'' overflows
        (["--theorem=minimal-a", "--a=0", "--b=1e300", "--u-min=0", "--u-max=1",
          "--nu", "5", "--nv", "5"],
         "for a = 0.0, b = 1e+300 overflows on the u-window (0.0, 1.0)"),
        # f^2 ~ 2e-10 at the nodes, so f'' = disc / f^3 overflows to inf
        (["--theorem=minimal-a", "--a=1e147", "--b=0", "--u-min=1e-157", "--u-max=2e-157",
          "--nu", "5", "--nv", "5"],
         "for a = 1e+147, b = 0.0 overflows on the u-window (1e-157, 2e-157)"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_generate_rejects_non_finite_values(tmp_path, capsys, flags, message):
    out = tmp_path / "mesh.csv"
    argv = flags if flags[0] == "verify" else ["generate", *flags, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "np.float64" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_verify_of_a_warp_constant_in_floats_fails_cleanly(capsys):
    """f^2 = 1e200 - u^2 rounds to 1e200, so f = 1e100 is constant in floating
    point while g ~ u: the sample cloud's extent along e4 (~1) is below the
    roundoff of its extent 1e100 in l, its affine rank reads 2, and verify
    fails with exit 1."""
    argv = ["verify", "--theorem=minimal-a", "--a=0", "--b=1e200", "--u-min=0", "--u-max=1",
            "--nu", "5", "--nv", "5"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert [(c["name"], c["value"]) for c in report["checks"] if not c["ok"]] == [("affine_rank", 2)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theorem", ["quasi-a", "quasi-c", "cmc-a", "cmc-c"])
@pytest.mark.parametrize("f0", [1e100, 1e154, 1e300])
def test_verify_of_a_huge_f0_ends_without_a_warning(tmp_path, capsys, theorem, f0):
    """t^2 overflows in phi's closed forms near so large an f0; that is an
    inadmissible t, like the NaN the same guards silence, not a warning."""
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps({"theorem": theorem, "params": {"a": 1.2, "c": 1.0},
                                     "f0": f0}))
    assert main(["verify", str(case_path), "--nu", "5", "--nv", "5"]) in (1, 2)
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--u-min", "nan", "--u-max", "1"], "u_span must be finite: --u-min is nan"),
        (["--u-min", "0", "--u-max", "nan"], "u_span must be finite: --u-max is nan"),
        (["--u-min=-inf", "--u-max", "1"], "u_span must be finite: --u-min is -inf"),
        (["--u-min", "0", "--u-max", "inf"], "u_span must be finite: --u-max is inf"),
        (["--v-min", "0", "--v-max=-inf"], "v_span must be finite: --v-max is -inf"),
    ],
)
def test_verify_names_non_finite_span_flags(capsys, flags, message):
    assert main(["verify", "--family", "ma", "--b", "1", *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", ["json", "flags", "theorems"])
def test_negative_seed_names_its_field(tmp_path, capsys, path):
    if path == "json":
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(
            {"theorem": "minimal-a", "seed": -1, "params": {"a": 1.0, "b": 1.0}}
        ))
        argv = ["verify", str(case_path)]
    elif path == "flags":
        argv = ["verify", "--theorem", "minimal-a", "--a", "1", "--b", "1", "--seed", "-1"]
    else:
        argv = ["theorems", "--seed", "-1"]
    assert main(argv) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


_CASE_FLAGS = {
    "--family": "ma", "--theorem": "cmc-a", "--a": "5", "--b": "1", "--c": "1", "--c0": "0",
    "--f0": "1", "--u-min": "0", "--u-max": "1", "--v-min": "0", "--v-max": "1",
    "--branch-signs": "++++",
}
_MINIMAL = ["--theorem=minimal-a", "--b=1", "--nu=5", "--nv=5"]
# each subcommand with the flags it does not read; "case" is verify of a case file
_UNREAD = [
    *(("theorems", flag) for flag in [*_CASE_FLAGS, "--out", "--format"]),
    ("generate", "--seed"), ("generate", "--tol-h"), ("generate", "--report"),
    ("verify", "--out"), ("verify", "--format"), ("sweep", "--out"), ("sweep", "--format"),
    *(("case", flag) for flag in _CASE_FLAGS),
]


@pytest.mark.parametrize("command,flag", _UNREAD)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    value = {"--out": tmp_path / "x.obj", "--report": tmp_path / "r.json", "--format": "obj",
             "--seed": "1", "--tol-h": "1e-6"}.get(flag) or _CASE_FLAGS[flag]
    out = ["--out", str(tmp_path / "mesh.csv")]
    report = ["--report", str(tmp_path / "report.json")]
    argv = {"theorems": ["theorems", *report], "generate": ["generate", *_MINIMAL, *out],
            "verify": ["verify", *_MINIMAL, *report], "sweep": ["sweep", *_MINIMAL, *report],
            "case": ["verify", str(tmp_path / "case.json"), *report]}[command]
    (tmp_path / "case.json").write_text(json.dumps({"theorem": "minimal-a", "params": {"b": 1}}))
    assert main([*argv, f"{flag}={value}"]) == 2
    assert flag in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["case.json"]


def test_case_file_takes_the_sampling_and_check_flags(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps({"theorem": "minimal-a", "params": {"b": 1}}))
    report = tmp_path / "report.json"
    assert main(["verify", str(case_path), "--nu", "9", "--tol-h", "1e-6",
                 "--report", str(report)]) == 0
    case = json.loads(report.read_text())["case"]
    assert (case["nu"], case["nv"], case["tol_H"]) == (9, 21, 1e-6)


def test_verify_refuses_an_oversized_grid(capsys):
    assert main(["verify", "--family", "ma", "--b", "1", "--step", "1e-9"]) == 2
    assert capsys.readouterr().err == ("meridian4: error: u-grid of 1.6e+09 samples (span 1.6, "
                                       "step 1e-09) exceeds the cap of 1000000 samples\n")
    assert main(["verify", "--family", "ma", "--b", "1", "--nu", "2000", "--nv", "2000"]) == 2
    assert "2000x2000 = 4000000 points exceeds the cap" in capsys.readouterr().err


def test_verify_report_is_deterministic(capsys):
    args = [
        "verify", "--theorem", "minimal-c", "--b", "1",
        "--u-min", "-0.6", "--u-max", "0.6", "--nu", "9", "--nv", "9",
    ]
    assert main(args) == 0
    doc_a = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    doc_b = json.loads(capsys.readouterr().out)
    doc_a.pop("runtime_seconds")
    doc_b.pop("runtime_seconds")
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_generate_requires_out(capsys):
    assert main(["generate", "--family", "ma", "--b", "1"]) == 2


def test_generate_refuses_the_congruence_check(tmp_path, capsys):
    out = tmp_path / "mesh.csv"
    assert main(["generate", "--theorem", "congruence-tilde", "--out", str(out)]) == 2
    assert "congruence-tilde compares surfaces" in capsys.readouterr().err
    assert not out.exists()


def test_generate_csv_mesh(tmp_path, capsys):
    out = tmp_path / "mesh.csv"
    code = main(
        ["generate", "--family", "ma", "--b", "1", "--nu", "9", "--nv", "7",
         "--out", str(out)]
    )
    assert code == 0
    assert "9x7 csv mesh" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,x1,x2,x3,x4"
    assert len(lines) == 1 + 9 * 7


def test_generate_infers_format_from_suffix(tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    code = main(
        ["generate", "--theorem", "minimal-c", "--b", "1", "--nu", "6", "--nv", "6",
         "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("#")
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 36


def test_sweep_counts_and_exit(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--theorem", "minimal-a", "--a", "0", "0.3", "--b", "1", "2",
         "--nu", "9", "--nv", "9", "--report", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["counts"]["pass"] == 4
    assert doc["all_pass"] is True
    assert len(doc["cases"]) == 4


def test_sweep_domain_error_exits_2(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--theorem", "minimal-a", "--a", "0", "--b", "1", "-5",
         "--nu", "9", "--nv", "9", "--report", str(report)]
    )
    assert code == 2
    doc = json.loads(report.read_text())
    assert doc["counts"]["domain-error"] == 1
    assert doc["counts"]["pass"] == 1
    entries = {e.get("status") for e in doc["cases"]}
    assert "domain-error" in entries


@pytest.mark.slow
def test_theorems_subcommand(tmp_path, capsys):
    report = tmp_path / "suite.json"
    code = main(["theorems", "--nu", "11", "--nv", "11", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite: pass (13 cases)" in out
    assert "hyperplane-corollary" in out
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is True
    assert len(doc["suite"]) == 13


def test_theorems_applies_tol_h_to_every_case(tmp_path, capsys):
    report = tmp_path / "suite.json"
    code = main(["theorems", "--nu", "7", "--nv", "7", "--tol-h", "1e-30", "--report", str(report)])
    assert code == 1
    assert "suite: fail (13 cases)" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert {r["case"]["tol_H"] for r in doc["suite"]} == {1e-30}
    minimal = [r for r in doc["suite"] if r["case"]["theorem"].startswith("minimal")]
    assert len(minimal) == 3 and all(r["status"] == "fail" for r in minimal)


# ---------------------------------------------------------------------------
# property test: every input ends in exit 0, 1 or 2
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]
_values = st.sampled_from(_EDGE_FLOATS) | st.floats(-4.0, 4.0)
_steps = st.sampled_from([1e-3, 4e-3, 1e-2, 0.25, 0.0, -1e-3, 1e300, 1e-300, math.nan, math.inf])
# Small grids keep each example fast; the suite cases start most examples
# inside the admissible region, so the mutations reach the geometry too.
_BASE_SPECS = [replace(case, nu=5, nv=5, n_probe=2) for case in _suite_cases()]


def _base_flags(spec):
    p = spec.params
    flags = {"theorem": spec.theorem.value, "a": p.a, "b": p.b, "c": p.c, "c0": p.c0,
             "f0": spec.f0, "branch-signs": p.branch.as_string()}
    for axis, span in (("u", spec.u_span), ("v", spec.v_span)):
        if span is not None:
            flags[f"{axis}-min"], flags[f"{axis}-max"] = span
    return {k: v for k, v in flags.items() if v is not None}


@st.composite
def _flag_sets(draw):
    base = draw(st.sampled_from([*_BASE_SPECS, None]))
    flags = _base_flags(base) if base is not None else {}
    keep, drop, junk = "keep", "drop", "junk"
    action = st.sampled_from([keep, keep, keep, keep, drop, junk])
    for name in ("a", "b", "c", "c0", "f0", "u", "v", "step"):
        what = draw(action)
        names = [f"{name}-min", f"{name}-max"] if name in ("u", "v") else [name]
        if what == drop:
            for key in names:
                flags.pop(key, None)
        elif what == junk:
            flags[draw(st.sampled_from(names))] = draw(_steps if name == "step" else _values)
    if draw(action) == junk:
        flags["theorem"] = draw(st.sampled_from([t.value for t in Theorem]))
    if draw(action) == junk:
        flags["family"] = draw(st.sampled_from(["ma", "mb", "mpp", "second"]))
    if draw(action) == junk:
        flags["branch-signs"] = draw(st.text("+-x", min_size=0, max_size=5))
    for name in ("nu", "nv"):
        # 3 and 4 are refused; listed last so that hypothesis favours grids that run
        flags[name] = draw(st.sampled_from([5, 9, 7, 6, 8, 3, 4]))
    # "--a=-1" keeps argparse from reading a negative value as a flag
    return [f"--{k}={v!r}" if isinstance(v, float) else f"--{k}={v}" for k, v in flags.items()]


_JUNK = st.sampled_from(
    [None, True, "x", "1.0", [], [1.0], [0.0, "1"], [0.0, 1.0, 2.0], {}, {"a": 1.0},
     0, -1, 7, 10**7, 2**64, 1e300, -1e300, 0.25, math.nan, math.inf, -math.inf]
).map(copy.deepcopy)  # a drawn list or dict may be mutated further


@st.composite
def _mutated_specs(draw):
    doc = draw(st.sampled_from(_BASE_SPECS)).to_dict()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "junk", "param-junk", "extra-param", "extra"]))
        if op == "drop":
            params = doc.get("params")
            target = params if isinstance(params, dict) and draw(st.booleans()) else doc
            if target:
                target.pop(draw(st.sampled_from(sorted(target))))
        elif op == "junk":
            doc[draw(st.sampled_from(sorted(doc) or ["theorem"]))] = draw(_JUNK)
        elif op == "param-junk" and isinstance(doc.get("params"), dict) and doc["params"]:
            doc["params"][draw(st.sampled_from(sorted(doc["params"])))] = draw(_JUNK)
        elif op == "extra-param" and isinstance(doc.get("params"), dict):
            doc["params"][draw(st.sampled_from(["zz", "A", "branch", "f0"]))] = draw(_JUNK)
        else:
            doc[draw(st.sampled_from(["zz", "theorem ", "tol"]))] = draw(_JUNK)
    return doc


# derandomize: the same 40 examples on every run, so a failure reproduces
_FUZZ = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_FUZZ
@given(command=st.sampled_from(["verify", "generate"]), argv=_flag_sets(),
       fmt=st.sampled_from(["csv", "obj", "json"]))
def test_any_flag_set_exits_0_1_or_2(tmp_path, capsys, command, argv, fmt):
    if command == "generate":
        argv = argv + ["--out", str(tmp_path / f"mesh.{fmt}")]
    assert main([command, *argv]) in (0, 1, 2)
    capsys.readouterr()


@_FUZZ
@given(doc=_mutated_specs())
def test_any_mutated_case_file_exits_0_1_or_2(tmp_path, capsys, doc):
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc))
    assert main(["verify", str(case_path)]) in (0, 1, 2)
    capsys.readouterr()


def test_importing_the_package_and_the_cli_loads_no_scipy():
    """numpy is the one runtime dependency: scipy is for the tests only."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, meridian4, meridian4.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
