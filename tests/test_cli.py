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


def test_theorem_required(capsys):
    assert main(["verify"]) == 2
    assert "--theorem is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "verify", "sweep"])
def test_there_is_no_family_flag(tmp_path, capsys, command):
    """A theorem names its family: --theorem is the one way to name a case
    (``theorems`` and a case file refuse it as a case flag, below)."""
    out = ["--out", str(tmp_path / "mesh.csv")] if command == "generate" else []
    assert main([command, "--family", "ma", "--b", "1", *out]) == 2
    assert "unrecognized arguments: --family" in capsys.readouterr().err


def test_span_flags_must_pair(capsys):
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", "--u-min", "0"]) == 2


def test_bare_double_dash_branch_signs_is_usage_error(capsys):
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", "--branch-signs=--"]) == 2
    assert "write e.g. --branch-signs=+-++" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", [t.value for t in Theorem])
def test_negative_f_branch_is_usage_error_for_every_theorem(theorem, capsys):
    assert main(["verify", "--theorem", theorem, "--a", "1.2", "--c", "1", "--f0", "2",
                 "--branch-signs=-+++"]) == 2
    assert "positive-warp" in capsys.readouterr().err


@pytest.mark.parametrize("signs", ["++-+", "+++-", "++--"])
@pytest.mark.parametrize("theorem,a", [("minimal-a", "0"), ("minimal-b", "1.5"), ("minimal-c", "0")])
def test_minimal_phi_and_rhs_branches_are_usage_errors(theorem, a, signs, capsys):
    """A minimal profile reads only the g sign; a report must not record a
    phi or rhs branch it never built.  Each (a, b = 1) passes with '++++'."""
    flags = ["verify", "--theorem", theorem, "--a", a, "--b", "1"]
    assert main(flags + [f"--branch-signs={signs}"]) == 2
    assert "no phi or rhs branch" in capsys.readouterr().err


@pytest.mark.parametrize("flags,field", [(["--c", "7", "--f0", "3"], "c"), (["--f0", "3"], "f0")])
def test_a_minimal_case_given_c_or_f0_is_a_usage_error(flags, field, capsys):
    """A minimal profile reads neither; a report must not record them."""
    assert main(["verify", "--theorem", "minimal-a", "--b", "1"] + flags) == 2
    assert f"minimal-a reads no {field}, got {field}=" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", ["quasi-a", "quasi-b", "quasi-c"])
def test_a_quasi_minimal_case_given_b_is_a_usage_error(theorem, capsys):
    """No quasi-minimal profile reads b; a report must not record it."""
    assert main(["verify", "--theorem", theorem, "--a", "1.2", "--c", "1", "--f0", "2",
                 "--b", "5"]) == 2
    assert f"{theorem} reads no b, got b=5.0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["a", "b"])
def test_the_negative_control_given_a_or_b_is_a_usage_error(flag, capsys):
    """Its profile f = u + 2 reads neither."""
    assert main(["verify", "--theorem", "negative-control", f"--{flag}", "1"]) == 2
    assert f"negative-control reads no {flag}, got {flag}=1.0" in capsys.readouterr().err


@pytest.mark.parametrize("signs,name", [("++-+", "phi"), ("+++-", "rhs"), ("++--", "phi")])
def test_the_negative_control_given_a_phi_or_rhs_sign_is_a_usage_error(signs, name, capsys):
    """f = u + 2 reads only the g sign of its branch signs."""
    argv = ["verify", "--theorem", "negative-control", f"--branch-signs={signs}",
            "--nu", "5", "--nv", "5"]
    assert main(argv) == 2
    assert f"negative-control reads no {name}, got {name}=-1" in capsys.readouterr().err


@pytest.mark.parametrize("flags,name", [
    (["--a", "5"], "params"), (["--c0", "1"], "params"), (["--branch-signs=+-++"], "params"),
    (["--f0", "3"], "f0"), (["--u-min", "0", "--u-max", "9"], "u_span"),
    (["--v-min", "0", "--v-max", "1"], "v_span"),
])
def test_the_congruence_case_given_a_field_it_never_reads_is_a_usage_error(flags, name, capsys):
    """Its three sources are fixed; it reads only the sampling and check flags."""
    assert main(["verify", "--theorem", "congruence-tilde", *flags]) == 2
    assert f"congruence-tilde reads no {name}, got {name}=" in capsys.readouterr().err


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


@pytest.mark.parametrize("field", ["tol_norm2", "tol_frame", "tol_governing", "tol_constraint",
                                   "tol_h12", "tol_rank_residual", "min_H_floor"])
def test_a_case_file_naming_a_fixed_bound_exits_2(tmp_path, capsys, field):
    """These bounds are constants, not CaseSpec fields: a case file that sets
    one is refused by name rather than read and ignored."""
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps({"theorem": "minimal-a", "params": {"b": 1.0}, field: 1e-5}))
    assert main(["verify", str(case_path)]) == 2
    assert f"unknown CaseSpec fields: ['{field}']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--theorem=minimal-a", "--a", "nan", "--b", "1"], "parameter a must be finite, got nan"),
        (["--theorem=minimal-a", "--b=inf"], "parameter b must be finite, got inf"),
        (["--theorem=minimal-a", "--b", "1", "--c0=-inf"],
         "parameter c0 must be finite, got -inf"),
        (["--theorem=cmc-a", "--a", "2", "--b", "0.5", "--c", "1", "--f0", "inf"],
         "f0 must be finite, got inf"),
        (["--theorem=cmc-a", "--a", "2", "--b", "0.5", "--c", "1", "--f0=-inf"],
         "f0 must be finite, got -inf"),
        (["--theorem", "minimal-a", "--b", "1", "--u-min", "0", "--u-max", "inf"],
         "u_span must be finite"),
        (["--theorem=minimal-a", "--b", "1", "--step", "nan"], "step must be finite, got nan"),
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
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", *flags]) == 2
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


# --family is a flag of no subcommand (a theorem names its family), so it stays refused
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
    assert main(["verify", "--theorem", "minimal-a", "--b", "1", "--step", "1e-9"]) == 2
    assert capsys.readouterr().err == ("meridian4: error: u-grid of 1.6e+09 samples (span 1.6, "
                                       "step 1e-09) exceeds the cap of 1000000 samples\n")
    assert main(["verify", "--theorem=minimal-a", "--b", "1", "--nu", "2000", "--nv", "2000"]) == 2
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
    assert main(["generate", "--theorem", "minimal-a", "--b", "1"]) == 2


def test_generate_refuses_the_congruence_check(tmp_path, capsys):
    out = tmp_path / "mesh.csv"
    assert main(["generate", "--theorem", "congruence-tilde", "--out", str(out)]) == 2
    assert "congruence-tilde compares surfaces" in capsys.readouterr().err
    assert not out.exists()


def test_generate_csv_mesh(tmp_path, capsys):
    out = tmp_path / "mesh.csv"
    code = main(
        ["generate", "--theorem", "minimal-a", "--b", "1", "--nu", "9", "--nv", "7",
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


# a quasi-a case with --f0 and --format=json, then calls without either: a
# shared parser must not carry the first call's values into the next ones
_QUASI = ["generate", "--theorem=quasi-a", "--a=1", "--c=2", "--nu=7", "--nv=5"]
_MINIMAL = ["generate", "--theorem=minimal-a", "--a=1", "--nu=7", "--nv=5"]
_WITH_F0 = [*_QUASI, "--f0=3", "--format=json"]


def _fresh_process(argv, out: Path) -> tuple[int, bytes | None]:
    """Exit code and file bytes of ``meridian4 <argv> --out=<out>`` in a new process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "meridian4", *argv, f"--out={out}"], env=env,
                          capture_output=True)
    return done.returncode, out.read_bytes() if out.exists() else None


def _in_process(argv, out: Path) -> tuple[int, bytes | None]:
    code = main([*argv, f"--out={out}"])
    return code, out.read_bytes() if out.exists() else None


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    calls = (_WITH_F0, _QUASI, _MINIMAL)
    fresh = [_fresh_process(argv, tmp_path / f"fresh-{k}.mesh") for k, argv in enumerate(calls)]
    assert [code for code, _ in fresh] == [0, 2, 0]  # quasi-a needs f0
    assert fresh[0][1].startswith(b"{") and fresh[2][1].startswith(b"u,v,")  # csv by default
    assert [_in_process(argv, tmp_path / f"same-{k}.mesh")
            for k, argv in enumerate(calls)] == fresh
    # a --version exit, and a usage error that parsed --f0 and --format first
    assert main(["--version"]) == 0
    assert main(_WITH_F0) == 2  # no --out
    assert _in_process(_MINIMAL, tmp_path / "after.mesh") == fresh[2]
    capsys.readouterr()


def test_main_builds_its_parser_once_and_build_parser_a_new_one():
    from meridian4 import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


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


def test_importing_the_package_and_the_cli_loads_no_scipy(tmp_path):
    """numpy is the one runtime dependency: scipy is for the tests only.  A
    suite run, a mesh export and a verify call load neither scipy nor
    ``numpy.ma``, which ``np.unique`` imports at ~13 ms of a cold run, nor
    ``numpy.random``, whose import loads ``secrets`` and ``hashlib`` with
    OpenSSL at ~6 MB of every process: the probes are its stream, drawn
    in-house."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    generate = ["generate", "--theorem=minimal-a", "--a=1", "--nu=9", "--nv=9",
                f"--out={tmp_path / 'mesh.obj'}"]
    verify = ["verify", "--theorem=minimal-b", "--a=1.5", "--b=1", "--nu=9", "--nv=9",
              f"--report={tmp_path / 'report.json'}"]
    code = ("import sys, meridian4, meridian4.cli; "
            "meridian4.run_theorem_suite(nu=9, nv=9, n_probe=5); "
            f"assert meridian4.cli.main({generate!r}) == 0; "
            f"assert meridian4.cli.main({verify!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numpy.ma.', 'numpy.random.')) "
            "or m in ('numpy.ma', 'numpy.random', 'secrets', '_hashlib')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
