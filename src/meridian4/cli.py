"""Command line interface: ``generate | verify | sweep | theorems``.

``generate`` builds one surface and exports its sample grid (csv, obj or
json); ``verify`` runs one case, from the case flags or a CaseSpec JSON
file, and writes its report; ``sweep`` verifies the Cartesian product of
value lists (``--a 0 0.5 --b 1 2`` gives four cases); ``theorems`` runs
the built-in suite: the nine theorem cases (CMC on both sign branches),
the congruence transform and the hyperplane corollary.

Each subcommand takes only the flag groups it reads (``_SUBCOMMANDS``):
the case flags (not ``theorems``; a case file replaces them), the sampling
flags, the check flags (not ``generate``) and its own output flags.

Exit codes: 0 all pass, 1 any verification failure, 2 usage or domain
error (unknown or unread flags, inadmissible parameters).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .export import export_mesh
from .families import MeridianFamily
from .harness import (
    CaseSpec,
    Theorem,
    _build_case,
    run_theorem_suite,
    suite_to_dict,
    verify_case,
)
from .profiles import BranchSigns, GoverningLaw, ProfileParams

__all__ = ["main", "build_parser"]

_FAMILY_ALIASES = {
    "ma": MeridianFamily.FIRST_TIMELIKE,
    "mb": MeridianFamily.FIRST_SPACELIKE,
    "mpp": MeridianFamily.SECOND,
    "first-timelike": MeridianFamily.FIRST_TIMELIKE,
    "first-spacelike": MeridianFamily.FIRST_SPACELIKE,
    "second": MeridianFamily.SECOND,
}

# the ProfileParams constants and f0; sweep takes a list of each
_VALUE_FLAGS = {
    "a": "directrix curvature constant / linear profile coefficient",
    "b": "second profile constant",
    "c": "first-integral constant; the CMC target <H,H>",
    "c0": "additive constant of the meridian's axial component",
    "f0": "initial warp value f(u_min) for ODE-built profiles",
}

# the minimal theorem of each family
_DEFAULT_THEOREM = {
    t.family: t
    for t in Theorem
    if t.law is GoverningLaw.MINIMAL and t is not Theorem.NEGATIVE_CONTROL
}


# the case flags; a case file replaces them all
_CASE_FLAGS = ("family", "theorem", *_VALUE_FLAGS, "u-min", "u-max", "v-min", "v-max",
               "branch-signs")

# each subcommand's help and the flag groups (``_<group>_flags``) it reads
_SUBCOMMANDS = {
    "generate": ("build one surface and export its sample grid", "case sampling output"),
    "verify": ("run one verification case and write the JSON report",
               "case sampling check output"),
    "sweep": ("verify the Cartesian product of parameter lists", "case sampling check output"),
    "theorems": ("run the built-in theorem suite", "sampling check output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meridian4",
        description="Meridian surfaces in a neutral 4-space: build, export, verify.",
    )
    parser.add_argument("--version", action="version", version=f"meridian4 {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_text, groups) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "verify":
            sp.add_argument("case", nargs="?", type=Path,
                            help="optional CaseSpec JSON file, in place of the case flags")
        for group in groups.split():
            globals()[f"_{group}_flags"](sp.add_argument_group(f"{group} flags"), name)
        sp.set_defaults(func=globals()[f"_cmd_{name}"])
    return parser


def _case_flags(group, command: str) -> None:
    nargs = "+" if command == "sweep" else None
    group.add_argument("--family", choices=sorted(_FAMILY_ALIASES),
                       help="surface family (ma/mb/mpp or long name)")
    group.add_argument("--theorem", choices=[t.value for t in Theorem],
                       help="which statement the case instantiates")
    for pname, doc in _VALUE_FLAGS.items():
        group.add_argument(f"--{pname}", type=float, nargs=nargs, help=doc)
    for flag in ("--u-min", "--u-max", "--v-min", "--v-max"):
        group.add_argument(flag, type=float)
    group.add_argument("--branch-signs", help="sign string, order f g phi rhs (default ++++); "
                       "use --branch-signs=-+... for leading '-'")


def _sampling_flags(group, command: str) -> None:
    group.add_argument("--nu", type=int, help="grid samples along u (default 21)")
    group.add_argument("--nv", type=int, help="grid samples along v (default 21)")
    group.add_argument("--step", type=float, help="profile node spacing (default 1e-3)")


def _check_flags(group, command: str) -> None:
    group.add_argument("--seed", type=int, help="seed for interior sample points")
    group.add_argument("--tol-h", type=float, dest="tol_H",
                       help="tolerance on FD mean-curvature components and on the "
                       "max_H_vector_dev_fd check of H_fd against H_an (default 1e-5)")


def _output_flags(group, command: str) -> None:
    if command == "generate":
        group.add_argument("--out", type=Path, required=True, help="mesh output path")
        group.add_argument("--format", choices=("csv", "obj", "json"),
                           help="mesh format (default: inferred from --out suffix)")
    else:
        group.add_argument("--report", type=Path, help="JSON report path")


def _resolve_theorem(args, parser) -> Theorem:
    family = _FAMILY_ALIASES[args.family] if args.family else None
    theorem = Theorem(args.theorem) if args.theorem else None
    if theorem is None:
        if family is None:
            parser.error("one of --theorem or --family is required")
        theorem = _DEFAULT_THEOREM[family]
    elif family is not None and theorem.family is not None and theorem.family is not family:
        parser.error(
            f"--family {args.family} does not match --theorem {theorem.value} "
            f"(expects {theorem.family.value})"
        )
    return theorem


def _span(parser, lo, hi, name) -> tuple[float, float] | None:
    if (lo is None) != (hi is None):
        parser.error(f"--{name}-min and --{name}-max must be given together")
    if lo is None:
        return None
    for flag, value in ((f"--{name}-min", lo), (f"--{name}-max", hi)):
        if not math.isfinite(value):
            parser.error(f"{name}_span must be finite: {flag} is {value}")
    if not lo < hi:
        parser.error(f"--{name}-min must be below --{name}-max")
    return (lo, hi)


def _spec_overrides(args) -> dict:
    """CaseSpec fields from the given sampling and check flags (generate has no check flags)."""
    given = {name: getattr(args, name, None) for name in ("nu", "nv", "step", "seed", "tol_H")}
    return {name: value for name, value in given.items() if value is not None}


def _spec_from_flags(args, parser, **values) -> CaseSpec:
    """The case the flags describe; ``values`` replace value flags (one sweep member)."""
    theorem = _resolve_theorem(args, parser)
    values = {k: getattr(args, k) for k in _VALUE_FLAGS} | values
    f0 = values.pop("f0")
    signs = "++++" if args.branch_signs is None else args.branch_signs
    if not isinstance(signs, str):
        # argparse drops a bare "--" value, leaving an empty list
        parser.error("--branch-signs=-- reads as the end of options; write --branch-signs=--++")
    params = ProfileParams(
        branch=BranchSigns.from_string(signs),
        **{k: (0.0 if v is None else float(v)) for k, v in values.items()},
    )
    return CaseSpec(
        theorem=theorem,
        params=params,
        f0=None if f0 is None else float(f0),
        u_span=_span(parser, args.u_min, args.u_max, "u"),
        v_span=_span(parser, args.v_min, args.v_max, "v"),
        **_spec_overrides(args),
    )


def _write_json(doc: dict, path: Path | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args, parser) -> int:
    spec = _spec_from_flags(args, parser)
    surface, _, _ = _build_case(spec)
    us = np.linspace(*surface.u_span, spec.nu)
    vs = np.linspace(*surface.v_span, spec.nv)
    fmt = args.format or {".obj": "obj", ".json": "json"}.get(args.out.suffix.lower(), "csv")
    path = export_mesh(surface, us, vs, args.out, fmt=fmt)
    print(f"wrote {spec.nu}x{spec.nv} {fmt} mesh to {path}")
    return 0


def _cmd_verify(args, parser) -> int:
    if args.case is not None:
        given = [f"--{flag}" for flag in _CASE_FLAGS
                 if getattr(args, flag.replace("-", "_")) is not None]
        if given:
            parser.error(f"a case file replaces the case flags; drop {' '.join(given)}")
        spec = CaseSpec.from_dict(json.loads(args.case.read_text()))
        spec = replace(spec, **_spec_overrides(args))
    else:
        spec = _spec_from_flags(args, parser)
    report = verify_case(spec)
    if args.report is None:
        sys.stdout.write(report.to_json())
    else:
        args.report.write_text(report.to_json())
        print(f"{report.status}: report written to {args.report}")
    return 0 if report.status == "pass" else 1


def _cmd_sweep(args, parser) -> int:
    theorem = _resolve_theorem(args, parser)
    lists = [getattr(args, k) or [None] for k in _VALUE_FLAGS]
    entries = []
    counts = {"pass": 0, "fail": 0, "domain-truncated": 0, "domain-error": 0}
    for values in itertools.product(*lists):
        overrides = {k: v for k, v in zip(_VALUE_FLAGS, values) if v is not None}
        try:
            spec = _spec_from_flags(args, parser, **overrides)
            report = verify_case(spec)
        except (DomainError, ValueError) as exc:
            counts["domain-error"] += 1
            entries.append({"params": overrides, "status": "domain-error", "error": str(exc)})
            continue
        counts[report.status] += 1
        entries.append(report.to_dict())
    total = sum(counts.values())
    doc = {
        "schema": 1,
        "tool_version": __version__,
        "theorem": theorem.value,
        "cases": entries,
        "counts": counts,
        "all_pass": counts["pass"] == total,
    }
    _write_json(doc, args.report)
    if args.report is not None:
        print(f"{counts['pass']}/{total} pass; report written to {args.report}")
    if counts["domain-error"]:
        return 2
    return 0 if counts["pass"] == total else 1


def _cmd_theorems(args, parser) -> int:
    reports, corollary = run_theorem_suite(**_spec_overrides(args))
    for r in reports:
        p = r.case["params"]
        tag = r.case["theorem"]
        detail = f"a={p['a']:g} b={p['b']:g} c={p['c']:g}"
        print(f"{tag:<18} {r.status:<16} {detail}")
    ranks = f"minimal ranks {corollary['minimal_ranks']}, quasi ranks {corollary['quasi_ranks']}"
    print(f"{corollary['name']:<18} {'pass' if corollary['ok'] else 'fail':<16} {ranks}")
    doc = suite_to_dict(reports, corollary)
    if args.report is not None:
        _write_json(doc, args.report)
        print(f"report written to {args.report}")
    print(f"suite: {'pass' if doc['all_pass'] else 'fail'} ({len(reports)} cases)")
    return 0 if doc["all_pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"meridian4: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
