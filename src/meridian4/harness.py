"""Theorem-level verification: cases, reports, the built-in suite, samplers.

A :class:`CaseSpec` names one classification statement (a theorem tag plus
profile parameters, grids and tolerances); :func:`verify_case` builds the
full pipeline - directrix frame, profile, assembled surface - and certifies
the statement against the finite-difference oracle, producing a
:class:`VerificationReport` whose pass/fail is recomputable from its own
recorded statistics.  :func:`run_theorem_suite` covers all nine theorem
cases (CMC with both sign branches), the congruence transform, and the
hyperplane corollary.
"""

from __future__ import annotations

import enum
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .algebra import (_CHARACTERS, SIG4, CausalCharacter, _causal_codes, affine_rank,
                      causal_character, inner)
from .curves import FrameField, standard_initial_frame
from .errors import DomainError
from .families import MeridianFamily
from .oracle import (fd_jet, fd_jet4, frame_equation_residuals, fundamental_forms,
                     stencil_points)
from .profiles import (
    _MAX_SAMPLES,
    BranchSigns,
    GoverningLaw,
    MeridianProfile,
    ProfileParams,
    integrate_profile,
    minimal_profile,
    phi_closed_form,
    profile_from_callable,
    profile_residuals,
)
from .surfaces import (
    TRANSFORM_T,
    MeridianSurface,
    TildeKind,
    tilde_surface,
    transform_T,
)

__all__ = [
    "Theorem",
    "CaseSpec",
    "VerificationReport",
    "verify_case",
    "run_theorem_suite",
    "suite_to_dict",
    "sample_case",
]


class Theorem(enum.Enum):
    """The verifiable statements: one tag per classification theorem, plus
    the congruence check and a designed-to-fail control.

    Each member carries the ``family`` and ``law`` of the surface it
    builds; both are None for the congruence check, which compares two.
    """

    family: MeridianFamily | None
    law: GoverningLaw | None

    MINIMAL_A = ("minimal-a", MeridianFamily.FIRST_TIMELIKE, GoverningLaw.MINIMAL)
    MINIMAL_B = ("minimal-b", MeridianFamily.FIRST_SPACELIKE, GoverningLaw.MINIMAL)
    MINIMAL_C = ("minimal-c", MeridianFamily.SECOND, GoverningLaw.MINIMAL)
    QUASI_A = ("quasi-a", MeridianFamily.FIRST_TIMELIKE, GoverningLaw.QUASI_MINIMAL)
    QUASI_B = ("quasi-b", MeridianFamily.FIRST_SPACELIKE, GoverningLaw.QUASI_MINIMAL)
    QUASI_C = ("quasi-c", MeridianFamily.SECOND, GoverningLaw.QUASI_MINIMAL)
    CMC_A = ("cmc-a", MeridianFamily.FIRST_TIMELIKE, GoverningLaw.CMC)
    CMC_B = ("cmc-b", MeridianFamily.FIRST_SPACELIKE, GoverningLaw.CMC)
    CMC_C = ("cmc-c", MeridianFamily.SECOND, GoverningLaw.CMC)
    CONGRUENCE_TILDE = ("congruence-tilde", None, None)
    NEGATIVE_CONTROL = ("negative-control", MeridianFamily.FIRST_TIMELIKE, GoverningLaw.MINIMAL)

    def __new__(
        cls, value: str, family: MeridianFamily | None, law: GoverningLaw | None
    ) -> "Theorem":
        member = object.__new__(cls)
        member._value_ = value
        member.family, member.law = family, law
        return member


@dataclass(frozen=True)
class CaseSpec:
    """One verification case: theorem tag, parameters, grids, tolerances.

    ``curve_kappa`` overrides the directrix curvature (default: 0 for
    minimal cases, the parameter a otherwise) - that is how the curvature-
    mismatch negative control is expressed.  ``f0`` seeds the profile ODE
    for quasi-minimal/CMC cases.  ``u_span``/``v_span`` default to
    theorem-appropriate windows.  ``step`` spaces the profile nodes, which
    mark where a truncated profile ends; the checks read the profile where
    they read the surface (the directrix frame is a closed-form flow).
    ``tol_norm2`` defaults per target size: 1e-5 absolute for
    |target| <= 1, else 1e-4 relative.

    The field annotations are the one list of fields: :meth:`to_dict` and
    :meth:`from_dict` read them, and every ``float`` or span field must be
    finite, every required ``float`` field positive, and ``seed``
    non-negative.
    """

    theorem: Theorem
    params: ProfileParams = field(default_factory=ProfileParams)
    curve_kappa: float | None = None
    f0: float | None = None
    nu: int = 21
    nv: int = 21
    u_span: tuple[float, float] | None = None
    v_span: tuple[float, float] | None = None
    step: float = 1e-3
    fd_step: float = 1e-3
    n_probe: int = 20
    seed: int = 0
    tol_H: float = 1e-5
    tol_norm2: float | None = None
    tol_frame: float = 1e-5
    tol_governing: float = 1e-6
    tol_constraint: float = 1e-8
    tol_h12: float = 1e-9
    tol_rank_residual: float = 1e-8
    min_H_floor: float = 1e-3

    def __post_init__(self) -> None:
        # Every float or span field is finite (an infinite tolerance would
        # pass any check) and every required float field is positive.
        for f in fields(self):
            val = getattr(self, f.name)
            required = f.type == "float"
            if "float" not in f.type or (val is None and not required):
                continue
            if not all(map(math.isfinite, val if "tuple" in f.type else (val,))):
                raise ValueError(f"{f.name} must be finite, got {val!r}")
            if required and not val > 0.0:
                raise ValueError(f"{f.name} must be positive")
        if self.tol_norm2 is not None and not (self.tol_norm2 > 0.0):
            raise ValueError("tol_norm2 must be positive when given")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.nu < 5 or self.nv < 5:
            raise ValueError(f"grid must be at least 5x5, got {self.nu}x{self.nv}")
        if self.nu * self.nv > _MAX_SAMPLES:
            raise DomainError(f"grid of {self.nu}x{self.nv} = {self.nu * self.nv} points "
                              f"exceeds the cap of {_MAX_SAMPLES} points")
        if self.n_probe < 1:
            raise ValueError("n_probe must be at least 1")
        if self.n_probe > _MAX_SAMPLES:
            raise DomainError(f"n_probe of {self.n_probe} points exceeds the cap of "
                              f"{_MAX_SAMPLES} points")

    def resolved_tol_norm2(self, target: float) -> float:
        if self.tol_norm2 is not None:
            return self.tol_norm2
        return 1e-5 if abs(target) <= 1.0 else 1e-4 * abs(target)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(theorem=self.theorem.value, params=self.params.to_dict(),
                   u_span=list(self.u_span) if self.u_span else None,
                   v_span=list(self.v_span) if self.v_span else None)
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "CaseSpec":
        """Build a spec from its JSON form, rejecting malformed fields with ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a CaseSpec must be a JSON object, got {data!r}")
        data = dict(data)
        if "theorem" not in data:
            raise ValueError("CaseSpec field 'theorem' is required")
        theorem = Theorem(data.pop("theorem"))
        pdata = data.pop("params", {})
        if not isinstance(pdata, dict):
            raise ValueError(f"CaseSpec field 'params' must be an object, got {pdata!r}")
        pdata = dict(pdata)
        signs = pdata.pop("branch_signs", "++++")
        if not isinstance(signs, str):
            raise ValueError(
                f"CaseSpec field 'params.branch_signs' must be a string, got {signs!r}"
            )
        unknown = set(pdata) - ProfileParams().to_dict().keys()
        if unknown:
            raise ValueError(f"unknown CaseSpec params: {sorted(unknown)}")
        for key, value in pdata.items():
            pdata[key] = _check_json_field(f"params.{key}", value, "float")
        params = ProfileParams(branch=BranchSigns.from_string(signs), **pdata)
        fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown CaseSpec fields: {sorted(unknown)}")
        for key, value in data.items():
            data[key] = _check_json_field(key, value, fields[key].type)
        return cls(theorem=theorem, params=params, **data)


def _check_json_field(name: str, value, annotation: str):
    """Check one JSON value against a CaseSpec field annotation.

    ``annotation`` is the field's (string) type: ``int``, ``float``,
    ``tuple[float, float]``, each optionally ``| None``.  Numbers of float
    fields come back as floats (a JSON integer may exceed what numpy's
    finiteness checks accept), spans as tuples of floats.
    """
    if value is None and annotation.endswith("| None"):
        return None

    def number(x) -> bool:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        try:
            float(x)
        except OverflowError:
            return False
        return True

    kind = annotation.split(" |")[0]
    if kind == "int":
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind == "float":
        ok, want = number(value), "a number"
        value = float(value) if ok else value
    else:
        ok = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(number, value))
        want = "a pair of numbers"
        value = tuple(map(float, value)) if ok else value
    if not ok:
        raise ValueError(f"CaseSpec field {name!r} must be {want}, got {value!r}")
    return value


@dataclass
class VerificationReport:
    """Outcome of one case: status, statistics, and the applied checks.

    ``status`` is "pass", "fail", or "domain-truncated" (the profile ODE
    stopped before the requested window; statistics then cover the reached
    span).  Each entry of ``checks`` records name, value, threshold,
    comparison and outcome, so the status is recomputable from the report
    alone.  ``runtime_seconds`` is the only non-deterministic field.
    """

    case: dict
    status: str
    stats: dict
    checks: list[dict]
    runtime_seconds: float
    tool_version: str = __version__
    schema: int = 1

    def to_dict(self, include_runtime: bool = True) -> dict:
        doc = {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "case": self.case,
            "status": self.status,
            "stats": self.stats,
            "checks": self.checks,
        }
        if include_runtime:
            doc["runtime_seconds"] = self.runtime_seconds
        return doc

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_dict(include_runtime), sort_keys=True, indent=1) + "\n"

    @staticmethod
    def recompute_status(doc: dict) -> str:
        """Re-derive the status from a report dict's own stats and checks."""
        if doc["stats"].get("truncated"):
            return "domain-truncated"
        return "pass" if all(c["ok"] for c in doc["checks"]) else "fail"


def _check(name: str, value, threshold, comparison: str) -> dict:
    if comparison == "<=":
        ok = value <= threshold
    elif comparison == ">=":
        ok = value >= threshold
    elif comparison == "==":
        ok = value == threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return {
        "name": name,
        "value": value,
        "threshold": threshold,
        "comparison": comparison,
        "ok": bool(ok),
    }


# ---------------------------------------------------------------------------
# case building
# ---------------------------------------------------------------------------


def _default_minimal_span(
    family: MeridianFamily, params: ProfileParams
) -> tuple[float, float]:
    """The family's default u-window; a DomainError if (a, b) overflow it."""
    a, b = float(params.a), float(params.b)
    r = math.sqrt(family.minimal_discriminant(a, b))
    if family is MeridianFamily.FIRST_TIMELIKE:
        lo, hi = a - 0.8 * r, a + 0.8 * r
    elif family is MeridianFamily.FIRST_SPACELIKE:
        lo = -a + r + 0.2 * max(1.0, r)
        hi = lo + 1.0
    else:
        lo, hi = -a - 0.8, -a + 0.8
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(
            f"the default u-window for a = {a!r}, b = {b!r} is ({lo!r}, {hi!r}), not a "
            "finite increasing span; set the u-window (--u-min/--u-max)"
        )
    return (lo, hi)


def _default_v_span(family: MeridianFamily, kappa: float) -> tuple[float, float]:
    """Default directrix window, capped so frame components stay below ~e^3.

    Finite-difference truncation scales with the high v-derivatives of
    the immersion, which grow like rate^k * exp(rate * v); keeping
    rate * v_max <= 2.2 keeps the oracle comfortably inside the default
    tolerances for any curvature the samplers draw.
    """
    rate = family.curve_family.growth_rate(kappa)
    return (0.0, min(2.0, 2.2 / max(rate, 1.5)))


def _build_case(spec: CaseSpec):
    """Curve + profile + surface for a theorem case; returns (surface, law, target)."""
    thm = spec.theorem
    family = thm.family
    law = thm.law
    if family is None or law is None:
        raise ValueError(f"{thm.value} compares surfaces; it does not build a single one")
    params = spec.params

    kappa = spec.curve_kappa
    if kappa is None:
        kappa = 0.0 if law is GoverningLaw.MINIMAL else params.a
    v_span = spec.v_span if spec.v_span is not None else _default_v_span(family, kappa)
    cf = family.curve_family
    # the standard frame, placed at the start of the case's own v-window
    curve = FrameField(cf, kappa, standard_initial_frame(cf), v_span)

    if thm is Theorem.NEGATIVE_CONTROL:
        u_span = spec.u_span if spec.u_span is not None else (0.0, 2.0)
        profile = profile_from_callable(
            family,
            f=lambda u: u + 2.0,
            fp=lambda u: np.ones_like(u),
            fpp=lambda u: np.zeros_like(u),
            u_span=u_span,
            step=spec.step,
            params=params,
        )
    elif law is GoverningLaw.MINIMAL:
        u_span = spec.u_span if spec.u_span is not None else _default_minimal_span(family, params)
        profile = minimal_profile(family, params, u_span, step=spec.step)
    else:
        if spec.f0 is None:
            raise ValueError(f"{thm.value} needs f0 (initial warp value f(u0))")
        u_span = spec.u_span if spec.u_span is not None else (0.0, 1.0)
        window = (1e-6, max(20.0, 8.0 * spec.f0))
        phi = phi_closed_form(law, family, params, window)
        profile = integrate_profile(phi, spec.f0, u_span, spec.step)

    surface = MeridianSurface(family, curve, profile)
    target = params.c if law is GoverningLaw.CMC else 0.0
    return surface, law, target


def _interior_grid(surface: MeridianSurface, spec: CaseSpec):
    (u0, u1), (v0, v1) = surface.u_span, surface.v_span
    scale = max(1.0, abs(u0), abs(u1), abs(v0), abs(v1))
    # the fd_jet4 stencil reaches 2 h past the grid, h = fd_step * scale
    margin = 3.0 * spec.fd_step * scale
    if u0 + margin >= u1 - margin or v0 + margin >= v1 - margin:
        raise DomainError(
            f"domain too small for an interior grid with fd_step={spec.fd_step}"
        )
    us = np.linspace(u0 + margin, u1 - margin, spec.nu)
    vs = np.linspace(v0 + margin, v1 - margin, spec.nv)
    return us, vs


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_case(spec: CaseSpec) -> VerificationReport:
    """Run one verification case end to end.

    Builds the pipeline, sweeps the analytic and finite-difference mean
    curvature over an interior grid, evaluates profile, constraint and
    frame-equation residuals, the affine rank of the sample cloud, and
    assembles a report whose checks depend on the theorem's law (see the
    class docstrings for the exact check sets).
    """
    t0 = time.perf_counter()
    if spec.theorem is Theorem.CONGRUENCE_TILDE:
        return _verify_congruence(spec, t0)

    surface, law, target = _build_case(spec)
    profile = surface.profile
    us, vs = _interior_grid(surface, spec)
    tol_norm2 = spec.resolved_tol_norm2(target)
    grid = us[:, None], vs[None, :]
    scale = max(1.0, float(np.max(np.abs(us))), float(np.max(np.abs(vs))))
    h_fd = spec.fd_step * scale
    rng = np.random.default_rng(spec.seed)
    pu = rng.uniform(us[0], us[-1], spec.n_probe)
    pv = rng.uniform(vs[0], vs[-1], spec.n_probe)
    # every u and v the checks below read, evaluated once: each stencil's
    # first sample is its center, so these hold the grid and the probes too
    queries = [stencil_points("fd_jet4", *grid, h_fd),
               stencil_points("fd_jet4", pu, pv, h_fd),
               stencil_points("frame_equation_residuals", pu, pv)]
    surface._tabulate(queries)

    # analytic sweep
    mc = surface.mean_curvature(*grid)
    max_h1 = float(np.max(np.abs(mc.h1)))
    max_h2 = float(np.max(np.abs(mc.h2)))
    min_h_pair = float(np.min(np.hypot(mc.h1, mc.h2)))

    # finite-difference sweep
    jet = fd_jet4(surface.immersion, *grid, h_fd)
    forms = fundamental_forms(jet)
    H_inf = np.max(np.abs(forms.H), axis=-1)
    max_H_inf = float(np.max(H_inf))
    min_H_inf = float(np.min(H_inf))
    max_norm2_dev = float(np.max(np.abs(forms.norm2H - target)))
    # the vector itself: <H, H> is blind to the signs of h1 and h2
    H_an = float(np.max(np.abs(mc.vector)))
    max_H_vector_dev = float(np.max(np.abs(forms.H - mc.vector))) / max(1.0, H_an)
    codes = _causal_codes(forms.H).ravel()
    characters = set(_CHARACTERS[np.bincount(codes, minlength=len(_CHARACTERS)) > 0])

    # frame equations and mixed second-form component at probe points
    max_frame = max(frame_equation_residuals(surface, pu, pv).values())
    forms = fundamental_forms(fd_jet4(surface.immersion, pu, pv, h_fd))
    f_probe = surface.profile_values(pu)[0]
    max_mixed = float(np.max(np.max(np.abs(forms.h_uv_vec), axis=-1) / f_probe))

    # profile residuals at every u the checks above read
    u_read = np.concatenate([np.ravel(u) for u, _ in queries])
    res = profile_residuals(profile, law, surface.profile_values(u_read))

    # the stencil's center samples are the grid points: its arm 0 is u + 0 h
    rank, rank_res = affine_rank(jet.z.reshape(-1, 4))

    stats = {
        "max_h1_analytic": max_h1,
        "max_h2_analytic": max_h2,
        "min_h_pair_norm_analytic": min_h_pair,
        "max_H_fd_inf": max_H_inf,
        "min_H_fd_inf": min_H_inf,
        "max_norm2_dev_fd": max_norm2_dev,
        "max_H_vector_dev_fd": max_H_vector_dev,
        "target_norm2": target,
        "max_frame_residual": max_frame,
        "max_mixed_fd": max_mixed,
        "max_governing_residual": res.max_governing,
        "max_constraint_residual": res.max_constraint,
        "affine_rank": rank,
        "affine_rank_residual": rank_res,
        "H_causal_character": _uniform_character(characters),
        "truncated": bool(profile.truncated),
        "truncation_reason": profile.truncation_reason,
        "u_span_reached": [float(profile.us[0]), float(profile.us[-1])],
        "v_span": list(surface.v_span),
    }

    checks = [
        _check("max_norm2_dev_fd", stats["max_norm2_dev_fd"], tol_norm2, "<="),
        _check("max_H_vector_dev_fd", max_H_vector_dev, spec.tol_H, "<="),
        _check("max_governing_residual", res.max_governing, spec.tol_governing, "<="),
        _check("max_constraint_residual", res.max_constraint, spec.tol_constraint, "<="),
        _check("max_frame_residual", max_frame, spec.tol_frame, "<="),
        _check("max_mixed_fd", max_mixed, spec.tol_frame, "<="),
    ]
    if law is GoverningLaw.MINIMAL:
        checks += [
            _check("max_H_fd_inf", max_H_inf, spec.tol_H, "<="),
            _check("max_h1_analytic", max_h1, spec.tol_h12, "<="),
            _check("max_h2_analytic", max_h2, spec.tol_h12, "<="),
            _check("affine_rank", rank, 3, "=="),
            _check("affine_rank_residual", rank_res, spec.tol_rank_residual, "<="),
        ]
    elif law is GoverningLaw.QUASI_MINIMAL:
        checks += [
            _check("min_H_fd_inf", stats["min_H_fd_inf"], spec.min_H_floor, ">="),
            _check("min_h_pair_norm_analytic", min_h_pair, spec.min_H_floor, ">="),
        ]
    else:
        if spec.params.c < 0.0:
            checks.append(
                _check(
                    "H_causal_character",
                    stats["H_causal_character"] or "mixed",
                    CausalCharacter.TIMELIKE.value,
                    "==",
                )
            )

    return _report(spec, stats, checks, t0)


def _report(spec: CaseSpec, stats: dict, checks: list[dict], t0: float) -> VerificationReport:
    """A finished case's report; the status is :meth:`VerificationReport.recompute_status`."""
    status = VerificationReport.recompute_status({"stats": stats, "checks": checks})
    return VerificationReport(spec.to_dict(), status, stats, checks, time.perf_counter() - t0)


def _uniform_character(characters: set[CausalCharacter]) -> str | None:
    if len(characters) == 1:
        return next(iter(characters)).value
    return "mixed" if characters else None


# ---------------------------------------------------------------------------
# the congruence case
# ---------------------------------------------------------------------------


def _congruence_sources(spec: CaseSpec) -> dict[MeridianFamily, MeridianSurface]:
    """Three small generic surfaces, one per family (not special cases)."""
    recipes = {
        MeridianFamily.FIRST_TIMELIKE: (
            ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), 0.4, (0.0, 1.2)
        ),
        MeridianFamily.FIRST_SPACELIKE: (
            ProfileParams(a=1.5, b=1.0), (0.0, 1.0), 0.3, (0.0, 1.2)
        ),
        MeridianFamily.SECOND: (
            ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), 0.5, (0.0, 1.2)
        ),
    }
    out = {}
    for family, (params, u_span, kappa, v_span) in recipes.items():
        cf = family.curve_family
        curve = FrameField(cf, kappa, standard_initial_frame(cf), v_span)
        profile = minimal_profile(family, params, u_span, step=spec.step)
        out[family] = MeridianSurface(family, curve, profile)
    return out


def _verify_congruence(spec: CaseSpec, t0: float) -> VerificationReport:
    """Certify the congruence transform: exact algebra, grid matches, H flips."""
    basis = np.eye(4)
    anti_dev = 0.0
    for x in basis:
        for y in basis:
            anti_dev = max(
                anti_dev, abs(inner(transform_T(x), transform_T(y)) + inner(x, y))
            )
    order_dev = float(
        np.max(np.abs(np.linalg.matrix_power(TRANSFORM_T, 4) - np.eye(4)))
    )

    swap = {
        CausalCharacter.SPACELIKE: CausalCharacter.TIMELIKE,
        CausalCharacter.TIMELIKE: CausalCharacter.SPACELIKE,
        CausalCharacter.LIGHTLIKE: CausalCharacter.LIGHTLIKE,
    }
    sources = _congruence_sources(spec)
    rng = np.random.default_rng(spec.seed)
    max_grid_dev = 0.0
    max_flip_dev = 0.0
    flips_ok = True
    for kind in TildeKind:
        src = sources[kind.source_family]
        til = tilde_surface(kind, src)
        (u0, u1), (v0, v1) = src.u_span, src.v_span
        us = np.linspace(u0, u1, spec.nu)
        vs = np.linspace(v0, v1, spec.nv)
        dev = np.max(
            np.abs(til.grid_points(us, vs) - til.chart_reference(us[:, None], vs[None, :]))
        )
        max_grid_dev = max(max_grid_dev, float(dev))

        margin = 0.05 * min(u1 - u0, v1 - v0)
        pu = rng.uniform(u0 + margin, u1 - margin, spec.n_probe)
        pv = rng.uniform(v0 + margin, v1 - margin, spec.n_probe)
        forms_src = fundamental_forms(fd_jet(src.immersion, pu, pv))
        forms_til = fundamental_forms(fd_jet(til.immersion, pu, pv))
        max_flip_dev = max(
            max_flip_dev, float(np.max(np.abs(forms_til.norm2H + forms_src.norm2H)))
        )
        src_chars, til_chars = causal_character(np.stack([forms_src.zu, forms_til.zu]))
        flips_ok = flips_ok and all(t is swap[s] for s, t in zip(src_chars, til_chars))

    stats = {
        "anti_isometry_dev": anti_dev,
        "transform_order_dev": order_dev,
        "max_tilde_grid_dev": max_grid_dev,
        "max_norm2_flip_dev": max_flip_dev,
        "tangent_causal_flip": bool(flips_ok),
        "truncated": False,
        "truncation_reason": None,
    }
    checks = [
        _check("anti_isometry_dev", anti_dev, 0.0, "<="),
        _check("transform_order_dev", order_dev, 0.0, "<="),
        _check("max_tilde_grid_dev", max_grid_dev, 1e-10, "<="),
        _check("max_norm2_flip_dev", max_flip_dev, 1e-6, "<="),
        _check("tangent_causal_flip", 1.0 if flips_ok else 0.0, 1.0, ">="),
    ]
    return _report(spec, stats, checks, t0)


# ---------------------------------------------------------------------------
# the built-in suite
# ---------------------------------------------------------------------------


def _suite_cases() -> list[CaseSpec]:
    """Nine theorem cases (CMC with both sign branches) plus the congruence."""
    return [
        CaseSpec(Theorem.MINIMAL_A, ProfileParams(a=0.0, b=1.0), u_span=(-0.8, 0.8), v_span=(0.0, 2.0)),
        CaseSpec(Theorem.MINIMAL_B, ProfileParams(a=1.5, b=1.0), u_span=(0.0, 1.0), v_span=(0.0, 1.5)),
        CaseSpec(Theorem.MINIMAL_C, ProfileParams(a=0.0, b=1.0), u_span=(-0.8, 0.8), v_span=(0.0, 1.5)),
        CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.2, c=1.0), f0=2.0, u_span=(0.0, 0.8)),
        CaseSpec(Theorem.QUASI_B, ProfileParams(a=1.0, c=0.5), f0=1.5, u_span=(0.0, 0.5)),
        CaseSpec(Theorem.QUASI_C, ProfileParams(a=0.6, c=2.0), f0=1.6, u_span=(0.0, 1.0)),
        CaseSpec(Theorem.CMC_A, ProfileParams(a=2.0, b=0.5, c=1.0), f0=1.0, u_span=(0.0, 0.5)),
        CaseSpec(Theorem.CMC_A, ProfileParams(a=3.0, b=1.0, c=-0.5), f0=1.0, u_span=(0.0, 0.2)),
        CaseSpec(Theorem.CMC_B, ProfileParams(a=3.0, b=0.5, c=0.5), f0=1.0, u_span=(0.0, 0.2)),
        CaseSpec(Theorem.CMC_B, ProfileParams(a=2.0, b=0.5, c=-1.0), f0=1.5, u_span=(0.0, 0.4)),
        CaseSpec(
            Theorem.CMC_C,
            ProfileParams(a=1.5, b=-0.5, c=0.5, branch=BranchSigns(rhs=-1)),
            f0=0.8,
            u_span=(0.0, 0.3),
        ),
        CaseSpec(
            Theorem.CMC_C,
            ProfileParams(a=1.0, b=2.0, c=-1.0),
            f0=0.95,
            u_span=(0.0, 0.22),
        ),
        CaseSpec(Theorem.CONGRUENCE_TILDE),
    ]


def run_theorem_suite(**overrides) -> tuple[list[VerificationReport], dict]:
    """Run the built-in suite; returns (reports, corollary summary).

    The corollary summary certifies the hyperplane statement at sample
    resolution: every minimal case must have affine rank 3, and at least
    one quasi-minimal case must reach rank 4 (so dropping the minimality
    assumption genuinely leaves the hyperplane).  ``overrides`` replace
    CaseSpec fields uniformly (e.g. nu=11 for a faster pass).
    """
    reports = []
    minimal_ranks: list[int] = []
    quasi_ranks: list[int] = []
    for case in _suite_cases():
        if overrides:
            case = replace(case, **overrides)
        report = verify_case(case)
        reports.append(report)
        law = case.theorem.law
        if law is GoverningLaw.MINIMAL:
            minimal_ranks.append(report.stats["affine_rank"])
        elif law is GoverningLaw.QUASI_MINIMAL:
            quasi_ranks.append(report.stats["affine_rank"])
    corollary = {
        "name": "hyperplane-corollary",
        "minimal_ranks": minimal_ranks,
        "quasi_ranks": quasi_ranks,
        "ok": bool(
            minimal_ranks
            and all(r == 3 for r in minimal_ranks)
            and any(r == 4 for r in quasi_ranks)
        ),
    }
    return reports, corollary


def suite_to_dict(reports: list[VerificationReport], corollary: dict) -> dict:
    all_pass = all(r.status == "pass" for r in reports) and corollary["ok"]
    return {
        "schema": 1,
        "tool_version": __version__,
        "suite": [r.to_dict() for r in reports],
        "corollary": corollary,
        "all_pass": bool(all_pass),
    }


# ---------------------------------------------------------------------------
# admissible random draws (for acceptance testing and sweeps)
# ---------------------------------------------------------------------------


def sample_case(
    theorem: Theorem,
    rng: np.random.Generator,
    c: float | None = None,
    **overrides,
) -> CaseSpec:
    """Draw one random admissible CaseSpec for a theorem.

    Minimal cases are drawn from closed-form admissibility regions; the
    quasi-minimal and CMC cases go through the phi-domain machinery with
    rejection, so every returned spec integrates without truncation and
    keeps the geometry away from degeneracies (f > 0, |g'| bounded below
    for the families where it can vanish).  For CMC theorems ``c`` is the
    required target value.
    """
    law = theorem.law
    family = theorem.family
    if law is GoverningLaw.MINIMAL:
        spec = _sample_minimal(theorem, family, rng)
    elif law is GoverningLaw.QUASI_MINIMAL:
        spec = _sample_reduced(theorem, family, rng, GoverningLaw.QUASI_MINIMAL, None)
    elif law is GoverningLaw.CMC:
        if c is None:
            raise ValueError("CMC draws need the target c")
        spec = _sample_reduced(theorem, family, rng, GoverningLaw.CMC, float(c))
    else:
        raise ValueError(f"cannot sample cases for {theorem.value}")
    return replace(spec, **overrides) if overrides else spec


def _sample_minimal(theorem, family, rng) -> CaseSpec:
    sg = int(rng.choice([1, -1]))
    branch = BranchSigns(g=sg)
    if family is MeridianFamily.FIRST_TIMELIKE:
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(0.5, 2.0)
        r = float(np.sqrt(a * a + b))
        u_span = (a - 0.75 * r, a + 0.75 * r)
    elif family is MeridianFamily.FIRST_SPACELIKE:
        a = rng.uniform(0.8, 1.6)
        d = rng.uniform(0.3, 1.0)
        b = a * a - d
        edge = -a + float(np.sqrt(d))
        u_span = (edge + 0.25, edge + 1.25)
    else:
        a = rng.uniform(-0.5, 0.5)
        d = rng.uniform(0.5, 1.5)
        b = a * a + d
        u_span = (-a - 0.75, -a + 0.75)
    return CaseSpec(theorem, ProfileParams(a=a, b=b, branch=branch), u_span=u_span)


def _reduced_priors(family, law, c, rng):
    """One random parameter draw for the phi-reduced laws."""
    sg = int(rng.choice([1, -1]))
    if law is GoverningLaw.QUASI_MINIMAL:
        if family is MeridianFamily.FIRST_TIMELIKE:
            params = ProfileParams(
                a=rng.uniform(1.15, 1.6), c=rng.uniform(0.3, 1.5), branch=BranchSigns(g=sg)
            )
        elif family is MeridianFamily.FIRST_SPACELIKE:
            params = ProfileParams(
                a=rng.uniform(0.5, 1.4), c=rng.uniform(0.2, 1.2), branch=BranchSigns(g=sg)
            )
        else:
            params = ProfileParams(
                a=rng.uniform(0.35, 0.75),
                c=rng.uniform(1.2, 2.8),
                branch=BranchSigns(g=sg, rhs=-1),
            )
        return params
    # When 4 * eps_family * c < 0 the CMC first integral only exists for
    # t <= a / (2 sqrt|c|), so the linear coefficient must scale with
    # sqrt|c| to leave a usable window.
    squeezed = family.cmc_inner_sign * c < 0.0
    a = rng.uniform(2.0, 3.0) * np.sqrt(abs(c)) if squeezed else rng.uniform(1.0, 2.2)
    if family is MeridianFamily.SECOND:
        rhs = int(rng.choice([1, -1]))
        return ProfileParams(
            a=a,
            b=rng.uniform(-0.8, 1.2),
            c=c,
            branch=BranchSigns(g=sg, rhs=rhs),
        )
    return ProfileParams(a=a, b=rng.uniform(0.2, 1.4), c=c, branch=BranchSigns(g=sg))


def _sample_reduced(theorem, family, rng, law, c) -> CaseSpec:
    rejected = Counter()
    for _ in range(800):
        outcome = _draw_reduced(theorem, family, rng, law, c)
        if isinstance(outcome, CaseSpec):
            return outcome
        rejected[outcome] += 1
    counts = ", ".join(f"{reason} {n}" for reason, n in rejected.most_common())
    raise RuntimeError(
        f"could not draw an admissible {theorem.value} case in 800 attempts "
        f"(rejected: {counts})"
    )


def _draw_reduced(theorem, family, rng, law, c) -> CaseSpec | str:
    """One attempt: an admissible spec, or the reason it was rejected."""
    needs_gp_floor = family is not MeridianFamily.FIRST_TIMELIKE
    params = _reduced_priors(family, law, c, rng)
    try:
        phi = phi_closed_form(law, family, params, window=(1e-3, 12.0))
    except (ValueError, DomainError):
        return "phi construction error"
    if phi.degenerate or not phi.domain:
        return "no domain"
    lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
    width = hi - lo
    if width < 0.3:
        return "too narrow"
    f0 = lo + 0.4 * width
    reach = hi - 0.05 * width
    probe = np.linspace(f0, reach, 64)
    vals = np.abs(np.asarray(phi(probe), dtype=float))
    vmax = float(np.nanmax(vals)) if np.any(np.isfinite(vals)) else np.nan
    if not np.isfinite(vmax) or vmax > 12.0:
        return "too steep"
    u_len = min(0.5, 0.6 * (reach - f0) / max(vmax, 0.2))
    if u_len < 0.1:
        return "too short"
    try:
        profile = integrate_profile(phi, f0, (0.0, u_len), 1e-3)
        f, fp, fpp, _, gp = profile.evaluate(profile.us)
    except DomainError:
        return "profile error"
    if profile.truncated or np.min(f) < 0.3:
        return "truncated or f < 0.3"
    if needs_gp_floor and float(np.min(np.abs(gp))) < 0.1:
        return "g' floor"
    # Keep the curvature coefficients moderate: the FD oracle's noise
    # enters <H,H> as 2|H| * deltaH, so large |h| eats the tolerance.
    h1r, h2r = family.h_coefficients(params.a, f, fp, fpp, gp)
    if max(float(np.max(np.abs(h1r))), float(np.max(np.abs(h2r)))) > 3.0:
        return "large h"
    return CaseSpec(theorem, params, f0=f0, u_span=(0.0, u_len))
