"""Tests for the verification harness: case specs, reports, suite, samplers."""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    CaseSpec,
    DomainError,
    GoverningLaw,
    MeridianFamily,
    ProfileParams,
    Theorem,
    VerificationReport,
    run_theorem_suite,
    sample_case,
    verify_case,
)
from meridian4 import harness
from meridian4.harness import _suite_cases
from meridian4.profiles import BranchSigns, _nodes
from meridian4.surfaces import MeridianSurface, TildeKind, TildeSurface


# ---------------------------------------------------------------------------
# CaseSpec plumbing
# ---------------------------------------------------------------------------


def test_theorem_tags_resolve_family_and_law():
    assert Theorem.MINIMAL_B.family.value == "first-spacelike"
    assert Theorem.CMC_C.family.value == "second"
    assert Theorem.QUASI_A.law.value == "quasi-minimal"
    assert Theorem.CONGRUENCE_TILDE.family is None
    assert Theorem.NEGATIVE_CONTROL.law.value == "minimal"


def test_case_spec_round_trip():
    spec = CaseSpec(
        Theorem.CMC_C,
        ProfileParams(a=1.5, b=-0.5, c=0.5, branch=BranchSigns(rhs=-1)),
        f0=0.8,
        u_span=(0.0, 0.3),
        nu=11,
        seed=42,
    )
    again = CaseSpec.from_dict(spec.to_dict())
    assert again == spec


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-300, max_value=1e300)
# one strategy per field annotation, so a new CaseSpec field is drawn too
_BY_ANNOTATION = {
    "Theorem": st.sampled_from(Theorem),
    "int": st.integers(5, 1000),
    "float": _positive,
    "float | None": _positive,
    "tuple[float, float] | None": st.tuples(_finite, _finite),
    "ProfileParams": st.builds(
        ProfileParams,
        **dict.fromkeys(("a", "b", "c", "c0"), _finite.filter(bool)),
        branch=st.builds(BranchSigns, *[st.sampled_from([1, -1])] * 3).filter(
            lambda signs: signs != BranchSigns()
        ),
    ),
}


@st.composite
def _full_specs(draw):
    """A CaseSpec with every field set to a valid value other than its default;
    the fields a case does not read keep their defaults: c and f0 under the
    minimal law, b under the quasi-minimal law, a, b, c and the phi and rhs
    signs for the negative control, and params, f0, curve_kappa and the spans
    for the congruence."""
    values = {}
    for f in fields(CaseSpec):
        default = f.default_factory() if callable(f.default_factory) else f.default
        values[f.name] = draw(_BY_ANNOTATION[f.type].filter(lambda v, d=default: v != d))
    theorem = values["theorem"]
    if theorem.law is GoverningLaw.MINIMAL:
        values.update(params=replace(values["params"], c=0.0), f0=None)
    if theorem.law is GoverningLaw.QUASI_MINIMAL:
        values.update(params=replace(values["params"], b=0.0))
    if theorem is Theorem.NEGATIVE_CONTROL:
        branch = replace(values["params"].branch, phi=1, rhs=1)
        values.update(params=replace(values["params"], a=0.0, b=0.0, branch=branch))
    if theorem is Theorem.CONGRUENCE_TILDE:
        values.update(params=ProfileParams(), f0=None, curve_kappa=None, u_span=None,
                      v_span=None)
    return CaseSpec(**values)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=_full_specs())
def test_every_case_spec_field_survives_json(spec):
    doc = spec.to_dict()
    assert list(doc) == [f.name for f in fields(CaseSpec)]
    assert doc["params"] == spec.params.to_dict()
    assert CaseSpec.from_dict(json.loads(json.dumps(doc))) == spec


def test_case_spec_rejects_unknown_fields():
    doc = CaseSpec(Theorem.MINIMAL_A, ProfileParams(b=1.0)).to_dict()
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="unknown CaseSpec fields"):
        CaseSpec.from_dict(doc)


@pytest.mark.parametrize("theorem", [t for t in Theorem if t.law is GoverningLaw.MINIMAL],
                         ids=lambda t: t.value)
def test_a_minimal_case_refuses_c_and_f0(theorem):
    """A minimal profile is closed-form in (a, b): a c or an f0 would be
    recorded in the report and never read."""
    with pytest.raises(ValueError, match=f"{theorem.value} reads no c, got c=7.0"):
        CaseSpec(theorem, ProfileParams(c=7.0))
    with pytest.raises(ValueError, match=f"{theorem.value} reads no f0, got f0=3.0"):
        CaseSpec(theorem, f0=3.0)
    doc = CaseSpec(theorem).to_dict()
    with pytest.raises(ValueError, match="reads no c"):
        CaseSpec.from_dict(doc | {"params": doc["params"] | {"c": -0.5}})
    with pytest.raises(ValueError, match="reads no f0"):
        CaseSpec.from_dict(doc | {"f0": 1.0})


@pytest.mark.parametrize("theorem", [t for t in Theorem if t.law is GoverningLaw.QUASI_MINIMAL],
                         ids=lambda t: t.value)
def test_a_quasi_minimal_case_refuses_b(theorem):
    """The quasi-minimal first integral reads a and c: a b would be recorded
    in the report and never read."""
    with pytest.raises(ValueError, match=f"^{theorem.value} reads no b, got b=5.0$"):
        CaseSpec(theorem, ProfileParams(a=1.2, b=5.0, c=1.0), f0=2.0)
    doc = CaseSpec(theorem, ProfileParams(a=1.2, c=1.0), f0=2.0).to_dict()
    with pytest.raises(ValueError, match="reads no b, got b=-0.5"):
        CaseSpec.from_dict(doc | {"params": doc["params"] | {"b": -0.5}})


@pytest.mark.parametrize("name", ["a", "b"])
def test_the_negative_control_refuses_a_and_b(name):
    """Its profile f = u + 2 reads no constant, and its directrix curvature
    defaults to 0, not to a."""
    with pytest.raises(ValueError, match=f"^negative-control reads no {name}, got {name}=1.5$"):
        CaseSpec(Theorem.NEGATIVE_CONTROL, ProfileParams(**{name: 1.5}))
    assert CaseSpec(Theorem.NEGATIVE_CONTROL, ProfileParams(c0=0.25)).params.c0 == 0.25


@pytest.mark.parametrize("name", ["phi", "rhs"])
def test_the_negative_control_refuses_the_phi_and_rhs_signs(name):
    """f = u + 2 is no branch of a reduced ODE: only the g sign is read."""
    with pytest.raises(ValueError, match=f"^negative-control reads no {name}, got {name}=-1$"):
        CaseSpec(Theorem.NEGATIVE_CONTROL, ProfileParams(branch=BranchSigns(**{name: -1})))
    doc = CaseSpec(Theorem.NEGATIVE_CONTROL).to_dict()
    signs = "++-+" if name == "phi" else "+++-"
    with pytest.raises(ValueError, match=f"reads no {name}"):
        CaseSpec.from_dict(doc | {"params": doc["params"] | {"branch_signs": signs}})
    assert CaseSpec(Theorem.NEGATIVE_CONTROL, ProfileParams(branch=BranchSigns(g=-1)))


@pytest.mark.parametrize("name,value", [
    ("params", ProfileParams(a=5.0)),
    ("params", ProfileParams(c0=0.5)),
    ("params", ProfileParams(branch=BranchSigns(g=-1))),
    ("f0", 3.0),
    ("curve_kappa", 0.5),
    ("u_span", (0.0, 9.0)),
    ("v_span", (0.0, 1.0)),
])
def test_the_congruence_case_refuses_what_it_never_reads(name, value):
    """Its three sources are fixed: they read only ``step``, and its grid and
    probes ``nu``, ``nv``, ``n_probe`` and ``seed``."""
    with pytest.raises(ValueError, match=f"^congruence-tilde reads no {name}, got {name}="):
        CaseSpec(Theorem.CONGRUENCE_TILDE, **{name: value})


def test_the_congruence_case_records_tol_h_and_fd_step():
    """Suite overrides apply to every case, so these two stay accepted."""
    spec = CaseSpec(Theorem.CONGRUENCE_TILDE, tol_H=1e-4, fd_step=2e-3)
    assert (spec.tol_H, spec.fd_step) == (1e-4, 2e-3)


def test_case_spec_refuses_the_negative_f_branch():
    doc = CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.2, c=1.0)).to_dict()
    doc["params"]["branch_signs"] = "-+++"
    with pytest.raises(DomainError, match="positive-warp"):
        CaseSpec.from_dict(doc)


def test_case_spec_validation():
    with pytest.raises(ValueError, match="at least 5x5"):
        CaseSpec(Theorem.MINIMAL_A, nu=3)
    with pytest.raises(ValueError, match="must be positive"):
        CaseSpec(Theorem.MINIMAL_A, step=-1.0)


def test_sample_counts_are_capped():
    with pytest.raises(DomainError, match="1001x1000 = 1001000 points exceeds the cap"):
        CaseSpec(Theorem.MINIMAL_A, nu=1001, nv=1000)
    CaseSpec(Theorem.MINIMAL_A, nu=1000, nv=1000)
    assert len(_nodes((0.0, 1.0), 1e-3)) == 1001
    with pytest.raises(DomainError, match=r"u-grid of 2e\+09 samples"):
        _nodes((0.0, 1.0), 5e-10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field,make",
    [
        ("f0", lambda x: {"f0": x}),
        ("curve_kappa", lambda x: {"curve_kappa": x}),
        ("step", lambda x: {"step": x}),
        ("u_span", lambda x: {"u_span": (0.0, x)}),
        ("v_span", lambda x: {"v_span": (x, 1.0)}),
        ("fd_step", lambda x: {"fd_step": x}),
        ("tol_H", lambda x: {"tol_H": x}),
    ],
)
def test_case_spec_rejects_non_finite_values(field, make, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite, got .*{bad}"):
        CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.0, c=2.0), **make(bad))


def test_tol_norm2_resolution_rule():
    """max_norm2_dev_fd's bound: 1e-5 absolute up to |target| = 1, then 1e-4 relative."""
    assert [harness._norm2_bound(t) for t in (0.0, 0.5, -1.0)] == [1e-5] * 3
    assert harness._norm2_bound(2.0) == pytest.approx(2e-4)
    assert harness._norm2_bound(-4.0) == pytest.approx(4e-4)


# ---------------------------------------------------------------------------
# verification behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def minimal_report():
    return verify_case(
        CaseSpec(Theorem.MINIMAL_A, ProfileParams(a=0.0, b=1.0), u_span=(-0.8, 0.8))
    )


def test_minimal_case_passes(minimal_report):
    r = minimal_report
    assert r.status == "pass"
    assert r.stats["max_H_fd_inf"] <= 1e-5
    assert r.stats["max_h1_analytic"] <= 1e-9
    assert r.stats["max_h2_analytic"] <= 1e-9
    assert r.stats["affine_rank"] == 3
    assert all(c["ok"] for c in r.checks)


def test_report_status_is_recomputable(minimal_report):
    doc = minimal_report.to_dict()
    assert VerificationReport.recompute_status(doc) == minimal_report.status
    tampered = dict(doc)
    tampered["checks"] = [dict(c) for c in doc["checks"]]
    tampered["checks"][0]["ok"] = False
    assert VerificationReport.recompute_status(tampered) == "fail"


def test_a_report_carries_five_fields_and_its_schema_and_version_as_constants(minimal_report):
    assert [f.name for f in fields(VerificationReport)] == [
        "case", "status", "stats", "checks", "runtime_seconds"]
    doc = minimal_report.to_dict()
    assert list(doc)[:2] == ["schema", "tool_version"]
    assert (doc["schema"], doc["tool_version"]) == (1, harness.__version__)


def test_report_json_is_deterministic():
    spec = CaseSpec(Theorem.MINIMAL_C, ProfileParams(a=0.0, b=1.0), u_span=(-0.6, 0.6))
    a = verify_case(spec).to_json(include_runtime=False)
    b = verify_case(spec).to_json(include_runtime=False)
    assert a == b
    # runtime is the only non-deterministic field
    assert "runtime_seconds" not in a


def test_quasi_case_passes_and_H_is_nonzero():
    r = verify_case(
        CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.2, c=1.0), f0=2.0, u_span=(0.0, 0.8))
    )
    assert r.status == "pass"
    assert r.stats["max_norm2_dev_fd"] <= 1e-5
    assert r.stats["min_H_fd_inf"] >= 1e-3
    assert r.stats["affine_rank"] == 4


def test_cmc_negative_target_is_timelike():
    r = verify_case(
        CaseSpec(
            Theorem.CMC_A, ProfileParams(a=3.0, b=1.0, c=-0.5), f0=1.0, u_span=(0.0, 0.2)
        )
    )
    assert r.status == "pass"
    assert r.stats["H_causal_character"] == "timelike"


def test_negative_control_fails_governing():
    r = verify_case(CaseSpec(Theorem.NEGATIVE_CONTROL))
    assert r.status == "fail"
    assert r.stats["max_governing_residual"] == 2.0  # f f'' + f'^2 + 1 for f = u + 2
    failed = {c["name"] for c in r.checks if not c["ok"]}
    assert "max_governing_residual" in failed


def test_curvature_mismatch_control_fails_norm2():
    spec = CaseSpec(
        Theorem.QUASI_A,
        ProfileParams(a=1.2, c=1.0),
        f0=2.0,
        u_span=(0.0, 0.8),
        curve_kappa=1.7,
    )
    r = verify_case(spec)
    assert r.status == "fail"
    assert r.stats["max_norm2_dev_fd"] >= 1e-2


def test_truncated_case_reports_domain_truncated():
    # this second-family branch has domain [4/3, 4]; a 5-long window overruns it
    spec = CaseSpec(
        Theorem.QUASI_C, ProfileParams(a=0.5, c=2.0), f0=2.0, u_span=(0.0, 5.0)
    )
    r = verify_case(spec)
    assert r.status == "domain-truncated"
    assert r.stats["truncated"] is True
    assert r.stats["u_span_reached"][1] < 5.0


def test_truncated_case_names_its_reason(minimal_report):
    spec = CaseSpec(
        Theorem.QUASI_C, ProfileParams(a=0.5, c=2.0), f0=2.0, u_span=(0.0, 5.0)
    )
    r = verify_case(spec)
    assert r.stats["truncation_reason"] == "phi-inadmissible"
    assert r.stats["u_span_reached"][1] == pytest.approx(2.063, abs=1e-3)
    assert VerificationReport.recompute_status(r.to_dict()) == "domain-truncated"
    assert minimal_report.stats["truncation_reason"] is None
    congruence = verify_case(CaseSpec(Theorem.CONGRUENCE_TILDE, nu=5, nv=5, n_probe=2))
    assert congruence.stats["truncation_reason"] is None


def test_ode_theorems_need_f0():
    with pytest.raises(ValueError, match="needs f0"):
        verify_case(CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.2, c=1.0)))


def test_interior_grid_needs_room():
    with pytest.raises(DomainError, match="too small"):
        verify_case(
            CaseSpec(
                Theorem.MINIMAL_A,
                ProfileParams(a=0.0, b=1.0),
                u_span=(-0.8, 0.8),
                v_span=(0.0, 1e-4),
            )
        )


def test_congruence_case_passes():
    r = verify_case(CaseSpec(Theorem.CONGRUENCE_TILDE))
    assert r.status == "pass"
    assert r.stats["anti_isometry_dev"] == 0.0
    assert r.stats["transform_order_dev"] == 0.0
    assert r.stats["max_tilde_grid_dev"] <= 1e-10
    assert r.stats["tangent_causal_flip"] is True


def test_a_wrong_chart_fails_the_congruence_flip_check(monkeypatch):
    """The flip check reads the tilde surface through its carrier chart: with
    the chart's x2..x4 off by 1e-3 relative, <H, H> no longer flips.  Read
    through T z, whose jet is T times the source's, it could not fail."""
    chart_reference = TildeSurface.chart_reference

    def stretched(tilde, u, v):
        out = chart_reference(tilde, u, v)
        out[..., 1:] *= 1.0 + 1e-3
        return out

    monkeypatch.setattr(TildeSurface, "chart_reference", stretched)
    r = verify_case(CaseSpec(Theorem.CONGRUENCE_TILDE))
    checks = {c["name"]: c for c in r.checks}
    assert r.status == "fail" and not checks["max_norm2_flip_dev"]["ok"]


def test_the_flip_check_reads_a_nonzero_norm2(monkeypatch):
    """The sources' profiles are minimal (h2 = 0), but their directrices are
    curved, so h1 = alpha kappa / 2f and <H, H> are nonzero at every probe:
    the flip check compares values of 5e-3 and more, not two zeros."""
    seen, fundamental_forms = [], harness.fundamental_forms

    def recording(jet):
        forms = fundamental_forms(jet)
        seen.append(forms.norm2H)
        return forms

    monkeypatch.setattr(harness, "fundamental_forms", recording)
    r = verify_case(CaseSpec(Theorem.CONGRUENCE_TILDE))
    assert r.status == "pass" and len(seen) == 2 * len(TildeKind)
    for norm2 in seen:  # the source's, then its tilde partner's, per kind
        assert norm2.shape == (20,) and np.min(np.abs(norm2)) >= 1e-3


# ---------------------------------------------------------------------------
# the built-in suite
# ---------------------------------------------------------------------------


def test_theorem_suite_all_pass():
    reports, corollary = run_theorem_suite(nu=11, nv=11)
    assert len(reports) == 13
    assert all(r.status == "pass" for r in reports)
    assert corollary["ok"] is True
    assert corollary["minimal_ranks"] == [3, 3, 3]
    assert 4 in corollary["quasi_ranks"]
    tags = [r.case["theorem"] for r in reports]
    # both CMC sign branches are exercised for every family
    assert tags.count("cmc-a") == tags.count("cmc-b") == tags.count("cmc-c") == 2


def test_every_theorem_report_checks_the_mean_curvature_vector():
    """|H_fd - H_an| / max(1, |H_an|) is checked against tol_H on every case
    but the congruence; the suite reads <= 1e-8 of it at 21x21."""
    for spec in _suite_cases():
        report = verify_case(spec)
        checks = {c["name"]: c for c in report.checks}
        if spec.theorem is Theorem.CONGRUENCE_TILDE:
            assert "max_H_vector_dev_fd" not in checks
            continue
        check = checks["max_H_vector_dev_fd"]
        assert check["value"] == report.stats["max_H_vector_dev_fd"] <= 1e-8
        assert check["threshold"] == spec.tol_H and check["ok"]


@pytest.mark.parametrize("negated", [0, 1], ids=["h1", "h2"])
def test_a_negated_mean_curvature_coefficient_fails_every_reduced_case(negated, monkeypatch):
    """<H, H> is blind to the signs of h1 and h2; the vector check is not."""
    h_coefficients = MeridianFamily.h_coefficients

    def flipped(family, *args):
        h = list(h_coefficients(family, *args))
        h[negated] = -h[negated]
        return tuple(h)

    monkeypatch.setattr(MeridianFamily, "h_coefficients", flipped)
    reduced = [s for s in _suite_cases()
               if s.theorem.law in (GoverningLaw.QUASI_MINIMAL, GoverningLaw.CMC)]
    assert len(reduced) == 9
    for spec in reduced:
        report = verify_case(spec)
        failed = [c["name"] for c in report.checks if not c["ok"]]
        assert report.status == "fail" and failed == ["max_H_vector_dev_fd"], failed
        assert report.stats["max_H_vector_dev_fd"] >= 0.4


# (table, row, column) of every entry of MeridianSurface.frame_table that is
# not identically zero; B[1, 2] and B[2, 1] carry the directrix curvature
_FRAME_TABLE_ENTRIES = [(0, 0, 3), (0, 3, 0), (1, 0, 1), (1, 1, 0),
                        (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 3, 1)]


@pytest.mark.parametrize("entry", _FRAME_TABLE_ENTRIES,
                         ids=[f"{'AB'[m]}{i}{j}" for m, i, j in _FRAME_TABLE_ENTRIES])
def test_a_flipped_frame_table_sign_fails_the_frame_check(entry, monkeypatch):
    """The FD frame rates see every sign of the derivative table: one entry
    negated fails max_frame_residual on every suite case where it is not
    zero, that is everywhere but the kappa entries of the minimal cases."""
    table, row, col = entry
    frame_table = MeridianSurface.frame_table

    def flipped(surface, u):
        A, B = frame_table(surface, u)
        (A, B)[table][..., row, col] *= -1.0
        return A, B

    monkeypatch.setattr(MeridianSurface, "frame_table", flipped)
    for spec in _suite_cases()[:-1]:
        report = verify_case(spec)
        check = next(c for c in report.checks if c["name"] == "max_frame_residual")
        carries_kappa = entry in ((1, 1, 2), (1, 2, 1))
        if carries_kappa and spec.theorem.law is GoverningLaw.MINIMAL:
            assert check["ok"], spec.theorem
        else:
            assert not check["ok"] and check["value"] >= 0.1, spec.theorem


def test_the_frame_table_has_eight_entries():
    """The entries the flip test negates are exactly the non-zero ones."""
    surface = harness._build_case(_suite_cases()[3])[0]
    u = np.linspace(*surface.u_span, 7)
    A, B = surface.frame_table(u)
    nonzero = {(m, i, j) for m, M in enumerate((A, B)) for i in range(4) for j in range(4)
               if np.all(M[:, i, j] != 0.0)}
    zero = {(m, i, j) for m, M in enumerate((A, B)) for i in range(4) for j in range(4)
            if np.all(M[:, i, j] == 0.0)}
    assert nonzero == set(_FRAME_TABLE_ENTRIES) and len(zero) == 32 - 8


@pytest.mark.parametrize(
    "spec",
    [s for s in _suite_cases() if s.theorem is not Theorem.CONGRUENCE_TILDE],
    ids=lambda s: s.theorem.value,
)
def test_the_frame_check_reads_fourth_order_rates(spec):
    """The probes' frame rates come from the 17-point fd_jet4 at a tenth of
    the grid's step: the residual sits near roundoff on every suite case
    (a 9-point second-order stencil at step 1e-5 reads up to 7.2e-9)."""
    assert verify_case(spec).stats["max_frame_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_case_is_deterministic():
    a = sample_case(Theorem.MINIMAL_B, np.random.default_rng(5))
    b = sample_case(Theorem.MINIMAL_B, np.random.default_rng(5))
    assert a == b


def test_sample_case_cmc_needs_target():
    with pytest.raises(ValueError, match="need the target c"):
        sample_case(Theorem.CMC_A, np.random.default_rng(0))
    with pytest.raises(ValueError, match="cannot sample"):
        sample_case(Theorem.CONGRUENCE_TILDE, np.random.default_rng(0))


@pytest.mark.parametrize("params,reason", [
    # a = 0 is refused by phi_closed_form
    (ProfileParams(a=0.0, c=1.0), "phi construction error"),
    # a = 1, c = 0: phi == 0, a degenerate phi with no interval to start in
    (ProfileParams(a=1.0, c=0.0), "no domain"),
], ids=["phi-error", "no-domain"])
def test_failed_draw_counts_its_rejections(params, reason, monkeypatch):
    monkeypatch.setattr(harness, "_reduced_priors", lambda family, law, c, rng: params)
    expected = rf"quasi-a case in 800 attempts \(rejected: {reason} 800\)$"
    with pytest.raises(RuntimeError, match=expected):
        sample_case(Theorem.QUASI_A, np.random.default_rng(0))


@pytest.mark.parametrize("theorem", [Theorem.MINIMAL_A, Theorem.MINIMAL_B, Theorem.MINIMAL_C])
def test_sampled_minimal_draws_verify(theorem):
    rng = np.random.default_rng(101)
    r = verify_case(sample_case(theorem, rng))
    assert r.status == "pass"


def test_sampled_quasi_draw_verifies():
    rng = np.random.default_rng(17)
    r = verify_case(sample_case(Theorem.QUASI_C, rng))
    assert r.status == "pass"


def test_sampled_cmc_draw_hits_target():
    rng = np.random.default_rng(23)
    spec = sample_case(Theorem.CMC_B, rng, c=-1.0)
    assert spec.params.c == -1.0
    r = verify_case(spec)
    assert r.status == "pass"
    assert r.stats["target_norm2"] == -1.0


# The three worst draws_dense items of seeds 1-130 under the second-order FD
# sweep at fd_step 1e-4: max_norm2_dev_fd read 0.983 (seed 130, cmc-b) and
# 0.980 (seed 72, cmc-a) of its tolerance, and 1.08 for seed 20's cmc-a
# once the directrix frames moved at roundoff.  All have f0 at the top of
# the sampler's phi window.
_WORST_DRAWS = {
    "seed-130-cmc-b": CaseSpec(
        Theorem.CMC_B,
        ProfileParams(a=1.1178920231406275, b=0.7915579893652354, c=-1.0,
                      branch=BranchSigns(g=-1)),
        f0=4.800600000000001, u_span=(0.0, 0.3404425442962571), nu=41, nv=41,
    ),
    "seed-72-cmc-a": CaseSpec(
        Theorem.CMC_A,
        ProfileParams(a=1.9267005891173432, b=0.8224220505450319, c=1.0),
        f0=4.800600000000001, u_span=(0.0, 0.33609010836769543), nu=41, nv=41,
    ),
    "seed-20-cmc-a": CaseSpec(
        Theorem.CMC_A,
        ProfileParams(a=1.9759664029476196, b=0.2059659349513015, c=1.0),
        f0=4.800600000000001, u_span=(0.0, 0.3371197042233832), nu=41, nv=41,
    ),
}


@pytest.mark.parametrize("name", list(_WORST_DRAWS))
def test_worst_recorded_draws_pass_with_room(name):
    """The fourth-order FD sweep keeps every check of these draws at <= 0.2 of its bound."""
    report = verify_case(_WORST_DRAWS[name])
    assert report.status == "pass"
    ratios = {c["name"]: c["value"] / c["threshold"] for c in report.checks
              if c["comparison"] == "<=" and c["threshold"] > 0.0}
    assert max(ratios.values()) <= 0.2, ratios


_FLOAT_SLOTS = [
    (f.name, i)
    for f in fields(CaseSpec)
    if "float" in f.type
    for i in ((0, 1) if "tuple" in f.type else (None,))
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name,index", _FLOAT_SLOTS)
def test_every_float_field_and_span_element_rejects_non_finite(name, index, bad):
    if index is None:
        value = bad
    else:
        value = [0.0, 1.0]
        value[index] = bad
        value = tuple(value)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got .*{bad}"):
        CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.0, c=2.0), **{name: value})


def test_case_spec_rejects_a_negative_seed():
    CaseSpec(Theorem.MINIMAL_A, seed=0)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        CaseSpec(Theorem.MINIMAL_A, seed=-1)


@pytest.mark.parametrize(
    "spec",
    [s for s in _suite_cases() if s.theorem is not Theorem.CONGRUENCE_TILDE],
    ids=lambda s: s.theorem.value,
)
def test_verify_case_calls_the_immersion_once(spec, monkeypatch):
    """One call and one set of fundamental forms, the FD grid sweep's: the
    mixed check and the rank read them too, and the probes read only the
    frames."""
    calls = []
    immersion, forms = MeridianSurface.immersion, harness.fundamental_forms

    def counting(self, u, v):
        calls.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
        return immersion(self, u, v)

    def counting_forms(jet):
        calls.append("fundamental_forms")
        return forms(jet)

    monkeypatch.setattr(MeridianSurface, "immersion", counting)
    monkeypatch.setattr(harness, "fundamental_forms", counting_forms)
    report = verify_case(replace(spec, nu=9, nv=7, n_probe=5))
    assert report.status == "pass"
    assert calls == [(17, 9, 7), "fundamental_forms"]


@pytest.mark.parametrize(
    "spec",
    [s for s in _suite_cases() if s.theorem is not Theorem.CONGRUENCE_TILDE],
    ids=lambda s: s.theorem.value,
)
def test_a_mixed_term_in_the_immersion_fails_the_mixed_check(spec, monkeypatch):
    """z + 1e-4 u v w for a fixed w has z_uv = f' t + 1e-4 w, whose normal
    part no longer vanishes: ``max_mixed_fd`` sees it on the grid."""
    w = np.array([0.3, -0.2, 0.5, 0.7])
    immersion = MeridianSurface.immersion

    def bent(self, u, v):
        return immersion(self, u, v) + 1e-4 * (np.asarray(u) * np.asarray(v))[..., None] * w

    monkeypatch.setattr(MeridianSurface, "immersion", bent)
    checks = {c["name"]: c for c in verify_case(spec).checks}
    assert not checks["max_mixed_fd"]["ok"]


@pytest.mark.parametrize(
    "spec",
    [pytest.param(s, id=s.theorem.value)
     for s in _suite_cases() if s.theorem is not Theorem.CONGRUENCE_TILDE]
    + [pytest.param(CaseSpec(Theorem.QUASI_C, ProfileParams(a=0.5, c=2.0), f0=2.0,
                             u_span=(0.0, 5.0)), id="quasi-c-truncated")],
)
def test_grid_sweep_centers_are_the_grid_points(spec, monkeypatch):
    """The FD grid sweep's center samples, which the affine rank reads, are
    ``grid_points`` on its grid bit for bit: stencil arm 0 is u + 0 h = u."""
    jets = []
    fd_jet4 = harness.fd_jet4

    def recording(immersion, u, v, h=None):
        jets.append((immersion, fd_jet4(immersion, u, v, h)))
        return jets[-1][1]

    monkeypatch.setattr(harness, "fd_jet4", recording)
    verify_case(spec)
    immersion, jet = jets[0]
    us, vs = jet.u[:, 0], jet.v[0, :]
    assert jet.z.shape == (spec.nu, spec.nv, 4)
    assert np.array_equal(jet.z, immersion.__self__.grid_points(us, vs))


# ---------------------------------------------------------------------------
# the table of every u and v a case reads
# ---------------------------------------------------------------------------

_DRAWS_DENSE_SPECS = Path(__file__).parent / "fixtures" / "draws_dense_specs.json"

# every non-congruence suite case, the truncated quasi-c case and the 12
# draws_dense draws of seed 1
_TABULATED = (
    [pytest.param(s, id=s.theorem.value)
     for s in _suite_cases() if s.theorem is not Theorem.CONGRUENCE_TILDE]
    + [pytest.param(CaseSpec(Theorem.QUASI_C, ProfileParams(a=0.5, c=2.0), f0=2.0,
                             u_span=(0.0, 5.0)), id="quasi-c-truncated")]
    + [pytest.param(CaseSpec.from_dict(doc), id=f"draw-{k}")
       for k, doc in enumerate(json.loads(_DRAWS_DENSE_SPECS.read_text())["1"])]
)


@pytest.mark.parametrize("spec", _TABULATED)
def test_verify_case_evaluates_the_profile_and_the_directrix_once(spec, monkeypatch):
    """After the profile's nodes and the directrix's finiteness check, a case
    makes one profile evaluation and one ``frame_at`` call, the table of
    every u and v it reads: no surface query misses the table."""
    calls = []
    build = harness._build_case

    def counting_build(spec):
        surface, law, target = build(spec)
        for owner, name in ((surface.profile, "evaluate"), (surface.curve, "frame_at")):
            def counting(x, method=getattr(owner, name), name=name):
                calls.append(name)
                return method(x)
            setattr(owner, name, counting)
        return surface, law, target

    monkeypatch.setattr(harness, "_build_case", counting_build)
    verify_case(spec)
    assert sorted(calls) == ["evaluate", "frame_at"]


@pytest.mark.parametrize("spec", _TABULATED)
def test_the_table_does_not_change_a_report(spec, monkeypatch):
    """Every report is the one the surface gives without a table, bit for bit."""
    tabulated = json.dumps(verify_case(spec).to_dict(include_runtime=False), sort_keys=True)
    monkeypatch.setattr(MeridianSurface, "_tabulate", lambda surface, queries: None)
    direct = json.dumps(verify_case(spec).to_dict(include_runtime=False), sort_keys=True)
    assert direct == tabulated


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec", _TABULATED + [pytest.param(CaseSpec(Theorem.CONGRUENCE_TILDE), id="congruence")])
def test_every_case_profile_is_finite_and_positive_at_its_nodes(spec):
    """No construction of an exact profile evaluates it, so nothing checks
    its nodes as it is built: its construction keeps every value finite and
    f > 0 there, on every suite profile, a truncated one and seeded draws."""
    if spec.theorem is Theorem.CONGRUENCE_TILDE:
        surfaces = harness._congruence_sources(spec).values()
    else:
        surfaces = [harness._build_case(spec)[0]]
    for surface in surfaces:
        profile = surface.profile
        values = profile.evaluate(profile.us)
        assert all(np.all(np.isfinite(x)) for x in values)
        assert np.min(values[0]) > 0.0


# quasi-a and the first cmc-a (c = 1)
@pytest.mark.parametrize("spec", [pytest.param(s, id=s.theorem.value) for s in _suite_cases()
                                  if s.theorem in (Theorem.QUASI_A, Theorem.CMC_A)][:2])
def test_a_defect_at_the_probes_fails_the_governing_check(spec, monkeypatch):
    """f'' off by 1e-3 at the case's probe u alone fails the governing law:
    the residual checks read the values the surface is certified with."""
    build = harness._build_case

    def defective_build(spec):
        surface, law, target = build(spec)
        us, _ = harness._interior_grid(surface, spec)
        pu = np.random.default_rng(spec.seed).uniform(us[0], us[-1], spec.n_probe)

        def defective(u, evaluate=surface.profile.evaluate):
            f, fp, fpp, g, gp = evaluate(u)
            return f, fp, np.where(np.isin(u, pu), fpp + 1e-3, fpp), g, gp

        surface.profile.evaluate = defective
        return surface, law, target

    monkeypatch.setattr(harness, "_build_case", defective_build)
    checks = {c["name"]: c for c in verify_case(spec).checks}
    assert not checks["max_governing_residual"]["ok"]


# ---------------------------------------------------------------------------
# the probe stream
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**256), n=st.integers(0, 50),
       ends=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted))
def test_the_probe_stream_is_numpys_default_rng(seed, n, ends):
    low, high = ends
    got = harness._ProbeStream(seed).uniform(low, high, n)
    want = np.random.default_rng(seed).uniform(low, high, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_the_probe_stream_is_numpys_default_rng_at_fixed_seeds():
    """Every seed to 2,000, the one- to five-word edges, and a seed of more
    than four 32-bit words, whose tail SeedSequence mixes in last."""
    for seed in [*range(2001), 2**32 - 1, 2**32, 2**64, 2**128 + 1, 2**200 + 12345]:
        got = harness._ProbeStream(seed).uniform(0.25, 1.75, 20)
        assert np.array_equal(got, np.random.default_rng(seed).uniform(0.25, 1.75, 20)), seed


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_the_probe_stream_continues_across_calls(seed):
    """Six draws in a row, as the congruence case makes them, continue
    numpy's stream as one Generator's calls do."""
    ours, numpys = harness._ProbeStream(seed), np.random.default_rng(seed)
    for k in range(6):
        low, high = 0.1 * k - 0.5, 0.3 * k + 0.2
        assert np.array_equal(ours.uniform(low, high, 20), numpys.uniform(low, high, 20))


# ---------------------------------------------------------------------------
# the benchmark's seeded draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_draws_dense_specs_equal_the_committed_fixture(seed):
    """The dense-draws mix (minimal and quasi theorems, then CMC at c = +m
    and -m with m drawn from {0.5, 1}) draws the specs the fixture holds.

    Any change to the samplers or to what they integrate that moves an
    accept/reject decision or a drawn value fails this.
    """
    rng = np.random.default_rng(seed)
    draws = [(Theorem(f"{law}-{x}"), None) for law in ("minimal", "quasi") for x in "abc"]
    m = float(rng.choice([0.5, 1.0]))
    draws += [(Theorem(f"cmc-{x}"), c) for c in (m, -m) for x in "abc"]
    specs = [sample_case(t, rng, c=c, nu=41, nv=41).to_dict() for t, c in draws]
    expected = json.loads(_DRAWS_DENSE_SPECS.read_text())[str(seed)]
    assert json.loads(json.dumps(specs)) == expected


# Each check's bound as recorded before the bounds became module constants;
# max_norm2_dev_fd's follows its target: 1e-5 for |target| <= 1, else 1e-4 |target|.
_RECORDED_BOUNDS = {
    "max_H_vector_dev_fd": 1e-5, "max_H_fd_inf": 1e-5,
    "max_governing_residual": 1e-6, "max_constraint_residual": 1e-8,
    "max_frame_residual": 1e-5, "max_mixed_fd": 1e-5,
    "max_h1_analytic": 1e-9, "max_h2_analytic": 1e-9,
    "affine_rank": 3, "affine_rank_residual": 1e-8,
    "min_H_fd_inf": 1e-3, "min_h_pair_norm_analytic": 1e-3,
    "H_causal_character": "timelike",
    "anti_isometry_dev": 0.0, "transform_order_dev": 0.0, "max_tilde_grid_dev": 1e-10,
    "max_norm2_flip_dev": 1e-6, "tangent_causal_flip": 1.0,
}


def test_every_check_keeps_its_recorded_bound():
    """The 13 suite reports and the 12 draws of the fixture's seed 1 record
    each check's threshold at the value reports carried while the bounds
    were CaseSpec fields: a changed bound constant fails here."""
    specs = _suite_cases() + [CaseSpec.from_dict(d)
                              for d in json.loads(_DRAWS_DENSE_SPECS.read_text())["1"]]
    seen = set()
    for spec in specs:
        report = verify_case(spec)
        for check in report.checks:
            name = check["name"]
            if name == "max_norm2_dev_fd":
                target = abs(report.stats["target_norm2"])
                want = 1e-5 if target <= 1.0 else 1e-4 * target
            else:
                want = _RECORDED_BOUNDS[name]
            assert (check["threshold"], type(check["threshold"])) == (want, type(want)), \
                (spec.theorem.value, name)
            seen.add(name)
    assert seen == {"max_norm2_dev_fd", *_RECORDED_BOUNDS}
