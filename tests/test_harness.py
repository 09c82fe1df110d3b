"""Tests for the verification harness: case specs, reports, suite, samplers."""

import numpy as np
import pytest

from meridian4 import (
    CaseSpec,
    DomainError,
    ProfileParams,
    Theorem,
    VerificationReport,
    run_theorem_suite,
    sample_case,
    verify_case,
)
from meridian4.harness import _samples_for
from meridian4.profiles import BranchSigns


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


def test_case_spec_rejects_unknown_fields():
    doc = CaseSpec(Theorem.MINIMAL_A, ProfileParams(b=1.0)).to_dict()
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="unknown CaseSpec fields"):
        CaseSpec.from_dict(doc)


def test_case_spec_validation():
    with pytest.raises(ValueError, match="at least 5x5"):
        CaseSpec(Theorem.MINIMAL_A, nu=3)
    with pytest.raises(ValueError, match="must be positive"):
        CaseSpec(Theorem.MINIMAL_A, step=-1.0)
    with pytest.raises(ValueError, match="tol_norm2"):
        CaseSpec(Theorem.MINIMAL_A, tol_norm2=0.0)


def test_sample_counts_are_capped():
    with pytest.raises(DomainError, match="1001x1000 = 1001000 points exceeds the cap"):
        CaseSpec(Theorem.MINIMAL_A, nu=1001, nv=1000)
    CaseSpec(Theorem.MINIMAL_A, nu=1000, nv=1000)
    assert _samples_for((0.0, 1.0), 1e-3) == 1001
    assert _samples_for((0.0, 1.0), 0.5) == 9
    with pytest.raises(DomainError, match=r"u-grid of 2e\+09 samples"):
        _samples_for((0.0, 1.0), 5e-10)


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
        ("tol_norm2", lambda x: {"tol_norm2": x}),
        ("tol_H", lambda x: {"tol_H": x}),
    ],
)
def test_case_spec_rejects_non_finite_values(field, make, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite, got .*{bad}"):
        CaseSpec(Theorem.QUASI_A, ProfileParams(a=1.0, c=2.0), **make(bad))


def test_tol_norm2_resolution_rule():
    spec = CaseSpec(Theorem.CMC_A, ProfileParams(a=2.0, c=2.0), f0=1.0)
    assert spec.resolved_tol_norm2(0.5) == 1e-5
    assert spec.resolved_tol_norm2(2.0) == pytest.approx(2e-4)
    pinned = CaseSpec(Theorem.CMC_A, ProfileParams(a=2.0, c=2.0), f0=1.0, tol_norm2=1e-3)
    assert pinned.resolved_tol_norm2(2.0) == 1e-3


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
