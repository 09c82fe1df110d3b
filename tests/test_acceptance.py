"""End-to-end acceptance suite.

Nine criteria certify the package against its contract: randomized minimal /
quasi-minimal / CMC certification through the finite-difference oracle, the
hyperplane rank corollary, the first-integral reduction identities, the
frame derivative tables, the congruence transform, oracle convergence order,
and two designed-to-fail negative controls.

Each criterion is one test that prints a single ``criterion N ...: PASS/FAIL``
line (visible with ``pytest -s``) and then asserts.  Tolerances are pinned
here, independently of the library defaults.
"""

import numpy as np
import pytest

from meridian4 import (
    BranchSigns,
    CaseSpec,
    FrameField,
    GoverningLaw,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    Theorem,
    TildeKind,
    fd_jet,
    frame_equation_residuals,
    fundamental_forms,
    inner,
    mean_curvature_fd,
    minimal_profile,
    phi_closed_form,
    sample_case,
    standard_initial_frame,
    tilde_surface,
    transform_T,
    verify_case,
)

# pinned acceptance tolerances
N_MINIMAL_DRAWS = 10
N_QUASI_DRAWS = 5
N_CMC_DRAWS = 5
CMC_TARGETS = (0.5, -0.5, 1.0, -1.0)
TOL_H_MINIMAL_FD = 1e-5        # criterion 1: max ||H_fd||_inf on the grid
TOL_H12_ANALYTIC = 1e-9        # criterion 1: analytic (h1, h2) of minimal cases
TOL_RANK_RESIDUAL = 1e-8       # criterion 2
TOL_NORM2_QUASI = 1e-5         # criterion 3: |<H,H>_fd|
MIN_H_FLOOR = 1e-3             # criterion 3: ||H_fd||_inf stays away from 0
TOL_NORM2_CMC = 1e-4           # criterion 4: |<H,H>_fd - c|
TOL_REDUCTION = 1e-7           # criterion 5
N_REDUCTION_SAMPLES = 50
TOL_FRAME = 1e-5               # criterion 6
N_FRAME_PROBES = 20
TOL_TILDE_GRID = 1e-10         # criterion 7
MIN_CONV_RATIO = 3.5           # criterion 8
MIN_CONTROL_GOVERNING = 0.1    # criterion 9
MIN_CONTROL_NORM2 = 1e-2       # criterion 9

MINIMAL_THEOREMS = (Theorem.MINIMAL_A, Theorem.MINIMAL_B, Theorem.MINIMAL_C)
QUASI_THEOREMS = (Theorem.QUASI_A, Theorem.QUASI_B, Theorem.QUASI_C)
CMC_THEOREMS = (Theorem.CMC_A, Theorem.CMC_B, Theorem.CMC_C)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def minimal_reports():
    out = []
    for i, theorem in enumerate(MINIMAL_THEOREMS):
        rng = np.random.default_rng(1000 + i)
        out += [verify_case(sample_case(theorem, rng)) for _ in range(N_MINIMAL_DRAWS)]
    return out


@pytest.fixture(scope="module")
def quasi_reports():
    out = []
    for i, theorem in enumerate(QUASI_THEOREMS):
        rng = np.random.default_rng(2000 + i)
        out += [verify_case(sample_case(theorem, rng)) for _ in range(N_QUASI_DRAWS)]
    return out


@pytest.mark.slow
def test_criterion_1_minimal_certification(minimal_reports):
    worst_fd = max(r.stats["max_H_fd_inf"] for r in minimal_reports)
    worst_h12 = max(
        max(r.stats["max_h1_analytic"], r.stats["max_h2_analytic"])
        for r in minimal_reports
    )
    ok = worst_fd <= TOL_H_MINIMAL_FD and worst_h12 <= TOL_H12_ANALYTIC
    _criterion(
        1,
        "minimal certification",
        ok,
        f"{len(minimal_reports)} draws: max ||H_fd|| {worst_fd:.2e} "
        f"(tol {TOL_H_MINIMAL_FD:g}), analytic |h| {worst_h12:.2e} (tol {TOL_H12_ANALYTIC:g})",
    )


@pytest.mark.slow
def test_criterion_2_hyperplane_corollary(minimal_reports, quasi_reports):
    minimal_ranks = [r.stats["affine_rank"] for r in minimal_reports]
    worst_residual = max(r.stats["affine_rank_residual"] for r in minimal_reports)
    quasi_ranks = [r.stats["affine_rank"] for r in quasi_reports]
    ok = (
        all(rank == 3 for rank in minimal_ranks)
        and worst_residual <= TOL_RANK_RESIDUAL
        and any(rank == 4 for rank in quasi_ranks)
    )
    _criterion(
        2,
        "hyperplane corollary",
        ok,
        f"minimal ranks all 3 (residual {worst_residual:.2e}), "
        f"quasi ranks include 4: {sorted(set(quasi_ranks))}",
    )


@pytest.mark.slow
def test_criterion_3_quasi_minimal_certification(quasi_reports):
    worst_dev = max(r.stats["max_norm2_dev_fd"] for r in quasi_reports)
    weakest_H = min(r.stats["min_H_fd_inf"] for r in quasi_reports)
    ok = worst_dev <= TOL_NORM2_QUASI and weakest_H >= MIN_H_FLOOR
    _criterion(
        3,
        "quasi-minimal certification",
        ok,
        f"{len(quasi_reports)} draws: |<H,H>| <= {worst_dev:.2e} "
        f"(tol {TOL_NORM2_QUASI:g}), min ||H_fd|| {weakest_H:.2e} (floor {MIN_H_FLOOR:g})",
    )


@pytest.mark.slow
def test_criterion_4_cmc_certification():
    worst_dev = 0.0
    n = 0
    for i, theorem in enumerate(CMC_THEOREMS):
        for j, c in enumerate(CMC_TARGETS):
            rng = np.random.default_rng(3000 + 10 * i + j)
            for _ in range(N_CMC_DRAWS):
                report = verify_case(sample_case(theorem, rng, c=c))
                worst_dev = max(worst_dev, report.stats["max_norm2_dev_fd"])
                n += 1
    ok = worst_dev <= TOL_NORM2_CMC
    _criterion(
        4,
        "CMC certification",
        ok,
        f"{n} draws over c in {CMC_TARGETS}: max |<H,H> - c| {worst_dev:.2e} "
        f"(tol {TOL_NORM2_CMC:g})",
    )


def test_criterion_5_reduction_identities():
    """The substitution z(t) and the reduced linear ODE hold pointwise.

    z' is taken by central differences of the closed-form z, so the check is
    independent of the stored derivative formulas.  The rhs of the linear ODE
    is +-a/t for the quasi-minimal reduction and +-sqrt(a^2 + 4 eps c t^2)/t
    for the CMC analogue; the +- is the branch sign (negated once for the
    second family, whose substitution reverses orientation).
    """
    cases = [
        (GoverningLaw.QUASI_MINIMAL, MeridianFamily.FIRST_TIMELIKE,
         ProfileParams(a=1.2, c=1.0)),
        (GoverningLaw.QUASI_MINIMAL, MeridianFamily.FIRST_SPACELIKE,
         ProfileParams(a=1.0, c=0.5)),
        (GoverningLaw.QUASI_MINIMAL, MeridianFamily.SECOND,
         ProfileParams(a=0.6, c=2.0)),
        (GoverningLaw.CMC, MeridianFamily.FIRST_TIMELIKE,
         ProfileParams(a=2.0, b=0.5, c=1.0)),
        (GoverningLaw.CMC, MeridianFamily.FIRST_TIMELIKE,
         ProfileParams(a=3.0, b=1.0, c=-0.5)),
        (GoverningLaw.CMC, MeridianFamily.FIRST_SPACELIKE,
         ProfileParams(a=3.0, b=0.5, c=0.5)),
        (GoverningLaw.CMC, MeridianFamily.FIRST_SPACELIKE,
         ProfileParams(a=2.0, b=0.5, c=-1.0)),
        (GoverningLaw.CMC, MeridianFamily.SECOND,
         ProfileParams(a=1.5, b=-0.5, c=0.5, branch=BranchSigns(rhs=-1))),
        (GoverningLaw.CMC, MeridianFamily.SECOND,
         ProfileParams(a=1.0, b=2.0, c=-1.0)),
    ]
    rng = np.random.default_rng(55)
    worst_sub = worst_ode = 0.0
    for law, family, params in cases:
        phi = phi_closed_form(law, family, params, (1e-3, 12.0))
        assert phi.domain, f"no admissible domain for {family.value} {law.value}"
        lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
        pad = 0.02 * (hi - lo)
        ts = rng.uniform(lo + pad, hi - pad, N_REDUCTION_SAMPLES)
        z = phi.z_exact(ts)
        p = np.asarray(phi(ts))
        worst_sub = max(worst_sub, float(np.max(np.abs(family.z2_from_phi2(p * p) - z * z))))
        h = 1e-6 * np.maximum(1.0, np.abs(ts))
        zp_fd = (phi.z_exact(ts + h) - phi.z_exact(ts - h)) / (2.0 * h)
        if law is GoverningLaw.QUASI_MINIMAL:
            w = np.full_like(ts, params.a)
        else:
            w = np.sqrt(params.a**2 + 4.0 * family.cmc_inner_sign * params.c * ts * ts)
        sign = -params.branch.rhs if family is MeridianFamily.SECOND else params.branch.rhs
        worst_ode = max(worst_ode, float(np.max(np.abs(zp_fd + z / ts - sign * w / ts))))
    ok = worst_sub <= TOL_REDUCTION and worst_ode <= TOL_REDUCTION
    _criterion(
        5,
        "reduction identities",
        ok,
        f"{len(cases)} phi functions x {N_REDUCTION_SAMPLES} samples: substitution "
        f"{worst_sub:.2e}, linear ODE {worst_ode:.2e} (tol {TOL_REDUCTION:g})",
    )


def _generic_surface(family):
    recipes = {
        MeridianFamily.FIRST_TIMELIKE: (ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), 0.4),
        MeridianFamily.FIRST_SPACELIKE: (ProfileParams(a=1.5, b=1.0), (0.0, 1.0), 0.3),
        MeridianFamily.SECOND: (ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), 0.5),
    }
    params, u_span, kappa = recipes[family]
    cf = family.curve_family
    curve = FrameField(cf, kappa, standard_initial_frame(cf), (0.0, 1.2))
    profile = minimal_profile(family, params, u_span, step=(u_span[1] - u_span[0]) / 1600)
    return MeridianSurface(family, curve, profile)


def test_criterion_6_frame_equations():
    worst_frame = worst_mixed = 0.0
    rng = np.random.default_rng(66)
    for family in MeridianFamily:
        surface = _generic_surface(family)
        (u0, u1), (v0, v1) = surface.u_span, surface.v_span
        mu, mv = 0.05 * (u1 - u0), 0.05 * (v1 - v0)
        us = rng.uniform(u0 + mu, u1 - mu, N_FRAME_PROBES)
        vs = rng.uniform(v0 + mv, v1 - mv, N_FRAME_PROBES)
        for u, v in zip(us, vs):
            res = frame_equation_residuals(surface, u, v)
            worst_frame = max(worst_frame, max(res.values()))
            forms = fundamental_forms(fd_jet(surface.immersion, u, v))
            f_here = float(surface.profile_values(u)[0])
            worst_mixed = max(worst_mixed, float(np.max(np.abs(forms.h_uv_vec))) / f_here)
    ok = worst_frame <= TOL_FRAME and worst_mixed <= TOL_FRAME
    _criterion(
        6,
        "frame equations",
        ok,
        f"3 families x {N_FRAME_PROBES} probes: derivative-table residual "
        f"{worst_frame:.2e}, mixed h(X,Y) {worst_mixed:.2e} (tol {TOL_FRAME:g})",
    )


def test_criterion_7_congruence():
    anti_dev = 0.0
    for x in np.eye(4):
        for y in np.eye(4):
            anti_dev = max(
                anti_dev, abs(inner(transform_T(x), transform_T(y)) + inner(x, y))
            )
    worst_grid = 0.0
    for kind in TildeKind:
        source = _generic_surface(kind.source_family)
        til = tilde_surface(kind, source)
        (u0, u1), (v0, v1) = source.u_span, source.v_span
        us = np.linspace(u0, u1, 21)
        vs = np.linspace(v0, v1, 21)
        dev = np.max(
            np.abs(til.grid_points(us, vs) - til.chart_reference(us[:, None], vs[None, :]))
        )
        worst_grid = max(worst_grid, float(dev))
    ok = anti_dev == 0.0 and worst_grid <= TOL_TILDE_GRID
    _criterion(
        7,
        "congruence",
        ok,
        f"anti-isometry deviation {anti_dev:g} (exact), tilde grid match "
        f"{worst_grid:.2e} (tol {TOL_TILDE_GRID:g})",
    )


def test_criterion_8_oracle_convergence():
    ratios = {}
    for family in MeridianFamily:
        surface = _generic_surface(family)
        (u0, u1), (v0, v1) = surface.u_span, surface.v_span
        u_mid, v_mid = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
        H_analytic = surface.mean_curvature(u_mid, v_mid).vector
        errs = []
        for h in (4e-3, 2e-3):
            H_fd, _ = mean_curvature_fd(surface.immersion, u_mid, v_mid, h)
            errs.append(float(np.max(np.abs(H_fd - H_analytic))))
        ratios[family.value] = errs[0] / errs[1]
    ok = all(r >= MIN_CONV_RATIO for r in ratios.values())
    detail = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    _criterion(8, "oracle convergence", ok, f"halving gains: {detail} (need {MIN_CONV_RATIO}x)")


def test_criterion_9_negative_controls():
    # control 1: f = u + 2 is not minimal; the governing residual must say so
    linear = verify_case(CaseSpec(Theorem.NEGATIVE_CONTROL))
    gov = linear.stats["max_governing_residual"]
    ok1 = linear.status == "fail" and gov > MIN_CONTROL_GOVERNING

    # control 2: inflate the directrix curvature a quasi-minimal case needs
    mismatched = verify_case(
        CaseSpec(
            Theorem.QUASI_A,
            ProfileParams(a=1.2, c=1.0),
            f0=2.0,
            u_span=(0.0, 0.8),
            curve_kappa=1.2 + 0.5,
        )
    )
    dev = mismatched.stats["max_norm2_dev_fd"]
    ok2 = mismatched.status == "fail" and dev >= MIN_CONTROL_NORM2
    _criterion(
        9,
        "negative controls",
        ok1 and ok2,
        f"linear-profile control residual {gov:.2f} (> {MIN_CONTROL_GOVERNING}), "
        f"curvature-mismatch control |<H,H>| {dev:.2e} (>= {MIN_CONTROL_NORM2:g})",
    )
