"""Tests for surface assembly, analytic curvature, and the congruence transform."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from meridian4 import (
    SIG4,
    BranchSigns,
    DomainError,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    TRANSFORM_T,
    TildeKind,
    frame_equation_residuals,
    gram_matrix,
    inner,
    mean_curvature_fd,
    minimal_profile,
    profile_from_callable,
    standard_initial_frame,
    tilde_surface,
    transform_T,
)
from meridian4.harness import CaseSpec, Theorem, _build_case, _congruence_sources, _suite_cases

FT = MeridianFamily.FIRST_TIMELIKE
FS = MeridianFamily.FIRST_SPACELIKE
SECOND = MeridianFamily.SECOND


def _curve(family, kappa, v_span=(0.0, 1.2)):
    cf = family.curve_family
    return FrameField(cf, kappa, standard_initial_frame(cf), v_span)


def _minimal_surface(family, params, u_span, kappa=0.0):
    profile = minimal_profile(family, params, u_span, step=(u_span[1] - u_span[0]) / 1200)
    return MeridianSurface(family, _curve(family, kappa), profile)


@pytest.fixture(scope="module")
def cylinder_surface():
    """First-timelike surface with constant warp f = 2 and kappa = 0.7.

    Hand computation: g' = 1, D = f f'' + f'^2 + 1 = 1, so
    h1 = -kappa/(2f) = -0.175 and h2 = -D/(2 f g') = -0.25 at every point.
    """
    profile = profile_from_callable(
        FT,
        f=lambda u: np.full_like(u, 2.0),
        fp=lambda u: np.zeros_like(u),
        fpp=lambda u: np.zeros_like(u),
        u_span=(0.0, 2.0),
        step=2.5e-3,
    )
    return MeridianSurface(FT, _curve(FT, 0.7, (0.0, 1.5)), profile)


# ---------------------------------------------------------------------------
# the profile's exact evaluation
# ---------------------------------------------------------------------------


def _reference_points(prof, rng):
    """Random points, every knot, the closed right end and the 1e-12 slack window."""
    u0, u1 = prof.u_span
    slack = 1e-12 * max(1.0, abs(u0), abs(u1))
    return np.concatenate([
        rng.uniform(u0, u1, 2000),
        prof.us,
        [u1, np.nextafter(u1, -np.inf), np.nextafter(u0, np.inf)],
        u0 - slack * rng.uniform(0.0, 1.0, 20),
        u1 + slack * rng.uniform(0.0, 1.0, 20),
    ])


def _callable_profile(step, family=FT):
    return profile_from_callable(
        family,
        f=lambda u: 2.0 + np.sin(u),
        fp=np.cos,
        fpp=lambda u: -np.sin(u),
        u_span=(0.1, 0.4),
        step=step,
        params=ProfileParams(c0=0.3),
    )


@pytest.fixture(scope="module")
def evaluated():
    """One surface of each profile construction, and a truncated one, by name."""
    reduced = [s for s in _suite_cases() if s.theorem in (Theorem.QUASI_B, Theorem.CMC_C)]
    # the second-family branch of domain [4/3, 4] ends where z, and so g', reaches 0
    truncated = CaseSpec(Theorem.QUASI_C, ProfileParams(a=0.5, c=2.0, c0=0.25,
                                                        branch=BranchSigns(g=-1)),
                         f0=2.0, u_span=(0.0, 5.0))
    return {
        "minimal": _minimal_surface(FS, ProfileParams(a=1.5, b=1.0), (0.2, 1.0), kappa=0.4),
        **{spec.theorem.value: _build_case(spec)[0] for spec in reduced},
        "truncated": _build_case(truncated)[0],
        "callable": MeridianSurface(FT, _curve(FT, 0.3), _callable_profile(0.3 / 36)),
    }


def test_the_truncated_case_is_truncated(evaluated):
    assert evaluated["truncated"].profile.truncation_reason == "phi-inadmissible"
    assert not any(evaluated[k].profile.truncated for k in evaluated if k != "truncated")


@pytest.mark.parametrize("name", ["minimal", "quasi-b", "cmc-c", "truncated", "callable"])
def test_profile_values_at_the_nodes_are_the_node_arrays(evaluated, name):
    """For every construction the surface reads the profile's evaluator: its
    values at the nodes are the evaluator's node arrays bit for bit."""
    surface = evaluated[name]
    prof = surface.profile
    nodes = prof.evaluate(prof.us)
    for k, (got, node) in enumerate(zip(surface.profile_values(prof.us), nodes)):
        assert got.shape == node.shape
        assert np.array_equal(got, node), k


@pytest.mark.parametrize("family,params,u_span", [
    (FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5)),
    (FS, ProfileParams(a=1.5, b=1.0, c0=0.2), (0.2, 1.0)),
    (SECOND, ProfileParams(a=0.3, b=1.0, branch=BranchSigns(g=-1)), (-0.5, 0.5)),
])
def test_minimal_profile_values_are_the_closed_forms(family, params, u_span):
    """Off the nodes too, f, f', f'', g and g' are the closed forms of
    minimal_profile, which sampled at the nodes give its arrays: f^2 is the
    quadratic, the profile has unit speed and solves f f'' + f'^2 + beta = 0,
    and g' is the derivative of g, to roundoff."""
    surface = _minimal_surface(family, params, u_span, kappa=0.4)
    u = _reference_points(surface.profile, np.random.default_rng(5))
    f, fp, fpp, g, gp = surface.profile_values(u)
    eps = np.finfo(float).eps
    a, b = params.a, params.b
    assert np.max(np.abs(f * f - (-family.beta * u * u + 2.0 * a * u + b))) <= 8 * eps
    assert np.max(np.abs(family.speed_residual(fp, gp))) <= 16 * eps
    assert np.max(np.abs(family.governing_core(f, fp, fpp))) <= 16 * eps
    g0 = surface.profile_values(u_span[0])[3]
    for x in u[:4]:
        gain = quad(lambda t: surface.profile_values(t)[4], u_span[0], x, epsabs=1e-15)[0]
        assert abs(gain - (surface.profile_values(x)[3] - g0)) <= 1e-14
    # a grid line's shape and a single point take the same path
    for at in (u[:60].reshape(5, 1, 12), u[7]):
        for got, ref in zip(surface.profile_values(at), surface.profile_values(np.ravel(at))):
            assert np.shape(got) == np.shape(at) and np.array_equal(np.ravel(got), ref)


# ids: the node counts of the steps over the window (0.1, 0.4)
@pytest.mark.parametrize("step", [0.15, 0.1, 0.075, 0.3 / 36], ids=["3", "4", "5", "37"])
def test_callable_profile_values_are_its_callables(step):
    """f, f' and f'' are the user's callables bit for bit at any u, g' the
    unit-speed rule of f', and g the integral of g' from c0 to 1e-14."""
    profile = _callable_profile(step)
    surface = MeridianSurface(FT, _curve(FT, 0.3), profile)
    u = _reference_points(profile, np.random.default_rng(len(profile.us)))
    f, fp, fpp, g, gp = surface.profile_values(u)
    assert np.array_equal(f, 2.0 + np.sin(u))
    assert np.array_equal(fp, np.cos(u))
    assert np.array_equal(fpp, -np.sin(u))
    assert np.array_equal(gp, np.sqrt(FT.gprime_radicand(np.cos(u))))

    def integral(x):
        return quad(lambda t: np.sqrt(FT.gprime_radicand(np.cos(t))), 0.1, x,
                    epsabs=1e-14, epsrel=1e-14)[0]

    pick = np.random.default_rng(1).choice(len(u), 40, replace=False)
    ref = 0.3 + np.array([integral(x) for x in u[pick]])
    np.testing.assert_allclose(g[pick], ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(profile.evaluate(profile.us)[3],
                               0.3 + np.array([integral(x) for x in profile.us]),
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# assembly and evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,params,u_span",
    [
        (FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5)),
        (FS, ProfileParams(a=1.5, b=1.0), (0.2, 1.0)),
        (SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5)),
    ],
)
@pytest.mark.parametrize("step", [1e-3, 0.1])
def test_directrix_factors_are_the_exact_flow_off_the_nodes(family, params, u_span, step):
    """frames and immersion read l, t and n from the exact flow exp(v B) S0 at
    any v, so they agree with scipy's expm on a grid of spacing ``step`` and
    between its nodes."""
    kappa, cf = 0.8, family.curve_family
    profile = minimal_profile(family, params, u_span, step=(u_span[1] - u_span[0]) / 1200)
    surface = MeridianSurface(family, _curve(family, kappa, (0.0, 1.2)), profile)
    rng = np.random.default_rng(11)
    v = np.concatenate([np.linspace(0.0, 1.2, round(1.2 / step) + 1), rng.uniform(0.0, 1.2, 200)])
    u = rng.uniform(*u_span, v.size)
    ltn = expm(v[:, None, None] * cf.frenet_matrix(kappa)) @ standard_initial_frame(cf)
    _, Y, n1, _ = surface.frames(u, v)
    f, _, _, g, _ = surface.profile_values(u)
    z = surface.immersion(u, v)
    assert np.max(np.abs(Y[:, :3] - ltn[:, 1])) <= 1e-14
    assert np.max(np.abs(n1[:, :3] - ltn[:, 2])) <= 1e-14
    assert np.max(np.abs(z[:, :3] - f[:, None] * ltn[:, 0])) <= 1e-14
    assert np.array_equal(z[:, 3], g) and not Y[:, 3].any() and not n1[:, 3].any()


def test_directrix_factors_do_not_depend_on_the_curve_step():
    """A case's step sets its profile nodes only: the directrix is the same flow."""
    spec = CaseSpec(Theorem.CMC_A, ProfileParams(a=1.2, c=1.0), f0=1.5)
    coarse, fine = (_build_case(replace(spec, step=step))[0] for step in (0.1, 1e-3))
    vs = np.linspace(*coarse.v_span, 23)
    assert coarse.v_span == fine.v_span
    assert np.array_equal(coarse.curve.frame_at(vs), fine.curve.frame_at(vs))
    assert len(coarse.profile.us) < len(fine.profile.us)


def test_assemble_rejects_family_mismatch():
    profile = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), step=1e-2)
    with pytest.raises(ValueError, match="cannot assemble"):
        MeridianSurface(SECOND, _curve(SECOND, 0.0), profile)


def test_assemble_rejects_wrong_curve_type():
    profile = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), step=1e-2)
    with pytest.raises(ValueError, match="directrix"):
        MeridianSurface(FT, _curve(FS, 0.0), profile)


def test_immersion_matches_definition_at_nodes():
    surface = _minimal_surface(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5))
    prof, curve = surface.profile, surface.curve
    i, v = 300, 0.5
    z = surface.immersion(prof.us[i], v)
    f, _, _, g, _ = prof.evaluate(prof.us)
    expected = np.zeros(4)
    expected[:3] = f[i] * curve.frame_at(v)[0]
    expected[3] = g[i]
    np.testing.assert_allclose(z, expected, atol=1e-12)


def test_grid_points_shape_and_domain_check():
    surface = _minimal_surface(SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5))
    us = np.linspace(-0.4, 0.4, 7)
    vs = np.linspace(0.1, 1.0, 5)
    pts = surface.grid_points(us, vs)
    assert pts.shape == (7, 5, 4)
    with pytest.raises(DomainError, match="out of profile domain"):
        surface.immersion(0.9, 0.5)
    with pytest.raises(DomainError, match="out of directrix domain"):
        surface.immersion(0.0, 5.0)
    for u in (0.9, np.nan):
        with pytest.raises(DomainError, match="out of profile domain"):
            surface.profile_values(u)


def test_product_grid_evaluation_equals_broadcast_evaluation(evaluated):
    """u-factors on u and v-factors on v give the broadcast values bit for bit,
    for a minimal, a quasi-minimal, a CMC and a truncated profile: the
    inversion of the first integral gives each point the same bits whatever
    points it is asked for with."""
    surfaces = [_minimal_surface(FS, ProfileParams(a=1.5, b=1.0), (0.3, 1.2), kappa=0.4),
                *(evaluated[k] for k in ("quasi-b", "cmc-c", "truncated"))]
    for surface in surfaces:
        (u0, u1), (v0, v1) = surface.u_span, surface.v_span
        us = np.linspace(u0 + 0.05, u1 - 0.05, 9)
        vs = np.linspace(v0 + 0.05, v1 - 0.05, 6)
        grid = (us[:, None], vs[None, :])
        full = tuple(x.copy() for x in np.broadcast_arrays(*grid))
        assert np.array_equal(surface.immersion(*grid), surface.immersion(*full))
        assert surface.immersion(*grid).shape == (9, 6, 4)
        for got, ref in zip(surface.frames(*grid), surface.frames(*full)):
            assert got.shape == (9, 6, 4) and np.array_equal(got, ref)
        mc, mc_full = surface.mean_curvature(*grid), surface.mean_curvature(*full)
        for name in ("h1", "h2", "vector", "norm2"):
            got, ref = getattr(mc, name), getattr(mc_full, name)
            assert got.shape == ref.shape and np.array_equal(got, ref), name
        # and each point alone, and the points in reverse order
        values = surface.profile_values(us)
        for k in (0, 4, 8):
            assert all(np.array_equal(x[k], y) for x, y in zip(values, surface.profile_values(us[k])))
        for x, y in zip(values, surface.profile_values(us[::-1])):
            assert np.array_equal(x, y[::-1])


def test_a_point_has_the_same_bits_at_any_shape():
    """Every suite profile and directrix at 601 points: a point asked alone
    (0-d) gets the bits it gets inside an array."""
    congruence = CaseSpec(Theorem.CONGRUENCE_TILDE)
    surfaces = [_build_case(s)[0] for s in _suite_cases() if s.theorem is not congruence.theorem]
    for surface in surfaces + list(_congruence_sources(congruence).values()):
        us, vs = np.linspace(*surface.u_span, 601), np.linspace(*surface.v_span, 601)
        values, frames = surface.profile.evaluate(us), surface.curve.frame_at(vs)
        for k in range(601):
            alone = surface.profile.evaluate(us[k])
            assert all(x.shape == () and np.array_equal(x, y[k]) for x, y in zip(alone, values)), k
            assert np.array_equal(surface.curve.frame_at(vs[k]), frames[k]), k


def test_a_table_serves_its_own_points_and_nothing_else():
    """A query whose points are all in the table is served from it, with the
    bits of direct evaluation; a query with a point missing from it is
    evaluated directly; a point outside the window leaves no table, so the
    query raises as it would without one."""
    spec = next(s for s in _suite_cases() if s.theorem is Theorem.QUASI_B)
    direct, surface = _build_case(spec)[0], _build_case(spec)[0]
    (u0, u1), (v0, v1) = surface.u_span, surface.v_span
    grid = np.linspace(u0, u1, 7)[:, None], np.linspace(v0, v1, 5)[None, :]
    surface._tabulate([grid])
    calls = []
    for owner, name in ((surface.profile, "evaluate"), (surface.curve, "frame_at")):
        def counting(x, method=getattr(owner, name), name=name):
            calls.append(name)
            return method(x)
        setattr(owner, name, counting)
    assert np.array_equal(surface.immersion(*grid), direct.immersion(*grid))
    for got, ref in zip(surface.frames(*grid), direct.frames(*grid)):
        assert np.array_equal(got, ref)
    assert calls == []
    off = np.append(grid[0], u0 + 0.37 * (u1 - u0))[:, None], grid[1]
    assert np.array_equal(surface.immersion(*off), direct.immersion(*off))
    assert calls == ["evaluate"]

    outside = _build_case(spec)[0]
    outside._tabulate([(np.array([u0, u1 + 0.1]), np.array([v0]))])
    assert outside._u_table is None and outside._v_table is None
    with pytest.raises(DomainError, match="out of profile domain"):
        outside.immersion(u1 + 0.1, v0)


def test_empty_broadcast_skips_the_domain_check():
    surface = _minimal_surface(SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5))
    u, v = np.array([[9.0], [-9.0]]), np.empty((1, 0))
    assert surface.immersion(u, v).shape == (2, 0, 4)
    assert all(x.shape == (2, 0, 4) for x in surface.frames(u, v))
    assert surface.mean_curvature(u, v).vector.shape == (2, 0, 4)
    with pytest.raises(DomainError, match="out of profile domain"):
        surface.immersion(u, np.zeros((1, 1)))


def test_frames_are_pseudo_orthonormal():
    surface = _minimal_surface(FS, ProfileParams(a=1.5, b=1.0), (0.3, 1.2), kappa=0.4)
    rng = np.random.default_rng(7)
    us = rng.uniform(0.35, 1.15, 12)
    vs = rng.uniform(0.05, 1.15, 12)
    expected = np.diag(np.asarray(surface.family.frame_signs, dtype=float))
    for u, v in zip(us, vs):
        X, Y, n1, n2 = surface.frames(u, v)
        frame = np.stack([X, Y, n1, n2])
        np.testing.assert_allclose(gram_matrix(frame, SIG4), expected, atol=1e-9)


def _direct_frames_and_curvature(surface, u, v):
    """(X, Y, n1, n2) and (h1, h2, H, <H,H>) written out from the profile
    interpolants and the directrix rows, each factor evaluated separately."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    f, fp, fpp, _, gp = surface.profile_values(u)
    l, t, n = np.moveaxis(surface.curve.frame_at(v), -2, 0)

    def lift(a, x, b):
        out = np.empty(shape + (4,))
        out[..., :3] = np.asarray(a)[..., None] * x
        out[..., 3] = b
        return out

    family = surface.family
    frames = (lift(fp, l, gp), lift(1.0, t, 0.0), lift(1.0, n, 0.0), lift(-family.alpha * gp, l, fp))
    h1, h2 = family.h_coefficients(surface.curve.kappa, np.broadcast_to(f, shape), fp, fpp, gp)
    vector = h1[..., None] * frames[2] + h2[..., None] * frames[3]
    s1, s2 = family.frame_signs[2:]
    return frames, (h1, h2, vector, s1 * h1 * h1 + s2 * h2 * h2)


@pytest.mark.parametrize("spec", [
    CaseSpec(Theorem.CMC_A, ProfileParams(a=2.0, b=0.5, c=0.5), f0=1.0),
    *(spec for spec in _suite_cases() if spec.theorem in (Theorem.QUASI_B, Theorem.CMC_C)),
], ids=lambda spec: spec.theorem.value)
def test_frames_and_mean_curvature_equal_the_direct_formulas(spec):
    """frames and mean_curvature share the normal frame and stay bit for bit."""
    surface = _build_case(spec)[0]
    (u0, u1), (v0, v1) = surface.u_span, surface.v_span
    us, vs = np.linspace(u0, u1, 41), np.linspace(v0, v1, 41)
    rng = np.random.default_rng(7)
    points = (rng.uniform(u0, u1, 50), rng.uniform(v0, v1, 50))
    for u, v in ((us[:, None], vs[None, :]), points, (us[3], vs[5])):
        frames, curvature = _direct_frames_and_curvature(surface, u, v)
        mc = surface.mean_curvature(u, v)
        for got, want in zip((*surface.frames(u, v), mc.h1, mc.h2, mc.vector, mc.norm2),
                             (*frames, *curvature)):
            assert np.array_equal(got, want)


def test_cylinder_mean_curvature_frozen(cylinder_surface):
    mc = cylinder_surface.mean_curvature(np.array([0.5, 1.3]), np.array([0.4, 0.9]))
    np.testing.assert_allclose(mc.h1, -0.175, atol=1e-12)
    np.testing.assert_allclose(mc.h2, -0.25, atol=1e-12)
    # <H, H> = -h1^2 + h2^2 for the first-timelike normal signs
    np.testing.assert_allclose(mc.norm2, 0.031875, atol=1e-12)
    # vector = h1 n1 + h2 n2 reproduces <H,H> under the ambient metric
    np.testing.assert_allclose(
        inner(mc.vector, mc.vector), mc.norm2, atol=1e-12
    )


def test_cylinder_analytic_agrees_with_fd(cylinder_surface):
    _, n2fd = mean_curvature_fd(cylinder_surface.immersion, 1.0, 0.7)
    assert abs(n2fd - 0.031875) < 1e-6


def test_frame_equations_hold_on_generic_surface():
    surface = _minimal_surface(SECOND, ProfileParams(a=0.1, b=1.2), (-0.4, 0.5), kappa=0.6)
    res = frame_equation_residuals(surface, 0.05, 0.6)
    assert max(res.values()) < 1e-5
    assert set(res) == {
        "du_X", "du_Y", "du_n1", "du_n2", "dv_X", "dv_Y", "dv_n1", "dv_n2",
    }


def test_mean_curvature_guards_degenerate_radicand():
    # f' crosses 1 for the spacelike meridian when the window touches the
    # radicand zero of g'^2 = f'^2 - 1
    profile = profile_from_callable(
        FS,
        f=lambda u: 0.5 * u * u + u + 2.0,
        fp=lambda u: u + 1.0,
        fpp=lambda u: np.ones_like(u),
        u_span=(0.0, 1.0),
        step=2.5e-3,
    )
    surface = MeridianSurface(FS, _curve(FS, 0.0), profile)
    with pytest.raises(DomainError, match="radicand"):
        surface.mean_curvature(np.array([0.0, 0.5]), np.array([0.3, 0.3]))


# ---------------------------------------------------------------------------
# the congruence transform
# ---------------------------------------------------------------------------


def test_transform_order_four():
    np.testing.assert_array_equal(np.linalg.matrix_power(TRANSFORM_T, 4), np.eye(4))


def test_transform_is_exact_anti_isometry_on_basis():
    for x in np.eye(4):
        for y in np.eye(4):
            assert inner(transform_T(x), transform_T(y)) == -inner(x, y)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transform_anti_isometry_random_vectors(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, 4)
    y = rng.uniform(-3.0, 3.0, 4)
    lhs = inner(transform_T(x), transform_T(y))
    rhs = -inner(x, y)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_transform_requires_4_vectors():
    with pytest.raises(ValueError, match="4-vectors"):
        transform_T(np.zeros(3))


def test_tilde_kind_pairing_enforced():
    source = _minimal_surface(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), kappa=0.4)
    with pytest.raises(ValueError, match="image of"):
        tilde_surface(TildeKind.PRIME, source)


@pytest.mark.parametrize(
    "kind,family,params,u_span,kappa",
    [
        (TildeKind.PRIME, SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), 0.5),
        (TildeKind.DOUBLE_A, FS, ProfileParams(a=1.5, b=1.0), (0.2, 1.0), 0.3),
        (TildeKind.DOUBLE_B, FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), 0.4),
    ],
)
def test_tilde_grid_matches_chart_parametrization(kind, family, params, u_span, kappa):
    source = _minimal_surface(family, params, u_span, kappa=kappa)
    til = tilde_surface(kind, source)
    us = np.linspace(u_span[0] + 0.05, u_span[1] - 0.05, 9)
    vs = np.linspace(0.05, 1.1, 9)
    direct = til.grid_points(us, vs)
    via_chart = til.chart_reference(us[:, None], vs[None, :])
    assert np.max(np.abs(direct - via_chart)) < 1e-10
    # evaluated per grid line, with the bits of the broadcast evaluation
    full = tuple(x.copy() for x in np.broadcast_arrays(us[:, None], vs[None, :]))
    assert np.array_equal(via_chart, til.chart_reference(*full))
    # and the transform itself is the pointwise definition
    np.testing.assert_array_equal(direct, transform_T(source.grid_points(us, vs)))


def test_tilde_norm2_flips_sign():
    source = _minimal_surface(FS, ProfileParams(a=1.5, b=1.0), (0.2, 1.0), kappa=0.3)
    til = tilde_surface(TildeKind.DOUBLE_A, source)
    for u, v in ((0.5, 0.4), (0.8, 0.9)):
        _, n2_src = mean_curvature_fd(source.immersion, u, v)
        _, n2_til = mean_curvature_fd(til.immersion, u, v)
        assert abs(n2_til + n2_src) < 1e-6
