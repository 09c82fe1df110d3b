"""Tests for the finite-difference oracle (jets, forms, rates, frame residuals)."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meridian4 import (
    DegeneracyError,
    DomainError,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    fd_jet4,
    frame_equation_residuals,
    fundamental_forms,
    inner,
    mean_curvature_fd,
    minimal_profile,
)
from meridian4 import oracle


def _quadratic(u, v):
    """Polynomial immersion whose jet the stencils reproduce exactly."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack([u * u, v * v, u * v, u + v], axis=-1)


def _quartic(u, v):
    """Polynomial immersion whose jet only the fourth-order stencil reproduces."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack([u**4, v**4, u**3 * v + u * v**3, u * u * v * v], axis=-1)


def _cylinder(u, v):
    """Lorentz cylinder: unit circle times a timelike line."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    return np.stack([np.cos(u), np.sin(u), v, np.zeros_like(u)], axis=-1)


def central_jet(immersion, u, v, h):
    """Independent second-order reference: 9-point central differences of
    ``immersion`` at (u, v) with step h, one immersion call per sample."""
    u, v, h = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, v, h)))
    hh = h[..., None]

    def z(du, dv):
        return np.asarray(immersion(u + du * h, v + dv * h), dtype=float)

    return oracle.Jet2(
        u=u, v=v, h=h, z=z(0, 0),
        zu=(z(1, 0) - z(-1, 0)) / (2.0 * hh),
        zv=(z(0, 1) - z(0, -1)) / (2.0 * hh),
        zuu=(z(1, 0) - 2.0 * z(0, 0) + z(-1, 0)) / hh**2,
        zuv=(z(1, 1) - z(1, -1) - z(-1, 1) + z(-1, -1)) / (4.0 * hh**2),
        zvv=(z(0, 1) - 2.0 * z(0, 0) + z(0, -1)) / hh**2,
    )


def test_jet_exact_on_quadratics():
    jet = fd_jet4(_quadratic, 0.7, -0.3, 1e-3)
    np.testing.assert_allclose(jet.zu, [1.4, 0.0, -0.3, 1.0], atol=1e-9)
    np.testing.assert_allclose(jet.zv, [0.0, -0.6, 0.7, 1.0], atol=1e-9)
    np.testing.assert_allclose(jet.zuu, [2.0, 0.0, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(jet.zvv, [0.0, 2.0, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(jet.zuv, [0.0, 0.0, 1.0, 0.0], atol=1e-6)


def test_jet_default_step_scales():
    jet = fd_jet4(_quadratic, 50.0, 0.0)
    assert jet.h == pytest.approx(50.0 * 1e-3)


def test_jet_rejects_bad_immersions():
    with pytest.raises(ValueError, match="expected \\(17, 4\\)"):
        fd_jet4(lambda u, v: np.zeros(3), 0.0, 0.0, 1e-3)
    with pytest.raises(DomainError, match="non-finite"):
        fd_jet4(lambda u, v: np.full((17, 4), np.nan), 0.0, 0.0, 1e-3)

    def raising(exc):
        def immersion(u, v):
            raise exc("outside the chart")

        return immersion

    with pytest.raises(DomainError, match="stencil evaluation failed for u in \\[0, 0\\]"):
        fd_jet4(raising(DomainError), 0.0, 0.0, 1e-3)
    # anything but a DomainError is a programming error and propagates as is
    with pytest.raises(RuntimeError, match="^outside the chart$"):
        fd_jet4(raising(RuntimeError), 0.0, 0.0, 1e-3)
    with pytest.raises(ValueError, match="positive"):
        fd_jet4(_quadratic, 0.0, 0.0, h=0.0)


def test_cylinder_forms_frozen():
    """E = 1, G = -1, F = 0; H = -(cos u, sin u, 0, 0)/2; <H,H> = 1/4."""
    u, v = 0.3, 0.5
    # at h = 1e-3 the h^4 truncation term (~1e-12) sits under the eps/h^2
    # roundoff floor of the second-derivative stencil (~1e-10)
    forms = fundamental_forms(fd_jet4(_cylinder, u, v, 1e-3))
    assert forms.E == pytest.approx(1.0, abs=1e-8)
    assert forms.F == pytest.approx(0.0, abs=1e-8)
    assert forms.G == pytest.approx(-1.0, abs=1e-8)
    np.testing.assert_allclose(
        forms.H, [-0.5 * np.cos(u), -0.5 * np.sin(u), 0.0, 0.0], atol=1e-7
    )
    assert forms.norm2H == pytest.approx(0.25, abs=1e-7)


def test_mean_curvature_fd_wrapper():
    H, n2 = mean_curvature_fd(_cylinder, 1.1, -0.4)
    assert n2 == pytest.approx(0.25, abs=1e-6)
    assert np.max(np.abs(H - np.array([-0.5 * np.cos(1.1), -0.5 * np.sin(1.1), 0.0, 0.0]))) < 1e-6


def test_degenerate_metric_detected():
    def lightlike_plane(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        # z_u = (1, 0, 1, 0) is null, and <z_u, z_v> = 0: EG - F^2 = 0
        return np.stack([u, v, u, np.zeros_like(u)], axis=-1)

    with pytest.raises(DegeneracyError, match="degenerate"):
        fundamental_forms(fd_jet4(lightlike_plane, 0.0, 0.0, 1e-3))


def test_second_form_vectors_are_normal():
    forms = fundamental_forms(fd_jet4(_cylinder, 0.9, 0.2, 1e-3))
    for vec in (forms.h_uu_vec, forms.h_uv_vec, forms.h_vv_vec):
        assert abs(inner(vec, forms.zu)) < 1e-9
        assert abs(inner(vec, forms.zv)) < 1e-9


def test_fd_truncation_is_fourth_order():
    """norm2H error on the cylinder shrinks ~16x when the step halves, and
    a second-order stencil's ~4x falls outside the window."""
    errs = []
    for h in (0.04, 0.02):
        _, n2 = mean_curvature_fd(_cylinder, 0.6, 0.1, h)
        errs.append(abs(n2 - 0.25))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0, ratio


def richardson_jet(fine, coarse):
    """Reference fourth-order jet (4 J(h) - J(2h)) / 3 from two second-order
    jets (:func:`central_jet`) of one immersion at the same points, with steps
    h and 2h."""
    same_points = np.array_equal(fine.u, coarse.u) and np.array_equal(fine.v, coarse.v)
    if not (same_points and np.array_equal(coarse.h, 2.0 * fine.h)):
        raise ValueError("richardson_jet needs jets at the same points with steps h and 2h")

    def extrapolate(name: str) -> np.ndarray:
        return (4.0 * getattr(fine, name) - getattr(coarse, name)) / 3.0

    return replace(fine, **{name: extrapolate(name) for name in ("zu", "zv", "zuu", "zuv", "zvv")})


def test_richardson_jet_is_fourth_order():
    """norm2H error on the cylinder shrinks ~16x when the step halves."""
    errs = [abs(fundamental_forms(fd_jet4(_cylinder, 0.6, 0.1, h)).norm2H - 0.25)
            for h in (0.04, 0.02, 0.01)]
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios >= 12.0), ratios  # measured 16.0


def test_richardson_jet_is_exact_on_quadratics():
    u, v = np.meshgrid(np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 2.0, 4), indexing="ij")
    fine, coarse = central_jet(_quadratic, u, v, 0.1), central_jet(_quadratic, u, v, 0.2)
    jet = richardson_jet(fine, coarse)
    assert jet.h is fine.h and jet.z is fine.z
    for name in ("zu", "zv", "zuu", "zuv", "zvv"):
        np.testing.assert_allclose(getattr(jet, name), getattr(fine, name), atol=1e-12)


def test_richardson_jet_needs_steps_h_and_2h_at_the_same_points():
    fine = central_jet(_cylinder, 0.6, 0.1, 1e-3)
    with pytest.raises(ValueError, match="steps h and 2h"):
        richardson_jet(fine, central_jet(_cylinder, 0.6, 0.1, 3e-3))
    with pytest.raises(ValueError, match="same points"):
        richardson_jet(fine, central_jet(_cylinder, 0.7, 0.1, 2e-3))


@pytest.fixture(scope="module")
def meridian_surface():
    """A second-family minimal surface over a directrix with kappa = 0.5."""
    family = MeridianFamily.SECOND
    curve = FrameField(family.curve_family, 0.5, (0.0, 1.2))
    profile = minimal_profile(family, ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), step=1e-3)
    return MeridianSurface(curve, profile)


# ---------------------------------------------------------------------------
# the 17-point fourth-order stencil
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["cylinder", "meridian"])
def test_fd_jet4_equals_the_richardson_reference(which, meridian_surface):
    immersion = _cylinder if which == "cylinder" else meridian_surface.immersion
    us, vs = np.linspace(-0.5, 0.5, 5)[:, None], np.linspace(0.1, 1.1, 7)[None, :]
    h = 1e-3
    jet = fd_jet4(immersion, us, vs, h)
    ref = richardson_jet(central_jet(immersion, us, vs, h),
                         central_jet(immersion, us, vs, 2.0 * h))
    for name in ("u", "v", "h", "z"):
        assert np.array_equal(getattr(jet, name), getattr(ref, name)), name
    # equal in exact arithmetic; the roundoff of a k-th derivative is ~eps / h^k
    for name, tol in (("zu", 1e-12), ("zv", 1e-12), ("zuu", 1e-9), ("zuv", 1e-9), ("zvv", 1e-9)):
        np.testing.assert_allclose(getattr(jet, name), getattr(ref, name), rtol=0, atol=tol)


def test_fd_jet4_is_exact_on_quartics():
    u, v, h = 0.7, -0.3, 0.1
    expected = {
        "zu": [4 * u**3, 0.0, 3 * u * u * v + v**3, 2 * u * v * v],
        "zv": [0.0, 4 * v**3, u**3 + 3 * u * v * v, 2 * u * u * v],
        "zuu": [12 * u * u, 0.0, 6 * u * v, 2 * v * v],
        "zuv": [0.0, 0.0, 3 * u * u + 3 * v * v, 4 * u * v],
        "zvv": [0.0, 12 * v * v, 6 * u * v, 2 * u * u],
    }
    jet4, jet2 = fd_jet4(_quartic, u, v, h), central_jet(_quartic, u, v, h)
    for name, value in expected.items():
        np.testing.assert_allclose(getattr(jet4, name), value, rtol=0, atol=1e-12)
    # the second-order stencil misses by ~h^2 times the fourth derivatives
    assert np.max(np.abs(jet2.zuu - expected["zuu"])) > 1e-2


def test_fd_jet4_makes_one_call_on_17_points():
    seen = []

    def recording(u, v):
        seen.append((u.shape, v.shape))
        return _cylinder(u, v)

    us, vs = np.linspace(-1.0, 2.0, 5), np.linspace(-0.5, 0.5, 7)
    jet = fd_jet4(recording, us[:, None], vs[None, :], 1e-3)
    assert seen == [((17, 5, 1), (17, 1, 7))]
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert getattr(jet, name).shape == (5, 7, 4), name
    assert fd_jet4(_cylinder, 50.0, 0.0).h == pytest.approx(50.0 * 1e-3)


def test_fd_jet4_rejects_bad_immersions():
    with pytest.raises(ValueError, match="expected \\(17, 4\\)"):
        fd_jet4(lambda u, v: np.zeros((9, 4)), 0.0, 0.0, 1e-3)
    with pytest.raises(DomainError, match="non-finite .* at \\(u=0, v=0\\)"):
        fd_jet4(lambda u, v: np.full((17, 4), np.inf), 0.0, 0.0, 1e-3)

    def outside(u, v):
        raise DomainError("outside the chart")

    with pytest.raises(DomainError, match="stencil evaluation failed for u in \\[0.5, 0.5\\]"):
        fd_jet4(outside, 0.5, 0.0, 1e-3)


# ---------------------------------------------------------------------------
# the batched path: arrays of points give exactly the per-point results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["cylinder", "meridian"])
def test_batched_oracle_equals_scalar_calls(which, meridian_surface):
    if which == "cylinder":
        immersion, us, vs = _cylinder, np.linspace(-1.0, 2.0, 5), np.linspace(-0.5, 0.5, 7)
    else:
        immersion = meridian_surface.immersion
        us, vs = np.linspace(-0.5, 0.5, 5), np.linspace(0.1, 1.1, 7)
    U, V = us[:, None], vs[None, :]
    jet = fd_jet4(immersion, U, V)
    form = fundamental_forms(jet)
    H, n2 = mean_curvature_fd(immersion, U, V)
    assert jet.zuv.shape == form.H.shape == H.shape == (5, 7, 4)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            jet1 = fd_jet4(immersion, u, v)
            forms1 = fundamental_forms(jet1)
            for name in ("h", "z", "zu", "zv", "zuu", "zuv", "zvv"):
                assert np.array_equal(getattr(jet, name)[i, j], getattr(jet1, name)), name
            for name in ("E", "F", "G", "h_uu_vec", "h_uv_vec", "h_vv_vec", "H", "norm2H"):
                assert np.array_equal(getattr(form, name)[i, j], getattr(forms1, name)), name
            H1, n21 = mean_curvature_fd(immersion, u, v)
            assert np.array_equal(H[i, j], H1) and n2[i, j] == n21


def test_batched_frame_residuals_are_pointwise_max(meridian_surface):
    rng = np.random.default_rng(3)
    pu = rng.uniform(-0.5, 0.5, 6)
    pv = rng.uniform(0.1, 1.1, 6)
    batched = frame_equation_residuals(meridian_surface, pu, pv)
    singles = [frame_equation_residuals(meridian_surface, u, v) for u, v in zip(pu, pv)]
    assert batched == {key: max(r[key] for r in singles) for key in batched}
    assert 0.0 < max(batched.values()) < 1e-5


def test_batched_jet_names_the_first_non_finite_point():
    def holed(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        hole = (np.abs(u - 0.5) < 1e-2) & (np.abs(v - 0.3) < 1e-2)
        return np.where(hole[..., None], np.nan, _cylinder(u, v))

    us = np.array([0.1, 0.5, 0.9])
    vs = np.array([0.0, 0.3, 0.6])
    with pytest.raises(DomainError, match="non-finite .* at \\(u=0.5, v=0.3\\)"):
        fd_jet4(holed, us[:, None], vs[None, :], 1e-3)


def test_batched_forms_name_the_first_point_where_the_first_form_overflows():
    def stretched(u, v):
        # z_u = (1e200, 0, 0, 0) for u > 0.75: E = 1e400, and so EG - F^2, overflow there
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return np.stack([np.where(u > 0.75, 1e200, 1.0) * u, v, u * v, np.zeros_like(u)], axis=-1)

    jet = fd_jet4(stretched, np.array([0.0, 0.5, 1.0, 0.2])[:, None], np.array([[0.0, 1.0]]))
    assert np.all(np.isfinite(jet.zu)) and np.all(np.isfinite(jet.z))
    with pytest.raises(DomainError, match="first fundamental form is not finite at "
                                          "\\(u=1, v=0\\): EG - F\\^2 = (-?inf|nan)"):
        fundamental_forms(jet)
    # and through the whole FD mean curvature of one such point
    with pytest.raises(DomainError, match="first fundamental form is not finite"):
        mean_curvature_fd(stretched, 1.0, 0.5)


def test_batched_forms_detect_one_degenerate_point():
    def tilted_plane(u, v):
        # z_u = (1, 0, u, 0): E = 1 - u^2, F = 0, G = 1, so EG - F^2 = 0 at u = 1
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return np.stack([u, v, 0.5 * u * u, np.zeros_like(u)], axis=-1)

    jet = fd_jet4(tilted_plane, np.array([0.0, 0.5, 1.0, 0.2])[:, None], np.array([[0.0, 1.0]]))
    with pytest.raises(DegeneracyError, match="degenerate at \\(u=1, v=0\\)"):
        fundamental_forms(jet)


# ---------------------------------------------------------------------------
# the stencil keeps (u, v, h) at their own shapes until the immersion broadcasts
# ---------------------------------------------------------------------------


def test_product_grid_stencil_keeps_the_input_shapes():
    seen = []

    def recording(u, v):
        seen.append((u.shape, v.shape))
        return _cylinder(u, v)

    us, vs = np.linspace(-1.0, 2.0, 5), np.linspace(-0.5, 0.5, 7)
    jet = fd_jet4(recording, us[:, None], vs[None, :], 1e-3)
    assert seen == [((17, 5, 1), (17, 1, 7))]
    for name in ("u", "v", "h"):
        assert getattr(jet, name).shape == (5, 7), name
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert getattr(jet, name).shape == (5, 7, 4), name
    # a rank-1 v is padded to the rank of u, not broadcast
    fd_jet4(recording, us[:, None], vs, 1e-3)
    assert seen[-1] == ((17, 5, 1), (17, 1, 7))


@pytest.mark.parametrize("h", [None, 1e-4])
def test_product_grid_jet_equals_the_broadcast_jet(h, meridian_surface):
    us, vs = np.linspace(-0.5, 0.5, 5), np.linspace(0.1, 1.1, 7)
    U, V = np.broadcast_arrays(us[:, None], vs[None, :])
    for immersion in (_cylinder, meridian_surface.immersion):
        jet = fd_jet4(immersion, us[:, None], vs[None, :], h)
        full = fd_jet4(immersion, U.copy(), V.copy(), h)
        for name in ("u", "v", "h", "z", "zu", "zv", "zuu", "zuv", "zvv"):
            assert np.array_equal(getattr(jet, name), getattr(full, name)), name


def test_jet_rejects_an_immersion_that_does_not_broadcast():
    us, vs = np.linspace(-1.0, 2.0, 5), np.linspace(-0.5, 0.5, 7)
    # stacking u-shaped columns ignores v's shape: (17, 5, 1, 4), not (17, 5, 7, 4)
    with pytest.raises(ValueError, match="expected \\(17, 5, 7, 4\\)"):
        fd_jet4(lambda u, v: np.stack([u, u, u, u], axis=-1), us[:, None], vs[None, :], 1e-3)


def _field(u, v):
    """A (2, 4)-valued field with closed-form rates: its values end in a
    4-axis, as a frame's do."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    rows = [np.sin(u) * np.cos(v), u * u * v, np.exp(0.5 * u - v), u**3,
            v**3, u * v, np.cos(u + 2.0 * v), u - v]
    return np.stack(rows, axis=-1).reshape(u.shape + (2, 4))


def _field_rates(u, v):
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    e, s, z, one = np.exp(0.5 * u - v), np.sin(u + 2.0 * v), np.zeros_like(u), np.ones_like(u)
    du = [np.cos(u) * np.cos(v), 2.0 * u * v, 0.5 * e, 3.0 * u * u, z, v, -s, one]
    dv = [-np.sin(u) * np.sin(v), u * u, -e, z, 3.0 * v * v, u, -2.0 * s, -one]
    return (np.stack(d, axis=-1).reshape(u.shape + (2, 4)) for d in (du, dv))


def test_fd_jet4_of_a_field_matches_its_closed_form_rates():
    us, vs = np.linspace(-1.5, 2.0, 6)[:, None], np.linspace(-0.7, 0.9, 5)[None, :]
    jet = fd_jet4(_field, us, vs)
    want_du, want_dv = _field_rates(us, vs)
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert getattr(jet, name).shape == (6, 5, 2, 4), name
    assert np.array_equal(jet.z, _field(us, vs))
    # fourth order: a second-order stencil at this step misses by ~1e-7
    np.testing.assert_allclose(jet.zu, want_du, rtol=0, atol=1e-9)
    np.testing.assert_allclose(jet.zv, want_dv, rtol=0, atol=1e-9)


def test_fd_jet4_of_a_field_makes_one_call_and_batches_pointwise():
    seen = []

    def recording(u, v):
        seen.append((u.shape, v.shape))
        return _field(u, v)

    pu, pv = np.array([-1.2, 0.3, 2.5]), np.array([0.4, -0.8, 0.1])
    batched = fd_jet4(recording, pu, pv)
    assert seen == [((17, 3), (17, 3))]
    for k, (u, v) in enumerate(zip(pu, pv)):
        single = fd_jet4(_field, u, v)
        for name in ("h", "z", "zu", "zv", "zuu", "zuv", "zvv"):
            assert np.array_equal(getattr(batched, name)[k], getattr(single, name)), name


def test_stencil_samples_add_no_u_or_v_to_the_stencil_axes():
    """The corners of the 17-point stencil reuse the u and the v of the
    +-u and +-v arms, so a table of the arms holds them."""
    u, v = oracle.stencil_points(np.array([0.3, -1.1]), np.array([0.7, 0.2]))
    assert u.shape == v.shape == (17, 2)
    for axis in (u, v):
        assert all(len(np.unique(row)) == 5 for row in axis.T)


def _field_failing_at(u0, v0, how):
    """_field, but non-finite at (or raising DomainError at) the sample (u0, v0)."""

    def field(u, v):
        hit = (u == u0) & (v == v0)
        if how == "raise" and np.any(hit):
            raise DomainError("outside the chart")
        values = _field(u, v)
        return np.where(hit[..., None, None], np.nan, values) if how == "nan" else values

    return field


@pytest.mark.parametrize("k", [2, 5, 13], ids=["arm", "corner", "far-corner"])
def test_fd_jet4_names_the_point_whose_field_stencil_is_not_finite(k):
    # the -u arm, the (+h, +h) corner or the (+2h, +2h) corner of the second point
    pu, pv = np.array([-1.2, 0.3, 2.5]), np.array([0.4, -0.8, 0.1])
    u, v = oracle.stencil_points(pu, pv)
    field = _field_failing_at(u[k, 1], v[k, 1], "nan")
    with pytest.raises(DomainError, match="field returned non-finite values inside the "
                                          "stencil at \\(u=0.3, v=-0.8\\), h=0.001"):
        fd_jet4(field, pu, pv)


def test_fd_jet4_names_the_point_whose_field_stencil_raises():
    u, v = oracle.stencil_points(0.3, -0.8)
    field = _field_failing_at(u[7], v[7], "raise")
    with pytest.raises(DomainError, match="stencil evaluation failed for u in \\[0.3, 0.3\\], "
                                          "v in \\[-0.8, -0.8\\] with h=0.001: outside the chart"):
        fd_jet4(field, 0.3, -0.8)


def test_fd_jet4_rejects_a_field_of_the_wrong_shape():
    # nine samples, as the 9-point second-order stencil would take
    with pytest.raises(ValueError, match="field returned shape \\(9, 2, 4\\), "
                                         "expected \\(17, 2, 4\\)"):
        fd_jet4(lambda u, v: np.zeros((9, 2, 4)), 0.0, 0.0)
    # values that do not end in a 4-axis are measured against points
    with pytest.raises(ValueError, match="field returned shape \\(17, 2, 3\\), "
                                         "expected \\(17, 4\\)"):
        fd_jet4(lambda u, v: np.zeros((17, 2, 3)), 0.0, 0.0)
    with pytest.raises(ValueError, match="field returned shape \\(2,\\), expected \\(17, 4\\)"):
        fd_jet4(lambda u, v: np.zeros(2), 0.0, 0.0)


@pytest.mark.parametrize("field", [_quadratic, _field], ids=["immersion", "field"])
@pytest.mark.parametrize("point", [(0.3, 0.4), (np.array([0.3]), np.array([0.4]))],
                         ids=["0-d", "1-element"])
def test_a_one_point_stencil_leaves_the_field_values_alone(field, point):
    """The kernel differences the samples out of place: a field that hands
    back an array it keeps finds it unchanged, and the jet equals that of a
    fresh array."""
    held = field(*oracle.stencil_points(*point))
    before = held.copy()
    got = fd_jet4(lambda u, v: held, *point)
    want = fd_jet4(field, *point)
    assert np.array_equal(held, before)
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# memory layout: the jet reads values, not strides
# ---------------------------------------------------------------------------

_LAYOUTS = {
    "C": lambda x: np.array(x, order="C"),
    "F": lambda x: np.array(x, order="F"),
    "planes": lambda x: np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("which", ["immersion", "frames"])
def test_fd_jet4_does_not_depend_on_the_fields_memory_order(which, layout, meridian_surface):
    """The same jet, bit for bit, whether the field hands back its own array
    (a surface's immersion writes coordinate planes) or a C-order, a
    Fortran-order or a planar copy of it."""
    if which == "immersion":
        field = meridian_surface.immersion
    else:
        def field(u, v):
            return np.stack(meridian_surface.frames(u, v), axis=-2)
    us, vs = np.linspace(-0.5, 0.5, 5)[:, None], np.linspace(0.1, 1.1, 7)[None, :]
    want = fd_jet4(field, us, vs, 1e-3)
    got = fd_jet4(lambda u, v: _LAYOUTS[layout](field(u, v)), us, vs, 1e-3)
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_a_surface_writes_each_coordinate_as_a_contiguous_plane(meridian_surface):
    """The immersion, the frame vectors and the grid points of a surface
    hold each coordinate of every sample in one C-contiguous plane, so the
    FD sweep differences planes."""
    us, vs = np.linspace(-0.5, 0.5, 5), np.linspace(0.1, 1.1, 7)
    samples = oracle.stencil_points(us[:, None], vs[None, :], 1e-3)
    arrays = [meridian_surface.immersion(*samples), *meridian_surface.frames(*samples),
              meridian_surface.grid_points(us, vs), meridian_surface.immersion(0.1, 0.2)]
    for x in arrays:
        for k in range(4):
            assert x[..., k].flags.c_contiguous


def test_the_oracle_imports_only_algebra_and_errors():
    """The referee knows nothing of meridian structure: it imports no
    family, curve, profile, surface or harness module."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert package == {"algebra", "errors"}
    assert absolute <= {"__future__", "dataclasses", "numpy"}
