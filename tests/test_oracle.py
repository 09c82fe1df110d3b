"""Tests for the finite-difference oracle (jets, forms, frame residuals)."""

from dataclasses import replace

import numpy as np
import pytest

from meridian4 import (
    DegeneracyError,
    DomainError,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    fd_jet,
    fd_jet4,
    frame_equation_residuals,
    fundamental_forms,
    inner,
    mean_curvature_fd,
    minimal_profile,
    standard_initial_frame,
)


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


def test_jet_exact_on_quadratics():
    jet = fd_jet(_quadratic, 0.7, -0.3, 1e-4)
    np.testing.assert_allclose(jet.zu, [1.4, 0.0, -0.3, 1.0], atol=1e-9)
    np.testing.assert_allclose(jet.zv, [0.0, -0.6, 0.7, 1.0], atol=1e-9)
    np.testing.assert_allclose(jet.zuu, [2.0, 0.0, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(jet.zvv, [0.0, 2.0, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(jet.zuv, [0.0, 0.0, 1.0, 0.0], atol=1e-6)


def test_jet_default_step_scales():
    jet = fd_jet(_quadratic, 50.0, 0.0)
    assert jet.h == pytest.approx(50.0 * 1e-4)


def test_jet_rejects_bad_immersions():
    with pytest.raises(ValueError, match="expected \\(9, 4\\)"):
        fd_jet(lambda u, v: np.zeros(3), 0.0, 0.0, 1e-4)
    with pytest.raises(DomainError, match="non-finite"):
        fd_jet(lambda u, v: np.full((9, 4), np.nan), 0.0, 0.0, 1e-4)

    def raising(exc):
        def immersion(u, v):
            raise exc("outside the chart")

        return immersion

    with pytest.raises(DomainError, match="stencil evaluation failed for u in \\[0, 0\\]"):
        fd_jet(raising(DomainError), 0.0, 0.0, 1e-4)
    # anything but a DomainError is a programming error and propagates as is
    with pytest.raises(RuntimeError, match="^outside the chart$"):
        fd_jet(raising(RuntimeError), 0.0, 0.0, 1e-4)
    with pytest.raises(ValueError, match="positive"):
        fd_jet(_quadratic, 0.0, 0.0, h=0.0)


def test_cylinder_forms_frozen():
    """E = 1, G = -1, F = 0; H = -(cos u, sin u, 0, 0)/2; <H,H> = 1/4."""
    u, v = 0.3, 0.5
    # h = 1e-4 balances the h^2 truncation term against the eps/h^2 roundoff
    # floor of the second-derivative stencil; both sit near 1e-8 here.
    forms = fundamental_forms(fd_jet(_cylinder, u, v, 1e-4))
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
        fundamental_forms(fd_jet(lightlike_plane, 0.0, 0.0, 1e-4))


def test_second_form_vectors_are_normal():
    forms = fundamental_forms(fd_jet(_cylinder, 0.9, 0.2, 1e-5))
    for vec in (forms.h_uu_vec, forms.h_uv_vec, forms.h_vv_vec):
        assert abs(inner(vec, forms.zu)) < 1e-9
        assert abs(inner(vec, forms.zv)) < 1e-9


def test_fd_truncation_is_second_order():
    """norm2H error on the cylinder shrinks ~4x when the step halves."""
    errs = []
    for h in (2e-3, 1e-3):
        _, n2 = mean_curvature_fd(_cylinder, 0.6, 0.1, h)
        errs.append(abs(n2 - 0.25))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def richardson_jet(fine, coarse):
    """Reference fourth-order jet (4 J(h) - J(2h)) / 3 from two second-order
    jets of one immersion at the same points, with steps h and 2h."""
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
    fine, coarse = fd_jet(_quadratic, u, v, 0.1), fd_jet(_quadratic, u, v, 0.2)
    jet = richardson_jet(fine, coarse)
    assert jet.h is fine.h and jet.z is fine.z
    for name in ("zu", "zv", "zuu", "zuv", "zvv"):
        np.testing.assert_allclose(getattr(jet, name), getattr(fine, name), atol=1e-12)


def test_richardson_jet_needs_steps_h_and_2h_at_the_same_points():
    fine = fd_jet(_cylinder, 0.6, 0.1, 1e-3)
    with pytest.raises(ValueError, match="steps h and 2h"):
        richardson_jet(fine, fd_jet(_cylinder, 0.6, 0.1, 3e-3))
    with pytest.raises(ValueError, match="same points"):
        richardson_jet(fine, fd_jet(_cylinder, 0.7, 0.1, 2e-3))


@pytest.fixture(scope="module")
def meridian_surface():
    """A second-family minimal surface over a directrix with kappa = 0.5."""
    family = MeridianFamily.SECOND
    cf = family.curve_family
    curve = FrameField(cf, 0.5, standard_initial_frame(cf), (0.0, 1.2))
    profile = minimal_profile(family, ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), step=1e-3)
    return MeridianSurface(family, curve, profile)


# ---------------------------------------------------------------------------
# the 17-point fourth-order stencil
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["cylinder", "meridian"])
def test_fd_jet4_equals_the_richardson_reference(which, meridian_surface):
    immersion = _cylinder if which == "cylinder" else meridian_surface.immersion
    us, vs = np.linspace(-0.5, 0.5, 5)[:, None], np.linspace(0.1, 1.1, 7)[None, :]
    h = 1e-3
    jet = fd_jet4(immersion, us, vs, h)
    ref = richardson_jet(fd_jet(immersion, us, vs, h), fd_jet(immersion, us, vs, 2.0 * h))
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
    jet4, jet2 = fd_jet4(_quartic, u, v, h), fd_jet(_quartic, u, v, h)
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
    assert seen == [((5, 1, 17), (1, 7, 17))]
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
    jet_fns = (fd_jet, fd_jet4)
    jets = [jet_fn(immersion, U, V) for jet_fn in jet_fns]
    forms = [fundamental_forms(jet) for jet in jets]
    H, n2 = mean_curvature_fd(immersion, U, V)
    assert jets[0].zuv.shape == forms[0].H.shape == H.shape == (5, 7, 4)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            for jet, form, jet_fn in zip(jets, forms, jet_fns):
                jet1 = jet_fn(immersion, u, v)
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
        fd_jet(holed, us[:, None], vs[None, :], 1e-4)


def test_batched_forms_name_the_first_point_where_the_first_form_overflows():
    def stretched(u, v):
        # z_u = (1e200, 0, 0, 0) for u > 0.75: E = 1e400, and so EG - F^2, overflow there
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return np.stack([np.where(u > 0.75, 1e200, 1.0) * u, v, u * v, np.zeros_like(u)], axis=-1)

    jet = fd_jet(stretched, np.array([0.0, 0.5, 1.0, 0.2])[:, None], np.array([[0.0, 1.0]]))
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

    jet = fd_jet(tilted_plane, np.array([0.0, 0.5, 1.0, 0.2])[:, None], np.array([[0.0, 1.0]]))
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
    jet = fd_jet(recording, us[:, None], vs[None, :], 1e-4)
    assert seen == [((5, 1, 9), (1, 7, 9))]
    for name in ("u", "v", "h"):
        assert getattr(jet, name).shape == (5, 7), name
    for name in ("z", "zu", "zv", "zuu", "zuv", "zvv"):
        assert getattr(jet, name).shape == (5, 7, 4), name
    # a rank-1 v is padded to the rank of u, not broadcast
    fd_jet(recording, us[:, None], vs, 1e-4)
    assert seen[-1] == ((5, 1, 9), (1, 7, 9))


@pytest.mark.parametrize("h", [None, 1e-4])
def test_product_grid_jet_equals_the_broadcast_jet(h, meridian_surface):
    us, vs = np.linspace(-0.5, 0.5, 5), np.linspace(0.1, 1.1, 7)
    U, V = np.broadcast_arrays(us[:, None], vs[None, :])
    for immersion in (_cylinder, meridian_surface.immersion):
        jet = fd_jet(immersion, us[:, None], vs[None, :], h)
        full = fd_jet(immersion, U.copy(), V.copy(), h)
        for name in ("u", "v", "h", "z", "zu", "zv", "zuu", "zuv", "zvv"):
            assert np.array_equal(getattr(jet, name), getattr(full, name)), name


def test_jet_rejects_an_immersion_that_does_not_broadcast():
    us, vs = np.linspace(-1.0, 2.0, 5), np.linspace(-0.5, 0.5, 7)
    # stacking u-shaped columns ignores v's shape: (5, 1, 9, 4), not (5, 7, 9, 4)
    with pytest.raises(ValueError, match="expected \\(5, 7, 9, 4\\)"):
        fd_jet(lambda u, v: np.stack([u, u, u, u], axis=-1), us[:, None], vs[None, :], 1e-4)
