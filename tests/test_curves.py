"""Tests for the carrier charts and the Frenet frame integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from meridian4 import (
    SIG3_PPM,
    ChartKind,
    CurveFamily,
    DomainError,
    IntegrationError,
    chart,
    chart_params,
    inner,
    integrate_frenet,
    orthonormality_deviation,
    standard_initial_frame,
)
from meridian4 import curves

ALL_FAMILIES = list(CurveFamily)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)
def test_charts_lie_on_their_quadrics(w1, w2):
    p = chart(ChartKind.S21, w1, w2)
    assert abs(inner(p, p, SIG3_PPM) - 1.0) < 1e-12
    q = chart(ChartKind.H21, w1, w2)
    assert abs(inner(q, q, SIG3_PPM) + 1.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)
def test_tilde_charts_lie_on_their_quadrics(w1, w2):
    # tilde carriers live in span{e2,e3,e4} of the neutral 4-space
    p = chart(ChartKind.S21_TILDE, w1, w2)
    assert p[0] == 0.0
    assert abs(inner(p, p) - 1.0) < 1e-12
    q = chart(ChartKind.H21_TILDE, w1, w2)
    assert q[0] == 0.0
    assert abs(inner(q, q) + 1.0) < 1e-12


def test_chart_params_round_trip():
    rng = np.random.default_rng(11)
    w1 = rng.uniform(-1.5, 1.5, 200)
    w2 = rng.uniform(-3.0, 3.0, 200)
    p = chart(ChartKind.S21, w1, w2)
    r1, r2 = chart_params(ChartKind.S21, p)
    np.testing.assert_allclose(chart(ChartKind.S21, r1, r2), p, atol=1e-12)

    w1 = rng.uniform(0.1, 1.5, 200)  # H21 chart is inverted on the w1 >= 0 branch
    q = chart(ChartKind.H21, w1, w2)
    s1, s2 = chart_params(ChartKind.H21, q)
    np.testing.assert_allclose(chart(ChartKind.H21, s1, s2), q, atol=1e-12)


def test_chart_params_rejects_tilde_kinds():
    with pytest.raises(ValueError, match="supports S21 and H21"):
        chart_params(ChartKind.S21_TILDE, np.zeros(3))


# ---------------------------------------------------------------------------
# initial frames and integration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_standard_initial_frames_are_exact(family):
    state = standard_initial_frame(family)
    assert orthonormality_deviation(state.frame, family.frame_signs, SIG3_PPM) == 0.0
    # the position starts on the right carrier
    target = -1.0 if family is CurveFamily.SPACELIKE_H21 else 1.0
    assert inner(state.l, state.l, SIG3_PPM) == target


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [-1.3, 0.0, 0.4, 2.0])
def test_frenet_matrix_preserves_frame_gram(family, kappa):
    """B diag(e_l, e_t, e_n) is antisymmetric, and the vectorized rates are
    the rows of B applied to (l, t, n)."""
    B = family.frenet_matrix(kappa)
    skew = B @ np.diag(np.asarray(family.frame_signs, dtype=float))
    assert np.array_equal(skew, -skew.T)
    l, t, n = np.random.default_rng(5).normal(size=(3, 4, 3))
    ks = np.full(4, kappa)
    np.testing.assert_allclose(
        family.tangent_rate(ks, l, t, n), B[1, 0] * l + B[1, 2] * n, atol=1e-15
    )
    np.testing.assert_allclose(family.normal_rate(ks, t), B[2, 1] * t, atol=1e-15)
    assert B[0].tolist() == [0.0, 1.0, 0.0] and B[1, 1] == B[2, 0] == B[2, 2] == 0.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_growth_rate_squared_is_half_the_trace_of_b_squared(family):
    """The growth rate is sqrt(max(0, w2)) with w2 = 1/2 tr B(kappa)^2, the
    exponent of the closed-form frame step."""
    for kappa in [0.0, *np.linspace(-3.0, 3.0, 241)]:
        B = family.frenet_matrix(kappa)
        expected = max(0.0, 0.5 * np.trace(B @ B))
        rate = family.growth_rate(kappa)
        assert isinstance(rate, float) and rate >= 0.0
        assert rate**2 == pytest.approx(expected, rel=1e-14, abs=0.0), kappa


def test_flat_circle_on_s21():
    """kappa == 0 on the spacelike family gives the unit equator circle."""
    family = CurveFamily.SPACELIKE_S21
    field = integrate_frenet(
        family, lambda v: 0.0, standard_initial_frame(family), (0.0, 1.5), 1e-3
    )
    i = int(np.argmin(np.abs(field.vs - 1.0)))
    np.testing.assert_allclose(field.ls[i], [np.cos(1.0), np.sin(1.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(field.ns[i], [0.0, 0.0, 1.0], atol=1e-12)


def test_flat_timelike_branch_is_hyperbolic():
    """kappa == 0 on the timelike family gives l = (cosh v, 0, sinh v)."""
    family = CurveFamily.TIMELIKE_S21
    field = integrate_frenet(
        family, lambda v: 0.0, standard_initial_frame(family), (0.0, 1.2), 1e-3
    )
    v = field.vs
    np.testing.assert_allclose(field.ls[:, 0], np.cosh(v), atol=1e-11)
    np.testing.assert_allclose(field.ls[:, 2], np.sinh(v), atol=1e-11)
    np.testing.assert_allclose(field.ls[:, 1], 0.0, atol=1e-11)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_integrated_curve_stays_on_carrier(family):
    law = lambda v: 0.4 + 0.3 * np.sin(v)
    field = integrate_frenet(family, law, standard_initial_frame(family), (0.0, 2.0), 1e-3)
    target = -1.0 if family is CurveFamily.SPACELIKE_H21 else 1.0
    carrier_dev = np.max(np.abs(inner(field.ls, field.ls, SIG3_PPM) - target))
    assert carrier_dev < 1e-12  # each step is an exact isometry up to roundoff
    # and the whole frame keeps its causal pattern
    expected = np.asarray(family.frame_signs, dtype=float)
    for i in (0, len(field) // 2, len(field) - 1):
        assert orthonormality_deviation(field.state(i).frame, expected, SIG3_PPM) < 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_curvature_round_trip(family):
    """Frame samples alone reproduce the input curvature law."""
    law = lambda v: 0.3 + 0.2 * np.sin(v)
    field = integrate_frenet(family, law, standard_initial_frame(family), (0.0, 2.0), 1e-3)
    # kappa = <t', n>, t' by second-order stencils (one-sided at the ends)
    tp = np.gradient(field.ts, field.step, axis=0, edge_order=2)
    est = inner(tp, field.ns, SIG3_PPM)
    assert np.max(np.abs(est - field.ks)) < 1e-5


def _frames(field):
    return np.stack([field.ls, field.ts, field.ns], axis=1)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [0.0, 0.4, 1.0, 2.0])
def test_constant_curvature_is_the_exact_flow(family, kappa):
    """For constant kappa every node is exp((v - v0) B) S0 up to roundoff."""
    init = standard_initial_frame(family)
    field = integrate_frenet(family, lambda v: kappa, init, (0.0, 2.0), 1e-3)
    B = family.frenet_matrix(kappa)
    exact = expm(field.vs[:, None, None] * B) @ init.frame
    S = _frames(field)
    assert np.max(np.abs(S - exact)) <= 1e-12 * max(1.0, np.max(np.abs(S)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_variable_curvature_converges_at_fourth_order(family):
    """The end frame's error falls ~16x per halving of the step."""
    law = lambda v: 0.4 + 0.3 * np.sin(v)
    init = standard_initial_frame(family)
    ref = _frames(integrate_frenet(family, law, init, (0.0, 2.0), 1e-3))[-1]
    errs = [
        np.max(np.abs(_frames(integrate_frenet(family, law, init, (0.0, 2.0), h))[-1] - ref))
        for h in (0.1, 0.05, 0.025)
    ]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5), orders  # measured 4.00


def _compose_by_loop(steps, first):
    """The sequential product S_{i+1} = E_i S_i that the blocked scan replaced."""
    frames = np.empty((len(steps) + 1, 3, 3))
    frames[0] = first
    for i in range(len(steps)):
        np.matmul(steps[i], frames[i], out=frames[i + 1])
    return frames


@pytest.mark.parametrize("n", range(1, 40))
def test_blocked_scan_matches_the_loop_for_every_block_layout(n):
    """n = 1 is one block; n = 2, 3 blocks of one step; squares fill every
    block and the other counts pad the last one with identities."""
    rng = np.random.default_rng(n)
    steps = np.eye(3) + 0.1 * rng.standard_normal((n, 3, 3))
    first = rng.standard_normal((3, 3))
    S, ref = curves._compose(steps, first), _compose_by_loop(steps, first)
    assert S.shape == (n + 1, 3, 3)
    assert np.max(np.abs(S - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [1.3, "variable"])
@pytest.mark.parametrize("n", [2, 3, 400, 2003])
def test_frames_match_the_sequential_product(monkeypatch, family, kappa, n):
    """The blocked scan moves the frames by roundoff only (400 = 20^2, 2003 is prime)."""
    law = (lambda v: 0.4 + 0.3 * np.sin(v)) if kappa == "variable" else (lambda v: kappa)
    init = standard_initial_frame(family)
    S = _frames(integrate_frenet(family, law, init, (0.0, 2.0), 2.0 / n))
    monkeypatch.setattr(curves, "_compose", _compose_by_loop)
    ref = _frames(integrate_frenet(family, law, init, (0.0, 2.0), 2.0 / n))
    assert len(S) == n + 1
    assert np.max(np.abs(S - ref)) <= 1e-13 * max(1.0, np.max(np.abs(S)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [0.0, 2.0, "variable"])
def test_max_gram_drift_is_the_measured_deviation(family, kappa):
    """No step corrects the frame, and its Gram matrix stays at roundoff."""
    law = (lambda v: 0.4 + 0.3 * np.sin(v)) if kappa == "variable" else (lambda v: kappa)
    field = integrate_frenet(family, law, standard_initial_frame(family), (0.0, 2.0), 1e-3)
    S = _frames(field)
    expected = np.asarray(family.frame_signs, dtype=float)
    measured = max(orthonormality_deviation(s, expected, SIG3_PPM) for s in S)
    assert field.max_gram_drift == measured
    assert measured <= 1e-12 * max(1.0, np.max(np.abs(S))) ** 2


def test_kappa_at_interpolates_the_law():
    family = CurveFamily.TIMELIKE_S21
    law = lambda v: 1.0 + 0.5 * np.cos(v)
    field = integrate_frenet(family, law, standard_initial_frame(family), (0.0, 1.5), 1e-3)
    vq = np.array([0.1234, 0.777, 1.432])
    np.testing.assert_allclose(field.kappa_at(vq), law(vq), atol=1e-10)


def test_bad_initial_frame_rejected():
    family = CurveFamily.SPACELIKE_S21
    state = standard_initial_frame(family)
    tilted = type(state)(0.0, state.l + 0.01 * state.t, state.t, state.n)
    with pytest.raises(ValueError, match="violates the .* Gram matrix"):
        integrate_frenet(family, lambda v: 0.0, tilted, (0.0, 1.0))


def test_nonfinite_curvature_raises():
    family = CurveFamily.SPACELIKE_S21
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate_frenet(
            family,
            lambda v: np.nan if v > 0.5 else 0.0,
            standard_initial_frame(family),
            (0.0, 1.0),
            1e-2,
        )


def test_nonfinite_curvature_at_a_gauss_point_is_named():
    # nodes sit at multiples of 0.1; the first Gauss point of [0.2, 0.3] is
    # 0.2 + (1/2 - sqrt(3)/6) * 0.1
    family = CurveFamily.SPACELIKE_S21
    with pytest.raises(IntegrationError, match=r"at v=0\.2211"):
        integrate_frenet(
            family,
            lambda v: np.inf if 0.21 < v < 0.25 else 0.0,
            standard_initial_frame(family),
            (0.0, 1.0),
            0.1,
        )


def test_frame_overflow_is_named():
    # the timelike frame grows like exp(sqrt(1 + kappa^2) v), beyond 1e308 near v = 1.77
    family = CurveFamily.TIMELIKE_S21
    with pytest.raises(DomainError, match=r"frame overflows at v=1\.8;"):
        integrate_frenet(family, lambda v: 400.0, standard_initial_frame(family), (0.0, 3.0), 0.1)


def test_sample_count_is_capped_before_the_law_runs():
    def law(v):
        raise AssertionError("the law must not be evaluated")

    family = CurveFamily.TIMELIKE_S21
    with pytest.raises(DomainError, match=r"v-grid of 2e\+09 samples .* exceeds the cap"):
        integrate_frenet(family, law, standard_initial_frame(family), (0.0, 2.0), 1e-9)


def test_bad_span_and_step():
    family = CurveFamily.SPACELIKE_S21
    init = standard_initial_frame(family)
    with pytest.raises(ValueError, match="v1 > v0"):
        integrate_frenet(family, lambda v: 0.0, init, (1.0, 0.0))
    with pytest.raises(ValueError, match="step must be positive"):
        integrate_frenet(family, lambda v: 0.0, init, (0.0, 1.0), step=-1e-3)


def test_initial_state_must_sit_at_span_start():
    family = CurveFamily.SPACELIKE_S21
    init = standard_initial_frame(family)
    with pytest.raises(ValueError, match="span starts at"):
        integrate_frenet(family, lambda v: 0.0, init, (0.5, 1.5))
