"""Tests for the carrier charts and the Frenet frame flow."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from meridian4 import (
    SIG3_PPM,
    ChartKind,
    CurveFamily,
    DomainError,
    FrameField,
    chart,
    chart_params,
    inner,
    orthonormality_deviation,
    standard_initial_frame,
)
from meridian4.profiles import _nodes

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
# initial frames and the flow
# ---------------------------------------------------------------------------


def _grid(v_span, step):
    """The uniform grid of spacing close to ``step`` over ``v_span``, and its spacing."""
    n = max(2, int(round((v_span[1] - v_span[0]) / step)))
    return np.linspace(v_span[0], v_span[1], n + 1), (v_span[1] - v_span[0]) / n


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_standard_initial_frames_are_exact(family):
    frame = standard_initial_frame(family)
    assert frame.shape == (3, 3)
    assert orthonormality_deviation(frame, family.frame_signs, SIG3_PPM) == 0.0
    # the position starts on the right carrier
    target = -1.0 if family is CurveFamily.SPACELIKE_H21 else 1.0
    assert inner(frame[0], frame[0], SIG3_PPM) == target


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [-1.3, 0.0, 0.4, 2.0])
def test_frenet_matrix_preserves_frame_gram(family, kappa):
    """B diag(e_l, e_t, e_n) is antisymmetric, and l' = t."""
    B = family.frenet_matrix(kappa)
    skew = B @ np.diag(np.asarray(family.frame_signs, dtype=float))
    assert np.array_equal(skew, -skew.T)
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
    vs, _ = _grid((0.0, 1.5), 1e-3)
    frames = FrameField(family, 0.0, (0.0, 1.5)).frame_at(vs)
    i = int(np.argmin(np.abs(vs - 1.0)))
    np.testing.assert_allclose(frames[i, 0], [np.cos(1.0), np.sin(1.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(frames[i, 2], [0.0, 0.0, 1.0], atol=1e-12)


def test_flat_timelike_branch_is_hyperbolic():
    """kappa == 0 on the timelike family gives l = (cosh v, 0, sinh v)."""
    family = CurveFamily.TIMELIKE_S21
    v, _ = _grid((0.0, 1.2), 1e-3)
    ls = FrameField(family, 0.0, (0.0, 1.2)).frame_at(v)[:, 0]
    np.testing.assert_allclose(ls[:, 0], np.cosh(v), atol=1e-11)
    np.testing.assert_allclose(ls[:, 2], np.sinh(v), atol=1e-11)
    np.testing.assert_allclose(ls[:, 1], 0.0, atol=1e-11)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_integrated_curve_stays_on_carrier(family):
    target = -1.0 if family is CurveFamily.SPACELIKE_H21 else 1.0
    expected = np.asarray(family.frame_signs, dtype=float)
    vs, _ = _grid((0.0, 2.0), 1e-3)
    for kappa in (-1.3, 0.0, 0.7, 2.0):
        frames = FrameField(family, kappa, (0.0, 2.0)).frame_at(vs)
        ls = frames[:, 0]
        carrier_dev = np.max(np.abs(inner(ls, ls, SIG3_PPM) - target))
        assert carrier_dev < 1e-12, kappa  # each node is an exact isometry up to roundoff
        # and the whole frame keeps its causal pattern
        for i in (0, len(vs) // 2, len(vs) - 1):
            assert orthonormality_deviation(frames[i], expected, SIG3_PPM) < 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_curvature_round_trip(family):
    """Frames on a grid alone reproduce the input curvature."""
    field = FrameField(family, 0.5, (0.0, 2.0))
    vs, h = _grid((0.0, 2.0), 1e-3)
    _, ts, ns = np.moveaxis(field.frame_at(vs), 1, 0)
    # kappa = <t', n>, t' by second-order stencils (one-sided at the ends)
    tp = np.gradient(ts, h, axis=0, edge_order=2)
    est = inner(tp, ns, SIG3_PPM)
    assert np.max(np.abs(est - field.kappa)) < 1e-5


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [0.0, 0.4, 1.0, 2.0])
def test_constant_curvature_is_the_exact_flow(family, kappa):
    """For constant kappa every node is exp((v - v0) B) S0 up to roundoff."""
    init = standard_initial_frame(family)
    vs, _ = _grid((0.0, 2.0), 1e-3)
    S = FrameField(family, kappa, (0.0, 2.0)).frame_at(vs)
    B = family.frenet_matrix(kappa)
    exact = expm(vs[:, None, None] * B) @ init
    assert np.max(np.abs(S - exact)) <= 1e-12 * max(1.0, np.max(np.abs(S)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("step", [1e-3, 0.1])
def test_frame_at_is_the_exact_flow_between_nodes(family, step):
    """frame_at gives frame0 bit for bit at v0 and exp((v - v0) B) frame0 at the
    nodes of any grid and between them."""
    kappa, init = 0.8, standard_initial_frame(family)
    field = FrameField(family, kappa, (0.3, 1.5))
    assert field.v_span == (0.3, 1.5)
    assert np.array_equal(field.frame_at(0.3), init)
    vs, _ = _grid((0.3, 1.5), step)
    exact = expm((vs - 0.3)[:, None, None] * family.frenet_matrix(kappa)) @ init
    S = field.frame_at(vs)
    assert np.max(np.abs(S - exact)) <= 1e-14 * np.max(np.abs(S))
    v = np.random.default_rng(3).uniform(0.3, 1.5, (20, 10))
    exact = expm((v - 0.3)[..., None, None] * family.frenet_matrix(kappa)) @ init
    S = field.frame_at(v)
    assert S.shape == (20, 10, 3, 3)
    assert np.max(np.abs(S - exact)) <= 1e-14 * np.max(np.abs(S))
    assert field.frame_at(v[0, 0]).shape == (3, 3)
    assert field.frame_at(np.empty((2, 0))).shape == (2, 0, 3, 3)


def test_frame_at_refuses_v_outside_the_span():
    family = CurveFamily.SPACELIKE_H21
    field = FrameField(family, 0.5, (0.0, 1.0))
    field.frame_at([0.0 - 1e-13, 1.0 + 1e-13])  # inside the 1e-12 slack
    for v in (-1e-3, 1.001, np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError, match=r"v out of directrix domain \[0, 1\]"):
            field.frame_at(v)


def _pieces(family, kappa, n):
    """(field, nodes, spacing) over v in [0, 2] with step 2/n.  A number gives one
    field at that kappa; "variable" gives four pieces of constant kappa, each
    started from the standard frame at its own v0 (v0 > 0 for all but the
    first)."""
    if kappa != "variable":
        return [(FrameField(family, kappa, (0.0, 2.0)), *_grid((0.0, 2.0), 2.0 / n))]
    pieces = []
    for j in range(4):
        k = 0.4 + 0.3 * np.sin(0.5 * j + 0.25)
        span = (0.5 * j, 0.5 * j + 0.5)
        pieces.append((FrameField(family, k, span), *_grid(span, 2.0 / n)))
    return pieces


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [1.3, "variable"])
@pytest.mark.parametrize("n", [2, 3, 400, 2003])
def test_frames_match_the_sequential_product(family, kappa, n):
    """Each node is the one-step flow E = exp(h B) of the node before it, so the
    closed form agrees step by step with the product S_{i+1} = E S_i."""
    pieces = _pieces(family, kappa, n)
    if kappa != "variable":
        assert len(pieces[0][1]) == n + 1
    for field, vs, h in pieces:
        S = field.frame_at(vs)
        E = expm(h * family.frenet_matrix(field.kappa))
        assert np.array_equal(S[0], standard_initial_frame(family))
        assert np.max(np.abs(S[1:] - E @ S[:-1])) <= 1e-13 * max(1.0, np.max(np.abs(S)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kappa", [0.0, 0.4, 2.0, "variable"])
def test_max_gram_drift_is_the_measured_deviation(family, kappa):
    """Nothing corrects the frame, and its Gram matrix stays at roundoff."""
    expected = np.asarray(family.frame_signs, dtype=float)
    for field, vs, _ in _pieces(family, kappa, 2000):
        S = field.frame_at(vs)
        measured = max(orthonormality_deviation(s, expected, SIG3_PPM) for s in S)
        assert measured <= 1e-12 * max(1.0, np.max(np.abs(S))) ** 2


def test_bad_initial_frame_rejected():
    family = CurveFamily.SPACELIKE_S21
    with pytest.raises(ValueError, match="does not match 3 expected signs"):
        orthonormality_deviation(standard_initial_frame(family)[:2], family.frame_signs,
                                 SIG3_PPM)


def test_nonfinite_curvature_raises():
    family = CurveFamily.SPACELIKE_S21
    for kappa in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"kappa must be finite, got {kappa}$"):
            FrameField(family, kappa, (0.0, 1.0))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_curvature_whose_square_overflows_is_named(family):
    message = r"curvature kappa = -1e\+300 is out of range: kappa\^2 overflows$"
    with pytest.raises(DomainError, match=message):
        FrameField(family, -1e300, (0.0, 1.0))
    with pytest.raises(DomainError, match=message):
        family.growth_rate(-1e300)


def test_frame_overflow_is_named():
    # the timelike frame grows like exp(sqrt(1 + kappa^2) v), beyond 1e308 near v = 1.77
    family = CurveFamily.TIMELIKE_S21
    with pytest.raises(DomainError, match=r"frame is not finite at v1=3\.0; shorten the v-span"):
        FrameField(family, 400.0, (0.0, 3.0))
    FrameField(family, 400.0, (0.0, 1.7))  # finite at v1, so on the whole span


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_huge_curvature_on_its_own_length_scale_is_finite(family):
    # kappa^2 is finite, tr B^2 is not: the exponent must not go through the trace
    expected = np.asarray(family.frame_signs, dtype=float)
    vs, _ = _grid((0.0, 1e-154), 1e-156)
    S = FrameField(family, 1e154, (0.0, 1e-154)).frame_at(vs)
    assert max(orthonormality_deviation(s, expected, SIG3_PPM) for s in S) < 1e-14


def test_bad_span_and_step():
    family = CurveFamily.SPACELIKE_S21
    for span in ((1.0, 0.0), (0.0, 0.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match=r"v_span must be finite and increasing \(v1 > v0\)"):
            FrameField(family, 0.0, span)
    # the u-grids of the profiles check their step
    with pytest.raises(ValueError, match="step must be positive"):
        _nodes((0.0, 1.0), -1e-3)
