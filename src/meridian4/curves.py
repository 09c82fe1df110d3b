"""Unit-speed curves on the de Sitter and hyperbolic 2-spheres in E^3_1.

The directrix curves of Lorentz meridian surfaces live in the Lorentzian
3-space span{e1, e2, e3} (signature +, +, -), on one of two quadrics:

* the de Sitter sphere S^2_1(1):    <l, l> = +1,
* the hyperbolic sphere H^2_1(-1):  <l, l> = -1.

Each admissible causal type carries a Frenet system for the moving frame
(l, t, n) with a single curvature function kappa(v) = <t'(v), n(v)>.  With
the frame's causal signs (e_l, e_t, e_n) = (<l,l>, <t,t>, <n,n>), all three
systems read

    l' = t,   t' = -e_l e_t l + e_n kappa n,   n' = -e_t kappa t,

and B(kappa) diag(e_l, e_t, e_n) is antisymmetric for the coefficient
matrix B of :meth:`CurveFamily.frenet_matrix`:

=====================  =========================================  ==============
family                 Frenet system                              (e_l, e_t, e_n)
=====================  =========================================  ==============
spacelike on S^2_1     l' = t,  t' = -kappa n - l,  n' = -kappa t  (+1, +1, -1)
timelike on S^2_1      l' = t,  t' =  kappa n + l,  n' =  kappa t  (+1, -1, +1)
spacelike on H^2_1     l' = t,  t' =  kappa n + l,  n' = -kappa t  (-1, +1, +1)
=====================  =========================================  ==============

``integrate_frenet`` marches these systems with a fixed-step classical RK4
in 3x3 matrix form and re-orthonormalizes the frame against its indefinite
Gram matrix after every step, recording the worst pre-correction drift.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .algebra import (
    SIG3_PPM,
    Signature,
    gram_matrix,
    orthonormality_deviation,
    orthonormalize,
)
from .errors import DegeneracyError, IntegrationError

__all__ = [
    "CurveFamily",
    "ChartKind",
    "chart",
    "chart_params",
    "FrenetState",
    "standard_initial_frame",
    "FrameField",
    "integrate_frenet",
    "curvature_estimate",
]

#: All three Frenet systems live in span{e1,e2,e3} with this metric.
CURVE_SIGNATURE: Signature = SIG3_PPM


class CurveFamily(enum.Enum):
    """Causal type and carrier quadric of a directrix curve.

    ``frame_signs`` is (<l,l>, <t,t>, <n,n>) for the family's
    pseudo-orthonormal frame; the carrier and the Frenet system follow
    from it.
    """

    frame_signs: tuple[int, int, int]

    SPACELIKE_S21 = ("spacelike-s21", (1, 1, -1))
    TIMELIKE_S21 = ("timelike-s21", (1, -1, 1))
    SPACELIKE_H21 = ("spacelike-h21", (-1, 1, 1))

    def __new__(cls, value: str, frame_signs: tuple[int, int, int]) -> "CurveFamily":
        member = object.__new__(cls)
        member._value_ = value
        member.frame_signs = frame_signs
        return member

    @property
    def carrier(self) -> "ChartKind":
        """Which quadric the position vector l(v) lies on (<l,l> = +-1)."""
        return ChartKind.S21 if self.frame_signs[0] > 0 else ChartKind.H21

    def frenet_matrix(self, kappa: float) -> np.ndarray:
        """Coefficient matrix B with d/dv [l; t; n] = B [l; t; n]."""
        e_l, e_t, e_n = self.frame_signs
        k = float(kappa)
        return np.array([[0.0, 1.0, 0.0], [-e_l * e_t, 0.0, e_n * k], [0.0, -e_t * k, 0.0]])

    def tangent_rate(self, kappa, l, t, n):
        """t'(v) from the family's Frenet system (vectorized over samples)."""
        e_l, e_t, e_n = self.frame_signs
        k = np.asarray(kappa, dtype=float)[..., None]
        return e_n * k * n - e_l * e_t * l

    def normal_rate(self, kappa, t):
        """n'(v) from the family's Frenet system (vectorized over samples)."""
        k = np.asarray(kappa, dtype=float)[..., None]
        return -self.frame_signs[1] * k * t


class ChartKind(enum.Enum):
    """Standard charts of the two quadrics, plus their images in span{e2,e3,e4}.

    The plain kinds parametrize the carrier quadrics in span{e1,e2,e3}
    (3-component output).  The ``*_TILDE`` kinds parametrize the congruent
    quadrics inside span{e2,e3,e4} and return full 4-component vectors with
    first coordinate 0; these are the carriers of the transformed surfaces.
    """

    S21 = "s21"
    H21 = "h21"
    S21_TILDE = "s21-tilde"
    H21_TILDE = "h21-tilde"


def chart(kind: ChartKind, w1, w2) -> np.ndarray:
    """Evaluate a carrier chart at parameters (w1, w2), broadcasting.

    * ``S21``:       (cosh w1 cos w2, cosh w1 sin w2, sinh w1), <p,p> = +1
    * ``H21``:       (sinh w1 cos w2, sinh w1 sin w2, cosh w1), <p,p> = -1
    * ``S21_TILDE``: (0, cosh w1, sinh w1 cos w2, sinh w1 sin w2), <p,p> = +1
    * ``H21_TILDE``: (0, sinh w1, cosh w1 cos w2, cosh w1 sin w2), <p,p> = -1
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    w1, w2 = np.broadcast_arrays(w1, w2)
    if kind is ChartKind.S21:
        return np.stack(
            [np.cosh(w1) * np.cos(w2), np.cosh(w1) * np.sin(w2), np.sinh(w1)], axis=-1
        )
    if kind is ChartKind.H21:
        return np.stack(
            [np.sinh(w1) * np.cos(w2), np.sinh(w1) * np.sin(w2), np.cosh(w1)], axis=-1
        )
    zero = np.zeros_like(w1)
    if kind is ChartKind.S21_TILDE:
        return np.stack(
            [zero, np.cosh(w1), np.sinh(w1) * np.cos(w2), np.sinh(w1) * np.sin(w2)],
            axis=-1,
        )
    if kind is ChartKind.H21_TILDE:
        return np.stack(
            [zero, np.sinh(w1), np.cosh(w1) * np.cos(w2), np.cosh(w1) * np.sin(w2)],
            axis=-1,
        )
    raise ValueError(f"unknown chart kind: {kind!r}")


def chart_params(kind: ChartKind, p) -> tuple[np.ndarray, np.ndarray]:
    """Invert a plain carrier chart: recover (w1, w2) from points.

    Only the 3-component kinds (``S21``, ``H21``) are invertible here; the
    tilde charts are surjective onto their quadrics only up to the branch
    w1 >= 0 and are not needed in inverse form.  For ``H21`` the returned
    branch has w1 >= 0 (the chart is even in (w1, w2+pi), so this loses no
    generality).  Vectorized over leading axes.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("chart_params expects 3-component points")
    x1, x2, x3 = p[..., 0], p[..., 1], p[..., 2]
    if kind is ChartKind.S21:
        return np.arcsinh(x3), np.arctan2(x2, x1)
    if kind is ChartKind.H21:
        return np.arcsinh(np.hypot(x1, x2)), np.arctan2(x2, x1)
    raise ValueError(f"chart_params supports S21 and H21, got {kind!r}")


@dataclass(frozen=True)
class FrenetState:
    """Frame snapshot (l, t, n) at one parameter value v."""

    v: float
    l: np.ndarray
    t: np.ndarray
    n: np.ndarray

    @property
    def frame(self) -> np.ndarray:
        """Rows (l, t, n) as a 3x3 matrix."""
        return np.stack([self.l, self.t, self.n])


def standard_initial_frame(family: CurveFamily) -> FrenetState:
    """The canonical frame at v = 0 for each family.

    * spacelike on S^2_1: l = e1, t = e2, n = e3
    * timelike on S^2_1:  l = e1, t = e3, n = e2
    * spacelike on H^2_1: l = e3, t = e1, n = e2

    Each satisfies the family's Gram matrix exactly.
    """
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    if family is CurveFamily.SPACELIKE_S21:
        return FrenetState(0.0, e1, e2, e3)
    if family is CurveFamily.TIMELIKE_S21:
        return FrenetState(0.0, e1, e3, e2)
    return FrenetState(0.0, e3, e1, e2)


#: A curvature law is any callable kappa(v) -> float.
CurvatureLaw = Callable[[float], float]


@dataclass(eq=False)
class FrameField:
    """A sampled Frenet frame field along a curve.

    Samples sit on the uniform grid ``vs``; rows of ``ls``/``ts``/``ns`` are
    the frame vectors, ``ks`` the curvature at each sample.  The field keeps
    the integration step and the maximum pre-correction Gram drift observed
    during integration (0.0 for analytically constructed fields).
    """

    family: CurveFamily
    vs: np.ndarray
    ls: np.ndarray
    ts: np.ndarray
    ns: np.ndarray
    ks: np.ndarray
    step: float
    max_gram_drift: float = 0.0
    _kappa_spline: CubicSpline | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.vs = np.asarray(self.vs, dtype=float)
        for name in ("ls", "ts", "ns"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(self.vs), 3):
                raise ValueError(f"{name} must have shape (n_samples, 3)")
            setattr(self, name, arr)
        self.ks = np.asarray(self.ks, dtype=float)
        if self.ks.shape != self.vs.shape:
            raise ValueError("ks must match vs in shape")

    def __len__(self) -> int:
        return len(self.vs)

    @property
    def v_span(self) -> tuple[float, float]:
        return float(self.vs[0]), float(self.vs[-1])

    def state(self, i: int) -> FrenetState:
        return FrenetState(float(self.vs[i]), self.ls[i], self.ts[i], self.ns[i])

    def kappa_at(self, v) -> np.ndarray:
        """Curvature at arbitrary v within the span (cubic interpolation)."""
        if self._kappa_spline is None:
            if len(self.vs) >= 4:
                self._kappa_spline = CubicSpline(self.vs, self.ks)
            else:
                # Too few samples for a cubic; fall back to linear.
                self._kappa_spline = lambda v: np.interp(v, self.vs, self.ks)  # type: ignore[assignment]
        return np.asarray(self._kappa_spline(v), dtype=float)


def _resolve_grid(span: tuple[float, float], step: float) -> tuple[np.ndarray, float]:
    """Uniform grid over span with spacing as close to ``step`` as possible."""
    v0, v1 = float(span[0]), float(span[1])
    if not np.isfinite([v0, v1]).all() or v1 <= v0:
        raise ValueError(f"span must be finite with v1 > v0, got {span}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    n = max(2, int(round((v1 - v0) / step)))
    h = (v1 - v0) / n
    return np.linspace(v0, v1, n + 1), h


def integrate_frenet(
    family: CurveFamily,
    law: CurvatureLaw,
    init: FrenetState,
    v_span: tuple[float, float],
    step: float = 1e-3,
) -> FrameField:
    """March a Frenet system with fixed-step RK4 plus frame correction.

    The state is the 3x3 matrix S with rows (l, t, n), evolved by
    S' = B(kappa(v)) S.  After each RK4 step, the frame's deviation from the
    family Gram matrix is measured (and its maximum recorded as
    ``max_gram_drift``), then removed by indefinite Gram-Schmidt, so drift
    cannot accumulate over long spans.

    Raises
    ------
    ValueError
        If the initial frame violates the family Gram matrix by more than
        1e-10, or the span/step are malformed.
    IntegrationError
        If the curvature law returns a non-finite value.
    DegeneracyError
        If re-orthonormalization encounters a numerically null vector.
    """
    init_dev = orthonormality_deviation(init.frame, family.frame_signs, CURVE_SIGNATURE)
    if init_dev > 1e-10:
        raise ValueError(
            f"initial frame violates the {family.value} Gram matrix "
            f"(deviation {init_dev:.3e} > 1e-10)"
        )
    vs, h = _resolve_grid(v_span, step)
    if abs(float(init.v) - vs[0]) > 1e-12 * max(1.0, abs(vs[0])):
        raise ValueError(f"initial state sits at v={init.v}, but the span starts at {vs[0]}")

    def rate_matrix(v: float) -> np.ndarray:
        k = law(v)
        if not np.isfinite(k):
            raise IntegrationError(f"curvature law returned non-finite value at v={v!r}")
        return family.frenet_matrix(k)

    n_steps = len(vs) - 1
    expected = np.asarray(family.frame_signs, dtype=float)
    signature = CURVE_SIGNATURE

    frames = np.empty((n_steps + 1, 3, 3))
    ks = np.empty(n_steps + 1)
    frames[0] = init.frame
    ks[0] = law(float(vs[0]))
    if not np.isfinite(ks[0]):
        raise IntegrationError(f"curvature law returned non-finite value at v={vs[0]!r}")

    max_drift = 0.0
    S = init.frame.astype(float).copy()
    for i in range(n_steps):
        v = float(vs[i])
        B0 = rate_matrix(v)
        Bm = rate_matrix(v + 0.5 * h)
        B1 = rate_matrix(v + h)
        k1 = B0 @ S
        k2 = Bm @ (S + 0.5 * h * k1)
        k3 = Bm @ (S + 0.5 * h * k2)
        k4 = B1 @ (S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        drift = float(np.max(np.abs(gram_matrix(S, signature) - np.diag(expected))))
        max_drift = max(max_drift, drift)
        S = _restore_frame(S, family, signature)
        frames[i + 1] = S
        ks[i + 1] = law(float(vs[i + 1]))
        if not np.isfinite(ks[i + 1]):
            raise IntegrationError(
                f"curvature law returned non-finite value at v={vs[i + 1]!r}"
            )

    return FrameField(
        family=family,
        vs=vs,
        ls=frames[:, 0],
        ts=frames[:, 1],
        ns=frames[:, 2],
        ks=ks,
        step=h,
        max_gram_drift=max_drift,
    )


def _restore_frame(S: np.ndarray, family: CurveFamily, sig: Signature) -> np.ndarray:
    """Indefinite Gram-Schmidt, checking the causal pattern survived."""
    try:
        frame, signs = orthonormalize(S, sig)
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"frame re-orthonormalization degenerated while integrating a "
            f"{family.value} Frenet system: {exc}"
        ) from exc
    if signs != family.frame_signs:
        raise DegeneracyError(
            f"frame causal pattern flipped during integration: got {signs}, "
            f"expected {family.frame_signs}"
        )
    return frame


def curvature_estimate(fieldset: FrameField) -> np.ndarray:
    """Recover kappa(v) from frame samples alone, without the stored ks.

    Differentiates the sampled tangent with second-order stencils (central
    in the interior, one-sided at the ends) and contracts against the
    normal: kappa = <t', n>.  This is the round-trip check for the Frenet
    integrator and needs at least 3 samples.
    """
    ts, ns, vs = fieldset.ts, fieldset.ns, fieldset.vs
    m = len(vs)
    if m < 3:
        raise ValueError(f"need at least 3 samples to estimate curvature, got {m}")
    h = float(vs[1] - vs[0])
    tp = np.empty_like(ts)
    tp[1:-1] = (ts[2:] - ts[:-2]) / (2.0 * h)
    tp[0] = (-3.0 * ts[0] + 4.0 * ts[1] - ts[2]) / (2.0 * h)
    tp[-1] = (3.0 * ts[-1] - 4.0 * ts[-2] + ts[-3]) / (2.0 * h)
    sig = CURVE_SIGNATURE.array
    return np.sum(sig * tp * ns, axis=-1)
