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

``integrate_frenet`` advances the 3x3 frame matrix by one 4th-order
Magnus step per grid interval, exponentiated in closed form.  The flow is
in the frame group, so the Gram matrix is kept up to roundoff with no
re-orthonormalization; for the constant curvatures of the classification
each step is the exact flow exp(hB).  The n step matrices are composed by
a two-level blocked prefix product (about 2 sqrt(n) batched matmuls), which
agrees with the sequential product to roundoff.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

# orthonormalize is unused here, but perfbench/tracing.py patches it on this module.
from .algebra import SIG3_PPM, Signature, orthonormality_deviation, orthonormalize  # noqa: F401
from .errors import DomainError, IntegrationError

__all__ = [
    "CurveFamily",
    "ChartKind",
    "chart",
    "chart_params",
    "FrenetState",
    "standard_initial_frame",
    "FrameField",
    "integrate_frenet",
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

    def growth_rate(self, kappa: float) -> float:
        """Exponential growth rate sqrt(max(w2, 0)) of the frame at constant kappa.

        w2 = 1/2 tr B(kappa)^2 = -e_t (e_l + e_n kappa^2): the frame
        components solve l''' = w2 l', so positive w2 means cosh-type growth.
        """
        e_l, e_t, e_n = self.frame_signs
        # Expanded so that w2 = 0 comes out as +0.0; the trace form differs in the last bit.
        w2 = -e_t * e_n * kappa * kappa - e_t * e_l
        return float(np.sqrt(max(w2, 0.0)))

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
    the integration step and the largest deviation of a sample's Gram matrix
    from diag(e_l, e_t, e_n) (0.0 for analytically constructed fields).
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


#: Cap on the samples of one uniform grid (about 450 B each along a curve).
_MAX_SAMPLES = 10**6


def _grid_intervals(span, step: float, minimum: int = 2, var: str = "v") -> int:
    """Intervals of a uniform grid over ``span`` with spacing close to ``step``.

    Validates the span and the step, and refuses, before anything is
    allocated, a grid of more than :data:`_MAX_SAMPLES` samples.
    """
    lo, hi = float(span[0]), float(span[1])
    if not (np.isfinite([lo, hi]).all() and hi > lo):
        raise ValueError(
            f"{var}_span must be finite and increasing ({var}1 > {var}0), got {span}"
        )
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    n = (hi - lo) / step
    if not n + 1.0 <= _MAX_SAMPLES:
        raise DomainError(f"{var}-grid of {n + 1.0:.4g} samples (span {hi - lo:.6g}, "
                          f"step {step:.3g}) exceeds the cap of {_MAX_SAMPLES} samples")
    return max(minimum, int(round(n)))


def integrate_frenet(
    family: CurveFamily,
    law: CurvatureLaw,
    init: FrenetState,
    v_span: tuple[float, float],
    step: float = 1e-3,
) -> FrameField:
    """Integrate S' = B(kappa(v)) S, S with rows (l, t, n), by 4th-order Magnus steps.

    B = B0 + kappa K is affine in kappa, so with k1, k2 the curvature at the
    Gauss points v + (1/2 -+ sqrt(3)/6) h the step over [v, v + h] is

        Omega = h B0 + (h/2)(k1 + k2) K + (sqrt(3)/12) h^2 (k1 - k2) [B0, K].

    In the frame's Lie algebra Omega^3 = w2 Omega with w2 = tr(Omega^2)/2, so
    exp(Omega) = I + sinhc(w2) Omega + sinhc(w2/4)^2/2 Omega^2 in closed form.
    For constant kappa each step is the exact flow exp(hB).  Nothing is
    corrected; ``max_gram_drift`` is the measured Gram deviation of the output.

    Raises
    ------
    ValueError
        If the initial frame violates the family Gram matrix by more than
        1e-10, or the span/step are malformed.
    DomainError
        If the grid would exceed :data:`_MAX_SAMPLES` samples, or the frame
        overflows (the first such v is named).
    IntegrationError
        If the curvature law returns a non-finite value at a node or a
        Gauss point (the first such v is named).
    """
    init_dev = orthonormality_deviation(init.frame, family.frame_signs, CURVE_SIGNATURE)
    if init_dev > 1e-10:
        raise ValueError(
            f"initial frame violates the {family.value} Gram matrix "
            f"(deviation {init_dev:.3e} > 1e-10)"
        )
    n = _grid_intervals(v_span, step)
    v0, v1 = float(v_span[0]), float(v_span[1])
    vs = np.linspace(v0, v1, n + 1)
    h = (v1 - v0) / n
    if abs(float(init.v) - v0) > 1e-12 * max(1.0, abs(v0)):
        raise ValueError(f"initial state sits at v={init.v}, but the span starts at {v0}")

    # law at v_i, then the two Gauss points of step i, in increasing v
    gauss = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
    pts = np.append(np.column_stack([vs[:-1], vs[:-1, None] + h * gauss]).ravel(), v1)
    kappas = np.array([law(float(v)) for v in pts], dtype=float)
    bad = ~np.isfinite(kappas)
    if bad.any():
        v_bad = float(pts[np.argmax(bad)])
        raise IntegrationError(f"curvature law returned non-finite value at v={v_bad!r}")
    ks, k1, k2 = kappas[::3], kappas[1::3, None, None], kappas[2::3, None, None]

    B0 = family.frenet_matrix(0.0)
    K = family.frenet_matrix(1.0) - B0
    omega = (
        h * B0
        + (0.5 * h) * (k1 + k2) * K
        + (np.sqrt(3.0) / 12.0 * h * h) * (k1 - k2) * (B0 @ K - K @ B0)
    )
    omega2 = omega @ omega
    w2 = 0.5 * np.trace(omega2, axis1=1, axis2=2)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        steps = np.eye(3) + _sinhc(w2) * omega + 0.5 * _sinhc(0.25 * w2) ** 2 * omega2
        frames = _compose(steps, init.frame)
    finite = np.isfinite(frames).all(axis=(1, 2))
    if not finite.all():
        v_bad = float(vs[np.argmin(finite)])
        raise DomainError(f"the frame overflows at v={v_bad!r}; shorten the v-span")

    gram = (frames * CURVE_SIGNATURE.array) @ frames.transpose(0, 2, 1)
    drift = float(np.max(np.abs(gram - np.diag(np.asarray(family.frame_signs, dtype=float)))))
    return FrameField(family, vs, *frames.transpose(1, 0, 2), ks, h, drift)


def _compose(steps: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Frames S_0 = first, S_{i+1} = E_i S_i for the n step matrices E_i.

    A two-level blocked prefix product (Blelloch 1990): the steps are cut
    into blocks of b = isqrt(n), the last one padded with identities; the
    in-block prefix products take b - 1 batched matmuls across all blocks,
    the block totals are chained from ``first`` one matmul per block, and
    one batched matmul applies each block's start frame.  About 2 sqrt(n)
    matmul calls in place of n.
    """
    n = len(steps)
    b = math.isqrt(n)
    m = -(-n // b)
    prefix = np.empty((m, b, 3, 3))
    prefix.reshape(m * b, 3, 3)[:n] = steps
    prefix.reshape(m * b, 3, 3)[n:] = np.eye(3)
    for j in range(1, b):
        prefix[:, j] = prefix[:, j] @ prefix[:, j - 1]
    starts = np.empty((m, 3, 3))
    starts[0] = first
    for k in range(1, m):
        np.matmul(prefix[k - 1, -1], starts[k - 1], out=starts[k])
    frames = np.empty((n + 1, 3, 3))
    frames[0] = first
    frames[1:] = (prefix @ starts[:, None]).reshape(m * b, 3, 3)[:n]
    return frames


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(sqrt x)/sqrt x for x > 0, sin(sqrt -x)/sqrt -x for x < 0, 1 at 0."""
    r = np.sqrt(np.abs(x))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.where(x > 0.0, np.sinh(r), np.sin(r)) / r
    return np.where(r == 0.0, 1.0, s)
