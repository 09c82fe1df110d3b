"""Unit-speed curves on the de Sitter and hyperbolic 2-spheres in E^3_1.

The directrix curves of Lorentz meridian surfaces live in the Lorentzian
3-space span{e1, e2, e3} (signature +, +, -), on one of two quadrics:

* the de Sitter sphere S^2_1(1):    <l, l> = +1,
* the hyperbolic sphere H^2_1(-1):  <l, l> = -1.

Each admissible causal type carries a Frenet system for the moving frame
(l, t, n) with a single curvature kappa = <t'(v), n(v)>.  With the frame's
causal signs (e_l, e_t, e_n) = (<l,l>, <t,t>, <n,n>), all three systems read

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

The curvature is a constant: h1 = alpha kappa / 2f is the only coefficient
of H that depends on v, and <H, H> is constant on every classified surface.
A :class:`FrameField` is that flow: :meth:`FrameField.frame_at` writes the
frame at any v in closed form as exp((v - v0) B) S0.  The flow is in the
frame group, so the Gram matrix is kept up to roundoff with no
re-orthonormalization, and nothing is sampled or stepped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# orthonormalize is unused here, but perfbench/tracing.py patches it on this module.
from .algebra import SIG3_PPM, Signature, orthonormality_deviation, orthonormalize  # noqa: F401
from .errors import DomainError

__all__ = [
    "CurveFamily",
    "ChartKind",
    "chart",
    "chart_params",
    "standard_initial_frame",
    "FrameField",
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
        return float(np.sqrt(max(self._w2(kappa), 0.0)))

    def _w2(self, kappa: float) -> float:
        """w2 = 1/2 tr B(kappa)^2 (see :meth:`growth_rate`); DomainError if not finite."""
        e_l, e_t, e_n = self.frame_signs
        k = float(kappa)
        # Expanded so that w2 = 0 comes out as +0.0 and w2 is finite wherever
        # kappa^2 is; the trace form differs in the last bit and overflows first.
        w2 = -e_t * e_n * k * k - e_t * e_l
        if not math.isfinite(w2):
            raise DomainError(f"curvature kappa = {k!r} is out of range: kappa^2 overflows")
        return w2


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


def standard_initial_frame(family: CurveFamily) -> np.ndarray:
    """The canonical frame of each family, rows (l, t, n):

    * spacelike on S^2_1: l = e1, t = e2, n = e3
    * timelike on S^2_1:  l = e1, t = e3, n = e2
    * spacelike on H^2_1: l = e3, t = e1, n = e2

    Each satisfies the family's Gram matrix exactly.
    """
    rows = {
        CurveFamily.SPACELIKE_S21: (0, 1, 2),
        CurveFamily.TIMELIKE_S21: (0, 2, 1),
        CurveFamily.SPACELIKE_H21: (2, 0, 1),
    }[family]
    return np.eye(3)[list(rows)]


@dataclass(eq=False)
class FrameField:
    """The Frenet frame field of constant curvature ``kappa`` over ``v_span``.

    ``frame0`` holds the rows (l, t, n) at v0 = ``v_span[0]``, and
    :meth:`frame_at` evaluates the exact flow exp((v - v0) B(kappa)) frame0.

    Raises
    ------
    ValueError
        If kappa is not finite, ``frame0`` violates the family Gram matrix by
        more than 1e-10, or the span is not finite and increasing.
    DomainError
        If kappa^2 overflows (kappa is named) or the frame is not finite at
        v1.  The flow's coefficients grow monotonically in |v - v0|, so the
        frame is then finite on the whole span.
    """

    family: CurveFamily
    kappa: float
    frame0: np.ndarray
    v_span: tuple[float, float]

    def __post_init__(self) -> None:
        k = float(self.kappa)
        if not math.isfinite(k):
            raise ValueError(f"kappa must be finite, got {k}")
        self.kappa = k
        self.frame0 = np.asarray(self.frame0, dtype=float)
        dev = orthonormality_deviation(self.frame0, self.family.frame_signs, CURVE_SIGNATURE)
        if not dev <= 1e-10:
            raise ValueError(
                f"initial frame violates the {self.family.value} Gram matrix "
                f"(deviation {dev:.3e} > 1e-10)"
            )
        v0, v1 = float(self.v_span[0]), float(self.v_span[1])
        if not (math.isfinite(v0) and math.isfinite(v1) and v1 > v0):
            raise ValueError(f"v_span must be finite and increasing (v1 > v0), got {self.v_span}")
        self.v_span = (v0, v1)
        if not np.isfinite(self.frame_at(v1)).all():
            raise DomainError(f"the frame is not finite at v1={v1!r}; shorten the v-span")

    def frame_at(self, v) -> np.ndarray:
        """Rows (l, t, n) at any v of the span, shape ``v.shape + (3, 3)``.

        Other v are a DomainError."""
        v = np.asarray(v, dtype=float)
        _check_window(v, self.v_span, "v out of directrix domain")
        return _flow(self.family, self.kappa, self.frame0, v - self.v_span[0])


def _check_window(x: np.ndarray, span: tuple[float, float], what: str) -> None:
    """DomainError if x is NaN or beyond ``span`` by more than 1e-12 relative."""
    lo, hi = span
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    # written so that NaN, which compares False, fails the check
    if x.size and not (x.min() >= lo - slack and x.max() <= hi + slack):
        raise DomainError(f"{what} [{lo:.6g}, {hi:.6g}]: requested [{x.min():.6g}, {x.max():.6g}]")


def _flow(family: CurveFamily, kappa: float, s0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(t B) s0, shape ``t.shape + (3, 3)``, overflow left as inf/nan: B^3 = w2 B,
    so exp(t B) = I + sinhc(w2 t^2) t B + sinhc(w2 t^2/4)^2 (t^2/2) B^2."""
    B = family.frenet_matrix(kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        x = family._w2(kappa) * t * t
        a = _sinhc(x) * t
        b = 0.5 * (_sinhc(0.25 * x) * t) ** 2
        Bs0 = B @ s0
        return s0 + a[..., None, None] * Bs0 + b[..., None, None] * (B @ Bs0)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(sqrt x)/sqrt x for x > 0, sin(sqrt -x)/sqrt -x for x < 0, 1 at 0."""
    r = np.sqrt(np.abs(x))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.where(x > 0.0, np.sinh(r), np.sin(r)) / r
    return np.where(r == 0.0, 1.0, s)
