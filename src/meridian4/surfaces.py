"""Assembly and analytic geometry of Lorentz meridian surfaces in E^4_2.

A meridian surface is z(u, v) = f(u) l(v) + g(u) e4, where l is a unit
directrix on a carrier quadric in span{e1, e2, e3} and (f, g) a unit-speed
meridian profile.  This module glues a :class:`~meridian4.curves.FrameField`
and a :class:`~meridian4.profiles.MeridianProfile` into an evaluable
immersion with adapted frames and the closed-form mean curvature
decomposition, and implements the neutral-space congruence transform that
carries each family to its "tilde" partner.

The directrix frame (l, t, n) is read from
:meth:`~meridian4.curves.FrameField.frame_at`, the exact flow at any v, so
it has no interpolation error.  Hermite interpolation is for the profile
only: f and g are quintic between the samples, matching the stored first
and second derivatives, so finite-difference probes of the immersion see a
C^2 surface whose interpolation error sits far below the FD truncation
error.

The interpolants are numpy kernels that give the bits of scipy's
``BPoly.from_derivatives`` (f, g and their derivatives) and ``CubicSpline``
(f''), without importing scipy.  :func:`_hermite` computes the Bernstein
coefficients of all intervals at once with the floating-point operations
of scipy's per-interval loop, and :class:`_ProfileAt` evaluates them as
scipy's ``evaluate_bernstein`` does.  Powers use ``np.float_power``, which
rounds like the scalar ``pow`` of scipy's compiled code.  numpy's SIMD
array ``h**q`` may not: with numpy 2.4 on x86-64 it differed in the last
bit for 172 of 200,000 random steps at q = 2, and ``float_power`` for none.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import SIG4, inner
from .curves import ChartKind, FrameField, _check_window, chart, chart_params
from .errors import DomainError
from .families import MeridianFamily
from .profiles import MeridianProfile

__all__ = [
    "MeridianSurface",
    "MeanCurvatureDecomp",
    "assemble",
    "TRANSFORM_T",
    "transform_T",
    "TildeKind",
    "TildeSurface",
    "tilde_surface",
]


def _lift(a, x: np.ndarray, b, shape: tuple[int, ...]) -> np.ndarray:
    """a x + b e4 for 3-vectors x of span{e1,e2,e3}, broadcast to ``shape + (4,)``.

    One product per component, so numpy's inner loop runs along the points,
    not along the three components of each point.
    """
    out = np.empty(shape + (4,))
    a = np.asarray(a)
    for k in range(3):
        np.multiply(a, x[..., k], out=out[..., k])
    out[..., 3] = b
    return out


def _hermite(x: np.ndarray, *ys: np.ndarray) -> list[np.ndarray]:
    """Bernstein coefficients, shape (2d, len(x) - 1), of the Hermite
    interpolant ``BPoly.from_derivatives(x, y)`` for each y, equal to scipy's
    bit for bit.

    Each y has shape (len(x), d): the value and first d - 1 derivatives at
    each knot.  Each interval gets the coefficients of the degree 2d - 1
    polynomial matching both ends, computed as in scipy's
    ``BPoly._construct_from_derivatives`` but over all intervals at once,
    with the step powers h^q shared by every y (h^0 = 1 exactly in ``pow``).
    """
    x = np.asarray(x, dtype=float)
    d = np.shape(ys[0])[1]
    n = 2 * d
    h = np.diff(x)
    steps = [1.0] + [np.float_power(h, q) for q in range(1, d)]
    out = []
    for y in ys:
        y = np.asarray(y, dtype=float)
        ya, yb = y[:-1], y[1:]
        c = np.empty((n, len(h)))
        for q, hq in enumerate(steps):
            rising = float(math.prod(range(n - q, n)))  # the Pochhammer symbol (n - q)_q
            c[q] = ya[:, q] / rising * hq
            for j in range(q):
                c[q] -= (-1) ** (j + q) * math.comb(q, j) * c[j]
            c[-q - 1] = yb[:, q] / rising * (-1) ** q * hq
            for j in range(q):
                c[-q - 1] -= (-1) ** (j + 1) * math.comb(q, j + 1) * c[-q + j]
        out.append(c)
    return out


def _tridiagonal(lower: list, diag: list, upper: list, rhs: list) -> list:
    """Solve a tridiagonal system by the elimination of LAPACK's ``dgtsv``.

    Row by row, as dgtsv does for one right-hand side, but with no row
    interchanges: the caller's system must keep every pivot at least as
    large as the sub-diagonal entry below it.  dgtsv's back substitution
    also subtracts its zeroed multiplier times x[i + 2], which can change
    only the sign of a zero; that term is left out.
    """
    d, b = diag[0], rhs[0]
    ds, bs = [d], [b]
    for lo, dd, up, r in zip(lower, diag[1:], upper, rhs[1:]):
        fact = lo / d
        d = dd - fact * up
        b = r - fact * b
        ds.append(d)
        bs.append(b)
    x = bs[-1] / ds[-1]
    out = [x]
    for r, up, d in zip(bs[-2::-1], upper[::-1], ds[-2::-1]):
        x = (r - up * x) / d
        out.append(x)
    out.reverse()
    return out


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients, shape (4, len(x) - 1), of the not-a-knot
    cubic spline through (x, y): bit for bit ``CubicSpline(x, y).c``.

    The slopes solve scipy's tridiagonal system with :func:`_tridiagonal`.
    It needs at least 4 knots on a near-uniform grid, as profiles have:
    there the first pivot equals the entry below it and every later row is
    diagonally dominant, so dgtsv would interchange no rows either.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    steps = dx.tolist()
    diag = np.concatenate([dx[1:2], 2 * (dx[:-1] + dx[1:]), dx[-2:-1]])
    rhs = np.empty(len(x))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.array(_tridiagonal(steps[1:] + [float(x[-1] - x[-3])], diag.tolist(),
                              [float(x[2] - x[0])] + steps[:-1], rhs.tolist()))
    # the cubic Hermite coefficients of each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


# comb(k, j) for j = 0..k: scipy's ``evaluate_bpoly1`` builds them by a running
# product, which is exact for these k
_WEIGHTS = {k: np.array([float(math.comb(k, j)) for j in range(k + 1)]) for k in (4, 5)}
_EXPONENTS = np.arange(2.0, 6.0)


class _ProfileAt:
    """A surface's profile interpolants at fixed u.

    One interval search and one set of basis powers serve every factor, and
    each factor is evaluated only when asked for.  The interval i has
    x_i <= u < x_{i+1}, the last one closed and the end ones extended, as
    scipy's ``find_interval``.  The Bernstein factors (f, g: degree 5; f',
    g': degree 4) are sum_j comb(k, j) s^j (1 - s)^(k - j) c_j with
    s = (u - x_i) / (x_{i+1} - x_i), summed over j in order from 0.0, as
    scipy's ``evaluate_bpoly1``; s^0 = 1 and s^1 = s are exact in ``pow``.
    A sum that starts from 0.0 and one that adds 0.0 last give the same
    bits: the partial sums differ at most in the sign of a zero.
    """

    def __init__(self, surface: MeridianSurface, u: np.ndarray) -> None:
        self._surface = surface
        # the interior knots at or below u: the interval, clamped to the end ones
        self._i = surface._x[1:-1].searchsorted(u, side="right")
        self._t = u - surface._x[self._i]
        self._s = self._t / surface._dx[self._i]
        self._powers = None
        self._bases: dict[int, np.ndarray] = {}

    def _basis(self, k: int) -> np.ndarray:
        """comb(k, j) s^j (1 - s)^(k - j) for j = 0..k, stacked on a leading axis."""
        if self._powers is None:
            s = self._s
            # s^j and (1 - s)^j for j = 0..5 on the two leading axes
            pw = self._powers = np.empty((2, 6) + np.shape(s))
            pw[:, 0] = 1.0
            pw[0, 1] = s
            np.subtract(1.0, s, out=pw[1, 1, ...])
            np.float_power(pw[:, 1:2], _EXPONENTS.reshape((1, -1) + (1,) * np.ndim(s)),
                           out=pw[:, 2:])
        if k not in self._bases:
            w = _WEIGHTS[k].reshape((-1,) + (1,) * np.ndim(self._s))
            self._bases[k] = w * self._powers[0, : k + 1] * self._powers[1, k::-1]
        return self._bases[k]

    def _bernstein(self, c: np.ndarray):
        # a reduction over the leading axis adds its k + 1 rows in order
        return np.add.reduce(self._basis(len(c) - 1) * c[:, self._i], axis=0, initial=0.0)

    def f(self):
        return self._bernstein(self._surface._cf)

    def fp(self):
        return self._bernstein(self._surface._cfp)

    def g(self):
        return self._bernstein(self._surface._cg)

    def gp(self):
        return self._bernstein(self._surface._cgp)

    def fpp(self):
        """f'' from the spline, as scipy's PPoly evaluates it: sum_j c_j t^(3-j)
        with t = u - x_i, the powers by repeated products, summed from the
        constant term; or, below 4 knots, the second derivative of f, as
        scipy's ``evaluate_bpoly1`` evaluates a cubic."""
        c = self._surface._fpp_coef()[:, self._i]
        if len(self._surface._x) >= 4:
            t = self._t
            t2 = t * t
            return (((c[3] + c[2] * t) + c[1] * t2) + c[0] * (t2 * t)) + 0.0
        s = self._s
        s1 = 1.0 - s
        return (c[0] * s1 * s1 * s1 + c[1] * 3.0 * s1 * s1 * s
                + c[2] * 3.0 * s1 * s * s + c[3] * s * s * s)


@dataclass(frozen=True)
class MeanCurvatureDecomp:
    """Mean curvature in the adapted normal frame: H = h1 n1 + h2 n2.

    ``norm2`` is <H, H> = eps1 h1^2 + eps2 h2^2 with the family's normal
    signs; it is the quantity the classification theorems constrain.
    Fields are scalars or arrays matching the evaluation grid.
    """

    h1: np.ndarray
    h2: np.ndarray
    vector: np.ndarray
    norm2: np.ndarray


class MeridianSurface:
    """An assembled meridian surface with analytic evaluation methods."""

    def __init__(
        self,
        family: MeridianFamily,
        curve: FrameField,
        profile: MeridianProfile,
    ) -> None:
        if profile.family is not family:
            raise ValueError(
                f"profile was built for family {profile.family.value!r}, "
                f"cannot assemble a {family.value!r} surface"
            )
        if curve.family is not family.curve_family:
            raise ValueError(
                f"a {family.value!r} surface needs a {family.curve_family.value!r} "
                f"directrix, got {curve.family.value!r}"
            )
        self.family = family
        self.curve = curve
        self.profile = profile

        # Bernstein coefficients of f, g and (as scipy's BPoly.derivative) f', g'
        self._x = profile.us
        self._dx = np.diff(self._x)
        self._cf, self._cg = _hermite(self._x,
                                      np.column_stack([profile.f, profile.fp, profile.fpp]),
                                      np.column_stack([profile.g, profile.gp, profile.gpp]))
        self._cfp = 5 * np.diff(self._cf, axis=0) / self._dx
        self._cgp = 5 * np.diff(self._cg, axis=0) / self._dx
        self._cfpp = None

    def _fpp_coef(self) -> np.ndarray:
        """Coefficients of f'', built on first use.

        f'' is interpolated by value: twice-differentiating the Hermite
        position interpolant hits an eps/h^2 roundoff floor, while the spline
        through the stored f'' samples stays at the data's own accuracy (the
        analytic minimality checks need ~1e-10 here).
        """
        if self._cfpp is None:
            if len(self._x) >= 4:
                self._cfpp = _not_a_knot(self._x, self.profile.fpp)
            else:
                self._cfpp = 4 * np.diff(self._cfp, axis=0) / self._dx
        return self._cfpp

    # ------------------------------------------------------------------

    @property
    def u_span(self) -> tuple[float, float]:
        return self.profile.u_span

    @property
    def v_span(self) -> tuple[float, float]:
        return self.curve.v_span

    def _checked(self, u, v) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(u, v) as float arrays, not broadcast, and their broadcast shape.

        u is checked here and v by :meth:`FrameField.frame_at`, which every
        v-factor goes through.  An empty broadcast is returned as empty
        arrays, unchecked.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape)
        if 0 in shape:
            return *np.broadcast_arrays(u, v), shape
        _check_window(u, self.u_span, "u out of profile domain")
        return u, v, shape

    def _profile_at(self, u) -> _ProfileAt:
        """The profile interpolants at u, which must lie in the profile window."""
        u, _, _ = self._checked(u, self.v_span[0])
        return _ProfileAt(self, u)

    def profile_values(self, u):
        """(f, f', f'', g, g') at arbitrary u inside the profile window."""
        at = self._profile_at(u)
        return at.f(), at.fp(), at.fpp(), at.g(), at.gp()

    def immersion(self, u, v) -> np.ndarray:
        """Evaluate z(u, v) = f(u) l(v) + g(u) e4; broadcasts, returns (..., 4).

        f and g are evaluated on u and l on v before the product, so a
        product grid costs one evaluation per grid line.
        """
        u, v, shape = self._checked(u, v)
        at = _ProfileAt(self, u)
        return _lift(at.f(), self.curve.frame_at(v)[..., 0, :], at.g(), shape)

    def grid_points(self, us, vs) -> np.ndarray:
        """Immersion on a product grid, shape (len(us), len(vs), 4)."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        return self.immersion(us[:, None], vs[None, :])

    def frames(self, u, v):
        """The adapted frame (X, Y, n1, n2) at (u, v), each (..., 4).

        X = z_u = f' l + g' e4,  Y = z_v / f = t,  n1 = n,
        n2 = +- g' l + f' e4 (sign per family).  The frame is pseudo-
        orthonormal with the family's causal signs.
        """
        u, v, shape = self._checked(u, v)
        at = _ProfileAt(self, u)
        f = at.f()
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}; frame undefined")
        fp = at.fp()
        gp = at.gp()
        l, t, n = np.moveaxis(self.curve.frame_at(v), -2, 0)
        return (_lift(fp, l, gp, shape), _lift(1.0, t, 0.0, shape),
                *self._normals(l, n, fp, gp, shape))

    def _normals(self, l, n, fp, gp, shape):
        """n1 = n and n2 = -alpha g' l + f' e4 from the directrix rows and the u-factors."""
        return _lift(1.0, n, 0.0, shape), _lift(-self.family.alpha * gp, l, fp, shape)

    def mean_curvature(self, u, v) -> MeanCurvatureDecomp:
        """Closed-form mean curvature decomposition at (u, v).

        h1 multiplies the directrix normal n1 and carries the spherical
        curvature kappa; h2 multiplies n2 and carries the profile's
        governing expression f f'' + f'^2 +- 1.  Degenerate spots (f -> 0
        or a vanishing g'^2 radicand, where n2 blows up) raise
        :class:`DomainError`.
        """
        u, v, shape = self._checked(u, v)
        at = _ProfileAt(self, u)
        f = at.f()
        fp = at.fp()
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}")
        radicand = self.family.gprime_radicand(fp)
        if np.min(np.abs(radicand), initial=np.inf) <= 1e-10:
            raise DomainError(
                "meridian speed radicand g'^2 vanishes on the requested set; "
                "the second normal degenerates there"
            )
        # g' only now: where it vanishes g'' is infinite, and so are g's coefficients
        fpp = at.fpp()
        gp = at.gp()
        # h1 and h2 are both u-factors; f broadcast to the grid makes them grid-shaped
        f = np.broadcast_to(f, shape)
        h1, h2 = self.family.h_coefficients(self.curve.kappa, f, fp, fpp, gp)
        l, _, n = np.moveaxis(self.curve.frame_at(v), -2, 0)
        n1, n2 = self._normals(l, n, fp, gp, shape)
        vector = h1[..., None] * n1 + h2[..., None] * n2
        s1, s2 = self.family.frame_signs[2], self.family.frame_signs[3]
        norm2 = s1 * h1 * h1 + s2 * h2 * h2
        return MeanCurvatureDecomp(h1=h1, h2=h2, vector=vector, norm2=norm2)


def assemble(
    family: MeridianFamily, curve: FrameField, profile: MeridianProfile
) -> MeridianSurface:
    """Assemble a meridian surface, enforcing curve/profile/family consistency."""
    return MeridianSurface(family, curve, profile)


# ---------------------------------------------------------------------------
# the congruence transform
# ---------------------------------------------------------------------------

#: Linear map with T e1 = e3, T e2 = e4, T e3 = e2, T e4 = e1.
#: It is an anti-isometry of the neutral metric (<Tx, Ty> = -<x, y>) with
#: T^4 = identity, and carries each meridian family onto its tilde partner.
TRANSFORM_T = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


def transform_T(x) -> np.ndarray:
    """Apply the congruence transform to 4-vectors (vectorized over leading axes)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("transform_T acts on 4-vectors")
    return x @ TRANSFORM_T.T


class TildeKind(enum.Enum):
    """The three congruence classes of transformed meridian surfaces.

    Each kind is the T-image of one source family; its directrix lands on
    the congruent carrier quadric inside span{e2, e3, e4}:

    * ``PRIME``    <- SECOND          (carrier becomes the tilde de Sitter sphere)
    * ``DOUBLE_A`` <- FIRST_SPACELIKE (carrier becomes the tilde hyperbolic sphere)
    * ``DOUBLE_B`` <- FIRST_TIMELIKE  (carrier becomes the tilde hyperbolic sphere)
    """

    PRIME = "tilde-prime"
    DOUBLE_A = "tilde-double-a"
    DOUBLE_B = "tilde-double-b"

    @property
    def source_family(self) -> MeridianFamily:
        return {
            TildeKind.PRIME: MeridianFamily.SECOND,
            TildeKind.DOUBLE_A: MeridianFamily.FIRST_SPACELIKE,
            TildeKind.DOUBLE_B: MeridianFamily.FIRST_TIMELIKE,
        }[self]

    @property
    def carrier(self) -> ChartKind:
        if self is TildeKind.PRIME:
            return ChartKind.S21_TILDE
        return ChartKind.H21_TILDE


@dataclass(eq=False)
class TildeSurface:
    """The T-image of a meridian surface.

    Evaluation is on demand: points are the transform of the source
    immersion, z~(u, v) = T z(u, v) = g(u) e1 + f(u) ltilde(v), where
    ltilde is the source directrix pushed to the tilde carrier chart.
    """

    kind: TildeKind
    source: MeridianSurface

    def immersion(self, u, v) -> np.ndarray:
        return transform_T(self.source.immersion(u, v))

    def grid_points(self, us, vs) -> np.ndarray:
        return transform_T(self.source.grid_points(us, vs))

    def chart_reference(self, u, v) -> np.ndarray:
        """Independent evaluation through the tilde carrier chart.

        Recovers the chart parameters (w1, w2) of the source directrix,
        re-expresses the transformed surface as g e1 + f * chart(tilde
        carrier; w1, w2), and returns those points.  Agreement of this
        with :meth:`immersion` is the numerical congruence certificate.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        src = self.source
        l = src.curve.frame_at(v)[..., 0, :]
        w1, w2 = chart_params(src.family.carrier, l)
        at = src._profile_at(u)
        f, g = at.f(), at.g()
        out = f[..., None] * chart(self.kind.carrier, w1, w2)
        out[..., 0] += g
        return out


def tilde_surface(kind: TildeKind, source: MeridianSurface) -> TildeSurface:
    """Wrap the T-image of ``source``, checking the family/kind pairing."""
    if source.family is not kind.source_family:
        raise ValueError(
            f"{kind.value!r} is the image of {kind.source_family.value!r} surfaces, "
            f"got a {source.family.value!r} source"
        )
    return TildeSurface(kind=kind, source=source)
