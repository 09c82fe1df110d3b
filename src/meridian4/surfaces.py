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

The interpolants are :class:`scipy.interpolate.BPoly` objects whose
Bernstein coefficients :func:`_hermite` computes for all intervals at once.
It performs the same floating-point operations as
``BPoly.from_derivatives``, which loops over the intervals in Python, so the
coefficients are bit-identical and about a hundred times cheaper to build.
The step powers h^q use ``np.float_power``, which rounds like the scalar
``pow`` that scipy applies per interval.  numpy's SIMD array ``h**q`` may
not: with numpy 2.4 on x86-64 it differed in the last bit for 172 of
200,000 random steps at q = 2, and ``float_power`` for none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BPoly, CubicSpline
from scipy.special import comb, poch

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
    """a x + b e4 for 3-vectors x of span{e1,e2,e3}, broadcast to ``shape + (4,)``."""
    out = np.empty(shape + (4,))
    out[..., :3] = np.asarray(a)[..., None] * x
    out[..., 3] = b
    return out


def _hermite(x: np.ndarray, y: np.ndarray) -> BPoly:
    """Hermite interpolant equal, bit for bit, to ``BPoly.from_derivatives(x, y)``.

    ``y`` has shape (len(x), d): the value and first d - 1 derivatives
    at each knot.  Each interval gets the Bernstein coefficients of the
    degree 2d - 1 polynomial matching both ends, computed as in scipy's
    ``BPoly._construct_from_derivatives`` but over all intervals at once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y.shape[1]
    n = 2 * d
    h = np.diff(x)
    ya, yb = y[:-1], y[1:]
    c = np.empty((n, len(h)))
    for q in range(d):
        hq = np.float_power(h, q)
        c[q] = ya[:, q] / poch(n - q, q) * hq
        for j in range(q):
            c[q] -= (-1) ** (j + q) * comb(q, j) * c[j]
        c[-q - 1] = yb[:, q] / poch(n - q, q) * (-1) ** q * hq
        for j in range(q):
            c[-q - 1] -= (-1) ** (j + 1) * comb(q, j + 1) * c[-q + j]
    return BPoly(c, x)


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

        self._Pf = _hermite(profile.us, np.column_stack([profile.f, profile.fp, profile.fpp]))
        self._Pf_d1 = self._Pf.derivative()
        # f'' is interpolated by value: twice-differentiating the Hermite
        # position interpolant hits an eps/h^2 roundoff floor, while the
        # spline through the stored f'' samples stays at the data's own
        # accuracy (the analytic minimality checks need ~1e-10 here).
        if len(profile.us) >= 4:
            self._Pf_d2 = CubicSpline(profile.us, profile.fpp)
        else:
            self._Pf_d2 = self._Pf.derivative(2)
        self._Pg = _hermite(profile.us, np.column_stack([profile.g, profile.gp, profile.gpp]))
        self._Pg_d1 = self._Pg.derivative()

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

    def profile_values(self, u):
        """(f, f', f'', g, g') at arbitrary u inside the profile window."""
        u, _, _ = self._checked(u, self.v_span[0])
        return (
            self._Pf(u),
            self._Pf_d1(u),
            self._Pf_d2(u),
            self._Pg(u),
            self._Pg_d1(u),
        )

    def immersion(self, u, v) -> np.ndarray:
        """Evaluate z(u, v) = f(u) l(v) + g(u) e4; broadcasts, returns (..., 4).

        f and g are evaluated on u and l on v before the product, so a
        product grid costs one evaluation per grid line.
        """
        u, v, shape = self._checked(u, v)
        return _lift(self._Pf(u), self.curve.frame_at(v)[..., 0, :], self._Pg(u), shape)

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
        f = self._Pf(u)
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}; frame undefined")
        fp = self._Pf_d1(u)
        gp = self._Pg_d1(u)
        l, t, n = np.moveaxis(self.curve.frame_at(v), -2, 0)
        n2 = _lift(-self.family.alpha * gp, l, fp, shape)
        return _lift(fp, l, gp, shape), _lift(1.0, t, 0.0, shape), _lift(1.0, n, 0.0, shape), n2

    def mean_curvature(self, u, v) -> MeanCurvatureDecomp:
        """Closed-form mean curvature decomposition at (u, v).

        h1 multiplies the directrix normal n1 and carries the spherical
        curvature kappa; h2 multiplies n2 and carries the profile's
        governing expression f f'' + f'^2 +- 1.  Degenerate spots (f -> 0
        or a vanishing g'^2 radicand, where n2 blows up) raise
        :class:`DomainError`.
        """
        u, v, shape = self._checked(u, v)
        f = self._Pf(u)
        fp = self._Pf_d1(u)
        fpp = self._Pf_d2(u)
        gp = self._Pg_d1(u)
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}")
        radicand = self.family.gprime_radicand(fp)
        if np.min(np.abs(radicand), initial=np.inf) <= 1e-10:
            raise DomainError(
                "meridian speed radicand g'^2 vanishes on the requested set; "
                "the second normal degenerates there"
            )
        # h1 and h2 are both u-factors; f broadcast to the grid makes them grid-shaped
        f = np.broadcast_to(f, shape)
        h1, h2 = self.family.h_coefficients(self.curve.kappa, f, fp, fpp, gp)
        _, _, n1, n2 = self.frames(u, v)
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
        f, _, _, g, _ = src.profile_values(u)
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
