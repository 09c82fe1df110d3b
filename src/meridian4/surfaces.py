"""Assembly and analytic geometry of Lorentz meridian surfaces in E^4_2.

A meridian surface is z(u, v) = f(u) l(v) + g(u) e4, where l is a unit
directrix on a carrier quadric in span{e1, e2, e3} and (f, g) a unit-speed
meridian profile.  This module glues a :class:`~meridian4.curves.FrameField`
and a :class:`~meridian4.profiles.MeridianProfile` into an evaluable
immersion with adapted frames and the closed-form mean curvature
decomposition, and implements the neutral-space congruence transform that
carries each family to its "tilde" partner.

The directrix frame (l, t, n) is read from
:meth:`~meridian4.curves.FrameField.frame_at`, the exact flow at any v, and
the profile from :attr:`~meridian4.profiles.MeridianProfile.evaluate`,
exact at any u, so nothing is interpolated.
"""

from __future__ import annotations

import enum
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
        return self.profile.evaluate(u)

    def immersion(self, u, v) -> np.ndarray:
        """Evaluate z(u, v) = f(u) l(v) + g(u) e4; broadcasts, returns (..., 4).

        f and g are evaluated on u and l on v before the product, so a
        product grid costs one evaluation per grid line.
        """
        u, v, shape = self._checked(u, v)
        f, _, _, g, _ = self.profile.evaluate(u)
        return _lift(f, self.curve.frame_at(v)[..., 0, :], g, shape)

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
        f, fp, _, _, gp = self.profile.evaluate(u)
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}; frame undefined")
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
        f, fp, fpp, _, gp = self.profile.evaluate(u)
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
        l, _, n = np.moveaxis(self.curve.frame_at(v), -2, 0)
        n1, n2 = self._normals(l, n, fp, gp, shape)
        vector = h1[..., None] * n1 + h2[..., None] * n2
        s1, s2 = self.family.frame_signs[2], self.family.frame_signs[3]
        norm2 = s1 * h1 * h1 + s2 * h2 * h2
        return MeanCurvatureDecomp(h1=h1, h2=h2, vector=vector, norm2=norm2)


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
