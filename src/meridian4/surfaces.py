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
exact at any u, so nothing is interpolated.  A surface may be given every u
and v a run will read ahead of time (:meth:`MeridianSurface._tabulate`): it
then evaluates each once and serves later queries from that table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .curves import ChartKind, FrameField, _check_window, chart, chart_params
from .errors import DomainError
from .families import MeridianFamily
from .profiles import MeridianProfile, _distinct

__all__ = [
    "MeridianSurface",
    "MeanCurvatureDecomp",
    "TRANSFORM_T",
    "transform_T",
    "TildeKind",
    "TildeSurface",
]


def _lift(a, x: np.ndarray, b, shape: tuple[int, ...], out=None) -> np.ndarray:
    """a x + b e4 for 3-vectors x of span{e1,e2,e3}, broadcast to ``shape + (4,)``.

    One product per component, each written to its own contiguous plane of
    a (4,) + shape array (``out``, if given), so numpy's inner loops run
    along the points; the result is a view of that array with the
    coordinate axis moved last.
    """
    out = np.empty((4,) + shape) if out is None else out
    a = np.asarray(a)
    for k in range(3):
        np.multiply(a, x[..., k], out=out[k, ...])  # out[k] of a 0-d point is no view
    out[3, ...] = b
    return np.moveaxis(out, 0, -1)


def _index(table, x: np.ndarray):
    """Positions of the x among the sorted keys of ``table``, or None unless
    ``table`` is set and every x is one of its keys, exactly."""
    if table is None:
        return None
    keys = table[0]
    i = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    return i if np.array_equal(keys[i], x) else None


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
    """An assembled meridian surface, of its profile's family, with analytic evaluation methods."""

    def __init__(self, curve: FrameField, profile: MeridianProfile) -> None:
        family = profile.family
        if curve.family is not family.curve_family:
            raise ValueError(
                f"a {family.value!r} surface needs a {family.curve_family.value!r} "
                f"directrix, got {curve.family.value!r}"
            )
        self.family = family
        self.curve = curve
        self.profile = profile
        # (sorted keys, values) of the u- and v-factors; see _tabulate
        self._u_table = self._v_table = None

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
        v-factor goes through, when it is read or when it is tabulated.  An
        empty broadcast is returned as empty arrays, unchecked.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape)
        if 0 in shape:
            return *np.broadcast_arrays(u, v), shape
        _check_window(u, self.u_span, "u out of profile domain")
        return u, v, shape

    def _tabulate(self, queries) -> None:
        """Evaluate the profile once on the distinct u and the directrix once
        on the distinct v of ``queries``, an iterable of (u, v) array pairs,
        and serve every later query whose u (or v) are all among them from
        these tables.

        A point's value depends on its own u (or v) alone, so a served value
        is the one a direct evaluation gives, bit for bit.  A query with any
        other point is evaluated directly.  Points outside the windows, or
        that do not evaluate, leave the surface untabulated, so that the
        queries raise as they would without a table.
        """
        us, vs = (_distinct(np.concatenate([np.ravel(x) for x in axis]))
                  for axis in zip(*queries))
        try:
            _check_window(us, self.u_span, "u out of profile domain")
            u_values = np.stack(self.profile.evaluate(us))
            v_values = self.curve.frame_at(vs)
        except DomainError:
            return
        self._u_table, self._v_table = (us, u_values), (vs, v_values)

    def _u_factors(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """(f, f', f'', g, g') at u: from the table if it holds every u."""
        i = _index(self._u_table, u)
        return self.profile.evaluate(u) if i is None else tuple(self._u_table[1][:, i])

    def _v_factors(self, v: np.ndarray) -> np.ndarray:
        """The directrix rows (l, t, n) at v: from the table if it holds every v."""
        i = _index(self._v_table, v)
        return self.curve.frame_at(v) if i is None else self._v_table[1][i]

    def profile_values(self, u):
        """(f, f', f'', g, g') at arbitrary u inside the profile window."""
        u, _, _ = self._checked(u, self.v_span[0])
        return self._u_factors(u)

    def immersion(self, u, v) -> np.ndarray:
        """Evaluate z(u, v) = f(u) l(v) + g(u) e4; broadcasts, returns (..., 4).

        f and g are evaluated on u and l on v before the product, so a
        product grid costs one evaluation per grid line.
        """
        u, v, shape = self._checked(u, v)
        f, _, _, g, _ = self._u_factors(u)
        return _lift(f, self._v_factors(v)[..., 0, :], g, shape)

    def grid_points(self, us, vs) -> np.ndarray:
        """Immersion on a product grid, shape (len(us), len(vs), 4)."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        return self.immersion(us[:, None], vs[None, :])

    def frames(self, u, v):
        """The adapted frame (X, Y, n1, n2) at (u, v), each (..., 4).

        X = z_u = f' l + g' e4,  Y = z_v / f = t,  n1 = n,
        n2 = +- g' l + f' e4 (sign per family).  The frame is pseudo-
        orthonormal with the family's causal signs.  The four are views of
        the one array :meth:`_frame` writes.
        """
        return tuple(np.moveaxis(self._frame(u, v), -2, 0))

    def _frame(self, u, v) -> np.ndarray:
        """The frame at (u, v) as one (..., 4, 4) array, row i the i-th of
        (X, Y, n1, n2): a view of a (4, 4) + S array of coordinate planes."""
        u, v, shape = self._checked(u, v)
        f, fp, _, _, gp = self._u_factors(u)
        if np.min(f, initial=np.inf) <= 1e-8:
            raise DomainError(f"warp factor f collapsed to {np.min(f):.3e}; frame undefined")
        l, t, n = np.moveaxis(self._v_factors(v), -2, 0)
        planes = np.empty((4, 4) + shape)
        for lift, out in zip(((fp, l, gp), (1.0, t, 0.0), *self._normals(l, n, fp, gp)), planes):
            _lift(*lift, shape, out)
        return np.moveaxis(planes, (0, 1), (-2, -1))

    def _normals(self, l, n, fp, gp):
        """n1 = n and n2 = -alpha g' l + f' e4, each as the (a, x, b) of
        a x + b e4, from the directrix rows and the u-factors."""
        return (1.0, n, 0.0), (-self.family.alpha * gp, l, fp)

    def frame_table(self, u):
        """The derivative table of the adapted frame F = (X, Y, n1, n2) at u.

        Two coefficient arrays A and B of shape (..., 4, 4) with D_X F = A F
        and D_Y F = B F, where D_X = d/du and D_Y = (1/f) d/dv::

            D_X X  = kappa_m n2           D_Y X  = (f'/f) Y
            D_X Y  = 0                    D_Y Y  = (f'/f) X - beta (k/f) n1 - (g'/f) n2
            D_X n1 = 0                    D_Y n1 = alpha beta (k/f) Y
            D_X n2 = -alpha kappa_m X     D_Y n2 = -alpha (g'/f) Y

        with k the directrix curvature and kappa_m = -alpha f''/g' the meridian
        curvature; the -alpha of n2 (:meth:`_normals`) is that of its rates.
        """
        u, _, _ = self._checked(u, self.v_span[0])
        f, fp, fpp, _, gp = self._u_factors(u)
        alpha, beta, k = self.family.alpha, self.family.beta, self.curve.kappa
        kappa_m = -alpha * fpp / gp
        A, B = np.zeros((2,) + u.shape + (4, 4))
        A[..., 0, 3], A[..., 3, 0] = kappa_m, -alpha * kappa_m
        B[..., 0, 1] = B[..., 1, 0] = fp / f
        B[..., 1, 2], B[..., 1, 3] = -beta * k / f, -gp / f
        B[..., 2, 1], B[..., 3, 1] = alpha * beta * k / f, -alpha * gp / f
        return A, B

    def mean_curvature(self, u, v) -> MeanCurvatureDecomp:
        """Closed-form mean curvature decomposition at (u, v).

        h1 multiplies the directrix normal n1 and carries the spherical
        curvature kappa; h2 multiplies n2 and carries the profile's
        governing expression f f'' + f'^2 +- 1.  Degenerate spots (f -> 0
        or a vanishing g'^2 radicand, where n2 blows up) raise
        :class:`DomainError`.
        """
        u, v, shape = self._checked(u, v)
        f, fp, fpp, _, gp = self._u_factors(u)
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
        l, _, n = np.moveaxis(self._v_factors(v), -2, 0)
        n1, n2 = (_lift(*lift, shape) for lift in self._normals(l, n, fp, gp))
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
    """The T-image of a meridian surface; its :attr:`kind` follows from the
    source's family.

    Evaluation is on demand: points are the transform of the source
    immersion, z~(u, v) = T z(u, v) = g(u) e1 + f(u) ltilde(v), where
    ltilde is the source directrix pushed to the tilde carrier chart.
    """

    source: MeridianSurface

    @property
    def kind(self) -> TildeKind:
        """The kind whose :attr:`TildeKind.source_family` is the source's family."""
        return next(k for k in TildeKind if k.source_family is self.source.family)

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
        src = self.source
        # l on v and (f, g) on u, broadcast only in the product, as in immersion
        w1, w2 = chart_params(src.family.carrier, src.curve.frame_at(v)[..., 0, :])
        f, _, _, g, _ = src.profile_values(u)
        out = f[..., None] * chart(self.kind.carrier, w1, w2)
        out[..., 0] += g
        return out
