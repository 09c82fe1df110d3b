"""The three families of Lorentz meridian surfaces and their sign table.

A meridian surface z(u, v) = f(u) l(v) + g(u) e4 in the neutral 4-space is
determined by a directrix curve l on a carrier quadric in span{e1,e2,e3}
and a meridian profile (f, g).  Exactly three causal combinations produce
Lorentz surfaces; "first"/"second" refer to the two types of rotational
hypersurface the surfaces sit in (de Sitter vs. hyperbolic carrier).

The families differ only in the causal signs (e_l, e_t, e_n) of the
directrix frame (:attr:`CurveFamily.frame_signs`): e_l = <l,l> is +1 on the
de Sitter carrier S^2_1(1) and -1 on the hyperbolic H^2_1(-1), e_t = +1
for a spacelike directrix, and the meridian has the opposite causal type.
Every family-dependent sign and formula is written in alpha = -e_l and
beta = -e_n; since e_l e_t e_n = -1, e_t = -alpha beta.

===============  ===============  =====  ====  ===================
family           (e_l, e_t, e_n)  alpha  beta  unit-speed meridian
===============  ===============  =====  ====  ===================
FIRST_TIMELIKE   (+1, +1, -1)       -1    +1   f'^2 - g'^2 = -1
FIRST_SPACELIKE  (+1, -1, +1)       -1    -1   f'^2 - g'^2 = +1
SECOND           (-1, +1, +1)       +1    -1   f'^2 + g'^2 = 1
===============  ===============  =====  ====  ===================

======================================  ===============================
quantity                                formula
======================================  ===============================
unit-speed residual                     f'^2 + alpha g'^2 + beta
g'^2 = z^2 in terms of phi^2 = f'^2     -alpha (phi^2 + beta)
phi^2 in terms of z^2                   -alpha z^2 - beta
g''                                     -alpha f' f'' / g'
meridian curvature kappa_m              -alpha f'' / g'
s in n2 = s g' l + f' e4                -alpha
D = f f'' + f'^2 + beta; CMC radicand   a^2 + 4 beta c t^2
(h1, h2) in H = h1 n1 + h2 n2           (alpha k / 2f, -beta D / 2f g')
minimal discriminant                    -alpha (a^2 + beta b)
(<X,X>, <Y,Y>, <n1,n1>, <n2,n2>)        (-e_t, e_t, e_n, -e_n)
======================================  ===============================
"""

from __future__ import annotations

import enum

import numpy as np

from .curves import ChartKind, CurveFamily
from .errors import DomainError

__all__ = ["MeridianFamily"]


class MeridianFamily(enum.Enum):
    """Family tag shared by meridian profiles and assembled surfaces.

    ``curve_family`` is the directrix type the family requires; ``alpha``
    and ``beta`` are the two signs of the module's table.
    """

    curve_family: CurveFamily
    alpha: float
    beta: float

    FIRST_TIMELIKE = ("first-timelike", CurveFamily.SPACELIKE_S21)
    FIRST_SPACELIKE = ("first-spacelike", CurveFamily.TIMELIKE_S21)
    SECOND = ("second", CurveFamily.SPACELIKE_H21)

    def __new__(cls, value: str, curve_family: CurveFamily) -> "MeridianFamily":
        member = object.__new__(cls)
        member._value_ = value
        member.curve_family = curve_family
        e_l, _, e_n = curve_family.frame_signs
        # Stored as plain floats: they sit on per-sample scalar paths.
        member.alpha, member.beta = -float(e_l), -float(e_n)
        return member

    @property
    def carrier(self) -> ChartKind:
        return self.curve_family.carrier

    @property
    def frame_signs(self) -> tuple[int, int, int, int]:
        """Causal signs (<X,X>, <Y,Y>, <n1,n1>, <n2,n2>) of the adapted frame."""
        _, e_t, e_n = self.curve_family.frame_signs
        return (-e_t, e_t, e_n, -e_n)

    def speed_residual(self, fp, gp):
        """Residual of the unit-speed constraint (0 for exact profiles)."""
        fp = np.asarray(fp, dtype=float)
        gp = np.asarray(gp, dtype=float)
        return fp * fp + self.alpha * gp * gp + self.beta

    def gprime_radicand(self, fp):
        """g'^2 expressed through f' by the unit-speed constraint.

        Float or array: a Python float gives a Python float, an array the
        same-shape array.
        """
        return self.z2_from_phi2(fp * fp)

    def minimal_discriminant(self, a: float, b: float) -> float:
        """-alpha (a^2 + beta b), which the minimal closed forms need positive.

        Raises :class:`DomainError` when it is not.
        """
        # Expanded so that exact cancellation gives +0.0 as in b - a^2.
        disc = -self.alpha * a * a - self.alpha * self.beta * b
        if disc <= 0.0:
            need = f"a^2 {'+' if self.beta > 0 else '-'} b" if self.alpha < 0 else "b - a^2"
            raise DomainError(
                f"the {self.value} family's minimal profile needs {need} > 0, got {disc:.6g}"
            )
        return disc

    def governing_core(self, f, fp, fpp):
        """D = f f'' + f'^2 + beta; minimality is exactly D = 0."""
        f = np.asarray(f, dtype=float)
        return f * np.asarray(fpp, dtype=float) + np.asarray(fp, dtype=float) ** 2 + self.beta

    def z2_from_phi2(self, phi2):
        """z^2 = -alpha (phi^2 + beta) in the order-reduction substitution.

        Float or array, like :meth:`gprime_radicand`.
        """
        # Expanded so that z^2 = 0 comes out as +0.0, as in 1 - phi^2.
        return -self.alpha * phi2 - self.alpha * self.beta

    def phi2_from_z2(self, z2):
        """Inverse of :meth:`z2_from_phi2`: phi^2 = -alpha z^2 - beta.

        Float or array, like :meth:`gprime_radicand`.
        """
        return -self.alpha * z2 - self.beta

    def h_coefficients(self, kappa: float, f, fp, fpp, gp):
        """Normal components (h1, h2) of H = h1 n1 + h2 n2 for directrix curvature kappa.

        Uses the signed g', so the formulas remain valid on every sign
        branch of the profile.
        """
        f = np.asarray(f, dtype=float)
        gp = np.asarray(gp, dtype=float)
        core = self.governing_core(f, fp, fpp)
        h1 = self.alpha * kappa / (2.0 * f)
        h2 = -self.beta * core / (2.0 * f * gp)
        return h1, h2
