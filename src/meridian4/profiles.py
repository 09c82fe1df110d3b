"""Meridian profiles (f, g): closed forms, first-integral reductions, ODE marching.

A profile is the pair of functions (f(u), g(u)) entering the meridian
immersion z = f l + g e4, sampled on a uniform u-grid together with the
derivatives the downstream geometry needs.  Three constructions produce
profiles:

* :func:`minimal_profile` - the closed-form solutions of the minimality
  equation f f'' + f'^2 +- 1 = 0, one two-parameter family per surface
  family;
* :func:`phi_closed_form` + :func:`integrate_profile` - the quasi-minimal
  and constant-<H,H> profiles, obtained by reducing the second-order ODE
  to f' = phi(f) through an integrating-factor first integral and marching
  f with RK4;
* :func:`profile_from_callable` - user-supplied f with the family's g'
  rule, for experiments and negative controls.

All constructions keep f > 0 on the grid (the warp factor divides the
surface geometry) and record how they were made, so the residual checker
can warn when a profile is tested against a law it was not built for.

The closed form of z(t) is written once (:meth:`PhiFunction._z`); it
serves the array path ``phi(t)`` and the RK4 stage kernel
(:meth:`PhiFunction._stage`, one Python float per stage).  On a float it
calls the numpy ufuncs ``np.log``/``np.arcsin``/``np.sqrt``, which give
the bits of the same value inside an array; ``math.log``/``math.asin``
round differently on some inputs.  ``math.sqrt`` appears only on clamped,
non-negative radicands, where it is correctly rounded like ``np.sqrt``.
So the march is bit for bit an RK4 loop over the array path, and its
first stage at each node gives the profile's f' and g'.  ``_z``
holds no ``np.errstate``: ``z_exact`` does, and ``integrate_profile``
holds one around its whole loop.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson

from .curves import _grid_intervals
from .errors import DomainError
from .families import MeridianFamily

__all__ = [
    "GoverningLaw",
    "Provenance",
    "BranchSigns",
    "ProfileParams",
    "MeridianProfile",
    "PhiFunction",
    "minimal_profile",
    "phi_closed_form",
    "integrate_profile",
    "profile_from_callable",
    "ProfileResiduals",
    "profile_residuals",
]


class GoverningLaw(enum.Enum):
    """Which curvature condition a profile is supposed to satisfy."""

    MINIMAL = "minimal"
    QUASI_MINIMAL = "quasi-minimal"
    CMC = "cmc"


class Provenance(enum.Enum):
    """How a profile was constructed."""

    CLOSED_FORM_MINIMAL = "closed-form-minimal"
    QUASI_MINIMAL_ODE = "quasi-minimal-ode"
    CMC_ODE = "cmc-ode"
    USER_SUPPLIED = "user-supplied"


_LAW_FOR_PROVENANCE = {
    Provenance.CLOSED_FORM_MINIMAL: GoverningLaw.MINIMAL,
    Provenance.QUASI_MINIMAL_ODE: GoverningLaw.QUASI_MINIMAL,
    Provenance.CMC_ODE: GoverningLaw.CMC,
}


@dataclass(frozen=True)
class BranchSigns:
    """The four independent sign choices of the profile constructions.

    f : sign of the warp factor branch (only +1 is admissible; the -1
        branch violates f > 0 and gives a surface congruent via l -> -l).
    g : sign of g' (the meridian's second component can run either way).
    phi : sign of phi = f' for the reduced first-order ODE.
    rhs : the +- on the right-hand side of the reduced linear ODE
        (equivalently, the sign split in the quasi-minimal / CMC theorems).
    """

    f: int = 1
    g: int = 1
    phi: int = 1
    rhs: int = 1

    def __post_init__(self) -> None:
        for name in ("f", "g", "phi", "rhs"):
            val = getattr(self, name)
            if val not in (1, -1):
                raise ValueError(f"branch sign {name!r} must be +1 or -1, got {val!r}")

    @classmethod
    def from_string(cls, text: str) -> "BranchSigns":
        """Parse a compact sign string like ``"+-++"`` (order: f, g, phi, rhs).

        Shorter strings leave the trailing signs at their ``+`` default.
        """
        text = text.strip()
        if not 1 <= len(text) <= 4 or any(ch not in "+-" for ch in text):
            raise ValueError(
                f"branch signs must be 1-4 characters of '+'/'-', got {text!r}"
            )
        padded = text + "+" * (4 - len(text))
        vals = [1 if ch == "+" else -1 for ch in padded]
        return cls(f=vals[0], g=vals[1], phi=vals[2], rhs=vals[3])

    def as_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.f, self.g, self.phi, self.rhs))


@dataclass(frozen=True)
class ProfileParams:
    """Parameters of the profile constructions.

    a : the directrix curvature constant entering the quasi-minimal and
        CMC laws, and the linear coefficient of the minimal closed forms.
    b : second constant of the minimal closed forms, and the integration
        constant of the CMC first integral.
    c : integration constant of the quasi-minimal first integral, and the
        target value of <H, H> for CMC profiles.
    c0 : additive constant of g (the meridian's axial offset).
    branch : sign choices, see :class:`BranchSigns`.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    c0: float = 0.0
    branch: BranchSigns = field(default_factory=BranchSigns)

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "c0"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"parameter {name} must be finite, got {val!r}")

    def to_dict(self) -> dict:
        """The JSON form, shared by case records, reports and mesh files."""
        return {"a": self.a, "b": self.b, "c": self.c, "c0": self.c0,
                "branch_signs": self.branch.as_string()}


@dataclass(eq=False)
class MeridianProfile:
    """A sampled profile on a uniform u-grid with first two derivatives.

    Invariants enforced at construction: uniform grid with at least 3
    samples, finite data, and f > 0 everywhere (the geometry divides by f).
    ``truncated`` marks ODE profiles that stopped before the requested
    window end; ``us`` then covers only the reached span.
    ``truncation_reason`` says why (None when the march did not stop):
    ``"phi-inadmissible"`` (phi not finite at an RK4 stage),
    ``"gprime-radicand"`` (the g' radicand below roundoff at a finite phi)
    or ``"left-domain"`` (the RK4 step landed outside phi's domain).
    """

    family: MeridianFamily
    us: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    params: ProfileParams
    provenance: Provenance
    truncated: bool = False
    truncation_reason: str | None = None

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("us", "f", "fp", "fpp", "g", "gp"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-dimensional")
            arrays[name] = arr
        n = len(arrays["us"])
        if n < 3:
            raise DomainError(f"a profile needs at least 3 samples, got {n}")
        if any(len(arr) != n for arr in arrays.values()):
            raise ValueError("profile arrays must share one length")
        steps = np.diff(arrays["us"])
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("profile u-grid must be uniform")
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"profile array {name} contains non-finite values")
            setattr(self, name, arr)
        fmin = float(np.min(self.f))
        if fmin <= 0.0:
            raise DomainError(f"profile warp factor must stay positive, min f = {fmin:.3e}")

    def __len__(self) -> int:
        return len(self.us)

    @property
    def u_span(self) -> tuple[float, float]:
        return float(self.us[0]), float(self.us[-1])

    @property
    def step(self) -> float:
        return float(self.us[1] - self.us[0])

    @property
    def gpp(self) -> np.ndarray:
        """g'' from the differentiated unit-speed constraint.

        Where g' touches zero (a vertical tangent of g) the rule returns a
        non-finite value; curvature evaluations guard that locus themselves.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.family.gpp_rule(self.fp, self.fpp, self.gp)


# ---------------------------------------------------------------------------
# closed-form minimal profiles
# ---------------------------------------------------------------------------


def minimal_profile(
    family: MeridianFamily,
    params: ProfileParams,
    u_span: tuple[float, float],
    n_samples: int = 801,
) -> MeridianProfile:
    """Sample the closed-form minimal profile of a family on a u-window.

    The minimality equation f f'' + f'^2 + beta = 0 integrates to
    (f^2)'' = -2 beta, so f^2 is an explicit quadratic and g follows by the
    unit-speed constraint (alpha, beta as in :mod:`meridian4.families`):

        f^2 = -beta u^2 + 2 a u + b,   needs disc = -alpha (a^2 + beta b) > 0,
        g = +- sqrt(disc) arcsin((u - a)/sqrt(disc)) + c0    if beta > 0,
        g = +- sqrt(disc) ln|u + a + f| + c0                 if beta < 0.

    So ``FIRST_TIMELIKE`` needs a^2 + b > 0, ``FIRST_SPACELIKE`` a^2 - b > 0
    and ``SECOND`` b - a^2 > 0.  The window must keep the radicand of f
    strictly positive; otherwise a :class:`DomainError` names the
    offending endpoint.  A profile that overflows a float or varies faster
    than its samples (length scale f^2 / sqrt(disc) under the spacing) is a
    :class:`DomainError` naming a, b and the window.
    """
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3, got {n_samples}")
    a, b, c0 = params.a, params.b, params.c0
    if params.branch.f < 0:
        raise DomainError(
            "the f < 0 branch violates the positive-warp invariant; it yields a "
            "congruent surface via l -> -l combined with the g sign flip"
        )
    sg = params.branch.g
    alpha, beta = family.alpha, family.beta
    disc = family.minimal_discriminant(a, b)
    root = np.sqrt(disc)

    us = np.linspace(float(u_span[0]), float(u_span[1]), n_samples)
    if us[-1] <= us[0]:
        raise ValueError(f"u_span must be increasing, got {u_span}")
    radicand = -beta * us * us + 2.0 * a * us + b
    i_min = int(np.argmin(radicand))
    if radicand[i_min] <= 1e-10:
        raise DomainError(
            f"u-window leaves the admissible domain: f^2 = {radicand[i_min]:.3e} "
            f"at u = {us[i_min]:.6g}"
        )
    f = np.sqrt(radicand)
    fp = (a - beta * us) / f
    with np.errstate(over="ignore", invalid="ignore"):
        f3 = f**3
        fpp = alpha * disc / f3
        # the surface interpolates f'' by value, through its slopes between samples
        slopes = np.diff(fpp) / np.diff(us)
    # f varies on the length scale f^2 / sqrt(disc) (|f''| / f = disc / f^4);
    # samples coarser than that leave the interpolant of f free to swing
    spacing, scale = us[1] - us[0], radicand[i_min] / root
    profile = f"the minimal profile for a = {a!r}, b = {b!r}"
    window = f"on the u-window ({float(u_span[0])!r}, {float(u_span[1])!r})"
    retry = "; set smaller a, b or another u-window (--u-min/--u-max)"
    if not (np.all(np.isfinite(f3)) and np.all(np.isfinite(slopes))):
        raise DomainError(f"{profile} overflows {window}: f^3 or the change of f'' "
                          f"between samples exceeds a float{retry}")
    if not spacing <= scale:
        raise DomainError(f"{profile} is not resolved {window}: it varies on a length "
                          f"scale of {scale:.3g}, under the sample spacing {spacing:.3g}{retry}")
    if beta > 0:
        g = sg * root * np.arcsin((us - a) / root) + c0
    else:
        g = sg * root * np.log(np.abs(us + a + f)) + c0
    gp = sg * root / f

    return MeridianProfile(
        family=family,
        us=us,
        f=f,
        fp=fp,
        fpp=fpp,
        g=g,
        gp=gp,
        params=params,
        provenance=Provenance.CLOSED_FORM_MINIMAL,
    )


# ---------------------------------------------------------------------------
# first-integral reductions: f' = phi(f)
# ---------------------------------------------------------------------------

# Roundoff allowances at a domain edge: phi^2 and z down to
# -_ADMISSIBLE_RTOL * max(1, z^2) count as zero, and so does a g'^2
# radicand down to _RADICAND_FLOOR.
_ADMISSIBLE_RTOL = 1e-13
_RADICAND_FLOOR = -1e-12


@dataclass(eq=False)
class PhiFunction:
    """The reduced right-hand side phi with f' = phi(f).

    Substituting z = sqrt(-alpha (phi^2 + beta)), always the positive root
    (alpha, beta as in :mod:`meridian4.families`), turns the quasi-minimal
    and CMC second-order ODEs into the linear equation
    z' + z/t = rhs(t)/t, whose integrating-factor solution
    is stored here in closed form (:meth:`z_exact`).  phi itself is
    recovered by inverting the substitution; evaluation returns NaN
    outside the admissible set, which the profile integrator treats as a
    truncation signal.  Admissibility means: t > 0, every radicand
    non-negative, and z(t) >= 0 - the z < 0 stretches of the linear
    solution belong to the flipped rhs/constant branch, so excluding them
    keeps the branch signs of the residual checks meaningful.

    ``domain`` lists the maximal admissible t-intervals found inside the
    search window; ``degenerate`` flags phi == 0 (then f is constant and
    the surface degenerates to a flat product).
    """

    law: GoverningLaw
    family: MeridianFamily
    params: ProfileParams
    domain: tuple[tuple[float, float], ...] = ()
    degenerate: bool = False

    @property
    def _ode_sign(self) -> float:
        """Sign carried by the inhomogeneity of the linear ODE in z.

        The branch sign ``rhs`` is the +- of the governing law
        D = +- a W (or its CMC analogue).  The substitution gives
        D = -alpha z (t z' + z), so for the second family (alpha = +1) the
        same law sign lands in the linear ODE with the opposite sign.
        """
        return -self.family.alpha * float(self.params.branch.rhs)

    def _z(self, t):
        """The closed form of z(t) for t > 0, on a Python float or an array.

        Only numpy ufuncs touch t, so a float gives the same bits as the
        same value inside an array.  The caller holds ``np.errstate``.
        """
        a = self.params.a
        s = self._ode_sign
        if self.law is GoverningLaw.QUASI_MINIMAL:
            num = self.params.c + s * a * t
        else:
            k = 4.0 * self.family.cmc_inner_sign * self.params.c
            if k > 0.0:
                rk = np.sqrt(k)
                rad = np.sqrt(a * a + k * t * t)
                integral = 0.5 * t * rad + (a * a / (2.0 * rk)) * np.log(rk * t + rad)
            else:
                # Antiderivative of sqrt(a^2 - m^2 t^2); |a| in the arcsin
                # argument keeps it valid for either sign of a.
                m = np.sqrt(-k)
                rad = np.sqrt(a * a - m * m * t * t)
                integral = 0.5 * t * rad + (a * a / (2.0 * m)) * np.arcsin(
                    m * t / abs(a)
                )
            num = self.params.b + s * integral
        return num / t

    def z_exact(self, t) -> np.ndarray:
        """Closed-form solution z(t) of the reduced linear ODE (NaN if inadmissible)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(t > 0.0, self._z(t), np.nan)

    def _z_phi2(self, t):
        """z(t) and phi^2(t), NaN where t <= 0."""
        z = self.z_exact(t)
        return z, self.family.phi2_from_z2(z * z)

    def phi_squared(self, t) -> np.ndarray:
        """phi^2(t); negative values mean t is outside the admissible set."""
        return self._z_phi2(t)[1]

    def _domain_indicator(self, t) -> np.ndarray:
        """Non-negative exactly on the admissible set (NaN-propagating)."""
        z, p2 = self._z_phi2(t)
        return np.minimum(p2, z)

    def _admissible(self, t):
        """z(t), phi^2(t) and the admissibility mask at t."""
        z, p2 = self._z_phi2(t)
        with np.errstate(invalid="ignore"):
            # Clamp roundoff-negative phi^2 (scale of z^2) to zero instead of
            # declaring the point inadmissible right at a domain edge.
            tiny = _ADMISSIBLE_RTOL * np.maximum(1.0, z * z)
            admissible = (p2 >= -tiny) & (z >= -tiny)
        return z, p2, admissible

    def _stage(self, t: float) -> tuple[float, float]:
        """(phi(t), g'(t)) at one Python float t: the RK4 stage kernel.

        phi equals ``self(t)`` bit for bit and g' equals
        ``sign_g * sqrt(max(gprime_radicand(phi), 0))``.  phi is NaN where
        ``self(t)`` is (t <= 0, NaN t, or t inadmissible); g' alone is NaN
        where phi is finite but the radicand lies below roundoff.  The
        caller holds ``np.errstate`` (:func:`integrate_profile` holds it
        around the whole march).
        """
        if not t > 0.0:
            return math.nan, math.nan
        z = float(self._z(t))
        p2 = self.family.phi2_from_z2(z * z)
        tiny = _ADMISSIBLE_RTOL * max(1.0, z * z)
        if not (p2 >= -tiny and z >= -tiny):
            return math.nan, math.nan
        phi = self.params.branch.phi * math.sqrt(max(p2, 0.0))
        rad = self.family.gprime_radicand(phi)
        if rad < _RADICAND_FLOOR:
            return phi, math.nan
        return phi, self.params.branch.g * math.sqrt(max(rad, 0.0))

    def __call__(self, t) -> np.ndarray:
        _, p2, admissible = self._admissible(t)
        with np.errstate(invalid="ignore"):
            vals = np.sqrt(np.clip(p2, 0.0, None))
        out = np.where(admissible, float(self.params.branch.phi) * vals, np.nan)
        if out.ndim == 0:
            return float(out)
        return out

    def z_prime_exact(self, t) -> np.ndarray:
        """Closed-form derivative z'(t) of the reduced linear solution."""
        return self._z_prime(t, self.z_exact(t))

    def _z_prime(self, t, z) -> np.ndarray:
        """z'(t) given z = z_exact(t); the CMC form needs z."""
        t = np.asarray(t, dtype=float)
        a = self.params.a
        s = self._ode_sign
        with np.errstate(invalid="ignore", divide="ignore"):
            if self.law is GoverningLaw.QUASI_MINIMAL:
                out = -self.params.c / (t * t)
            else:
                k = 4.0 * self.family.cmc_inner_sign * self.params.c
                rate = np.sqrt(np.clip(a * a + k * t * t, 0.0, None))
                out = (s * rate - z) / t
        return np.where(t > 0.0, out, np.nan)

    def second_derivative(self, t) -> np.ndarray:
        """f'' along solutions of f' = phi(f), in closed form.

        Along a solution, f'' = phi'(f) phi(f) = (phi^2)'/2, and
        phi^2 = -alpha z^2 - beta, so f'' = -alpha z z' with no finite
        differencing.  Returns NaN outside the admissible set, like
        :meth:`__call__`.
        """
        z, _, admissible = self._admissible(t)
        out = np.where(admissible, -self.family.alpha * z * self._z_prime(t, z), np.nan)
        if out.ndim == 0:
            return float(out)
        return out


def _positive_intervals(
    fn: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    n_scan: int = 4096,
) -> tuple[tuple[float, float], ...]:
    """Maximal subintervals of ``window`` where fn >= 0, located by scanning
    and bisection (boundary accuracy ~1e-12 of the window width)."""
    lo, hi = float(window[0]), float(window[1])
    ts = np.linspace(lo, hi, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    good = np.isfinite(vals) & (vals >= 0.0)

    def refine(t_bad: float, t_good: float) -> float:
        for _ in range(60):
            mid = 0.5 * (t_bad + t_good)
            v = float(np.asarray(fn(np.asarray([mid])), dtype=float)[0])
            if np.isfinite(v) and v >= 0.0:
                t_good = mid
            else:
                t_bad = mid
            if abs(t_good - t_bad) < 1e-12 * max(1.0, abs(t_good)):
                break
        return t_good

    # Runs of good samples start where the padded mask rises and end one
    # sample before it falls.
    edges = np.flatnonzero(np.diff(good, prepend=False, append=False))
    intervals: list[tuple[float, float]] = []
    for i, j in zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()):
        left = ts[i] if i == 0 else refine(float(ts[i - 1]), float(ts[i]))
        right = ts[j] if j == n_scan - 1 else refine(float(ts[j + 1]), float(ts[j]))
        if right > left:
            intervals.append((float(left), float(right)))
    return tuple(intervals)


def phi_closed_form(
    law: GoverningLaw,
    family: MeridianFamily,
    params: ProfileParams,
    window: tuple[float, float] = (1e-6, 20.0),
) -> PhiFunction:
    """Build the reduced right-hand side phi for a quasi-minimal or CMC profile.

    Solves the linearized first integral exactly and determines the
    admissible t-intervals (where the phi^2 radicand, the positive-root
    condition z >= 0 and, for CMC, the inner radicand a^2 +- 4 c t^2 all
    hold) inside ``window``.

    Raises ``ValueError`` for ``law=MINIMAL`` (use :func:`minimal_profile`),
    for a = 0 (the reductions assume a non-flat directrix), and for CMC
    with c = 0 (that is minimality).
    """
    if law is GoverningLaw.MINIMAL:
        raise ValueError("minimal profiles have closed forms; use minimal_profile")
    if params.a == 0.0:
        raise ValueError("the quasi-minimal and CMC reductions need a != 0")
    if law is GoverningLaw.CMC and params.c == 0.0:
        raise ValueError("CMC with c = 0 is the minimal case; use minimal_profile")
    if not (0.0 <= window[0] < window[1]):
        raise ValueError(f"window must satisfy 0 <= lo < hi, got {window}")

    phi = PhiFunction(law=law, family=family, params=params)
    lo = max(window[0], 1e-12)
    domain = _positive_intervals(phi._domain_indicator, (lo, window[1]))
    phi.domain = domain

    if domain:
        probes = np.concatenate(
            [np.linspace(ivl[0], ivl[1], 64) for ivl in domain]
        )
        p2 = phi.phi_squared(probes)
        p2 = p2[np.isfinite(p2)]
        if p2.size and float(np.max(np.abs(p2))) <= 1e-12:
            phi.degenerate = True
    return phi


# ---------------------------------------------------------------------------
# profile ODE marching
# ---------------------------------------------------------------------------


def _contains(domain: tuple[tuple[float, float], ...], t: float) -> bool:
    slack = 1e-9
    return any(lo - slack <= t <= hi + slack for lo, hi in domain)


def integrate_profile(
    phi: PhiFunction,
    f0: float,
    u_span: tuple[float, float],
    step: float = 1e-3,
) -> MeridianProfile:
    """March (f, g) with fixed-step RK4 and rebuild the full profile.

    Both components are advanced together: f' = phi(f) and
    g' = sign_g * sqrt(radicand(phi(f))), so the g samples share the
    integrator's smooth error and stay consistent with the recorded
    derivatives (a separate quadrature of g' leaves per-node noise that
    finite differencing of the interpolated surface amplifies).  The
    first stage at each node, (phi(f), g'), is that node's f' and g';
    f'' comes from the closed form :meth:`PhiFunction.second_derivative`.

    If a stage leaves the admissible domain of phi, or the g' radicand
    goes negative beyond roundoff, the march stops early and the profile
    is returned with ``truncated=True`` and a ``truncation_reason``,
    covering the reached span (at least 3 samples; otherwise a
    :class:`DomainError` is raised).  A node whose own stage fails is
    not kept.

    Each step calls :meth:`PhiFunction._stage` on four Python floats (the
    last node on one), all under one ``np.errstate``; no 0-d arrays are
    built in the loop.
    """
    n = _grid_intervals(u_span, step, var="u")
    u0, u1 = float(u_span[0]), float(u_span[1])
    f0 = float(f0)
    if not _contains(phi.domain, f0):
        raise DomainError(
            f"f0 = {f0:.6g} lies outside the admissible domain {phi.domain} of phi"
        )

    h = (u1 - u0) / n
    stage = phi._stage
    isfinite = math.isfinite

    fs, gs, fps, gps = [], [], [], []
    t = f0
    gcur = float(phi.params.c0)
    reason = None
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n + 1):
            k1, q1 = stage(t)
            if not isfinite(k1):
                reason = "phi-inadmissible"
                break
            if not isfinite(q1):
                reason = "gprime-radicand"
                break
            fs.append(t)
            gs.append(gcur)
            fps.append(k1)
            gps.append(q1)
            if i == n:
                break
            k2, q2 = stage(t + 0.5 * h * k1)
            k3, q3 = stage(t + 0.5 * h * k2)
            k4, q4 = stage(t + h * k3)
            if not (isfinite(k2) and isfinite(k3) and isfinite(k4)):
                reason = "phi-inadmissible"
                break
            if not (isfinite(q2) and isfinite(q3) and isfinite(q4)):
                reason = "gprime-radicand"
                break
            t_next = t + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (isfinite(t_next) and t_next > 0.0 and _contains(phi.domain, t_next)):
                reason = "left-domain"
                break
            gcur = gcur + (h / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            t = t_next

    if len(fs) < 3:
        raise DomainError(
            f"profile window collapsed: only {len(fs)} admissible samples from "
            f"f0 = {f0:.6g} before leaving the domain"
        )

    f = np.asarray(fs, dtype=float)
    provenance = (
        Provenance.QUASI_MINIMAL_ODE
        if phi.law is GoverningLaw.QUASI_MINIMAL
        else Provenance.CMC_ODE
    )
    return MeridianProfile(
        family=phi.family,
        us=u0 + h * np.arange(len(f)),
        f=f,
        fp=fps,
        fpp=phi.second_derivative(f),
        g=gs,
        gp=gps,
        params=phi.params,
        provenance=provenance,
        truncated=reason is not None,
        truncation_reason=reason,
    )


def profile_from_callable(
    family: MeridianFamily,
    f: Callable[[np.ndarray], np.ndarray],
    fp: Callable[[np.ndarray], np.ndarray],
    fpp: Callable[[np.ndarray], np.ndarray],
    u_span: tuple[float, float],
    n_samples: int = 801,
    params: ProfileParams | None = None,
) -> MeridianProfile:
    """Build a user-supplied profile from callables for f and its derivatives.

    g' is produced by the family's unit-speed rule (with the g branch sign
    from ``params``) and g by composite-Simpson quadrature from params.c0.
    The supplied f must keep the g' radicand non-negative on the window.
    """
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3, got {n_samples}")
    params = params if params is not None else ProfileParams()
    us = np.linspace(float(u_span[0]), float(u_span[1]), n_samples)
    fv = np.asarray(f(us), dtype=float)
    fpv = np.asarray(fp(us), dtype=float)
    fppv = np.asarray(fpp(us), dtype=float)
    radicand = family.gprime_radicand(fpv)
    i_min = int(np.argmin(radicand))
    if radicand[i_min] < 0.0:
        raise DomainError(
            f"user profile breaks the unit-speed constraint: g'^2 = "
            f"{radicand[i_min]:.3e} at u = {us[i_min]:.6g}"
        )
    gp = params.branch.g * np.sqrt(radicand)
    g = params.c0 + cumulative_simpson(gp, dx=float(us[1] - us[0]), initial=0.0)
    return MeridianProfile(
        family=family,
        us=us,
        f=fv,
        fp=fpv,
        fpp=fppv,
        g=g,
        gp=gp,
        params=params,
        provenance=Provenance.USER_SUPPLIED,
    )


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileResiduals:
    """Per-sample residuals of a profile against a governing law."""

    governing: np.ndarray
    constraint: np.ndarray

    @property
    def max_governing(self) -> float:
        return float(np.max(np.abs(self.governing)))

    @property
    def max_constraint(self) -> float:
        return float(np.max(np.abs(self.constraint)))


def profile_residuals(
    profile: MeridianProfile,
    law: GoverningLaw,
    params: ProfileParams | None = None,
) -> ProfileResiduals:
    """Evaluate a profile against a governing law, sample by sample.

    governing residual (D = f f'' + f'^2 +- 1, W = |g'| from the unit-speed
    rule):

    * MINIMAL:        D
    * QUASI_MINIMAL:  D - s_rhs * a * W
    * CMC:            (D^2 - R W^2) / max(1, D^2 + |R| W^2), R = a^2 + 4 eps c f^2
                      (sign-free squared form, relative to the size of its terms)

    constraint residual: the family's unit-speed expression in (f', g').

    Testing a profile against a law it was not built for is allowed (that
    is how negative controls work) but draws a ``UserWarning``.
    """
    params = params if params is not None else profile.params
    expected = _LAW_FOR_PROVENANCE.get(profile.provenance)
    if expected is not None and expected is not law:
        warnings.warn(
            f"profile was built as {profile.provenance.value} but is being "
            f"checked against the {law.value} law",
            UserWarning,
            stacklevel=2,
        )

    family = profile.family
    core = family.governing_core(profile.f, profile.fp, profile.fpp)
    w2 = np.clip(family.gprime_radicand(profile.fp), 0.0, None)
    w = np.sqrt(w2)
    if law is GoverningLaw.MINIMAL:
        governing = core
    elif law is GoverningLaw.QUASI_MINIMAL:
        governing = core - params.branch.rhs * params.a * w
    else:
        inner_rad = params.a**2 + 4.0 * family.cmc_inner_sign * params.c * profile.f**2
        scale = np.maximum(1.0, core**2 + np.abs(inner_rad) * w2)
        governing = (core * core - inner_rad * w * w) / scale
    constraint = family.speed_residual(profile.fp, profile.gp)
    return ProfileResiduals(governing=governing, constraint=constraint)
