"""Meridian profiles (f, g): closed forms and first-integral reductions.

A profile is the pair of functions (f(u), g(u)) entering the meridian
immersion z = f l + g e4: an exact evaluator of (f, f', f'', g, g') at any
u of its window, which every reader calls where it reads, on a grid of
nodes that keeps no values.  One rule (:func:`_nodes`) places the nodes of
every profile: uniform over the window, spaced close to ``step``.  Three
constructions produce profiles:

* :func:`minimal_profile` - the closed-form solutions of the minimality
  equation f f'' + f'^2 +- 1 = 0, one two-parameter family per surface
  family;
* :func:`phi_closed_form` + :func:`integrate_profile` - the quasi-minimal
  and constant-<H,H> profiles, obtained by reducing the second-order ODE
  to f' = phi(f) through an integrating-factor first integral and
  inverting u(f) = u0 + int dt / phi(t) by quadrature, with exact
  truncation at the end u* of phi's domain interval;
* :func:`profile_from_callable` - user-supplied f with the family's g'
  rule, for experiments and negative controls.

All constructions keep f > 0 at the nodes (the warp factor divides the
surface geometry) and record how they were made, so the residual checker
can warn when a profile is tested against a law it was not built for.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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


#: Cap on the samples of one grid: a profile's nodes, a case's nu x nv grid
#: and its probe points.
_MAX_SAMPLES = 10**6


def _nodes(u_span, step: float) -> np.ndarray:
    """The nodes of a profile: uniform over ``u_span``, both ends included,
    spaced close to ``step``, and at least 3.

    Validates the span and the step, and refuses, before anything is
    allocated, more than :data:`_MAX_SAMPLES` nodes.
    """
    lo, hi = float(u_span[0]), float(u_span[1])
    if not (np.isfinite([lo, hi]).all() and hi > lo):
        raise ValueError(f"u_span must be finite and increasing (u1 > u0), got {u_span}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    n = (hi - lo) / step
    if not n + 1.0 <= _MAX_SAMPLES:
        raise DomainError(f"u-grid of {n + 1.0:.4g} samples (span {hi - lo:.6g}, "
                          f"step {step:.3g}) exceeds the cap of {_MAX_SAMPLES} samples")
    return np.linspace(lo, hi, max(2, int(round(n))) + 1)


@dataclass(eq=False)
class MeridianProfile:
    """A profile's exact evaluator on the window of its nodes ``us``.

    ``evaluate`` maps u in ``u_span`` to (f, f', f'', g, g') at u, each of
    u's shape, exactly: the closed forms, the inverted first integral or the
    user's callables.  The profile stores no values; a surface tabulates
    those a case reads (:meth:`~meridian4.surfaces.MeridianSurface._tabulate`).
    Construction enforces a uniform grid of at least 3 nodes; each
    constructor keeps the values finite and f > 0 at the nodes (the geometry
    divides by f).
    ``truncated`` marks ODE profiles that end before the requested window
    end; ``us`` then covers only the reached span.  ``truncation_reason``
    says why (None when the profile is whole): ``"phi-inadmissible"`` (the
    domain interval of phi ends at u*) or ``"left-domain"`` (the scan window
    of phi's domain ends at u*).
    """

    family: MeridianFamily
    us: np.ndarray
    params: ProfileParams
    provenance: Provenance
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]] = field(repr=False)
    truncated: bool = False
    truncation_reason: str | None = None

    def __post_init__(self) -> None:
        self.us = us = np.asarray(self.us, dtype=float)
        if len(us) < 3:
            raise DomainError(f"a profile needs at least 3 samples, got {len(us)}")
        steps = np.diff(us)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("profile u-grid must be uniform")

    @property
    def u_span(self) -> tuple[float, float]:
        return float(self.us[0]), float(self.us[-1])


# ---------------------------------------------------------------------------
# closed-form minimal profiles
# ---------------------------------------------------------------------------


def minimal_profile(
    family: MeridianFamily,
    params: ProfileParams,
    u_span: tuple[float, float],
    *,
    step: float = 1e-3,
) -> MeridianProfile:
    """The closed-form minimal profile of a family on a u-window.

    The minimality equation f f'' + f'^2 + beta = 0 integrates to
    (f^2)'' = -2 beta, so f^2 is an explicit quadratic and g follows by the
    unit-speed constraint (alpha, beta as in :mod:`meridian4.families`):

        f^2 = -beta u^2 + 2 a u + b,   needs disc = -alpha (a^2 + beta b) > 0,
        g = +- sqrt(disc) arcsin((u - a)/sqrt(disc)) + c0    if beta > 0,
        g = +- sqrt(disc) ln|u + a + f| + c0                 if beta < 0.

    So ``FIRST_TIMELIKE`` needs a^2 + b > 0, ``FIRST_SPACELIKE`` a^2 - b > 0
    and ``SECOND`` b - a^2 > 0.  The window must keep the radicand of f
    strictly positive; otherwise a :class:`DomainError` names the
    offending point.  A profile that overflows a float or varies faster
    than its nodes (length scale f^2 / sqrt(disc) under ``step``) is a
    :class:`DomainError` naming a, b and the window.  The profile's evaluator
    is the closed forms.
    """
    us = _nodes(u_span, step)
    a, b, c0, sg = params.a, params.b, params.c0, params.branch.g
    if params.branch.f < 0:
        raise DomainError(
            "the f < 0 branch violates the positive-warp invariant; it yields a "
            "congruent surface via l -> -l combined with the g sign flip"
        )
    alpha, beta = family.alpha, family.beta
    disc = family.minimal_discriminant(a, b)
    root = np.sqrt(disc)

    def evaluate(u):
        """The closed forms (f, f', f'', g, g') at u, for u where f^2 > 0,
        on a 1-d view of u: numpy scalars round ``u * u`` and ``f**3``
        differently from arrays, and a point's value must not depend on the
        shape it is asked at."""
        shape = np.shape(u)
        u = np.reshape(np.asarray(u, dtype=float), -1)
        f = np.sqrt(-beta * u * u + 2.0 * a * u + b)
        fp = (a - beta * u) / f
        with np.errstate(over="ignore"):
            fpp = alpha * disc / f**3
        if beta > 0:
            g = sg * root * np.arcsin((u - a) / root) + c0
        else:
            g = sg * root * np.log(np.abs(u + a + f)) + c0
        return tuple(x.reshape(shape) for x in (f, fp, fpp, g, sg * root / f))

    # f^2 at the nodes and at the vertex of the quadratic, its least value
    # on the window when beta < 0
    checked = np.append(us, np.clip(a / beta, us[0], us[-1]))
    radicand = -beta * checked * checked + 2.0 * a * checked + b
    i_min = int(np.argmin(radicand))
    if radicand[i_min] <= 1e-10:
        raise DomainError(
            f"u-window leaves the admissible domain: f^2 = {radicand[i_min]:.3e} "
            f"at u = {checked[i_min]:.6g}"
        )
    # f'' = alpha disc / f^3 (f^2 at the nodes) is lost where f^3 overflows,
    # and the surface's curvature terms overflow where f'' changes by more
    # than a float between nodes.  f varies on the length scale f^2 / sqrt(disc)
    # (|f''| / f = disc / f^4); on coarser nodes f'' could overflow between
    # two nodes that pass these checks.
    with np.errstate(over="ignore", invalid="ignore"):
        f3 = radicand[:-1] ** 1.5
        slopes = np.diff(alpha * disc / f3) / np.diff(us)
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
    return MeridianProfile(family, us, params, Provenance.CLOSED_FORM_MINIMAL, evaluate)


# ---------------------------------------------------------------------------
# first-integral reductions: f' = phi(f)
# ---------------------------------------------------------------------------

# Roundoff allowance at a domain edge: phi^2 and z down to
# -_ADMISSIBLE_RTOL * max(1, z^2) count as zero.
_ADMISSIBLE_RTOL = 1e-13


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
        """The closed form of z(t) for t > 0; the caller holds ``np.errstate``."""
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            # Clamp roundoff-negative phi^2 (scale of z^2) to zero instead of
            # declaring the point inadmissible right at a domain edge.
            tiny = _ADMISSIBLE_RTOL * np.maximum(1.0, z * z)
            admissible = (p2 >= -tiny) & (z >= -tiny)
        return z, p2, admissible

    def __call__(self, t) -> np.ndarray:
        _, p2, admissible = self._admissible(t)
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.law is GoverningLaw.QUASI_MINIMAL:
                out = -self.params.c / (t * t)
            else:
                k = 4.0 * self.family.cmc_inner_sign * self.params.c
                rate = np.sqrt(np.maximum(a * a + k * t * t, 0.0))
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
    and bisection (boundary accuracy ~1e-12 of the window width).

    Each edge is bisected, 0.5 (t_bad + t_good) at a time, until the
    bracket is under 1e-12 max(1, |t|) or after 60 steps.  One call of fn
    evaluates the 31 midpoints of the next five levels, and a walk down
    them takes the decisions of one midpoint per call, so an edge of n
    steps is the same float in ceil(n / 5) calls.
    """
    lo, hi = float(window[0]), float(window[1])
    ts = np.linspace(lo, hi, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    good = np.isfinite(vals) & (vals >= 0.0)

    def refine(t_bad: float, t_good: float) -> float:
        for _ in range(12):  # 60 steps, five per call
            # midpoint i halves (bads[i], goods[i]); its children 2i + 1 and
            # 2i + 2 halve what is left when it is good and when it is bad
            bads, goods, mids = [t_bad], [t_good], []
            for i in range(31):
                mids.append(0.5 * (bads[i] + goods[i]))
                bads += [bads[i], mids[i]]
                goods += [mids[i], goods[i]]
            vals = np.asarray(fn(np.asarray(mids)), dtype=float)
            i = 0
            for _ in range(5):
                if np.isfinite(vals[i]) and vals[i] >= 0.0:
                    t_good, i = mids[i], 2 * i + 1
                else:
                    t_bad, i = mids[i], 2 * i + 2
                if abs(t_good - t_bad) < 1e-12 * max(1.0, abs(t_good)):
                    return t_good
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
# profiles by quadrature of the first integral
# ---------------------------------------------------------------------------

# Gauss-Legendre rule of every quadrature panel (Golub and Welsch, 1969).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# Panels of the u(s) table whose rows the evaluator starts from.
_TABLE_PANELS = 128
_NEWTON_MAX = 16
_EPS = np.finfo(float).eps


def _contains(domain: tuple[tuple[float, float], ...], t: float) -> bool:
    slack = 1e-9
    return any(lo - slack <= t <= hi + slack for lo, hi in domain)


def _simple_roots(phi: PhiFunction, edges: tuple[float, float]) -> list[float | None]:
    """Each domain edge moved onto the simple root of phi^2 at it (None if it
    is none).

    The scan bisects an edge to ~1e-12 of its size.  Two Newton steps on
    phi^2, with (phi^2)' = -2 alpha z z', take an edge that is a simple
    root of phi^2 onto it to roundoff.  An edge where z or an inner
    radicand ends, or the end of the scan window, is no root, and Newton
    moves it far or to NaN.
    """
    t = np.asarray(edges, dtype=float)
    r = t.copy()
    for _ in range(2):
        z, p2 = phi._z_phi2(r)
        slope = -2.0 * phi.family.alpha * z * phi._z_prime(r, z)
        r = r - p2 / slope
    near = np.abs(r - t) <= 1e-10 * np.maximum(1.0, np.abs(t))
    return [float(x) if ok else None for x, ok in zip(r, near)]


class _Path:
    """t(s) = t_b + (t_e - t_b) m(s) for s in [0, 1], from the edge t_b of
    phi's domain interval behind the start to the edge t_e ahead of it.

    m is the cubic with m(0) = 0, m(1) = 1, and slope 0 at an end that is a
    simple root of phi^2 (there t = t* -+ c s^2) and 1 at any other end.
    So the rate du/ds = t'(s) / phi(t(s)) of the inverse u(f) stays smooth
    and positive on all of [0, 1], and Gauss-Legendre panels in s
    integrate it up to the root, where 1/phi itself is infinite.
    """

    def __init__(self, phi: PhiFunction, t_b: float, t_e: float, root_b: bool, root_e: bool):
        slope_b, slope_e = float(not root_b), float(not root_e)
        width = t_e - t_b
        self.phi, self.t_b, self.width = phi, t_b, width
        self.coef = (width * slope_b, width * (3.0 - 2.0 * slope_b - slope_e),
                     width * (slope_b + slope_e - 2.0))

    def t(self, s):
        c1, c2, c3 = self.coef
        return self.t_b + ((c3 * s + c2) * s + c1) * s

    def slope(self, s):
        """t'(s)."""
        c1, c2, c3 = self.coef
        return (3.0 * c3 * s + 2.0 * c2) * s + c1

    def start(self, f0: float) -> float:
        """The s in [0, 1) with t(s) = f0, for f0 from t(0) up to before t(1).

        t is monotone, so [0, 1] brackets the root.  Each Newton step
        shrinks the bracket, and a step that would leave it is a bisection
        instead; the last step is under an ulp of s.
        """
        sign = math.copysign(1.0, self.width)
        lo, hi, s = 0.0, 1.0, min(max((f0 - self.t_b) / self.width, 0.0), 1.0)
        for _ in range(100):
            miss = sign * (self.t(s) - f0)
            if miss == 0.0:
                break
            lo, hi = (lo, s) if miss > 0.0 else (s, hi)
            slope = sign * self.slope(s)
            nxt = s - miss / slope if slope > 0.0 else hi
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - s) <= _EPS * s:
                return nxt
            s = nxt
        return s

    def rates(self, s):
        """du/ds, du/dt = 1/phi and z along the path, inside phi's domain interval.

        Between the edges z >= 0, so g' = sign_g z (the g' radicand is z^2).
        """
        phi = self.phi
        z = phi._z(self.t(s))
        dudt = 1.0 / (phi.params.branch.phi * np.sqrt(phi.family.phi2_from_z2(z * z)))
        return self.slope(s) * dudt, dudt, z

    def panels(self, a: np.ndarray, b: np.ndarray, ends: np.ndarray):
        """int du/ds ds and int dg/ds ds over each [a_j, b_j] by one
        Gauss-Legendre panel, and du/ds, du/dt and z at ``ends``."""
        half = 0.5 * (b - a)
        rate, dudt, z = self.rates(
            np.concatenate([(a[:, None] + half[:, None] * (1.0 + _GL_NODES)).ravel(), ends]))
        m = rate.size - ends.size
        # a row sum adds each panel's terms in one order whatever the number
        # of panels, where a matrix-vector product need not
        du, dg = (half * np.add.reduce(r[:m].reshape(-1, _GL_NODES.size) * _GL_WEIGHTS, axis=1)
                  for r in (rate, self.phi.params.branch.g * z * rate))
        return du, dg, rate[m:], dudt[m:], z[m:]

    def sweep(self, s: np.ndarray):
        """u - u0 and g - c0 at the rows s, as cumulative sums of one
        Gauss-Legendre panel between consecutive rows, and du/ds at each row."""
        du, dg, rate, _, _ = self.panels(s[:-1], s[1:], s)
        return *(np.concatenate([[0.0], np.cumsum(x)]) for x in (du, dg)), rate


class _Inverse:
    """A quasi-minimal or CMC profile at any u of its window, from the rows
    (s_k, u_k, g_k, du/ds) of a table of u - u0 and g - c0 along the path.

    A query u lies in the row interval k with u_k <= u - u0 < u_{k+1}, or
    in the first or last one in the slack outside the table.  The cubic
    Hermite inverse of rows k and k + 1 guesses s, or their chord where it
    leaves the interval: du/ds is 0/0 at a root end, and tends to 0 where
    phi is unbounded (phi ~ 1/t near t = 0).  One Gauss-Legendre panel
    from s_k gives the miss m = u_k + int_{s_k}^{s} du/ds ds - (u - u0),
    corrected to first order: f = t(s) - m phi and g = g(s) - m g'.  A point
    is done when the remainder of that correction, m^2/2 |f''| and
    m^2/2 |g''| at t(s), is under an ulp of f and of g, as it is after the
    table's guess (m ~ 1e-9), or when m is at roundoff; the others take
    Newton steps on one panel each.  Each point is decided on its own miss,
    so its value does not depend on the other points asked for with it.  At
    u0 itself f is f0, which t(s0) may miss by an ulp.  f' = phi,
    g' = sign_g z and f'' = -alpha z z' come from z at that f.
    """

    def __init__(self, path: _Path, f0: float, u0: float, span: float, s, us, gs, rate):
        self.path, self.f0, self.u0, self.span = path, f0, u0, span
        ds, du = np.diff(s), np.diff(us)
        slope_0, slope_1 = du / rate[:-1], du / rate[1:]
        # per row interval: s_k, s_{k+1} - s_k, u_k, u_{k+1} - u_k, g_k and the
        # coefficients c1, c2, c3 of the cubic Hermite inverse
        # s_k + c1 x + c2 x^2 + c3 x^3, with x = (u - u0 - u_k) / (u_{k+1} - u_k)
        self.rows = np.column_stack([s[:-1], ds, us[:-1], du, gs[:-1], slope_0,
                                     3.0 * ds - 2.0 * slope_0 - slope_1,
                                     slope_0 + slope_1 - 2.0 * ds])

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        path, phi = self.path, self.path.phi
        # each distinct u once, sorted: a stencil's arms repeat most of them
        offsets = (u - self.u0).ravel()
        w = _distinct(offsets)
        back = np.searchsorted(w, offsets)
        k = np.clip(np.searchsorted(self.rows[:, 2], w, side="right") - 1, 0, len(self.rows) - 1)
        s_k, ds, u_k, du_k, g_k, c1, c2, c3 = self.rows[k].T
        f, g, miss = np.empty((3, w.size))
        at_u0 = w == 0.0
        todo = np.arange(w.size)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            frac = (w - u_k) / du_k
            step = ((c3 * frac + c2) * frac + c1) * frac
            s = s_k + np.where((0.0 <= step) & (step <= ds), step, frac * ds)
            s = np.minimum(np.maximum(s, 0.0), 1.0)
            for _ in range(_NEWTON_MAX):
                du, dg, rate, dudt, z = path.panels(s_k, s, s)
                t, m = path.t(s), u_k + du - w
                f[todo], g[todo], miss[todo] = t - m / dudt, g_k + dg, m
                # the remainders m^2/2 |f''| and m^2/2 |g''| of the correction,
                # f'' = -alpha z z' and g'' = sign_g z' phi at t(s), against an
                # ulp of f and of g
                tail = 0.5 * m * m * np.abs(phi._z_prime(t, z))
                exact = (tail * np.abs(z) <= _EPS * t) & (
                    tail <= _EPS * np.abs((phi.params.c0 + g_k + dg) * dudt))
                done = exact | (np.abs(m) <= 64.0 * _EPS * (self.span + np.abs(t * dudt)))
                if done.all():
                    break
                keep = ~done
                s = np.minimum(np.maximum((s - m / rate)[keep], 0.0), 1.0)
                todo, s_k, u_k, g_k, w, m = (x[keep] for x in (todo, s_k, u_k, g_k, w, m))
            else:
                raise DomainError(f"the profile inversion did not converge at u = "
                                  f"{self.u0 + w[0]:.6g}: |u(f) - u| = {abs(m[0]):.3e}")
            f[at_u0] = self.f0
            z = phi._z(f)
            fp = phi.params.branch.phi * np.sqrt(np.maximum(phi.family.phi2_from_z2(z * z), 0.0))
            fpp = -phi.family.alpha * z * phi._z_prime(f, z)
        gp = phi.params.branch.g * z
        g = phi.params.c0 + g - miss * gp
        return tuple(x[back].reshape(u.shape) for x in (f, fp, fpp, g, gp))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted; np.unique would import numpy.ma."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _invert(phi: PhiFunction, f0: float, rate0: float, u0: float, h: float, n: int):
    """How many of the nodes u0 + h i, i = 0..n, come before the end u* of
    f0's domain interval, why the rest are cut (None if none is), and the
    profile's evaluator (None if the path ends at f0)."""
    offsets = h * np.arange(n + 1)
    sign = 1.0 if rate0 > 0.0 else -1.0
    lo, hi = next(iv for iv in phi.domain if _contains((iv,), f0))
    t_b, t_e = (lo, hi) if sign > 0.0 else (hi, lo)
    # phi is still admissible past the end of the scan window
    beyond = phi(t_e + sign * 1e-9 * max(1.0, abs(t_e)))
    cut = "left-domain" if np.isfinite(beyond) else "phi-inadmissible"
    root_b, root_e = _simple_roots(phi, (t_b, t_e))
    t_b = t_b if root_b is None else root_b
    t_e = t_e if root_e is None else root_e
    if not sign * (f0 - t_b) > 0.0:
        # f0 on the edge behind it, or within the slack outside it
        t_b, root_b = f0, None
    path = _Path(phi, t_b, t_e, root_b is not None, root_e is not None)
    if not sign * (path.t(1.0) - f0) > 0.0:
        return 1, cut, None
    s0 = path.start(f0)

    # Tabulate u(s) coarsely up to the edge, then finely up to the row the
    # last node reaches, again while that is under half of the table.  When
    # the nodes may pass the edge, the fine table ends there and its last
    # row is u*.
    table = np.linspace(s0, 1.0, _TABLE_PANELS // 8 + 1)
    for zoom in range(4):
        if zoom:
            table = np.linspace(s0, table[reach], _TABLE_PANELS + 1)
        us, gs, rate = path.sweep(table)
        if not np.all(np.isfinite(us)):
            raise DomainError(f"phi is not finite inside its domain interval {(lo, hi)}, "
                              f"between two samples of the domain scan")
        reach = min(int(np.searchsorted(us, offsets[-1])), len(us) - 1)
        if zoom and reach > _TABLE_PANELS // 2:
            break
    count = int(np.searchsorted(offsets, us[-1], side="right"))
    reason = cut if count <= n else None
    return count, reason, _Inverse(path, f0, u0, offsets[count - 1], table, us, gs, rate)


def integrate_profile(
    phi: PhiFunction,
    f0: float,
    u_span: tuple[float, float],
    step: float = 1e-3,
) -> MeridianProfile:
    """The profile f' = phi(f) through f(u0) = f0, by quadrature of its inverse.

    phi keeps one sign on the domain interval of f0, so f is monotone and
    its inverse is explicit: u(f) = u0 + int_{f0}^{f} dt / phi(t), and
    g = c0 + int g'(t) / phi(t) dt.  A table of u(f) and g(f) sums 12-node
    Gauss-Legendre panels in a variable that is quadratic at a simple root
    of phi^2, so that the root is integrated exactly.  The profile's
    evaluator solves u(f) = u at any u of the window by one more panel from
    the table row below u and a first-order correction, exact to roundoff
    after the table's guess, or else by Newton on that panel; a u that does
    not converge to roundoff is a :class:`DomainError` naming it.  It gives
    f' = phi(f), g' = sign_g z and f'' = -alpha z z'
    (:meth:`PhiFunction.second_derivative`) from z(f).  Construction places
    the nodes (:func:`_nodes`) and never evaluates: f stays in phi's domain.

    The truncation at the end of the domain interval is exact: the profile
    keeps the nodes with u_i <= u* = u(t*), where t* is the edge, and
    returns ``truncated=True`` with ``truncation_reason``
    ``"phi-inadmissible"`` if t* is an edge of phi's domain or
    ``"left-domain"`` if it is the end of the scan window.  Fewer than 3
    samples are a :class:`DomainError`.  Where phi(f0) = 0 and
    f''(f0) = 0 (a degenerate phi), the profile is the constant f = f0
    with g = c0 + g'(f0) (u - u0); where phi(f0) = 0 but f''(f0) != 0 (f0
    on a simple root of phi^2), f0 is a turning point of the second-order
    law and a :class:`DomainError`.
    """
    us = _nodes(u_span, step)
    n, u0 = len(us) - 1, us[0]
    f0 = float(f0)
    if not _contains(phi.domain, f0):
        raise DomainError(
            f"f0 = {f0:.6g} lies outside the admissible domain {phi.domain} of phi"
        )
    h = (us[-1] - u0) / n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rate0 = phi(f0)
        if rate0 == 0.0:
            fpp0 = phi.second_derivative(f0)
            if fpp0 != 0.0:
                raise DomainError(f"f0 = {f0:.6g} is a turning point of the profile: phi(f0) "
                                  f"= 0 but f''(f0) = {fpp0:.6g}")
            gp0 = phi.params.branch.g * float(phi.z_exact(f0))
            count, reason = n + 1, None
            evaluate = _constant(f0, phi.params.c0, u0, rate0, fpp0, gp0)
        elif np.isfinite(rate0):
            count, reason, evaluate = _invert(phi, f0, rate0, u0, h, n)
        else:
            count, reason, evaluate = 0, "phi-inadmissible", None
    if count < 3:
        raise DomainError(
            f"profile window collapsed: only {count} admissible samples from "
            f"f0 = {f0:.6g} before leaving the domain"
        )
    quasi = phi.law is GoverningLaw.QUASI_MINIMAL
    provenance = Provenance.QUASI_MINIMAL_ODE if quasi else Provenance.CMC_ODE
    return MeridianProfile(phi.family, us[:count], phi.params, provenance, evaluate,
                           truncated=reason is not None, truncation_reason=reason)


def _constant(f0: float, c0: float, u0: float, fp: float, fpp: float, gp: float):
    """The evaluator of the profile f = f0, g = c0 + g' (u - u0) of a degenerate phi."""
    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return (np.full(u.shape, f0), np.full(u.shape, fp), np.full(u.shape, fpp),
                c0 + gp * (u - u0), np.full(u.shape, gp))
    return evaluate


def profile_from_callable(
    family: MeridianFamily,
    f: Callable[[np.ndarray], np.ndarray],
    fp: Callable[[np.ndarray], np.ndarray],
    fpp: Callable[[np.ndarray], np.ndarray],
    u_span: tuple[float, float],
    *,
    step: float = 1e-3,
    params: ProfileParams | None = None,
) -> MeridianProfile:
    """Build a user-supplied profile from callables for f and its derivatives.

    g' is produced by the family's unit-speed rule (with the g branch sign
    from ``params``), and g from params.c0 by one 12-node Gauss-Legendre
    panel of g' between each pair of consecutive nodes.  The profile's
    evaluator calls f, f' and f'' at u, and adds to g at the nearest node
    one panel from there to u.  Construction evaluates it at the nodes, where
    every value must be finite, f positive and the g' radicand non-negative.
    """
    us = _nodes(u_span, step)
    params = params if params is not None else ProfileParams()

    def gprime(fp_values):
        rad = family.gprime_radicand(fp_values)
        return params.branch.g * np.sqrt(np.clip(rad, 0.0, None))

    def panel(a, b):
        """int_a^b g' du by one Gauss-Legendre panel."""
        half = 0.5 * (b - a)
        fps = np.asarray(fp(a[..., None] + half[..., None] * (1.0 + _GL_NODES)), dtype=float)
        return half * (gprime(fps) * _GL_WEIGHTS).sum(axis=-1)

    g = params.c0 + np.concatenate([[0.0], np.cumsum(panel(us[:-1], us[1:]))])

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        fu, fpu, fppu = (np.asarray(fn(u), dtype=float) for fn in (f, fp, fpp))
        near = np.clip(np.rint((u - us[0]) / (us[1] - us[0])).astype(np.intp), 0, len(us) - 1)
        return fu, fpu, fppu, g[near] + panel(us[near], u), gprime(fpu)

    values = evaluate(us)
    for name, arr in zip(("f", "fp", "fpp", "g", "gp"), values):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"profile array {name} contains non-finite values")
    fmin = float(np.min(values[0]))
    if fmin <= 0.0:
        raise DomainError(f"profile warp factor must stay positive, min f = {fmin:.3e}")
    radicand = family.gprime_radicand(values[1])
    i_min = int(np.argmin(radicand))
    if radicand[i_min] < 0.0:
        raise DomainError(
            f"user profile breaks the unit-speed constraint: g'^2 = "
            f"{radicand[i_min]:.3e} at u = {us[i_min]:.6g}"
        )
    return MeridianProfile(family, us, params, Provenance.USER_SUPPLIED, evaluate)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileResiduals:
    """Pointwise residuals of a profile against a governing law."""

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
    values: tuple[np.ndarray, ...],
) -> ProfileResiduals:
    """A profile's residuals against a governing law, point by point, from its
    ``values`` (f, f', f'', g, g') at the points, as ``profile.evaluate(u)``
    or ``surface.profile_values(u)`` gives them.

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
    params = profile.params
    expected = _LAW_FOR_PROVENANCE.get(profile.provenance)
    if expected is not None and expected is not law:
        warnings.warn(
            f"profile was built as {profile.provenance.value} but is being "
            f"checked against the {law.value} law",
            UserWarning,
            stacklevel=2,
        )

    family = profile.family
    f, fp, fpp, _, gp = values
    core = family.governing_core(f, fp, fpp)
    w2 = np.clip(family.gprime_radicand(fp), 0.0, None)
    w = np.sqrt(w2)
    if law is GoverningLaw.MINIMAL:
        governing = core
    elif law is GoverningLaw.QUASI_MINIMAL:
        governing = core - params.branch.rhs * params.a * w
    else:
        inner_rad = params.a**2 + 4.0 * family.cmc_inner_sign * params.c * f**2
        scale = np.maximum(1.0, core**2 + np.abs(inner_rad) * w2)
        governing = (core * core - inner_rad * w * w) / scale
    constraint = family.speed_residual(fp, gp)
    return ProfileResiduals(governing=governing, constraint=constraint)
