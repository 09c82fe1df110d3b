"""Finite-difference differential geometry for immersions into E^4_2.

This module is the package's independent referee.  It knows nothing about
meridian structure: given any callable immersion (u, v) -> R^4 it computes
a second-order jet by central differences (``fd_jet``), extrapolates two
such jets at steps h and 2h to fourth order (``richardson_jet``),
assembles the fundamental forms under the neutral metric, and produces the
mean curvature vector from the trace formula

    H = (E h_vv - 2 F h_uv + G h_uu) / (2 (E G - F^2)),

which is basis-independent: no normal frame is chosen.  ``fd_jet``,
``fundamental_forms``, ``mean_curvature_fd`` and
``frame_equation_residuals`` broadcast over (u, v) arrays, a scalar point
being the 0-d case, so a whole grid is one immersion call; the stencil
keeps u and v at their own shapes, so an immersion that evaluates
u-factors on u and v-factors on v does so once per grid line.  The analytic
formulas elsewhere in the package are certified against these numbers,
never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# orthonormalize is unused here, but perfbench/tracing.py patches it on this module.
from .algebra import SIG4, Signature, inner, orthonormalize  # noqa: F401
from .errors import DegeneracyError, DomainError

__all__ = [
    "Jet2",
    "fd_jet",
    "richardson_jet",
    "FundamentalForms",
    "fundamental_forms",
    "mean_curvature_fd",
    "frame_equation_residuals",
]

# Stencil offsets, in units of h: center, +-u, +-v, and the four corners.
_DU = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_DV = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _points(u, v, h, rel_step: float):
    """(u, v) and the step, by default rel_step * max(1, |u|, |v|), padded to
    one rank but not broadcast: a product grid ``us[:, None], vs[None, :]``
    under a scalar step stays (nu, 1), (1, nv) and (1, 1)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if h is None:
        h = rel_step * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))
    h = np.asarray(h, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape, h.shape)
    if not np.all(np.broadcast_to(h, shape) > 0.0):
        raise ValueError(f"stencil step must be positive, got {h.min()}")
    return tuple(x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (u, v, h))


def _at(u, v, mask) -> str:
    """(u, v) of the first point where ``mask`` holds, for error messages."""
    i = int(np.argmax(mask))
    return f"(u={u.flat[i]:.6g}, v={v.flat[i]:.6g})"


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of an immersion at points (u, v) of shape S; the step
    ``h`` has shape S, the point ``z`` and its derivatives S + (4,)."""

    u: np.ndarray
    v: np.ndarray
    h: np.ndarray
    z: np.ndarray
    zu: np.ndarray
    zv: np.ndarray
    zuu: np.ndarray
    zuv: np.ndarray
    zvv: np.ndarray


def fd_jet(immersion, u, v, h=None) -> Jet2:
    """Second-order central-difference jet of ``immersion`` at (u, v).

    ``u``, ``v`` and ``h`` broadcast against each other to a shape S.
    ``immersion`` must accept numpy arrays (broadcasting) and return points
    with a trailing axis of length 4.  The nine stencil samples of every
    point are requested in one call, at the inputs' own shapes padded to
    one rank plus a stencil axis of 9: a product grid ``us[:, None],
    vs[None, :]`` with a scalar step sends u of shape (nu, 1, 9) and v of
    shape (1, nv, 9).  The result must have the broadcast shape
    S + (9, 4).  The default step is ``1e-4 * max(1, |u|, |v|)`` per
    point, which makes the stencil full-size.  A :class:`DomainError`
    raised by the immersion (e.g. a stencil arm leaving the domain) is
    re-raised with the requested coordinates; other errors propagate.
    """
    u, v, h = _points(u, v, h, 1e-4)
    hs = h[..., None]
    stencil_u, stencil_v = u[..., None] + hs * _DU, v[..., None] + hs * _DV
    u, v, h = np.broadcast_arrays(u, v, h)
    try:
        pts = np.asarray(immersion(stencil_u, stencil_v), dtype=float)
    except DomainError as exc:
        raise DomainError(
            f"FD stencil evaluation failed for u in [{u.min():.6g}, {u.max():.6g}], "
            f"v in [{v.min():.6g}, {v.max():.6g}] with h={h.max():.3g}: {exc}"
        ) from exc
    if pts.shape != u.shape + (9, 4):
        raise ValueError(f"immersion returned shape {pts.shape}, expected {u.shape + (9, 4)}")
    bad = ~np.all(np.isfinite(pts), axis=(-2, -1))
    if np.any(bad):
        raise DomainError(
            f"immersion returned non-finite values inside the stencil at "
            f"{_at(u, v, bad)}, h={h[bad][0]:.3g}"
        )
    c, up, um, vp, vm, pp, pm, mp, mm = np.moveaxis(pts, -2, 0)
    h2 = hs * hs
    return Jet2(
        u=u,
        v=v,
        h=h,
        z=c,
        zu=(up - um) / (2.0 * hs),
        zv=(vp - vm) / (2.0 * hs),
        zuu=(up - 2.0 * c + um) / h2,
        zvv=(vp - 2.0 * c + vm) / h2,
        zuv=(pp - pm - mp + mm) / (4.0 * h2),
    )


def richardson_jet(fine: Jet2, coarse: Jet2) -> Jet2:
    """Fourth-order jet (4 J(h) - J(2h)) / 3 from two :func:`fd_jet` jets.

    ``fine`` and ``coarse`` are jets of one immersion at the same points,
    with steps h and 2h.  The h^2 terms of the central differences cancel
    in every derivative, so the truncation error is O(h^4), and a step ten
    times the second-order one keeps the roundoff (~eps/h^2) small.  The
    result carries the fine step.
    """
    same_points = np.array_equal(fine.u, coarse.u) and np.array_equal(fine.v, coarse.v)
    if not (same_points and np.array_equal(coarse.h, 2.0 * fine.h)):
        raise ValueError("richardson_jet needs jets at the same points with steps h and 2h")

    def extrapolate(name: str) -> np.ndarray:
        return (4.0 * getattr(fine, name) - getattr(coarse, name)) / 3.0

    return replace(fine, **{name: extrapolate(name) for name in ("zu", "zv", "zuu", "zuv", "zvv")})


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental forms of an immersion at points of shape S.

    ``E``, ``F``, ``G`` and ``norm2H`` = <H, H> have shape S (floats for one
    point).  ``zu``, ``zv``, the second-form vectors ``h_**_vec`` (normal
    parts of the second derivatives) and the mean curvature vector ``H``
    from the trace formula have shape S + (4,).
    """

    E: float | np.ndarray
    F: float | np.ndarray
    G: float | np.ndarray
    zu: np.ndarray
    zv: np.ndarray
    h_uu_vec: np.ndarray
    h_uv_vec: np.ndarray
    h_vv_vec: np.ndarray
    H: np.ndarray
    norm2H: float | np.ndarray


def fundamental_forms(jet: Jet2, sig: Signature = SIG4) -> FundamentalForms:
    """Assemble the fundamental forms and mean curvature from a jet.

    Raises :class:`DegeneracyError`, naming the first such point, when
    |EG - F^2| <= 1e-10 (degenerate induced metric).
    """
    zu, zv = jet.zu, jet.zv
    E = inner(zu, zu, sig)
    F = inner(zu, zv, sig)
    G = inner(zv, zv, sig)
    W = E * G - F * F
    degenerate = np.abs(W) <= 1e-10
    if np.any(degenerate):
        raise DegeneracyError(
            f"induced metric is degenerate at {_at(jet.u, jet.v, degenerate)}: "
            f"EG - F^2 = {np.asarray(W)[degenerate][0]:.3e}"
        )
    gram = np.stack([np.stack([E, F], axis=-1), np.stack([F, G], axis=-1)], axis=-2)

    def normal_part(w: np.ndarray) -> np.ndarray:
        rhs = np.stack([inner(w, zu, sig), inner(w, zv, sig)], axis=-1)
        coeffs = np.linalg.solve(gram, rhs[..., None])[..., 0]
        return w - coeffs[..., :1] * zu - coeffs[..., 1:] * zv

    h_uu_vec = normal_part(jet.zuu)
    h_uv_vec = normal_part(jet.zuv)
    h_vv_vec = normal_part(jet.zvv)
    E_, F_, G_, W_ = (np.asarray(x)[..., None] for x in (E, F, G, W))
    H = (E_ * h_vv_vec - 2.0 * F_ * h_uv_vec + G_ * h_uu_vec) / (2.0 * W_)
    return FundamentalForms(
        E=E,
        F=F,
        G=G,
        zu=zu,
        zv=zv,
        h_uu_vec=h_uu_vec,
        h_uv_vec=h_uv_vec,
        h_vv_vec=h_vv_vec,
        H=H,
        norm2H=inner(H, H, sig),
    )


def mean_curvature_fd(immersion, u, v, h=None):
    """Mean curvature vector and <H, H> at (u, v), purely by finite differences.

    Broadcasts over (u, v) like :func:`fd_jet`.
    """
    forms = fundamental_forms(fd_jet(immersion, u, v, h))
    return forms.H, forms.norm2H


# ---------------------------------------------------------------------------
# frame-equation residuals for assembled meridian surfaces
# ---------------------------------------------------------------------------


def frame_equation_residuals(surface, u, v, h=None):
    """Residuals of the eight first-order frame derivative equations.

    For an assembled meridian surface the adapted frame (X, Y, n1, n2)
    satisfies a closed derivative table (the surface-theory analogue of
    the Frenet equations), e.g. for the first-timelike family::

        D_X X = kappa_m n2            D_Y X  = (f'/f) Y
        D_X Y = 0                     D_Y Y  = (f'/f) X - (k/f) n1 - (g'/f) n2
        D_X n1 = 0                    D_Y n1 = -(k/f) Y
        D_X n2 = kappa_m X            D_Y n2 = (g'/f) Y

    where D_X = d/du, D_Y = (1/f) d/dv, k = kappa(v) and kappa_m is the
    meridian curvature.  This function differentiates the analytic frame
    by central differences (step ``h``, default 1e-5 scaled per point) at
    the broadcast points (u, v), all in one ``surface.frames`` call, and
    returns a dict of max-abs residuals over the points, one entry per
    table line.  Agreement at the default step certifies both the frame
    and the derivative table.
    """
    u, v, h = _points(u, v, h, 1e-5)
    family = surface.family
    f, fp, fpp, _, gp = (x[..., None] for x in surface.profile_values(u))
    kappa = surface.curve.kappa_at(v)[..., None]
    kappa_m = family.meridian_curvature(fpp, gp)

    hs = h[..., None]
    # the first five stencil points: center, +-u, +-v
    X, Y, n1, n2 = surface.frames(u[..., None] + hs * _DU[:5], v[..., None] + hs * _DV[:5])

    def d_du(block: np.ndarray) -> np.ndarray:
        return (block[..., 1, :] - block[..., 2, :]) / (2.0 * hs)

    def d_dv(block: np.ndarray) -> np.ndarray:
        return (block[..., 3, :] - block[..., 4, :]) / (2.0 * hs)

    X0, Y0, n10, n20 = X[..., 0, :], Y[..., 0, :], n1[..., 0, :], n2[..., 0, :]
    # Per-family signs (alpha, beta of meridian4.families): s_n1 = alpha beta
    # is the n1-rate sign (D_Y n1 = s_n1 (k/f) Y, the directrix normal rate
    # -e_t), s_yy = -beta the n1 coefficient sign in D_Y Y (the tangent rate
    # e_n), s2 = -alpha the sign of g' l in n2, which also flips D_X n2 and
    # D_Y n2 for the second family.
    s2 = -family.alpha
    s_n1 = family.alpha * family.beta
    s_yy = -family.beta

    residuals = {
        "du_X": d_du(X) - kappa_m * n20,
        "du_Y": d_du(Y),
        "du_n1": d_du(n1),
        "du_n2": d_du(n2) - s2 * kappa_m * X0,
        "dv_X": d_dv(X) / f - (fp / f) * Y0,
        "dv_Y": d_dv(Y) / f
        - ((fp / f) * X0 + s_yy * (kappa / f) * n10 - (gp / f) * n20),
        "dv_n1": d_dv(n1) / f - s_n1 * (kappa / f) * Y0,
        "dv_n2": d_dv(n2) / f - s2 * (gp / f) * Y0,
    }
    return {name: float(np.max(np.abs(res))) for name, res in residuals.items()}
