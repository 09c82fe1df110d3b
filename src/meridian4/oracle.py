"""Finite-difference differential geometry for immersions into E^4_2.

This module is the package's independent referee.  It knows nothing about
meridian structure: given any callable immersion (u, v) -> R^4 it computes
a second-order jet by central differences, assembles the fundamental forms
under the neutral metric, and produces the mean curvature vector from the
trace formula

    H = (E h_vv - 2 F h_uv + G h_uu) / (2 (E G - F^2)),

which is basis-independent (no normal frame enters).  The analytic
formulas elsewhere in the package are certified against these numbers,
never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SIG4, Signature, inner, orthonormalize
from .errors import DegeneracyError, DomainError

__all__ = [
    "Jet2",
    "fd_jet",
    "FundamentalForms",
    "fundamental_forms",
    "mean_curvature_fd",
    "shape_operator",
    "frame_equation_residuals",
]

# Stencil offsets, in units of h: center, +-u, +-v, and the four corners.
_DU = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_DV = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of an immersion at one parameter point."""

    u: float
    v: float
    h: float
    z: np.ndarray
    zu: np.ndarray
    zv: np.ndarray
    zuu: np.ndarray
    zuv: np.ndarray
    zvv: np.ndarray


def fd_jet(immersion, u: float, v: float, h: float | None = None) -> Jet2:
    """Second-order central-difference jet of ``immersion`` at (u, v).

    ``immersion`` must accept numpy arrays (broadcasting) and return
    points with a trailing axis of length 4.  The default step is
    ``1e-4 * max(1, |u|, |v|)``; all nine samples are requested in one
    vectorized call.  Errors raised by the immersion (e.g. a stencil arm
    leaving the domain) are re-raised with the stencil's coordinates.
    """
    u, v = float(u), float(v)
    if h is None:
        h = 1e-4 * max(1.0, abs(u), abs(v))
    if not (h > 0.0):
        raise ValueError(f"stencil step must be positive, got {h}")
    try:
        pts = np.asarray(immersion(u + h * _DU, v + h * _DV), dtype=float)
    except Exception as exc:
        raise DomainError(
            f"FD stencil evaluation failed at (u={u:.6g}, v={v:.6g}) with h={h:.3g}: {exc}"
        ) from exc
    if pts.shape != (9, 4):
        raise ValueError(f"immersion returned shape {pts.shape}, expected (9, 4)")
    if not np.all(np.isfinite(pts)):
        raise DomainError(
            f"immersion returned non-finite values inside the stencil at "
            f"(u={u:.6g}, v={v:.6g}), h={h:.3g}"
        )
    c, up, um, vp, vm, pp, pm, mp, mm = pts
    h2 = h * h
    return Jet2(
        u=u,
        v=v,
        h=h,
        z=c,
        zu=(up - um) / (2.0 * h),
        zv=(vp - vm) / (2.0 * h),
        zuu=(up - 2.0 * c + um) / h2,
        zvv=(vp - 2.0 * c + vm) / h2,
        zuv=(pp - pm - mp + mm) / (4.0 * h2),
    )


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental forms of an immersion at a point.

    The second-form vectors ``h_uu_vec``/``h_uv_vec``/``h_vv_vec`` are the
    normal components of the second derivatives.  ``normal_basis`` holds a
    pseudo-orthonormal basis of the normal plane (rows) with causal signs
    ``normal_signs``; the ``h_**`` pairs are the components of each vector
    in that basis.  ``H`` is the mean curvature vector from the trace
    formula (computed before any basis is chosen) and ``norm2H`` = <H, H>.
    """

    E: float
    F: float
    G: float
    zu: np.ndarray
    zv: np.ndarray
    normal_basis: np.ndarray
    normal_signs: tuple[int, int]
    h_uu: tuple[float, float]
    h_uv: tuple[float, float]
    h_vv: tuple[float, float]
    h_uu_vec: np.ndarray
    h_uv_vec: np.ndarray
    h_vv_vec: np.ndarray
    H: np.ndarray
    norm2H: float


def fundamental_forms(jet: Jet2, sig: Signature = SIG4) -> FundamentalForms:
    """Assemble the fundamental forms and mean curvature from a jet.

    Raises :class:`DegeneracyError` when |EG - F^2| <= 1e-10 (degenerate
    induced metric) or when no pseudo-orthonormal basis of the normal
    plane can be built from coordinate-axis seeds.
    """
    zu, zv = jet.zu, jet.zv
    E = inner(zu, zu, sig)
    F = inner(zu, zv, sig)
    G = inner(zv, zv, sig)
    W = E * G - F * F
    if abs(W) <= 1e-10:
        raise DegeneracyError(
            f"induced metric is degenerate at (u={jet.u:.6g}, v={jet.v:.6g}): "
            f"EG - F^2 = {W:.3e}"
        )
    gram = np.array([[E, F], [F, G]])

    def normal_part(w: np.ndarray) -> np.ndarray:
        coeffs = np.linalg.solve(gram, [inner(w, zu, sig), inner(w, zv, sig)])
        return w - coeffs[0] * zu - coeffs[1] * zv

    h_uu_vec = normal_part(jet.zuu)
    h_uv_vec = normal_part(jet.zuv)
    h_vv_vec = normal_part(jet.zvv)
    H = (E * h_vv_vec - 2.0 * F * h_uv_vec + G * h_uu_vec) / (2.0 * W)
    norm2H = inner(H, H, sig)

    # Normal basis: project the coordinate axes onto the normal plane and
    # keep the two least-degenerate rejections (largest |<r, r>|, ties by
    # axis index); fall back deterministically if Gram-Schmidt degenerates.
    rejections = [normal_part(e) for e in np.eye(4)]
    scores = [abs(inner(r, r, sig)) for r in rejections]
    order = sorted(range(4), key=lambda i: (-scores[i], i))
    basis = signs = None
    first = order[0]
    for second in order[1:]:
        try:
            basis, signs = orthonormalize(
                [rejections[first], rejections[second]], sig
            )
            break
        except DegeneracyError:
            continue
    if basis is None:
        raise DegeneracyError(
            f"could not build a pseudo-orthonormal normal basis at "
            f"(u={jet.u:.6g}, v={jet.v:.6g})"
        )

    def components(w: np.ndarray) -> tuple[float, float]:
        return (
            signs[0] * inner(w, basis[0], sig),
            signs[1] * inner(w, basis[1], sig),
        )

    return FundamentalForms(
        E=E,
        F=F,
        G=G,
        zu=zu,
        zv=zv,
        normal_basis=basis,
        normal_signs=signs,
        h_uu=components(h_uu_vec),
        h_uv=components(h_uv_vec),
        h_vv=components(h_vv_vec),
        h_uu_vec=h_uu_vec,
        h_uv_vec=h_uv_vec,
        h_vv_vec=h_vv_vec,
        H=H,
        norm2H=norm2H,
    )


def mean_curvature_fd(immersion, u: float, v: float, h: float | None = None):
    """Mean curvature vector and <H, H> at (u, v), purely by finite differences."""
    forms = fundamental_forms(fd_jet(immersion, u, v, h))
    return forms.H, forms.norm2H


def shape_operator(forms: FundamentalForms, xi, sig: Signature = SIG4) -> np.ndarray:
    """Shape operator A_xi in the coordinate basis (z_u, z_v).

    Returns the 2x2 matrix M with A_xi z_u = M[0,0] z_u + M[1,0] z_v and
    A_xi z_v = M[0,1] z_u + M[1,1] z_v, defined by <A_xi X, Y> =
    <h(X, Y), xi>.  ``xi`` must be normal to the tangent plane within
    1e-8 (scaled); otherwise a ``ValueError`` is raised.
    """
    xi = np.asarray(xi, dtype=float)
    scale = max(1.0, float(np.max(np.abs(xi)))) * max(
        1.0, float(np.max(np.abs(forms.zu))), float(np.max(np.abs(forms.zv)))
    )
    tangency = max(abs(inner(xi, forms.zu, sig)), abs(inner(xi, forms.zv, sig)))
    if tangency > 1e-8 * scale:
        raise ValueError(
            f"xi is not normal to the tangent plane (max tangential product "
            f"{tangency:.3e} exceeds {1e-8 * scale:.3e})"
        )
    b = np.array(
        [
            [inner(forms.h_uu_vec, xi, sig), inner(forms.h_uv_vec, xi, sig)],
            [inner(forms.h_uv_vec, xi, sig), inner(forms.h_vv_vec, xi, sig)],
        ]
    )
    gram = np.array([[forms.E, forms.F], [forms.F, forms.G]])
    return np.linalg.solve(gram, b)


# ---------------------------------------------------------------------------
# frame-equation residuals for assembled meridian surfaces
# ---------------------------------------------------------------------------


def frame_equation_residuals(surface, u: float, v: float, h: float | None = None):
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
    by central differences (step ``h``, default 1e-5 scaled) and returns a
    dict of max-abs residuals, one entry per table line.  Agreement at the
    default step certifies both the frame and the derivative table.
    """
    u, v = float(u), float(v)
    if h is None:
        h = 1e-5 * max(1.0, abs(u), abs(v))
    family = surface.family
    f, fp, fpp, _, gp = (np.asarray(x, dtype=float) for x in surface.profile_values(u))
    f, fp, gp = float(f), float(fp), float(gp)
    kappa = float(surface.curve.kappa_at(v))
    kappa_m = float(family.meridian_curvature(fpp, gp))

    us = np.array([u, u + h, u - h, u, u])
    vs = np.array([v, v, v, v + h, v - h])
    X, Y, n1, n2 = surface.frames(us, vs)

    def d_du(block: np.ndarray) -> np.ndarray:
        return (block[1] - block[2]) / (2.0 * h)

    def d_dv(block: np.ndarray) -> np.ndarray:
        return (block[3] - block[4]) / (2.0 * h)

    X0, Y0, n10, n20 = X[0], Y[0], n1[0], n2[0]
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
