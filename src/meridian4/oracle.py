"""Finite-difference differential geometry for immersions into E^4_2.

This module is the package's independent referee.  It knows nothing about
meridian structure: given any callable immersion (u, v) -> R^4 it computes
a fourth-order jet by central differences on a 17-point stencil
(``fd_jet4``), assembles the fundamental forms under the neutral metric,
and produces the mean curvature vector from the trace formula

    H = (E h_vv - 2 F h_uv + G h_uu) / (2 (E G - F^2)),

which is basis-independent: no normal frame is chosen.  The same stencil
differentiates any field whose values end in a 4-axis, such as a frame of
four vectors.  Every call broadcasts over (u, v) arrays, a scalar point
being the 0-d case, so a whole grid is one immersion call; the stencil
axis leads and u and v keep their own shapes behind it, so an immersion
that evaluates u-factors on u and v-factors on v does so once per grid
line, and one that writes each coordinate as a plane is differenced plane
by plane.
``stencil_points`` returns the (u, v) samples a call will request, from the
same geometry the call uses, so a caller can evaluate its immersion at all
of them ahead of time.  The analytic formulas elsewhere in the package are
certified against these numbers, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# orthonormalize is unused here, but perfbench/tracing.py patches it on this module.
from .algebra import inner, orthonormalize  # noqa: F401
from .errors import DegeneracyError, DomainError

__all__ = [
    "Jet2",
    "fd_jet4",
    "FundamentalForms",
    "fundamental_forms",
    "mean_curvature_fd",
    "stencil_points",
]

# The default step relative to max(1, |u|, |v|), and the 17 stencil offsets in
# units of the step h: the center, then arms of length 1 and 2, each as
# +-u, +-v and the corners.
_REL_STEP = 1e-3
_ARM_DU = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_ARM_DV = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_DU, _DV = (np.concatenate([[0.0], arm, 2.0 * arm]) for arm in (_ARM_DU, _ARM_DV))
# The integer weights per arm length and a denominator for the first, pure
# second and mixed derivatives.  With d = z - z(center):
# z_u = sum_s w_s (d(s, 0) - d(-s, 0)) / (den h), z_uu the same with
# d(s, 0) + d(-s, 0) over den h^2, z_uv with the corners
# d(s, s) - d(s, -s) - d(-s, s) + d(-s, -s).  Weighting differences from the
# center, not raw samples, keeps the roundoff of these 5-point weights
# (Fornberg 1988) at that of the two 9-point stencils they extrapolate.
_WEIGHTS = (((8.0, -1.0), 12.0), ((16.0, -1.0), 12.0), ((16.0, -1.0), 48.0))


def stencil_points(u, v, h=None) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) samples that :func:`fd_jet4` requests at the points (u, v), step ``h``.

    The samples are the arrays the call passes to the immersion, bit for
    bit: a leading stencil axis of 17, whose first sample is the center,
    plus the inputs' own shapes padded to one rank.  A caller that
    evaluates its immersion ahead of time reads from here which u and v it
    will be asked for.
    """
    return _stencil(u, v, h)[3:]


def _stencil(u, v, h):
    """(u, v) and the step, by default _REL_STEP * max(1, |u|, |v|), padded to
    one rank but not broadcast, and the stencil samples at them: a product
    grid ``us[:, None], vs[None, :]`` under a scalar step stays (nu, 1),
    (1, nv) and (1, 1), and its samples (17, nu, 1) and (17, 1, nv)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if h is None:
        h = _REL_STEP * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))
    h = np.asarray(h, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape, h.shape)
    if not np.all(np.broadcast_to(h, shape) > 0.0):
        raise ValueError(f"stencil step must be positive, got {h.min()}")
    u, v, h = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (u, v, h))
    axis = (-1,) + (1,) * len(shape)
    return u, v, h, u + h * _DU.reshape(axis), v + h * _DV.reshape(axis)


def _at(u, v, mask) -> str:
    """(u, v) of the first point where ``mask`` holds, for error messages."""
    i = int(np.argmax(mask))
    return f"(u={u.flat[i]:.6g}, v={v.flat[i]:.6g})"


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of an immersion (or a field) at points (u, v) of shape S;
    the step ``h`` has shape S, ``z`` and its derivatives S + (4,) (or S + T)."""

    u: np.ndarray
    v: np.ndarray
    h: np.ndarray
    z: np.ndarray
    zu: np.ndarray
    zv: np.ndarray
    zuu: np.ndarray
    zuv: np.ndarray
    zvv: np.ndarray


def fd_jet4(immersion, u, v, h=None) -> Jet2:
    """Fourth-order central-difference jet of ``immersion`` at (u, v).

    ``u``, ``v`` and ``h`` broadcast against each other to a shape S.
    ``immersion`` must accept numpy arrays (broadcasting) and return values
    whose trailing axis has length 4: points, or any field of trailing
    shape T = (..., 4), such as a frame of four vectors.  The 17 stencil
    samples of every point (the center, +-h and +-2h on each axis, the
    corners at h and at 2h) are requested in one call, at a leading stencil
    axis of 17 plus the inputs' own shapes padded to one rank: a product
    grid ``us[:, None], vs[None, :]`` with a scalar step sends u of shape
    (17, nu, 1) and v of shape (17, 1, nv).  The result must have the
    broadcast shape (17,) + S + T, in any memory order, and the jet's values
    have shape S + T.
    The 5-point central differences have an O(h^4) truncation error, so the
    default step ``1e-3 * max(1, |u|, |v|)`` per point keeps the roundoff
    (~eps/h^2) small.  A :class:`DomainError` raised by the immersion (e.g.
    a stencil arm leaving the domain) is re-raised with the requested
    coordinates; other errors propagate.
    """
    u, v, h, stencil_u, stencil_v = _stencil(u, v, h)
    u, v, h = np.broadcast_arrays(u, v, h)
    try:
        pts = np.asarray(immersion(stencil_u, stencil_v), dtype=float)
    except DomainError as exc:
        raise DomainError(
            f"FD stencil evaluation failed for u in [{u.min():.6g}, {u.max():.6g}], "
            f"v in [{v.min():.6g}, {v.max():.6g}] with h={h.max():.3g}: {exc}"
        ) from exc
    value_shape = pts.shape[u.ndim + 1:]
    if value_shape[-1:] != (4,):
        value_shape = (4,)
    expected = (_DU.size,) + u.shape + value_shape
    if pts.shape != expected:
        raise ValueError(f"field returned shape {pts.shape}, expected {expected}")
    if not np.isfinite(pts).all():
        bad = ~np.all(np.isfinite(pts), axis=(0,) + tuple(range(1 + u.ndim, pts.ndim)))
        raise DomainError(
            f"field returned non-finite values inside the stencil at "
            f"{_at(u, v, bad)}, h={h[bad][0]:.3g}"
        )
    # the differences from the center, out of place in the field's own memory
    # order so that its array is never written, for one arm length at a time,
    # each dropped once its parts are taken: all sixteen at once, beside the
    # field's array, are enough for glibc's malloc to return the memory to the
    # system after every call and fault it in again on the next (~400 minor
    # faults per 41x41 sweep)
    center = pts[0]
    parts = zip(*(_arm_parts(arm - center) for arm in (pts[1:9], pts[9:])))
    first, second, mixed = _WEIGHTS
    step, jet = h.reshape(h.shape + (1,) * len(value_shape)), []
    for (x1, x2), ((w1, w2), den), order in zip(parts, (first, first, second, second, mixed),
                                                (1, 1, 2, 2, 2)):
        out = w1 * x1
        out += w2 * x2
        out /= den * step**order
        jet.append(out)
    zu, zv, zuu, zvv, zuv = jet
    return Jet2(u=u, v=v, h=h, z=center, zu=zu, zv=zv, zuu=zuu, zuv=zuv, zvv=zvv)


def _arm_parts(d):
    """From the differences d from the center of one arm length (+-u, +-v and
    the corners, in stencil order): the odd and even parts along u and v and
    the corner combination."""
    up, um, vp, vm, pp, pm, mp, mm = d
    return up - um, vp - vm, up + um, vp + vm, pp - pm - mp + mm


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


def fundamental_forms(jet: Jet2) -> FundamentalForms:
    """Assemble the fundamental forms and mean curvature from a jet.

    Raises :class:`DomainError` when EG - F^2 is not finite (the form
    overflows), and :class:`DegeneracyError` when |EG - F^2| <= 1e-10
    (degenerate induced metric), each naming the first such point.
    """
    zu, zv = jet.zu, jet.zv
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form is named below
        E = inner(zu, zu)
        F = inner(zu, zv)
        G = inner(zv, zv)
        W = E * G - F * F
    overflow = ~np.isfinite(W)
    if np.any(overflow):
        raise DomainError(
            f"first fundamental form is not finite at {_at(jet.u, jet.v, overflow)}: "
            f"EG - F^2 = {np.asarray(W)[overflow][0]:.3e}"
        )
    degenerate = np.abs(W) <= 1e-10
    if np.any(degenerate):
        raise DegeneracyError(
            f"induced metric is degenerate at {_at(jet.u, jet.v, degenerate)}: "
            f"EG - F^2 = {np.asarray(W)[degenerate][0]:.3e}"
        )
    E_, F_, G_, W_ = (np.asarray(x)[..., None] for x in (E, F, G, W))

    def normal_part(w: np.ndarray) -> np.ndarray:
        # the tangent part c_u z_u + c_v z_v solves the 2x2 Gram system
        wu, wv = (np.asarray(inner(w, t))[..., None] for t in (zu, zv))
        return w - (G_ * wu - F_ * wv) / W_ * zu - (E_ * wv - F_ * wu) / W_ * zv

    h_uu_vec = normal_part(jet.zuu)
    h_uv_vec = normal_part(jet.zuv)
    h_vv_vec = normal_part(jet.zvv)
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
        norm2H=inner(H, H),
    )


def mean_curvature_fd(immersion, u, v, h=None):
    """Mean curvature vector and <H, H> at (u, v), purely by finite differences.

    Broadcasts over (u, v) like :func:`fd_jet4`.
    """
    forms = fundamental_forms(fd_jet4(immersion, u, v, h))
    return forms.H, forms.norm2H
