"""Linear algebra for flat indefinite scalar products on R^3 and R^4.

The ambient space of the package is R^4 with the neutral scalar product

    <x, y> = x1*y1 + x2*y2 - x3*y3 - x4*y4,

and curves live in the coordinate subspace span{e1,e2,e3} carrying the
induced Lorentzian product.  A metric is the read-only float array of its
diagonal: :data:`SIG4` for the 4-space and its slice :data:`SIG3_PPM` for
span{e1,e2,e3}.  Every helper takes it as ``sig``, and :func:`inner` is the
one place that applies it.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DegeneracyError

__all__ = [
    "SIG4",
    "SIG3_PPM",
    "CausalCharacter",
    "inner",
    "causal_character",
    "gram_matrix",
    "orthonormality_deviation",
    "orthonormalize",
    "affine_rank",
]


#: Neutral metric on R^4: dx1^2 + dx2^2 - dx3^2 - dx4^2.
SIG4 = np.array([1.0, 1.0, -1.0, -1.0])
SIG4.flags.writeable = False
#: Lorentzian metric on span{e1, e2, e3}: dx1^2 + dx2^2 - dx3^2 (a read-only view).
SIG3_PPM = SIG4[:3]


class CausalCharacter(enum.Enum):
    """Causal type of a vector under an indefinite scalar product.

    The zero vector counts as spacelike, following the usual convention
    for submanifold geometry in pseudo-Euclidean spaces.
    """

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


_CHARACTERS = np.array(list(CausalCharacter), dtype=object)


def _check_dim(x: np.ndarray, sig: np.ndarray, name: str) -> None:
    if x.shape[-1] != len(sig):
        raise ValueError(
            f"{name} has trailing dimension {x.shape[-1]}, "
            f"but the signature has length {len(sig)}"
        )


def inner(x, y, sig: np.ndarray = SIG4):
    """Indefinite scalar product <x, y> under the diagonal metric ``sig``.

    Accepts arrays whose trailing axis matches the length of ``sig`` and
    broadcasts over leading axes.  Returns a scalar for single vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_dim(x, sig, "x")
    _check_dim(y, sig, "y")
    p = sig * x * y
    out = p[..., 0] + 0.0  # np.sum's order and signed zeros, without its overhead
    for k in range(1, p.shape[-1]):
        out = out + p[..., k]
    if out.ndim == 0:
        return float(out)
    return out


def _causal_codes(v, sig: np.ndarray = SIG4, tol: float | None = None) -> np.ndarray:
    """:func:`causal_character` as integer codes, the member's index in
    :class:`CausalCharacter` (0 spacelike, 1 timelike, 2 lightlike)."""
    v = np.asarray(v, dtype=float)
    q = inner(v, v, sig)
    if tol is None:
        scale = np.max(np.abs(v), axis=-1)
        tol = 1e-12 * np.maximum(1.0, scale * scale)
    code = np.where(q > tol, 0, np.where(q < -tol, 1, 2))
    return np.where(np.any(v, axis=-1), code, 0)


def causal_character(v, sig: np.ndarray = SIG4, tol: float | None = None):
    """Classify vectors (trailing axis, matching ``sig``) by causal character.

    Broadcasts over leading axes: a single vector gives a
    :class:`CausalCharacter`, an array of vectors an object array of them.
    ``tol`` is the absolute margin for <v, v>; by default it scales with
    each vector, ``1e-12 * max(1, |v|_inf^2)``, so near-null vectors of any
    magnitude classify consistently.
    """
    return _CHARACTERS[_causal_codes(v, sig, tol)]  # a 0-d index picks the member itself


def gram_matrix(frame, sig: np.ndarray = SIG4) -> np.ndarray:
    """Matrix of pairwise scalar products <v_i, v_j> for rows v_i of ``frame``."""
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-d array (one vector per row)")
    return inner(frame[:, None], frame[None], sig)


def orthonormality_deviation(frame, expected_signs, sig: np.ndarray = SIG4) -> float:
    """Max-entry deviation of a frame's Gram matrix from diag(expected_signs).

    A pseudo-orthonormal frame with unit vectors of the expected causal
    characters returns 0 (up to roundoff); the value is the natural drift
    measure for integrated frames.
    """
    expected = np.asarray(expected_signs, dtype=float)
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[0] != expected.shape[0]:
        raise ValueError(
            f"frame of {frame.shape[0] if frame.ndim == 2 else '?'} vectors does not "
            f"match {expected.shape[0]} expected signs"
        )
    g = gram_matrix(frame, sig)
    return float(np.max(np.abs(g - np.diag(expected))))


def orthonormalize(vectors, sig: np.ndarray = SIG4, tol: float = 1e-10):
    """Gram-Schmidt for an indefinite scalar product.

    Orthogonalizes the rows of ``vectors`` in order, normalizing each to
    <w, w> = +-1.  The projections run twice per row: near a null direction
    one pass leaves a residue that normalizing amplifies (Gram entries off
    by ~5e-9 on a random near-identity frame), a second pass removes it.
    Unlike the Euclidean case, a nonzero vector can fail to
    be normalizable: if ``|<w, w>| <= tol * max(1, |w|_inf^2)`` after
    orthogonalization the construction is degenerate (numerically null
    direction) and :class:`DegeneracyError` is raised.

    Returns
    -------
    (frame, signs) : (ndarray, tuple of int)
        The orthonormalized rows and the sign of <w_i, w_i> for each row.
    """
    v = np.array(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("vectors must be a 2-d array (one vector per row)")
    _check_dim(v, sig, "vectors")
    out = np.empty_like(v)
    signs: list[int] = []
    for i in range(v.shape[0]):
        w = v[i].copy()
        for _ in range(2):
            for j in range(i):
                w -= signs[j] * inner(w, out[j], sig) * out[j]
        q = inner(w, w, sig)
        scale = float(np.max(np.abs(w))) if np.any(w) else 0.0
        if abs(q) <= tol * max(1.0, scale * scale):
            raise DegeneracyError(
                f"vector {i} is numerically null after orthogonalization "
                f"(<w,w> = {q:.3e}); cannot normalize in an indefinite metric"
            )
        s = 1 if q > 0 else -1
        out[i] = w / np.sqrt(abs(q))
        signs.append(s)
    return out, tuple(signs)


# singular values at most this fraction of the largest are discarded by affine_rank
_RANK_TOL = 1e-6


def affine_rank(points):
    """Dimension of the affine span of a point cloud, with a residual measure.

    Centers the points on their mean and takes singular values of the
    resulting matrix.  The rank is the number of singular values above
    ``1e-6 * s_max``; the residual is ``s_{rank} / s_max`` (the size of the
    first discarded direction, 0 if nothing is discarded).  A cloud lying
    exactly in an affine hyperplane of R^4 reports rank 3 and residual ~0.

    Requires at least 5 points so that rank 4 is distinguishable.  The
    points are read in C order, so that the mean sums them in one order
    whatever the input's memory layout.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (one point per row)")
    if pts.shape[0] < 5:
        raise ValueError(f"need at least 5 points to assess affine rank, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[0] == 0.0:
        return 0, 0.0
    rel = svals / svals[0]
    rank = int(np.sum(rel > _RANK_TOL))
    residual = float(rel[rank]) if rank < len(rel) else 0.0
    return rank, residual
