"""Linear algebra for flat indefinite scalar products on R^3 and R^4.

Everything here is metric-signature-parametric.  The ambient space of the
package is R^4 with the neutral scalar product

    <x, y> = x1*y1 + x2*y2 - x3*y3 - x4*y4,

and curves live in 3-dimensional coordinate subspaces carrying the induced
(Lorentzian) products.  Signatures are explicit values, not global state, so
the same helpers serve the 4-space, the span{e1,e2,e3} slice and the
span{e2,e3,e4} slice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError

__all__ = [
    "Signature",
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


@dataclass(frozen=True)
class Signature:
    """A diagonal metric, stored as an ordered tuple of +1/-1 entries.

    Parameters
    ----------
    signs : tuple of int
        The diagonal of the metric in the standard basis.  Length 3 or 4.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(int(s) for s in self.signs)
        if len(signs) not in (3, 4):
            raise ValueError(f"signature must have length 3 or 4, got {len(signs)}")
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"signature entries must be +1 or -1, got {self.signs}")
        object.__setattr__(self, "signs", signs)

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    @property
    def array(self) -> np.ndarray:
        """The diagonal as a float array, for vectorized products."""
        return np.asarray(self.signs, dtype=float)


#: Neutral metric on R^4: dx1^2 + dx2^2 - dx3^2 - dx4^2.
SIG4 = Signature((1, 1, -1, -1))
#: Lorentzian metric on span{e1, e2, e3}: dx1^2 + dx2^2 - dx3^2.
SIG3_PPM = Signature((1, 1, -1))


class CausalCharacter(enum.Enum):
    """Causal type of a vector under an indefinite scalar product.

    The zero vector counts as spacelike, following the usual convention
    for submanifold geometry in pseudo-Euclidean spaces.
    """

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


_CHARACTERS = np.array(list(CausalCharacter), dtype=object)


def _check_dim(x: np.ndarray, sig: Signature, name: str) -> None:
    if x.shape[-1] != len(sig):
        raise ValueError(
            f"{name} has trailing dimension {x.shape[-1]}, "
            f"but the signature has length {len(sig)}"
        )


def inner(x, y, sig: Signature = SIG4):
    """Indefinite scalar product <x, y> under a diagonal signature.

    Accepts arrays whose trailing axis matches the signature length and
    broadcasts over leading axes.  Returns a scalar for single vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_dim(x, sig, "x")
    _check_dim(y, sig, "y")
    out = np.sum(sig.array * x * y, axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def causal_character(v, sig: Signature = SIG4, tol: float | None = None):
    """Classify vectors (trailing axis, matching ``sig``) by causal character.

    Broadcasts over leading axes: a single vector gives a
    :class:`CausalCharacter`, an array of vectors an object array of them.
    ``tol`` is the absolute margin for <v, v>; by default it scales with
    each vector, ``1e-12 * max(1, |v|_inf^2)``, so near-null vectors of any
    magnitude classify consistently.
    """
    v = np.asarray(v, dtype=float)
    _check_dim(v, sig, "v")
    q = np.sum(sig.array * v * v, axis=-1)
    if tol is None:
        scale = np.max(np.abs(v), axis=-1)
        tol = 1e-12 * np.maximum(1.0, scale * scale)
    code = np.where(q > tol, 0, np.where(q < -tol, 1, 2))
    code = np.where(np.any(v, axis=-1), code, 0)
    return _CHARACTERS[code]  # a 0-d index picks the member itself


def gram_matrix(frame, sig: Signature = SIG4) -> np.ndarray:
    """Matrix of pairwise scalar products <v_i, v_j> for rows v_i of ``frame``."""
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-d array (one vector per row)")
    _check_dim(frame, sig, "frame")
    return (frame * sig.array) @ frame.T


def orthonormality_deviation(frame, expected_signs, sig: Signature = SIG4) -> float:
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


def orthonormalize(vectors, sig: Signature = SIG4, tol: float = 1e-10):
    """Gram-Schmidt for an indefinite scalar product.

    Orthogonalizes the rows of ``vectors`` in order, normalizing each to
    <w, w> = +-1.  Unlike the Euclidean case, a nonzero vector can fail to
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


def affine_rank(points, tol: float = 1e-6):
    """Dimension of the affine span of a point cloud, with a residual measure.

    Centers the points on their mean and takes singular values of the
    resulting matrix.  The rank is the number of singular values above
    ``tol * s_max``; the residual is ``s_{rank} / s_max`` (the size of the
    first discarded direction, 0 if nothing is discarded).  A cloud lying
    exactly in an affine hyperplane of R^4 reports rank 3 and residual ~0.

    Requires at least 5 points so that rank 4 is distinguishable.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (one point per row)")
    if pts.shape[0] < 5:
        raise ValueError(f"need at least 5 points to assess affine rank, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[0] == 0.0:
        return 0, 0.0
    rel = svals / svals[0]
    rank = int(np.sum(rel > tol))
    residual = float(rel[rank]) if rank < len(rel) else 0.0
    return rank, residual
