"""Exception types shared across the package."""


class DomainError(ValueError):
    """A geometric or parametric domain constraint was violated.

    Raised when inputs leave the admissible region of a construction:
    inadmissible family parameters, evaluation outside a profile's u-range,
    a radicand crossing zero, a vanishing warp factor, and similar.
    """


class DegeneracyError(DomainError):
    """An indefinite-metric construction hit a (numerically) null vector.

    Gram-Schmidt in a neutral metric divides by <w, w>; when that inner
    product vanishes relative to the vector's size the frame cannot be
    normalized and this error is raised instead of returning garbage.
    """
