"""Lorentz meridian surfaces in the pseudo-Euclidean 4-space with neutral metric.

The package constructs the two-parameter meridian surfaces
z(u, v) = f(u) l(v) + g(u) e4 lying on rotational hypersurfaces of
E^4_2, generates their minimal, quasi-minimal and constant-mean-curvature
families from closed forms and first-integral ODE reductions, and
certifies every claimed curvature property against an independent
finite-difference oracle.  See README.md for a guided tour; the
``demos/`` scripts walk through each capability.
"""

__version__ = "0.1.0"

from .algebra import (
    SIG3_PPM,
    SIG4,
    CausalCharacter,
    Signature,
    affine_rank,
    causal_character,
    gram_matrix,
    inner,
    orthonormality_deviation,
    orthonormalize,
)
from .curves import (
    ChartKind,
    CurveFamily,
    FrameField,
    chart,
    chart_params,
    standard_initial_frame,
)
from .errors import DegeneracyError, DomainError
from .export import export_mesh
from .families import MeridianFamily
from .harness import (
    CaseSpec,
    Theorem,
    VerificationReport,
    run_theorem_suite,
    sample_case,
    suite_to_dict,
    verify_case,
)
from .oracle import (
    FundamentalForms,
    Jet2,
    fd_jet,
    fd_jet4,
    frame_equation_residuals,
    fundamental_forms,
    mean_curvature_fd,
)
from .profiles import (
    BranchSigns,
    GoverningLaw,
    MeridianProfile,
    PhiFunction,
    ProfileParams,
    ProfileResiduals,
    Provenance,
    integrate_profile,
    minimal_profile,
    phi_closed_form,
    profile_from_callable,
    profile_residuals,
)
from .surfaces import (
    TRANSFORM_T,
    MeanCurvatureDecomp,
    MeridianSurface,
    TildeKind,
    TildeSurface,
    tilde_surface,
    transform_T,
)

__all__ = [
    "__version__",
    # algebra
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
    # errors
    "DomainError",
    "DegeneracyError",
    # curves
    "CurveFamily",
    "ChartKind",
    "chart",
    "chart_params",
    "standard_initial_frame",
    "FrameField",
    # families
    "MeridianFamily",
    # profiles
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
    # surfaces
    "MeridianSurface",
    "MeanCurvatureDecomp",
    "TRANSFORM_T",
    "transform_T",
    "TildeKind",
    "TildeSurface",
    "tilde_surface",
    # oracle
    "Jet2",
    "fd_jet",
    "fd_jet4",
    "FundamentalForms",
    "fundamental_forms",
    "mean_curvature_fd",
    "frame_equation_residuals",
    # harness
    "Theorem",
    "CaseSpec",
    "VerificationReport",
    "verify_case",
    "run_theorem_suite",
    "sample_case",
    "suite_to_dict",
    # export
    "export_mesh",
]
