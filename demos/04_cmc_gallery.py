"""Surfaces whose mean curvature vector has constant causal character and norm.

For <H,H> = c the reduced equation gains a square root, w(t) =
sqrt(a^2 + 4 eps c t^2), where eps is +1 for the first family with a
spacelike directrix and -1 otherwise.  The sign of 4 eps c decides the
geometry: positive means the warp factor can grow without bound, negative
squeezes the admissible window to t <= a / (2 sqrt(|c|)).  The script
assembles one of each, certifies <H,H> against the finite-difference
oracle on a grid, and drops an OBJ mesh of the squeezed branch.

Run:  python3 demos/04_cmc_gallery.py
"""

import tempfile
from pathlib import Path

import numpy as np

from meridian4 import (
    BranchSigns,
    GoverningLaw,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    export_mesh,
    integrate_profile,
    mean_curvature_fd,
    phi_closed_form,
)


def build(family, params, f0, u_span):
    phi = phi_closed_form(GoverningLaw.CMC, family, params, (1e-3, 12.0))
    profile = integrate_profile(phi, f0=f0, u_span=u_span, step=1e-3)
    # the reduced law only describes surfaces whose directrix has constant
    # spherical curvature equal to the integration constant a
    curve = FrameField(family.curve_family, params.a, (0.0, 1.0))
    return MeridianSurface(curve, profile)


def certify(surface, c, n=7):
    (u0, u1), (v0, v1) = surface.u_span, surface.v_span
    us = np.linspace(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0), n)
    vs = np.linspace(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0), n)
    _, norm2 = mean_curvature_fd(surface.immersion, us[:, None], vs[None, :])
    return np.max(np.abs(norm2 - c))


def main():
    print("== growing branch: first family, timelike directrix, c = +1 ==")
    params = ProfileParams(a=2.0, b=0.5, c=1.0)
    surface = build(MeridianFamily.FIRST_TIMELIKE, params, f0=1.0, u_span=(0.0, 0.5))
    dev = certify(surface, params.c)
    print(f"   max |<H_fd, H_fd> - c| on a 7x7 grid = {dev:.2e}")
    print(f"   analytic check at midpoint: <H,H> = "
          f"{surface.mean_curvature(0.25, 0.5).norm2:+.9f}")

    # for the second family eps = -1, so a *positive* c flips the sign of
    # 4 eps c and squeezes the window
    print("== squeezed branch: second family, c = +0.5 (4 eps c < 0) ==")
    params = ProfileParams(a=1.5, b=-0.5, c=0.5, branch=BranchSigns(rhs=-1))
    phi = phi_closed_form(GoverningLaw.CMC, MeridianFamily.SECOND, params, (1e-3, 12.0))
    lo, hi = phi.domain[0]
    cap = params.a / (2.0 * np.sqrt(abs(params.c)))
    print(f"   admissible window [{lo:.4f}, {hi:.4f}], algebraic cap a/(2 sqrt|c|) = {cap:.4f}")
    surface = build(MeridianFamily.SECOND, params, f0=0.8, u_span=(0.0, 0.3))
    dev = certify(surface, params.c)
    print(f"   max |<H_fd, H_fd> - c| on a 7x7 grid = {dev:.2e}")

    out = Path(tempfile.mkdtemp()) / "squeezed_cmc.obj"
    export_mesh(surface, np.linspace(0.02, 0.28, 25), np.linspace(0.0, 1.0, 25), out, fmt="obj")
    n_lines = sum(1 for _ in open(out))
    print(f"   wrote {out} ({n_lines} lines: 625 vertices + 1152 faces + header)")


if __name__ == "__main__":
    main()
