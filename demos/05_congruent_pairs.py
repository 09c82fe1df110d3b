"""The order-four anti-isometry that pairs the three meridian constructions.

The linear map T sends (x1, x2, x3, x4) to (x4, x3, x1, x2).  It reverses
the sign of every inner product, so it swaps the roles of the two carrier
quadrics and turns each meridian family into a "tilde" construction living
in span{e2, e3, e4}.  Curvature properties survive with flipped causal
character: minimal maps to minimal, and <H,H> = c maps to <H,H> = -c.

Run:  python3 demos/05_congruent_pairs.py
"""

import numpy as np

from meridian4 import (
    TRANSFORM_T,
    BranchSigns,
    GoverningLaw,
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    TildeSurface,
    inner,
    integrate_profile,
    mean_curvature_fd,
    phi_closed_form,
    transform_T,
)


def main():
    print("T as a matrix:")
    for row in TRANSFORM_T:
        print("   " + "  ".join(f"{int(x):+d}" for x in row))
    print(f"   T^4 = identity: {np.array_equal(np.linalg.matrix_power(TRANSFORM_T, 4), np.eye(4))}")

    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 4))
    print(f"   random pair: <x,y> = {inner(x, y):+.6f},  <Tx,Ty> = {inner(transform_T(x), transform_T(y)):+.6f}")

    # build a CMC surface from the second family and push it through T
    family = MeridianFamily.SECOND
    params = ProfileParams(a=1.5, b=-0.5, c=0.5, branch=BranchSigns(rhs=-1))
    phi = phi_closed_form(GoverningLaw.CMC, family, params, (1e-3, 12.0))
    profile = integrate_profile(phi, f0=0.8, u_span=(0.0, 0.3), step=1e-3)
    curve = FrameField(family.curve_family, params.a, (0.0, 1.0))
    surface = MeridianSurface(curve, profile)

    til = TildeSurface(surface)
    print(f"== {family.value} -> {til.kind.value} ==")

    us = np.linspace(0.02, 0.28, 9)
    vs = np.linspace(0.05, 0.95, 9)
    dev = np.max(np.abs(til.grid_points(us, vs) - til.chart_reference(us[:, None], vs[None, :])))
    print(f"   direct chart of the image quadric matches T(surface): {dev:.2e}")

    u0, v0 = 0.15, 0.5
    n2 = surface.mean_curvature(u0, v0).norm2
    _, n2_tilde = mean_curvature_fd(til.immersion, u0, v0)
    print(f"   <H,H> at ({u0}, {v0}): source {n2:+.10f}, image {n2_tilde:+.10f}")
    print("   constant norm survives with opposite sign: spacelike H turned timelike")


if __name__ == "__main__":
    main()
