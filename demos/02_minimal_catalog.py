"""Build one minimal surface from each meridian family and certify it.

The minimal profiles have closed forms: the warp factor is the square root
of a quadratic in u, and the height function integrates to an arcsin or a
logarithm depending on the family.  Assembling such a profile with any
directrix gives a surface whose mean curvature vector vanishes identically.
A corollary drops out of the certification: every minimal meridian surface
here is trapped inside a hyperplane (affine rank 3 of the sampled cloud),
while curved non-minimal relatives genuinely fill four dimensions.

Run:  python3 demos/02_minimal_catalog.py
"""

import numpy as np

from meridian4 import (
    FrameField,
    MeridianFamily,
    MeridianSurface,
    ProfileParams,
    affine_rank,
    mean_curvature_fd,
    minimal_profile,
    standard_initial_frame,
)

# (params, u window) chosen so every family is admissible
CATALOG = {
    MeridianFamily.FIRST_TIMELIKE: (ProfileParams(a=0.0, b=1.0), (-0.7, 0.7)),
    MeridianFamily.FIRST_SPACELIKE: (ProfileParams(a=1.5, b=1.0), (0.0, 1.1)),
    MeridianFamily.SECOND: (ProfileParams(a=0.0, b=1.0), (-0.7, 0.7)),
}


def main():
    rng = np.random.default_rng(7)
    for family, (params, u_span) in CATALOG.items():
        profile = minimal_profile(family, params, u_span, step=1e-3)
        # minimality needs both curvature coefficients to vanish: the profile
        # kills h2, and a geodesic directrix (kappa = 0) kills h1
        cf = family.curve_family
        curve = FrameField(cf, 0.0, standard_initial_frame(cf), (0.0, 1.2))
        surface = MeridianSurface(family, curve, profile)

        print(f"== {family.value} ==")
        f, fp, fpp, _, _ = profile.evaluate(profile.us)
        print(f"   governing residual |f f'' + f'^2 +- 1| <= "
              f"{np.max(np.abs(family.governing_core(f, fp, fpp))):.2e}")

        # analytic h-coefficients vanish; the FD oracle agrees pointwise
        us = rng.uniform(u_span[0] + 0.1, u_span[1] - 0.1, 5)
        vs = rng.uniform(0.1, 1.1, 5)
        mc = surface.mean_curvature(us, vs)
        H_fd, _ = mean_curvature_fd(surface.immersion, us, vs)
        worst = max(np.max(np.abs(mc.h1)), np.max(np.abs(mc.h2)), np.max(np.abs(H_fd)))
        print(f"   max(|h1|, |h2|, ||H_fd||) over 5 probes = {worst:.2e}")

        # hyperplane corollary: the point cloud of a minimal case is rank 3
        cloud = surface.grid_points(
            np.linspace(*u_span, 15), np.linspace(0.0, 1.2, 15)
        ).reshape(-1, 4)
        rank, residual = affine_rank(cloud)
        print(f"   affine rank of 15x15 cloud: {rank} (residual {residual:.1e})")
    print("a curved quasi-minimal cousin, for contrast:")
    from meridian4 import GoverningLaw, integrate_profile, phi_closed_form

    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL,
        MeridianFamily.FIRST_TIMELIKE,
        ProfileParams(a=1.2, c=1.0),
        (1e-3, 12.0),
    )
    profile = integrate_profile(phi, f0=2.0, u_span=(0.0, 0.8), step=1e-3)
    cf = MeridianFamily.FIRST_TIMELIKE.curve_family
    curve = FrameField(cf, 1.2, standard_initial_frame(cf), (0.0, 1.2))
    surface = MeridianSurface(MeridianFamily.FIRST_TIMELIKE, curve, profile)
    cloud = surface.grid_points(
        np.linspace(0.05, 0.75, 15), np.linspace(0.0, 1.2, 15)
    ).reshape(-1, 4)
    rank, residual = affine_rank(cloud)
    print(f"   affine rank: {rank} (residual {residual:.1e}) - no hyperplane traps it")


if __name__ == "__main__":
    main()
