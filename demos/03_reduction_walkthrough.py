"""Follow one governing ODE from second order down to a linear first-order one.

The trick that makes the curvature laws tractable: substitute t = f(u) and
track phi(t) = f'(u) as a function of the warp factor itself.  The governing
expression f f'' + f'^2 +- 1 then collapses, and the auxiliary quantity

    z(t) = sqrt(phi(t)^2 +- 1)   (sign depends on the family)

obeys a *linear* equation t z' + z = w(t): with w = +-a for quasi-minimal
surfaces, and w = +-sqrt(a^2 + 4 eps c t^2) for constant <H,H> = c.  This
script builds the closed form, checks the identities numerically, and then
inverts u(f) = u0 + int dt / phi(t) back to the profile to confirm the
round trip.

Run:  python3 demos/03_reduction_walkthrough.py
"""

import numpy as np

from meridian4 import (
    GoverningLaw,
    MeridianFamily,
    ProfileParams,
    integrate_profile,
    phi_closed_form,
    profile_residuals,
)

FT = MeridianFamily.FIRST_TIMELIKE
SECOND = MeridianFamily.SECOND


def main():
    params = ProfileParams(a=1.2, c=1.0)
    phi = phi_closed_form(GoverningLaw.QUASI_MINIMAL, FT, params, (1e-3, 12.0))
    lo, hi = phi.domain[0]
    print(f"quasi-minimal, first family with timelike directrix, a={params.a}, c={params.c}")
    print(f"   admissible t-window: [{lo:.4f}, {hi:.4f}]")

    ts = np.linspace(lo + 0.05, min(hi, 6.0), 5)
    z = phi.z_exact(ts)
    zp = phi.z_prime_exact(ts)
    print("   t z' + z  at sample points (should equal a):")
    for t, zi, zpi in zip(ts, z, zp):
        print(f"      t={t:6.3f}   z={zi:8.5f}   t z' + z = {t * zpi + zi:+.12f}")

    # the substitution that defines z: for this family z^2 = phi^2 + 1
    p = np.asarray(phi(ts))
    print(f"   max |z^2 - (phi^2 + 1)| = {np.max(np.abs(z * z - (p * p + 1.0))):.2e}")

    # invert the first integral on the u-grid and measure the governing law directly
    profile = integrate_profile(phi, f0=2.0, u_span=(0.0, 0.8), step=1e-3)
    res = profile_residuals(profile, GoverningLaw.QUASI_MINIMAL, profile.evaluate(profile.us))
    print("   round trip through the profile in u:")
    print(f"      governing law residual  {res.max_governing:.2e}")
    print(f"      unit-speed constraint   {res.max_constraint:.2e}")

    # the second family's substitution flips orientation and its warp factor
    # is capped by the phi-domain edge; the profile ends exactly at its u*
    print("second family hits its domain wall and truncates honestly:")
    phi2 = phi_closed_form(GoverningLaw.QUASI_MINIMAL, SECOND, ProfileParams(a=0.5, c=2.0), (1e-3, 12.0))
    lo2, hi2 = phi2.domain[0]
    print(f"   admissible t-window: [{lo2:.4f}, {hi2:.4f}]")
    profile2 = integrate_profile(phi2, f0=2.0, u_span=(0.0, 5.0), step=1e-3)
    print(f"   requested u up to 5.0, stopped at u = {profile2.u_span[1]:.3f} "
          f"(f reached {profile2.evaluate(profile2.u_span[1])[0]:.4f}), truncated = {profile2.truncated}")
    print(f"   truncation reason: {profile2.truncation_reason} "
          f"(past t = c/a = {hi2:.4f} the root z of the first integral turns negative)")


if __name__ == "__main__":
    main()
