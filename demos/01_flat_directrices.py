"""Integrate the three directrix frame systems at zero spherical curvature.

With kappa = 0 two of the systems have elementary solutions: the spacelike
directrix on the de Sitter carrier is a plain circle, and the timelike one
is a hyperbolic rotation.  This script integrates the frame ODE with the
closed-form Magnus stepper and compares against those closed forms, then
takes a varying curvature: the frame's Gram matrix stays at roundoff with
no correction, and the error falls about 16x each time the step is halved.

Run:  python3 demos/01_flat_directrices.py
"""

import numpy as np

from meridian4 import CurveFamily, integrate_frenet, standard_initial_frame


def main():
    span = (0.0, 1.5)
    flat = lambda v: 0.0

    print("== spacelike directrix on S^2_1 (kappa = 0): circle ==")
    field = integrate_frenet(
        CurveFamily.SPACELIKE_S21,
        flat,
        standard_initial_frame(CurveFamily.SPACELIKE_S21),
        span,
        1e-3,
    )
    exact = np.column_stack([np.cos(field.vs), np.sin(field.vs), np.zeros_like(field.vs)])
    print(f"   samples: {len(field)},  max |l - exact| = {np.max(np.abs(field.ls - exact)):.3e}")

    print("== timelike directrix on S^2_1 (kappa = 0): hyperbolic rotation ==")
    field = integrate_frenet(
        CurveFamily.TIMELIKE_S21,
        flat,
        standard_initial_frame(CurveFamily.TIMELIKE_S21),
        span,
        1e-3,
    )
    exact = np.column_stack([np.cosh(field.vs), np.zeros_like(field.vs), np.sinh(field.vs)])
    print(f"   samples: {len(field)},  max |l - exact| = {np.max(np.abs(field.ls - exact)):.3e}")

    # No step re-orthonormalizes the frame: each one is the exponential of a
    # Lie-algebra element, so the Gram deviation is pure roundoff.  The
    # 4th-order Magnus step makes the error fall ~2^4 = 16x per halving.
    print("== Gram deviation and error vs step (kappa = 0.8 sin v) ==")
    kappa = lambda v: 0.8 * np.sin(v)
    for family in CurveFamily:
        init = standard_initial_frame(family)
        ref = integrate_frenet(family, kappa, init, span, 1e-3).state(-1).frame
        errors, drifts = [], []
        for step in (0.08, 0.04, 0.02):
            field = integrate_frenet(family, kappa, init, span, step)
            errors.append(np.max(np.abs(field.state(-1).frame - ref)))
            drifts.append(field.max_gram_drift)
        gains = [errors[i] / errors[i + 1] for i in range(2)]
        print(
            f"   {family.value:<14} error {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e}"
            f"   (gains {gains[0]:.0f}x, {gains[1]:.0f}x per halving;"
            f" Gram deviation <= {max(drifts):.0e})"
        )


if __name__ == "__main__":
    main()
