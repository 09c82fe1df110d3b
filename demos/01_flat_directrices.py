"""Integrate the three directrix frame systems at constant curvature.

With kappa = 0 two of the systems have elementary solutions: the spacelike
directrix on the de Sitter carrier is a plain circle, and the timelike one
is a hyperbolic rotation.  This script writes the frames in closed form and
compares against those solutions, then takes kappa = 0.8 in every family:
each node, and the frame that ``frame_at`` writes at 1,000 random v between
the nodes, agrees with the matrix exponential exp(vB) S0 of scipy.linalg.expm,
and the frame's Gram matrix stays at roundoff with no correction.

Needs scipy (in the ``[test]`` extra), for ``expm`` as the reference;
meridian4 itself needs numpy only.

Run:  python3 demos/01_flat_directrices.py
"""

import numpy as np
from scipy.linalg import expm

from meridian4 import CurveFamily, integrate_frenet, standard_initial_frame


def main():
    span = (0.0, 1.5)

    print("== spacelike directrix on S^2_1 (kappa = 0): circle ==")
    field = integrate_frenet(
        CurveFamily.SPACELIKE_S21,
        0.0,
        standard_initial_frame(CurveFamily.SPACELIKE_S21),
        span,
        1e-3,
    )
    exact = np.column_stack([np.cos(field.vs), np.sin(field.vs), np.zeros_like(field.vs)])
    print(f"   samples: {len(field)},  max |l - exact| = {np.max(np.abs(field.ls - exact)):.3e}")

    print("== timelike directrix on S^2_1 (kappa = 0): hyperbolic rotation ==")
    field = integrate_frenet(
        CurveFamily.TIMELIKE_S21,
        0.0,
        standard_initial_frame(CurveFamily.TIMELIKE_S21),
        span,
        1e-3,
    )
    exact = np.column_stack([np.cosh(field.vs), np.zeros_like(field.vs), np.sinh(field.vs)])
    print(f"   samples: {len(field)},  max |l - exact| = {np.max(np.abs(field.ls - exact)):.3e}")

    # Nothing re-orthonormalizes the frame: each node is the exact flow, an
    # element of the frame group, so the Gram deviation is pure roundoff.
    print("== closed form vs scipy.linalg.expm, Gram deviation (kappa = 0.8) ==")
    kappa = 0.8
    off_node = np.random.default_rng(1).uniform(*span, 1000)
    for family in CurveFamily:
        init = standard_initial_frame(family)
        field = integrate_frenet(family, kappa, init, span, 1e-3)
        frames = np.stack([field.ls, field.ts, field.ns], axis=1)
        exact = expm(field.vs[:, None, None] * family.frenet_matrix(kappa)) @ init.frame
        print(
            f"   {family.value:<14} max |S - expm| = {np.max(np.abs(frames - exact)):.2e}"
            f"   Gram deviation {field.max_gram_drift:.1e}"
        )
        exact = expm(off_node[:, None, None] * family.frenet_matrix(kappa)) @ init.frame
        off = np.max(np.abs(field.frame_at(off_node) - exact))
        print(f"   {'':<14} off the nodes:  {off:.2e}   (1,000 random v, frame_at)")

if __name__ == "__main__":
    main()
