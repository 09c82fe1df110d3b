"""The three directrix frame systems at constant curvature, as exact flows.

With kappa = 0 two of the systems have elementary solutions: the spacelike
directrix on the de Sitter carrier is a plain circle, and the timelike one
is a hyperbolic rotation.  This script evaluates the frames in closed form
with ``FrameField.frame_at`` and compares against those solutions, then
takes kappa = 0.8 in every family: the frame on a grid of 1,501 v, and at
1,000 random v, agrees with the matrix exponential exp(vB) S0 of
scipy.linalg.expm, and the frame's Gram matrix stays at roundoff with no
correction.

Needs scipy (in the ``[test]`` extra), for ``expm`` as the reference;
meridian4 itself needs numpy only.

Run:  python3 demos/01_flat_directrices.py
"""

import numpy as np
from scipy.linalg import expm

from meridian4 import (
    SIG3_PPM,
    CurveFamily,
    FrameField,
    orthonormality_deviation,
    standard_initial_frame,
)


def main():
    span = (0.0, 1.5)
    vs = np.linspace(*span, 1501)

    print("== spacelike directrix on S^2_1 (kappa = 0): circle ==")
    family = CurveFamily.SPACELIKE_S21
    ls = FrameField(family, 0.0, standard_initial_frame(family), span).frame_at(vs)[:, 0]
    exact = np.column_stack([np.cos(vs), np.sin(vs), np.zeros_like(vs)])
    print(f"   points: {len(vs)},  max |l - exact| = {np.max(np.abs(ls - exact)):.3e}")

    print("== timelike directrix on S^2_1 (kappa = 0): hyperbolic rotation ==")
    family = CurveFamily.TIMELIKE_S21
    ls = FrameField(family, 0.0, standard_initial_frame(family), span).frame_at(vs)[:, 0]
    exact = np.column_stack([np.cosh(vs), np.zeros_like(vs), np.sinh(vs)])
    print(f"   points: {len(vs)},  max |l - exact| = {np.max(np.abs(ls - exact)):.3e}")

    # Nothing re-orthonormalizes the frame: each value is the exact flow, an
    # element of the frame group, so the Gram deviation is pure roundoff.
    print("== closed form vs scipy.linalg.expm, Gram deviation (kappa = 0.8) ==")
    kappa = 0.8
    random_v = np.random.default_rng(1).uniform(*span, 1000)
    for family in CurveFamily:
        frame0 = standard_initial_frame(family)
        field = FrameField(family, kappa, frame0, span)
        frames = field.frame_at(vs)
        exact = expm(vs[:, None, None] * family.frenet_matrix(kappa)) @ frame0
        drift = max(orthonormality_deviation(S, family.frame_signs, SIG3_PPM) for S in frames)
        print(
            f"   {family.value:<14} max |S - expm| = {np.max(np.abs(frames - exact)):.2e}"
            f"   Gram deviation {drift:.1e}"
        )
        exact = expm(random_v[:, None, None] * family.frenet_matrix(kappa)) @ frame0
        off = np.max(np.abs(field.frame_at(random_v) - exact))
        print(f"   {'':<14} at random v:    {off:.2e}   (1,000 random v, frame_at)")

if __name__ == "__main__":
    main()
