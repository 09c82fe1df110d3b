"""Tests pinning the per-family sign table of the meridian families."""

import numpy as np
import pytest

from meridian4 import MeridianFamily


@pytest.mark.parametrize(
    "family,alpha,beta",
    [
        (MeridianFamily.FIRST_TIMELIKE, -1.0, 1.0),
        (MeridianFamily.FIRST_SPACELIKE, -1.0, -1.0),
        (MeridianFamily.SECOND, 1.0, -1.0),
    ],
)
def test_sign_table(family, alpha, beta):
    assert (family.alpha, family.beta) == (alpha, beta)
    # e_l = -alpha, e_n = -beta and e_l e_t e_n = -1
    assert family.curve_family.frame_signs == (-alpha, -alpha * beta, -beta)
    for x in (0.0, 0.25, 1.5, 3.0):  # dyadic, so the round trip is exact
        assert family.phi2_from_z2(family.z2_from_phi2(x)) == x
    fp = np.linspace(-3.0, 3.0, 61)
    radicand = family.gprime_radicand(fp)
    ok = radicand >= 0.0
    assert ok.sum() >= 15
    for sign in (1.0, -1.0):
        gp = sign * np.sqrt(radicand[ok])
        np.testing.assert_allclose(family.speed_residual(fp[ok], gp), 0.0, atol=1e-12)
