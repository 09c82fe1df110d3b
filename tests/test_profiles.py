"""Tests for meridian profile constructions and their governing residuals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from meridian4 import (
    BranchSigns,
    DomainError,
    GoverningLaw,
    MeridianFamily,
    MeridianProfile,
    ProfileParams,
    Provenance,
    integrate_profile,
    minimal_profile,
    phi_closed_form,
    profile_from_callable,
    profile_residuals,
)

FT = MeridianFamily.FIRST_TIMELIKE
FS = MeridianFamily.FIRST_SPACELIKE
SECOND = MeridianFamily.SECOND


# ---------------------------------------------------------------------------
# branch signs
# ---------------------------------------------------------------------------


def test_branch_signs_parse_round_trip():
    bs = BranchSigns.from_string("+-+-")
    assert (bs.f, bs.g, bs.phi, bs.rhs) == (1, -1, 1, -1)
    assert bs.as_string() == "+-+-"
    # short strings pad with '+'
    assert BranchSigns.from_string("-").as_string() == "-+++"


def test_branch_signs_reject_garbage():
    with pytest.raises(ValueError, match="1-4 characters"):
        BranchSigns.from_string("+x")
    with pytest.raises(ValueError, match="1-4 characters"):
        BranchSigns.from_string("+++++")
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        BranchSigns(g=0)


@pytest.mark.parametrize("name", ["a", "b", "c", "c0"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_profile_params_must_be_finite(name, bad):
    with pytest.raises(ValueError, match=f"parameter {name} must be finite, got {bad}"):
        ProfileParams(**{name: bad})
    with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
        ProfileParams(a=1.0).replace(**{name: bad})


# ---------------------------------------------------------------------------
# minimal closed forms
# ---------------------------------------------------------------------------


def test_minimal_first_timelike_frozen_values():
    """a=0, b=1 gives f = sqrt(1 - u^2), g = arcsin(u)."""
    prof = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), 241)
    us = prof.us
    np.testing.assert_allclose(prof.f, np.sqrt(1.0 - us * us), atol=1e-14)
    np.testing.assert_allclose(prof.g, np.arcsin(us), atol=1e-14)
    res = profile_residuals(prof, GoverningLaw.MINIMAL)
    assert res.max_governing < 1e-12
    assert res.max_constraint < 1e-12


def test_minimal_first_spacelike_frozen_value():
    prof = minimal_profile(FS, ProfileParams(a=1.5, b=1.0), (0.5, 1.0), 101)
    # f(1) = sqrt(1 + 3 + 1)
    assert abs(prof.f[-1] - np.sqrt(5.0)) < 1e-14
    res = profile_residuals(prof, GoverningLaw.MINIMAL)
    assert res.max_governing < 1e-12
    assert res.max_constraint < 1e-12


def test_minimal_second_family_frozen_values():
    prof = minimal_profile(SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), 201)
    i = int(np.argmin(np.abs(prof.us)))
    assert abs(prof.f[i] - 1.0) < 1e-14
    assert abs(prof.g[i]) < 1e-14  # g = ln(u + f) vanishes at u = 0
    res = profile_residuals(prof, GoverningLaw.MINIMAL)
    assert res.max_governing < 1e-12


@pytest.mark.parametrize(
    "family,params,match",
    [
        (FT, ProfileParams(a=0.0, b=-1.0), "a\\^2 \\+ b > 0"),
        (FS, ProfileParams(a=1.0, b=2.0), "a\\^2 - b > 0"),
        (SECOND, ProfileParams(a=2.0, b=1.0), "b - a\\^2 > 0"),
    ],
)
def test_minimal_inadmissible_parameters(family, params, match):
    with pytest.raises(DomainError, match=match):
        minimal_profile(family, params, (0.0, 1.0))


def test_minimal_window_must_avoid_radicand_zero():
    with pytest.raises(DomainError, match="leaves the admissible domain"):
        minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 1.5))


def test_negative_f_branch_rejected():
    params = ProfileParams(a=0.0, b=1.0, branch=BranchSigns(f=-1))
    with pytest.raises(DomainError, match="positive-warp"):
        minimal_profile(FT, params, (-0.5, 0.5))


def test_minimal_g_sign_branch():
    down = minimal_profile(
        FT, ProfileParams(a=0.0, b=1.0, branch=BranchSigns(g=-1)), (-0.5, 0.5), 101
    )
    up = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), 101)
    np.testing.assert_allclose(down.g, -up.g, atol=1e-15)
    np.testing.assert_allclose(down.gp, -up.gp, atol=1e-15)


# ---------------------------------------------------------------------------
# the phi reduction
# ---------------------------------------------------------------------------


def test_phi_quasi_first_timelike_frozen():
    """a=1, c=2: z = (2 + t)/t, so phi(3) = sqrt(z^2 - 1) = 4/3."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    assert abs(phi(3.0) - 4.0 / 3.0) < 1e-14
    assert abs(phi.z_exact(3.0) - 5.0 / 3.0) < 1e-14
    # admissible everywhere in the window: z = 1 + 2/t > 1 for t > 0
    assert len(phi.domain) == 1
    lo, hi = phi.domain[0]
    assert lo < 1e-5 and hi > 39.9


def test_phi_cmc_first_timelike_frozen():
    """a=2, c=1, b=0 at t=1: z = sqrt(2) + ln(2 + 2 sqrt(2))."""
    phi = phi_closed_form(GoverningLaw.CMC, FT, ProfileParams(a=2.0, b=0.0, c=1.0))
    z_expected = np.sqrt(2.0) + np.log(2.0 + 2.0 * np.sqrt(2.0))
    assert abs(phi.z_exact(1.0) - z_expected) < 1e-14
    assert abs(phi(1.0) - np.sqrt(z_expected**2 - 1.0)) < 1e-14


def test_phi_second_family_flips_ode_sign():
    """For the second family the rhs branch sign enters the linear ODE negated."""
    params = ProfileParams(a=0.5, c=2.0)  # rhs = +1
    phi = phi_closed_form(GoverningLaw.QUASI_MINIMAL, SECOND, params, (1e-3, 12.0))
    # z = c/t - a on this branch; admissible where 0 <= z <= 1
    lo, hi = phi.domain[0]
    assert abs(lo - 2.0 / 1.5) < 1e-6
    assert abs(hi - 4.0) < 1e-6
    t = 2.0
    assert abs(phi.z_exact(t) - (2.0 / t - 0.5)) < 1e-14


def test_phi_nan_outside_domain():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, SECOND, ProfileParams(a=0.5, c=2.0), (1e-3, 12.0)
    )
    assert np.isnan(phi(5.0))  # z < 0 there
    assert np.isnan(phi(0.5))  # z > 1 there
    assert np.isnan(phi.z_exact(-1.0))


def test_z_prime_exact_matches_finite_difference():
    cases = [
        (GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0)),
        (GoverningLaw.CMC, FT, ProfileParams(a=2.0, b=0.5, c=1.0)),
        (GoverningLaw.CMC, FS, ProfileParams(a=2.0, b=0.5, c=0.5)),
        (GoverningLaw.CMC, FT, ProfileParams(a=3.0, b=1.0, c=-0.5)),
    ]
    for law, family, params in cases:
        phi = phi_closed_form(law, family, params, (1e-3, 12.0))
        lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
        ts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 17)
        h = 1e-6 * np.maximum(1.0, np.abs(ts))
        fd = (phi.z_exact(ts + h) - phi.z_exact(ts - h)) / (2.0 * h)
        np.testing.assert_allclose(phi.z_prime_exact(ts), fd, atol=1e-8)


def test_second_derivative_is_half_derivative_of_phi_squared():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    ts = np.linspace(1.5, 6.0, 21)
    h = 1e-6
    fd = (phi.phi_squared(ts + h) - phi.phi_squared(ts - h)) / (4.0 * h)
    np.testing.assert_allclose(phi.second_derivative(ts), fd, atol=1e-7)


def test_phi_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError, match="use minimal_profile"):
        phi_closed_form(GoverningLaw.MINIMAL, FT, ProfileParams(a=1.0))
    with pytest.raises(ValueError, match="a != 0"):
        phi_closed_form(GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=0.0, c=1.0))
    with pytest.raises(ValueError, match="minimal case"):
        phi_closed_form(GoverningLaw.CMC, FT, ProfileParams(a=1.0, c=0.0))
    with pytest.raises(ValueError, match="window"):
        phi_closed_form(
            GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=1.0), (2.0, 1.0)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.6, 2.0, allow_nan=False),
    st.floats(0.3, 2.0, allow_nan=False),
    st.floats(0.5, 8.0, allow_nan=False),
)
def test_quasi_first_timelike_ode_property(a, c, t):
    """z(t) solves t z' + z = a on the quasi-minimal branch, for any (a, c)."""
    phi = phi_closed_form(GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=a, c=c), (1e-6, 10.0))
    z = phi.z_exact(t)
    zp = phi.z_prime_exact(t)
    assert abs(t * zp + z - a) < 1e-10 * max(1.0, abs(a), abs(z))


# ---------------------------------------------------------------------------
# profile marching
# ---------------------------------------------------------------------------


def _exact_quasi_trajectory_error(step):
    """|f_end - f_exact| for the a=1, c=2 first-timelike quasi profile.

    The reduced ODE f' = 2 sqrt(1 + f)/f integrates implicitly to
    u(f) = [w^3/3 - w] - [w0^3/3 - w0] with w = sqrt(1 + f), which pins the
    exact endpoint for any step size.
    """
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), step)

    def u_of_f(fv):
        w = np.sqrt(fv + 1.0)
        w0 = np.sqrt(3.0)
        return (w**3 / 3.0 - w) - (w0**3 / 3.0 - w0)

    f_exact = brentq(lambda fv: u_of_f(fv) - prof.us[-1], 2.0, 10.0, xtol=1e-14)
    return abs(prof.f[-1] - f_exact)


def test_profile_march_hits_exact_trajectory():
    assert _exact_quasi_trajectory_error(1e-3) < 1e-11


def test_profile_march_is_fourth_order():
    """Halving the step shrinks the endpoint error ~16x (measured 16.1/16.0)."""
    e1 = _exact_quasi_trajectory_error(0.02)
    e2 = _exact_quasi_trajectory_error(0.01)
    assert e1 / e2 >= 8.0


def test_integrated_profile_residuals_are_tiny():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0), (1e-6, 20.0)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), 1e-3)
    res = profile_residuals(prof, GoverningLaw.QUASI_MINIMAL)
    assert res.max_governing < 1e-10
    assert res.max_constraint < 1e-12
    assert prof.provenance is Provenance.QUASI_MINIMAL_ODE
    assert not prof.truncated


def test_march_truncates_at_domain_edge():
    """A second-family branch with bounded domain stops early and says so."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, SECOND, ProfileParams(a=0.5, c=2.0), (1e-3, 12.0)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 5.0), 1e-3)
    assert prof.truncated
    assert prof.us[-1] < 3.0  # the window asked for 5
    assert np.max(prof.f) <= 4.0 + 1e-6  # upper domain edge c/a


def test_march_rejects_f0_outside_domain():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, SECOND, ProfileParams(a=0.5, c=2.0), (1e-3, 12.0)
    )
    with pytest.raises(DomainError, match="outside the admissible domain"):
        integrate_profile(phi, 10.0, (0.0, 1.0))


def test_march_argument_validation():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    with pytest.raises(ValueError, match="increasing"):
        integrate_profile(phi, 2.0, (1.0, 0.0))
    with pytest.raises(ValueError, match="positive"):
        integrate_profile(phi, 2.0, (0.0, 1.0), step=0.0)
    with pytest.raises(DomainError, match=r"u-grid of 1e\+09 samples .* exceeds the cap"):
        integrate_profile(phi, 2.0, (0.0, 1.0), step=1e-9)


# ---------------------------------------------------------------------------
# user-supplied profiles and residual bookkeeping
# ---------------------------------------------------------------------------


def test_profile_from_callable_linear_f():
    prof = profile_from_callable(
        FT,
        f=lambda u: u + 2.0,
        fp=lambda u: np.ones_like(u),
        fpp=lambda u: np.zeros_like(u),
        u_span=(0.0, 2.0),
        n_samples=401,
    )
    assert prof.provenance is Provenance.USER_SUPPLIED
    # g' = sqrt(f'^2 + 1) = sqrt(2) for the timelike meridian
    np.testing.assert_allclose(prof.gp, np.sqrt(2.0), atol=1e-14)
    res = profile_residuals(prof, GoverningLaw.MINIMAL)
    assert res.max_governing == 2.0  # f f'' + f'^2 + 1 = 2 everywhere


def test_profile_from_callable_enforces_speed_constraint():
    with pytest.raises(DomainError, match="unit-speed"):
        profile_from_callable(
            SECOND,
            f=lambda u: 2.0 * u + 1.0,
            fp=lambda u: np.full_like(u, 2.0),
            fpp=lambda u: np.zeros_like(u),
            u_span=(0.0, 1.0),
        )


def test_residual_checker_warns_on_law_mismatch():
    prof = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), 101)
    with pytest.warns(UserWarning, match="checked against"):
        profile_residuals(prof, GoverningLaw.QUASI_MINIMAL)


def test_cmc_residual_is_sign_free():
    """The CMC residual uses the squared form, so it vanishes on either rhs branch."""
    params = ProfileParams(a=2.0, b=0.5, c=1.0)
    phi = phi_closed_form(GoverningLaw.CMC, FT, params)
    prof = integrate_profile(phi, 1.0, (0.0, 0.5), 1e-3)
    res = profile_residuals(prof, GoverningLaw.CMC)
    scale = np.max(np.abs(res.governing))
    assert scale < 1e-8


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------


def _profile_kwargs(**overrides):
    us = np.linspace(0.0, 1.0, 11)
    base = dict(
        family=FT,
        us=us,
        f=np.ones_like(us),
        fp=np.zeros_like(us),
        fpp=np.zeros_like(us),
        g=us.copy(),
        gp=np.ones_like(us),
        params=ProfileParams(),
        provenance=Provenance.USER_SUPPLIED,
    )
    base.update(overrides)
    return base


def test_profile_requires_uniform_grid():
    us = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
    kw = _profile_kwargs(
        us=us, f=np.ones(5), fp=np.zeros(5), fpp=np.zeros(5), g=us, gp=np.ones(5)
    )
    with pytest.raises(ValueError, match="uniform"):
        MeridianProfile(**kw)


def test_profile_requires_positive_f():
    kw = _profile_kwargs(f=np.linspace(-0.1, 1.0, 11))
    with pytest.raises(DomainError, match="positive"):
        MeridianProfile(**kw)


def test_profile_requires_three_samples():
    us = np.array([0.0, 1.0])
    kw = _profile_kwargs(
        us=us, f=np.ones(2), fp=np.zeros(2), fpp=np.zeros(2), g=us, gp=np.ones(2)
    )
    with pytest.raises(DomainError, match="at least 3 samples"):
        MeridianProfile(**kw)


def test_profile_rejects_nonfinite():
    f = np.ones(11)
    f[5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        MeridianProfile(**_profile_kwargs(f=f))


def test_gpp_follows_the_constraint():
    prof = minimal_profile(FT, ProfileParams(a=0.2, b=1.0), (-0.4, 0.6), 801)
    # differentiate g' numerically and compare with the constraint-derived g''
    h = prof.step
    fd = np.gradient(prof.gp, h)
    np.testing.assert_allclose(prof.gpp[2:-2], fd[2:-2], atol=1e-5)
