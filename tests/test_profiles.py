"""Tests for meridian profile constructions and their governing residuals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from meridian4 import (
    BranchSigns,
    DomainError,
    GoverningLaw,
    MeridianFamily,
    MeridianProfile,
    PhiFunction,
    ProfileParams,
    Provenance,
    integrate_profile,
    minimal_profile,
    phi_closed_form,
    profile_from_callable,
    profile_residuals,
)
from meridian4.profiles import _positive_intervals

FT = MeridianFamily.FIRST_TIMELIKE
FS = MeridianFamily.FIRST_SPACELIKE
SECOND = MeridianFamily.SECOND
QM, CMC = GoverningLaw.QUASI_MINIMAL, GoverningLaw.CMC


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
        dataclasses.replace(ProfileParams(a=1.0), **{name: bad})


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
# the phi domain scan
# ---------------------------------------------------------------------------


def _reference_intervals(fn, window, n_scan=4096):
    """The domain scan written as a walk over the scan samples, one at a time.

    Same scan, same bisection of each edge as ``_positive_intervals``; the
    runs of admissible samples are found by stepping through the mask.
    """
    lo, hi = float(window[0]), float(window[1])
    ts = np.linspace(lo, hi, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    good = np.isfinite(vals) & (vals >= 0.0)

    def refine(t_bad, t_good):
        for _ in range(60):
            mid = 0.5 * (t_bad + t_good)
            v = float(np.asarray(fn(np.asarray([mid])), dtype=float)[0])
            if np.isfinite(v) and v >= 0.0:
                t_good = mid
            else:
                t_bad = mid
            if abs(t_good - t_bad) < 1e-12 * max(1.0, abs(t_good)):
                break
        return t_good

    intervals = []
    i = 0
    while i < n_scan:
        if not good[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_scan and good[j + 1]:
            j += 1
        left = ts[i] if i == 0 else refine(float(ts[i - 1]), float(ts[i]))
        right = ts[j] if j == n_scan - 1 else refine(float(ts[j + 1]), float(ts[j]))
        if right > left:
            intervals.append((float(left), float(right)))
        i = j + 1
    return tuple(intervals)


def _mask_indicator(mask, window, frac_left, frac_right, bad):
    """An indicator whose scan over ``window`` reads exactly ``mask``.

    Each run of True samples i..j becomes the admissible interval
    [t_i - frac_left dt, t_j + frac_right dt], open-ended at a window end;
    elsewhere the indicator is ``bad`` (negative or not finite).  With both
    fractions 0 a one-sample run is an isolated point, which bisection
    cannot widen, so the scan drops it.
    """
    n = len(mask)
    ts = np.linspace(window[0], window[1], n)
    dt = ts[1] - ts[0]
    runs = []
    i = 0
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            left = -np.inf if i == 0 else ts[i] - frac_left * dt
            right = np.inf if j == n - 1 else ts[j] + frac_right * dt
            runs.append((left, right))
            i = j
        i += 1

    def fn(t):
        t = np.asarray(t, dtype=float)
        inside = np.zeros(t.shape, dtype=bool)
        for left, right in runs:
            inside |= (t >= left) & (t <= right)
        return np.where(inside, 1.0 + t, bad)

    return fn


_MASK_EXAMPLES = [
    [True] * 9,  # all admissible
    [False] * 9,  # all inadmissible
    [True, False, True, False, False, True, False, True, True],  # single-sample runs
    [True, False, False, False, False, False, False, False, False],  # one sample at the left end
    [False, False, False, False, False, False, False, False, True],  # one sample at the right end
    [False, True, True, False, True, False, True, True, False],
]


def _with_mask_examples(test):
    for mask in _MASK_EXAMPLES:
        for fracs in ((0.3, 0.6), (0.0, 0.0)):
            test = example(mask=mask, lo=0.5, width=3.0, frac_left=fracs[0],
                           frac_right=fracs[1], bad=-1.0)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mask=st.lists(st.booleans(), min_size=2, max_size=40),
    lo=st.floats(0.0, 5.0),
    width=st.floats(1e-3, 50.0),
    frac_left=st.just(0.0) | st.floats(0.05, 0.95),
    frac_right=st.just(0.0) | st.floats(0.05, 0.95),
    bad=st.sampled_from([-1.0, -1e-300, np.nan, -np.inf]),
)
@_with_mask_examples
def test_domain_runs_equal_the_per_sample_walk(mask, lo, width, frac_left, frac_right, bad):
    """Runs found from the padded mask's differences equal the sample walk."""
    window = (lo, lo + width)
    fn = _mask_indicator(mask, window, frac_left, frac_right, bad)
    scan = np.asarray(fn(np.linspace(*window, len(mask))))
    assert np.array_equal(np.isfinite(scan) & (scan >= 0.0), mask)
    got = _positive_intervals(fn, window, n_scan=len(mask))
    assert got == _reference_intervals(fn, window, n_scan=len(mask))
    assert len(got) <= sum(mask)


def test_phi_domains_equal_the_per_sample_walk():
    """Every (domain, degenerate) of a PhiFunction grid, against the walk."""
    seen = set()
    for law in (QM, CMC):
        for family in (FT, FS, SECOND):
            for a in (0.5, 1.2, -1.0, 3.0):
                for c in (1.0, -1.0, 0.5):
                    for rhs in (1, -1):
                        params = ProfileParams(a=a, b=0.5, c=c, branch=BranchSigns(rhs=rhs))
                        phi = phi_closed_form(law, family, params, (1e-6, 20.0))
                        ref = _reference_intervals(phi._domain_indicator, (1e-6, 20.0))
                        assert phi.domain == ref
                        seen.add(len(ref))
    assert {0, 1} <= seen


def test_march_never_evaluates_phi_on_arrays(monkeypatch):
    """f' and g' come from the march's own stages: phi(f) is never called."""
    full = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0), (1e-6, 20.0)
    )
    bounded = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, SECOND, ProfileParams(a=0.5, c=2.0), (1e-3, 12.0)
    )
    expected = [integrate_profile(full, 2.0, (0.0, 0.8), 1e-3),
                integrate_profile(bounded, 2.0, (0.0, 5.0), 1e-3)]

    def refuse(self, t):
        raise AssertionError("phi evaluated outside the march")

    monkeypatch.setattr(PhiFunction, "__call__", refuse)
    got = [integrate_profile(full, 2.0, (0.0, 0.8), 1e-3),
           integrate_profile(bounded, 2.0, (0.0, 5.0), 1e-3)]
    for mine, theirs in zip(got, expected):
        for name in ("us", "f", "fp", "fpp", "g", "gp"):
            assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
        assert mine.truncation_reason == theirs.truncation_reason
    assert got[1].truncation_reason == "phi-inadmissible"


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
    assert prof.truncation_reason == "phi-inadmissible"  # z < 0 past t = c/a
    assert prof.us[-1] < 3.0  # the window asked for 5
    assert np.max(prof.f) <= 4.0 + 1e-6  # upper domain edge c/a


def test_march_reports_leaving_the_domain():
    """phi is admissible past the search window, but the march stops at its edge."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=2.0, c=1.0), (1e-3, 12.0)
    )
    assert phi.domain == ((1e-3, 12.0),)
    assert np.isfinite(phi(12.5))
    prof = integrate_profile(phi, 10.8, (0.0, 1.0), 1e-3)
    assert prof.truncated and prof.truncation_reason == "left-domain"
    assert 11.9 < prof.f[-1] <= 12.0 + 1e-9


def test_march_reports_gprime_radicand(monkeypatch):
    """A stage with finite phi but no g' stops the march with its own reason.

    With a consistent family the g' radicand equals z^2 up to a few ulp, so
    no PhiFunction reaches this branch; the stage kernel is stubbed here.
    """
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0), (1e-6, 20.0)
    )
    stage = phi._stage
    monkeypatch.setattr(
        phi, "_stage", lambda t: (stage(t)[0], np.nan) if t > 2.1 else stage(t)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), 1e-3)
    assert prof.truncated and prof.truncation_reason == "gprime-radicand"
    assert prof.f[-1] <= 2.1
    short = integrate_profile(phi, 2.0, (0.0, 1e-2), 1e-3)
    assert not short.truncated and short.truncation_reason is None


@pytest.mark.parametrize("which,reason", [(0, "phi-inadmissible"), (1, "gprime-radicand")])
def test_node_whose_own_stage_fails_is_dropped(monkeypatch, which, reason):
    """The last node gets its own stage; if it is not finite the node goes."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0), (1e-6, 20.0)
    )
    full = integrate_profile(phi, 2.0, (0.0, 1e-2), 1e-3)
    assert len(full) == 11 and not full.truncated
    stage, last = phi._stage, float(full.f[-1])

    def failing_at_last(t):
        out = list(stage(t))
        if t == last:
            out[which] = np.nan
        return tuple(out)

    monkeypatch.setattr(phi, "_stage", failing_at_last)
    cut = integrate_profile(phi, 2.0, (0.0, 1e-2), 1e-3)
    assert cut.truncated and cut.truncation_reason == reason
    assert len(cut) == 10
    for name in ("us", "f", "fp", "fpp", "g", "gp"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[:10]), name


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
# the stage kernel against the array path
# ---------------------------------------------------------------------------

# (law, family, a, b, c, rhs): both laws, the three families, every rhs/c
# sign pair that has a domain, CMC with 4 beta c > 0 (log branch of z) and
# < 0 (arcsin branch); the two starts per case include truncating ones.
_MARCH_CASES = [
    (QM, FT, 1.2, 0.0, 1.0, 1),
    (QM, FT, 1.2, 0.0, 1.0, -1),
    (QM, FT, 1.6, 0.0, -1.0, 1),
    (QM, FS, 1.2, 0.0, 1.0, 1),
    (QM, FS, 1.2, 0.0, 1.0, -1),
    (QM, FS, 1.2, 0.0, -1.0, 1),
    (QM, SECOND, 0.6, 0.0, 1.0, 1),
    (QM, SECOND, 0.6, 0.0, 1.0, -1),
    (QM, SECOND, 1.2, 0.0, -1.0, -1),
    (CMC, FT, 1.2, 0.5, 1.0, 1),
    (CMC, FT, 1.2, 0.5, 1.0, -1),
    (CMC, FT, 1.6, 0.5, -1.0, 1),
    (CMC, FT, 1.2, 0.5, -1.0, -1),
    (CMC, FS, 1.6, 0.5, 1.0, 1),
    (CMC, FS, 1.2, 0.5, 1.0, -1),
    (CMC, FS, 1.2, 0.5, -1.0, 1),
    (CMC, FS, 1.2, 0.5, -1.0, -1),
    (CMC, SECOND, 1.2, 0.5, 1.0, 1),
    (CMC, SECOND, 1.6, -0.5, 1.0, -1),
    (CMC, SECOND, 0.6, 0.5, -1.0, 1),
    (CMC, SECOND, 1.2, -0.5, -1.0, -1),
]


def _march_phi(law, family, a, b, c, rhs):
    params = ProfileParams(a=a, b=b, c=c, branch=BranchSigns(g=-rhs, rhs=rhs))
    phi = phi_closed_form(law, family, params, (1e-3, 12.0))
    assert phi.domain
    return phi


def _reference_march(phi, f0, u_span, step):
    """The RK4 profile march written over the public array calls only.

    Each stage calls ``phi(t)`` and ``family.gprime_radicand``; the result
    must match :func:`integrate_profile` bit for bit.  Returns None where
    fewer than 3 samples survive.
    """
    family = phi.family
    u0, u1 = u_span
    n = max(2, int(round((u1 - u0) / step)))
    h = (u1 - u0) / n
    sg = float(phi.params.branch.g)

    def g_rate(k):
        rad = family.gprime_radicand(np.asarray(k))
        return np.nan if rad < -1e-12 else sg * np.sqrt(max(rad, 0.0))

    def inside(t):
        return any(lo - 1e-9 <= t <= hi + 1e-9 for lo, hi in phi.domain)

    fs, gs = [f0], [float(phi.params.c0)]
    t, gcur, truncated = f0, gs[0], False
    for _ in range(n):
        k1 = phi(t)
        k2 = phi(t + 0.5 * h * k1)
        k3 = phi(t + 0.5 * h * k2)
        k4 = phi(t + h * k3)
        qs = [g_rate(k) for k in (k1, k2, k3, k4)]
        if not np.all(np.isfinite([k1, k2, k3, k4, *qs])):
            truncated = True
            break
        t_next = t + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.isfinite(t_next) and t_next > 0.0 and inside(t_next)):
            truncated = True
            break
        gcur = gcur + (h / 6.0) * (qs[0] + 2.0 * qs[1] + 2.0 * qs[2] + qs[3])
        fs.append(t_next)
        gs.append(gcur)
        t = t_next

    f, g = np.asarray(fs), np.asarray(gs)
    fp = np.asarray(phi(f))
    keep = int(np.argmin(np.isfinite(fp))) if not np.isfinite(fp).all() else len(f)
    rad = family.gprime_radicand(fp[:keep])
    if (rad < -1e-12).any():
        keep = int(np.argmax(rad < -1e-12))
    truncated = truncated or keep < len(f)
    if keep < 3:
        return None
    f, g, fp, rad = f[:keep], g[:keep], fp[:keep], rad[:keep]
    us = u0 + h * np.arange(keep)
    gp = sg * np.sqrt(np.clip(rad, 0.0, None))
    return us, f, fp, np.asarray(phi.second_derivative(f)), g, gp, truncated


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_march_matches_the_array_reference_bit_for_bit(case):
    phi = _march_phi(*case)
    lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
    for f0 in (lo + 0.4 * (hi - lo), lo + 0.9 * (hi - lo)):
        ref = _reference_march(phi, f0, (0.0, 1.0), 2e-3)
        if ref is None:
            with pytest.raises(DomainError, match="collapsed"):
                integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
            continue
        prof = integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
        got = (prof.us, prof.f, prof.fp, prof.fpp, prof.g, prof.gp)
        for name, mine, theirs in zip(("us", "f", "fp", "fpp", "g", "gp"), got, ref):
            assert np.array_equal(mine, theirs), name
        assert prof.truncated == ref[-1]
        assert (prof.truncation_reason is None) == (not prof.truncated)


def test_march_reference_cases_truncate_and_run_through():
    """The bit-for-bit cases above cover both a full march and a truncated one."""
    seen = set()
    for case in _MARCH_CASES:
        phi = _march_phi(*case)
        lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
        for f0 in (lo + 0.4 * (hi - lo), lo + 0.9 * (hi - lo)):
            try:
                seen.add(integrate_profile(phi, f0, (0.0, 1.0), 2e-3).truncation_reason)
            except DomainError:
                seen.add("collapsed")
    assert {None, "phi-inadmissible", "left-domain"} <= seen


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_stage_kernel_matches_the_array_path(case):
    phi = _march_phi(*case)
    family = phi.family
    parts = [np.array([0.0, -1.0, np.nan])]
    for lo, hi in phi.domain:
        edges = np.array([lo, hi])
        parts += [
            np.linspace(lo, hi, 512),
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
        ]
        # the bisected edges sit within ~1e-12 of the true ones, where the
        # roundoff allowance on phi^2 and z decides admissibility
        for edge in edges:
            width = 2e-12 * max(1.0, abs(edge))
            parts.append(np.linspace(edge - width, edge + width, 257))
    ts = np.concatenate(parts)
    p = phi(ts)
    rad = family.gprime_radicand(p)
    with np.errstate(invalid="ignore"):
        sg = float(phi.params.branch.g)
        gp = np.where(rad < -1e-12, np.nan, sg * np.sqrt(np.clip(rad, 0.0, None)))
    with np.errstate(invalid="ignore", divide="ignore"):
        got = np.array([phi._stage(float(t)) for t in ts])
    assert np.array_equal(got[:, 0], p, equal_nan=True)
    assert np.array_equal(got[:, 1], gp, equal_nan=True)
    finite = np.isfinite(p)
    assert np.array_equal(np.signbit(got[finite, 0]), np.signbit(p[finite]))
    assert finite.sum() >= 512 and (~finite).sum() >= 3


@pytest.mark.parametrize("family", [FT, FS, SECOND])
def test_family_helpers_keep_floats_as_floats(family):
    xs = np.array([0.0, 0.3, 1.0, 1.7, 2.5])
    for fn in (family.gprime_radicand, family.z2_from_phi2, family.phi2_from_z2):
        arr = fn(xs)
        for x, expected in zip(xs, arr):
            out = fn(float(x))
            assert type(out) is float
            assert out == expected


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
