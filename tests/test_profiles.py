"""Tests for meridian profile constructions and their governing residuals."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from meridian4 import (
    BranchSigns,
    DomainError,
    FrameField,
    GoverningLaw,
    MeridianFamily,
    MeridianProfile,
    MeridianSurface,
    ProfileParams,
    Provenance,
    integrate_profile,
    minimal_profile,
    phi_closed_form,
    profile_from_callable,
    profile_residuals,
    verify_case,
)
from meridian4 import profiles
from meridian4.harness import _build_case, _suite_cases
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
    assert (bs.g, bs.phi, bs.rhs) == (-1, 1, -1)
    assert bs.as_string() == "+-+-"
    # short strings pad with '+'
    assert BranchSigns.from_string("+-").as_string() == "+-++"


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
    prof = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.6, 0.6), step=5e-3)
    us = prof.us
    f, _, _, g, _ = values = prof.evaluate(us)
    np.testing.assert_allclose(f, np.sqrt(1.0 - us * us), atol=1e-14)
    np.testing.assert_allclose(g, np.arcsin(us), atol=1e-14)
    res = profile_residuals(prof, GoverningLaw.MINIMAL, values)
    assert res.max_governing < 1e-12
    assert res.max_constraint < 1e-12


def test_minimal_first_spacelike_frozen_value():
    prof = minimal_profile(FS, ProfileParams(a=1.5, b=1.0), (0.5, 1.0), step=5e-3)
    values = prof.evaluate(prof.us)
    # f(1) = sqrt(1 + 3 + 1)
    assert abs(values[0][-1] - np.sqrt(5.0)) < 1e-14
    res = profile_residuals(prof, GoverningLaw.MINIMAL, values)
    assert res.max_governing < 1e-12
    assert res.max_constraint < 1e-12


def test_minimal_second_family_frozen_values():
    prof = minimal_profile(SECOND, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), step=5e-3)
    i = int(np.argmin(np.abs(prof.us)))
    f, _, _, g, _ = values = prof.evaluate(prof.us)
    assert abs(f[i] - 1.0) < 1e-14
    assert abs(g[i]) < 1e-14  # g = ln(u + f) vanishes at u = 0
    res = profile_residuals(prof, GoverningLaw.MINIMAL, values)
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
    """The f sign is only a string position: '-' there is refused, and a
    BranchSigns holds g, phi and rhs alone."""
    for text in ("-", "-+++", "--+-"):
        with pytest.raises(DomainError, match="positive-warp"):
            BranchSigns.from_string(text)
    assert [f.name for f in dataclasses.fields(BranchSigns)] == ["g", "phi", "rhs"]


@pytest.mark.parametrize("branch", [BranchSigns(phi=-1), BranchSigns(rhs=-1),
                                    BranchSigns(g=-1, phi=-1, rhs=-1)])
def test_minimal_profile_refuses_the_phi_and_rhs_branches(branch):
    want = f"got phi {branch.phi:+d} and rhs {branch.rhs:+d}"
    with pytest.raises(ValueError, match=f"no phi or rhs branch.*{re.escape(want)}"):
        minimal_profile(FT, ProfileParams(a=0.0, b=1.0, branch=branch), (-0.5, 0.5))


def test_minimal_g_sign_branch():
    down = minimal_profile(
        FT, ProfileParams(a=0.0, b=1.0, branch=BranchSigns(g=-1)), (-0.5, 0.5), step=1e-2
    )
    up = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), step=1e-2)
    _, _, _, g_down, gp_down = down.evaluate(down.us)
    _, _, _, g_up, gp_up = up.evaluate(up.us)
    np.testing.assert_allclose(g_down, -g_up, atol=1e-15)
    np.testing.assert_allclose(gp_down, -gp_up, atol=1e-15)


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


@pytest.mark.parametrize("window,n_scan,edge,side", [
    ((0.0, 1.0), 64, 0.3, 1.0),  # admissible left of the edge
    ((0.0, 1.0), 64, 0.3, -1.0),  # admissible right of it
    ((1e-6, 20.0), 4096, 2.121320343558991, 1.0),  # a suite CMC edge, at the suite's scan
    ((0.0, 1e7), 3, 0.25, 1.0),  # the 60-step cap binds: 5e6 / 2^60 > 1e-12
], ids=["right-edge", "left-edge", "suite-scan", "step-cap"])
def test_domain_edges_take_one_call_per_five_bisection_steps(window, n_scan, edge, side):
    """An edge bisected in n steps costs ceil(n / 5) indicator calls, and ends
    where the one-midpoint-per-call walk ends, bit for bit."""
    sizes = []

    def fn(t):
        t = np.asarray(t, dtype=float)
        sizes.append(t.size)
        return side * (edge - t)

    ref = _reference_intervals(fn, window, n_scan)
    steps = len(sizes) - 1  # after the scan, one call per bisection step
    sizes.clear()
    assert _positive_intervals(fn, window, n_scan) == ref
    assert sizes[0] == n_scan and len(sizes) - 1 == -(-steps // 5)
    if window[1] == 1e7:
        assert steps == 60


def test_suite_phi_scans_take_seven_calls_per_edge(monkeypatch):
    """Each quasi-minimal and CMC case of the suite scans phi's domain in one
    indicator call and bisects each edge inside the window in at most seven
    (35 bisection steps take a 20 / 4095 bracket under 1e-12)."""
    calls, seen = [], []
    indicator, closed_form = profiles.PhiFunction._domain_indicator, profiles.phi_closed_form

    def counting(phi, t):
        calls.append(np.size(t))
        return indicator(phi, t)

    def recording(law, family, params, window):
        calls.clear()
        phi = closed_form(law, family, params, window)
        inner = sum(t not in window for ivl in phi.domain for t in ivl)
        seen.append((len(calls), inner))
        return phi

    monkeypatch.setattr(profiles.PhiFunction, "_domain_indicator", counting)
    monkeypatch.setattr("meridian4.harness.phi_closed_form", recording)
    for spec in _suite_cases():
        if spec.theorem.law is not GoverningLaw.MINIMAL and spec.theorem.family is not None:
            _build_case(spec)
    assert len(seen) == 9
    assert all(n <= 1 + 7 * inner for n, inner in seen)
    assert sum(n for n, _ in seen) <= 8 * len(seen)


# ---------------------------------------------------------------------------
# profiles by quadrature
# ---------------------------------------------------------------------------


def _exact_quasi_trajectory_error(step):
    """max |f_i - f_exact(u_i)| over the nodes of the a=1, c=2 first-timelike
    quasi profile.

    The reduced ODE f' = 2 sqrt(1 + f)/f integrates implicitly to
    u(f) = [w^3/3 - w] - [w0^3/3 - w0] with w = sqrt(1 + f), which pins the
    exact f at every node for any step size.
    """
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), step)

    def u_of_f(fv):
        w = np.sqrt(fv + 1.0)
        w0 = np.sqrt(3.0)
        return (w**3 / 3.0 - w) - (w0**3 / 3.0 - w0)

    f_exact = [brentq(lambda fv: u_of_f(fv) - u, 2.0, 10.0, xtol=1e-15) for u in prof.us[1:]]
    return float(np.max(np.abs(prof.evaluate(prof.us)[0][1:] - f_exact)))


def test_profile_march_hits_exact_trajectory():
    assert _exact_quasi_trajectory_error(1e-3) < 1e-11


@pytest.mark.parametrize("step", [1e-3, 1e-2, 2e-2])
def test_profile_nodes_lie_on_the_exact_trajectory(step):
    """The quadrature has no step error: every node is exact at any step."""
    assert _exact_quasi_trajectory_error(step) < 1e-13


def test_integrated_profile_residuals_are_tiny():
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.2, c=1.0), (1e-6, 20.0)
    )
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), 1e-3)
    res = profile_residuals(prof, GoverningLaw.QUASI_MINIMAL, prof.evaluate(prof.us))
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
    assert np.max(prof.evaluate(prof.us)[0]) <= 4.0 + 1e-6  # upper domain edge c/a


def test_march_reports_leaving_the_domain():
    """phi is admissible past the search window, but the march stops at its edge."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=2.0, c=1.0), (1e-3, 12.0)
    )
    assert phi.domain == ((1e-3, 12.0),)
    assert np.isfinite(phi(12.5))
    prof = integrate_profile(phi, 10.8, (0.0, 1.0), 1e-3)
    assert prof.truncated and prof.truncation_reason == "left-domain"
    assert 11.9 < prof.evaluate(prof.us)[0][-1] <= 12.0 + 1e-9


def test_unconverged_node_is_a_named_domain_error(monkeypatch):
    """A node whose u(f) misses u beyond roundoff is never returned: the
    evaluator asked for the nodes names the u it did not converge at."""
    phi = phi_closed_form(
        GoverningLaw.QUASI_MINIMAL, FT, ProfileParams(a=1.0, c=2.0), (1e-6, 40.0)
    )
    # the first guess only, from a table too coarse for it to be exact after
    # its one correction
    monkeypatch.setattr(profiles, "_NEWTON_MAX", 1)
    monkeypatch.setattr(profiles, "_TABLE_PANELS", 8)
    prof = integrate_profile(phi, 2.0, (0.0, 0.8), 1e-3)
    with pytest.raises(DomainError, match=r"inversion did not converge at u = \S+: \|u\(f\) - u\| = "):
        prof.evaluate(prof.us)


@pytest.mark.parametrize("law,family,params,f0", [
    # phi == 0: z = a on this branch, so phi^2 = a^2 - 1 = 0
    (QM, FT, ProfileParams(a=1.0, c=0.0), 2.0),
], ids=["degenerate-phi"])
def test_stationary_start_gives_the_constant_profile(law, family, params, f0):
    phi = phi_closed_form(law, family, params, (1e-3, 12.0))
    assert phi(f0) == 0.0 and phi.second_derivative(f0) == 0.0
    prof = integrate_profile(phi, f0, (0.0, 0.5), 1e-2)
    assert len(prof.us) == 51 and not prof.truncated
    f, fp, _, g, gp = prof.evaluate(prof.us)
    assert np.all(f == f0) and np.all(fp == 0.0)
    gp0 = np.sqrt(family.gprime_radicand(0.0))
    assert np.all(gp == gp0)
    np.testing.assert_array_equal(g, params.c0 + gp0 * (prof.us - prof.us[0]))


def test_start_on_a_simple_root_is_a_turning_point():
    """f0 on the simple root z(2) = c/2 + a = 1 of phi^2 = z^2 - 1: f' = 0 but
    f'' = -z z' = -0.25, so the law turns f around and f = f0 is no solution."""
    phi = phi_closed_form(QM, FT, ProfileParams(a=0.5, c=1.0), (1e-3, 12.0))
    assert phi(2.0) == 0.0 and phi.second_derivative(2.0) == -0.25
    with pytest.raises(DomainError, match=r"f0 = 2 is a turning point .* f''\(f0\) = -0\.25"):
        integrate_profile(phi, 2.0, (0.0, 0.5), 1e-2)


def test_profile_ends_on_a_simple_root():
    """Windows that end one float below u*, where f reaches the simple root
    t = 2 of phi^2 = (1/t + 1/2)^2 - 1, are whole at every step, and their
    last node is the root to roundoff; f rises to it monotonically.

    u* is the least float at which the 4-step window is truncated, as the
    profile finds it.  It is within 1e-10 of the closed form
    int_1^2 t dt / sqrt(1 + t - 3 t^2 / 4) = sqrt(5)/1.5 + (pi/2 - asin(1/4)) 4/(3 sqrt 3).
    """
    phi = phi_closed_form(QM, FT, ProfileParams(a=0.5, c=1.0), (1e-3, 12.0))
    eps = np.finfo(float).eps
    whole, cut = 2.5, 2.6
    while np.nextafter(whole, cut) < cut:
        mid = 0.5 * (whole + cut)
        if integrate_profile(phi, 1.0, (0.0, mid), mid / 4).truncated:
            cut = mid
        else:
            whole = mid
    closed = np.sqrt(1.25) / 0.75 + (0.5 * np.pi - np.arcsin(0.25)) * 4.0 / (3.0 * np.sqrt(3.0))
    assert abs(cut - closed) <= 1e-10
    below = cut - np.geomspace(1e-2, 1e-14, 13)
    for n in (4, 400, 4000):
        prof = integrate_profile(phi, 1.0, (0.0, whole), whole / n)
        assert len(prof.us) == n + 1 and not prof.truncated
        f_nodes, fp, _, _, gp = prof.evaluate(prof.us)
        assert 2.0 - 4.0 * eps <= f_nodes[-1] <= 2.0
        assert 0.0 <= fp[-1] <= 1e-7
        assert abs(gp[-1] - 1.0) <= 4.0 * eps
        f = np.append(prof.evaluate(below)[0], f_nodes[-1])
        assert np.all(np.diff(f) >= 0.0) and f[-1] <= 2.0


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
# the quadrature against independent references
# ---------------------------------------------------------------------------

# (law, family, a, b, c, rhs): both laws, the three families, every rhs/c
# sign pair that has a domain, CMC with 4 beta c > 0 (log branch of z) and
# < 0 (arcsin branch); the starts per case (_starts) include truncating ones.
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
    """The profile by a fixed-step RK4 march over the public array calls.

    Each stage calls ``phi(t)`` and ``family.gprime_radicand``; a stage
    whose phi is not finite (``"phi-inadmissible"``) or whose g' radicand is
    below roundoff (``"gprime-radicand"``), or a step that leaves phi's
    domain (``"left-domain"``), ends the march, and a node that fails its own
    stage is dropped.  Returns None where fewer than 3 samples survive.
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
    t, gcur, reason = f0, gs[0], None
    for _ in range(n):
        k1 = phi(t)
        k2 = phi(t + 0.5 * h * k1)
        k3 = phi(t + 0.5 * h * k2)
        k4 = phi(t + h * k3)
        qs = [g_rate(k) for k in (k1, k2, k3, k4)]
        if not np.all(np.isfinite([k1, k2, k3, k4])):
            reason = "phi-inadmissible"
            break
        if not np.all(np.isfinite(qs)):
            reason = "gprime-radicand"
            break
        t_next = t + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.isfinite(t_next) and t_next > 0.0 and inside(t_next)):
            reason = "left-domain"
            break
        gcur = gcur + (h / 6.0) * (qs[0] + 2.0 * qs[1] + 2.0 * qs[2] + qs[3])
        fs.append(t_next)
        gs.append(gcur)
        t = t_next

    f, g = np.asarray(fs), np.asarray(gs)
    fp = np.asarray(phi(f))
    keep = len(f)
    if not np.isfinite(fp).all():
        keep, reason = int(np.argmin(np.isfinite(fp))), "phi-inadmissible"
    rad = family.gprime_radicand(fp[:keep])
    if (rad < -1e-12).any():
        keep, reason = int(np.argmax(rad < -1e-12)), "gprime-radicand"
    if keep < 3:
        return None
    f, g, fp, rad = f[:keep], g[:keep], fp[:keep], rad[:keep]
    us = u0 + h * np.arange(keep)
    gp = sg * np.sqrt(np.clip(rad, 0.0, None))
    return us, f, fp, np.asarray(phi.second_derivative(f)), g, gp, reason


def _starts(phi):
    """Two starts inside the widest domain interval, and one 1e-6 inside the
    edge behind them (every case has phi > 0, so f rises)."""
    lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
    return lo + 0.4 * (hi - lo), lo + 0.9 * (hi - lo), lo + 1e-6


_QUAD = dict(epsabs=1e-15, epsrel=1e-14, limit=400)


def _scipy_reference(phi, f0, offsets, guesses):
    """(f, g - c0, g') at u0 + offsets, and u*, from quad and brentq alone.

    f solves u(f) = int_{f0}^{f} dt / phi(t) = offset by brentq within
    +-1e-11 of its guess (without a sign change there the test fails), and
    g - c0 = int_{f0}^{f} g'(t) / phi(t) dt.  If phi^2 has a root r at the
    far edge, the last 1e-5 of the interval's width before r is integrated
    with the weight (r - t)^(-1/2) (``weight='alg'``), and u* = u(r).  g is
    NaN there: so close to r the closed form gives phi to only ~eps / phi^2
    relative, and quad's adaptive g of g'/phi is no longer good to 1e-12.
    """
    (lo, hi), = [iv for iv in phi.domain if iv[0] - 1e-9 <= f0 <= iv[1] + 1e-9]
    width, family, sg = hi - lo, phi.family, phi.params.branch.g

    def gp(t):
        return sg * np.sqrt(max(float(family.gprime_radicand(phi(t))), 0.0))

    def inv(t):
        return 1.0 / phi(t)

    def p2(t):
        return float(phi.phi_squared(t))

    d = 1e-6 * width
    root = near = None
    if p2(hi - d) * p2(hi + d) < 0.0:
        root = brentq(p2, hi - d, hi + d, xtol=1e-16, rtol=8.9e-16)
        slope = (-p2(root + 2 * d) + 8 * p2(root + d) - 8 * p2(root - d) + p2(root - 2 * d)) / (12 * d)
        near = root - 1e-5 * width

    def to_root(a):
        # int_a^r dt / phi(t), with sqrt(r - t) / phi(t) -> 1 / sqrt|(phi^2)'(r)|
        def smooth(t):
            return 1.0 / np.sqrt(abs(slope)) if root - t < 1e-12 * width else np.sqrt(root - t) / phi(t)
        return quad(smooth, a, root, weight="alg", wvar=(0.0, -0.5), epsabs=1e-14, epsrel=1e-13)[0]

    def u_of(f):
        if root is None or f <= near:
            return quad(inv, f0, f, **_QUAD)[0]
        return u_near - to_root(f)

    if root is not None:
        u_near = quad(inv, f0, near, **_QUAD)[0] + to_root(near)

    rows = []
    for offset, guess in zip(offsets, guesses):
        a = guess - 1e-11 * max(1.0, abs(guess))
        b = min(2.0 * guess - a, hi if root is None else root)
        u_a = u_of(a)
        f = brentq(lambda x: u_a + quad(inv, a, x, **_QUAD)[0] - offset, a, b,
                   xtol=1e-16, rtol=8.9e-16)
        g = quad(lambda t: gp(t) / phi(t), f0, f, **_QUAD)[0] if root is None or f <= near else np.nan
        rows.append((f, g, gp(f)))
    return np.array(rows), u_of(hi if root is None else root)


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_profile_matches_the_scipy_reference(case):
    """f, g, g' within 1e-12 of quad + brentq; a truncated profile ends at u*."""
    phi = _march_phi(*case)
    with np.errstate(invalid="ignore", divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for f0 in _starts(phi):
            try:
                prof = integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
            except DomainError as exc:
                assert "collapsed" in str(exc)
                continue
            n = len(prof.us)
            nodes = np.unique([1, n // 2, n - 4, n - 1])
            f, _, _, g, gp = prof.evaluate(prof.us)
            ref, u_star = _scipy_reference(phi, f0, prof.us[nodes] - prof.us[0], f[nodes])
            np.testing.assert_allclose(f[nodes], ref[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(gp[nodes], ref[:, 2], rtol=1e-12, atol=1e-12)
            inner = np.isfinite(ref[:, 1])
            assert inner[0]
            np.testing.assert_allclose(g[nodes[inner]] - prof.params.c0, ref[inner, 1],
                                       rtol=0, atol=1e-12)
            u_last = prof.us[-1] - prof.us[0]
            if prof.truncated:
                assert u_last <= u_star < u_last + prof.us[1] - prof.us[0]
            else:
                assert u_star >= u_last
            # off the nodes: the midpoints before those nodes, and random u
            u = np.concatenate([0.5 * (prof.us[nodes - 1] + prof.us[nodes]),
                                np.random.default_rng(n).uniform(*prof.u_span, 2)])
            f, _, _, g, gp = _surface_of(prof).profile_values(u)
            ref, _ = _scipy_reference(phi, f0, u - prof.us[0], f)
            np.testing.assert_allclose(f, ref[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(gp, ref[:, 2], rtol=1e-12, atol=1e-12)
            inner = np.isfinite(ref[:, 1])
            np.testing.assert_allclose(g[inner] - prof.params.c0, ref[inner, 1],
                                       rtol=0, atol=1e-12)


def _surface_of(prof):
    """prof assembled with a short directrix of its family."""
    curve = FrameField(prof.family.curve_family, 0.5, (0.0, 1.0))
    return MeridianSurface(curve, prof)


def test_march_reference_cases_truncate_and_run_through():
    """The reference cases above cover both a whole profile and a truncated one."""
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
def test_truncation_matches_the_rk4_reference(case):
    """The truncated flag and the reason equal those of the RK4 march.

    Where the march collapses, so does the quadrature, unless the march's
    first step (f0 + h phi(f0)) already jumps past the whole interval:
    near t = 0 phi grows like 1/t, beyond what RK4 resolves at this step.
    """
    phi = _march_phi(*case)
    lo, hi = max(phi.domain, key=lambda iv: iv[1] - iv[0])
    for f0 in _starts(phi):
        ref = _reference_march(phi, f0, (0.0, 1.0), 2e-3)
        if ref is None:
            if 2e-3 * abs(phi(f0)) > hi - lo:
                continue
            with pytest.raises(DomainError, match="collapsed"):
                integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
            continue
        prof = integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
        assert prof.truncation_reason == ref[-1]
        assert prof.truncated == (ref[-1] is not None)


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_march_matches_the_array_reference_bit_for_bit(case):
    """Every column but g is the public array calls at the profile's nodes.

    The u-grid is u0 + h i, f' = phi(f), f'' = phi.second_derivative(f) and
    g' = sign_g z_exact(f), bit for bit; the first node is (f0, c0) itself,
    and f moves strictly in the direction of phi(f0).
    """
    phi = _march_phi(*case)
    sg = float(phi.params.branch.g)
    for f0 in _starts(phi):
        try:
            prof = integrate_profile(phi, f0, (0.0, 1.0), 2e-3)
        except DomainError as exc:
            assert "collapsed" in str(exc)
            continue
        f, fp, fpp, g, gp = prof.evaluate(prof.us)
        ref = (
            0.0 + (1.0 / 500) * np.arange(len(f)),
            np.asarray(phi(f)),
            np.asarray(phi.second_derivative(f)),
            sg * phi.z_exact(f),
        )
        got = (prof.us, fp, fpp, gp)
        for name, mine, theirs in zip(("us", "fp", "fpp", "gp"), got, ref):
            assert np.array_equal(mine, theirs), name
        assert f[0] == f0 and g[0] == prof.params.c0
        assert np.all(np.sign(np.diff(f)) == np.sign(phi(f0)))
        assert (prof.truncation_reason is None) == (not prof.truncated)


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_stage_kernel_matches_the_array_path(case):
    """The quadrature's integrands are 1/phi and g'/phi of the array path.

    On the path over each domain interval (mapped onto the roots of phi^2
    as the profile maps it), at panel stages and at s within 1e-6 of either
    end: phi(t) is finite and non-zero, du/dt is 1/phi(t) and z is z(t) bit
    for bit, du/ds is positive, and z^2 (dg/ds = sign_g z du/ds) is the g'
    radicand of phi(t) up to the roundoff of phi^2 and z^2.
    """
    phi = _march_phi(*case)
    family = phi.family
    panels = np.linspace(0.0, 1.0, 17)
    a, half = panels[:-1, None], 0.5 * np.diff(panels)[:, None]
    ends = np.geomspace(1e-6, 1e-1, 64)
    s = np.concatenate([
        (a + half * (1.0 + profiles._GL_NODES)).ravel(),
        np.linspace(0.0, 1.0, 513)[1:-1],
        ends,
        1.0 - ends,
    ])
    for lo, hi in phi.domain:
        root_b, root_e = profiles._simple_roots(phi, (lo, hi))
        t_b = lo if root_b is None else root_b
        t_e = hi if root_e is None else root_e
        path = profiles._Path(phi, t_b, t_e, root_b is not None, root_e is not None)
        t = path.t(s)
        rate, dudt, z = path.rates(s)
        p = np.asarray(phi(t))
        assert np.all(np.isfinite(p) & (p != 0.0))
        assert np.array_equal(dudt, 1.0 / p)
        assert np.all(rate > 0.0)
        assert np.array_equal(z, phi.z_exact(t))
        rad = family.gprime_radicand(p)
        scale = z * z + p * p + abs(family.beta)
        assert np.all(np.abs(z * z - rad) <= 8.0 * np.finfo(float).eps * scale)


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
# the start of the path
# ---------------------------------------------------------------------------


def _start_residual_ok(path, f0, s0):
    """s0 in [0, 1) and t(s0) = f0 to the roundoff of evaluating t."""
    eps = np.finfo(float).eps
    bound = 4.0 * eps * (abs(path.t_b) + abs(path.width))
    return 0.0 <= s0 < 1.0 and abs(path.t(s0) - f0) <= bound


def test_path_start_solves_the_cubic_on_every_suite_path(monkeypatch):
    """Every quasi-minimal and CMC case of the suite starts its path at an s0
    with t(s0) = f0 to roundoff."""
    seen = []
    start = profiles._Path.start

    def recording(path, f0):
        s0 = start(path, f0)
        seen.append((path, f0, s0))
        return s0

    monkeypatch.setattr(profiles._Path, "start", recording)
    reduced = [s for s in _suite_cases() if s.theorem.law is not GoverningLaw.MINIMAL
               and s.theorem.family is not None]
    for spec in reduced:
        _build_case(spec)
    assert len(seen) == len(reduced) == 9
    for path, f0, s0 in seen:
        assert _start_residual_ok(path, f0, s0)


@pytest.mark.parametrize("root_b,root_e", [(False, True), (True, True), (True, False), (False, False)])
def test_path_start_solves_the_cubic_up_to_a_root_end(root_b, root_e):
    """On paths with slope 0 at a root end, with starts from t(0) to just
    before t(1), down to 1e-16 of the width from either end."""
    phi = _march_phi(QM, FT, 1.2, 0.0, 1.0, 1)
    rng = np.random.default_rng(3)
    ends = np.geomspace(1e-16, 0.5, 40)
    for t_b, t_e in ((0.5, 3.0), (3.0, 0.5), (-1e-3, 7e4)):
        path = profiles._Path(phi, t_b, t_e, root_b, root_e)
        fracs = np.concatenate([rng.uniform(0.0, 1.0, 50), [0.0, 1e-300], ends, 1.0 - ends])
        for frac in fracs:
            f0 = t_b + (t_e - t_b) * frac
            if not abs(path.t(1.0) - f0) > 0.0:
                continue
            assert _start_residual_ok(path, f0, path.start(f0)), (t_b, t_e, frac)


# ---------------------------------------------------------------------------
# the evaluator of a reduced profile
# ---------------------------------------------------------------------------

_REDUCED_SUITE = [pytest.param(s, id=s.theorem.value) for s in _suite_cases()
                  if s.theorem.law is not GoverningLaw.MINIMAL and s.theorem.family is not None]


def _newton_reference(inverse, u):
    """(f, g) at u by Newton on u(f) = u from the table's first guess until
    every miss is at roundoff, then the first-order correction."""
    path, w = inverse.path, np.unique(np.ravel(u) - inverse.u0)
    k = np.clip(np.searchsorted(inverse.rows[:, 2], w, side="right") - 1, 0,
                len(inverse.rows) - 1)
    s_k, ds, u_k, du_k, g_k, c1, c2, c3 = inverse.rows[k].T
    frac = (w - u_k) / du_k
    step = ((c3 * frac + c2) * frac + c1) * frac
    s = np.clip(s_k + np.where((0.0 <= step) & (step <= ds), step, frac * ds), 0.0, 1.0)
    for _ in range(profiles._NEWTON_MAX):
        du, dg, rate, dudt, _ = path.panels(s_k, s, s)
        t, m = path.t(s), u_k + du - w
        if np.all(np.abs(m) <= 64.0 * profiles._EPS * (inverse.span + np.abs(t * dudt))):
            break
        s = np.clip(s - m / rate, 0.0, 1.0)
    f = np.where(w == 0.0, inverse.f0, t - m / dudt)
    g = path.phi.params.c0 + g_k + dg - m * path.phi.params.branch.g * path.phi._z(f)
    return w + inverse.u0, f, g


def _query_sets(prof):
    rng = np.random.default_rng(len(prof.us))
    return [rng.uniform(*prof.u_span, n) for n in (1, 20, 205, 1001)]


@pytest.mark.parametrize("spec", _REDUCED_SUITE)
def test_every_evaluate_takes_one_quadrature_pass(spec, monkeypatch):
    """Every evaluation of a suite profile, at the table of every u
    ``verify_case`` reads (the case's only evaluation, which the profile
    residuals read as well) and at 1 to 1,001 random u, is exact after the
    first Gauss-Legendre panel pass from the table's guess."""
    panels, passes = [], []
    path_panels, call = profiles._Path.panels, profiles._Inverse.__call__

    def counting_panels(path, a, b, ends):
        panels.append(len(ends))
        return path_panels(path, a, b, ends)

    def counting_call(inverse, u):
        before = len(panels)
        out = call(inverse, u)
        passes.append(len(panels) - before)
        return out

    monkeypatch.setattr(profiles._Path, "panels", counting_panels)
    monkeypatch.setattr(profiles._Inverse, "__call__", counting_call)
    assert verify_case(spec).status == "pass"
    n_case = len(passes)
    prof = _build_case(spec)[0].profile
    for u in _query_sets(prof):
        prof.evaluate(u)
    assert n_case == 1 and passes == [1] * len(passes)


@pytest.mark.parametrize("spec", _REDUCED_SUITE)
def test_evaluate_matches_newton_to_roundoff(spec):
    """f and g within 16 eps of their scale of Newton iterated to roundoff;
    f', f'' and g' are the closed forms phi(f), -alpha z z' and sign_g z at
    the returned f, so they carry no error but f's."""
    prof = _build_case(spec)[0].profile
    phi, eps = prof.evaluate.path.phi, np.finfo(float).eps
    for u in _query_sets(prof):
        f, fp, fpp, g, gp = prof.evaluate(u)
        w, f_ref, g_ref = _newton_reference(prof.evaluate, u)
        back = np.searchsorted(w, u)
        for got, ref in ((f, f_ref[back]), (g, g_ref[back])):
            assert np.max(np.abs(got - ref)) <= 16.0 * eps * np.max(np.abs(ref))
        assert np.array_equal(fp, phi(f))
        assert np.array_equal(fpp, phi.second_derivative(f))
        assert np.array_equal(gp, phi.params.branch.g * phi.z_exact(f))


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
        step=5e-3,
    )
    assert prof.provenance is Provenance.USER_SUPPLIED
    values = prof.evaluate(prof.us)
    # g' = sqrt(f'^2 + 1) = sqrt(2) for the timelike meridian
    np.testing.assert_allclose(values[4], np.sqrt(2.0), atol=1e-14)
    res = profile_residuals(prof, GoverningLaw.MINIMAL, values)
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


def test_profile_from_callable_checks_its_nodes_without_zero_width_panels():
    """Construction calls f' once at the nodes and once per g-table panel
    (12 points each), and checks g at the nodes from that table."""
    sizes = []

    def fp(u):
        sizes.append(np.size(u))
        return np.full_like(u, 0.5)

    prof = profile_from_callable(FT, lambda u: 0.5 * u + 1.0, fp, np.zeros_like,
                                 (0.0, 1.0), step=1e-2)
    n = len(prof.us)
    assert sorted(sizes) == sorted([12 * (n - 1), n])
    g = prof.evaluate(prof.us)[3]
    np.testing.assert_allclose(g, np.sqrt(1.25) * prof.us, rtol=0, atol=1e-14)


def test_residual_checker_warns_on_law_mismatch():
    prof = minimal_profile(FT, ProfileParams(a=0.0, b=1.0), (-0.5, 0.5), step=1e-2)
    with pytest.warns(UserWarning, match="checked against"):
        profile_residuals(prof, GoverningLaw.QUASI_MINIMAL, prof.evaluate(prof.us))


def test_cmc_residual_is_sign_free():
    """The CMC residual uses the squared form, so it vanishes on either rhs branch."""
    params = ProfileParams(a=2.0, b=0.5, c=1.0)
    phi = phi_closed_form(GoverningLaw.CMC, FT, params)
    prof = integrate_profile(phi, 1.0, (0.0, 0.5), 1e-3)
    res = profile_residuals(prof, GoverningLaw.CMC, prof.evaluate(prof.us))
    scale = np.max(np.abs(res.governing))
    assert scale < 1e-8


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------


def _profile(us=np.linspace(0.0, 1.0, 11)):
    """A profile whose evaluator gives f = 1, f' = f'' = 0, g = u and g' = 1."""
    return MeridianProfile(FT, us, ProfileParams(), Provenance.USER_SUPPLIED,
                           lambda u: (np.ones_like(u), np.zeros_like(u), np.zeros_like(u), u,
                                      np.ones_like(u)))


def _user_profile(f):
    """A user-supplied profile of f with f' = f'' = 0 on the nodes 0, 0.1, ..., 1."""
    return profile_from_callable(FT, f, np.zeros_like, np.zeros_like, (0.0, 1.0), step=0.1)


def test_profile_requires_uniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        _profile(us=np.array([0.0, 0.1, 0.3, 0.6, 1.0]))


def test_profile_requires_positive_f():
    """A user's f is evaluated at the nodes, and f <= 0 at one is refused."""
    with pytest.raises(DomainError, match="positive"):
        _user_profile(lambda u: 1.1 * u - 0.1)


def test_profile_requires_three_samples():
    with pytest.raises(DomainError, match="at least 3 samples"):
        _profile(us=np.array([0.0, 1.0]))


def test_profile_rejects_nonfinite():
    """A user's f that is not finite at a node is refused."""
    with pytest.raises(ValueError, match="non-finite"):
        _user_profile(lambda u: np.where(u == 0.5, np.inf, 1.0))


_QUASI_PHI = dict(law=QM, family=FT, params=ProfileParams(a=1.0, c=2.0), window=(1e-6, 40.0))
# each constructor as (u_span, step) -> profile; all three read the same node rule
_CONSTRUCTORS = {
    "minimal": lambda span, step: minimal_profile(FT, ProfileParams(a=0.0, b=4.0), span,
                                                  step=step),
    "reduced": lambda span, step: integrate_profile(phi_closed_form(**_QUASI_PHI), 2.0, span,
                                                    step),
    "callable": lambda span, step: profile_from_callable(FT, np.exp, np.exp, np.exp, span,
                                                         step=step),
}


@pytest.mark.parametrize("build", [
    _CONSTRUCTORS["minimal"],
    _CONSTRUCTORS["reduced"],
    # the constant profile of a degenerate phi
    lambda span, step: integrate_profile(phi_closed_form(QM, FT, ProfileParams(a=1.0),
                                                         (1e-3, 12.0)), 2.0, span, step),
], ids=["minimal", "reduced", "constant"])
def test_exact_profiles_are_built_without_calling_their_evaluator(build, monkeypatch):
    """The closed forms and the inverted first integral keep f > 0 and every
    value finite at the nodes by construction, so construction does not
    evaluate the profile: its first evaluation is its first reader's."""
    calls = []

    def recording(family, us, params, provenance, evaluate, **kwargs):
        def counting(u):
            calls.append(np.size(u))
            return evaluate(u)
        return MeridianProfile(family, us, params, provenance, counting, **kwargs)

    inverse = profiles._Inverse.__call__
    monkeypatch.setattr(profiles, "MeridianProfile", recording)
    monkeypatch.setattr(profiles._Inverse, "__call__",
                        lambda self, u: calls.append("inverse") or inverse(self, u))
    prof = build((0.0, 0.5), 1e-2)
    assert calls == []
    prof.evaluate(prof.us)
    assert calls[0] == len(prof.us) == 51


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
@pytest.mark.parametrize("span,step,error,message", [
    ((1.0, 0.0), 1e-3, ValueError,
     r"u_span must be finite and increasing \(u1 > u0\), got \(1\.0, 0\.0\)$"),
    ((0.0, np.nan), 1e-3, ValueError,
     r"u_span must be finite and increasing \(u1 > u0\), got \(0\.0, nan\)$"),
    ((0.0, np.inf), 1e-3, ValueError,
     r"u_span must be finite and increasing \(u1 > u0\), got \(0\.0, inf\)$"),
    ((0.0, 1.0), 0.0, ValueError, r"step must be positive and finite, got 0\.0$"),
    ((0.0, 1.0), np.nan, ValueError, r"step must be positive and finite, got nan$"),
    ((0.0, 1.0), 1e-9, DomainError, r"u-grid of 1e\+09 samples \(span 1, step 1e-09\) "
                                    r"exceeds the cap of 1000000 samples$"),
], ids=["reversed", "nan-end", "inf-end", "zero-step", "nan-step", "over-cap"])
def test_every_constructor_checks_its_span_and_step_alike(build, span, step, error, message):
    with pytest.raises(error, match=message) as caught:
        build(span, step)
    assert type(caught.value) is error


@pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
def test_every_constructor_places_the_same_nodes(build):
    """Uniform nodes, both ends included, spaced close to the step, and at
    least 3 of them: a step over the span is not refused."""
    for span, step, count in [((0.0, 0.5), 1e-3, 501), ((0.0, 0.5), 0.3, 3),
                              ((0.0, 0.5), 10.0, 3), ((0.1, 0.4), 0.1, 4)]:
        us = build(span, step).us
        assert np.array_equal(us, np.linspace(*span, count))
