"""Tests for the indefinite linear algebra layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meridian4 import (
    SIG3_PPM,
    SIG4,
    CausalCharacter,
    DegeneracyError,
    affine_rank,
    causal_character,
    gram_matrix,
    inner,
    orthonormality_deviation,
    orthonormalize,
)


def test_inner_neutral_metric_frozen():
    # 1 + 4 - 9 - 16
    assert inner([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == -20.0
    assert inner([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]) == 0.0


def test_inner_lorentz_3d_frozen():
    # 1*3 + 2*1 - 2*(-1)
    assert inner([1.0, 2.0, 2.0], [3.0, 1.0, -1.0], SIG3_PPM) == 7.0


def test_inner_broadcasts():
    xs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    out = inner(xs, xs)
    assert out.shape == (2,)
    assert out[0] == 1.0 and out[1] == -1.0


@pytest.mark.parametrize("sig", [SIG4, SIG3_PPM], ids=["SIG4", "SIG3"])
def test_inner_equals_the_summed_products_bit_for_bit(sig):
    rng = np.random.default_rng(7)
    n = len(sig)
    x = rng.standard_normal((41, 41, n)) * 10.0 ** rng.integers(-8, 9, (41, 41, n))
    y = rng.standard_normal((41, 41, n)) * 10.0 ** rng.integers(-8, 9, (41, 41, n))
    # rows whose products are all -0.0, and rows that mix -0.0 and 0.0
    x[0, :] = -0.0
    y[0, :] = sig
    x[1, :, 0], y[1, :] = -0.0, 1.0
    expected = np.sum(sig * x * y, axis=-1)
    out = inner(x, y, sig)
    assert np.array_equal(out, expected) and np.array_equal(np.signbit(out), np.signbit(expected))
    assert np.all(out[0] == 0.0) and not np.any(np.signbit(out[0]))
    for i, j in ((0, 0), (1, 3), (20, 17), (40, 40)):
        one = inner(x[i, j], y[i, j], sig)
        assert isinstance(one, float) and one == out[i, j]
        assert np.signbit(one) == np.signbit(out[i, j])


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="trailing dimension"):
        inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_the_metrics_are_one_read_only_array():
    np.testing.assert_array_equal(SIG4, [1.0, 1.0, -1.0, -1.0])
    assert SIG4.dtype == np.float64 and SIG3_PPM.base is SIG4
    np.testing.assert_array_equal(SIG3_PPM, SIG4[:3])
    for sig in (SIG4, SIG3_PPM):
        with pytest.raises(ValueError, match="read-only"):
            sig[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            sig *= 2.0


@pytest.mark.parametrize("sig", [SIG4, SIG3_PPM], ids=["SIG4", "SIG3"])
def test_causal_character_and_gram_matrix_read_inner_bit_for_bit(sig):
    rng = np.random.default_rng(11)
    n = len(sig)
    v = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-8, 9, (40, n))
    v[0], v[1], v[2, :2] = -0.0, 0.0, -0.0  # zero rows of either sign, and a mixed one
    v[3] = [1.0, 0.0, 1.0, 0.0][:n]  # exactly null
    gram = gram_matrix(v, sig)
    for i, j in np.ndindex(gram.shape):
        one = inner(v[i], v[j], sig)
        assert gram[i, j] == one and np.signbit(gram[i, j]) == np.signbit(one)
    q = inner(v, v, sig)
    expected = np.where(q > 0.0, CausalCharacter.SPACELIKE,
                        np.where(q < 0.0, CausalCharacter.TIMELIKE, CausalCharacter.LIGHTLIKE))
    expected[~np.any(v, axis=-1)] = CausalCharacter.SPACELIKE
    assert list(causal_character(v, sig, tol=0.0)) == list(expected)
    assert expected[3] is CausalCharacter.LIGHTLIKE


def test_causal_character_basics():
    assert causal_character([1.0, 0.0, 0.0, 0.0]) is CausalCharacter.SPACELIKE
    assert causal_character([0.0, 0.0, 1.0, 0.0]) is CausalCharacter.TIMELIKE
    assert causal_character([1.0, 0.0, 1.0, 0.0]) is CausalCharacter.LIGHTLIKE
    # the zero vector counts as spacelike by convention
    assert causal_character([0.0, 0.0, 0.0, 0.0]) is CausalCharacter.SPACELIKE


def test_causal_character_scales_with_vector():
    # a huge nearly-null vector should still classify as lightlike
    v = 1e8 * np.array([1.0, 0.0, 1.0 + 1e-14, 0.0])
    assert causal_character(v) is CausalCharacter.LIGHTLIKE


@pytest.mark.parametrize("tol", [None, 1e-3])
def test_causal_character_broadcasts_like_per_vector_calls(tol):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(6, 50, 4))
    v[1, :, 2] = np.hypot(v[1, :, 0], v[1, :, 1])  # null up to roundoff
    v[1, :, 3] = 0.0
    v[2] = 0.0
    v *= 10.0 ** rng.uniform(-8.0, 8.0, size=(6, 50, 1))
    out = causal_character(v, tol=tol)
    assert out.shape == (6, 50) and out.dtype == object
    for idx in np.ndindex(out.shape):
        assert out[idx] is causal_character(v[idx], tol=tol)
        # the per-vector rule, written out as a loop reference
        x = v[idx]
        q = inner(x, x)
        margin = 1e-12 * max(1.0, float(np.max(np.abs(x))) ** 2) if tol is None else tol
        expected = (
            CausalCharacter.SPACELIKE if q > margin or not np.any(x)
            else CausalCharacter.TIMELIKE if q < -margin
            else CausalCharacter.LIGHTLIKE
        )
        assert out[idx] is expected
    assert {c.value for c in out.ravel()} == {"spacelike", "timelike", "lightlike"}
    # a single vector is the 0-d case and returns the member itself
    assert isinstance(causal_character(v[0, 0], tol=tol), CausalCharacter)


def test_gram_matrix_standard_basis():
    np.testing.assert_array_equal(gram_matrix(np.eye(4)), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_orthonormality_deviation_zero_for_exact_frame():
    frame = np.eye(3)
    assert orthonormality_deviation(frame, (1, 1, -1), SIG3_PPM) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(35262)  # one projection pass left this frame's Gram matrix off by 4.6e-9
def test_orthonormalize_property(seed):
    """Random well-conditioned frames orthonormalize to the expected Gram matrix."""
    rng = np.random.default_rng(seed)
    vecs = np.eye(4) + 0.35 * rng.standard_normal((4, 4))
    try:
        frame, signs = orthonormalize(vecs)
    except DegeneracyError:
        return  # a random draw may legitimately hit a null direction
    dev = orthonormality_deviation(frame, signs, SIG4)
    assert dev < 1e-9
    assert set(signs) <= {1, -1}


def test_orthonormalize_null_vector_raises():
    with pytest.raises(DegeneracyError, match="numerically null"):
        orthonormalize([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def test_orthonormalize_neutral_signature_counts():
    frame, signs = orthonormalize(np.eye(4)[::-1])
    assert sorted(signs) == [-1, -1, 1, 1]
    assert orthonormality_deviation(frame, signs) == 0.0


def test_affine_rank_hyperplane():
    rng = np.random.default_rng(3)
    pts = np.zeros((40, 4))
    pts[:, :3] = rng.standard_normal((40, 3))
    rank, residual = affine_rank(pts)
    assert rank == 3
    assert residual < 1e-14


def test_affine_rank_full():
    rng = np.random.default_rng(4)
    rank, residual = affine_rank(rng.standard_normal((40, 4)))
    assert rank == 4
    assert residual == 0.0


def test_affine_rank_line():
    ts = np.linspace(0.0, 1.0, 9)
    pts = np.outer(ts, [1.0, 2.0, 3.0, 4.0]) + np.array([5.0, 0.0, 0.0, 0.0])
    rank, _ = affine_rank(pts)
    assert rank == 1


def test_affine_rank_does_not_depend_on_memory_order():
    """The mean sums the points in one order whatever their layout: a
    Fortran-order copy or a view of coordinate planes (as a surface's grid
    points are) gives the C-order result bit for bit."""
    rng = np.random.default_rng(0)
    pts = 3.0 + rng.standard_normal((441, 3)) @ rng.standard_normal((3, 4))
    planes = np.ascontiguousarray(pts.T).T
    want = affine_rank(pts)
    assert want[0] == 3
    assert affine_rank(np.asfortranarray(pts)) == want
    assert affine_rank(planes) == want


def test_affine_rank_needs_five_points():
    with pytest.raises(ValueError, match="at least 5 points"):
        affine_rank(np.zeros((4, 4)))
