"""Tests for the indefinite linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meridian4 import (
    SIG3_PPM,
    SIG4,
    CausalCharacter,
    DegeneracyError,
    Signature,
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


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="trailing dimension"):
        inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_signature_validation():
    with pytest.raises(ValueError, match="length 3 or 4"):
        Signature((1, -1))
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        Signature((1, 2, -1))


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


def test_affine_rank_needs_five_points():
    with pytest.raises(ValueError, match="at least 5 points"):
        affine_rank(np.zeros((4, 4)))
