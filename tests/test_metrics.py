import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmencca as r
from rmencca.errors import (
    DegenerateInput,
    DimensionMismatch,
    NonFiniteIterate,
    RankDeficientBasis,
)

from _helpers import centered, feasible_pair, planted


# -------------------------------------------------------------------- pcc

def test_pcc_perfect_and_anti():
    a = np.random.default_rng(0).standard_normal((50, 3))
    up = r.pcc(a, a)
    assert up.mean_pcc_percent == pytest.approx(100.0, abs=1e-9)
    assert all(v == pytest.approx(1.0) for v in up.per_dimension)
    assert not any(up.zero_variance)
    down = r.pcc(a, -a)
    assert down.mean_pcc_percent == pytest.approx(-100.0, abs=1e-9)


def test_pcc_independent_columns_are_small():
    rng = np.random.default_rng(1)
    n = 4000
    rep = r.pcc(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    assert abs(rep.mean_pcc_percent) < 3.0 / np.sqrt(n) * 100.0


def test_pcc_zero_variance_column_is_flagged():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 2))
    b = a.copy()
    b[:, 1] = 7.0
    rep = r.pcc(a, b)
    assert rep.zero_variance == (False, True)
    assert rep.per_dimension[1] == 0.0
    assert rep.per_dimension[0] == pytest.approx(1.0)
    assert rep.mean_pcc_percent == pytest.approx(50.0, abs=1e-9)


def test_pcc_errors():
    with pytest.raises(DimensionMismatch):
        r.pcc(np.ones((5, 2)), np.ones((5, 3)))
    with pytest.raises(DimensionMismatch):
        r.pcc(np.ones(5), np.ones(5))
    with pytest.raises(DegenerateInput):
        r.pcc(np.ones((1, 2)), np.ones((1, 2)))
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    nan = a.copy()
    nan[0, 1] = np.nan
    inf = a.copy()
    inf[3, 0] = np.inf
    # finite projections whose mean, a variance or the variances' product
    # overflows
    for bad in ((nan, b), (a, inf), (1.5e308 + a, b), (1e200 * a, b), (1e100 * a, 1e110 * b)):
        with pytest.raises(NonFiniteIterate):
            r.pcc(*bad)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(0.01, 100.0),
    shift=st.floats(-50.0, 50.0),
)
def test_pcc_invariant_under_positive_affine_maps(seed, scale, shift):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, 2))
    b = rng.standard_normal((40, 2))
    base = r.pcc(a, b)
    moved = r.pcc(a, scale * b + shift)
    for got, want in zip(moved.per_dimension, base.per_dimension):
        assert got == pytest.approx(want, abs=1e-10)


# ------------------------------------------------------- constraint residual

def test_constraint_residual_feasible_pair_is_tiny():
    rng = np.random.default_rng(3)
    ds = centered(planted(400, 8, 6, (0.8, 0.5), 0.2, seed=3)[0])
    pair = feasible_pair(rng, ds, 2)
    rx, ry = r.constraint_residual(pair, ds)
    assert rx < 1e-8
    assert ry < 1e-8


def test_constraint_residual_matches_direct_recompute():
    rng = np.random.default_rng(4)
    ds = centered(planted(200, 6, 5, (0.7,), 0.3, seed=4)[0])
    pair = feasible_pair(rng, ds, 2)
    doubled = r.CanonicalPair(u=2.0 * pair.u, v=pair.v)
    rx, ry = r.constraint_residual(doubled, ds)
    cov_x = ds.x.data @ ds.x.data.T / ds.n
    want = np.linalg.norm(doubled.u.T @ cov_x @ doubled.u - np.eye(2))
    assert rx == pytest.approx(want, rel=1e-12)
    assert ry < 1e-8


def test_constraint_residual_zero_pair():
    ds = centered(planted(100, 5, 4, (0.6,), 0.1, seed=5)[0])
    pair = r.CanonicalPair(u=np.zeros((5, 3)), v=np.zeros((4, 3)))
    rx, ry = r.constraint_residual(pair, ds)
    assert rx == pytest.approx(np.sqrt(3.0))
    assert ry == pytest.approx(np.sqrt(3.0))


# ---------------------------------------------------------- principal angles

def test_principal_angles_same_subspace():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10, 3))
    mix = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    angles = r.principal_angles(a, a @ mix)
    assert angles.shape == (3,)
    # arccos amplifies rounding near 1 to sqrt(eps), so exact-subspace
    # angles land around 1e-8 rather than machine precision
    assert angles.max() < 1e-6


def test_principal_angles_orthogonal_complements():
    angles = r.principal_angles(np.eye(6)[:, :2], np.eye(6)[:, 2:4])
    assert np.allclose(angles, np.pi / 2)


def test_principal_angles_single_vector_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 1))
    b = rng.standard_normal((8, 1))
    cos = abs(float(a[:, 0] @ b[:, 0])) / (np.linalg.norm(a) * np.linalg.norm(b))
    want = float(np.arccos(min(cos, 1.0)))
    assert r.principal_angles(a, b)[0] == pytest.approx(want, abs=1e-10)


def test_principal_angles_symmetry_and_order():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((12, 3))
    ab = r.principal_angles(a, b)
    ba = r.principal_angles(b, a)
    assert np.allclose(ab, ba, atol=1e-10)
    assert np.all(np.diff(ab) >= -1e-12)


def test_principal_angles_rejects_rank_deficient_basis():
    a = np.ones((5, 2))
    with pytest.raises(RankDeficientBasis):
        r.principal_angles(a, np.eye(5)[:, :2])
    with pytest.raises(DimensionMismatch):
        r.principal_angles(np.eye(5)[:, :2], np.eye(6)[:, :2])
