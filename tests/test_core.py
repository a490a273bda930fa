import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmencca as r
from rmencca import solver
from rmencca.core import validate_dataset
from rmencca.errors import (
    BatchTooLarge,
    DegenerateInput,
    NonFiniteEntry,
    NonFiniteIterate,
    RankBudgetTooLarge,
    SampleCountMismatch,
)


def test_view_of_coerces_to_float64():
    v = r.ViewMatrix.of([[1, 2, 3], [4, 5, 6]])
    assert v.data.dtype == np.float64
    assert v.d == 2 and v.n == 3
    assert np.all(v.feature_means == 0.0)


def test_view_of_rejects_bad_shapes():
    with pytest.raises(ValueError):
        r.ViewMatrix.of([1.0, 2.0])
    with pytest.raises(ValueError):
        r.ViewMatrix.of(np.empty((0, 3)))


def test_center_subtracts_row_means():
    rng = np.random.default_rng(0)
    v = r.ViewMatrix.of(rng.standard_normal((5, 40)) + 3.0)
    c = r.center(v)
    assert np.abs(c.data.sum(axis=1)).max() < 1e-8 * c.n
    assert np.allclose(c.feature_means, v.data.mean(axis=1))


def test_center_is_idempotent():
    """Centering twice keeps the data and feature_means within rounding."""
    v = r.center(r.ViewMatrix.of(np.arange(12.0).reshape(3, 4)))
    again = r.center(v)
    assert np.allclose(again.data, v.data, rtol=0.0, atol=1e-12)
    assert np.allclose(again.feature_means, v.feature_means, rtol=0.0, atol=1e-12)


def test_center_recenters_a_split_of_a_centered_view():
    """A split's training half of a centered dataset, centered again, has
    rows summing to zero, and its feature_means are the raw half's means."""
    raw = r.ViewMatrix.of(np.random.default_rng(0).standard_normal((3, 200)) + 5.0)
    whole = r.TwoViewDataset(x=r.center(raw), y=r.center(raw))
    train, _ = r.split_train_validation(whole, 0.5, seed=1)
    raw_train, _ = r.split_train_validation(r.TwoViewDataset(x=raw, y=raw), 0.5, seed=1)
    c = r.center(train.x)
    assert np.abs(c.data.sum(axis=1)).max() <= 1e-12
    assert np.allclose(c.feature_means, raw_train.x.data.mean(axis=1),
                       rtol=0.0, atol=1e-12)


def test_center_needs_two_samples():
    with pytest.raises(DegenerateInput):
        r.center(r.ViewMatrix.of([[1.0], [2.0]]))


def test_center_names_a_mean_overflow():
    """Finite entries whose sum overflows are a numeric failure of centering,
    not a non-finite view, and so are finite entries whose difference from a
    finite mean overflows (raised with no warning); a view that holds NaN or
    inf is still refused, as non-finite, where its dataset is built."""
    data = np.ones((2, 50))
    data[1] = 1.5e308
    with pytest.raises(NonFiniteIterate, match="feature means overflowed"):
        r.center(r.ViewMatrix.of(data))
    spread = np.array([[1.7e308, -1.7e308, 0.5e308, 0.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterate, match="centered values overflowed"):
            r.center(r.ViewMatrix.of(spread))
        with pytest.raises(NonFiniteIterate, match="centered values overflowed"):
            r.center_with_means(r.ViewMatrix.of(spread), np.array([0.25e308]))
    data[1, 7] = np.nan
    with pytest.raises(NonFiniteEntry):
        x = r.center(r.ViewMatrix.of(data))
        r.TwoViewDataset(x=x, y=x)


def test_views_are_read_only_without_a_copy():
    """A view holds a read-only view of its array: writing into a dataset's
    data raises instead of silently voiding its finiteness check and kept
    statistics, no copy is made, and the caller's array stays writable.
    Views made by centering and splitting are read-only too, and so are
    copies and pickles, which are built again and keep no statistics."""
    raw = np.asfortranarray(np.random.default_rng(0).standard_normal((3, 40)))
    view = r.ViewMatrix.of(raw)
    ds = r.TwoViewDataset(x=view, y=r.ViewMatrix.of(raw[:2]))
    assert np.shares_memory(view.data, raw)
    with pytest.raises(ValueError):
        ds.x.data[0, 0] = 1.0
    raw[0, 0] = 1.0
    assert view.data[0, 0] == 1.0
    train, val = r.split_train_validation(ds, 0.25, seed=0)
    for made in (r.center(view), r.center_with_means(view, np.zeros(3)), train.x, val.y):
        assert not made.data.flags.writeable
    kept = solver.dataset_moments(ds)
    for clone in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert not clone.x.data.flags.writeable and not clone.y.data.flags.writeable
        assert np.array_equal(clone.x.data, ds.x.data)
        assert solver.dataset_moments(clone) is not kept


def test_center_with_means_keeps_flag_but_not_zero_sums():
    v = r.ViewMatrix.of(np.ones((2, 3)))
    c = r.center_with_means(v, np.array([0.25, 0.5]))
    assert np.allclose(c.data[0], 0.75)
    assert np.allclose(c.data[1], 0.5)


def test_center_with_means_checks_length():
    v = r.ViewMatrix.of(np.ones((2, 3)))
    with pytest.raises(ValueError):
        r.center_with_means(v, np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(2, 30),
    seed=st.integers(0, 10_000),
)
def test_center_rows_sum_to_zero_property(d, n, seed):
    data = np.random.default_rng(seed).normal(5.0, 3.0, size=(d, n))
    c = r.center(r.ViewMatrix.of(data))
    assert np.abs(c.data.sum(axis=1)).max() <= 1e-8 * n


# ------------------------------------------------------------- hyperparams

def test_hyperparams_defaults():
    hp = r.Hyperparams(k=3)
    assert hp.lambda1 == 0.01
    assert hp.lambda2 == 0.001
    assert hp.eta == 0.005
    assert hp.gamma == 0.9
    assert hp.zeta == 1e-8
    assert hp.penalty is r.Penalty.L21
    assert hp.batch_size is None


def test_hyperparams_accepts_penalty_string():
    hp = r.Hyperparams(k=1, penalty="frobenius")
    assert hp.penalty is r.Penalty.FROBENIUS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"k": 2, "lambda1": -0.1},
        {"k": 2, "lambda2": -1.0},
        {"k": 2, "eta": 0.0},
        {"k": 2, "gamma": 1.0},
        {"k": 2, "gamma": -0.1},
        {"k": 2, "zeta": 0.0},
        {"k": 2, "max_iters": 0},
        {"k": 2, "tol": -1e-9},
        {"k": 2, "batch_size": 0},
        {"k": 2, "seed": -1},
        {"k": 2, "lambda1": float("nan")},
        {"k": 2, "lambda2": float("inf")},
        {"k": 2, "eta": float("nan")},
        {"k": 2, "eta": float("inf")},
        {"k": 2, "zeta": float("inf")},
        {"k": 2, "tol": float("nan")},
        {"k": 2, "tol": float("inf")},
        {"k": 2, "zeta": -1e-8},
    ],
)
def test_hyperparams_validation(kwargs):
    with pytest.raises(ValueError):
        r.Hyperparams(**kwargs)


# -------------------------------------------------------- dataset validation

def _dataset(x, y):
    return r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))


def test_validate_rejects_sample_mismatch():
    with pytest.raises(SampleCountMismatch):
        ds = _dataset(np.ones((2, 5)), np.ones((2, 6)))
        validate_dataset(ds, r.Hyperparams(k=1))


def test_validate_rejects_non_finite():
    x = np.ones((2, 5))
    x[1, 3] = np.nan
    with pytest.raises(NonFiniteEntry):
        validate_dataset(_dataset(x, np.ones((2, 5))), r.Hyperparams(k=1))
    y = np.ones((2, 5))
    y[0, 0] = np.inf
    with pytest.raises(NonFiniteEntry):
        validate_dataset(_dataset(np.ones((2, 5)), y), r.Hyperparams(k=1))


def test_validate_rejects_oversized_rank_budget():
    ds = _dataset(np.ones((3, 10)), np.ones((4, 10)))
    with pytest.raises(RankBudgetTooLarge):
        validate_dataset(ds, r.Hyperparams(k=4))


def test_validate_rejects_oversized_batch():
    ds = _dataset(np.ones((3, 10)), np.ones((4, 10)))
    with pytest.raises(BatchTooLarge):
        validate_dataset(ds, r.Hyperparams(k=2, batch_size=11))
