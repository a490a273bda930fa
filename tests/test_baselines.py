import numpy as np
import pytest

import rmencca as r
from rmencca.errors import RankBudgetTooLarge

from _helpers import centered, planted, random_dataset


def test_identical_views_correlate_perfectly():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 300))
    ds = centered(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(x.copy())))
    sol = r.cca_closed_form(ds, k=1)
    assert sol.correlations[0] >= 1.0 - 1e-8


def test_independent_views_correlate_near_zero():
    rng = np.random.default_rng(1)
    ds = centered(random_dataset(rng, 5, 5, 4000))
    sol = r.cca_closed_form(ds, k=1)
    # null scale for the top canonical correlation is about
    # (sqrt(d1) + sqrt(d2)) / sqrt(n) ~ 0.07 at these shapes
    assert sol.correlations[0] < 0.1


def test_recovers_planted_correlations():
    ds, truth = planted(5000, 10, 8, (0.9, 0.5), 0.0, seed=2)
    ds = centered(ds)
    sol = r.cca_closed_form(ds, k=2)
    for got, want in zip(sol.correlations, truth.correlations):
        assert got == pytest.approx(want, abs=0.05)
    assert sol.correlations[0] >= sol.correlations[1]


def test_solution_is_whitened_and_diagonalizes_cross_covariance():
    ds, _ = planted(800, 7, 6, (0.8, 0.6, 0.4), 0.2, seed=3)
    ds = centered(ds)
    sol = r.cca_closed_form(ds, k=3)
    rx, ry = r.constraint_residual(sol.pair, ds)
    assert rx < 1e-8 and ry < 1e-8
    cross = ds.x.data @ ds.y.data.T / ds.n
    coupling = sol.pair.u.T @ cross @ sol.pair.v
    assert np.allclose(coupling, np.diag(sol.correlations), atol=1e-6)


def test_correlations_are_scale_invariant():
    ds, _ = planted(1000, 6, 5, (0.7, 0.3), 0.1, seed=4)
    ds = centered(ds)
    scaled = r.TwoViewDataset(
        x=r.ViewMatrix.of(5.0 * ds.x.data),
        y=r.ViewMatrix.of(0.2 * ds.y.data),
    )
    a = r.cca_closed_form(ds, k=2)
    b = r.cca_closed_form(scaled, k=2)
    for ca, cb in zip(a.correlations, b.correlations):
        assert ca == pytest.approx(cb, abs=1e-8)


def test_singular_covariance_needs_a_ridge():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 100))
    x[3] = x[2]
    y = rng.standard_normal((3, 100))
    ds = centered(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y)))
    sol = r.cca_closed_form(ds, k=2)
    assert all(np.isfinite(c) for c in sol.correlations)


def test_rank_budget_bounds():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 4, 3, 50)
    with pytest.raises(RankBudgetTooLarge, match="k=0 must lie in \\[1, min\\(d1, d2, n\\)\\]"):
        r.cca_closed_form(ds, k=0)
    with pytest.raises(RankBudgetTooLarge):
        r.cca_closed_form(ds, k=4)
    # k = 5 <= min(d1, d2) on 4 samples: the fits' bound min(d1, d2, n)
    few = centered(random_dataset(rng, 6, 5, 4))
    with pytest.raises(RankBudgetTooLarge, match="min\\(d1, d2, n\\) = 4"):
        r.cca_closed_form(few, k=5)


def test_solver_parameterizations():
    hp = r.Hyperparams(k=3, lambda1=0.2, lambda2=0.1, eta=0.02, gamma=0.8, seed=9)
    ag = r.appgrad_config(hp)
    assert (ag.lambda1, ag.lambda2, ag.gamma) == (0.0, 0.0, 0.0)
    assert (ag.k, ag.eta, ag.seed) == (3, 0.02, 9)
    assert ag.penalty is r.Penalty.L21
    men = r.men_cca_mode(hp)
    assert men.penalty is r.Penalty.FROBENIUS
    assert (men.lambda1, men.lambda2, men.gamma) == (0.2, 0.1, 0.8)
