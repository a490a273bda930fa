import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import rmencca as r
from rmencca import solver
from rmencca.errors import AllZeroInput, BatchTooLarge, DimensionMismatch, NonFiniteIterate
from rmencca.regularizers import apply_s_inverse, hq_diagonal, l21_norm, nuclear_norm
from rmencca.solver import (
    build_context,
    momentum_step,
    normalize,
    objective,
    pair_moments,
    second_moments,
)

from _helpers import (
    centered,
    feasible_pair,
    fresh_grad_u,
    fresh_grad_v,
    mean_pcc,
    n_space_s_inverse,
    planted,
    random_dataset,
    slice_split,
)


def _stats(ds):
    return second_moments(ds.x.data, ds.y.data)


def _moments(ds, pair):
    return pair_moments(_stats(ds), pair)


# ----------------------------------------------------------- iteration pieces

def test_build_context_freezes_current_pair():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 5, 4, 30)
    hp = r.Hyperparams(k=2, lambda1=0.1, lambda2=0.05)
    pair = feasible_pair(rng, ds, 2)
    stats = _stats(ds)
    ctx = build_context(pair_moments(stats, pair), hp)
    x, y = ds.x.data, ds.y.data
    assert np.allclose(stats.cxx, x @ x.T / 30)
    assert np.allclose(stats.cyy, y @ y.T / 30)
    assert np.allclose(stats.cxy, x @ y.T / 30)
    want_p = 1.0 / (2.0 * np.sqrt((pair.u ** 2).sum(axis=1) + hp.zeta))
    assert np.allclose(ctx.p, want_p)
    direct = n_space_s_inverse(x.T @ pair.u, y.T @ pair.v, hp.zeta)
    probe = rng.standard_normal((30, 2))
    # the context applies X S^-1 X^T and Y S^-1 Y^T; lift the n-space probe
    # into each view
    for view, op in ((x, ctx.s_inv_x), (y, ctx.s_inv_y)):
        m = view @ probe
        assert np.allclose(apply_s_inverse(op, m, view @ (view.T @ m)),
                           view @ apply_s_inverse(direct, view.T @ m, view.T @ m))


def test_build_context_frobenius_mode_uses_unit_weights():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 5, 4, 25)
    hp = r.Hyperparams(k=2, penalty=r.Penalty.FROBENIUS)
    ctx = build_context(_moments(ds, feasible_pair(rng, ds, 2)), hp)
    assert np.array_equal(ctx.p, np.ones(5))
    assert np.array_equal(ctx.q, np.ones(4))


def test_objective_hand_value():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[1.0, 1.0]])
    ds = r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))
    pair = r.CanonicalPair(u=np.array([[1.0], [0.0]]), v=np.array([[1.0]]))
    # residual (1/2n)||[[1],[0]] - [[1],[1]]||^2 = 1/4; l21 terms 1 + 1;
    # nuclear norm of [[1,1],[0,1]] is sqrt(5)
    hp = r.Hyperparams(k=1, lambda1=0.1, lambda2=0.3)
    want = 0.25 + 0.1 * 2.0 + 0.3 * np.sqrt(5.0)
    assert objective(_moments(ds, pair), hp) == pytest.approx(want, rel=1e-12)
    bare = r.Hyperparams(k=1, lambda1=0.0, lambda2=0.0)
    assert objective(_moments(ds, pair), bare) == pytest.approx(0.25, rel=1e-12)


def test_objective_frobenius_mode_squares_the_pair():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 4, 3, 20)
    pair = r.CanonicalPair(u=rng.standard_normal((4, 2)), v=rng.standard_normal((3, 2)))
    pm = _moments(ds, pair)
    l21 = objective(pm, r.Hyperparams(k=2, lambda1=0.5, lambda2=0.0))
    fro = objective(pm, r.Hyperparams(k=2, lambda1=0.5, lambda2=0.0,
                                      penalty=r.Penalty.FROBENIUS))
    base = objective(pm, r.Hyperparams(k=2, lambda1=0.0, lambda2=0.0))
    assert l21 - base == pytest.approx(
        0.5 * (l21_norm(pair.u) + l21_norm(pair.v)), rel=1e-12)
    assert fro - base == pytest.approx(
        0.5 * float((pair.u ** 2).sum() + (pair.v ** 2).sum()), rel=1e-12)


def test_objective_rejects_mismatched_pair():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 4, 3, 10)
    bad = r.CanonicalPair(u=np.ones((5, 2)), v=np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        objective(_moments(ds, bad), r.Hyperparams(k=2))


def _surrogate_u(ds, pair, ctx, s_inv, hp, ut):
    x, y = ds.x.data, ds.y.data
    diff = x.T @ ut - y.T @ pair.v
    val = 0.5 / ds.n * float((diff * diff).sum())
    val += 0.5 * hp.lambda1 * float((ctx.p * (ut * ut).sum(axis=1)).sum())
    proj = x.T @ ut
    val += 0.5 * hp.lambda2 * float((proj * apply_s_inverse(s_inv, proj, proj)).sum())
    return val


def _surrogate_v(ds, pair, ctx, s_inv, hp, vt):
    x, y = ds.x.data, ds.y.data
    diff = x.T @ pair.u - y.T @ vt
    val = 0.5 / ds.n * float((diff * diff).sum())
    val += 0.5 * hp.lambda1 * float((ctx.q * (vt * vt).sum(axis=1)).sum())
    proj = y.T @ vt
    val += 0.5 * hp.lambda2 * float((proj * apply_s_inverse(s_inv, proj, proj)).sum())
    return val


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 6, 5, 18)
    hp = r.Hyperparams(k=2, lambda1=0.3, lambda2=0.2, zeta=1e-4)
    pair = feasible_pair(rng, ds, 2)
    ut = rng.standard_normal((ds.x.d, 2))
    vt = rng.standard_normal((ds.y.d, 2))
    stats = _stats(ds)
    ctx = build_context(pair_moments(stats, pair), hp)
    # the surrogate's S-inverse, built in n-space independently of ctx
    s_inv = n_space_s_inverse(ds.x.data.T @ pair.u, ds.y.data.T @ pair.v, hp.zeta)
    h = 1e-6
    for analytic, surrogate, tilde in (
        (fresh_grad_u(stats, ctx, hp, ut, pair.v), _surrogate_u, ut),
        (fresh_grad_v(stats, ctx, hp, vt, pair.u), _surrogate_v, vt),
    ):
        numeric = np.zeros_like(tilde)
        for i in range(tilde.shape[0]):
            for j in range(tilde.shape[1]):
                bump = tilde.copy()
                bump[i, j] += h
                hi = surrogate(ds, pair, ctx, s_inv, hp, bump)
                bump[i, j] -= 2 * h
                lo = surrogate(ds, pair, ctx, s_inv, hp, bump)
                numeric[i, j] = (hi - lo) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5


def _n_space_reference(ds, pair, ut, vt, hp):
    """grad_u, grad_v and the objective formed from the views themselves, with
    the S-inverse factored by a thin SVD of the n x 2k [X^T U  Y^T V]."""
    x, y = ds.x.data, ds.y.data
    n = ds.n
    u, v = pair.u, pair.v
    a, b = x.T @ u, y.T @ v
    phi, sigma, _ = np.linalg.svd(np.concatenate([a, b], axis=1), full_matrices=False)
    keep = sigma > 1e-10 * sigma[0]
    phi = phi[:, keep]
    scale = hp.zeta ** -0.5
    shift = 1.0 / np.sqrt(sigma[keep] ** 2 + hp.zeta) - scale

    def s_inv(m):
        return scale * m + phi @ (shift[:, None] * (phi.T @ m))

    if hp.penalty is r.Penalty.L21:
        p = hq_diagonal(u, hp.zeta)
        q = hq_diagonal(v, hp.zeta)
        row_penalty = l21_norm(u) + l21_norm(v)
    else:
        p, q = np.ones(ds.x.d), np.ones(ds.y.d)
        row_penalty = float((u * u).sum() + (v * v).sum())
    gu = (x @ (x.T @ ut) / n - x @ b / n + hp.lambda1 * p[:, None] * ut
          + hp.lambda2 * (x @ s_inv(x.T @ ut)))
    gv = (y @ (y.T @ vt) / n - y @ a / n + hp.lambda1 * q[:, None] * vt
          + hp.lambda2 * (y @ s_inv(y.T @ vt)))
    diff = a - b
    obj = (0.5 / n * float((diff * diff).sum()) + hp.lambda1 * row_penalty
           + hp.lambda2 * nuclear_norm(np.concatenate([a, b], axis=1)))
    return gu, gv, obj


def test_statistics_form_matches_n_space_formulas():
    """grad_u, grad_v and objective from second moments agree with the
    n-space formulas to 1e-9 relative error on 20 instances, in both penalty
    modes, including a rank-deficient [X^T U  Y^T V] (y = 2x, d < 2k) and
    fewer samples than 2k."""
    rng = np.random.default_rng(18)
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(1, 4))
        if trial % 5 == 3:
            d = int(rng.integers(k, 2 * k)) if k > 1 else 1
            x = rng.standard_normal((d, int(rng.integers(10, 40))))
            ds = r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(2.0 * x))
        elif trial % 5 == 4:
            k = int(rng.integers(2, 4))
            ds = random_dataset(rng, int(rng.integers(k, 8)), int(rng.integers(k, 8)),
                                int(rng.integers(2, 2 * k)))
        else:
            ds = random_dataset(rng, int(rng.integers(3, 13)), int(rng.integers(3, 13)),
                                int(rng.integers(10, 60)))
        penalty = r.Penalty.L21 if trial % 2 == 0 else r.Penalty.FROBENIUS
        hp = r.Hyperparams(k=k, lambda1=float(rng.uniform(0.0, 0.5)),
                           lambda2=float(rng.uniform(0.0, 0.5)),
                           zeta=10.0 ** rng.uniform(-8, -2), penalty=penalty)
        ut = rng.standard_normal((ds.x.d, k))
        vt = rng.standard_normal((ds.y.d, k))
        pair = r.CanonicalPair(u=rng.standard_normal((ds.x.d, k)),
                               v=rng.standard_normal((ds.y.d, k)))
        want_u, want_v, want_obj = _n_space_reference(ds, pair, ut, vt, hp)
        stats = _stats(ds)
        pm = pair_moments(stats, pair)
        ctx = build_context(pm, hp)
        for got, want in ((fresh_grad_u(stats, ctx, hp, ut, pair.v), want_u),
                          (fresh_grad_v(stats, ctx, hp, vt, pair.u), want_v)):
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
        worst = max(worst, abs(objective(pm, hp) - want_obj) / abs(want_obj))
    assert worst <= 1e-9


def test_momentum_step_recursion():
    hp = r.Hyperparams(k=1, eta=0.1, gamma=0.5)
    m = np.array([[0.0]])
    delta = np.array([[2.0]])
    m, delta = momentum_step(m, delta, np.array([[1.0]]), hp)
    assert delta == pytest.approx(0.9)   # 0.5*2 - 0.1*1
    assert m == pytest.approx(0.9)
    m, delta = momentum_step(m, delta, np.array([[-3.0]]), hp)
    assert delta == pytest.approx(0.75)  # 0.5*0.9 + 0.1*3
    assert m == pytest.approx(1.65)


def test_normalize_enforces_whitening():
    rng = np.random.default_rng(5)
    cov = rng.standard_normal((6, 10))
    cov = cov @ cov.T / 10
    w = normalize(rng.standard_normal((6, 3)), cov, 0.0)
    assert np.linalg.norm(w.T @ cov @ w - np.eye(3)) < 1e-10


def test_normalize_rejects_zero_input():
    with pytest.raises(AllZeroInput):
        normalize(np.zeros((4, 2)), np.eye(4), 1e-10)


# ------------------------------------------------------------------- fitting

def test_fit_mode_guards():
    rng = np.random.default_rng(6)
    ds = centered(random_dataset(rng, 4, 3, 40))
    with pytest.raises(BatchTooLarge):
        r.fit_stochastic(ds, r.Hyperparams(k=1, batch_size=41))


def test_batch_size_alone_picks_the_minibatch_fit():
    """fit_stochastic is a second name for fit_full: hp.batch_size < n makes
    either name draw minibatches, and both give one trajectory."""
    ds = centered(random_dataset(np.random.default_rng(6), 4, 3, 40))
    hp = r.Hyperparams(k=1, batch_size=10, max_iters=30, tol=0.0, seed=3)
    a = r.fit_full(ds, hp)
    b = r.fit_stochastic(ds, hp)
    assert r.fit_stochastic is r.fit_full
    assert a.iterations_run == 30
    assert a.objective_trace == b.objective_trace
    assert a.objective_trace != r.fit_full(ds, replace(hp, batch_size=None)).objective_trace


def test_fit_full_objective_trend_without_momentum():
    ds, _ = planted(400, 12, 9, (0.9, 0.7), 0.3, seed=7)
    ds = centered(ds)
    hp = r.Hyperparams(k=2, gamma=0.0, eta=0.005, max_iters=100, tol=0.0, seed=7)
    report = r.fit_full(ds, hp)
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)


def test_fit_full_converges_early_with_loose_tolerance():
    ds, _ = planted(300, 6, 5, (0.8,), 0.2, seed=8)
    ds = centered(ds)
    hp = r.Hyperparams(k=1, eta=0.01, max_iters=500, tol=1e-3, seed=0)
    report = r.fit_full(ds, hp)
    assert report.termination is r.Termination.CONVERGED
    assert report.iterations_run < 500


def test_fit_full_constraints_and_callback():
    ds, _ = planted(200, 7, 6, (0.8, 0.5), 0.2, seed=9)
    ds = centered(ds)
    seen = []
    hp = r.Hyperparams(k=2, eta=0.01, max_iters=30, tol=0.0, seed=1)
    report = r.fit_full(ds, hp, on_iteration=lambda i, pair: seen.append((i, pair)))
    assert [i for i, _ in seen] == list(range(1, 31))
    assert report.iterations_run == 30
    assert report.final_constraint_residual_u < 1e-8 * hp.k
    assert report.final_constraint_residual_v < 1e-8 * hp.k
    rx, ry = r.constraint_residual(seen[10][1], ds)
    assert rx < 1e-8 * hp.k and ry < 1e-8 * hp.k


def test_fit_full_is_deterministic():
    ds, _ = planted(150, 5, 4, (0.7,), 0.2, seed=10)
    ds = centered(ds)
    hp = r.Hyperparams(k=2, max_iters=40, tol=0.0, seed=3)
    a = r.fit_full(ds, hp)
    b = r.fit_full(ds, hp)
    assert np.array_equal(a.pair.u, b.pair.u)
    assert np.array_equal(a.pair.v, b.pair.v)
    assert a.objective_trace == b.objective_trace


def test_oversized_step_raises_nonfinite():
    ds, _ = planted(100, 5, 4, (0.7,), 0.2, seed=11)
    ds = centered(ds)
    # one enormous step overflows the projected Gram immediately; a merely
    # huge step overflows the accumulated momentum a few hundred iterations in
    with pytest.raises(NonFiniteIterate):
        r.fit_full(ds, r.Hyperparams(k=1, eta=1e300, max_iters=50, seed=0))
    with pytest.raises(NonFiniteIterate):
        r.fit_full(ds, r.Hyperparams(k=2, eta=1e155, max_iters=300, seed=0))


def test_overflowing_covariance_raises_nonfinite():
    rng = np.random.default_rng(16)
    huge = r.TwoViewDataset(
        x=r.ViewMatrix.of(1e200 * rng.standard_normal((5, 50))),
        y=r.ViewMatrix.of(rng.standard_normal((4, 50))),
    )
    with pytest.raises(NonFiniteIterate):
        r.fit_full(huge, r.Hyperparams(k=1, max_iters=10, seed=0))


def test_stochastic_full_batch_is_bitwise_identical():
    ds, _ = planted(120, 6, 5, (0.8, 0.6), 0.2, seed=12)
    ds = centered(ds)
    hp_full = r.Hyperparams(k=2, max_iters=80, tol=0.0, seed=4)
    hp_sto = r.Hyperparams(k=2, max_iters=80, tol=0.0, seed=4, batch_size=120)
    a = r.fit_full(ds, hp_full)
    b = r.fit_stochastic(ds, hp_sto)
    assert np.array_equal(a.pair.u, b.pair.u)
    assert np.array_equal(a.pair.v, b.pair.v)
    assert a.objective_trace == b.objective_trace


def test_minibatch_gather_reads_contiguous_samples(monkeypatch):
    """Every batch handed to second_moments is sample-major, as the full
    views are, so each sample's features are one contiguous run."""
    ds = centered(planted(300, 6, 5, (0.8, 0.6), 0.2, seed=21)[0])
    shapes = []
    original = solver.second_moments

    def recording(x, y):
        assert x.flags.f_contiguous and y.flags.f_contiguous
        shapes.append(x.shape[1])
        return original(x, y)

    monkeypatch.setattr(solver, "second_moments", recording)
    r.fit_stochastic(ds, r.Hyperparams(k=2, batch_size=32, max_iters=7, tol=0.0, seed=2))
    assert shapes == [300] + [32] * 7


def test_stochastic_restores_full_batch_constraints():
    ds, _ = planted(500, 8, 6, (0.8, 0.5), 0.3, seed=13)
    ds = centered(ds)
    hp = r.Hyperparams(k=2, batch_size=64, max_iters=120, tol=0.0, seed=5)
    report = r.fit_stochastic(ds, hp)
    assert report.final_constraint_residual_u < 1e-8 * hp.k
    assert report.final_constraint_residual_v < 1e-8 * hp.k


def _counting_statistics(monkeypatch):
    """Make solver.second_moments return statistics that count every matrix
    product they take part in; returns the running count (a one-item list)."""
    count = [0]

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                count[0] += 1
            plain = [np.asarray(a) if isinstance(a, Counted) else a for a in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
            return getattr(ufunc, method)(*plain, **kwargs)

    real = solver.second_moments

    def counted(x, y):
        s = real(x, y)
        return solver.SecondMoments(cxx=s.cxx.view(Counted), cyy=s.cyy.view(Counted),
                                    cxy=s.cxy.view(Counted), n=s.n)

    monkeypatch.setattr(solver, "second_moments", counted)
    return count


def _counting_factors(monkeypatch):
    """Count solver.whitening_factor calls: two per full-batch iteration, plus
    one for each whitening pass that refines; returns the running count."""
    count = [0]
    real = solver.whitening_factor

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(solver, "whitening_factor", counted)
    return count


def _counting_phases(monkeypatch, names):
    """Count calls of each named solver phase, looked up in the solver
    module's globals as tracing tools wrap them; returns name -> count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(solver, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counted)
    return counts


def test_loop_reaches_each_phase_by_name(monkeypatch):
    """With both penalties on, each of 3 iterations builds one context, takes
    one gradient per view (grad_u for U, grad_v for V) and one objective, and
    per view one momentum step, one row-weight vector, one S-inverse factor
    and one S-inverse application."""
    per_iteration = {"build_context": 1, "objective": 1, "grad_u": 1, "grad_v": 1,
                     "momentum_step": 2, "hq_diagonal": 2, "build_s_inverse": 2,
                     "apply_s_inverse": 2}
    counts = _counting_phases(monkeypatch, per_iteration)
    ds, _ = planted(200, 7, 6, (0.8, 0.5), 0.2, seed=9)
    hp = r.Hyperparams(k=2, lambda1=0.01, lambda2=0.001, max_iters=3, tol=0.0, seed=1)
    r.fit_full(centered(ds), hp)
    assert counts == {name: 3 * calls for name, calls in per_iteration.items()}


def _kernel_problem():
    ds, _ = planted(120, 6, 5, (0.8, 0.5), 0.2, seed=5)
    return centered(ds), r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=3.0)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("lambda2", [0.0, 0.05])
def test_full_batch_iteration_forms_each_product_once(monkeypatch, kernel, lambda2):
    """A full-batch iteration makes 4 products with the statistics (n x n in
    a kernel fit), one more for each whitening pass that refines (6 when
    both do), and at most one eigh of the 2k x 2k pair Gram: one when
    lambda2 > 0, none otherwise, and no eigvalsh."""
    k = 2
    products = _counting_statistics(monkeypatch)
    factors = _counting_factors(monkeypatch)
    gram_eighs, eigvalsh_calls = [0], [0]
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def eigh(a, *args, **kwargs):
        gram_eighs[0] += np.shape(a) == (2 * k, 2 * k)
        return real_eigh(a, *args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        eigvalsh_calls[0] += 1
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    seen = []

    def record(i, pair):
        seen.append((products[0], gram_eighs[0], factors[0]))

    hp = r.Hyperparams(k=k, lambda2=lambda2, max_iters=12, tol=0.0, seed=1)
    if kernel:
        ds, spec = _kernel_problem()
        r.fit_kernel(ds, spec, spec, hp, on_iteration=record)
    else:
        ds, _ = planted(200, 7, 6, (0.8, 0.5), 0.2, seed=9)
        r.fit_full(centered(ds), hp, on_iteration=record)
    # a kernel fit probes its second Gram's eigenvalues once, before the
    # loop, to decide whether it factors; no iteration calls eigvalsh
    assert len(seen) == 12 and eigvalsh_calls[0] == (1 if kernel else 0)
    per_iteration = [tuple(bi - ai for ai, bi in zip(a, b)) for a, b in zip(seen, seen[1:])]
    # two whitening passes per iteration; each factor beyond them is a
    # refinement pass
    refinements = [f - 2 for _, _, f in per_iteration]
    assert all(0 <= extra <= 2 for extra in refinements)
    assert [p for p, _, _ in per_iteration] == [4 + extra for extra in refinements]
    assert {e for _, e, _ in per_iteration} == {1 if lambda2 else 0}
    # the skip is exercised on every problem
    assert 0 in refinements


def test_whitening_refines_when_the_bound_asks(monkeypatch):
    """On near-collinear statistics (one feature a copy of another up to
    1e-7 relative noise) with a small step, the whitening bound sends some
    passes through the refinement, and every iteration keeps both residuals
    within 1e-8 * k.  The bound's smoothing term is what catches these: the
    first pass's Gram is computed accurately, but its smallest eigenvalue is
    small enough that the smoothing leaves a residual above the budget."""
    ds, _ = planted(2000, 12, 9, (0.9, 0.7, 0.5), 0.1, seed=0)
    x = ds.x.data.copy()
    noise = np.random.default_rng(0).standard_normal(ds.n)
    x[1] = x[0] * (1.0 + 1e-7 * noise)
    ds = centered(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=ds.y))
    factors = _counting_factors(monkeypatch)
    seen, worst = [], [0.0]

    def watch(_i, pair):
        seen.append(factors[0])
        worst[0] = max(worst[0], *r.constraint_residual(pair, ds))

    hp = r.Hyperparams(k=3, eta=1e-4, max_iters=200, tol=0.0, seed=0)
    r.fit_full(ds, hp, on_iteration=watch)
    # the first count also holds the initial whitening, so start after it
    assert any(b - a > 2 for a, b in zip(seen, seen[1:]))
    assert worst[0] <= 1e-8 * hp.k


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("penalty", [r.Penalty.L21, r.Penalty.FROBENIUS])
@pytest.mark.parametrize("lambda2", [0.0, 0.05])
def test_carried_pair_moments_match_fresh_ones(monkeypatch, kernel, penalty, lambda2):
    """The pair moments a full-batch iteration hands to the next one's
    context equal pair_moments(stats, pair) formed afresh, to 1e-10 relative."""
    stats = []
    real_stats, real_context = solver.second_moments, solver.build_context

    def keep_stats(x, y):
        stats.append(real_stats(x, y))
        return stats[-1]

    worst, checked = [0.0], [0]

    def check_context(pm, hp):
        checked[0] += 1
        fresh = pair_moments(stats[-1], pm.pair)
        for name in ("cxx_u", "cxy_v", "cyx_u", "cyy_v", "gram"):
            got, want = getattr(pm, name), getattr(fresh, name)
            worst[0] = max(worst[0], np.linalg.norm(got - want) / np.linalg.norm(want))
        return real_context(pm, hp)

    monkeypatch.setattr(solver, "second_moments", keep_stats)
    monkeypatch.setattr(solver, "build_context", check_context)
    hp = r.Hyperparams(k=2, lambda2=lambda2, penalty=penalty, max_iters=40, tol=0.0, seed=2)
    if kernel:
        ds, spec = _kernel_problem()
        r.fit_kernel(ds, spec, spec, hp)
    else:
        ds, _ = planted(200, 7, 6, (0.8, 0.5), 0.2, seed=9)
        r.fit_full(centered(ds), hp)
    assert len(stats) == 1 and checked[0] == 40
    assert worst[0] <= 1e-10


def test_project_hand_oracle():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, 4, 3, 12)
    pair = r.CanonicalPair(u=rng.standard_normal((4, 2)), v=rng.standard_normal((3, 2)))
    a, b = r.project(pair, ds)
    assert np.array_equal(a, ds.x.data.T @ pair.u)
    assert np.array_equal(b, ds.y.data.T @ pair.v)
    with pytest.raises(DimensionMismatch):
        r.project(r.CanonicalPair(u=np.ones((5, 2)), v=np.ones((3, 2))), ds)


def test_recovers_perfect_linear_relation():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 600))
    ds_all = r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(2.0 * x))
    train, val = slice_split(ds_all, 400)
    hp = r.Hyperparams(k=1, lambda1=0.0, lambda2=0.0, eta=0.05,
                       max_iters=300, tol=0.0, seed=0)
    report = r.fit_full(train, hp)
    a, b = r.project(report.pair, val)
    assert abs(mean_pcc(a, b)) > 0.995


_MEMORY_SCRIPT = textwrap.dedent("""
    import numpy as np
    import rmencca as r

    spec = r.SyntheticSpec(n=1_000_000, d1=50, d2=50, k_true=2,
                           correlations=(0.9, 0.6), noise_scale=0.0, seed=0)
    ds, _ = r.synth_two_view(spec)
    ds = r.TwoViewDataset(x=r.center(ds.x), y=r.center(ds.y))
    hp = r.Hyperparams(k=2, batch_size=512, max_iters=200, tol=0.0, seed=0)
    report = r.fit_stochastic(ds, hp)
    peak_kb = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
    print(report.final_constraint_residual_u, report.final_constraint_residual_v,
          report.iterations_run, peak_kb)
""")


def test_million_sample_fit_stays_linear_in_memory():
    """Minibatch fit at n = 10^6, d = 50 completes with peak memory a small
    multiple of the data size (an n x n Gram would need terabytes)."""
    # the child imports the same rmencca package as this test process
    package_root = os.path.dirname(os.path.dirname(r.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT],
        capture_output=True, text=True, timeout=540, check=True, env=env,
    )
    res_u, res_v, iters, peak_kb = out.stdout.split()
    assert float(res_u) < 3e-8 and float(res_v) < 3e-8
    assert int(iters) == 200
    # both centered views alone hold 800 MB; the budget allows transient
    # copies during generation and centering but nothing superlinear
    assert int(peak_kb) < 3_900_000
