"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single summary line with the
measured margin next to its budget (visible under pytest -s, or on failure).
Budgets are asserted exactly as stated; the helper datasets pin seeds so every
number here is reproducible bit for bit.
"""
import dataclasses
import json
import os
import time

import numpy as np
import pytest

import rmencca as r
from rmencca.cli import main

from _helpers import mean_pcc, planted, slice_split


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_oracle_equivalence_at_zero_regularization():
    """With both penalties off, the iterative solver lands on the closed-form
    CCA solution: subspace angles < 1e-2 rad, held-out mean PCC within 0.02."""
    ds, _ = planted(1000, 10, 8, (0.9, 0.7, 0.5), 0.1, seed=42)
    train, val = slice_split(ds, 500)
    oracle = r.cca_closed_form(train, 3)
    p_oracle = mean_pcc(*r.project(oracle.pair, val))
    hp = r.Hyperparams(k=3, lambda1=0.0, lambda2=0.0, eta=0.02, gamma=0.9,
                       max_iters=2000, tol=0.0, seed=7)
    started = time.perf_counter()
    report = r.fit_full(train, hp)
    elapsed = time.perf_counter() - started
    angle_u = r.principal_angles(report.pair.u, oracle.pair.u).max()
    angle_v = r.principal_angles(report.pair.v, oracle.pair.v).max()
    p_fit = mean_pcc(*r.project(report.pair, val))
    gap = abs(p_fit - p_oracle)
    ok = angle_u < 1e-2 and angle_v < 1e-2 and gap <= 0.02 and elapsed < 30.0
    _line("oracle equivalence", ok,
          f"angles u={angle_u:.2e} v={angle_v:.2e} rad (budget 1e-2), "
          f"pcc gap={gap:.4f} (budget 0.02), {elapsed:.2f}s (budget 30s)")
    assert angle_u < 1e-2 and angle_v < 1e-2
    assert gap <= 0.02
    assert elapsed < 30.0


def test_whitening_constraints_hold_every_iteration():
    """Both feasibility residuals stay within 1e-8 * k after every single
    iteration, not only at the end."""
    ds, _ = planted(1000, 10, 8, (0.9, 0.7, 0.5), 0.1, seed=42)
    train, _ = slice_split(ds, 500)
    worst = 0.0

    def watch(_i, pair):
        nonlocal worst
        res_u, res_v = r.constraint_residual(pair, train)
        worst = max(worst, res_u, res_v)

    hp = r.Hyperparams(k=3, lambda1=0.0, lambda2=0.0, eta=0.02, gamma=0.9,
                       max_iters=2000, tol=0.0, seed=7)
    r.fit_full(train, hp, on_iteration=watch)
    budget = 1e-8 * hp.k
    _line("in-loop whitening", worst <= budget,
          f"worst residual {worst:.2e} (budget {budget:.1e})")
    assert worst <= budget


def test_gradients_match_finite_differences_on_twenty_instances():
    """grad_u and grad_v agree with central finite differences of the frozen
    per-iteration surrogate to 1e-5 relative error."""
    rng = np.random.default_rng(17)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        d1 = int(rng.integers(3, 13))
        d2 = int(rng.integers(3, 13))
        n = int(rng.integers(15, 40))
        k = int(rng.integers(1, 4))
        x = rng.standard_normal((d1, n))
        y = rng.standard_normal((d2, n))
        hp = r.Hyperparams(k=k, lambda1=0.3, lambda2=0.2, zeta=1e-4, eta=0.01)
        pair = r.CanonicalPair(
            u=r.normalize(rng.standard_normal((d1, k)), x @ x.T / n, 0.0),
            v=r.normalize(rng.standard_normal((d2, k)), y @ y.T / n, 0.0),
        )
        stats = r.second_moments(x, y)
        ctx = r.build_context(r.pair_moments(stats, pair), hp)
        s_inv = r.build_s_inverse(x.T @ pair.u, y.T @ pair.v, hp.zeta)
        state = r.SolverState(
            u_tilde=rng.standard_normal((d1, k)),
            v_tilde=rng.standard_normal((d2, k)),
            delta_u=np.zeros((d1, k)),
            delta_v=np.zeros((d2, k)),
            pair=pair,
        )

        def surrogate(tilde, view, partner_proj, weights):
            proj = view.T @ tilde
            diff = proj - partner_proj
            val = 0.5 / n * float((diff * diff).sum())
            val += 0.5 * hp.lambda1 * float((weights * (tilde * tilde).sum(axis=1)).sum())
            val += 0.5 * hp.lambda2 * float((proj * r.apply_s_inverse(s_inv, proj)).sum())
            return val

        for analytic, tilde, view, partner_proj, weights in (
            (r.grad_u(stats, state, ctx, hp), state.u_tilde, x, y.T @ pair.v, ctx.p.weights),
            (r.grad_v(stats, state, ctx, hp), state.v_tilde, y, x.T @ pair.u, ctx.q.weights),
        ):
            numeric = np.zeros_like(tilde)
            for i in range(tilde.shape[0]):
                for j in range(k):
                    up = tilde.copy(); up[i, j] += h
                    dn = tilde.copy(); dn[i, j] -= h
                    numeric[i, j] = (
                        surrogate(up, view, partner_proj, weights)
                        - surrogate(dn, view, partner_proj, weights)
                    ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            worst = max(worst, rel)
    _line("gradient check", worst < 1e-5,
          f"worst relative error {worst:.2e} (budget 1e-5)")
    assert worst < 1e-5


def test_half_quadratic_tightness_identity():
    """The weighted quadratic surrogate plus its per-row compensation equals
    the smoothed l21 norm to 1e-10 on 100 random matrices."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 6))
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-2, 2)
        zeta = 10.0 ** rng.uniform(-10, -2)
        hq = r.hq_diagonal(m, zeta)
        lhs = r.surrogate_penalty(m, hq) + float(
            (zeta * hq.weights + 1.0 / (4.0 * hq.weights)).sum())
        rhs = float(np.sqrt((m * m).sum(axis=1) + zeta).sum())
        worst = max(worst, abs(lhs - rhs) / rhs)
    _line("half-quadratic identity", worst <= 1e-10,
          f"worst relative error {worst:.2e} (budget 1e-10)")
    assert worst <= 1e-10


def test_nuclear_norm_variational_identity():
    """Tr((ZZ^T + zeta I)^(1/2)) reproduces the nuclear norm of Z to 1e-3
    relative error at zeta = 1e-10, computed from the factored operator."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal((8, 4))
        op = r.build_s_inverse(z[:, :2], z[:, 2:], 1e-10)
        trace_sqrt = float((1.0 / op.scaled_eigs).sum())
        trace_sqrt += (op.n - op.scaled_eigs.shape[0]) * np.sqrt(1e-10)
        rel = abs(trace_sqrt - r.nuclear_norm(z)) / r.nuclear_norm(z)
        worst = max(worst, rel)
    _line("nuclear variational identity", worst < 1e-3,
          f"worst relative error {worst:.2e} (budget 1e-3)")
    assert worst < 1e-3


def test_s_inverse_operator_matches_dense_oracle():
    """The factored (M + zeta I)^(-1/2) agrees with a dense eigendecomposition
    to 1e-8 relative error on 50 instances with n up to 50."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 6))
        zeta = 10.0 ** rng.uniform(-5, -1)
        px = rng.standard_normal((n, k))
        py = rng.standard_normal((n, k))
        op = r.build_s_inverse(px, py, zeta)
        mm = px @ px.T + py @ py.T + zeta * np.eye(n)
        w, e = np.linalg.eigh(mm)
        dense = (e / np.sqrt(w)) @ e.T
        probe = rng.standard_normal((n, 4))
        got = r.apply_s_inverse(op, probe)
        want = dense @ probe
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    _line("S-inverse operator", worst <= 1e-8,
          f"worst relative error {worst:.2e} (budget 1e-8)")
    assert worst <= 1e-8


def test_row_norm_penalty_decreases_monotonically():
    """With no momentum, no low-rank term, and the partner view fixed, the
    l21 norm of the unnormalized iterate never rises across 50 iterations
    (1e-9 slack), for 30 random starts."""
    worst_rise = -np.inf
    for seed in range(30):
        ds, _ = planted(300, 12, 9, (0.9, 0.7, 0.5), 0.3, seed=seed)
        train = r.TwoViewDataset(x=r.center(ds.x), y=r.center(ds.y))
        x, y = train.x.data, train.y.data
        n = train.n
        cov_x = x @ x.T / n
        rng = np.random.default_rng(seed + 1000)
        v_fixed = r.normalize(rng.standard_normal((9, 3)), y @ y.T / n, 0.0)
        u_tilde = np.linalg.solve(cov_x, (x @ y.T / n) @ v_fixed)
        hp = r.Hyperparams(k=3, lambda1=0.05, lambda2=0.0, eta=0.01, gamma=0.0)
        delta = np.zeros_like(u_tilde)
        norms = [r.l21_norm(u_tilde)]
        stats = r.second_moments(x, y)
        for _ in range(50):
            pair = r.CanonicalPair(u=u_tilde, v=v_fixed)
            ctx = r.build_context(r.pair_moments(stats, pair), hp)
            state = r.SolverState(
                u_tilde=u_tilde, v_tilde=np.zeros((9, 3)),
                delta_u=delta, delta_v=np.zeros((9, 3)), pair=pair)
            grad = r.grad_u(stats, state, ctx, hp)
            u_tilde, delta = r.momentum_step(u_tilde, delta, grad, hp)
            norms.append(r.l21_norm(u_tilde))
        worst_rise = max(worst_rise, float(np.diff(norms).max()))
    _line("l21 monotonicity", worst_rise <= 1e-9,
          f"worst per-step rise {worst_rise:.3e} (slack 1e-9)")
    assert worst_rise <= 1e-9


def test_stochastic_solver_is_consistent_with_full_batch():
    """Minibatch PCC within 0.05 of full batch on held-out data; with the
    batch as large as the training set the two runs are bitwise identical."""
    ds, _ = planted(2000, 10, 8, (0.9, 0.7, 0.5), 0.1, seed=11)
    train_raw, val_raw = r.split_train_validation(ds, 0.2, seed=99)
    train_x = r.center(train_raw.x)
    train_y = r.center(train_raw.y)
    train = r.TwoViewDataset(x=train_x, y=train_y)
    val = r.TwoViewDataset(
        x=r.center_with_means(val_raw.x, train_x.feature_means),
        y=r.center_with_means(val_raw.y, train_y.feature_means),
    )
    hp_full = r.Hyperparams(k=3, lambda1=0.0, lambda2=0.0, eta=0.005, gamma=0.9,
                            max_iters=600, tol=0.0, seed=5)
    p_full = mean_pcc(*r.project(r.fit_full(train, hp_full).pair, val))
    hp_mini = dataclasses.replace(hp_full, batch_size=200)
    p_mini = mean_pcc(*r.project(r.fit_stochastic(train, hp_mini).pair, val))
    gap = abs(p_full - p_mini)

    hp_a = dataclasses.replace(hp_full, max_iters=80)
    hp_b = dataclasses.replace(hp_full, max_iters=80, batch_size=train.n)
    rep_a = r.fit_full(train, hp_a)
    rep_b = r.fit_stochastic(train, hp_b)
    bitwise = (
        rep_a.objective_trace == rep_b.objective_trace
        and rep_a.pair.u.tobytes() == rep_b.pair.u.tobytes()
        and rep_a.pair.v.tobytes() == rep_b.pair.v.tobytes()
    )
    _line("stochastic consistency", gap <= 0.05 and bitwise,
          f"pcc gap {gap:.4f} (budget 0.05), full-size batch bitwise={bitwise}")
    assert gap <= 0.05
    assert bitwise


def test_linear_kernel_matches_primal_solver():
    """With linear kernels and no regularization the dual solver reproduces
    the primal held-out PCC within 0.01, for k = 1 and k = 3."""
    ds, _ = planted(3260, 10, 8, (0.9, 0.8, 0.7), 0.1, seed=1)
    train, val = slice_split(ds, 260)
    n = train.n

    def dual_scale(view):
        cov = view.data @ view.data.T / n
        lam = float(np.linalg.eigvalsh(cov)[-1])
        # makes the dual covariance spectrum top out near 1 so one step size
        # serves every instance; per-view scaling cannot change the PCC
        return (n * lam * lam) ** -0.25

    cx = dual_scale(train.x)
    cy = dual_scale(train.y)
    scaled_train = r.TwoViewDataset(
        x=r.ViewMatrix(cx * train.x.data, train.x.feature_means, True),
        y=r.ViewMatrix(cy * train.y.data, train.y.feature_means, True),
    )
    linear = r.KernelSpec(kind=r.KernelKind.LINEAR)
    worst = 0.0
    for k in (1, 3):
        hp_primal = r.Hyperparams(k=k, lambda1=0.0, lambda2=0.0, eta=0.005,
                                  gamma=0.9, max_iters=2000, tol=0.0, seed=0)
        p_primal = mean_pcc(*r.project(r.fit_full(train, hp_primal).pair, val))
        hp_dual = r.Hyperparams(k=k, lambda1=0.0, lambda2=0.0, eta=0.3,
                                gamma=0.9, max_iters=3000, tol=0.0, seed=0)
        km = r.fit_kernel(scaled_train, linear, linear, hp_dual)
        a, b = r.project_kernel(
            km,
            r.ViewMatrix(cx * val.x.data, val.x.feature_means, True),
            r.ViewMatrix(cy * val.y.data, val.y.feature_means, True),
        )
        worst = max(worst, abs(p_primal - mean_pcc(a, b)))
    _line("linear-kernel duality", worst <= 0.01,
          f"worst pcc gap {worst:.5f} over k in (1, 3) (budget 0.01)")
    assert worst <= 0.01


def test_row_sparsity_penalty_beats_plain_gradient_on_distractors():
    """With half of each view's features pure noise, the regularized solver
    beats the penalty-free configuration by at least 5 held-out PCC points in
    the median over 10 seeds."""
    gaps = []
    scale = 0.05
    for seed in range(10):
        ds, _ = planted(1050, 12, 12, (0.95, 0.9, 0.85), 0.4, seed=seed)
        drng = np.random.default_rng(77000 + seed)
        dx = drng.standard_normal((6, 1050)) * (scale * 0.5)
        dy = drng.standard_normal((6, 1050)) * (scale * 0.5)
        x = np.vstack([scale * ds.x.data, dx])
        y = np.vstack([scale * ds.y.data, dy])
        full = r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))
        train, val = slice_split(full, 50)
        hp_rmen = r.Hyperparams(k=3, eta=2.0, gamma=0.9, max_iters=1200,
                                tol=0.0, seed=5)
        p_rmen = r.pcc(*r.project(r.fit_full(train, hp_rmen).pair, val)).mean_pcc_percent
        hp_plain = r.appgrad_config(r.Hyperparams(k=3, eta=2.0, gamma=0.9,
                                                  max_iters=9000, tol=0.0, seed=5))
        p_plain = r.pcc(*r.project(r.fit_full(train, hp_plain).pair, val)).mean_pcc_percent
        gaps.append(p_rmen - p_plain)
    median_gap = float(np.median(gaps))
    _line("regularization benefit", median_gap >= 5.0,
          f"median pcc gap {median_gap:.2f} points over 10 seeds (budget 5), "
          f"min {min(gaps):.2f}")
    assert median_gap >= 5.0


def test_reports_are_deterministic_for_fixed_seed(tmp_path):
    """Identical config and seed give byte-identical reports once the
    wall-time field is removed."""
    x_path = str(tmp_path / "x.csv")
    y_path = str(tmp_path / "y.csv")
    assert main(["synth", "--n", "300", "--d1", "8", "--d2", "6",
                 "--correlations", "0.9,0.6", "--noise", "0.2", "--seed", "3",
                 "--x-out", x_path, "--y-out", y_path,
                 "--out", str(tmp_path / "synth.json")]) == 0
    outputs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["train", "--x", x_path, "--y", y_path, "--k", "2",
                     "--iters", "120", "--seed", "4", "--tol", "0",
                     "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_seconds")
        outputs.append(json.dumps(report, sort_keys=True))
    same = outputs[0] == outputs[1]
    _line("determinism", same,
          "reports byte-identical after dropping wall_seconds" if same
          else "reports differ")
    assert same


_MNIST_PATH = os.environ.get(
    "RMENCCA_MNIST_IDX",
    os.path.join(os.path.dirname(__file__), "data", "train-images-idx3-ubyte"),
)


@pytest.mark.skipif(not os.path.isfile(_MNIST_PATH),
                    reason="MNIST IDX file not present; set RMENCCA_MNIST_IDX")
def test_mnist_halves_beat_closed_form():
    """Optional dataset run: left/right MNIST halves, k=50, 150 iterations;
    the regularized solver must beat closed-form CCA and land in [85, 100]."""
    ds = r.load_mnist_halves(_MNIST_PATH)
    train_raw, val_raw = r.split_train_validation(ds, 0.2, seed=0)
    train_x = r.center(train_raw.x)
    train_y = r.center(train_raw.y)
    train = r.TwoViewDataset(x=train_x, y=train_y)
    val = r.TwoViewDataset(
        x=r.center_with_means(val_raw.x, train_x.feature_means),
        y=r.center_with_means(val_raw.y, train_y.feature_means),
    )
    hp = r.Hyperparams(k=50, max_iters=150, tol=0.0, seed=0)
    fitted = r.fit_full(train, hp)
    p_rmen = r.pcc(*r.project(fitted.pair, val)).mean_pcc_percent
    oracle = r.cca_closed_form(train, 50)
    p_oracle = r.pcc(*r.project(oracle.pair, val)).mean_pcc_percent
    _line("mnist halves", p_rmen > p_oracle and 85.0 <= p_rmen <= 100.0,
          f"regularized {p_rmen:.2f} vs closed form {p_oracle:.2f} "
          f"(needs better than closed form and within [85, 100])")
    assert p_rmen > p_oracle
    assert 85.0 <= p_rmen <= 100.0
