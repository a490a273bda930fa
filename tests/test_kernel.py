import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rmencca as r
from rmencca import kernel
from rmencca.errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidKernelParam,
    NonFiniteEntry,
    NonFiniteIterate,
    RankBudgetTooLarge,
    SampleCountMismatch,
    TooLargeForKernel,
)
from rmencca.solver import LowRank, fit_moments, second_moments

from _helpers import centered, mean_pcc, planted, slice_split


def test_gaussian_gram_hand_values():
    # three points on a line at 0, w*sqrt(2), and 10
    w = 0.7
    pts = np.array([[0.0, w * np.sqrt(2.0), 10.0]])
    gram = kernel.gram_gaussian(r.ViewMatrix.of(pts), width=w)
    k = gram.values
    assert np.allclose(np.diag(k), 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert k[0, 2] == pytest.approx(np.exp(-100.0 / (2 * w * w)), rel=1e-9)
    assert np.allclose(k, k.T)


def test_gaussian_gram_matches_pairwise_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 30))
    gram = kernel.gram_gaussian(r.ViewMatrix.of(x), width=1.3)
    for i in range(0, 30, 7):
        for j in range(0, 30, 5):
            d2 = float(((x[:, i] - x[:, j]) ** 2).sum())
            assert gram.values[i, j] == pytest.approx(
                np.exp(-d2 / (2 * 1.3 ** 2)), abs=1e-12)


@pytest.mark.parametrize("n", [7, 100, 333, 800, 1001])
@pytest.mark.parametrize("d", [1, 2, 5, 50])
def test_gram_is_exactly_symmetric(n, d):
    """A Gram is symmetric bit for bit without a symmetrizing pass, for both
    kernels: numpy forms X^T X as a symmetric product.  _pivoted_cholesky
    reads rows of the Gram, so it relies on this."""
    view = r.ViewMatrix.of(np.random.default_rng(n * d).standard_normal((d, n)))
    for gram in (kernel.gram_gaussian(view, width=1.3), kernel.gram_linear(view)):
        values = gram.values
        assert np.array_equal(values, values.T)


def test_gaussian_gram_is_positive_semidefinite():
    rng = np.random.default_rng(1)
    gram = kernel.gram_gaussian(r.ViewMatrix.of(rng.standard_normal((6, 150))), width=0.8)
    eigvals = np.linalg.eigvalsh(gram.values)
    assert eigvals.min() > -1e-8


def test_linear_gram_oracles():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 12))
    gram = kernel.gram_linear(r.ViewMatrix.of(x))
    assert np.allclose(gram.values, x.T @ x, atol=1e-12)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    ortho = kernel.gram_linear(r.ViewMatrix.of(q))
    assert np.allclose(ortho.values, np.eye(3), atol=1e-12)


def test_kernel_spec_validation():
    with pytest.raises(InvalidKernelParam):
        r.KernelSpec(kind=r.KernelKind.GAUSSIAN)
    with pytest.raises(InvalidKernelParam):
        r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.0)
    with pytest.raises(InvalidKernelParam):
        r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=-2.0)
    with pytest.raises(InvalidKernelParam):
        r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=float("inf"))
    assert r.KernelSpec(kind=r.KernelKind.LINEAR).width is None
    assert r.KernelSpec(kind="gaussian", width=1.0).kind is r.KernelKind.GAUSSIAN


def test_fit_kernel_sample_count_guards():
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=1.0)
    tiny = r.TwoViewDataset(
        x=r.ViewMatrix.of(np.ones((3, 1))), y=r.ViewMatrix.of(np.ones((2, 1))))
    with pytest.raises(DegenerateInput):
        r.fit_kernel(tiny, gauss, gauss, r.Hyperparams(k=1))
    big = r.TwoViewDataset(
        x=r.ViewMatrix.of(np.zeros((2, 20001))), y=r.ViewMatrix.of(np.zeros((2, 20001))))
    with pytest.raises(TooLargeForKernel):
        r.fit_kernel(big, gauss, gauss, r.Hyperparams(k=1))


def test_fit_kernel_checks_its_input_views():
    """The checks fit_full made on the dual views, made on the input views:
    the same error class for the same input.  A finite input whose Gram
    overflows is a numeric failure."""
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=1.0)
    lin = r.KernelSpec(kind=r.KernelKind.LINEAR)
    ds = centered(planted(40, 3, 2, (0.8,), 0.2, seed=23)[0])
    hp = r.Hyperparams(k=1, max_iters=3, tol=0.0, seed=0)

    def fit(x, y, hp=hp, spec=gauss):
        r.fit_kernel(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y)),
                     spec, spec, hp)

    x, y = ds.x.data, ds.y.data
    with pytest.raises(SampleCountMismatch):
        fit(x, y[:, :39])
    bad = x.copy()
    bad[1, 7] = np.nan
    with pytest.raises(NonFiniteEntry):
        fit(bad, y)
    with pytest.raises(NonFiniteEntry):
        fit(x, np.where(y > 1.0, np.inf, y))
    with pytest.raises(RankBudgetTooLarge):
        fit(x, y, hp=r.Hyperparams(k=41))
    with pytest.raises(ValueError, match="batch_size"):
        fit(x, y, hp=r.Hyperparams(k=1, batch_size=8))
    for big_x, big_y in ((1e200 * x, y), (x, 1e200 * y)):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate):
            fit(big_x, big_y, spec=lin)
    # k may exceed the feature counts: the dual pair has n rows
    fit(x[:, :3], y[:, :3], hp=r.Hyperparams(k=3, max_iters=3, tol=0.0))


def test_project_kernel_on_training_points_is_gram_times_dual():
    ds, _ = planted(80, 5, 4, (0.8,), 0.2, seed=3)
    ds = centered(ds)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=2.0)
    hp = r.Hyperparams(k=2, max_iters=30, tol=0.0, seed=0)
    model = r.fit_kernel(ds, gauss, gauss, hp)
    a, b = r.project_kernel(model, ds.x, ds.y)
    # on the training points the cross-Gram reproduces the training Gram,
    # up to the symmetrization and unit diagonal stamped on the latter
    assert np.allclose(a, model.gram_x.values @ model.w_x, atol=1e-10)
    assert np.allclose(b, model.gram_y.values @ model.w_y, atol=1e-10)


def test_cross_gram_matches_loop_and_checks_features():
    rng = np.random.default_rng(4)
    train = r.ViewMatrix.of(rng.standard_normal((3, 20)))
    test = r.ViewMatrix.of(rng.standard_normal((3, 7)))
    gram = kernel.gram_gaussian(train, width=1.1)
    kt = kernel.cross_gram(gram, test)
    assert kt.shape == (7, 20)
    for i in range(7):
        for j in range(0, 20, 6):
            d2 = float(((test.data[:, i] - train.data[:, j]) ** 2).sum())
            assert kt[i, j] == pytest.approx(np.exp(-d2 / (2 * 1.1 ** 2)), abs=1e-12)
    lin = kernel.gram_linear(train)
    assert np.allclose(kernel.cross_gram(lin, test), test.data.T @ train.data)
    with pytest.raises(DimensionMismatch):
        kernel.cross_gram(gram, r.ViewMatrix.of(rng.standard_normal((4, 7))))


def _sinusoid(n, seed):
    """The sinusoidal link of the Gaussian-kernel tests: n training and n
    held-out samples.  With widths 0.7 and 0.15 the x Gram has numerical rank
    below n/4 from n of about 350 on, the y Gram stays near full rank."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=2 * n)
    x = np.vstack([np.sin(3 * np.pi * z), 0.3 * rng.standard_normal(2 * n)])
    y = np.vstack([z, 0.3 * rng.standard_normal(2 * n)])
    return slice_split(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y)), n)


_SINUSOID_SPECS = (r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.7),
                   r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.15))


def _factoring_case(case):
    """(train, held-out, spec_x, spec_y, hp, which views factor).

    The steps are ones on which the fit settles.  While a momentum fit
    swings, it amplifies rounding-level differences in the statistics: on the
    first case with eta = 0.0065, the dense loop run on Kx Kx formed by gemm
    instead of syrk moves the objective at iteration 1500 by 3e-5 relative,
    the factored statistics by 1.5e-5.  The linear dual diverges on either
    path with eta >= 0.002."""
    if case == "one view factors":
        train, val = _sinusoid(400, seed=6)
        hp = r.Hyperparams(k=1, eta=0.003, gamma=0.99, max_iters=600, tol=0.0, seed=3)
        return (train, val, *_SINUSOID_SPECS, hp, (True, False))
    if case == "only y factors":
        # the first case with its views and widths swapped: the dense Kx is
        # read by the cross statistic, which comes from the y Gram's factor
        train, val = (r.TwoViewDataset(x=d.y, y=d.x) for d in _sinusoid(400, seed=6))
        hp = r.Hyperparams(k=1, eta=0.003, gamma=0.99, max_iters=600, tol=0.0, seed=3)
        return (train, val, *_SINUSOID_SPECS[::-1], hp, (False, True))
    if case == "every statistic factors":
        # the y Gram does not factor, its statistic Ky Ky / n does
        train, val = _sinusoid(800, seed=6)
        hp = r.Hyperparams(k=1, eta=0.0015, gamma=0.99, max_iters=300, tol=0.0, seed=3)
        return (train, val, *_SINUSOID_SPECS, hp, (True, True))
    train, val = slice_split(planted(240, 6, 5, (0.8, 0.5), 0.2, seed=5)[0], 120)
    if case == "both views factor":
        lin = r.KernelSpec(kind=r.KernelKind.LINEAR)
        hp = r.Hyperparams(k=2, eta=0.0005, max_iters=80, tol=0.0, seed=1)
        return train, val, lin, lin, hp, (True, True)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=3.0)
    hp = r.Hyperparams(k=2, max_iters=80, tol=0.0, seed=1)
    return train, val, gauss, gauss, hp, (False, False)


def _loop_statistics(monkeypatch):
    """Record the statistics fit_kernel hands to the loop; returns the list."""
    seen = []
    fit_moments_ = kernel.fit_moments

    def recording(stats, hp, on_iteration=None, **kwargs):
        seen.append(stats)
        return fit_moments_(stats, hp, on_iteration, **kwargs)

    monkeypatch.setattr(kernel, "fit_moments", recording)
    return seen


_FACTORING_CASES = ("one view factors", "only y factors", "both views factor",
                    "neither view factors", "every statistic factors")


@pytest.mark.parametrize("case", _FACTORING_CASES)
def test_factored_statistics_match_the_dense_loop(monkeypatch, case):
    """fit_kernel against the same loop run on the dense statistics
    second_moments(Kx, Ky): each factored statistic F G^T within 2 n eps of
    the dense one in Frobenius norm, the final objective within 1e-6
    relative, the held-out PCC within 0.01 pp, residuals against the dense
    statistics within 1e-8 * k, the same seed reproducing the fit bit for
    bit, and a fit in which no statistic factors identical to the dense
    loop.  On the sinusoid data the cross statistic, kept at its own
    rounding level, has fewer columns than the factor of the width-0.7 Gram
    it comes from.

    The factors' bound is 2 n eps, not n eps: each statistic drops the
    directions below n eps times its largest eigenvalue or singular value,
    on top of its Gram factor's own truncation, and the dense reference has
    rounding error of its own (largest measured 1.51 n eps, on the cross
    statistic at n = 800)."""
    train, val, sx, sy, hp, factors = _factoring_case(case)
    seen = _loop_statistics(monkeypatch)
    model = r.fit_kernel(train, sx, sy, hp)
    kx, ky = model.gram_x.values, model.gram_y.values
    assert (isinstance(seen[0].cxx, LowRank), isinstance(seen[0].cyy, LowRank)) == factors
    assert isinstance(seen[0].cxy, LowRank) == any(factors)
    dense = second_moments(kx.T, ky.T)
    n, eps = train.n, np.finfo(float).eps
    for got, want in zip((seen[0].cxx, seen[0].cyy, seen[0].cxy),
                         (dense.cxx, dense.cyy, dense.cxy)):
        if isinstance(got, LowRank):
            err = np.linalg.norm(got.left @ got.right.T - want)
            assert err <= 2.0 * n * eps * np.linalg.norm(want)
    if _SINUSOID_SPECS[0] in (sx, sy):
        wide = kx if sx == _SINUSOID_SPECS[0] else ky
        assert seen[0].cxy.left.shape[1] < kernel._gram_factor(wide)[0].shape[1]
    ref = fit_moments(dense, hp)

    again = r.fit_kernel(train, sx, sy, hp)
    assert again.report.objective_trace == model.report.objective_trace
    assert np.array_equal(again.w_x, model.w_x) and np.array_equal(again.w_y, model.w_y)

    got, want = model.report.objective_trace[-1], ref.objective_trace[-1]
    assert abs(got - want) <= 1e-6 * abs(want)
    ref_model = kernel.KernelModel(w_x=ref.pair.u, w_y=ref.pair.v, gram_x=model.gram_x,
                                   gram_y=model.gram_y, report=ref)
    pcc, ref_pcc = (r.pcc(*r.project_kernel(m, val.x, val.y)).mean_pcc_percent
                    for m in (model, ref_model))
    assert abs(pcc - ref_pcc) <= 0.01
    for w, cov in ((model.w_x, dense.cxx), (model.w_y, dense.cyy)):
        assert np.linalg.norm(w.T @ cov @ w - np.eye(hp.k)) <= 1e-8 * hp.k
    if not any(factors):
        assert model.report.objective_trace == ref.objective_trace
        assert np.array_equal(model.w_x, ref.pair.u) and np.array_equal(model.w_y, ref.pair.v)


def _planted_psd(n, rank, seed):
    g = np.random.default_rng(seed).standard_normal((n, rank))
    return g @ g.T


def test_pivoted_cholesky_stops_at_the_rounding_level():
    """On a PSD matrix of planted rank 23 the factor has 23 columns, and the
    residual a - L L^T is PSD with trace within n eps tr(a)."""
    n = 300
    a = _planted_psd(n, 23, seed=0)
    low = kernel._pivoted_cholesky(a)
    assert low.shape == (n, 23)
    resid = a - low @ low.T
    tol = n * np.finfo(float).eps * np.trace(a)
    assert np.trace(resid) <= tol
    assert np.linalg.eigvalsh(resid)[0] >= -tol


def test_pivoted_cholesky_returns_none_at_the_cap():
    """A factor of rank r reads 2 n r values: it is returned while that is
    below n^2, and None from r = n/2 on, full rank included."""
    n = 300
    assert kernel._pivoted_cholesky(_planted_psd(n, 149, seed=1)).shape == (n, 149)
    assert kernel._pivoted_cholesky(_planted_psd(n, 150, seed=1)) is None
    assert kernel._pivoted_cholesky(_planted_psd(n, n, seed=2) + np.eye(n)) is None


def test_pivoted_cholesky_refuses_a_non_finite_gram():
    """An inf or NaN anywhere in the Gram, off its pivots too, is an
    overflow."""
    for bad in (np.inf, np.nan):
        a = _planted_psd(60, 5, seed=3)
        a[10, 20] = a[20, 10] = bad
        with pytest.raises(NonFiniteIterate, match="Gram overflowed"):
            kernel._pivoted_cholesky(a)


@pytest.mark.parametrize("n", [400, 800])
def test_kernel_fit_makes_no_n_by_n_eigendecomposition(monkeypatch, n):
    """No eigh or eigvalsh of an n x n array in a kernel fit.  At n = 800,
    the benchmark's size, no statistic the loop holds is n x n either."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recording(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    seen = _loop_statistics(monkeypatch)
    train, _ = _sinusoid(n, seed=6)
    r.fit_kernel(train, *_SINUSOID_SPECS, r.Hyperparams(k=1, max_iters=3, tol=0.0, seed=0))
    assert shapes and (n, n) not in shapes
    if n == 800:
        assert all(isinstance(c, LowRank) for c in (seen[0].cxx, seen[0].cyy, seen[0].cxy))


def test_factored_view_holds_no_n_by_n_statistic(monkeypatch):
    """When only the x Gram factors, Cxx and Cxy are held as n x r factors
    with r <= n/4, and the dense Cyy is the only n x n statistic."""
    train, _ = _sinusoid(400, seed=6)
    n = train.n
    seen = []
    fit_moments_ = kernel.fit_moments

    def recording(stats, hp, on_iteration=None, **kwargs):
        seen.append(stats)
        return fit_moments_(stats, hp, on_iteration, **kwargs)

    monkeypatch.setattr(kernel, "fit_moments", recording)
    r.fit_kernel(train, *_SINUSOID_SPECS, r.Hyperparams(k=1, max_iters=3, tol=0.0, seed=0))
    (stats,) = seen
    assert isinstance(stats.cyy, np.ndarray) and stats.cyy.shape == (n, n)
    for low in (stats.cxx, stats.cxy):
        assert isinstance(low, LowRank) and low.shape == (n, n)
        for part in (low.left, low.right):
            assert part.shape[0] == n and 4 * part.shape[1] <= n


@pytest.mark.parametrize("case, bound", [
    ("one view factors", 3.0), ("only y factors", 3.5), ("both views factor", 1.6),
    ("neither view factors", 4.5), ("every statistic factors", 2.6)])
def test_fit_kernel_peak_memory_per_route(case, bound):
    """fit_kernel's peak of traced numpy memory, in units of one n x n array,
    when no Gram outlives its last read.  A Gaussian Gram takes two while
    it is formed.  When only x factors, Kx is dropped before Ky is formed and
    Ky once Cxy and Ky Ky / n exist: 2.7 at n = 400, 2.3 at n = 800 (the
    benchmark's size), where every statistic factors.  When only y factors,
    Kx waits for the y factor, and Ky is formed beside it: 3.0.  When neither
    does, Kx, Ky, Cxy and Cxx live together: 4.0.  Two factoring linear
    Grams never live together: 1.3.  Holding both Grams until the
    statistics exist peaked at 4.05-4.13, 5.02 and 2.36."""
    train, _, sx, sy, hp, _ = _factoring_case(case)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        r.fit_kernel(train, sx, sy, replace(hp, max_iters=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * train.n * train.n) < bound


def test_kernel_model_and_loop_hold_no_gram():
    """Traced numpy memory, in units of one n x n array: the model fit_kernel
    returns holds less than one, and the loop runs with less than two alive,
    the dense Cyy of this data being the only n x n statistic.  Keeping both
    Grams beside it would hold three."""
    train, _ = _sinusoid(400, seed=6)
    hp = r.Hyperparams(k=1, max_iters=5, tol=0.0, seed=0)
    loop = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = r.fit_kernel(train, *_SINUSOID_SPECS, hp,
                             on_iteration=lambda i, pair: loop.append(
                                 tracemalloc.get_traced_memory()[0]))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    nn = 8.0 * train.n * train.n
    assert model.report.iterations_run == hp.max_iters == len(loop)
    assert kept / nn < 1.0
    assert (max(loop) - base) / nn < 2.0


def test_kernel_fit_keeps_dual_constraints():
    ds, _ = planted(120, 6, 5, (0.8, 0.5), 0.2, seed=5)
    ds = centered(ds)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=3.0)
    hp = r.Hyperparams(k=2, max_iters=60, tol=0.0, seed=1)
    model = r.fit_kernel(ds, gauss, gauss, hp)
    assert model.report.final_constraint_residual_u < 1e-8 * hp.k
    assert model.report.final_constraint_residual_v < 1e-8 * hp.k
    assert model.w_x.shape == (120, 2)
    assert model.w_y.shape == (120, 2)


def test_kernel_whitening_constraints_hold_every_iteration():
    """Both dual feasibility residuals stay within 1e-8 * k after every
    iteration of a Gaussian-kernel fit, whose statistics K K / n have
    condition numbers above 1e16."""
    rng = np.random.default_rng(6)
    z = rng.uniform(-1.0, 1.0, size=400)
    x = np.vstack([np.sin(3 * np.pi * z), 0.3 * rng.standard_normal(400)])
    y = np.vstack([z, 0.3 * rng.standard_normal(400)])
    ds = centered(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y)))
    sx = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.7)
    sy = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.15)
    covs = []
    for view, spec in ((ds.x, sx), (ds.y, sy)):
        gram = kernel.gram_gaussian(view, spec.width).values
        covs.append(gram @ gram / ds.n)
    worst = 0.0

    def watch(_i, pair):
        nonlocal worst
        for w, cov in zip((pair.u, pair.v), covs):
            worst = max(worst, float(np.linalg.norm(w.T @ cov @ w - np.eye(w.shape[1]))))

    hp = r.Hyperparams(k=2, eta=0.0065, gamma=0.99, max_iters=600, tol=0.0, seed=0)
    r.fit_kernel(ds, sx, sy, hp, on_iteration=watch)
    assert worst <= 1e-8 * hp.k


def test_gaussian_kernel_tracks_nonlinear_relation():
    """A sinusoidal link between the views defeats linear CCA but not the
    Gaussian-kernel solver."""
    rng = np.random.default_rng(6)
    z = rng.uniform(-1.0, 1.0, size=2400)
    x = np.vstack([np.sin(3 * np.pi * z), 0.3 * rng.standard_normal(2400)])
    y = np.vstack([z, 0.3 * rng.standard_normal(2400)])
    ds_all = r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))
    train, val = slice_split(ds_all, 400)
    linear = r.cca_closed_form(train, k=1)
    av, bv = r.project(linear.pair, val)
    linear_pcc = abs(mean_pcc(av, bv))
    sx = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.7)
    sy = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.15)
    # the dual covariance spectrum tops out near 1/eta here; larger steps
    # diverge
    hp = r.Hyperparams(k=1, eta=0.0065, max_iters=3000, tol=0.0, seed=0)
    model = r.fit_kernel(train, sx, sy, hp)
    a, b = r.project_kernel(model, val.x, val.y)
    kernel_pcc = abs(mean_pcc(a, b))
    assert kernel_pcc > 0.7
    assert kernel_pcc > linear_pcc + 0.4


def test_wide_feature_kernel_run_completes():
    """Shapes typical of paired document features: 128- and 10-dimensional
    views, a couple thousand samples."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 2173))
    x = rng.standard_normal((128, 4)) @ z + 0.5 * rng.standard_normal((128, 2173))
    y = rng.standard_normal((10, 4)) @ z + 0.5 * rng.standard_normal((10, 2173))
    ds = centered(r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y)))
    gauss_x = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=12.0)
    gauss_y = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=4.0)
    hp = r.Hyperparams(k=2, max_iters=25, tol=0.0, seed=2)
    model = r.fit_kernel(ds, gauss_x, gauss_y, hp)
    assert model.report.final_constraint_residual_u < 1e-8 * hp.k
    assert model.report.final_constraint_residual_v < 1e-8 * hp.k
