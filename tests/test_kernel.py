import numpy as np
import pytest

import rmencca as r
from rmencca import kernel
from rmencca.errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidKernelParam,
    TooLargeForKernel,
)

from _helpers import centered, mean_pcc, planted, slice_split


def test_gaussian_gram_hand_values():
    # three points on a line at 0, w*sqrt(2), and 10
    w = 0.7
    pts = np.array([[0.0, w * np.sqrt(2.0), 10.0]])
    gram = r.gram_gaussian(r.ViewMatrix.of(pts), width=w)
    k = gram.values
    assert np.allclose(np.diag(k), 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert k[0, 2] == pytest.approx(np.exp(-100.0 / (2 * w * w)), rel=1e-9)
    assert np.allclose(k, k.T)


def test_gaussian_gram_matches_pairwise_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 30))
    gram = r.gram_gaussian(r.ViewMatrix.of(x), width=1.3)
    for i in range(0, 30, 7):
        for j in range(0, 30, 5):
            d2 = float(((x[:, i] - x[:, j]) ** 2).sum())
            assert gram.values[i, j] == pytest.approx(
                np.exp(-d2 / (2 * 1.3 ** 2)), abs=1e-12)


def test_gaussian_gram_is_positive_semidefinite():
    rng = np.random.default_rng(1)
    gram = r.gram_gaussian(r.ViewMatrix.of(rng.standard_normal((6, 150))), width=0.8)
    eigvals = np.linalg.eigvalsh(gram.values)
    assert eigvals.min() > -1e-8


def test_linear_gram_oracles():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 12))
    gram = r.gram_linear(r.ViewMatrix.of(x))
    assert np.allclose(gram.values, x.T @ x, atol=1e-12)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    ortho = r.gram_linear(r.ViewMatrix.of(q))
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
    gram = r.gram_gaussian(train, width=1.1)
    kt = r.cross_gram(gram, test)
    assert kt.shape == (7, 20)
    for i in range(7):
        for j in range(0, 20, 6):
            d2 = float(((test.data[:, i] - train.data[:, j]) ** 2).sum())
            assert kt[i, j] == pytest.approx(np.exp(-d2 / (2 * 1.1 ** 2)), abs=1e-12)
    lin = r.gram_linear(train)
    assert np.allclose(r.cross_gram(lin, test), test.data.T @ train.data)
    with pytest.raises(DimensionMismatch):
        r.cross_gram(gram, r.ViewMatrix.of(rng.standard_normal((4, 7))))


def test_fit_kernel_passes_its_grams_without_a_copy(monkeypatch):
    """The dual views are the (exactly symmetric) Grams themselves, read
    sample-major through their transposes: no n x n copy is made."""
    ds = centered(planted(40, 3, 2, (0.8,), 0.2, seed=23)[0])
    seen = []
    fit_full = kernel.fit_full

    def recording_fit(dual_ds, hp, on_iteration=None):
        seen.append(dual_ds)
        return fit_full(dual_ds, hp, on_iteration=on_iteration)

    monkeypatch.setattr(kernel, "fit_full", recording_fit)
    km = r.fit_kernel(ds, r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=1.5),
                      r.KernelSpec(kind=r.KernelKind.LINEAR),
                      r.Hyperparams(k=1, max_iters=3, tol=0.0, seed=0))
    (dual,) = seen
    for view, gram in ((dual.x, km.gram_x), (dual.y, km.gram_y)):
        assert np.shares_memory(view.data, gram.values)
        assert view.data.flags.f_contiguous
        assert np.array_equal(view.data, gram.values)


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
        gram = r.gram_gaussian(view, spec.width).values
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
