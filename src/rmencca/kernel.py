"""Kernelized solver: Gram construction and the dual reduction.

The kernel problem is the same optimization with the two n x n Gram
matrices standing in for the views and dual matrices (W_X, W_Y) standing in
for (U, V).  fit_kernel forms the statistics Kx Kx / n, Ky Ky / n and
Kx Ky / n itself and runs the solver's loop (solver.fit_moments) on them.
Each statistic is kept at its own rounding level as a pivoted-Cholesky
factor (solver.LowRank, 2 n r values read per product instead of n^2) while
its rank r stays below n/2, and dense otherwise; the cross statistic goes
through the Gram factor of the view of smaller rank.  No n x n
eigendecomposition runs, and a fit in which no statistic factors is the
dense one bit for bit.  Factored statistics differ from the dense ones at
rounding level, so trajectories stay deterministic for a seed and BLAS
thread count but move around the 7th significant digit of the objective.
Grams are not centered in feature space; input views are centered in input
space before they get here.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .core import FitReport, Hyperparams, TwoViewDataset, ViewMatrix
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidKernelParam,
    NonFiniteIterate,
    RankBudgetTooLarge,
    TooLargeForKernel,
)
from .solver import LowRank, SecondMoments, fit_full, fit_moments  # noqa: F401

# fit_full is not called here (fit_kernel runs solver.fit_moments on the
# statistics it forms); it stays bound because tracing tools such as
# perfbench/spans.py wrap this module's fit_full binding by name.

_MAX_KERNEL_SAMPLES = 20000
_EPS = float(np.finfo(np.float64).eps)
_OVERFLOW = "Gram overflowed double precision; rescale the inputs"


class KernelKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function choice; width is the Gaussian bandwidth (ignored for
    linear)."""

    kind: KernelKind
    width: float | None = None

    def __post_init__(self) -> None:
        kind = KernelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is KernelKind.GAUSSIAN:
            if self.width is None or not np.isfinite(self.width) or self.width <= 0:
                raise InvalidKernelParam(
                    f"Gaussian kernel needs a positive finite width, got {self.width}"
                )


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """n x n kernel matrix over the training points, which are retained for
    test-time kernel evaluation."""

    values: np.ndarray
    spec: KernelSpec
    train_points: ViewMatrix


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Dual canonical matrices with the Grams they were trained on.  report
    is None for models restored from disk."""

    w_x: np.ndarray
    w_y: np.ndarray
    gram_x: GramMatrix
    gram_y: GramMatrix
    report: FitReport | None


def _evaluate(spec: KernelSpec, a: ViewMatrix, b: ViewMatrix) -> np.ndarray:
    """a.n x b.n matrix of kernel(a_i, b_j).  Passing one view as both a and
    b makes the inner product x^T x, which numpy forms as a symmetric
    product.  An overflow leaves inf or NaN in it without a warning; a fit
    refuses such a Gram, and metrics.pcc the projections it gives."""
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is KernelKind.LINEAR:
            return a.data.T @ b.data
        sq_a = (a.data * a.data).sum(axis=0)
        sq_b = (b.data * b.data).sum(axis=0)
        dist = sq_a[:, None] + sq_b[None, :]
        cross = a.data.T @ b.data
        cross *= 2.0
        dist -= cross
        np.maximum(dist, 0.0, out=dist)
        dist /= -(2.0 * spec.width * spec.width)
        return np.exp(dist, out=dist)


def gram_gaussian(view: ViewMatrix, width: float) -> GramMatrix:
    """values[i][j] = exp(-||x_i - x_j||^2 / (2 width^2))."""
    spec = KernelSpec(kind=KernelKind.GAUSSIAN, width=width)
    values = _evaluate(spec, view, view)
    values += values.T
    values *= 0.5
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, spec=spec, train_points=view)


def gram_linear(view: ViewMatrix) -> GramMatrix:
    """values = X^T X."""
    spec = KernelSpec(kind=KernelKind.LINEAR)
    values = _evaluate(spec, view, view)
    values += values.T
    values *= 0.5
    return GramMatrix(values=values, spec=spec, train_points=view)


def cross_gram(gram: GramMatrix, test: ViewMatrix) -> np.ndarray:
    """t x n matrix of kernel(test_i, train_j) against gram's training
    points."""
    train = gram.train_points
    if test.d != train.d:
        raise DimensionMismatch(
            f"test view has {test.d} features, training view has {train.d}"
        )
    return _evaluate(gram.spec, test, train)


def build_gram(view: ViewMatrix, spec: KernelSpec) -> GramMatrix:
    """The Gram of `view` under `spec`, for fitting and for loading a model
    alike; refuses more samples than an n x n Gram is allowed for."""
    if view.n > _MAX_KERNEL_SAMPLES:
        raise TooLargeForKernel(
            f"n={view.n} would materialize an n x n Gram; limit is {_MAX_KERNEL_SAMPLES}"
        )
    if spec.kind is KernelKind.GAUSSIAN:
        return gram_gaussian(view, spec.width)
    return gram_linear(view)


def fit_kernel(
    ds: TwoViewDataset,
    kind_x: KernelSpec,
    kind_y: KernelSpec,
    hp: Hyperparams,
    on_iteration=None,
) -> KernelModel:
    """Build both Grams, form the statistics of the dual problem from them
    and run the full-batch iteration on those statistics.  Refuses n < 2,
    a set hp.batch_size (kernel fits are full-batch) and k > n."""
    n = ds.n
    if n < 2:
        raise DegenerateInput(f"kernel fit needs at least 2 samples, got {n}")
    if hp.batch_size is not None:
        raise ValueError("kernel fits are full-batch; hp.batch_size must be None")
    if hp.k > n:
        raise RankBudgetTooLarge(f"k={hp.k} exceeds the sample count n={n}")
    start = time.perf_counter()
    # Kx is factored before Ky is built, so fewer n x n arrays live together
    gx = build_gram(ds.x, kind_x)
    fx = _gram_factor(gx.values)
    gy = build_gram(ds.y, kind_y)
    fy = _gram_factor(gy.values)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _statistics(gx.values, fx, gy.values, fy)
    report = fit_moments(stats.require_finite(), hp, on_iteration, start=start)
    return KernelModel(
        w_x=report.pair.u,
        w_y=report.pair.v,
        gram_x=gx,
        gram_y=gy,
        report=report,
    )


def _pivoted_cholesky(a: np.ndarray) -> np.ndarray | None:
    """L (n x r) with a - L L^T PSD and of trace at most n eps tr(a), the
    rounding level of the PSD a, pivoting on the residual's largest diagonal
    entry; None once r reaches n/2, where L and L^T read as many values as a.
    Raises NonFiniteIterate when a is not finite."""
    n = a.shape[0]
    if not np.isfinite(a).all():
        raise NonFiniteIterate(_OVERFLOW)
    resid = a.diagonal().copy()
    tol = n * _EPS * resid.sum()
    rows = np.empty((0, n))  # L^T, grown with the rank rather than sized to n/2
    for r in range((n + 1) // 2):
        if resid.sum() <= tol:
            return rows[:r].copy().T
        if r == len(rows):
            grown = np.empty((min(2 * r + 16, (n + 1) // 2), n))
            grown[:r] = rows
            rows = grown
        i = int(resid.argmax())
        rows[r] = a[i] - rows[:r, i] @ rows[:r]
        rows[r] /= np.sqrt(resid[i])
        resid -= rows[r] * rows[r]
    return None


def _gram_factor(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(B, s) with gram = B B^T at its rounding level, B^T B = diag(s)
    ascending, or None: the pivoted-Cholesky L rotated by the r x r eigh of
    L^T L, keeping the s above n eps max(s)."""
    low = _pivoted_cholesky(gram)
    if low is None:
        return None
    s, q = np.linalg.eigh(low.T @ low)
    keep = s > gram.shape[0] * _EPS * s.max(initial=0.0)
    return low @ q[:, keep], s[keep]


def _statistics(kx, fx, ky, fy) -> SecondMoments:
    """Cxx = Kx Kx / n, Cyy = Ky Ky / n and Cxy = Kx Ky / n.  A view whose
    Gram factors as (B, s) has Cxx = B diag(s / n) B^T over the columns whose
    Cxx eigenvalue s^2 / n is above n eps times the largest, and the Gram of
    smaller rank gives Cxy = B (Ky B)^T / n; any other statistic is formed
    as second_moments forms it, then kept as its pivoted-Cholesky L L^T."""
    n = kx.shape[0]

    def moment(k, f):
        if f is None:
            c = k.T @ k
            c /= n
            low = _pivoted_cholesky(c)
            return c if low is None else LowRank(low, np.ones(low.shape[1]), low)
        b, s = f
        keep = s * s > n * _EPS * s.max(initial=0.0) ** 2
        kept = b[:, keep]
        return LowRank(kept, s[keep] / n, kept)

    if fx is None and fy is None:
        cxy = kx.T @ ky
        cxy /= n
    elif fy is None or (fx is not None and fx[1].size <= fy[1].size):
        cxy = LowRank(fx[0], np.full(fx[1].size, 1.0 / n), ky @ fx[0])
    else:
        cxy = LowRank(kx @ fy[0], np.full(fy[1].size, 1.0 / n), fy[0])
    return SecondMoments(cxx=moment(kx, fx), cyy=moment(ky, fy), cxy=cxy, n=n)


def project_kernel(
    model: KernelModel, test_x: ViewMatrix, test_y: ViewMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """(K_test,X W_X, K_test,Y W_Y) for test views in input space."""
    return (
        cross_gram(model.gram_x, test_x) @ model.w_x,
        cross_gram(model.gram_y, test_y) @ model.w_y,
    )
