"""Kernelized solver: kernels over training points and the dual reduction.

A GramMatrix is a kernel over training points; its n x n values are formed
on each read and never kept.  The kernel problem is the same optimization
with the two n x n Grams standing in for the views and dual matrices
(W_X, W_Y) standing in for (U, V).  fit_kernel forms the statistics
Kx Kx / n, Ky Ky / n and Kx Ky / n and runs the solver's loop
(solver.fit_moments) on them.  No Gram outlives its last read: a Gram that
factors is dropped as soon as its factor exists, one that does not once the
cross statistic and its own square are formed.  A fit's traced peak is then
2.3-2.7 n x n when only the x Gram factors, 3 when only the y Gram does
(the dense Kx waits for the y factor), 4 when neither does and 1.3 for two
factoring linear Grams; a Gaussian Gram takes 2 n x n while it is formed.
Each statistic is kept at its own rounding level as the plain product of
two n x r factors (solver.LowRank, 2 n r values read per product instead of
n^2, with no middle term) while its rank r stays below n/2, and dense
otherwise: a symmetric statistic as F F^T with sqrt(s / n) folded into F,
the cross statistic as the two factors of its own truncated SVD, formed
from the Gram factor of the view of smaller rank and the other Gram, or its
factor when both Grams factor.  No n x n eigendecomposition runs, and a fit
in which no statistic factors is the dense one bit for bit.  Factored
statistics differ from the dense ones at rounding level, so trajectories
stay deterministic for a seed and BLAS thread count but move around the 7th
significant digit of the objective.
Grams are not centered in feature space; input views are centered in input
space before they get here.  project_kernel forms each test-by-training
cross-Gram in row blocks of a fixed byte size, so no t x n array is held
however many test samples there are.
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
# project_kernel forms a cross-Gram in row blocks of at most this many bytes
_CROSS_BLOCK_BYTES = 32 << 20


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
    """The kernel `spec` over `train_points`; the n x n Gram is formed on
    each read of `values` and never stored.  Refuses more training points
    than an n x n Gram is allowed for."""

    spec: KernelSpec
    train_points: ViewMatrix

    def __post_init__(self) -> None:
        n = self.train_points.n
        if n > _MAX_KERNEL_SAMPLES:
            raise TooLargeForKernel(
                f"n={n} would materialize an n x n Gram; limit is {_MAX_KERNEL_SAMPLES}"
            )

    @property
    def values(self) -> np.ndarray:
        """The n x n Gram, a new array on every read.  It is exactly
        symmetric because _evaluate forms X^T X as a symmetric product."""
        values = _evaluate(self.spec, self.train_points, self.train_points)
        if self.spec.kind is KernelKind.GAUSSIAN:
            np.fill_diagonal(values, 1.0)
        return values


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Dual canonical matrices with each view's kernel and training points.
    report is None for models restored from disk."""

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
    return GramMatrix(KernelSpec(kind=KernelKind.GAUSSIAN, width=width), view)


def gram_linear(view: ViewMatrix) -> GramMatrix:
    """values = X^T X."""
    return GramMatrix(KernelSpec(kind=KernelKind.LINEAR), view)


def cross_gram(gram: GramMatrix, test: ViewMatrix) -> np.ndarray:
    """t x n matrix of kernel(test_i, train_j) against gram's training
    points."""
    train = gram.train_points
    if test.d != train.d:
        raise DimensionMismatch(
            f"test view has {test.d} features, training view has {train.d}"
        )
    return _evaluate(gram.spec, test, train)


def fit_kernel(
    ds: TwoViewDataset,
    kind_x: KernelSpec,
    kind_y: KernelSpec,
    hp: Hyperparams,
    on_iteration=None,
) -> KernelModel:
    """Form the dual problem's statistics from both Grams (_statistics), each
    Gram held only until its last read, and run the full-batch iteration on
    the statistics.  Refuses n < 2, a set hp.batch_size (kernel fits are
    full-batch), k > n and n > 20000."""
    n = ds.n
    if n < 2:
        raise DegenerateInput(f"kernel fit needs at least 2 samples, got {n}")
    if hp.batch_size is not None:
        raise ValueError("kernel fits are full-batch; hp.batch_size must be None")
    if hp.k > n:
        raise RankBudgetTooLarge(f"k={hp.k} exceeds the sample count n={n}")
    start = time.perf_counter()
    gx, gy = GramMatrix(kind_x, ds.x), GramMatrix(kind_y, ds.y)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _statistics(gx, gy)
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


def _statistics(gx: GramMatrix, gy: GramMatrix) -> SecondMoments:
    """Cxx = Kx Kx / n, Cyy = Ky Ky / n and Cxy = Kx Ky / n, with each Gram
    formed once and held only until its last read.  A view whose Gram
    factors as (B, s) drops the Gram as soon as it has Cxx = F F^T for
    F = B diag(s / n)^(1/2) over the columns whose Cxx eigenvalue s^2 / n is
    above n eps times the largest.  The Gram factor of smaller rank gives
    Cxy through _cross_factor, at its own rounding level, with the other
    Gram K_o times B read as B_o (B_o^T B) when that Gram factored too.  A
    Gram that does not factor lives until Cxy has read it and K K / n is
    formed, then K K / n is kept as its pivoted-Cholesky L L^T, or dense."""
    n = gx.train_points.n
    kx = gx.values
    fx = _gram_factor(kx)
    # a factored view's statistic is formed before the next Gram: formed
    # last, it left the heap untrimmed after the fit, and the benchmark's
    # kernel pass peaked 1.2 MiB higher in RSS
    if fx is not None:
        kx, cxx = None, _gram_moment(fx, n)
    ky = gy.values
    fy = _gram_factor(ky)
    if fy is not None:
        ky, cyy = None, _gram_moment(fy, n)
    if fx is None and fy is None:
        cxy = kx.T @ ky
        cxy /= n
    elif fy is None or (fx is not None and fx[1].size <= fy[1].size):
        cxy = _cross_factor(fx, _gram_times(ky, fy, fx[0]), n)
    else:
        cxy = _cross_factor(fy, _gram_times(kx, fx, fy[0]), n).T
    # a dense Gram is dropped before the statistic it gives is factored
    if fx is None:
        cxx = _square(kx, n)
        kx = None
        cxx = _low_rank(cxx)
    if fy is None:
        cyy = _square(ky, n)
        ky = None
        cyy = _low_rank(cyy)
    return SecondMoments(cxx=cxx, cyy=cyy, cxy=cxy, n=n)


def _gram_times(k: np.ndarray | None, f, b: np.ndarray) -> np.ndarray:
    """K B for a view's Gram: B_o (B_o^T B) from its factor f = (B_o, s_o)
    when it has one, else the dense K."""
    return k @ b if f is None else f[0] @ (f[0].T @ b)


def _square(k: np.ndarray, n: int) -> np.ndarray:
    """K K / n for a symmetric Gram K, formed as second_moments forms it."""
    c = k.T @ k
    c /= n
    return c


def _low_rank(c: np.ndarray) -> LowRank | np.ndarray:
    """c as its pivoted-Cholesky L L^T, or c itself when L does not pay."""
    low = _pivoted_cholesky(c)
    return c if low is None else LowRank(low, low)


def _gram_moment(f, n: int) -> LowRank:
    """K K / n = F F^T for a Gram factor f = (B, s), F = B diag(s / n)^(1/2)
    over the s whose s^2 / n is above n eps times the largest."""
    b, s = f
    keep = s * s > n * _EPS * s.max(initial=0.0) ** 2
    root = b[:, keep] * np.sqrt(s[keep] / n)
    return LowRank(root, root)


def _cross_factor(f, m: np.ndarray, n: int) -> LowRank:
    """B M^T / n for a Gram factor f = (B, s) and M = K B, with K the other
    view's Gram or its factor's B_o B_o^T, at its own rounding level.
    B diag(s)^(-1/2) and diag(s)^(1/2) are B's QR factors, since
    B^T B = diag(s); with M = Qm Rm, the SVD P diag(sigma) Q^T of the r x r
    core diag(s)^(1/2) Rm^T / n keeps the sigma above n eps max(sigma), so
    the factors are B diag(s)^(-1/2) P sigma^(1/2) and Qm Q sigma^(1/2)."""
    b, s = f
    root_s = np.sqrt(s)
    qm, rm = np.linalg.qr(m)
    del m  # the caller's temporary, freed before the factors are formed
    core = root_s[:, None] * rm.T
    core /= n
    p, sigma, qt = np.linalg.svd(core)
    keep = sigma > n * _EPS * sigma.max(initial=0.0)
    root = np.sqrt(sigma[keep])
    return LowRank(b @ (p[:, keep] / root_s[:, None] * root), qm @ (qt[keep].T * root))


def project_kernel(
    model: KernelModel, test_x: ViewMatrix, test_y: ViewMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """(K_test,X W_X, K_test,Y W_Y) for test views in input space.  Each
    t x n cross-Gram is formed in row blocks of at most _CROSS_BLOCK_BYTES,
    each multiplied into W as it is formed, so memory does not grow with t."""
    return (
        _project(model.gram_x, test_x, model.w_x),
        _project(model.gram_y, test_y, model.w_y),
    )


def _project(gram: GramMatrix, test: ViewMatrix, w: np.ndarray) -> np.ndarray:
    """cross_gram(gram, test) @ w, a block of test samples at a time."""
    rows = max(1, _CROSS_BLOCK_BYTES // (8 * gram.train_points.n))
    out = np.empty((test.n, w.shape[1]))
    for i in range(0, test.n, rows):
        block = ViewMatrix.of(test.data[:, i:i + rows])
        np.matmul(cross_gram(gram, block), w, out=out[i:i + rows])
    return out
