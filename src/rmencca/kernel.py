"""Kernelized solver: Gram construction and the dual reduction.

The kernel problem is the same optimization with the two n x n Gram
matrices standing in for the views and dual matrices (W_X, W_Y) standing in
for (U, V).  fit_kernel forms the statistics Kx Kx / n, Ky Ky / n and
Kx Ky / n itself and runs the solver's loop (solver.fit_moments) on them.
A Gram whose numerical rank r, the count of its eigenvalues above
n eps lambda_max, is at most n/4 keeps its statistic as its eigenfactor
(solver.LowRank, 2 n r values read per product instead of n^2); the cross
statistic goes through the factored view of smaller rank and is dense only
when neither view factors, in which case the fit is the dense one bit for
bit.  The factored statistics differ from the dense ones at rounding level,
so trajectories stay deterministic for a seed and BLAS thread count but
move around the 7th significant digit of the objective.  Grams are not
centered in feature space; input views are centered in input space before
they get here.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from . import solver
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
        dist = sq_a[:, None] + sq_b[None, :] - 2.0 * (a.data.T @ b.data)
        np.maximum(dist, 0.0, out=dist)
        return np.exp(-dist / (2.0 * spec.width * spec.width))


def gram_gaussian(view: ViewMatrix, width: float) -> GramMatrix:
    """values[i][j] = exp(-||x_i - x_j||^2 / (2 width^2))."""
    spec = KernelSpec(kind=KernelKind.GAUSSIAN, width=width)
    values = _evaluate(spec, view, view)
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, spec=spec, train_points=view)


def gram_linear(view: ViewMatrix) -> GramMatrix:
    """values = X^T X."""
    spec = KernelSpec(kind=KernelKind.LINEAR)
    values = _evaluate(spec, view, view)
    values = 0.5 * (values + values.T)
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
    # each eigh runs while as few n x n arrays as possible are alive: Kx is
    # factored before Ky exists, and Ky is probed first
    gx = build_gram(ds.x, kind_x)
    fx = _eigenfactor(gx.values)
    gy = build_gram(ds.y, kind_y)
    fy = _eigenfactor(gy.values, probe=True)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _statistics(gx.values, fx, gy.values, fy)
    report = fit_moments(stats, hp, on_iteration, start=start)
    return KernelModel(
        w_x=report.pair.u,
        w_y=report.pair.v,
        gram_x=gx,
        gram_y=gy,
        report=report,
    )


def _kept(vals: np.ndarray) -> np.ndarray | None:
    """Mask of the n ascending eigenvalues of a Gram that its factor keeps,
    those above n eps lambda_max, or None when that is more than n/4."""
    if not np.isfinite(vals).all():
        raise NonFiniteIterate(_OVERFLOW)
    n = vals.size
    keep = vals > n * _EPS * vals[-1]
    return None if 4 * np.count_nonzero(keep) > n else keep


def _eigenfactor(
    gram: np.ndarray, probe: bool = False
) -> tuple[np.ndarray, np.ndarray] | None:
    """(P, s) with gram = P diag(s) P^T up to the eigenvalues _kept drops,
    or None when the Gram does not factor.  With probe, the eigenvalues are
    first formed alone (eigvalsh: one n x n workspace, where eigh takes about
    four) and the eigenvectors only when the Gram factors."""
    try:
        if probe and _kept(np.linalg.eigvalsh(gram)) is None:
            return None
        vals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        # a Gram with infinite entries can stop LAPACK instead of giving NaN
        if np.isfinite(gram).all():
            raise
        raise NonFiniteIterate(_OVERFLOW) from None
    keep = _kept(vals)
    return None if keep is None else (vecs[:, keep], vals[keep])


def _statistics(kx, fx, ky, fy) -> SecondMoments:
    """Cxx = Kx Kx / n, Cyy = Ky Ky / n and Cxy = Kx Ky / n.  A view with an
    eigenfactor (P, s) keeps Cxx = P diag(s^2 / n) P^T; the cross statistic
    goes through the factor of smaller rank, Cxy = P diag(s / n) (Ky P)^T."""
    n = kx.shape[0]
    if fx is None and fy is None:
        # the Grams are exactly symmetric, so their transposes are the same
        # matrices read sample-major, as the views of a linear fit are; the
        # call goes through the module so that a wrapper installed on
        # solver.second_moments sees it, as it sees the linear fits' calls
        return solver.second_moments(kx.T, ky.T)

    def moment(k, f):
        if f is None:  # formed as second_moments forms it
            c = k.T @ k
            c /= n
            return c
        p, s = f
        return LowRank(p, s * s / n, p)

    if fy is None or (fx is not None and fx[1].size <= fy[1].size):
        p, s = fx
        cxy = LowRank(p, s / n, ky @ p)
    else:
        q, t = fy
        cxy = LowRank(kx @ q, t / n, q)
    return SecondMoments(cxx=moment(kx, fx), cyy=moment(ky, fy), cxy=cxy, n=n)


def project_kernel(
    model: KernelModel, test_x: ViewMatrix, test_y: ViewMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """(K_test,X W_X, K_test,Y W_Y) for test views in input space."""
    return (
        cross_gram(model.gram_x, test_x) @ model.w_x,
        cross_gram(model.gram_y, test_y) @ model.w_y,
    )
