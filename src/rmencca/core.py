"""Shared data types: views, datasets, canonical pairs, hyperparameters and
fit reports.

Layout convention: a view is logically features x samples (d x n), so the
projection of a view through a canonical matrix U is data.T @ U (n x k).
It is stored sample-major: `data` is the transpose of a C-contiguous n x d
array (F-order), so each sample's d features are contiguous in memory and a
gather of samples (a minibatch, a train/validation split) reads whole
contiguous samples.

A view's `feature_means` is everything subtracted from its raw values: zeros
for a view made by `ViewMatrix.of`, and each centering (`center`,
`center_with_means`) adds the means it subtracts.  `center` always subtracts
the view's own current means, so a centered subset of a centered view is
centered again.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BatchTooLarge,
    DegenerateInput,
    NonFiniteEntry,
    NonFiniteIterate,
    RankBudgetTooLarge,
    SampleCountMismatch,
)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class ViewMatrix:
    """One view, d features x n samples, stored sample-major.

    `data` has the logical shape (d, n) and is always F-contiguous, i.e. the
    transpose of a C-contiguous (n, d) array; construction converts other
    layouts (one copy) and leaves sample-major float64 data as it is.

    `data` is read-only: writing into it raises ValueError.  A view is never
    changed in place, so what is derived from it once stays valid: its
    dataset's finiteness check and the statistics solver.dataset_moments
    keeps.  A writable array passed in gets a read-only view (no copy) and
    stays writable itself; writing into it behind the view's back voids both.
    An array that is already read-only is taken as it is.  A copy or pickle
    of a view is built again, so its data is read-only too.
    """

    data: np.ndarray
    feature_means: np.ndarray

    def __post_init__(self) -> None:
        data = np.asfortranarray(self.data, dtype=np.float64)
        if data.flags.writeable:
            data = data.view()
            data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __reduce__(self):
        return ViewMatrix, (self.data, self.feature_means)

    @classmethod
    def of(cls, data) -> "ViewMatrix":
        """A view of `data` with zero feature means.  No copy is made of
        sample-major float64 data: the view then reads the caller's array,
        which stays writable, and writing into that array afterwards voids
        the statistics a dataset built on the view keeps (fits, the closed
        form and the residual would read the old statistics, projections the
        new data).  Pass a copy to keep using the array."""
        m = _as_matrix(data)
        return cls(data=m, feature_means=np.zeros(m.shape[0]))

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class TwoViewDataset:
    """Paired views; column j of x and column j of y describe the same sample.
    Construction refuses unpaired views and a NaN or infinite entry.

    Both checks, and the statistics Cxx, Cyy and Cxy that
    solver.dataset_moments forms on first use and keeps on the dataset
    (shared by fit_full, cca_closed_form and constraint_residual), stay
    valid because the views are read-only (see ViewMatrix.of for an array
    the caller keeps writing into).  A copy or pickle is built again from
    the views: checked again, and with no statistics kept.
    """

    x: ViewMatrix
    y: ViewMatrix
    # the views' statistics, set once by solver.dataset_moments
    _moments: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.x.n != self.y.n:
            raise SampleCountMismatch(f"view x has {self.x.n} samples but view y has {self.y.n}")
        for name, view in (("x", self.x), ("y", self.y)):
            # a finite sum proves every entry finite without an n x d
            # temporary, so only a sum that is not finite needs the scan
            with np.errstate(over="ignore", invalid="ignore"):
                total = view.data.sum()
            if not np.isfinite(total) and not np.isfinite(view.data).all():
                raise NonFiniteEntry(f"view {name} contains non-finite entries")

    def __reduce__(self):
        return TwoViewDataset, (self.x, self.y)

    @property
    def n(self) -> int:
        return self.x.n


@dataclass(frozen=True, eq=False)
class CanonicalPair:
    """The true canonical matrices (U: d1 x k, V: d2 x k)."""

    u: np.ndarray
    v: np.ndarray


class Penalty(str, enum.Enum):
    """Row penalty mode for the lambda1 term: l21 (default) or plain Frobenius."""

    L21 = "l21"
    FROBENIUS = "frobenius"


@dataclass(frozen=True)
class Hyperparams:
    k: int
    lambda1: float = 0.01
    lambda2: float = 0.001
    eta: float = 0.005
    gamma: float = 0.9
    zeta: float = 1e-8
    max_iters: int = 500
    tol: float = 1e-6
    batch_size: int | None = None
    seed: int = 0
    penalty: Penalty = Penalty.L21

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not np.isfinite([self.lambda1, self.lambda2, self.eta, self.zeta, self.tol]).all():
            raise ValueError("lambda1, lambda2, eta, zeta and tol must be finite")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative (0 disables early stopping)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "penalty", Penalty(self.penalty))


class Termination(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True, eq=False)
class FitReport:
    pair: CanonicalPair
    iterations_run: int
    objective_trace: tuple[float, ...]
    final_constraint_residual_u: float
    final_constraint_residual_v: float
    termination: Termination
    wall_seconds: float


# ---------------------------------------------------------------- operations

def center(view: ViewMatrix) -> ViewMatrix:
    """Subtract the view's own per-feature sample means, so each row sums to
    (numerically) zero whatever was subtracted before.  Finite entries whose
    mean, or whose difference from it, overflows raise NonFiniteIterate."""
    if view.n < 2:
        raise DegenerateInput(f"centering needs n >= 2, got n={view.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = view.data.mean(axis=1)
    # a view holding NaN or inf is left for TwoViewDataset to refuse
    if not np.isfinite(means).all() and np.isfinite(view.data).all():
        raise NonFiniteIterate(
            "feature means overflowed double precision; rescale the inputs"
        )
    return _subtract(view, means)


def center_with_means(view: ViewMatrix, means: np.ndarray) -> ViewMatrix:
    """Center with externally supplied (training) means, e.g. for test views."""
    means = np.asarray(means, dtype=np.float64).reshape(-1)
    if means.shape[0] != view.d:
        raise ValueError(
            f"means length {means.shape[0]} != feature count {view.d}"
        )
    return _subtract(view, means)


def _subtract(view: ViewMatrix, means: np.ndarray) -> ViewMatrix:
    """The view less `means`.  Finite entries whose difference from a finite
    mean overflows raise NonFiniteIterate; the check costs no extra pass, as
    the subtraction itself raises the overflow."""
    try:
        with np.errstate(over="raise"):
            data = view.data - means[:, None]
    except FloatingPointError:
        raise NonFiniteIterate(
            "centered values overflowed double precision; rescale the inputs"
        ) from None
    return ViewMatrix(data=data, feature_means=view.feature_means + means)


def validate_dataset(ds: TwoViewDataset, hp: Hyperparams) -> None:
    """The budgets of a linear fit: k <= min(d1, d2, n) and batch_size <= n."""
    bound = min(ds.x.d, ds.y.d, ds.n)
    if hp.k > bound:
        raise RankBudgetTooLarge(
            f"k={hp.k} exceeds min(d1, d2, n) = {bound}"
        )
    if hp.batch_size is not None and hp.batch_size > ds.n:
        raise BatchTooLarge(
            f"batch_size={hp.batch_size} exceeds n={ds.n}"
        )
