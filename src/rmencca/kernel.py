"""Kernelized solver: Gram construction and the dual reduction.

The kernel problem is the same optimization with the two n x n Gram
matrices standing in for the views and dual matrices (W_X, W_Y) standing in
for (U, V), so fitting delegates to the main solver unchanged.  Grams are
not centered in feature space; input views are centered in input space
before they get here.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import FitReport, Hyperparams, TwoViewDataset, ViewMatrix
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidKernelParam,
    TooLargeForKernel,
)
from .solver import fit_full

_MAX_KERNEL_SAMPLES = 20000


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

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Dual canonical matrices with the Grams they were trained on.  report
    is None for models restored from disk."""

    w_x: np.ndarray
    w_y: np.ndarray
    gram_x: GramMatrix
    gram_y: GramMatrix
    report: FitReport | None


def gram_gaussian(view: ViewMatrix, width: float) -> GramMatrix:
    """values[i][j] = exp(-||x_i - x_j||^2 / (2 width^2))."""
    spec = KernelSpec(kind=KernelKind.GAUSSIAN, width=width)
    x = view.data
    sq = (x * x).sum(axis=0)
    dist = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    np.maximum(dist, 0.0, out=dist)
    values = np.exp(-dist / (2.0 * width * width))
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, spec=spec, train_points=view)


def gram_linear(view: ViewMatrix) -> GramMatrix:
    """values = X^T X."""
    values = view.data.T @ view.data
    values = 0.5 * (values + values.T)
    return GramMatrix(
        values=values,
        spec=KernelSpec(kind=KernelKind.LINEAR),
        train_points=view,
    )


def cross_gram(gram: GramMatrix, test: ViewMatrix) -> np.ndarray:
    """t x n matrix of kernel(test_i, train_j) against gram's training
    points."""
    train = gram.train_points
    if test.d != train.d:
        raise DimensionMismatch(
            f"test view has {test.d} features, training view has {train.d}"
        )
    if gram.spec.kind is KernelKind.LINEAR:
        return test.data.T @ train.data
    width = gram.spec.width
    sq_test = (test.data * test.data).sum(axis=0)
    sq_train = (train.data * train.data).sum(axis=0)
    dist = sq_test[:, None] + sq_train[None, :] - 2.0 * (test.data.T @ train.data)
    np.maximum(dist, 0.0, out=dist)
    return np.exp(-dist / (2.0 * width * width))


def _build_gram(view: ViewMatrix, spec: KernelSpec) -> GramMatrix:
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
    """Build both Grams and run the full-batch solver on them as views."""
    n = ds.n
    if n < 2:
        raise DegenerateInput(f"kernel fit needs at least 2 samples, got {n}")
    if n > _MAX_KERNEL_SAMPLES:
        raise TooLargeForKernel(
            f"n={n} would materialize an n x n Gram; limit is {_MAX_KERNEL_SAMPLES}"
        )
    gx = _build_gram(ds.x, kind_x)
    gy = _build_gram(ds.y, kind_y)
    # the Grams are exactly symmetric, so their transposes are the same
    # matrices already stored sample-major: no n x n copy
    dual_ds = TwoViewDataset(
        x=ViewMatrix.of(gx.values.T),
        y=ViewMatrix.of(gy.values.T),
    )
    report = fit_full(dual_ds, hp, on_iteration=on_iteration)
    return KernelModel(
        w_x=report.pair.u,
        w_y=report.pair.v,
        gram_x=gx,
        gram_y=gy,
        report=report,
    )


def project_kernel(
    model: KernelModel, test_x: ViewMatrix, test_y: ViewMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """(K_test,X W_X, K_test,Y W_Y) for test views in input space."""
    return (
        cross_gram(model.gram_x, test_x) @ model.w_x,
        cross_gram(model.gram_y, test_y) @ model.w_y,
    )
