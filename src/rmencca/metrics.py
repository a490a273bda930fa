"""Evaluation metrics: per-dimension Pearson correlation of paired
projections, whitening-constraint residuals, and principal angles between
subspaces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CanonicalPair, TwoViewDataset
from .errors import DegenerateInput, DimensionMismatch, NonFiniteIterate, RankDeficientBasis
from .solver import dataset_moments, whitening_residual


@dataclass(frozen=True, eq=False)
class PccReport:
    """Columnwise Pearson correlations between two projection matrices.

    per_dimension holds the signed coefficient for each canonical dimension;
    columns with zero variance in either input contribute 0.0 and are flagged
    in zero_variance.  mean_pcc_percent is the mean of per_dimension times
    100.
    """

    per_dimension: tuple[float, ...]
    mean_pcc_percent: float
    zero_variance: tuple[bool, ...]


def pcc(a: np.ndarray, b: np.ndarray) -> PccReport:
    """Pearson correlation per column between paired n x k projections;
    raises NonFiniteIterate when a coefficient, or a moment it is formed
    from, is not finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatch(
            f"projections must share an n x k shape; got {a.shape} and {b.shape}"
        )
    if a.shape[0] < 2:
        raise DegenerateInput("Pearson correlation needs at least 2 samples")
    # a projection that holds NaN or inf, or whose moments overflow, leaves
    # a variance, their product or a coefficient non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        ac = a - a.mean(axis=0)
        bc = b - b.mean(axis=0)
        va = (ac * ac).sum(axis=0)
        vb = (bc * bc).sum(axis=0)
        dead = (va <= 0.0) | (vb <= 0.0)
        denom = np.sqrt(np.where(dead, 1.0, va * vb))
        r = np.where(dead, 0.0, (ac * bc).sum(axis=0) / denom)
    if not np.isfinite([va, vb, denom, r]).all():
        raise NonFiniteIterate(
            "Pearson correlation overflowed double precision or met a non-finite "
            "projection; rescale the inputs"
        )
    return PccReport(
        per_dimension=tuple(float(v) for v in r),
        mean_pcc_percent=float(r.mean() * 100.0),
        zero_variance=tuple(bool(f) for f in dead),
    )


def constraint_residual(pair: CanonicalPair, ds: TwoViewDataset) -> tuple[float, float]:
    """Frobenius distances of U^T(XX^T/n)U and V^T(YY^T/n)V from identity,
    with the dataset's statistics as a fit on it forms them (formed here
    only if nothing has yet); raises NonFiniteIterate when they overflow.
    It checks the pair against the statistics a fit on ds whitened against,
    not those statistics themselves (see ViewMatrix.of for how they can go
    stale)."""
    stats = dataset_moments(ds)
    return whitening_residual(pair.u, stats.cxx), whitening_residual(pair.v, stats.cyy)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between the column spans of two
    bases with the same number of rows.

    Each basis is orthonormalized with a reduced QR first; a numerically
    rank-deficient basis is rejected rather than silently projected.
    """
    qa = _orthonormal(np.asarray(a, dtype=np.float64))
    qb = _orthonormal(np.asarray(b, dtype=np.float64))
    if qa.shape[0] != qb.shape[0]:
        raise DimensionMismatch(
            f"bases live in different ambient dimensions: {qa.shape[0]} vs {qb.shape[0]}"
        )
    svals = np.linalg.svd(qa.T @ qb, compute_uv=False)
    svals = np.clip(svals, -1.0, 1.0)
    return np.sort(np.arccos(svals))


def _orthonormal(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionMismatch(f"basis must be a nonempty 2-D array; got shape {m.shape}")
    q, r = np.linalg.qr(m)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise RankDeficientBasis(
            "basis columns are numerically dependent; principal angles undefined"
        )
    return q
