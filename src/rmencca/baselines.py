"""Classical baselines.

cca_closed_form solves linear CCA exactly through the whitened
cross-covariance SVD and doubles as the oracle the iterative solver is
tested against at zero regularization.  appgrad_config and men_cca_mode
express the plain-gradient and Frobenius-penalty baselines as
parameterizations of the main solver.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import CanonicalPair, Hyperparams, Penalty, TwoViewDataset
from .errors import RankBudgetTooLarge
from .solver import dataset_moments, inverse_sqrt


@dataclass(frozen=True, eq=False)
class CCASolution:
    """Whitened canonical pair plus its canonical correlations, sorted
    descending in [0, 1]."""

    pair: CanonicalPair
    correlations: tuple[float, ...]


def cca_closed_form(ds: TwoViewDataset, k: int) -> CCASolution:
    """Classical CCA: top-k SVD of (XX^T/n)^(-1/2) (XY^T/n) (YY^T/n)^(-1/2).

    A ridge of 1e-8 * trace(cov)/d per view, a scale-aware floor, is added to
    the covariance eigenvalues before the inverse square root, so a singular
    covariance still gives finite correlations.  The covariances are the
    dataset's statistics as a fit on it forms them (solver.dataset_moments);
    raises NonFiniteIterate when they overflow.
    """
    bound = min(ds.x.d, ds.y.d, ds.n)
    if k < 1:
        raise RankBudgetTooLarge(f"k={k} must lie in [1, min(d1, d2, n)] = [1, {bound}]")
    if k > bound:
        raise RankBudgetTooLarge(f"k={k} exceeds min(d1, d2, n) = {bound}")
    stats = dataset_moments(ds)
    wx = _inv_sqrt(stats.cxx)
    wy = _inv_sqrt(stats.cyy)
    left, svals, right_t = np.linalg.svd(wx @ stats.cxy @ wy)
    u = _exact_rewhiten(wx @ left[:, :k], stats.cxx)
    v = _exact_rewhiten(wy @ right_t[:k].T, stats.cyy)
    corr = np.clip(svals[:k], 0.0, 1.0)
    return CCASolution(
        pair=CanonicalPair(u=u, v=v),
        correlations=tuple(float(c) for c in corr),
    )


def appgrad_config(hp: Hyperparams) -> Hyperparams:
    """Plain alternating projected gradient: no penalties, no momentum."""
    return dataclasses.replace(hp, lambda1=0.0, lambda2=0.0, gamma=0.0)


def men_cca_mode(hp: Hyperparams) -> Hyperparams:
    """Matrix-elastic-net variant: the row-wise penalty becomes Frobenius
    (unit half-quadratic weights); the nuclear term is unchanged."""
    return dataclasses.replace(hp, penalty=Penalty.FROBENIUS)


def _inv_sqrt(cov: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        factor, _ = inverse_sqrt(cov, 1e-8 * float(np.trace(cov)) / cov.shape[0])
    return factor


def _exact_rewhiten(m: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # the ridge perturbs the whitening constraint by O(ridge/eig); one exact
    # normalization pass removes it without moving the subspace
    with np.errstate(divide="ignore", invalid="ignore"):
        factor, eigvals = inverse_sqrt(m.T @ (cov @ m), 0.0)
    if eigvals[0] <= 1e-10 * max(eigvals[-1], 1.0):
        return m
    return m @ factor
