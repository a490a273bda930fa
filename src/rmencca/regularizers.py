"""Row-sparsity and low-rank penalties.

l21 norm, its half-quadratic diagonal surrogate (diagonal weights
p_i = 1 / (2 sqrt(||row_i||^2 + zeta))), the nuclear norm, and the factored
S-inverse operator representing (M + zeta I)^(-1/2) for M = Z Z^T,
Z = [proj_x proj_y].  M has rank at most 2k, so the operator is factored from
an eigh of the 2k x 2k Gram Z^T Z.  The operator can be built in n-space from
Z itself, or from an image T Z of Z under a linear map T (the solver uses
T = X and T = Y) together with the Gram, so that T S^-1 T^T is applied
without ever forming an n-length array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSmoothing

# eigenvalues of the Gram Z^T Z below this fraction of the largest are treated
# as numerically zero.  The Gram squares the singular values of Z, and eigh
# resolves its eigenvalues only to about 1e-16 of the largest, so this keeps
# singular values above 1e-6 of the largest.
_RANK_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class HQDiagonal:
    """Diagonal of the half-quadratic weight matrix P (or Q)."""

    weights: np.ndarray
    zeta: float


@dataclass(frozen=True, eq=False)
class SInverseOperator:
    """Factored T S^-1 T^T for a linear map T, S^-1 = (M + zeta I)^(-1/2).

    With Phi the r kept left singular vectors of Z,
    S^-1 = complement_scale I + Phi diag(scaled_eigs - complement_scale) Phi^T,
    where complement_scale = zeta^(-1/2) scales everything orthogonal to
    span(Phi).  basis holds T Phi (n x r, n the row count of the space the
    operator acts on): Phi itself when T is the identity.
    """

    basis: np.ndarray
    scaled_eigs: np.ndarray
    complement_scale: float
    n: int


def l21_norm(m) -> float:
    """Sum of Euclidean row norms."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.linalg.norm(m, axis=1).sum())


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def gram_nuclear_norm(gram) -> float:
    """Nuclear norm of Z from its Gram Z^T Z: the sum of the square roots of
    the eigenvalues, with those the S-inverse treats as zero left out."""
    lam = np.linalg.eigvalsh(np.asarray(gram, dtype=np.float64))
    return float(np.sqrt(lam[_kept(lam)]).sum())


def _kept(lam: np.ndarray) -> np.ndarray:
    """Mask of the ascending Gram eigenvalues that are numerically nonzero."""
    if lam.size and lam[-1] > 0.0:
        return lam > _RANK_CUTOFF * lam[-1]
    return np.zeros(lam.shape, dtype=bool)


def hq_diagonal(m, zeta: float) -> HQDiagonal:
    """Half-quadratic weights for the rows of m.

    weights[i] = 1 / (2 sqrt(||row_i||^2 + zeta)); the smoothing keeps the
    weight finite for zero rows (bounded by 1 / (2 sqrt(zeta))).
    """
    if zeta <= 0:
        raise InvalidSmoothing(f"zeta must be positive, got {zeta}")
    m = np.asarray(m, dtype=np.float64)
    sq = (m * m).sum(axis=1)
    return HQDiagonal(weights=1.0 / (2.0 * np.sqrt(sq + zeta)), zeta=zeta)


def surrogate_penalty(m, hq: HQDiagonal) -> float:
    """Tr(m^T diag(weights) m), the weighted quadratic standing in for l21."""
    m = np.asarray(m, dtype=np.float64)
    if hq.weights.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"weights for {hq.weights.shape[0]} rows applied to {m.shape[0]} rows"
        )
    return float((hq.weights * (m * m).sum(axis=1)).sum())


def build_s_inverse(proj_x, proj_y, zeta: float, gram=None) -> SInverseOperator:
    """Factor the operator from the two projection blocks of Z.

    The eigh of the 2k x 2k Gram Z^T Z = W diag(lam) W^T yields the nonzero
    spectrum of M (the eigenvalues lam) and Phi = Z W lam^(-1/2).  Without
    `gram` the blocks are Z itself (n x k each, T the identity).  With
    `gram` = Z^T Z they may instead be the blocks of an image T Z, and the
    basis is T Phi.
    """
    if zeta <= 0:
        raise InvalidSmoothing(f"zeta must be positive, got {zeta}")
    proj_x = np.asarray(proj_x, dtype=np.float64)
    proj_y = np.asarray(proj_y, dtype=np.float64)
    if proj_x.shape[0] != proj_y.shape[0]:
        raise DimensionMismatch(
            f"projection row counts differ: {proj_x.shape[0]} vs {proj_y.shape[0]}"
        )
    concat = np.concatenate([proj_x, proj_y], axis=1)
    if gram is None:
        gram = concat.T @ concat
    elif np.shape(gram) != (concat.shape[1],) * 2:
        raise DimensionMismatch(
            f"Gram of shape {np.shape(gram)} for {concat.shape[1]} projection columns"
        )
    lam, w = np.linalg.eigh(gram)
    keep = _kept(lam)
    lam = lam[keep]
    return SInverseOperator(
        basis=concat @ (w[:, keep] / np.sqrt(lam)),
        scaled_eigs=1.0 / np.sqrt(lam + zeta),
        complement_scale=zeta ** -0.5,
        n=concat.shape[0],
    )


def apply_s_inverse(op: SInverseOperator, m, outer=None) -> np.ndarray:
    """T S^-1 T^T m for an n x c block m, in O(n c r).

    `outer` is T T^T m; it defaults to m, which is right when T is the
    identity.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.shape[0] != op.n:
        raise DimensionMismatch(
            f"operator acts on {op.n} rows, got {m.shape[0]}"
        )
    coeff = op.basis.T @ m
    return op.complement_scale * (m if outer is None else outer) + op.basis @ (
        (op.scaled_eigs - op.complement_scale)[:, None] * coeff
    )
