"""Row-sparsity and low-rank penalties.

l21 norm, its half-quadratic surrogate, the nuclear norm, and the factored
S-inverse operator representing (M + zeta I)^(-1/2) for M = Z Z^T,
Z = [proj_x proj_y].  M has rank at most 2k, so the operator is factored from
an eigh of the 2k x 2k Gram Z^T Z.  It has one mode: it is built from an
image T Z of Z under a linear map T (the solver uses T = X and T = Y, the
images coming from the pair moments) together with the Gram's eigh, so that
T S^-1 T^T is applied without ever forming an n-length array; one eigh serves
both images and the nuclear norm.  The n-space operator is the case T = I.

zeta reaches these functions only as Hyperparams.zeta, which is checked
finite and positive there, so it is not checked again here.

The half-quadratic surrogate puts Tr(M^T diag(w) M) in place of ||M||_21, with
the weight vector w_i = 1 / (2 sqrt(||row_i||^2 + zeta)) frozen at the
current iterate (hq_diagonal): a plain array, one weight per row of M.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# eigenvalues of the Gram Z^T Z below this fraction of the largest are treated
# as numerically zero.  The Gram squares the singular values of Z, and eigh
# resolves its eigenvalues only to about 1e-16 of the largest, so this keeps
# singular values above 1e-6 of the largest.
_RANK_CUTOFF = 1e-12


@dataclass(eq=False, slots=True)
class SInverseOperator:
    """Factored T S^-1 T^T for a linear map T, S^-1 = (M + zeta I)^(-1/2).

    With Phi the r kept left singular vectors of Z,
    S^-1 = complement_scale I + Phi diag(scaled_eigs - complement_scale) Phi^T,
    where complement_scale = zeta^(-1/2) scales everything orthogonal to
    span(Phi).  basis holds T Phi (n x r, n the row count of the space the
    operator acts on): Phi itself when T is the identity.  The loop builds
    two per iteration, so it is slotted rather than frozen (cheaper to
    build); treat it as read-only.
    """

    basis: np.ndarray
    scaled_eigs: np.ndarray
    complement_scale: float


def l21_norm(m: np.ndarray) -> float:
    """Sum of Euclidean row norms of a float array (the same bits as summing
    np.linalg.norm(m, axis=1), without its dispatch)."""
    return float(np.sqrt((m * m).sum(axis=1)).sum())


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def gram_nuclear_norm(lam: np.ndarray) -> float:
    """Nuclear norm of Z from the ascending eigenvalues lam of its Gram
    Z^T Z: the sum of their square roots, with those the S-inverse treats as
    zero left out."""
    return float(np.sqrt(lam[_kept(lam)]).sum())


def _kept(lam: np.ndarray) -> np.ndarray:
    """Mask of the ascending Gram eigenvalues that are numerically nonzero."""
    if lam.size and lam[-1] > 0.0:
        return lam > _RANK_CUTOFF * lam[-1]
    return np.zeros(lam.shape, dtype=bool)


def hq_diagonal(m: np.ndarray, zeta: float) -> np.ndarray:
    """Half-quadratic weights for the rows of a float array m, one per row.

    weights[i] = 1 / (2 sqrt(||row_i||^2 + zeta)); the smoothing keeps the
    weight finite for zero rows (bounded by 1 / (2 sqrt(zeta))).
    """
    sq = (m * m).sum(axis=1)
    return 1.0 / (2.0 * np.sqrt(sq + zeta))


def build_s_inverse(proj_x, proj_y, zeta: float, spectrum) -> SInverseOperator:
    """Factor the operator from the two blocks of an image T Z = [proj_x proj_y].

    `spectrum` = (lam, W) is the eigh of the 2k x 2k Gram Z^T Z; it yields
    the nonzero spectrum of M (the eigenvalues lam) and
    Phi = Z W lam^(-1/2), so the basis is T Phi.
    """
    concat = np.concatenate([proj_x, proj_y], axis=1)
    lam, w = spectrum
    keep = _kept(lam)
    lam = lam[keep]
    return SInverseOperator(
        basis=concat @ (w[:, keep] / np.sqrt(lam)),
        scaled_eigs=1.0 / np.sqrt(lam + zeta),
        complement_scale=zeta ** -0.5,
    )


def apply_s_inverse(op: SInverseOperator, m, outer) -> np.ndarray:
    """T S^-1 T^T m for a block m of the image space, in O(n c r) for n x c.

    `outer` is T T^T m (m itself when T is the identity).
    """
    coeff = op.basis.T @ m
    return op.complement_scale * outer + op.basis @ (
        (op.scaled_eigs - op.complement_scale)[:, None] * coeff
    )
