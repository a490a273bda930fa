"""Row-sparsity and low-rank penalties.

l21 norm, its half-quadratic surrogate, the nuclear norm, and the factored
S-inverse operator representing (M + zeta I)^(-1/2) for M = Z Z^T,
Z = [proj_x proj_y], on span(Z).  That is all the solver passes through it:
after every whitening U = U~ R, X^T U~ = X^T U R^-1 lies in span(Z), where a
zeta^(-1/2) term for the orthogonal complement would cancel exactly and add
only rounding error.  M has rank at most 2k, so the operator is factored
from an eigh of the 2k x 2k Gram Z^T Z into one 2k x 2k core.  It is applied
to an image T Z of Z under a linear map T (the solver uses T = X and T = Y,
the images coming from the pair moments), so that T S^-1 T^T is applied
without ever forming an n-length array; one eigh and one core serve both
images, and the eigh the nuclear norm too.  The n-space operator is the case
T = I, whose image is Z itself.

zeta reaches these functions only as Hyperparams.zeta, which is checked
finite and positive there, so it is not checked again here.

The half-quadratic surrogate puts Tr(M^T diag(w) M) in place of ||M||_21, with
the weight vector w_i = 1 / (2 sqrt(||row_i||^2 + zeta)) frozen at the
current iterate (hq_diagonal): a plain array, one weight per row of M.  Both
it and l21_norm read M only through its squared row norms, which a caller
that already holds them passes instead of forming them again.
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
    """Factored T S^-1 T^T on span(Z) for any linear map T,
    S^-1 = (M + zeta I)^(-1/2).

    With Phi the r kept left singular vectors of Z, Phi = Z basis for the
    2k x r basis = W lam^(-1/2) (W, lam the kept eigenpairs of Z^T Z), S^-1
    is Phi diag(scaled_eigs) Phi^T on span(Phi).  So T S^-1 T^T is
    (T Z) core (T Z)^T there, with the 2k x 2k core
    basis diag(scaled_eigs) basis^T, and one operator serves every T.
    The loop builds one per iteration, so it is slotted rather than frozen
    (cheaper to build); treat it as read-only.
    """

    basis: np.ndarray
    scaled_eigs: np.ndarray
    core: np.ndarray


def l21_norm(m: np.ndarray, row_sq: np.ndarray | None = None) -> float:
    """Sum of Euclidean row norms of a float array (the same bits as summing
    np.linalg.norm(m, axis=1), without its dispatch).  row_sq, when given,
    is m's squared row norms (m * m).sum(axis=1), and m is not read."""
    if row_sq is None:
        row_sq = (m * m).sum(axis=1)
    return float(np.sqrt(row_sq).sum())


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


def hq_diagonal(m: np.ndarray, zeta: float, row_sq: np.ndarray | None = None) -> np.ndarray:
    """Half-quadratic weights for the rows of a float array m, one per row.

    weights[i] = 1 / (2 sqrt(||row_i||^2 + zeta)); the smoothing keeps the
    weight finite for zero rows (bounded by 1 / (2 sqrt(zeta))).  row_sq,
    when given, is m's squared row norms, and m is not read.
    """
    if row_sq is None:
        row_sq = (m * m).sum(axis=1)
    return 1.0 / (2.0 * np.sqrt(row_sq + zeta))


def build_s_inverse(zeta: float, spectrum) -> SInverseOperator:
    """Factor the operator from `spectrum` = (lam, W), the eigh of the
    2k x 2k Gram Z^T Z: the nonzero spectrum of M is lam, and
    Phi = Z W lam^(-1/2)."""
    lam, w = spectrum
    keep = _kept(lam)
    lam = lam[keep]
    basis = w[:, keep] / np.sqrt(lam)
    scaled = 1.0 / np.sqrt(lam + zeta)
    return SInverseOperator(basis=basis, scaled_eigs=scaled, core=(basis * scaled) @ basis.T)


def apply_s_inverse(op: SInverseOperator, image, m) -> np.ndarray:
    """T S^-1 T^T m for a block m of the image space with T^T m in span(Z),
    in O(n c k) for n x c.  `image` is T Z (Z itself when T is the
    identity)."""
    return image @ (op.core @ (image.T @ m))
