"""Momentum gradient solver with exact whitening, over second-moment statistics.

Every per-iteration quantity is a function of the second moments
Cxx = XX^T/n, Cyy = YY^T/n, Cxy = XY^T/n and of the current pair (U, V), so
a fit forms the statistics once (one O(n d^2) pass) and each iteration then
costs O(d^2 k), independent of n.  Each product of a statistic with a d x k
block is formed once and carried to every later use, so a full-batch
iteration makes 4 of them, plus one for each whitening pass that needs
refining (see _whiten), and one eigh of the 2k x 2k pair Gram.  One
iteration, given the current true pair, its pair moments (Cxx U, Cxy V,
Cyx U, Cyy V and the Gram of Z = [X^T U  Y^T V]) and the carried Cxx U~,
Cyy V~:

  1. factor the S-inverse operator from the eigh of the pair Gram, and build
     the half-quadratic diagonals P (from U) and Q (from V) (build_context)
  2. gradient step on the unnormalized U-tilde from the carried Cxx U~ and
     Cxy V; form Cxx U~ at the new U-tilde and whiten against Cxx, which
     also yields Cxx U; a second (refinement) pass on a freshly formed
     Cxx U1 runs only when the first pass's error bound is above 1e-10;
     form Cyx U
  3. gradient step on V-tilde from the carried Cyy V~ and Cyx U of the
     freshly whitened U; whiten the same way against Cyy; form Cxy V
  4. assemble the new pair moments from these products with k x k work
  5. the objective at the new pair, from its pair moments; its Gram eigh
     is the one the next iteration's context reuses

Steps 2 and 3 are one step taken on each view in turn, so one gradient,
grad_u, serves both views (grad_v is the same function with the views'
roles swapped), and the loop keeps its state (the iterates U~ and V~, their
momenta, the pair and the objective trace) as local arrays.

With hp.batch_size = m < n, fit_full draws a fresh subset of m samples each
iteration (views are stored sample-major, so the gather reads m contiguous
samples), forms the subset's statistics (with 1/m scaling) and the pair's
and iterates' products with them, and runs the same iteration on them, then
restores the exact full-batch whitening constraints once at the end.

fit_moments is the loop; it takes the statistics, so the kernel fit runs it
on statistics formed from its two n x n Gram matrices.  There a statistic is
an n x n ndarray or, for a Gram of numerical rank r <= n/4, a LowRank held
as n x r factors, whose product with an n x k block reads 2 n r values
instead of n^2 (see kernel.fit_kernel).  Besides the statistics, the loop
holds only d x k iterates and k x k work.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CanonicalPair,
    FitReport,
    Hyperparams,
    Penalty,
    Termination,
    TwoViewDataset,
    validate_dataset,
)
from .errors import AllZeroInput, DimensionMismatch, NonFiniteIterate
from .metrics import _residual
from .regularizers import (  # noqa: F401  nuclear_norm: see below
    SInverseOperator,
    apply_s_inverse,
    build_s_inverse,
    gram_nuclear_norm,
    hq_diagonal,
    l21_norm,
    nuclear_norm,
)

# nuclear_norm is not called here (the objective takes the nuclear norm from
# the Gram); it stays bound because tracing tools such as perfbench/spans.py
# wrap this module's regularizer bindings by name.

_CONVERGENCE_WINDOW = 5
_EPS = float(np.finfo(np.float64).eps)
# the whitening error bound below which _whiten skips its refinement pass
_REFINE_BOUND = 1e-10


class LowRank:
    """The d1 x d2 matrix left diag(weights) right^T, held as its factors
    (left: d1 x r, right: d2 x r).

    It supports what the iteration asks of a statistic: `@` with a block on
    either side, `.T`, `.shape` and `.trace()`.  A product with a d2 x k
    block reads (d1 + d2) r values instead of d1 d2.
    """

    # ndarray @ LowRank defers to __rmatmul__ instead of densifying
    __array_ufunc__ = None

    def __init__(self, left: np.ndarray, weights: np.ndarray, right: np.ndarray) -> None:
        self.left, self.weights, self.right = left, weights, right
        self._trace: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.right.shape[0]

    @property
    def T(self) -> "LowRank":
        return LowRank(self.right, self.weights, self.left)

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        return self.left @ (self.weights[:, None] * (self.right.T @ m))

    def __rmatmul__(self, m: np.ndarray) -> np.ndarray:
        return ((m @ self.left) * self.weights) @ self.right.T

    def trace(self) -> float:
        """The sum of the diagonal, formed on the first call."""
        if self._trace is None:
            self._trace = float(self.weights @ np.einsum("ij,ij->j", self.left, self.right))
        return self._trace

    def finite(self) -> bool:
        return all(np.isfinite(a).all() for a in (self.left, self.weights, self.right))


@dataclass(frozen=True, eq=False)
class SecondMoments:
    """Second-moment statistics of n paired samples: cxx = XX^T/n (d1 x d1),
    cyy = YY^T/n (d2 x d2), cxy = XY^T/n (d1 x d2).  Each is an ndarray or,
    in a kernel fit whose Gram has low numerical rank, a LowRank."""

    cxx: np.ndarray | LowRank
    cyy: np.ndarray | LowRank
    cxy: np.ndarray | LowRank
    n: int


@dataclass(frozen=True, eq=False)
class PairMoments:
    """A pair (U, V) seen through the second moments of n samples.

    cxx_u = Cxx U, cxy_v = Cxy V, cyx_u = Cyx U, cyy_v = Cyy V, and gram is
    Z^T Z / n for Z = [X^T U  Y^T V], i.e.
    [[U^T Cxx U, U^T Cxy V], [V^T Cyx U, V^T Cyy V]].  None of them has a
    dimension of length n.
    """

    pair: CanonicalPair
    cxx_u: np.ndarray
    cxy_v: np.ndarray
    cyx_u: np.ndarray
    cyy_v: np.ndarray
    gram: np.ndarray
    n: int

    @classmethod
    def of(cls, pair, cxx_u, cxy_v, cyx_u, cyy_v, n) -> "PairMoments":
        """Assemble the Gram from the four products (k x k work)."""
        u, v = pair.u, pair.v
        gram = np.block([[u.T @ cxx_u, u.T @ cxy_v], [v.T @ cyx_u, v.T @ cyy_v]])
        return cls(
            pair=pair, cxx_u=cxx_u, cxy_v=cxy_v, cyx_u=cyx_u, cyy_v=cyy_v,
            gram=0.5 * (gram + gram.T), n=n,
        )

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of the unscaled Gram Z^T Z, formed once and shared by the
        S-inverse operators and the nuclear norm."""
        return np.linalg.eigh(self.n * self.gram)


@dataclass(frozen=True, eq=False)
class IterationContext:
    """Per-iteration quantities frozen from the current true pair.

    s_inv_x and s_inv_y apply X S^-1 X^T and Y S^-1 Y^T; they are None when
    lambda2 = 0.  p and q are the row weights of U and V, the diagonals of the
    half-quadratic P and Q (all ones in Frobenius penalty mode).
    """

    s_inv_x: SInverseOperator | None
    s_inv_y: SInverseOperator | None
    p: np.ndarray
    q: np.ndarray


def second_moments(x: np.ndarray, y: np.ndarray) -> SecondMoments:
    """Statistics of two views, each logically features x samples (d x n)."""
    n = x.shape[1]
    # in-place scaling: no second d x d temporary, which matters for the
    # n x n "views" of a kernel fit
    cxx = x @ x.T
    cxx /= n
    cyy = y @ y.T
    cyy /= n
    cxy = x @ y.T
    cxy /= n
    return SecondMoments(cxx=cxx, cyy=cyy, cxy=cxy, n=n)


def pair_moments(stats: SecondMoments, pair: CanonicalPair) -> PairMoments:
    """Cxx U, Cxy V, Cyx U, Cyy V and the scaled Gram of [X^T U  Y^T V]."""
    u, v = pair.u, pair.v
    if u.shape[0] != stats.cxx.shape[0] or v.shape[0] != stats.cyy.shape[0]:
        raise DimensionMismatch(
            f"pair shapes {u.shape}/{v.shape} do not fit views "
            f"d1={stats.cxx.shape[0]}, d2={stats.cyy.shape[0]}"
        )
    return PairMoments.of(
        pair, stats.cxx @ u, stats.cxy @ v, stats.cxy.T @ u, stats.cyy @ v, stats.n
    )


def build_context(pm: PairMoments, hp: Hyperparams) -> IterationContext:
    """Freeze S^-1, P and Q at the pair of `pm` for one iteration.

    With Z = [X^T U  Y^T V], the S-inverse is factored from the eigh of the
    Gram Z^T Z (pm.spectrum) and built on the images X Z = n [Cxx U, Cxy V]
    and Y Z = n [Cyx U, Cyy V], so its bases are X Phi and Y Phi.
    """
    pair = pm.pair
    s_inv_x = s_inv_y = None
    if hp.lambda2 != 0.0:
        spec = pm.spectrum
        s_inv_x = build_s_inverse(pm.n * pm.cxx_u, pm.n * pm.cxy_v, hp.zeta, spec)
        s_inv_y = build_s_inverse(pm.n * pm.cyx_u, pm.n * pm.cyy_v, hp.zeta, spec)
    if hp.penalty is Penalty.L21:
        p = hq_diagonal(pair.u, hp.zeta)
        q = hq_diagonal(pair.v, hp.zeta)
    else:
        p, q = np.ones(pair.u.shape[0]), np.ones(pair.v.shape[0])
    return IterationContext(s_inv_x=s_inv_x, s_inv_y=s_inv_y, p=p, q=q)


def objective(pm: PairMoments, hp: Hyperparams) -> float:
    """Full objective at the pair of `pm`, with the true (non-surrogate) norms:

    (1/2n) ||X^T U - Y^T V||_F^2 + lambda1 (||U||_21 + ||V||_21)
                                 + lambda2 ||[X^T U  Y^T V]||_*

    The fit term is (1/2)(tr U^T Cxx U + tr V^T Cyy V - 2 tr U^T Cxy V) and
    the nuclear norm comes from the eigenvalues of the Gram of [X^T U  Y^T V]
    (pm.spectrum, shared with the next iteration's context).  In Frobenius
    penalty mode the lambda1 term is ||U||_F^2 + ||V||_F^2.
    """
    u, v = pm.pair.u, pm.pair.v
    k = u.shape[1]
    g = pm.gram
    val = 0.5 * float(np.trace(g[:k, :k]) + np.trace(g[k:, k:]) - 2.0 * np.trace(g[:k, k:]))
    if hp.lambda1 != 0.0:
        if hp.penalty is Penalty.L21:
            val += hp.lambda1 * (l21_norm(u) + l21_norm(v))
        else:
            val += hp.lambda1 * float((u * u).sum() + (v * v).sum())
    if hp.lambda2 != 0.0:
        val += hp.lambda2 * gram_nuclear_norm(pm.spectrum[0])
    return val


def grad_u(
    m_tilde: np.ndarray, cov_mt: np.ndarray, cross: np.ndarray, weights: np.ndarray,
    s_inv: SInverseOperator | None, n: int, hp: Hyperparams,
) -> np.ndarray:
    """The gradient of one view's surrogate at its unnormalized iterate; for U

      Cxx U~ - Cxy V + lambda1 diag(weights) U~ + lambda2 X S^-1 X^T U~,

    given cov_mt = Cxx U~, cross = Cxy V and s_inv for X S^-1 X^T, applied as
    zeta^(-1/2) n Cxx U~ + X Phi D (X Phi)^T U~.  For V the views swap roles.
    """
    g = cov_mt - cross
    if hp.lambda1 != 0.0:
        g = g + hp.lambda1 * weights[:, None] * m_tilde
    if hp.lambda2 != 0.0:
        g = g + hp.lambda2 * apply_s_inverse(s_inv, m_tilde, n * cov_mt)
    return g


# the loop takes V's step through this name, so tools can wrap each view apart
grad_v = grad_u


def momentum_step(
    m_tilde: np.ndarray,
    delta: np.ndarray,
    grad: np.ndarray,
    hp: Hyperparams,
) -> tuple[np.ndarray, np.ndarray]:
    """delta' = gamma delta - eta grad; m_tilde' = m_tilde + delta'."""
    delta_new = hp.gamma * delta - hp.eta * grad
    return m_tilde + delta_new, delta_new


def inverse_sqrt(sym: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, lam): F = Q (Lam + shift I)^(-1/2) Q^T from the eigh Q Lam Q^T of
    the symmetrized sym, with the eigenvalues lam clipped at 0 (ascending).

    shift = 0 with a zero eigenvalue gives an infinite F without a warning;
    each caller checks lam for the case it cannot use.
    """
    eigvals, eigvecs = np.linalg.eigh(0.5 * (sym + sym.T))
    eigvals = np.maximum(eigvals, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(eigvals + shift)
        return (eigvecs * scale) @ eigvecs.T, eigvals


def whitening_factor(
    m_tilde: np.ndarray, cov_m: np.ndarray, zeta: float
) -> tuple[np.ndarray, float]:
    """The k x k factor R with (m_tilde R)^T cov (m_tilde R) = I, given
    cov_m = cov m_tilde, and the smallest eigenvalue of the Gram it whitens.

    R is the inverse square root of the k x k Gram m_tilde^T cov m_tilde
    shifted by zeta.  zeta = 0 is allowed when the Gram is safely
    nonsingular.  cov (m_tilde R) is cov_m R.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m_tilde.T @ cov_m
    if not np.isfinite(gram).all():
        raise NonFiniteIterate(
            "projected Gram overflowed double precision; reduce eta or rescale inputs"
        )
    factor, eigvals = inverse_sqrt(gram, zeta)
    if eigvals[-1] <= 0.0:
        raise AllZeroInput("projected Gram is numerically zero; cannot whiten")
    return factor, float(eigvals[0])


def normalize(m_tilde: np.ndarray, cov: np.ndarray, zeta: float) -> np.ndarray:
    """Whiten m_tilde so the result W satisfies W^T cov W = I."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov_m = cov @ m_tilde
    return m_tilde @ whitening_factor(m_tilde, cov_m, zeta)[0]


def _whiten(
    m_tilde: np.ndarray, cov: np.ndarray, zeta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, cov m_tilde, cov W) for the whitened W, from one product with cov,
    or two when the first pass may be short of rounding level.

    The first pass whitens against G = m_tilde^T cov m_tilde.  Its relative
    error in the constraint is bounded by

      beta = (d eps tr(cov) ||m_tilde||_F^2 + zeta) / (lambda_min(G) + zeta)

    (d = cov.shape[0], eps = machine epsilon): the first term bounds the
    rounding error of the computed G (for PSD cov, |cov_ij| <=
    sqrt(cov_ii cov_jj), so || |cov| || <= tr cov; a LowRank cov keeps
    d = n, although its product sums over r < n terms), the second the smoothing
    bias zeta / (lambda + zeta) the pass leaves behind.  When beta <= 1e-10,
    two orders below the 1e-8 per-dimension residual budget, W1 is returned
    with cov W1 = (cov m_tilde) R1, k x k work.  Otherwise (ill-conditioned
    early iterations) W1 is re-whitened against a freshly formed cov W1,
    which brings the residual to rounding level.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov_mt = cov @ m_tilde
        r1, lam_min = whitening_factor(m_tilde, cov_mt, zeta)
        w1 = m_tilde @ r1
        rounding = cov.shape[0] * _EPS * cov.trace() * float((m_tilde * m_tilde).sum())
        if rounding + zeta <= _REFINE_BOUND * (lam_min + zeta):
            return w1, cov_mt, cov_mt @ r1
        cov_w1 = cov @ w1
    r = whitening_factor(w1, cov_w1, zeta)[0]
    return w1 @ r, cov_mt, cov_w1 @ r


def project(pair: CanonicalPair, ds: TwoViewDataset) -> tuple[np.ndarray, np.ndarray]:
    """Canonical projections (X^T U, Y^T V); views centered with training means.
    An overflow leaves inf or NaN in them, without a warning, for metrics.pcc
    to refuse."""
    if pair.u.shape[0] != ds.x.d or pair.v.shape[0] != ds.y.d:
        raise DimensionMismatch(
            f"pair shapes {pair.u.shape}/{pair.v.shape} do not fit views "
            f"d1={ds.x.d}, d2={ds.y.d}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return ds.x.data.T @ pair.u, ds.y.data.T @ pair.v


# ------------------------------------------------------------------ fitting

def fit_full(ds: TwoViewDataset, hp: Hyperparams, on_iteration=None) -> FitReport:
    """Fit the pair on `ds`; with hp.batch_size < n each iteration runs on
    the statistics of a fresh minibatch of that size, and batch_size = n is
    the full-batch fit.  `on_iteration(i, pair)`, when given, is called after
    every iteration with the freshly whitened pair."""
    validate_dataset(ds, hp)
    start = time.perf_counter()
    x, y = ds.x.data, ds.y.data
    with np.errstate(over="ignore", invalid="ignore"):
        full = second_moments(x, y)
    batches = None
    if hp.batch_size is not None and hp.batch_size < ds.n:
        def batches(rng):
            idx = np.sort(rng.choice(ds.n, size=hp.batch_size, replace=False))
            return second_moments(x[:, idx], y[:, idx])
    return fit_moments(full, hp, on_iteration, batches=batches, start=start)


# a minibatch fit is fit_full with hp.batch_size set; this second name stays
# for callers and tools that name it, as grad_v does for grad_u
fit_stochastic = fit_full


def fit_moments(
    full: SecondMoments, hp: Hyperparams, on_iteration=None, batches=None, start=None
) -> FitReport:
    """The momentum iteration on the statistics `full` of a validated fit.

    `batches(rng)`, when given, returns each iteration's minibatch
    statistics, drawn with the fit's generator; the pair is then re-whitened
    against `full` at the end.  `start` is the perf_counter reading the
    report's wall time counts from (default: now).
    """
    start = time.perf_counter() if start is None else start
    if not all(
        c.finite() if isinstance(c, LowRank) else np.isfinite(c).all()
        for c in (full.cxx, full.cyy, full.cxy)
    ):
        raise NonFiniteIterate(
            "view covariance overflowed double precision; rescale the inputs"
        )
    d1, d2, k = full.cxx.shape[0], full.cyy.shape[0], hp.k
    rng = np.random.default_rng(hp.seed)
    # whitening smoothing: far below zeta so the constraint residual stays
    # orders of magnitude under the 1e-8 * k budget
    zw = hp.zeta * 1e-6

    u0 = rng.standard_normal((d1, k))
    v0 = rng.standard_normal((d2, k))
    pair = CanonicalPair(u=_whiten(u0, full.cxx, zw)[0], v=_whiten(v0, full.cyy, zw)[0])
    # the unnormalized iterates U~, V~ and their momenta
    ut, vt = np.zeros((d1, k)), np.zeros((d2, k))
    du, dv = np.zeros((d1, k)), np.zeros((d2, k))
    trace: list[float] = []
    termination = Termination.MAX_ITERS
    stats = full
    pm, cxx_ut, cyy_vt = _moments_of_state(stats, pair, ut, vt)

    for it in range(1, hp.max_iters + 1):
        if batches is not None:
            stats = batches(rng)
            pm, cxx_ut, cyy_vt = _moments_of_state(stats, pair, ut, vt)

        ctx = build_context(pm, hp)

        gu = grad_u(ut, cxx_ut, pm.cxy_v, ctx.p, ctx.s_inv_x, stats.n, hp)
        ut, du = momentum_step(ut, du, gu, hp)
        if not np.isfinite(ut).all():
            raise NonFiniteIterate("U update produced non-finite values; reduce eta")
        u, cxx_ut, cxx_u = _whiten(ut, stats.cxx, zw)
        cyx_u = stats.cxy.T @ u

        # V's step sees the freshly whitened U through Cyx U
        gv = grad_v(vt, cyy_vt, cyx_u, ctx.q, ctx.s_inv_y, stats.n, hp)
        vt, dv = momentum_step(vt, dv, gv, hp)
        if not np.isfinite(vt).all():
            raise NonFiniteIterate("V update produced non-finite values; reduce eta")
        v, cyy_vt, cyy_v = _whiten(vt, stats.cyy, zw)
        cxy_v = stats.cxy @ v
        pair = CanonicalPair(u=u, v=v)

        # the next iteration's context starts from these moments (full batch)
        pm = PairMoments.of(pair, cxx_u, cxy_v, cyx_u, cyy_v, stats.n)
        obj = objective(pm, hp)
        if not np.isfinite(obj):
            raise NonFiniteIterate("objective became non-finite; reduce eta")
        trace.append(obj)
        if obj > 10.0 * trace[0] and obj > 1e-12:
            raise NonFiniteIterate(
                f"objective grew from {trace[0]:.3e} to {obj:.3e}; reduce eta"
            )
        if on_iteration is not None:
            on_iteration(it, pair)
        if _converged(trace, hp.tol):
            termination = Termination.CONVERGED
            break

    if batches is not None:
        # the loop whitened against minibatch covariances; restore the exact
        # full-batch constraints
        pair = CanonicalPair(u=_whiten(ut, full.cxx, zw)[0], v=_whiten(vt, full.cyy, zw)[0])

    return FitReport(
        pair=pair,
        iterations_run=it,
        objective_trace=tuple(trace),
        final_constraint_residual_u=_residual(pair.u, full.cxx),
        final_constraint_residual_v=_residual(pair.v, full.cyy),
        termination=termination,
        wall_seconds=time.perf_counter() - start,
    )


def _moments_of_state(
    stats: SecondMoments, pair: CanonicalPair, ut: np.ndarray, vt: np.ndarray
) -> tuple[PairMoments, np.ndarray, np.ndarray]:
    """The pair moments and the iterates' products Cxx U~, Cyy V~ that an
    iteration starts from, formed afresh on `stats`."""
    return pair_moments(stats, pair), stats.cxx @ ut, stats.cyy @ vt


def _converged(trace: list[float], tol: float) -> bool:
    if len(trace) < _CONVERGENCE_WINDOW + 1:
        return False
    recent = trace[-(_CONVERGENCE_WINDOW + 1):]
    rel = [
        abs(b - a) / max(abs(a), 1e-30)
        for a, b in zip(recent[:-1], recent[1:])
    ]
    return sum(rel) / _CONVERGENCE_WINDOW < tol
