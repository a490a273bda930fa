"""Momentum gradient solver with exact whitening, over second-moment statistics.

Every per-iteration quantity is a function of the second moments
Cxx = XX^T/n, Cyy = YY^T/n, Cxy = XY^T/n and of the current pair (U, V), so
the statistics are formed once (one O(n d^2) pass) and each iteration then
costs O(d^2 k), independent of n.  A dataset's statistics are formed at most
once: dataset_moments forms them with second_moments on first use, checks
them finite, and keeps them on the dataset (its views are read-only), so
fit_full, baselines.cca_closed_form and metrics.constraint_residual on one
dataset share one O(n d^2) pass.  Each product of a statistic with a d x k
block is formed once and carried to every later use, so a full-batch
iteration makes 4 of them, plus one for each whitening pass that needs
refining (see _whiten), and one eigh of the 2k x 2k pair Gram.  One
iteration, given the current true pair, its pair moments (Cxx U, Cxy V,
Cyx U, Cyy V and the Gram of Z = [X^T U  Y^T V]) and the carried Cxx U~,
Cyy V~:

  1. build the one 2k x 2k S-inverse core both views share from the eigh of
     the pair Gram, and the half-quadratic diagonals P (from U) and Q (from
     V) from the pair's squared row norms, which the previous objective
     formed (build_context); the core acts on span(Z) only (see grad_u)
  2. gradient step on the unnormalized U-tilde from the carried Cxx U~ and
     Cxy V; form Cxx U~ at the new U-tilde and whiten against Cxx, which
     also yields Cxx U; a second (refinement) pass on a freshly formed
     Cxx U1 runs only when the first pass's error bound is above 1e-10;
     form Cyx U
  3. gradient step on V-tilde from the carried Cyy V~ and Cyx U of the
     freshly whitened U; whiten the same way against Cyy; form Cxy V
  4. assemble the new pair moments from these products with k x k work
  5. the objective at the new pair, from its pair moments; its Gram eigh
     and its squared row norms are the ones the next iteration's context
     reuses

Steps 2 and 3 are one step taken on each view in turn, so one gradient,
grad_u, serves both views (grad_v is the same function with the views'
roles swapped), and the loop keeps its state (the iterates U~ and V~, their
momenta, the pair and the objective trace) as local arrays.

At small d an iteration is bound by Python-level calls, not arithmetic, so
the loop spends none it does not need while every phase stays a module-level
function it calls by name (tracing tools wrap those names): one np.errstate
around the whole loop instead of one per whitening, the pair Gram written
into one preallocated 2k x 2k array, slotted per-iteration records, and
no asarray, np.trace or np.linalg.norm dispatch on arrays known to be
float.  None of this changes a floating-point operation or its order, so
trajectories are bitwise those of the plain formulation.

With hp.batch_size = m < n, fit_full draws a fresh subset of m samples each
iteration (views are stored sample-major, so the gather reads m contiguous
samples), forms the subset's statistics (with 1/m scaling) and the pair's
and iterates' products with them, and runs the same iteration on them, then
restores the exact full-batch whitening constraints once at the end.

fit_moments is the loop; it takes the statistics, so the kernel fit runs it
on statistics formed from its two n x n Gram matrices.  There a statistic is
a LowRank, the plain product left right^T of two n x r factors (one array F
for a symmetric F F^T), when it has a factor of rank r < n/2 at its own
rounding level, and an n x n ndarray otherwise (see kernel.fit_kernel).  A
product with a LowRank and an n x k block reads the (d1 + d2) r = 2 n r
values of its factors, with no middle term, instead of n^2.  Besides the
statistics, the loop holds only d x k iterates and k x k work.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
    """The d1 x d2 matrix left right^T, held as its factors (left: d1 x r,
    right: d2 x r); a symmetric PSD statistic F F^T holds one array F as
    both.

    It supports what the iteration asks of a statistic: `@` with a block on
    its right, `.T`, `.shape` and `.trace()`.  A product with a d2 x k
    block reads (d1 + d2) r values instead of d1 d2, in two matmuls.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray) -> None:
        self.left, self.right = left, right
        self._trace: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.right.shape[0]

    @property
    def T(self) -> "LowRank":
        return LowRank(self.right, self.left)

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        return self.left @ (self.right.T @ m)

    def trace(self) -> float:
        """The sum of the diagonal, formed on the first call."""
        if self._trace is None:
            self._trace = float(np.einsum("ij,ij->", self.left, self.right))
        return self._trace

    def finite(self) -> bool:
        return bool(np.isfinite(self.left).all() and np.isfinite(self.right).all())


@dataclass(frozen=True, eq=False)
class SecondMoments:
    """Second-moment statistics of n paired samples: cxx = XX^T/n (d1 x d1),
    cyy = YY^T/n (d2 x d2), cxy = XY^T/n (d1 x d2).  Each is an ndarray or,
    in a kernel fit whose Gram has low numerical rank, a LowRank."""

    cxx: np.ndarray | LowRank
    cyy: np.ndarray | LowRank
    cxy: np.ndarray | LowRank
    n: int

    def require_finite(self) -> "SecondMoments":
        """self, or NonFiniteIterate when a statistic overflowed."""
        if not all(
            c.finite() if isinstance(c, LowRank) else np.isfinite(c).all()
            for c in (self.cxx, self.cyy, self.cxy)
        ):
            raise NonFiniteIterate(
                "view covariance overflowed double precision; rescale the inputs"
            )
        return self


@dataclass(eq=False, slots=True)
class PairMoments:
    """A pair (U, V) seen through the second moments of n samples.

    cxx_u = Cxx U, cxy_v = Cxy V, cyx_u = Cyx U, cyy_v = Cyy V, and gram is
    Z^T Z / n for Z = [X^T U  Y^T V], i.e.
    [[U^T Cxx U, U^T Cxy V], [V^T Cyx U, V^T Cyy V]].  None of them has a
    dimension of length n.  The loop builds one per iteration, so it is
    slotted rather than frozen (cheaper to build); treat it as read-only.
    """

    pair: CanonicalPair
    cxx_u: np.ndarray
    cxy_v: np.ndarray
    cyx_u: np.ndarray
    cyy_v: np.ndarray
    gram: np.ndarray
    n: int
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )
    _row_sq: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    @classmethod
    def of(cls, pair, cxx_u, cxy_v, cyx_u, cyy_v, n) -> "PairMoments":
        """Assemble the Gram from the four products (k x k work), each
        written into its block of one 2k x 2k array, then symmetrized."""
        u, v = pair.u, pair.v
        k = u.shape[1]
        gram = np.empty((2 * k, 2 * k))
        np.matmul(u.T, cxx_u, out=gram[:k, :k])
        np.matmul(u.T, cxy_v, out=gram[:k, k:])
        np.matmul(v.T, cyx_u, out=gram[k:, :k])
        np.matmul(v.T, cyy_v, out=gram[k:, k:])
        gram += gram.T
        gram *= 0.5
        return cls(pair, cxx_u, cxy_v, cyx_u, cyy_v, gram, n)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of the unscaled Gram Z^T Z, formed on first use and shared
        by the S-inverse operators and the nuclear norm."""
        if self._spectrum is None:
            self._spectrum = np.linalg.eigh(self.n * self.gram)
        return self._spectrum

    @property
    def row_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """The squared row norms (U * U).sum(axis=1) and (V * V).sum(axis=1),
        formed on first use and shared by the objective's l21 norm and the
        next context's half-quadratic weights."""
        if self._row_sq is None:
            u, v = self.pair.u, self.pair.v
            self._row_sq = (u * u).sum(axis=1), (v * v).sum(axis=1)
        return self._row_sq


@dataclass(eq=False, slots=True)
class IterationContext:
    """Per-iteration quantities fixed at the current true pair (a slotted
    record, read-only by convention, as PairMoments is).

    s_inv is the S-inverse both views share, and image_x = X Z and
    image_y = Y Z are the images it is applied to, for Z = [X^T U  Y^T V], so
    that it applies X S^-1 X^T and Y S^-1 Y^T on span(Z); all three are None
    when lambda2 = 0.  p and q are the row weights of U and V, the diagonals
    of the half-quadratic P and Q (all ones in Frobenius penalty mode); both
    are None when lambda1 = 0, since only the lambda1 term reads them.
    """

    s_inv: SInverseOperator | None
    image_x: np.ndarray | None
    image_y: np.ndarray | None
    p: np.ndarray | None
    q: np.ndarray | None


def second_moments(x: np.ndarray, y: np.ndarray) -> SecondMoments:
    """Statistics of two views, each logically features x samples (d x n)."""
    n = x.shape[1]
    # in-place scaling: no second d x d temporary
    cxx = x @ x.T
    cxx /= n
    cyy = y @ y.T
    cyy /= n
    cxy = x @ y.T
    cxy /= n
    return SecondMoments(cxx=cxx, cyy=cyy, cxy=cxy, n=n)


def dataset_moments(ds: TwoViewDataset) -> SecondMoments:
    """The statistics of ds's views: formed by second_moments (looked up at
    call time, so a wrapper installed on it sees the call) on first use,
    checked finite, and kept on ds, read-only as its views are.  Minibatch
    statistics and kernel statistics are not kept.  Raises NonFiniteIterate,
    with no warning, when a statistic overflows."""
    stats = ds._moments
    if stats is None:
        with np.errstate(over="ignore", invalid="ignore"):
            stats = second_moments(ds.x.data, ds.y.data).require_finite()
        # shared by every later caller, so read-only like the views
        for c in (stats.cxx, stats.cyy, stats.cxy):
            c.flags.writeable = False
        # ds is frozen; this is its one field set after construction
        object.__setattr__(ds, "_moments", stats)
    return stats


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
    Gram Z^T Z (pm.spectrum) into one 2k x 2k core, applied to the images
    X Z = n [Cxx U, Cxy V] and Y Z = n [Cyx U, Cyy V].  The row weights come
    from pm.row_sq, which the objective at the same pair has already formed;
    none are formed when lambda1 = 0.
    """
    s_inv = image_x = image_y = None
    if hp.lambda2 != 0.0:
        s_inv = build_s_inverse(hp.zeta, pm.spectrum)
        image_x = np.concatenate((pm.cxx_u, pm.cxy_v), axis=1)
        image_x *= pm.n
        image_y = np.concatenate((pm.cyx_u, pm.cyy_v), axis=1)
        image_y *= pm.n
    u, v = pm.pair.u, pm.pair.v
    if hp.lambda1 == 0.0:
        p = q = None
    elif hp.penalty is Penalty.L21:
        su, sv = pm.row_sq
        p = hq_diagonal(u, hp.zeta, su)
        q = hq_diagonal(v, hp.zeta, sv)
    else:
        p, q = np.ones(u.shape[0]), np.ones(v.shape[0])
    return IterationContext(s_inv=s_inv, image_x=image_x, image_y=image_y, p=p, q=q)


def objective(pm: PairMoments, hp: Hyperparams) -> float:
    """Full objective at the pair of `pm`, with the true (non-surrogate) norms:

    (1/2n) ||X^T U - Y^T V||_F^2 + lambda1 (||U||_21 + ||V||_21)
                                 + lambda2 ||[X^T U  Y^T V]||_*

    The fit term is (1/2)(tr U^T Cxx U + tr V^T Cyy V - 2 tr U^T Cxy V) and
    the nuclear norm comes from the eigenvalues of the Gram of [X^T U  Y^T V]
    (pm.spectrum, shared with the next iteration's context, as the l21
    norms' pm.row_sq is).  In Frobenius penalty mode the lambda1 term is
    ||U||_F^2 + ||V||_F^2.
    """
    u, v = pm.pair.u, pm.pair.v
    k = u.shape[1]
    g = pm.gram
    val = 0.5 * float(g[:k, :k].trace() + g[k:, k:].trace() - 2.0 * g[:k, k:].trace())
    if hp.lambda1 != 0.0:
        if hp.penalty is Penalty.L21:
            su, sv = pm.row_sq
            val += hp.lambda1 * (l21_norm(u, su) + l21_norm(v, sv))
        else:
            val += hp.lambda1 * float((u * u).sum() + (v * v).sum())
    if hp.lambda2 != 0.0:
        val += hp.lambda2 * gram_nuclear_norm(pm.spectrum[0])
    return val


def grad_u(
    m_tilde: np.ndarray, cov_mt: np.ndarray, cross: np.ndarray,
    weights: np.ndarray | None, s_inv: SInverseOperator | None,
    image: np.ndarray | None, hp: Hyperparams,
) -> np.ndarray:
    """The gradient of one view's surrogate at its unnormalized iterate; for U

      Cxx U~ - Cxy V + lambda1 diag(weights) U~ + lambda2 X S^-1 X^T U~,

    given cov_mt = Cxx U~, cross = Cxy V, and s_inv with image = X Z for
    X S^-1 X^T, applied as X Z core (X Z)^T U~: exact, since the loop's
    U~ = U R^-1 puts X^T U~ in span(Z).  For V the views swap roles.
    """
    g = cov_mt - cross
    if hp.lambda1 != 0.0:
        g = g + hp.lambda1 * weights[:, None] * m_tilde
    if hp.lambda2 != 0.0:
        g = g + hp.lambda2 * apply_s_inverse(s_inv, image, m_tilde)
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

    shift = 0 with a zero eigenvalue gives an infinite F, which warns unless
    the caller has turned divide and invalid warnings off (every caller
    does); each caller checks lam for the case it cannot use.
    """
    eigvals, eigvecs = np.linalg.eigh(0.5 * (sym + sym.T))
    eigvals = np.maximum(eigvals, 0.0)
    scale = 1.0 / np.sqrt(eigvals + shift)
    return (eigvecs * scale) @ eigvecs.T, eigvals


def whitening_factor(
    m_tilde: np.ndarray, cov_m: np.ndarray, zeta: float
) -> tuple[np.ndarray, float]:
    """The k x k factor R with (m_tilde R)^T cov (m_tilde R) = I, given
    cov_m = cov m_tilde, and the smallest eigenvalue of the Gram it whitens.

    R is the inverse square root of the k x k Gram m_tilde^T cov m_tilde
    shifted by zeta.  zeta = 0 is allowed when the Gram is safely
    nonsingular.  cov (m_tilde R) is cov_m R.  Callers run it with
    overflow, invalid and divide warnings off; an overflow is raised here.
    """
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
    """Whiten m_tilde to W with W^T cov W = I by _whiten: one product with
    cov, or two when its bound asks for them."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _whiten(m_tilde, cov, zeta)[0]


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
    which brings the residual to rounding level.  It runs inside the loop's
    np.errstate and sets none of its own.
    """
    cov_mt = cov @ m_tilde
    r1, lam_min = whitening_factor(m_tilde, cov_mt, zeta)
    w1 = m_tilde @ r1
    rounding = cov.shape[0] * _EPS * cov.trace() * float((m_tilde * m_tilde).sum())
    if rounding + zeta <= _REFINE_BOUND * (lam_min + zeta):
        return w1, cov_mt, cov_mt @ r1
    cov_w1 = cov @ w1
    r = whitening_factor(w1, cov_w1, zeta)[0]
    return w1 @ r, cov_mt, cov_w1 @ r


def whitening_residual(m: np.ndarray, cov: np.ndarray | LowRank) -> float:
    """||M^T cov M - I||_F, the residual of the whitening constraint."""
    if m.ndim != 2 or cov.shape != (m.shape[0], m.shape[0]):
        raise DimensionMismatch(
            f"cov shape {cov.shape} does not match projection rows {m.shape}"
        )
    gram = m.T @ (cov @ m)
    return float(np.linalg.norm(gram - np.eye(m.shape[1])))


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
    the full-batch fit, whose iterations cost less with the data in memory
    (a minibatch one forms its batch's statistics, O(m d^2), and makes 10
    products with them against 4).  `on_iteration(i, pair)`, when given, is
    called after every iteration with the freshly whitened pair."""
    validate_dataset(ds, hp)
    start = time.perf_counter()
    full = dataset_moments(ds)
    batches = None
    if hp.batch_size is not None and hp.batch_size < ds.n:
        x, y = ds.x.data, ds.y.data

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
    """The momentum iteration on the finite statistics `full` of a validated
    fit.

    `batches(rng)`, when given, returns each iteration's minibatch
    statistics, drawn with the fit's generator; the pair is then re-whitened
    against `full` at the end.  `start` is the perf_counter reading the
    report's wall time counts from (default: now).  The iteration runs with
    numpy's overflow, invalid and divide warnings off, since it checks every
    result that can go non-finite itself (the whitening's Gram check refuses
    a non-finite step); `on_iteration` runs under the caller's settings.
    """
    start = time.perf_counter() if start is None else start
    d1, d2, k = full.cxx.shape[0], full.cyy.shape[0], hp.k
    rng = np.random.default_rng(hp.seed)
    # whitening smoothing: far below zeta so the constraint residual stays
    # orders of magnitude under the 1e-8 * k budget
    zw = hp.zeta * 1e-6
    caller_errors = np.geterr()

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

            gu = grad_u(ut, cxx_ut, pm.cxy_v, ctx.p, ctx.s_inv, ctx.image_x, hp)
            ut, du = momentum_step(ut, du, gu, hp)
            u, cxx_ut, cxx_u = _whiten(ut, stats.cxx, zw)
            cyx_u = stats.cxy.T @ u

            # V's step sees the freshly whitened U through Cyx U
            gv = grad_v(vt, cyy_vt, cyx_u, ctx.q, ctx.s_inv, ctx.image_y, hp)
            vt, dv = momentum_step(vt, dv, gv, hp)
            v, cyy_vt, cyy_v = _whiten(vt, stats.cyy, zw)
            cxy_v = stats.cxy @ v
            pair = CanonicalPair(u=u, v=v)

            # the next iteration's context starts from these moments (full batch)
            pm = PairMoments.of(pair, cxx_u, cxy_v, cyx_u, cyy_v, stats.n)
            obj = objective(pm, hp)
            if not math.isfinite(obj):
                raise NonFiniteIterate("objective became non-finite; reduce eta")
            trace.append(obj)
            if obj > 10.0 * trace[0] and obj > 1e-12:
                raise NonFiniteIterate(
                    f"objective grew from {trace[0]:.3e} to {obj:.3e}; reduce eta"
                )
            if on_iteration is not None:
                with np.errstate(**caller_errors):
                    on_iteration(it, pair)
            if hp.tol > 0.0 and _converged(trace, hp.tol):
                termination = Termination.CONVERGED
                break

        if batches is not None:
            # the loop whitened against minibatch covariances; restore the
            # exact full-batch constraints
            pair = CanonicalPair(u=_whiten(ut, full.cxx, zw)[0], v=_whiten(vt, full.cyy, zw)[0])

    return FitReport(
        pair=pair,
        iterations_run=it,
        objective_trace=tuple(trace),
        final_constraint_residual_u=whitening_residual(pair.u, full.cxx),
        final_constraint_residual_v=whitening_residual(pair.v, full.cyy),
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
