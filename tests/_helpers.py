"""Shared test fixtures: planted datasets, train/validation centering,
reference operators and a traced-memory probe."""
import tracemalloc

import numpy as np

import rmencca as r
from rmencca.regularizers import build_s_inverse
from rmencca.solver import grad_u, grad_v, normalize


def planted(n, d1, d2, rho, noise, seed):
    spec = r.SyntheticSpec(
        n=n, d1=d1, d2=d2, k_true=len(rho),
        correlations=tuple(rho), noise_scale=noise, seed=seed,
    )
    return r.synth_two_view(spec)


def slice_split(ds, n_train):
    """First n_train columns as the training set, the rest held out, both
    centered with the training means."""
    xt = r.center(r.ViewMatrix.of(ds.x.data[:, :n_train]))
    yt = r.center(r.ViewMatrix.of(ds.y.data[:, :n_train]))
    xv = r.center_with_means(r.ViewMatrix.of(ds.x.data[:, n_train:]), xt.feature_means)
    yv = r.center_with_means(r.ViewMatrix.of(ds.y.data[:, n_train:]), yt.feature_means)
    return r.TwoViewDataset(x=xt, y=yt), r.TwoViewDataset(x=xv, y=yv)


def centered(ds):
    return r.TwoViewDataset(x=r.center(ds.x), y=r.center(ds.y))


def mean_pcc(a, b):
    """Mean per-dimension Pearson correlation on the [-1, 1] scale."""
    return r.pcc(a, b).mean_pcc_percent / 100.0


def random_dataset(rng, d1, d2, n):
    x = rng.standard_normal((d1, n))
    y = rng.standard_normal((d2, n))
    return r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))


def feasible_pair(rng, ds, k):
    x, y = ds.x.data, ds.y.data
    n = ds.n
    return r.CanonicalPair(
        u=normalize(rng.standard_normal((ds.x.d, k)), x @ x.T / n, 0.0),
        v=normalize(rng.standard_normal((ds.y.d, k)), y @ y.T / n, 0.0),
    )


def fresh_grad_u(stats, ctx, hp, u_tilde, v):
    """solver.grad_u at U~ against the partner V, with Cxx U~ and Cxy V
    formed afresh from the statistics rather than carried by a loop."""
    return grad_u(u_tilde, stats.cxx @ u_tilde, stats.cxy @ v, ctx.p, ctx.s_inv,
                  ctx.image_x, hp)


def fresh_grad_v(stats, ctx, hp, v_tilde, u):
    """solver.grad_v at V~ against the partner U, with Cyy V~ and Cyx U
    formed afresh from the statistics."""
    return grad_v(v_tilde, stats.cyy @ v_tilde, stats.cxy.T @ u, ctx.q, ctx.s_inv,
                  ctx.image_y, hp)


def n_space_s_inverse(proj_x, proj_y, zeta):
    """(op, Z): the S-inverse on n-space itself, the case T = I, built from
    the eigh of Z^T Z for Z = [proj_x proj_y], with its image Z.  It applies
    to an n x c block m in span(Z) as apply_s_inverse(op, Z, m), and maps
    the orthogonal complement of span(Z) to 0."""
    z = np.concatenate([proj_x, proj_y], axis=1)
    return build_s_inverse(zeta, np.linalg.eigh(z.T @ z)), z


def dense_s_inverse(proj_x, proj_y, zeta):
    """The n x n S-inverse (Z Z^T + zeta I)^(-1/2) for Z = [proj_x proj_y],
    from a dense eigh."""
    z = np.concatenate([proj_x, proj_y], axis=1)
    w, e = np.linalg.eigh(z @ z.T + zeta * np.eye(z.shape[0]))
    return (e / np.sqrt(w)) @ e.T


def traced_peak(call):
    """call()'s result, and the peak bytes of traced memory allocated while
    it runs."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
