import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmencca.regularizers import apply_s_inverse, hq_diagonal, l21_norm, nuclear_norm

from _helpers import dense_s_inverse, n_space_s_inverse


def test_l21_norm_hand_values():
    assert l21_norm(np.array([[3.0, 4.0]])) == 5.0
    assert l21_norm(np.zeros((4, 2))) == 0.0
    m = np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    assert l21_norm(m) == pytest.approx(1.0 + 2.0 + np.sqrt(8.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(-5.0, 5.0))
def test_l21_norm_is_a_norm(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((5, 3))
    la, lb = l21_norm(a), l21_norm(b)
    assert l21_norm(a + b) <= la + lb + 1e-9
    assert l21_norm(scale * a) == pytest.approx(abs(scale) * la, abs=1e-9)


def test_nuclear_norm_of_diagonal():
    m = np.diag([3.0, -2.0, 0.5])
    assert nuclear_norm(m) == pytest.approx(5.5)


def test_nuclear_norm_orthogonal_invariance():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 4))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert nuclear_norm(q @ m) == pytest.approx(nuclear_norm(m), rel=1e-12)


# -------------------------------------------------------------- HQ weights

def test_hq_diagonal_formula():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    w = hq_diagonal(m, 1e-8)
    assert w[0] == pytest.approx(1.0 / (2.0 * np.sqrt(25.0 + 1e-8)))
    assert w[1] == pytest.approx(1.0 / (2.0 * np.sqrt(1e-8)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), zeta=st.floats(1e-10, 1e-2))
def test_hq_tightness_identity(seed, zeta):
    """surrogate + sum(zeta w_i + 1/(4 w_i)) equals sum sqrt(||row||^2+zeta)."""
    m = np.random.default_rng(seed).standard_normal((6, 3)) * 2.0
    w = hq_diagonal(m, zeta)
    surrogate = float((w * (m * m).sum(axis=1)).sum())  # Tr(m^T diag(w) m)
    lhs = surrogate + float((zeta * w + 1.0 / (4.0 * w)).sum())
    rhs = float(np.sqrt((m * m).sum(axis=1) + zeta).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --------------------------------------------------------- S-inverse operator

def test_s_inverse_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        k = int(rng.integers(1, 4))
        px = rng.standard_normal((n, k))
        py = rng.standard_normal((n, k))
        zeta = 10.0 ** rng.uniform(-5, -1)
        op, image = n_space_s_inverse(px, py, zeta)
        dense = dense_s_inverse(px, py, zeta)
        # the operator acts on span(Z), so probe it there
        m = image @ rng.standard_normal((2 * k, 3))
        got = apply_s_inverse(op, image, m)
        want = dense @ m
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_s_inverse_of_zero_projections_is_zero():
    """With zero projections span(Z) = {0}, and the operator, which acts on
    span(Z) only, keeps no basis column and maps every block to 0."""
    op, image = n_space_s_inverse(np.zeros((5, 2)), np.zeros((5, 2)), 1e-4)
    assert op.basis.shape == (4, 0)
    assert np.array_equal(apply_s_inverse(op, image, np.eye(5)), np.zeros((5, 5)))


def test_s_inverse_basis_stays_thin():
    """The factored form never materializes an n x n matrix: the core is
    2k x 2k and the basis has at most 2k columns."""
    rng = np.random.default_rng(5)
    px = rng.standard_normal((40, 3))
    py = rng.standard_normal((40, 3))
    op, _ = n_space_s_inverse(px, py, 1e-6)
    assert op.core.shape == (6, 6)
    assert op.basis.shape[0] == 6 and op.basis.shape[1] <= 6
