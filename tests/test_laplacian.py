import numpy as np
import pytest
import scipy.sparse as sp

from ditsgcr.graph_model import adjacency_weights
from ditsgcr import laplacian
from ditsgcr.csr import CSR
from ditsgcr.laplacian import SolverConvergenceError, assemble_system, cg_solve, solve
from helpers import (cluster_laplacians, dense_solve, dense_system, pair_array,
                     random_connected_graph)

TRIANGLE = pair_array({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
TRIANGLE_L = np.array([[2.0, -1.0, -1.0],
                       [-1.0, 2.0, -1.0],
                       [-1.0, -1.0, 2.0]])


def dense(M):
    """The assembled CSR matrix M as a dense array, through scipy."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape).toarray()


def graph_laplacian(pairs, n):
    """L = D - A through assemble_system with lam = 0 and mu = 1."""
    return dense(assemble_system(pairs, np.zeros((n, 1)), 0.0, 1.0)) - np.eye(n)


def random_instance(rng, n_max=50):
    n = int(rng.integers(4, n_max + 1))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
    n = g.n_nodes
    weights = adjacency_weights(g)
    k = int(rng.integers(2, 6))
    R = rng.dirichlet(np.ones(k), size=n)
    subx = rng.dirichlet(np.ones(k), size=n)
    return weights, R, subx


def test_triangle_laplacian():
    L = graph_laplacian(TRIANGLE, 3)
    assert np.array_equal(L, TRIANGLE_L)
    eig = np.sort(np.linalg.eigvalsh(L))
    assert eig == pytest.approx([0.0, 3.0, 3.0], abs=1e-9)


def test_laplacian_row_sums_zero_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(10):
        weights, R, _ = random_instance(rng, n_max=30)
        n = R.shape[0]
        L = graph_laplacian(weights, n)
        assert np.abs(L.sum(axis=1)).max() <= 1e-9
        assert np.abs(L - L.T).max() == 0.0
        assert np.abs(L - dense_system(weights, R, 0.0, 0.0)).max() <= 1e-12


def test_laplacian_rejects_bad_weights():
    R = np.full((2, 2), 0.5)
    for bad in ({(0, 1): -2.0}, {(1, 1): 1.0}, {(0, 2): 1.0}, {(-1, 1): 1.0}):
        with pytest.raises(ValueError):
            assemble_system(pair_array(bad), R, 1.0, 1.0)


def test_zero_weight_pair_matches_dense_system():
    pairs = pair_array({(0, 1): 0.0, (1, 2): 2.0})
    R = np.full((3, 2), 0.5)
    for lam in (0.0, 1.0):
        M = assemble_system(pairs, R, lam, 1.0)
        assert np.abs(dense(M) - dense_system(pairs, R, lam, 1.0)).max() <= 1e-12


@pytest.mark.parametrize("case", ["random", "no pairs", "zero weight", "no nodes"])
def test_assembled_arrays_match_scipy_coo_to_csr(case, monkeypatch):
    # M is built with scipy's coo_tocsr and csr_sort_indices kernels; the
    # arrays must be those of scipy.sparse's own conversion of its triplets
    built = []
    from_coo = CSR.from_coo
    monkeypatch.setattr(CSR, "from_coo", lambda *a: built.append(a) or from_coo(*a))
    rng = np.random.default_rng(12)
    for _ in range(10 if case == "random" else 1):
        pairs, R, _ = random_instance(rng)
        if case != "random":
            n = {"no pairs": 3, "zero weight": 3, "no nodes": 0}[case]
            pairs = pair_array({(0, 1): 0.0, (1, 2): 2.0} if case == "zero weight" else {})
            R = np.full((n, 2), 0.5)
        M = assemble_system(pairs, R, 0.7, 0.3)
        rows, cols, data, shape = built[-1]
        want = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
        assert M.shape == want.shape and M.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(M, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_cluster_laplacians_uniform_memberships():
    k = 2
    R = np.full((3, k), 1.0 / k)
    for Lc in cluster_laplacians(TRIANGLE, R):
        assert np.allclose(Lc, TRIANGLE_L / k**2, atol=1e-12)


def test_cluster_laplacians_one_hot_memberships():
    R = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    L0, L1 = cluster_laplacians(TRIANGLE, R)
    expect0 = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(L0, expect0, atol=1e-12)
    assert np.allclose(L1, np.zeros((3, 3)), atol=1e-12)


def test_assembled_system_equals_cluster_laplacian_sum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        weights, R, _ = random_instance(rng, n_max=25)
        n, _ = R.shape
        lam, mu = 0.7, 0.3
        M = dense(assemble_system(weights, R, lam, mu))
        expected = dense_system(weights, R, 0.0, 0.0)  # L alone
        for Lc in cluster_laplacians(weights, R):
            expected = expected + lam * Lc
        expected = expected + mu * np.eye(n)
        assert np.abs(M - expected).max() <= 1e-12


def test_solve_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(laplacian, "CG_TOL", 1e-10)
    rng = np.random.default_rng(2)
    for _ in range(15):
        weights, R, subx = random_instance(rng, n_max=40)
        lam = float(rng.choice([0.1, 1.0, 10.0]))
        mu = float(rng.choice([0.1, 1.0, 10.0]))
        got = solve(subx, weights, R, lam=lam, mu=mu)
        expected = dense_solve(subx, weights, R, lam, mu)
        denom = max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() / denom <= 1e-5


def test_system_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(10):
        weights, R, _ = random_instance(rng, n_max=25)
        for mu in (0.1, 1.0, 10.0):
            M = dense_system(weights, R, 1.0, mu)
            min_eig = np.linalg.eigvalsh(M).min()
            assert min_eig >= mu - 1e-8


def test_no_edges_returns_anchor():
    subx = np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]])
    R = np.full((3, 2), 0.5)
    Z = solve(subx, pair_array({}), R, lam=1.0, mu=1.0)
    assert np.allclose(Z, subx, atol=1e-12)


def test_huge_mu_pins_solution_to_anchor():
    rng = np.random.default_rng(4)
    weights, R, subx = random_instance(rng, n_max=20)
    Z = solve(subx, weights, R, lam=1.0, mu=1e8)
    assert np.abs(Z - subx).max() <= 1e-5


def test_solution_objective_not_above_anchor_point(monkeypatch):
    monkeypatch.setattr(laplacian, "CG_TOL", 1e-10)
    rng = np.random.default_rng(5)
    for _ in range(10):
        weights, R, subx = random_instance(rng, n_max=30)
        n = R.shape[0]
        lam, mu = 1.0, 1.0
        Z = solve(subx, weights, R, lam=lam, mu=mu)
        M = dense_system(weights, R, lam, mu) - mu * np.eye(n)  # L + lam*sum Lc

        def objective(X):
            return float(np.trace(X.T @ M @ X) + mu * ((X - subx) ** 2).sum())

        assert objective(Z) <= objective(subx) + 1e-9
        L = dense_system(weights, R, 0.0, 0.0)
        assert np.trace(Z.T @ L @ Z) <= np.trace(subx.T @ L @ subx) + 1e-9


def test_component_locality(monkeypatch):
    rng = np.random.default_rng(6)
    # component A: nodes 0..4, component B: nodes 5..9
    base = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (3, 4): 1.0, (0, 4): 1.0,
            (5, 6): 1.0, (6, 7): 1.0, (7, 8): 3.0, (8, 9): 1.0}
    edited = dict(base)
    edited[(5, 9)] = 2.0  # edit confined to component B
    R = rng.dirichlet(np.ones(3), size=10)
    subx = rng.dirichlet(np.ones(3), size=10)
    monkeypatch.setattr(laplacian, "CG_TOL", 1e-12)
    Z1 = solve(subx, pair_array(base), R, lam=1.0, mu=1.0)
    Z2 = solve(subx, pair_array(edited), R, lam=1.0, mu=1.0)
    assert np.abs(Z1[:5] - Z2[:5]).max() <= 1e-6
    assert np.abs(Z1[5:] - Z2[5:]).max() > 1e-6


def test_deterministic():
    rng = np.random.default_rng(7)
    weights, R, subx = random_instance(rng)
    a = solve(subx, weights, R)
    b = solve(subx, weights, R)
    assert np.array_equal(a, b)


def test_zero_rhs_column_yields_zero_column():
    weights = pair_array({(0, 1): 1.0, (1, 2): 1.0})
    R = np.full((3, 2), 0.5)
    subx = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    Z = solve(subx, weights, R)
    assert np.all(Z[:, 1] == 0.0)


def test_cg_error_carries_residual(monkeypatch):
    rng = np.random.default_rng(9)
    weights, R, subx = random_instance(rng, n_max=40)
    monkeypatch.setattr(laplacian, "default_cg_max_iters", lambda n: 1)
    with pytest.raises(SolverConvergenceError) as exc:
        solve(subx, weights, R)
    assert exc.value.residual > laplacian.CG_TOL


def test_cg_solve_simple_identity():
    M = sp.identity(4, format="csr")
    b = np.array([1.0, -2.0, 0.0, 3.0])
    x = cg_solve(M, b, tol=1e-10, max_iters=10)
    assert np.allclose(x, b, atol=1e-9)
    assert np.all(cg_solve(M, np.zeros(4), tol=1e-10, max_iters=10) == 0.0)


def test_cg_solve_rejects_nan_solution():
    M = sp.csr_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    calls = []

    class Counting:
        def __matmul__(self, other):
            calls.append(1)
            return M @ other

    with pytest.raises(SolverConvergenceError, match="residual nan after 1 iterations") as exc:
        cg_solve(Counting(), np.array([1.0, 1.0]), tol=1e-6, max_iters=50)
    assert np.isnan(exc.value.residual)
    assert len(calls) == 2  # one iteration, then the true-residual check


@pytest.mark.parametrize("field", ["lam", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_reject_non_finite(field, value):
    weights, R, subx = random_instance(np.random.default_rng(10), n_max=10)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        solve(subx, weights, R, **{field: value})


@pytest.mark.parametrize("w", [1.0, 2.0])
def test_overflowing_lambda_rejected(w):
    # at w = 1 only the diagonal (two pairs per node) overflows, at w = 2 all entries
    pairs = pair_array({(0, 1): w, (0, 2): w, (1, 2): w})
    with pytest.raises(ValueError, match="lambda 1e\\+308 makes the system matrix overflow"):
        assemble_system(pairs, np.ones((3, 1)), 1e308, 1.0)


def test_params_validate():
    weights, R, subx = random_instance(np.random.default_rng(11), n_max=10)
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="mu must be positive"):
            solve(subx, weights, R, mu=mu)
    with pytest.raises(ValueError, match="lam must be non-negative"):
        solve(subx, weights, R, lam=-1.0)


@pytest.mark.parametrize("mu", [5e-324, 1e-300])
def test_underflowing_mu_rejected(mu):
    # 5e-324 * 0.2 rounds to 0, so column 0 of the right-hand side loses an
    # entry; at 1e-300 every entry survives but b.b underflows, which cg_solve
    # would take for b = 0. Either way Z would silently come out 0
    subx = np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]])
    R = np.full((3, 2), 0.5)
    with pytest.raises(ValueError, match=rf"mu {mu:g} is too small: mu \* subx underflows"):
        solve(subx, TRIANGLE, R, mu=mu)
    # an entry of subx that is 0 already is no underflow
    Z = solve(subx, pair_array({}), R, lam=1.0, mu=1e-3)
    assert np.allclose(Z, subx, atol=1e-12)
