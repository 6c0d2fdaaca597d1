import numpy as np
import pytest
import scipy.sparse as sp

from ditsgcr.graph_model import adjacency_weights
from ditsgcr.laplacian import (LaplacianParams, SolverConvergenceError,
                               assemble_system, cg_solve, solve)
from helpers import (cluster_laplacians, dense_solve, dense_system, pair_array,
                     random_connected_graph)

TRIANGLE = pair_array({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
TRIANGLE_L = np.array([[2.0, -1.0, -1.0],
                       [-1.0, 2.0, -1.0],
                       [-1.0, -1.0, 2.0]])


def graph_laplacian(pairs, n):
    """L = D - A through assemble_system with lam = 0 and mu = 1."""
    params = LaplacianParams(lam=0.0, mu=1.0)
    return assemble_system(pairs, np.zeros((n, 1)), params).toarray() - np.eye(n)


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
            assemble_system(pair_array(bad), R, LaplacianParams())


def test_zero_weight_pairs_are_not_stored():
    pairs = pair_array({(0, 1): 0.0, (1, 2): 2.0})
    R = np.full((3, 2), 0.5)
    for lam in (0.0, 1.0):
        M = assemble_system(pairs, R, LaplacianParams(lam=lam, mu=1.0))
        assert M.nnz == 3 + 2  # the diagonal and the (1, 2) pair both ways
        assert np.all(M.data != 0.0)
        assert np.abs(M.toarray() - dense_system(pairs, R, lam, 1.0)).max() <= 1e-12


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
        params = LaplacianParams(lam=0.7, mu=0.3)
        M = assemble_system(weights, R, params).toarray()
        expected = dense_system(weights, R, 0.0, 0.0)  # L alone
        for Lc in cluster_laplacians(weights, R):
            expected = expected + params.lam * Lc
        expected = expected + params.mu * np.eye(n)
        assert np.abs(M - expected).max() <= 1e-12


def test_solve_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        weights, R, subx = random_instance(rng, n_max=40)
        lam = float(rng.choice([0.1, 1.0, 10.0]))
        mu = float(rng.choice([0.1, 1.0, 10.0]))
        got = solve(subx, weights, R, LaplacianParams(lam=lam, mu=mu, cg_tol=1e-10))
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
    Z = solve(subx, pair_array({}), R, LaplacianParams(lam=1.0, mu=1.0))
    assert np.allclose(Z, subx, atol=1e-12)


def test_huge_mu_pins_solution_to_anchor():
    rng = np.random.default_rng(4)
    weights, R, subx = random_instance(rng, n_max=20)
    Z = solve(subx, weights, R, LaplacianParams(lam=1.0, mu=1e8))
    assert np.abs(Z - subx).max() <= 1e-5


def test_solution_objective_not_above_anchor_point():
    rng = np.random.default_rng(5)
    for _ in range(10):
        weights, R, subx = random_instance(rng, n_max=30)
        n = R.shape[0]
        lam, mu = 1.0, 1.0
        Z = solve(subx, weights, R, LaplacianParams(lam=lam, mu=mu, cg_tol=1e-10))
        M = dense_system(weights, R, lam, mu) - mu * np.eye(n)  # L + lam*sum Lc

        def objective(X):
            return float(np.trace(X.T @ M @ X) + mu * ((X - subx) ** 2).sum())

        assert objective(Z) <= objective(subx) + 1e-9
        L = dense_system(weights, R, 0.0, 0.0)
        assert np.trace(Z.T @ L @ Z) <= np.trace(subx.T @ L @ subx) + 1e-9


def test_component_locality():
    rng = np.random.default_rng(6)
    # component A: nodes 0..4, component B: nodes 5..9
    base = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (3, 4): 1.0, (0, 4): 1.0,
            (5, 6): 1.0, (6, 7): 1.0, (7, 8): 3.0, (8, 9): 1.0}
    edited = dict(base)
    edited[(5, 9)] = 2.0  # edit confined to component B
    R = rng.dirichlet(np.ones(3), size=10)
    subx = rng.dirichlet(np.ones(3), size=10)
    params = LaplacianParams(lam=1.0, mu=1.0, cg_tol=1e-12)
    Z1 = solve(subx, pair_array(base), R, params)
    Z2 = solve(subx, pair_array(edited), R, params)
    assert np.abs(Z1[:5] - Z2[:5]).max() <= 1e-6
    assert np.abs(Z1[5:] - Z2[5:]).max() > 1e-6


def test_deterministic():
    rng = np.random.default_rng(7)
    weights, R, subx = random_instance(rng)
    a = solve(subx, weights, R, LaplacianParams())
    b = solve(subx, weights, R, LaplacianParams())
    assert np.array_equal(a, b)


def test_zero_rhs_column_yields_zero_column():
    weights = pair_array({(0, 1): 1.0, (1, 2): 1.0})
    R = np.full((3, 2), 0.5)
    subx = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    Z = solve(subx, weights, R, LaplacianParams())
    assert np.all(Z[:, 1] == 0.0)


def test_cg_error_carries_residual():
    rng = np.random.default_rng(9)
    weights, R, subx = random_instance(rng, n_max=40)
    with pytest.raises(SolverConvergenceError) as exc:
        solve(subx, weights, R, LaplacianParams(cg_tol=1e-12, cg_max_iters=1))
    assert exc.value.residual > 1e-12


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


@pytest.mark.parametrize("field", ["lam", "mu", "cg_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LaplacianParams(**{field: value}).validate()


def test_params_validate():
    with pytest.raises(ValueError):
        LaplacianParams(mu=0.0).validate()
    with pytest.raises(ValueError):
        LaplacianParams(lam=-1.0).validate()
    with pytest.raises(ValueError):
        LaplacianParams(cg_tol=0.0).validate()
