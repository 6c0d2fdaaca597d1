"""Graph-Laplacian smoothing of the low-dimensional embeddings.

The refined embedding Z minimizes

    tr(Z^T L Z) + lam * sum_c tr(Z^T L_c Z) + mu * ||Z - subx||_F^2

where L is the combinatorial Laplacian of the weighted undirected graph
and L_c restricts it to cluster c by scaling each edge weight with
r_uc * r_vc. Setting the gradient to zero gives one symmetric positive
definite system per output column,

    (L + lam * sum_c L_c + mu * I) z = mu * subx[:, c],

solved by conjugate gradients on CSR matrices.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class LaplacianParams:
    lam: float = 1.0
    mu: float = 1.0
    cg_tol: float = 1e-6
    cg_max_iters: int | None = None  # None: max(1000, 10 * ceil(sqrt(n)))

    def validate(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.mu <= 0:
            raise ValueError("mu must be positive, the system is singular otherwise")
        if self.cg_tol <= 0:
            raise ValueError("cg_tol must be positive")


class SolverConvergenceError(RuntimeError):
    """Conjugate gradients missed the tolerance; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def default_cg_max_iters(n: int) -> int:
    return max(1000, 10 * math.ceil(math.sqrt(max(n, 1))))


def _edge_arrays(weights: dict):
    # sorted for a deterministic assembly order regardless of dict history
    items = sorted(weights.items())
    u = np.fromiter((p[0][0] for p in items), dtype=np.int64, count=len(items))
    v = np.fromiter((p[0][1] for p in items), dtype=np.int64, count=len(items))
    w = np.fromiter((p[1] for p in items), dtype=np.float64, count=len(items))
    return u, v, w


def _laplacian_from_arrays(u, v, w, n) -> sp.csr_matrix:
    deg = np.zeros(n)
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    rows = np.concatenate([u, v, np.arange(n)])
    cols = np.concatenate([v, u, np.arange(n)])
    data = np.concatenate([-w, -w, deg])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def build_graph_laplacian(weights: dict, n: int) -> sp.csr_matrix:
    """L = D - A from symmetric {(u, v): w} weights with u < v, w >= 0."""
    u, v, w = _edge_arrays(weights)
    if (w < 0).any():
        raise ValueError("negative edge weight")
    if (u == v).any():
        raise ValueError("self-loop in adjacency weights")
    if ((u < 0) | (v >= n)).any():
        raise ValueError("edge endpoint outside 0..n-1")
    return _laplacian_from_arrays(u, v, w, n)


def assemble_system(weights: dict, R: np.ndarray, params: LaplacianParams) -> sp.csr_matrix:
    """M = L + lam * sum_c L_c + mu * I as CSR."""
    n = R.shape[0]
    M = build_graph_laplacian(weights, n)
    if params.lam != 0.0 and weights:
        u, v, w = _edge_arrays(weights)
        # sum_c r_uc r_vc w == <R_u, R_v> w, one combined Laplacian
        joint = w * np.einsum("ij,ij->i", R[u], R[v])
        M = M + params.lam * _laplacian_from_arrays(u, v, joint, n)
    return (M + params.mu * sp.identity(n, format="csr")).tocsr()


def cg_solve(M, b: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Conjugate gradients from a zero start, relative-residual stopping.

    Verifies the true residual ||Mx - b|| / ||b|| <= tol on exit and
    raises SolverConvergenceError (carrying the achieved residual) when
    the iteration cap is hit first. A zero right-hand side returns zeros.
    """
    b_norm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    for _ in range(max_iters):
        if np.linalg.norm(r) / b_norm <= tol:
            break
        Mp = M @ p
        alpha = rr / float(p @ Mp)
        x += alpha * p
        r -= alpha * Mp
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    achieved = float(np.linalg.norm(b - M @ x) / b_norm)
    if achieved > tol:
        raise SolverConvergenceError(
            f"conjugate gradients stopped at relative residual {achieved:.3e} "
            f"after {max_iters} iterations (tolerance {tol:.1e})", achieved)
    return x


def solve(subx: np.ndarray, weights: dict, R: np.ndarray,
          params: LaplacianParams = LaplacianParams()) -> np.ndarray:
    """Solve M z = mu * subx[:, c] for every column c.

    subx and R must both have one row per node. Deterministic: assembly
    order is sorted, the start vector is zero and there is no randomized
    component.
    """
    params.validate()
    n, k = subx.shape
    if R.shape[0] != n:
        raise ValueError(f"R has {R.shape[0]} rows, subx has {n}")
    M = assemble_system(weights, R, params)
    max_iters = params.cg_max_iters if params.cg_max_iters is not None \
        else default_cg_max_iters(n)
    Z = np.empty_like(subx)
    for c in range(k):
        Z[:, c] = cg_solve(M, params.mu * subx[:, c], params.cg_tol, max_iters)
    return Z
