"""Graph-Laplacian smoothing of the low-dimensional embeddings.

The refined embedding Z minimizes

    tr(Z^T L Z) + lam * sum_c tr(Z^T L_c Z) + mu * ||Z - subx||_F^2

where L is the combinatorial Laplacian of the weighted undirected graph
and L_c restricts it to cluster c by scaling each edge weight with
r_uc * r_vc. Setting the gradient to zero gives one symmetric positive
definite system per output column,

    (L + lam * sum_c L_c + mu * I) z = mu * subx[:, c],

solved by conjugate gradients on a CSR matrix. Since
sum_c r_uc r_vc = <R_u, R_v>, the cluster Laplacians sum to the
Laplacian of the weights w * <R_u, R_v>, so M is assembled in one COO
pass straight from the (u, v, w) pair arrays of
graph_model.adjacency_weights, with no per-cluster matrix.
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
        for name in ("lam", "mu", "cg_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def assemble_system(pairs: np.ndarray, R: np.ndarray,
                    params: LaplacianParams) -> sp.csr_matrix:
    """M = L + lam * sum_c L_c + mu * I as CSR, in one COO pass.

    pairs holds fields u, v (u < v, both in 0..n-1) and w >= 0, as
    graph_model.adjacency_weights returns them. Off-diagonal (u, v) is
    -(w + lam * joint) with joint = w * <R_u, R_v>; the diagonal is
    (deg_w + lam * deg_joint) + mu. Pairs whose off-diagonal value is
    zero are not stored.
    """
    n = R.shape[0]
    u, v, w = pairs["u"], pairs["v"], pairs["w"]
    if (w < 0).any():
        raise ValueError("negative edge weight")
    if (u == v).any():
        raise ValueError("self-loop in adjacency weights")
    if ((u < 0) | (v < 0) | (u >= n) | (v >= n)).any():
        raise ValueError("edge endpoint outside 0..n-1")
    ends = np.concatenate([u, v])
    off = w
    diag = np.bincount(ends, weights=np.concatenate([w, w]), minlength=n)
    if params.lam != 0.0:
        joint = w * np.einsum("ij,ij->i", R[u], R[v])
        off = w + params.lam * joint
        diag = diag + params.lam * np.bincount(
            ends, weights=np.concatenate([joint, joint]), minlength=n)
    keep = off != 0.0
    u, v, off = u[keep], v[keep], off[keep]
    diagonal = np.arange(n)
    rows = np.concatenate([u, v, diagonal])
    cols = np.concatenate([v, u, diagonal])
    data = np.concatenate([-off, -off, diag + params.mu])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def cg_solve(M, b: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Conjugate gradients from a zero start, relative-residual stopping.

    Verifies the true residual ||Mx - b|| / ||b|| <= tol on exit and
    raises SolverConvergenceError (carrying the achieved residual) when
    the iteration cap is hit first or the residual stops being finite (an
    overflowed or NaN matrix). A zero right-hand side returns zeros.
    """
    b_norm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    iters = 0
    while iters < max_iters and math.sqrt(rr) / b_norm > tol and math.isfinite(rr):
        iters += 1
        Mp = M @ p
        alpha = rr / float(p @ Mp)
        x += alpha * p
        r -= alpha * Mp
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    achieved = float(np.linalg.norm(b - M @ x) / b_norm)
    if not achieved <= tol:  # NaN fails too
        raise SolverConvergenceError(
            f"conjugate gradients stopped at relative residual {achieved:.3e} "
            f"after {iters} iterations (tolerance {tol:.1e})", achieved)
    return x


def solve(subx: np.ndarray, pairs: np.ndarray, R: np.ndarray,
          params: LaplacianParams = LaplacianParams()) -> np.ndarray:
    """Solve M z = mu * subx[:, c] for every column c.

    subx and R must both have one row per node; pairs is as for
    assemble_system. Deterministic: the start vector is zero and there
    is no randomized component.
    """
    params.validate()
    n, k = subx.shape
    if R.shape[0] != n:
        raise ValueError(f"R has {R.shape[0]} rows, subx has {n}")
    M = assemble_system(pairs, R, params)
    max_iters = params.cg_max_iters if params.cg_max_iters is not None \
        else default_cg_max_iters(n)
    Z = np.empty_like(subx)
    for c in range(k):
        Z[:, c] = cg_solve(M, params.mu * subx[:, c], params.cg_tol, max_iters)
    return Z
