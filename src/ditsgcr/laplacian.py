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

import numpy as np

from .csr import CSR

CG_TOL = 1e-6  # relative residual ||Mz - b|| / ||b|| each column must reach


class SolverConvergenceError(RuntimeError):
    """Conjugate gradients missed the tolerance; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def default_cg_max_iters(n: int) -> int:
    return max(1000, 10 * math.ceil(math.sqrt(max(n, 1))))


def assemble_system(pairs: np.ndarray, R: np.ndarray, lam: float,
                    mu: float) -> CSR:
    """M = L + lam * sum_c L_c + mu * I as CSR, in one COO pass.

    pairs holds fields u, v (u < v, both in 0..n-1) and w >= 0, as
    graph_model.adjacency_weights returns them. Off-diagonal (u, v) is
    -(w + lam * joint) with joint = w * <R_u, R_v>; the diagonal is
    (deg_w + lam * deg_joint) + mu.
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
    diag = np.bincount(ends, weights=np.concatenate([w, w]), minlength=n)
    joint = w * np.einsum("ij,ij->i", R[u], R[v])
    with np.errstate(over="ignore"):
        off = w + lam * joint
        diag = diag + lam * np.bincount(
            ends, weights=np.concatenate([joint, joint]), minlength=n)
    if not (np.isfinite(off).all() and np.isfinite(diag).all()):
        raise ValueError(f"lambda {lam:g} makes the system matrix overflow")
    diagonal = np.arange(n)
    rows = np.concatenate([u, v, diagonal])
    cols = np.concatenate([v, u, diagonal])
    data = np.concatenate([-off, -off, diag + mu])
    return CSR.from_coo(rows, cols, data, (n, n))


def cg_solve(M, b: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Conjugate gradients from a zero start, relative-residual stopping.

    Verifies ||Mx - b|| / ||b|| <= tol on exit, raising SolverConvergenceError
    (carrying the achieved residual) at the iteration cap, at a non-finite r.r
    or p.Mp (a NaN matrix) or when only the recursive residual met tol (an
    ill-conditioned M). Raises OverflowError when r.r or p.Mp overflows to
    infinity. A zero right-hand side returns zeros.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values end the loop
        b_norm = np.linalg.norm(b)
        x = np.zeros_like(b)
        if b_norm == 0.0:
            return x
        r = b.copy()
        p = r.copy()
        rr = float(r @ r)
        pMp = 1.0
        iters = 0
        while iters < max_iters and math.isfinite(rr) and math.sqrt(rr) / b_norm > tol:
            iters += 1
            Mp = M @ p
            pMp = float(p @ Mp)
            if not math.isfinite(pMp):
                break
            alpha = rr / pMp
            x += alpha * p
            r -= alpha * Mp
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        achieved = float(np.linalg.norm(b - M @ x) / b_norm)
    if math.isinf(rr) or math.isinf(pMp):
        raise OverflowError(f"conjugate gradients overflowed after {iters} iterations")
    if not achieved <= tol:  # NaN fails too
        cause = (", a false convergence: the system is too ill-conditioned"
                 if math.sqrt(rr) / b_norm <= tol else "")  # only the recursive r met tol
        raise SolverConvergenceError(
            f"conjugate gradients stopped at relative residual {achieved:.3e} "
            f"after {iters} iterations (tolerance {tol:.1e}){cause}", achieved)
    return x


def solve(subx: np.ndarray, pairs: np.ndarray, R: np.ndarray,
          lam: float = 1.0, mu: float = 1.0) -> np.ndarray:
    """Solve M z = mu * subx[:, c] for every column c.

    subx and R must both have one row per node; pairs is as for
    assemble_system. Each column runs CG to CG_TOL within
    default_cg_max_iters(n) iterations, from a zero start, so the result
    is deterministic. lam must be finite and >= 0, mu finite and > 0;
    CG overflowing raises ValueError, CG missing CG_TOL raises
    SolverConvergenceError, both naming lam and mu. A mu so small that mu *
    subx loses a non-zero entry, or that its squared norm underflows to 0,
    raises ValueError naming mu.
    """
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if mu <= 0:
        raise ValueError("mu must be positive, the system is singular otherwise")
    n, k = subx.shape
    if R.shape[0] != n:
        raise ValueError(f"R has {R.shape[0]} rows, subx has {n}")
    M = assemble_system(pairs, R, lam, mu)
    Z = np.empty_like(subx)
    for c in range(k):
        b = mu * subx[:, c]
        # a lost entry, or a b.b of 0 that cg_solve takes for b = 0, silently zeroes Z;
        # a b.b that overflows is cg_solve's to report
        with np.errstate(over="ignore"):
            vanished = b @ b == 0.0 and b.any()
        if vanished or np.count_nonzero(b) < np.count_nonzero(subx[:, c]):
            raise ValueError(f"mu {mu:g} is too small: mu * subx underflows")
        try:
            Z[:, c] = cg_solve(M, b, CG_TOL, default_cg_max_iters(n))
        except OverflowError:
            raise ValueError(f"lambda {lam:g} and mu {mu:g} make the system overflow "
                             "in conjugate gradients") from None
        except SolverConvergenceError as exc:
            raise SolverConvergenceError(f"{exc} with lambda {lam:g} and mu {mu:g}",
                                         exc.residual) from None
    return Z
