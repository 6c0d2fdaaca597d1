"""Differentiable clustering of high-dimensional node embeddings.

Soft K-means under cosine similarity: responsibilities are a softmax over
beta-scaled similarities, centroids are responsibility-weighted means
renormalized to unit length. compute_subx turns distances to the final
centroids into a low-dimensional row-stochastic embedding. The n-row
kernels here and in the lift run over a grid of blocks that depends on n
only, shared by each map_blocks call's threads, so no bit depends on the
thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

EPS = 1e-10

# a centroid whose total responsibility falls below this is re-seeded
DEAD_CENTROID_TOTAL = 1e-8

# rows whose centroid-distance spread falls below this get uniform subx
DEGENERATE_SPREAD = 1e-9

BLOCK_ROWS = 512  # rows per block of norms and distances: no n x width temporaries
POOL_MIN_ROWS = 8 * 512  # below this a pool gained no time and cost memory


def pool_threads(n_rows):  # one per further CPU in the affinity mask, from POOL_MIN_ROWS on
    if n_rows < POOL_MIN_ROWS:
        return 0
    affinity = getattr(os, "sched_getaffinity", None)  # macOS has no affinity mask
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) - 1


def map_blocks(fn, blocks):
    """fn(*block) for every (start, stop) block, blocks in ascending order.

    This thread drains the blocks together with pool_threads(rows spanned)
    helper threads, at most one per further block, which have all ended
    when the call returns; after a block raises no further block starts. A
    call of at most one block runs on this thread and starts no helper.
    """
    blocks = list(blocks)
    todo = iter(blocks)  # next() on it is atomic under the GIL

    def drain():
        try:
            for block in todo:
                fn(*block)
        except BaseException:
            for _ in todo:  # each other thread stops after its current block
                pass
            raise
    threads = min(pool_threads(blocks[-1][1] - blocks[0][0]), len(blocks) - 1) if blocks else 0
    if not threads:
        return drain()
    with ThreadPoolExecutor(threads) as executor:
        helpers = [executor.submit(drain) for _ in range(threads)]
        drain()
        for helper in helpers:
            helper.result()


def row_blocks(n):
    """(start, stop) of BLOCK_ROWS-row blocks; a last block under half that
    joins the one before, as a gemm on fewer rows can give other bits."""
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] < BLOCK_ROWS // 2:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n]))


def _by_rows(out, fn):
    """out[a:b] = fn(a, b) for each row block; returns out."""
    def block(a, b):
        out[a:b] = fn(a, b)
    map_blocks(block, row_blocks(len(out)))
    return out


def normalize_rows(H: np.ndarray, out=None) -> np.ndarray:
    """Divide each row by (its L2 norm + 1e-10) into out, new or H; zero rows stay zero."""
    norms, out = _row_norms(H) + EPS, np.empty_like(H) if out is None else out
    map_blocks(lambda a, b: np.divide(H[a:b], norms[a:b, None], out=out[a:b]),
               row_blocks(len(H)))
    return out


def _row_norms(H: np.ndarray) -> np.ndarray:
    return _by_rows(np.empty(len(H)), lambda a, b: np.linalg.norm(H[a:b], axis=1))


def _sq_dists(H: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = min(out, ||H_i - h||^2) per row."""
    return _by_rows(out, lambda a, b: np.minimum(out[a:b], ((H[a:b] - h) ** 2).sum(axis=1)))


def kmeanspp_init(H_norm: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Choose k distinct seed rows by squared-distance weighted sampling.

    Deterministic for a fixed seed. When all remaining rows duplicate the
    chosen ones (total weight zero) the next index is drawn uniformly from
    the unchosen ones, so indices stay distinct even with duplicate rows.
    """
    n = H_norm.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need at least {k} rows to seed {k} centroids, got {n}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    is_chosen = np.zeros(n, dtype=bool)
    chosen[0] = rng.integers(n)
    is_chosen[chosen[0]] = True
    d2 = _sq_dists(H_norm, H_norm[chosen[0]], np.full(n, np.inf))
    for j in range(1, k):
        total = d2.sum()  # _sq_dists left exactly 0.0 at every chosen row
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.choice(np.flatnonzero(~is_chosen)))
        chosen[j] = idx
        is_chosen[idx] = True
        _sq_dists(H_norm, H_norm[idx], d2)
    return H_norm[chosen].copy()


def cosine_similarities(H_norm: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities with 1e-10 guards on both norms."""
    return _cosine(H_norm, _row_norms(H_norm), centroids)


def _cosine(H_norm, hn, centroids):  # hn: the row norms of H_norm
    cn = np.linalg.norm(centroids, axis=1)
    return _by_rows(np.empty((len(H_norm), len(centroids))), lambda a, b: (
        (H_norm[a:b] @ centroids.T) / ((hn[a:b, None] + EPS) * (cn[None, :] + EPS))))


def soft_assign(sims: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise softmax of beta-scaled similarities.

    The row max is subtracted before exponentiation so large beta cannot
    overflow; rows sum to 1.
    """
    logits = beta * sims
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _reseed_dead_centroids(H_norm, centroids, totals):
    """Move centroids with ~zero responsibility to the row farthest from
    its nearest centroid. Sequential and deterministic."""
    for c in np.flatnonzero(totals < DEAD_CENTROID_TOTAL):
        d2 = np.full(H_norm.shape[0], np.inf)
        for mu in centroids:
            _sq_dists(H_norm, mu, d2)
        idx = int(np.argmax(d2))
        row = H_norm[idx]
        centroids[c] = row / (np.linalg.norm(row) + EPS)
    return centroids


def soft_kmeans(H_norm: np.ndarray, k: int, beta: float, iters: int, seed: int):
    """Run iters rounds of (soft assign, centroid update) from a seeded init.

    Returns (R, centroids): R is the last-computed responsibility matrix
    (n x k, rows sum to 1), centroids the last-updated set (unit rows, up
    to the 1e-10 guard; all-zero input rows can leave zero centroids).
    """
    if not 0 < beta < np.inf:  # NaN too
        raise ValueError("beta must be finite and positive")
    if iters < 1:
        raise ValueError("need at least one iteration")
    centroids = kmeanspp_init(H_norm, k, seed)
    hn = _row_norms(H_norm)
    R = None
    for _ in range(iters):
        sims = _cosine(H_norm, hn, centroids)
        R = soft_assign(sims, beta)
        totals = R.sum(axis=0)
        centroids = (R.T @ H_norm) / (totals[:, None] + EPS)
        centroids = centroids / (np.linalg.norm(centroids, axis=1, keepdims=True) + EPS)
        if (totals < DEAD_CENTROID_TOTAL).any():
            centroids = _reseed_dead_centroids(H_norm, centroids, totals)
    return R, centroids


def compute_subx(H_norm: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Low-dimensional rows from closeness to each centroid.

    Per row: val_k = 1 - cos_sim_k, x_k = (max(val) - val_k) / (spread + 1e-10),
    subx_k = x_k / (sum(x) + 1e-10). Rows whose spread max(val) - min(val)
    is below 1e-9 (including k = 1) become uniform 1/k.
    """
    k = centroids.shape[0]
    sims = cosine_similarities(H_norm, centroids)
    val = 1.0 - sims
    hi = val.max(axis=1, keepdims=True)
    lo = val.min(axis=1, keepdims=True)
    x = (hi - val) / (hi - lo + EPS)
    subx = x / (x.sum(axis=1, keepdims=True) + EPS)
    degenerate = (hi - lo).ravel() < DEGENERATE_SPREAD
    if degenerate.any():
        subx[degenerate] = 1.0 / k
    return subx
