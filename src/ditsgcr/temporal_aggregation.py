"""Directed temporal neighbor aggregation.

Each node starts from a low-dimensional row of Z (|V| x K) and is lifted
to a high-dimensional structural embedding. Per timeline entry the K-dim
rows of incoming and of outgoing neighbors are summed, concatenated to a
2K timestep vector w and L2-normalized jointly; for all entries at once
that is W = normalize([A_in Z, A_out Z]) with the entry x node neighbor
matrices of the graph's CSR arrays. Summing a node's w over its timeline
gives the neighborhood term s_v. A recurrent temporal state z walks each
timeline in chronological order, z' = normalize(w + d z). A step restarts
when w_j is a normal float with d * 2**55 < |w_j| in every column j that is
non-zero in some entry of its node. Then w + d z == w, as from z = 0:
  |z_j| <= 1 gives |fl(d z_j)| <= d < 2**-55 |w_j|, less than half the
  spacing of the floats next to w_j, and the columns that are zero in the
  whole node keep z_j = +0.0.
So timelines split into independent chains at their first step and at each
restart; a chain never crosses a node. The outer products of each w with z
sum into a 2K x 2K structure matrix Z_v, as per-node segment sums one
2K-column block at a time; each node sums its entries in entry order.
Every stage is node-local, so the lift runs one pass per block of whole
nodes: it builds the block's rows of W, runs their restart test, sorts the
block's chains by length and advances all of them one step per Python
step, then sums the block's rows of H. W and z exist one block at a time.
Every operation is row-local, so no bit depends on the blocks, which may
run on clustering.map_blocks' threads in any order. Blocks hold 4096
entries on every graph and CPU count: in process, 8192 or more lifted a
2001-node graph 14-21% slower, 2048 a 16001-node one on two threads 20%.
The output row is [flatten(Z_v), s_v], width 4K^2 + 2K.
"""

import logging

import numpy as np

from . import clustering
from .csr import CSR

logger = logging.getLogger(__name__)

SUBNORMAL = np.nextafter(np.finfo(np.float64).tiny, 0)  # x > it: x is normal or more
# timeline entries per block of whole nodes, each lifted end to end in one
# pass; fewer slow a pooled lift, more a small graph's (module docstring)
BLOCK_ENTRIES = 4096


def output_width(k: int) -> int:
    """Embedding width for K clusters: 4K^2 + 2K."""
    return 4 * k * k + 2 * k


def _row_normalize(X: np.ndarray) -> np.ndarray:
    """Divides each row of X in place by (its L2 norm + 1e-10); returns X."""
    X /= (np.sqrt(np.einsum("ij,ij->i", X, X)) + clustering.EPS)[:, None]
    return X


def aggregate(graph, Z: np.ndarray, alpha: float) -> np.ndarray:
    """Lift Z (|V| x K) to high-dimensional embeddings H (|V| x 4K^2+2K).

    Row v is [flatten(Z_v) row-major, s_v]. With w_1..w_n the node's
    timestep vectors in ascending time, s_v = sum_i w_i and
    Z_v = sum_{i>=2} w_i z_i^T, where z_1 = 0 and

        z_i = normalize(w_{i-1} + exp(-(t_i - t_{i-1}) / alpha) z_{i-1}).

    Duplicate neighbor ids count with multiplicity; normalization divides
    by (norm + 1e-10), so a side without neighbors keeps zeros. Eq. 4's
    growth form scales the sum by exp(+dt/alpha), a positive scalar that
    cancels under the normalization; it is alpha = 1e300, which makes
    every decay factor exactly 1.0 for any int64 gap. Nodes without
    entries get an all-zero row. Raises ValueError when Z's row count
    does not match the graph or alpha is not positive.
    """
    n = graph.n_nodes
    if Z.ndim != 2 or Z.shape[0] != n:
        raise ValueError(f"Z has shape {Z.shape}, expected ({n}, K)")
    if not alpha > 0:  # NaN too
        raise ValueError("alpha must be positive")
    k = Z.shape[1]
    two_k = 2 * k
    entry_ptr, entry_t = graph.entry_ptr, graph.entry_t
    n_entries = len(entry_t)

    # entry e (descending storage) follows entry e + 1 in time within its node
    lengths = np.diff(entry_ptr)
    has_prev = np.ones(n_entries, dtype=bool)
    has_prev[entry_ptr[1:][lengths > 0] - 1] = False
    decay = np.ones(n_entries)
    e = np.flatnonzero(has_prev)
    with np.errstate(over="ignore"):  # a tiny alpha overflows to -inf, exp gives 0
        decay[e] = np.exp(-(entry_t[e] - entry_t[e + 1]) / alpha)

    # (v0, v1) of whole nodes, at most BLOCK_ENTRIES entries or one node; each
    # is lifted end to end in one task, so W and z exist one block at a time
    cuts = [0]
    while cuts[-1] < n:
        end = np.searchsorted(entry_ptr, entry_ptr[cuts[-1]] + BLOCK_ENTRIES, "right") - 1
        cuts.append(max(cuts[-1] + 1, end))
    H = np.empty((n, output_width(k)))
    stats = []  # per block: chains, restarts, longest chain

    def lift(v0, v1):  # nodes v0..v1-1: W, restart test, chains, structure sums
        e0, e1 = entry_ptr[v0], entry_ptr[v1]
        W = np.empty((e1 - e0, two_k))  # [A_in Z, A_out Z], normalized per row
        for ptr, ids, c in ((graph.in_ptr, graph.in_ids, 0), (graph.out_ptr, graph.out_ids, k)):
            nbrs = ids[ptr[e0]:ptr[e1]]
            A = CSR(ptr[e0:e1 + 1] - ptr[e0], nbrs, np.ones(len(nbrs)), (e1 - e0, n))
            W[:, c:c + k] = A @ Z
        _row_normalize(W)
        prev, d, m = has_prev[e0:e1], decay[e0:e1], lengths[v0:v1]
        dead = ~np.logical_or.reduceat(W != 0, entry_ptr[v0:v1][m > 0] - e0)  # per node
        exact = np.abs(W[1:]) > np.maximum(d[:-1] * 2.0**55, SUBNORMAL)[:, None]
        exact |= np.repeat(dead, m[m > 0], axis=0)[1:]
        # a step starts a chain at its node's first step and at each restart
        start = np.zeros(e1 - e0, dtype=bool)
        start[:-1] = prev[:-1] & (exact.all(axis=1) | ~prev[1:])

        # step p advances the p-th step of every chain longer than p; sorting
        # chains by length keeps those a prefix of `heads`
        bounds = np.flatnonzero(start | ~prev)  # a chain ends above the bound below it
        steps = np.diff(bounds, prepend=-1)[start[bounds]]
        order = np.argsort(-steps, kind="stable")
        heads = bounds[start[bounds]][order]  # each chain's first step
        active = np.searchsorted(-steps[order], -np.arange(steps.max(initial=0)), side="left")
        stats.append((len(heads), len(heads) - np.count_nonzero(m > 1), len(active)))
        z = np.zeros((e1 - e0, two_k))
        for p, chains in enumerate(active.tolist()):
            e = heads[:chains] - p  # p = 0: z = 0, and d * 0 is +0.0
            z[e] = _row_normalize(W[e + 1] + (d[e, None] * z[e + 1] if p else 0.0))

        # segment sums per node in entry order
        seg = CSR(entry_ptr[v0:v1 + 1] - e0, np.arange(e1 - e0), np.ones(e1 - e0),
                  (v1 - v0, e1 - e0))  # node x entry
        for a in range(two_k):
            H[v0:v1, a * two_k:(a + 1) * two_k] = seg @ (W[:, a:a + 1] * z)
        H[v0:v1, two_k * two_k:] = seg @ W

    clustering.map_blocks(lift, zip(cuts, cuts[1:]))
    per_block = np.array(stats, dtype=np.int64).reshape(-1, 3)
    logger.debug("lift: %d entries, %d chains, %d restarts, longest chain %d steps",
                 n_entries, *per_block[:, :2].sum(axis=0), per_block[:, 2].max(initial=0))
    return H
