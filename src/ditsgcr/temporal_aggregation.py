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
restart. One Python step advances every running chain.
The outer products of each w with z sum into a 2K x 2K structure matrix
Z_v, as per-node segment sums one 2K-column block at a time, per block of
whole nodes so the products stay small; each node still sums its entries
in entry order. The same node blocks build W and run the restart test in
one pass. W, the restart test, each recurrence step and the sums are
row-local, so no bit depends on their blocks, which may run on
clustering.map_blocks' threads in any order. The output row is
[flatten(Z_v), s_v], width 4K^2 + 2K.
"""

import logging

import numpy as np

from . import clustering
from .csr import CSR

logger = logging.getLogger(__name__)

SUBNORMAL = np.nextafter(np.finfo(np.float64).tiny, 0)  # x > it: x is normal or more
# timeline entries per block of whole nodes, in the pass that builds W and
# runs the restart test and in the structure sums; chains per recurrence
# step. Node blocks take 8 times as many where clustering.block_pool(n)
# starts threads, which contend for the GIL that each block's sparse
# products hold; on one thread larger blocks cost memory
BLOCK_ENTRIES = 2048


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

    # (v0, v1) of whole nodes, at most `size` entries or one node, for the
    # pool's threads: W with the restart test, then the structure sums
    size = BLOCK_ENTRIES * (8 if clustering.pool_threads(n) else 1)
    cuts = [0]
    while cuts[-1] < n:
        end = np.searchsorted(entry_ptr, entry_ptr[cuts[-1]] + size, "right") - 1
        cuts.append(max(cuts[-1] + 1, end))
    blocks = list(zip(cuts, cuts[1:]))

    W = np.empty((n_entries, two_k))  # [A_in Z, A_out Z], normalized per row
    # a step starts a chain at its node's first step and at each restart
    start = np.zeros(n_entries, dtype=bool)

    def timesteps(v0, v1):  # the rows of W of nodes v0..v1-1, then their restart test
        e0, e1 = entry_ptr[v0], entry_ptr[v1]
        for ptr, ids, c in ((graph.in_ptr, graph.in_ids, 0), (graph.out_ptr, graph.out_ids, k)):
            nbrs = ids[ptr[e0]:ptr[e1]]
            A = CSR(ptr[e0:e1 + 1] - ptr[e0], nbrs, np.ones(len(nbrs)), (e1 - e0, n))
            W[e0:e1, c:c + k] = A @ Z
        _row_normalize(W[e0:e1])
        if e1 - e0 < 2:
            return
        m = lengths[v0:v1]
        dead = ~np.logical_or.reduceat(W[e0:e1] != 0, entry_ptr[v0:v1][m > 0] - e0)  # per node
        exact = np.abs(W[e0 + 1:e1]) > np.maximum(decay[e0:e1 - 1] * 2.0**55, SUBNORMAL)[:, None]
        exact |= np.repeat(dead, m[m > 0], axis=0)[1:]
        e = e0 + np.flatnonzero(has_prev[e0:e1 - 1] & (exact.all(axis=1) | ~has_prev[e0 + 1:e1]))
        start[e] = True

    clustering.map_blocks(timesteps, blocks)

    # step p advances the p-th step of every chain longer than p; sorting
    # chains by length keeps those a prefix of `heads`
    bounds = np.flatnonzero(start | ~has_prev)  # a chain ends above the bound below it
    steps = np.diff(bounds, prepend=-1)[start[bounds]]
    order = np.argsort(-steps, kind="stable")
    heads = bounds[start[bounds]][order]  # each chain's first step
    active = np.searchsorted(-steps[order], -np.arange(steps.max(initial=0)), side="left")
    logger.debug("lift: %d entries, %d chains, %d restarts, longest chain %d steps",
                 n_entries, len(heads), len(heads) - np.count_nonzero(lengths > 1), len(active))
    zrows = np.zeros((n_entries, two_k))

    def step(p, i0, i1):  # chains i0..i1-1 take their p-th step
        e = heads[i0:i1] - p  # p = 0: z = 0, and d * 0 is +0.0
        zrows[e] = _row_normalize(W[e + 1] + (decay[e, None] * zrows[e + 1] if p else 0.0))

    for p, chains in enumerate(active.tolist()):  # blocks keep the temporaries small
        clustering.map_blocks(step, ((p, i, min(i + BLOCK_ENTRIES, chains))
                                     for i in range(0, chains, BLOCK_ENTRIES)))
    del start, bounds, steps, order, heads, active

    H = np.empty((n, output_width(k)))

    def structure_sums(v0, v1):  # nodes v0..v1-1, segment sums per node in entry order
        e0, e1 = entry_ptr[v0], entry_ptr[v1]
        seg = CSR(entry_ptr[v0:v1 + 1] - e0, np.arange(e1 - e0), np.ones(e1 - e0),
                  (v1 - v0, e1 - e0))  # node x entry
        Wb, zb = W[e0:e1], zrows[e0:e1]
        for a in range(two_k):
            H[v0:v1, a * two_k:(a + 1) * two_k] = seg @ (Wb[:, a:a + 1] * zb)
        H[v0:v1, two_k * two_k:] = seg @ Wb

    clustering.map_blocks(structure_sums, blocks)
    return H
