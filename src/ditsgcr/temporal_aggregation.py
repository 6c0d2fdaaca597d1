"""Directed temporal neighbor aggregation.

Each node starts from a low-dimensional row of Z (|V| x K) and is lifted
to a high-dimensional structural embedding. Per timeline entry the K-dim
rows of incoming and of outgoing neighbors are summed, concatenated to a
2K timestep vector w and L2-normalized jointly; for all entries at once
that is W = normalize([A_in Z, A_out Z]) with the entry x node neighbor
matrices of the graph's CSR arrays. Summing a node's w over its timeline
gives the neighborhood term s_v. A recurrent temporal state z walks each
timeline in chronological order; one Python step advances every node
that still has entries at that timeline position. Once a single node is
left (a hub's long tail), a second loop steps its contiguous entries
in place through slice views, without index arrays. The outer products of
each w with the state accumulate into a 2K x 2K structure matrix Z_v,
computed as per-node segment sums one 2K-column block at a time, per
block of whole nodes so the products stay small; each node still sums its
entries in entry order, so the blocks may run on clustering.map_blocks'
threads in any order. The output row is [flatten(Z_v), s_v], width 4K^2 + 2K.
"""

import math

import numpy as np
import scipy.sparse as sp

from . import clustering

EPS = 1e-10
# timeline entries per block of whole nodes in the structure sums; 8 times as
# many on a pool, whose threads contend for the GIL that each block's 2K + 1
# sparse products hold in Python (on one thread the small blocks ran faster)
BLOCK_ENTRIES = 2048


def output_width(k: int) -> int:
    """Embedding width for K clusters: 4K^2 + 2K."""
    return 4 * k * k + 2 * k


def _row_normalize(X: np.ndarray) -> np.ndarray:
    return X / (np.sqrt(np.einsum("ij,ij->i", X, X)) + EPS)[:, None]


def _csr_ones(ptr, ids, n_cols):
    return sp.csr_matrix((np.ones(len(ids)), ids, ptr), shape=(len(ptr) - 1, n_cols))


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
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = Z.shape[1]
    two_k = 2 * k
    entry_ptr, entry_t = graph.entry_ptr, graph.entry_t
    n_entries = len(entry_t)

    W = np.empty((n_entries, two_k))  # [A_in Z, A_out Z], then normalized in place
    W[:, :k] = _csr_ones(graph.in_ptr, graph.in_ids, n) @ Z
    W[:, k:] = _csr_ones(graph.out_ptr, graph.out_ids, n) @ Z
    W /= (np.sqrt(np.einsum("ij,ij->i", W, W)) + EPS)[:, None]  # as _row_normalize

    # entry e (descending storage) follows entry e + 1 in time within its node
    lengths = np.diff(entry_ptr)
    has_prev = np.ones(n_entries, dtype=bool)
    has_prev[entry_ptr[1:][lengths > 0] - 1] = False
    decay = np.ones(n_entries)
    e = np.flatnonzero(has_prev)
    with np.errstate(over="ignore"):  # a tiny alpha overflows to -inf, exp gives 0
        decay[e] = np.exp(-(entry_t[e] - entry_t[e + 1]) / alpha)

    # step p advances the p-th entry (0-based, ascending time) of every node
    # longer than p; sorting nodes by length keeps those a prefix of `order`
    order = np.argsort(-lengths, kind="stable")
    first = entry_ptr[order + 1] - 1  # each node's earliest entry
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)),
                             side="left")
    zrows = np.zeros((n_entries, two_k))
    z = np.zeros((n, two_k))
    multi = max(1, int(np.count_nonzero(active > 1)))  # steps with 2+ nodes
    for p in range(1, multi):
        e = first[:active[p]] - p
        z = _row_normalize(W[e + 1] + decay[e, None] * z[:len(e)])
        zrows[e] = z
    if len(active) > multi:  # one node left: its entries are contiguous, step in place
        z = z[:1]
        for e in range(first[0] - multi, first[0] - len(active), -1):
            z = np.multiply(decay[e], z, out=zrows[e:e + 1])
            z += W[e + 1:e + 2]
            z /= math.sqrt(np.einsum("ij,ij->i", z, z)[0]) + EPS  # as _row_normalize

    H = np.empty((n, output_width(k)))

    def structure_sums(v0, v1):  # nodes v0..v1-1, segment sums per node in entry order
        e0, e1 = entry_ptr[v0], entry_ptr[v1]
        seg = _csr_ones(entry_ptr[v0:v1 + 1] - e0, np.arange(e1 - e0), e1 - e0)  # node x entry
        Wb, zb = W[e0:e1], zrows[e0:e1]
        for a in range(two_k):
            H[v0:v1, a * two_k:(a + 1) * two_k] = seg @ (Wb[:, a:a + 1] * zb)
        H[v0:v1, two_k * two_k:] = seg @ Wb

    size = BLOCK_ENTRIES * (8 if clustering.pooled() else 1)
    cuts = [0]  # blocks of at most `size` entries, or one node
    while cuts[-1] < n:
        end = np.searchsorted(entry_ptr, entry_ptr[cuts[-1]] + size, "right") - 1
        cuts.append(max(cuts[-1] + 1, end))
    clustering.map_blocks(structure_sums, zip(cuts, cuts[1:]))
    return H
