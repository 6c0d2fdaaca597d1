"""Directed temporal transaction graphs.

Edge lists arrive as CSV rows (source account, target account, integer
timestamp). Ingestion assigns dense integer ids in first-seen order and
stores the graph columnar, in CSR style: each node owns a run of timeline
entries (one per distinct timestamp, int64, descending), and each entry
owns a run of incoming and a run of outgoing neighbor ids. Ingest, synth,
the temporal lift and the adjacency weights all read these flat arrays.
Only the timestamp is kept per transaction; extra columns (amounts,
gas, ...) are ignored. Duplicate rows are kept, each counts as its own
transaction.
"""

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

WEIGHT_MODES = ("count", "recency")

_T_MAX = 2**63 - 1  # timestamps are stored as int64

# one undirected node pair u < v and its summed weight w
PAIR_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


@dataclass(eq=False)
class TemporalGraph:
    """A directed multigraph stored as flat per-node timelines.

    Node ids are dense ints 0..n_nodes-1, bijective with the original
    account keys via key_to_id / id_to_key. A timeline entry is one
    (node, timestamp) pair: node v owns entries entry_ptr[v] to
    entry_ptr[v+1] - 1, ordered by strictly descending entry_t. Entry e's
    in-neighbors are in_ids[in_ptr[e]:in_ptr[e+1]] (out_ids alike), in
    input row order with duplicates kept; a self-loop appears on both
    sides. Every entry has at least one neighbor.
    """

    n_nodes: int
    n_edges: int
    key_to_id: dict
    id_to_key: list
    entry_ptr: np.ndarray
    entry_t: np.ndarray
    in_ptr: np.ndarray
    in_ids: np.ndarray
    out_ptr: np.ndarray
    out_ids: np.ndarray

    @property
    def timelines(self):
        """Read-only per-node views of the entry timestamps (diagnostics)."""
        t = self.entry_t.view()
        t.flags.writeable = False
        return [t[a:b] for a, b in zip(self.entry_ptr[:-1], self.entry_ptr[1:])]

    def out_edges(self):
        """(u, v, t) int64 arrays of every directed edge, one per transaction.

        Ordered by source node, then descending t, then input row order.
        """
        n_entries = len(self.entry_t)
        owner = np.repeat(np.arange(self.n_nodes), np.diff(self.entry_ptr))
        entry = np.repeat(np.arange(n_entries), np.diff(self.out_ptr))
        return owner[entry], self.out_ids, self.entry_t[entry]

    def iter_edges(self):
        """Iterate every directed edge as (u, v, t) ints, in out_edges() order."""
        u, v, t = self.out_edges()
        return zip(u.tolist(), v.tolist(), t.tolist())


@dataclass
class LabelSet:
    """Binary node labels keyed by node id (1 = malicious)."""

    labels: dict
    skipped_keys: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)


def _csr(rows, cols, n_rows):
    """(ptr, ids) grouping cols by rows, stable within a row."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")]


def build_graph(edges) -> TemporalGraph:
    """Build a TemporalGraph from an iterable of (src_key, dst_key, t) tuples.

    Ids are assigned in first-seen order, source field before target field
    within a row. Timestamps must already be validated ints in
    0..2**63-1.
    """
    key_to_id = {}
    ends = []
    times = []
    for src_key, dst_key, t in edges:
        ends.append(key_to_id.setdefault(src_key, len(key_to_id)))
        ends.append(key_to_id.setdefault(dst_key, len(key_to_id)))
        times.append(t)
    n = len(key_to_id)
    src, dst = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    t = np.array(times, dtype=np.int64)

    # one half-edge per endpoint: the source's out side, then the target's in side
    owner = np.concatenate([src, dst])
    t2 = np.concatenate([t, t])
    order = np.lexsort((-t2, owner))
    owner_s, t_s = owner[order], t2[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (owner_s[1:] != owner_s[:-1]) | (t_s[1:] != t_s[:-1])
    entry_of = np.empty(len(order), dtype=np.int64)
    entry_of[order] = np.cumsum(first) - 1
    n_entries = int(first.sum())

    m = len(t)
    entry_ptr, entry_t = _csr(owner_s[first], t_s[first], n)
    out_ptr, out_ids = _csr(entry_of[:m], dst, n_entries)
    in_ptr, in_ids = _csr(entry_of[m:], src, n_entries)
    return TemporalGraph(
        n_nodes=n, n_edges=m, key_to_id=key_to_id, id_to_key=list(key_to_id),
        entry_ptr=entry_ptr, entry_t=entry_t,
        in_ptr=in_ptr, in_ids=in_ids, out_ptr=out_ptr, out_ids=out_ids,
    )


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _parse_timestamp(raw: str, lineno: int) -> int:
    s = raw.strip()
    try:
        t = int(s)
    except ValueError:
        if _is_number(s):
            raise ValueError(
                f"line {lineno}: fractional timestamp {s!r}, whole seconds required")
        raise ValueError(f"line {lineno}: unparsable timestamp {s!r}")
    if t < 0:
        raise ValueError(f"line {lineno}: negative timestamp {s!r}")
    if t > _T_MAX:
        raise ValueError(f"line {lineno}: timestamp {s!r} exceeds 2**63-1")
    return t


def _iter_csv_rows(path):
    """Yield (lineno, row) for non-blank rows of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not f.strip() for f in row):
                continue
            yield lineno, row


def ingest_csv(path) -> TemporalGraph:
    """Stream a source,target,timestamp CSV into a TemporalGraph.

    One transaction per row; extra columns are ignored. A header row is
    detected by a non-numeric timestamp field in row 1 and skipped.
    Raises ValueError, with the line number, on rows with fewer than 3
    columns and on unparsable, negative, fractional or above 2**63-1
    timestamps.
    """

    def edge_rows():
        first = True
        for lineno, row in _iter_csv_rows(path):
            if len(row) < 3:
                raise ValueError(f"line {lineno}: expected at least 3 columns, got {len(row)}")
            if first:
                first = False
                if not _is_number(row[2].strip()):
                    continue  # header row
            yield row[0].strip(), row[1].strip(), _parse_timestamp(row[2], lineno)

    graph = build_graph(edge_rows())
    logger.info("ingested %s: %d nodes, %d edges", path, graph.n_nodes, graph.n_edges)
    return graph


def ingest_labels(path, graph: TemporalGraph) -> LabelSet:
    """Read an account,label CSV and key the labels by node id.

    Labels must be exactly "0" or "1". Accounts absent from the graph are
    skipped and reported via a warning; a header row is detected by a
    non-numeric label field in row 1. An account listed twice must carry
    the same label both times.
    """
    labels = {}
    skipped = []
    first = True
    for lineno, row in _iter_csv_rows(path):
        if len(row) < 2:
            raise ValueError(f"line {lineno}: expected account,label, got {len(row)} columns")
        key = row[0].strip()
        raw = row[1].strip()
        if first:
            first = False
            if not _is_number(raw):
                continue  # header row
        if raw not in ("0", "1"):
            raise ValueError(f"line {lineno}: label {raw!r} not in {{0,1}}")
        node = graph.key_to_id.get(key)
        if node is None:
            skipped.append(key)
            continue
        if labels.setdefault(node, int(raw)) != int(raw):
            raise ValueError(f"line {lineno}: account {key!r} labeled {raw}, "
                             f"listed earlier as {labels[node]}")
    if skipped:
        logger.warning("%d labeled accounts not present in graph, skipped", len(skipped))
    return LabelSet(labels=labels, skipped_keys=skipped)


def adjacency_weights(graph: TemporalGraph, mode: str = "count",
                      alpha: float = 1.0) -> np.ndarray:
    """Collapse the multigraph into symmetric pair weights.

    Returns one PAIR_DTYPE record per linked node pair, u < v, sorted by
    (u, v) and unique, so len() is the pair count. "count" sums
    transactions per pair; "recency" sums exp(-(T_max - t) / alpha) so
    old transactions fade. Self-loops are excluded; direction is
    discarded.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {mode!r}")
    if mode == "recency" and alpha <= 0:
        raise ValueError("recency weighting needs alpha > 0")
    u, v, t = graph.out_edges()
    keep = u != v  # self-loops stay in timelines only
    u, v, t = u[keep], v[keep], t[keep]
    if mode == "count":
        w = np.ones(len(t))
    else:
        w = np.exp((t - graph.entry_t.max(initial=0)) / alpha)
    n = graph.n_nodes
    pairs, inverse = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                               return_inverse=True)
    out = np.empty(len(pairs), dtype=PAIR_DTYPE)
    out["u"], out["v"] = np.divmod(pairs, n)
    # bincount adds each pair's weights in out_edges() order
    out["w"] = np.bincount(inverse, weights=w, minlength=len(pairs))
    return out


def write_edge_csv(graph: TemporalGraph, path) -> None:
    """Write the graph back out as from,to,timestamp rows under a header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "timestamp"])
        for u, v, t in graph.iter_edges():
            writer.writerow([graph.id_to_key[u], graph.id_to_key[v], t])


def write_label_csv(graph: TemporalGraph, labels: LabelSet, path) -> None:
    """Write account,label rows for every labeled node, ordered by node id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["account", "label"])
        for node in sorted(labels.labels):
            writer.writerow([graph.id_to_key[node], labels.labels[node]])
