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
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_T_MAX = 2**63 - 1  # timestamps are stored as int64

# one undirected node pair u < v and its transaction count w (float64)
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


def first_seen(ends):
    """(ids, first) numbering the values of the 1-d array ends by first
    appearance: ends[i] is numbered ids[i], and value j is ends[first[j]]."""
    _, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


def _offsets(groups, n):
    """CSR offsets (n + 1, int64) of sorted group numbers in 0..n-1."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=n), out=ptr[1:])
    return ptr


def build_graph(edges) -> TemporalGraph:
    """Build a TemporalGraph from an iterable of (src_key, dst_key, t) tuples.

    Ids are assigned in first-seen order, source field before target field
    within a row: first_seen's rule, here for Python keys. Timestamps must
    already be validated ints in 0..2**63-1.
    """
    key_to_id = {}
    ends = []
    times = []
    for src_key, dst_key, t in edges:
        ends.append(key_to_id.setdefault(src_key, len(key_to_id)))
        ends.append(key_to_id.setdefault(dst_key, len(key_to_id)))
        times.append(t)
    src, dst = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return graph_from_ids(src, dst, np.array(times, dtype=np.int64), key_to_id)


def graph_from_ids(src, dst, t, key_to_id) -> TemporalGraph:
    """TemporalGraph of int64 edge arrays; key_to_id maps keys to ids, in id order."""
    n, m = len(key_to_id), len(t)
    # one half-edge per endpoint: the source's out side (index < m), then the target's
    # in side. lexsort is stable, which keeps each entry's neighbor runs in row order.
    owner = np.concatenate([src, dst])
    t2 = np.concatenate([t, t])
    order = np.lexsort((-t2, owner))
    owner_s, t_s = owner[order], t2[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (owner_s[1:] != owner_s[:-1]) | (t_s[1:] != t_s[:-1])
    entry = np.cumsum(first) - 1  # of each sorted half-edge
    n_entries = int(first.sum())
    out = order < m
    return TemporalGraph(
        n_nodes=n, n_edges=m, key_to_id=key_to_id, id_to_key=list(key_to_id),
        entry_ptr=_offsets(owner_s[first], n), entry_t=t_s[first],
        in_ptr=_offsets(entry[~out], n_entries), in_ids=src[order[~out] - m],
        out_ptr=_offsets(entry[out], n_entries), out_ids=dst[order[out]],
    )


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _parse_timestamp(s: str, lineno: int) -> int:
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


def _iter_csv_rows(path, columns, header_field):
    """Yield (line number, stripped fields) for the data rows of a CSV file.

    Rows are numbered by the physical line they start on; blank ones are
    skipped. A first row whose field header_field is not a number is a
    header, and skipped too. Raises ValueError, with the line number, on a
    row with fewer than `columns` fields, with an empty account key (a
    field before header_field), or that csv cannot read.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start = 1  # the physical line the next row starts on
        header = True
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                fields = [f.strip() for f in row]
                if not any(fields):
                    continue
                if len(fields) < columns:
                    raise ValueError(f"line {lineno}: expected at least {columns} columns, "
                                     f"got {len(fields)}")
                if header:
                    header = False
                    if not _is_number(fields[header_field]):
                        continue
                if not all(fields[:header_field]):
                    raise ValueError(f"line {lineno}: empty account key")
                yield lineno, fields
        except csv.Error as exc:
            raise ValueError(f"line {start}: {exc}") from None


def _bulk_edges(data):
    """graph_from_ids arguments (src, dst, t, key_to_id) of edge CSV bytes,
    read with numpy; None unless csv is sure to read the same rows: UTF-8
    with no quote, NUL or lone CR, lines within csv's field limit, the first
    three fields non-empty with printable ASCII ends, timestamps of 1-19
    digits up to 2**63-1, a key matrix (rows x longest key) up to 4x the file."""
    data = data[3:] if data.startswith(b"\xef\xbb\xbf") else data  # a UTF-8 BOM
    data = data if data.endswith(b"\n") else data + b"\n"
    if b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n"):
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    a = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(a == 10)
    starts = np.append(0, ends[:-1] + 1)
    stops = ends - (a[ends - 1] == 13)  # a CR there is a CRLF's
    commas = np.append(np.flatnonzero(a == 44), [len(a)] * 3)
    i = np.searchsorted(commas, starts)
    lo = np.stack([starts, commas[i] + 1, commas[i + 1] + 1])  # the first three fields
    hi = np.stack([commas[i], commas[i + 1], np.minimum(commas[i + 2], stops)])
    if ((stops - starts).max() > csv.field_size_limit() or (hi[1] >= stops).any()
            or (hi <= lo).any() or (np.append(a[lo], a[hi - 1]) - 33 > 94).any()):
        return None  # too long, too few fields, or an edge csv might strip
    if not _is_number(data[lo[2, 0]:hi[2, 0]].decode("utf-8")):
        lo, hi = lo[:, 1:], hi[:, 1:]  # the header
    rows, width = lo.shape[1], hi[2] - lo[2]
    t, bad = np.zeros(rows, np.uint64), width > 19
    for j in range(min(width.max(initial=0), 19)):
        live = width > j
        digit = a[np.where(live, lo[2] + j, 0)] - 48  # uint8 wraps: non-digits > 9
        bad |= live & (digit > 9)
        t = np.where(live, t * 10 + digit, t)
    starts, lens = lo[:2].T.ravel(), (hi[:2] - lo[:2]).T.ravel()  # src, dst, src, ...
    w = int(lens.max(initial=0))
    if not rows or bad.any() or (t > np.uint64(_T_MAX)).any() or rows * w > 4 * len(a):
        return None
    keys = np.lib.stride_tricks.sliding_window_view(np.append(a, np.zeros(w, np.uint8)), w)
    keys = (keys[starts] * (np.arange(w) < lens[:, None])).view(f"S{w}").ravel()  # NUL-padded
    ids, first = first_seen(keys)
    names = b"\n".join(keys[first].tolist()).decode("utf-8")  # S drops the padding
    src, dst = ids.reshape(-1, 2).T
    return src, dst, t.astype(np.int64), dict(zip(names.split("\n"), range(len(first))))


def ingest_csv(path) -> TemporalGraph:
    """Read a source,target,timestamp CSV into a TemporalGraph.

    One transaction per row; extra columns are ignored. A header is a
    first row with a non-numeric timestamp field; a leading UTF-8 BOM is
    dropped. Raises ValueError, with the line number, on the rows
    _iter_csv_rows rejects and on unparsable, negative, fractional or
    above 2**63-1 timestamps. Plain files are read by _bulk_edges, others
    and every error by csv; the graph is the same either way.
    """
    with open(path, "rb") as fh:
        bulk = _bulk_edges(fh.read())
    graph = graph_from_ids(*bulk) if bulk else build_graph(
        (f[0], f[1], _parse_timestamp(f[2], lineno)) for lineno, f in _iter_csv_rows(path, 3, 2))
    logger.info("ingested %s: %d nodes, %d edges", path, graph.n_nodes, graph.n_edges)
    return graph


def ingest_labels(path, graph: TemporalGraph) -> dict:
    """Read an account,label CSV into {node id: label} (1 = malicious).

    Labels must be exactly "0" or "1"; a header is a first row with a
    non-numeric label field. Accounts absent from the graph are skipped
    and counted, once each, in a warning. An account listed twice, present
    or absent, must carry the same label both times.
    """
    labels = {}
    absent = {}  # key -> label of accounts not in the graph
    for lineno, (key, raw, *_) in _iter_csv_rows(path, 2, 1):
        if raw not in ("0", "1"):
            raise ValueError(f"line {lineno}: label {raw!r} not in {{0,1}}")
        node = graph.key_to_id.get(key)
        book, slot = (absent, key) if node is None else (labels, node)
        if book.setdefault(slot, int(raw)) != int(raw):
            raise ValueError(f"line {lineno}: account {key!r} labeled {raw}, "
                             f"listed earlier as {book[slot]}")
    if absent:
        logger.warning("%d labeled accounts not present in graph, skipped", len(absent))
    return labels


def adjacency_weights(graph: TemporalGraph) -> np.ndarray:
    """Collapse the multigraph into symmetric transaction-count pair weights.

    Returns one PAIR_DTYPE record per linked node pair, u < v, sorted by
    (u, v) and unique, so len() is the pair count; w counts the
    transactions between u and v in either direction. Self-loops are
    excluded.
    """
    u, v, _ = graph.out_edges()
    keep = u != v  # self-loops stay in timelines only
    u, v = u[keep], v[keep]
    n = graph.n_nodes
    pairs, counts = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                              return_counts=True)
    out = np.empty(len(pairs), dtype=PAIR_DTYPE)
    out["u"], out["v"] = np.divmod(pairs, n)
    out["w"] = counts
    return out


def write_edge_csv(graph: TemporalGraph, path) -> None:
    """Write the graph back out as from,to,timestamp rows under a header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "timestamp"])
        for u, v, t in graph.iter_edges():
            writer.writerow([graph.id_to_key[u], graph.id_to_key[v], t])


def write_label_csv(graph: TemporalGraph, labels: dict, path) -> None:
    """Write account,label rows for every labeled node, ordered by node id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["account", "label"])
        for node in sorted(labels):
            writer.writerow([graph.id_to_key[node], labels[node]])
