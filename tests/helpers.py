"""Shared test oracles and generators.

Everything here is written straight-line and independently of the
package internals it checks, so implementation and oracle can only agree
by computing the same mathematics.
"""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ditsgcr import clustering
from ditsgcr.graph_model import PAIR_DTYPE, TemporalGraph, build_graph

EPS = 1e-10


def random_graph(rng, max_nodes=5, max_distinct_times=4, max_edges=None, t_range=50):
    """Small random directed temporal multigraph (self-loops allowed)."""
    n = int(rng.integers(2, max_nodes + 1))
    if max_edges is None:
        max_edges = 2 * n
    m = int(rng.integers(1, max_edges + 1))
    n_times = int(rng.integers(1, max_distinct_times + 1))
    palette = rng.choice(t_range, size=n_times, replace=False)
    edges = []
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        t = int(rng.choice(palette))
        edges.append((f"a{u}", f"a{v}", t))
    return build_graph(edges)


def random_connected_graph(rng, n, extra_edges, t_range=1000):
    """Random graph guaranteed connected (a chain plus random extras)."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.append((f"a{u}", f"a{v}", int(rng.integers(t_range))))
    for _ in range(extra_edges):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        edges.append((f"a{u}", f"a{v}", int(rng.integers(t_range))))
    return build_graph(edges)


def edgeless_graph(n):
    """n accounts without a single timeline entry."""
    keys = [f"a{i}" for i in range(n)]
    none = np.empty(0, dtype=np.int64)
    return TemporalGraph(n_nodes=n, n_edges=0,
                         key_to_id={k: i for i, k in enumerate(keys)},
                         id_to_key=list(keys),
                         entry_ptr=np.zeros(n + 1, dtype=np.int64), entry_t=none,
                         in_ptr=np.zeros(1, dtype=np.int64), in_ids=none,
                         out_ptr=np.zeros(1, dtype=np.int64), out_ids=none)


def extra_peak(fn, *args):
    """(fn(*args), peak bytes the call held on top of what was live before).

    tracemalloc sees every numpy buffer, so the peak counts temporaries
    exactly, the returned arrays included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def record_helpers(monkeypatch):
    """A list that gets the max_workers of every executor clustering starts
    from now on: the helper threads of one map_blocks call."""
    started = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(clustering, "ThreadPoolExecutor", Recording)
    return started


def group_rows(rows):
    """Straight-line timelines of raw (src, dst, t) rows.

    {src or dst: {t: ([in keys], [out keys])}}, neighbor keys in row order.
    """
    out = {}
    for src, dst, t in rows:
        out.setdefault(src, {}).setdefault(t, ([], []))[1].append(dst)
        out.setdefault(dst, {}).setdefault(t, ([], []))[0].append(src)
    return out


def edge_rows(graph):
    """The graph's transactions as (src key, dst key, t) rows."""
    return [(graph.id_to_key[u], graph.id_to_key[v], t) for u, v, t in graph.iter_edges()]


def canonical_form(graph):
    """Order-free description keyed by account: {key: ((t, ins, outs), ...)}."""
    return {key: tuple(sorted(((t, tuple(sorted(ins)), tuple(sorted(outs)))
                               for t, (ins, outs) in per_t.items()), reverse=True))
            for key, per_t in group_rows(edge_rows(graph)).items()}


def brute_force_embeddings(graph, Z, alpha, literal=False):
    """Straight-line recomputation of the aggregation, one step at a time.

    Reads the graph only through its edge list, so the timelines it walks
    are grouped here, not taken from the columnar arrays under test."""
    n = graph.n_nodes
    k = Z.shape[1]
    H = np.zeros((n, 4 * k * k + 2 * k))
    for key, per_t in group_rows(edge_rows(graph)).items():
        entries = sorted(per_t.items())
        ws = []
        for _, (ins, outs) in entries:
            w = np.zeros(2 * k)
            for u in ins:
                w[:k] = w[:k] + Z[graph.key_to_id[u]]
            for u in outs:
                w[k:] = w[k:] + Z[graph.key_to_id[u]]
            ws.append(w / (np.linalg.norm(w) + EPS))
        s = np.zeros(2 * k)
        for w in ws:
            s = s + w
        struct = np.zeros((2 * k, 2 * k))
        z = np.zeros(2 * k)
        for i in range(1, len(entries)):
            dt = entries[i][0] - entries[i - 1][0]
            if literal:
                u_vec = math.exp(dt / alpha) * (ws[i - 1] + z)
            else:
                u_vec = ws[i - 1] + math.exp(-dt / alpha) * z
            z = u_vec / (np.linalg.norm(u_vec) + EPS)
            struct = struct + np.outer(ws[i], z)
        H[graph.key_to_id[key]] = np.concatenate([struct.reshape(-1), s])
    return H


def hard_assign_onehot(H, centroids):
    """One-hot argmax of guarded cosine similarity, computed directly."""
    hn = np.sqrt((H * H).sum(axis=1))
    cn = np.sqrt((centroids * centroids).sum(axis=1))
    sims = (H @ centroids.T) / ((hn[:, None] + EPS) * (cn[None, :] + EPS))
    out = np.zeros_like(sims)
    out[np.arange(len(H)), sims.argmax(axis=1)] = 1.0
    return out, sims


def weight_dict(weights):
    """{(u, v): w} from adjacency_weights' pair records; a dict passes through."""
    if isinstance(weights, dict):
        return weights
    return {(u, v): w for u, v, w in weights.tolist()}


def pair_array(weights):
    """Pair records, sorted by (u, v), from a {(u, v): w} dict."""
    return np.array([(u, v, w) for (u, v), w in sorted(weights.items())],
                    dtype=PAIR_DTYPE)


def dense_system(weights, R, lam, mu):
    """M = L + lam * sum_c L_c + mu * I assembled densely, loop by loop."""
    weights = weight_dict(weights)
    n, k = R.shape
    M = mu * np.eye(n)
    for (u, v), w in weights.items():
        M[u, u] += w
        M[v, v] += w
        M[u, v] -= w
        M[v, u] -= w
    for c in range(k):
        for (u, v), w in weights.items():
            wc = w * R[u, c] * R[v, c]
            M[u, u] += lam * wc
            M[v, v] += lam * wc
            M[u, v] -= lam * wc
            M[v, u] -= lam * wc
    return M


def cluster_laplacians(weights, R):
    """One dense Laplacian per cluster, edge weights scaled by r_uc * r_vc.

    Oracle for the <R_u, R_v> identity the solver assembles with:
    sum_c L_c equals the Laplacian of the weights w * <R_u, R_v>."""
    weights = weight_dict(weights)
    n, k = R.shape
    out = []
    for c in range(k):
        L = np.zeros((n, n))
        for (u, v), w in weights.items():
            wc = w * R[u, c] * R[v, c]
            L[u, u] += wc
            L[v, v] += wc
            L[u, v] -= wc
            L[v, u] -= wc
        out.append(L)
    return out


def dense_solve(subx, weights, R, lam, mu):
    M = dense_system(weights, R, lam, mu)
    return np.linalg.solve(M, mu * subx)


def pairwise_auc(scores, y):
    """Mann-Whitney statistic: P(score_pos > score_neg) + 0.5 P(equal)."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    pos = scores[y == 1]
    neg = scores[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_roc_curve(scores, y):
    """Grouped ROC by walking the stable descending order one score at a time.

    Each run of equal scores is one group whose threshold is the run's
    first score; returns (points, thresholds) like evaluation.roc_curve.
    """
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    thresholds = [math.inf]
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        s = scores[order[i]]
        while j < n and scores[order[j]] == s:
            if y[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(s))
        i = j
    return points, thresholds


def cart_fit(X, y):
    """Exhaustive CART oracle: every feature ascending, every midpoint
    between consecutive distinct sorted values ascending, strict
    improvement keeps the first winner."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)

    def gini_counts(labels):
        m = len(labels)
        p1 = labels.sum() / m
        p0 = 1.0 - p1
        return 1.0 - p1 * p1 - p0 * p0

    def grow(idx):
        ys = y[idx]
        counts = np.bincount(ys, minlength=2)
        if counts[0] == 0 or counts[1] == 0 or len(idx) < 2:
            return ("leaf", int(np.argmax(counts)))
        m = len(idx)
        best = None
        for f in range(X.shape[1]):
            vals = np.sort(X[idx, f])
            for a, b in zip(vals[:-1], vals[1:]):
                if a == b:
                    continue
                thr = (a + b) / 2.0
                mask = X[idx, f] <= thr
                n_left = float(mask.sum())
                n_right = m - n_left
                gl = gini_counts(y[idx[mask]])
                gr = gini_counts(y[idx[~mask]])
                weighted = (n_left * gl + n_right * gr) / m
                if best is None or weighted < best[0]:
                    best = (weighted, f, thr)
        if best is None or gini_counts(ys) - best[0] <= 1e-12:
            return ("leaf", int(np.argmax(counts)))
        _, f, thr = best
        mask = X[idx, f] <= thr
        return ("node", f, thr,
                grow(idx[mask]), grow(idx[~mask]))

    return grow(np.arange(len(y)))


def cart_predict(tree, X):
    X = np.asarray(X, dtype=np.float64)

    def one(node, x):
        if node[0] == "leaf":
            return node[1]
        _, f, thr, left, right = node
        return one(left, x) if x[f] <= thr else one(right, x)

    return np.array([one(tree, x) for x in X], dtype=np.int64)


def resorting_best_split(X, y, idx, feats):
    """Best (feature, threshold) by weighted-Gini minimization.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values. Ties break toward the earlier feature in feats, then
    the lower threshold. Returns None when no split separates the node.
    Sorts the node's (possibly repeated) rows at every call.
    """
    m = len(idx)
    Xs = X[np.ix_(idx, feats)]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = y[idx][order]
    pos_total = int(y[idx].sum())
    cum_pos = np.cumsum(ys, axis=0)

    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    n_right = m - n_left
    pos_left = cum_pos[:-1].astype(np.float64)
    pos_right = pos_total - pos_left
    p1l = pos_left / n_left
    p0l = 1.0 - p1l
    p1r = pos_right / n_right
    p0r = 1.0 - p1r
    gini_left = 1.0 - p1l * p1l - p0l * p0l
    gini_right = 1.0 - p1r * p1r - p0r * p0r
    weighted = (n_left * gini_left + n_right * gini_right) / m
    weighted[xs[1:] <= xs[:-1]] = np.inf  # only boundaries between distinct values

    flat = np.argmin(weighted.T)  # feature-major: earlier feature wins ties
    col, pos = divmod(int(flat), m - 1)
    best = weighted[pos, col]
    if not np.isfinite(best):
        return None
    p = np.array([m - pos_total, pos_total], dtype=np.float64) / m
    parent = 1.0 - float((p * p).sum())
    if parent - best <= 1e-12:
        return None
    a, b = xs[pos, col], xs[pos + 1, col]
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return int(feats[col]), float(mid if a <= mid < b else a)


def resorting_grow_tree(X, y, rng, features_per_split, bootstrap):
    """Grow one tree to purity, or until no split separates a node, with
    resorting_best_split; draws from rng in the order train_forest does."""
    n, dim = X.shape
    idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
    rows = [None]  # (feature, threshold, left, right, value), filled when popped
    stack = [(0, idx)]
    while stack:
        node, members = stack.pop()
        counts = np.bincount(y[members], minlength=2)
        found = None
        if counts.all():
            feats = rng.choice(dim, size=features_per_split, replace=False)
            feats.sort()
            found = resorting_best_split(X, y, members, feats)
        if found is None:
            rows[node] = (-1, 0.0, -1, -1, int(np.argmax(counts)))  # tie goes to class 0
            continue
        feat, thr = found
        left = len(rows)
        rows[node] = (feat, thr, left, left + 1, -1)
        rows += [None, None]
        go_left = X[members, feat] <= thr
        stack.append((left + 1, members[~go_left]))
        stack.append((left, members[go_left]))
    feature, threshold, left, right, value = zip(*rows)
    return (np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(value, dtype=np.int64))


def straight_line_pipeline(graph, config):
    """Independent re-execution of the embedding loop, step by step.

    Uses the same stage functions and seed derivation as the pipeline but
    its own orchestration and its own distinct-row counter (np.unique
    instead of the hash set)."""
    from ditsgcr import clustering, laplacian, temporal_aggregation
    from ditsgcr.graph_model import adjacency_weights

    n = graph.n_nodes
    k = config.clusters
    flat = 4 * k * k

    def lift(Z):
        H = temporal_aggregation.aggregate(graph, Z, config.alpha)
        if "no_temporal" in config.ablation:
            H[:, :flat] = 0.0
        if "no_neighbor" in config.ablation:
            H[:, flat:] = 0.0
        return H

    def distinct(H):
        return np.unique(np.round(H, 6) + 0.0, axis=0).shape[0]

    Z = np.full((n, k), 1.0 / k)
    H = lift(Z)
    count = distinct(H)
    for i in range(1, config.max_iters + 1):
        H_norm = clustering.normalize_rows(H)
        R, centroids = clustering.soft_kmeans(
            H_norm, k, config.beta, config.kmeans_iters, config.seed + i)
        subx = clustering.compute_subx(H_norm, centroids)
        if "no_laplacian" in config.ablation:
            Z = subx
        else:
            weights = adjacency_weights(graph)
            Z = laplacian.solve(subx, weights, R, lam=config.lam, mu=config.mu)
        H_new = lift(Z)
        count_new = distinct(H_new)
        if count >= count_new:
            return H
        H = H_new
        count = count_new
    return H


def loop_aggregate(graph, Z, alpha):
    """The lift with every recurrence step taken on index arrays and
    whole-array products.

    One step per timeline position advances all nodes still active there,
    down to the last one, with no single-node path and no restarts: each
    node's state runs through its whole timeline. W comes from np.hstack,
    and each structure block is one product over all timeline entries, with
    no blocks of nodes. temporal_aggregation.aggregate also splits timelines
    into chains at restarts, steps whose decayed state cannot change w; its
    outputs must match this oracle bit for bit, so every restart is exact."""
    import scipy.sparse as sp

    def normalize(X):
        return X / (np.sqrt(np.einsum("ij,ij->i", X, X)) + EPS)[:, None]

    def ones(ptr, ids, n_cols):
        return sp.csr_matrix((np.ones(len(ids)), ids, ptr), shape=(len(ptr) - 1, n_cols))

    n, k = Z.shape
    two_k = 2 * k
    entry_ptr, entry_t = graph.entry_ptr, graph.entry_t
    n_entries = len(entry_t)
    W = normalize(np.hstack([ones(graph.in_ptr, graph.in_ids, n) @ Z,
                             ones(graph.out_ptr, graph.out_ids, n) @ Z]))
    lengths = np.diff(entry_ptr)
    has_prev = np.ones(n_entries, dtype=bool)
    has_prev[entry_ptr[1:][lengths > 0] - 1] = False
    decay = np.ones(n_entries)
    e = np.flatnonzero(has_prev)
    decay[e] = np.exp(-(entry_t[e] - entry_t[e + 1]) / alpha)
    order = np.argsort(-lengths, kind="stable")
    first = entry_ptr[order + 1] - 1
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)),
                             side="left")
    zrows = np.zeros((n_entries, two_k))
    z = np.zeros((n, two_k))
    for p in range(1, len(active)):
        e = first[:active[p]] - p
        z = normalize(W[e + 1] + decay[e, None] * z[:len(e)])
        zrows[e] = z
    H = np.empty((n, 4 * k * k + two_k))
    seg = ones(entry_ptr, np.arange(n_entries), n_entries)
    for a in range(two_k):
        H[:, a * two_k:(a + 1) * two_k] = seg @ (W[:, a:a + 1] * zrows)
    H[:, two_k * two_k:] = seg @ W
    return H


def loop_kmeanspp_init(H_norm, k, seed):
    """k-means++ seeding with squared distances taken over all rows at once.

    Same draws and arithmetic as clustering.kmeanspp_init otherwise."""
    n = H_norm.shape[0]
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    is_chosen = np.zeros(n, dtype=bool)
    chosen[0] = rng.integers(n)
    is_chosen[chosen[0]] = True
    d2 = ((H_norm - H_norm[chosen[0]]) ** 2).sum(axis=1)
    for j in range(1, k):
        d2_eff = np.where(is_chosen, 0.0, d2)
        total = d2_eff.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2_eff / total))
        else:
            idx = int(rng.choice(np.flatnonzero(~is_chosen)))
        chosen[j] = idx
        is_chosen[idx] = True
        d2 = np.minimum(d2, ((H_norm - H_norm[idx]) ** 2).sum(axis=1))
    return H_norm[chosen].copy()


def loop_soft_kmeans(H_norm, centroids, beta, iters):
    """Soft k-means from the given seed centroids, recomputing the row norms
    of H_norm on every similarity call and taking squared distances over
    all rows at once; otherwise the same arithmetic as
    clustering.soft_kmeans. Returns (R, centroids)."""
    def cosine(H, C):
        hn = np.linalg.norm(H, axis=1)
        cn = np.linalg.norm(C, axis=1)
        return (H @ C.T) / ((hn[:, None] + EPS) * (cn[None, :] + EPS))

    R = None
    for _ in range(iters):
        logits = beta * cosine(H_norm, centroids)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        R = e / e.sum(axis=1, keepdims=True)
        totals = R.sum(axis=0)
        centroids = (R.T @ H_norm) / (totals[:, None] + EPS)
        centroids = centroids / (np.linalg.norm(centroids, axis=1, keepdims=True) + EPS)
        for c in np.flatnonzero(totals < 1e-8):  # dead centroid: move to the farthest row
            d2 = np.full(H_norm.shape[0], np.inf)
            for mu in centroids:
                d2 = np.minimum(d2, ((H_norm - mu) ** 2).sum(axis=1))
            row = H_norm[int(np.argmax(d2))]
            centroids[c] = row / (np.linalg.norm(row) + EPS)
    return R, centroids


def _normal_key(i: int) -> str:
    return f"n{i}"


def _phisher_key(i: int) -> str:
    return f"p{i}"


_SINK_KEY = "sink"


def tuple_generate_events(config):
    """Raw edge rows and labels-by-key for a config.

    The synth generator as one (src_key, dst_key, t) tuple per event,
    drawing from the generator in the same order as synthgen: an oracle
    for its arrays. Returns (events, labels_by_key); labels_by_key maps
    account key to 0/1 for every account that can appear.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    events = []

    counts = rng.poisson(config.normal_rate, size=config.n_normal)
    for u in range(config.n_normal):
        m = int(counts[u])
        if m == 0 or config.n_normal < 2:
            continue
        partners = rng.integers(0, config.n_normal - 1, size=m)
        partners = partners + (partners >= u)  # uniform over the others
        times = rng.integers(0, config.time_span, size=m)
        src = _normal_key(u)
        for p, t in zip(partners, times):
            events.append((src, _normal_key(int(p)), int(t)))

    for j in range(config.n_phisher):
        phisher = _phisher_key(j)
        start_cap = config.time_span - 2 * config.burst_window
        t0 = int(rng.integers(0, max(start_cap, 1)))
        victims = rng.choice(config.n_normal, size=config.burst_fanin, replace=False)
        in_times = t0 + rng.integers(0, config.burst_window, size=config.burst_fanin)
        for v, t in zip(victims, in_times):
            events.append((_normal_key(int(v)), phisher, int(t)))
        n_out = int(rng.integers(1, 4))
        out_times = t0 + config.burst_window + rng.integers(0, config.burst_window, size=n_out)
        for t in out_times:
            events.append((phisher, _SINK_KEY, int(t)))

    labels_by_key = {_normal_key(i): 0 for i in range(config.n_normal)}
    labels_by_key.update({_phisher_key(j): 1 for j in range(config.n_phisher)})
    if config.n_phisher > 0:
        labels_by_key[_SINK_KEY] = 0
    return events, labels_by_key


def tuple_generate(config):
    """(TemporalGraph, {node id: label}) through build_graph on the tuples."""
    events, labels_by_key = tuple_generate_events(config)
    graph = build_graph(events)
    labels = {graph.key_to_id[k]: lab for k, lab in labels_by_key.items()
              if k in graph.key_to_id}
    return graph, labels
