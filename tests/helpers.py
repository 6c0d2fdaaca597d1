"""Shared test oracles and generators.

Everything here is written straight-line and independently of the
package internals it checks, so implementation and oracle can only agree
by computing the same mathematics.
"""

import math

import numpy as np

from ditsgcr.graph_model import PAIR_DTYPE, build_graph

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
        H = temporal_aggregation.aggregate(graph, Z, config.alpha, config.literal_eq4)
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
            weights = adjacency_weights(graph, config.weight_mode, config.alpha)
            Z = laplacian.solve(subx, weights, R,
                                laplacian.LaplacianParams(lam=config.lam, mu=config.mu))
        H_new = lift(Z)
        count_new = distinct(H_new)
        if count >= count_new:
            return H
        H = H_new
        count = count_new
    return H
