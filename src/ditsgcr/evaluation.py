"""Classifier harness and metrics for labeled embeddings.

A stratified train/test split feeds a random forest (Gini impurity,
bootstrap sampling, ceil(sqrt(dim)) feature candidates per split). Tree
votes become scores (fraction of trees voting malicious) and metrics are
computed on the positive class at a score threshold, plus a
support-weighted F1 and the trapezoidal ROC AUC with ties grouped.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def split(labels, train_fraction: float = 0.8, seed: int = 42):
    """Split labeled node ids into (train_ids, test_ids), both sorted.

    Stratified: each class is shuffled separately and
    floor(train_fraction * n_c) of class c goes to train, clamped so both
    sides keep at least one example; both classes must be present with
    >= 2 examples each. Deterministic for a fixed seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    if not labels:
        raise ValueError("no labeled nodes")
    ids = np.array(sorted(labels), dtype=np.int64)
    y = np.array([labels[i] for i in ids], dtype=np.int64)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        members = ids[y == cls]
        if len(members) == 0:
            raise ValueError(f"class {cls} absent, cannot stratify")
        if len(members) < 2:
            raise ValueError(f"class {cls} has a single example, cannot stratify")
        perm = rng.permutation(len(members))
        n_train = int(train_fraction * len(members))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_parts.append(members[perm[:n_train]])
        test_parts.append(members[perm[n_train:]])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


class _Tree(NamedTuple):
    """Array-encoded binary decision tree. value >= 0 marks a leaf class."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            active = np.flatnonzero(self.value[node] < 0)
            if len(active) == 0:
                break
            cur = node[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]


def _best_split(xs_sorted, order, y, members, feats):
    """Best (feature, threshold) by weighted-Gini minimization over the rows
    order[f] lists by ascending feature f (values xs_sorted[f]), each weighted
    by its count in members. Candidate thresholds are midpoints between
    consecutive distinct values. Ties break toward the earlier feature in
    feats, then the lower threshold. None when no split separates the node.
    """
    m = len(members)
    weight = np.bincount(members, minlength=len(y))
    rows = order[feats]
    present = np.take(weight, rows).ravel() > 0  # the same count u of rows per feature
    rows = np.compress(present, rows).reshape(len(feats), -1)
    xs = np.compress(present, xs_sorted[feats]).reshape(rows.shape)
    pos_total = int(y[members].sum())

    n_left = np.cumsum(np.take(weight, rows), axis=1)[:, :-1].astype(np.float64)
    n_right = m - n_left
    pos_left = np.cumsum(np.take(weight * y, rows), axis=1)[:, :-1].astype(np.float64)
    pos_right = pos_total - pos_left
    p1l = pos_left / n_left
    p0l = 1.0 - p1l
    p1r = pos_right / n_right
    p0r = 1.0 - p1r
    gini_left = 1.0 - p1l * p1l - p0l * p0l
    gini_right = 1.0 - p1r * p1r - p0r * p0r
    weighted = (n_left * gini_left + n_right * gini_right) / m
    weighted[xs[:, 1:] <= xs[:, :-1]] = np.inf  # only boundaries between distinct values

    col, pos = divmod(int(np.argmin(weighted)), weighted.shape[1])  # earlier feature wins ties
    best = weighted[col, pos]
    if not np.isfinite(best):
        return None
    p = np.array([m - pos_total, pos_total], dtype=np.float64) / m
    parent = 1.0 - float((p * p).sum())
    if parent - best <= 1e-12:
        return None
    a, b = xs[col, pos:pos + 2].tolist()  # Python floats overflow to inf without a warning
    mid = (a + b) / 2.0
    return int(feats[col]), mid if a <= mid < b else a  # a rounded midpoint splits nothing


def _presort(X):
    """Per feature, X's values in ascending order and the row ids they come from."""
    order = np.argsort(X.T, axis=1).astype(np.int32)
    return np.take_along_axis(X.T, order, axis=1), order


def _grow_tree(X, xs_sorted, order, y, rng, features_per_split, bootstrap):
    """Grow one tree to purity, or until no split separates a node."""
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
            found = _best_split(xs_sorted, order, y, members, feats)
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
    return _Tree(np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
                 np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
                 np.array(value, dtype=np.int64))


@dataclass
class Forest:
    trees: list
    n_features: int


def train_forest(X: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 42) -> Forest:
    """Fit a random forest on rows of X with binary labels y.

    Deterministic for a fixed seed: per-tree generators are spawned from
    one seed sequence, so tree structures and predictions repeat exactly.
    Raises ValueError on a single-class training set, non-finite features or n_trees < 1.
    """
    if n_trees < 1:
        raise ValueError("need at least one tree")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError("X and y disagree on the number of rows")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    classes = np.unique(y)
    if not np.array_equal(classes, np.array([0, 1])):
        raise ValueError("training labels must contain both classes 0 and 1")
    dim = X.shape[1]
    features = min(math.ceil(math.sqrt(dim)), dim)
    xs_sorted, order = _presort(X)
    trees = [_grow_tree(X, xs_sorted, order, y, np.random.default_rng(s), features, True)
             for s in np.random.SeedSequence(seed).spawn(n_trees)]
    return Forest(trees=trees, n_features=dim)


def predict_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1, per row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} feature columns")
    votes = np.zeros(X.shape[0])
    for tree in forest.trees:
        votes += tree.predict(X)
    return votes / len(forest.trees)


@dataclass
class Metrics:
    precision: float
    recall: float
    f1: float
    weighted_f1: float
    auc: float
    tp: int
    fp: int
    fn: int
    tn: int
    roc_points: list  # (fpr, tpr) per grouped threshold
    roc_thresholds: list  # parallel to roc_points; inf for the (0, 0) point


def _prf(tp, fp, fn):
    """Precision, recall and F1; each is 0 where its ratio would be 0/0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def roc_curve(scores: np.ndarray, y: np.ndarray):
    """ROC points sweeping the decision threshold over distinct scores.

    Ties are grouped: one point per distinct score, classification rule
    score >= threshold. Returns (points, thresholds) starting at (0, 0)
    with threshold inf; the final distinct score yields (1, 1). A group's
    threshold is its first score in stable descending order, so of tied
    -0.0 and 0.0 the one listed first is reported.
    """
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(-scores, kind="stable")
    s = np.asarray(scores, dtype=np.float64)[order]
    change = s[1:] != s[:-1]
    first = np.flatnonzero(np.insert(change, 0, True)[:len(s)])
    last = np.flatnonzero(np.append(change, True)[:len(s)])
    tp = np.cumsum(y[order] == 1)[last]
    fp = last + 1 - tp
    points = [(0.0, 0.0)] + [(f / n_neg, t / n_pos) for f, t in zip(fp.tolist(), tp.tolist())]
    return points, [math.inf] + s[first].tolist()


def _trapezoid_auc(points) -> float:
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return auc


def compute_metrics(scores: np.ndarray, y: np.ndarray, threshold: float = 0.35) -> Metrics:
    """Positive-class metrics at the threshold plus weighted F1 and AUC.

    Classification rule is score >= threshold (inclusive). Division-by-
    zero cases yield 0. Requires at least one positive and one negative
    example, otherwise the ROC is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if scores.shape != y.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative example")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")

    pred = scores >= threshold
    tp = int((pred & (y == 1)).sum())
    fp = int((pred & (y == 0)).sum())
    fn = n_pos - tp
    tn = n_neg - fp

    precision, recall, f1 = _prf(tp, fp, fn)
    # one-vs-rest F1 for class 0: negatives predicted negative
    _, _, f1_neg = _prf(tn, fn, fp)
    n = len(y)
    weighted_f1 = (n_pos / n) * f1 + (n_neg / n) * f1_neg

    points, thresholds = roc_curve(scores, y)
    auc = _trapezoid_auc(points)

    return Metrics(precision=precision, recall=recall, f1=f1,
                   weighted_f1=weighted_f1, auc=auc,
                   tp=tp, fp=fp, fn=fn, tn=tn,
                   roc_points=points, roc_thresholds=thresholds)
