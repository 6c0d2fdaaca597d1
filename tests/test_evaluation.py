import math

import numpy as np
import pytest

from ditsgcr.evaluation import (ForestConfig, SplitSpec, compute_metrics,
                                predict_scores, roc_curve, split, train_forest)
from ditsgcr.graph_model import LabelSet
from helpers import cart_fit, cart_predict, loop_roc_curve, pairwise_auc


def blob_data(rng, n_per_class=30, dim=4, gap=4.0):
    X0 = rng.normal(size=(n_per_class, dim))
    X1 = rng.normal(size=(n_per_class, dim)) + gap
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def test_split_small_counts():
    labels = {i: 0 for i in range(5)}
    labels.update({i: 1 for i in range(5, 10)})
    train, test = split(labels, SplitSpec(train_fraction=0.8, seed=0))
    assert len(train) == 8 and len(test) == 2
    assert sum(labels[int(k)] for k in train) == 4
    assert sum(labels[int(k)] for k in test) == 1


def test_split_proportions():
    labels = {i: 0 for i in range(80)}
    labels.update({i: 1 for i in range(80, 100)})
    train, test = split(labels, SplitSpec(train_fraction=0.8, seed=1))
    assert len(train) == 80 and len(test) == 20
    assert sum(labels[int(k)] for k in train) == 16
    assert sum(labels[int(k)] for k in test) == 4


def test_split_clamps_to_leave_one_out():
    labels = {0: 0, 1: 0, 2: 1, 3: 1}
    train, test = split(labels, SplitSpec(train_fraction=0.99, seed=0))
    # floor would take every row; clamp leaves one of each class for test
    assert sorted(labels[int(k)] for k in test) == [0, 1]
    train, test = split(labels, SplitSpec(train_fraction=0.01, seed=0))
    assert sorted(labels[int(k)] for k in train) == [0, 1]


def test_split_disjoint_covering_deterministic():
    rng = np.random.default_rng(2)
    labels = {i: int(rng.integers(2)) for i in range(57)}
    labels[0] = 0
    labels[1] = 1
    spec = SplitSpec(train_fraction=0.7, seed=9)
    train1, test1 = split(labels, spec)
    train2, test2 = split(labels, spec)
    assert np.array_equal(train1, train2) and np.array_equal(test1, test2)
    assert set(train1.tolist()).isdisjoint(test1.tolist())
    assert sorted(train1.tolist() + test1.tolist()) == sorted(labels)


def test_split_accepts_label_set():
    ls = LabelSet(labels={0: 0, 1: 1, 2: 0, 3: 1}, skipped_keys=[])
    train, test = split(ls, SplitSpec(seed=0))
    assert sorted(train.tolist() + test.tolist()) == [0, 1, 2, 3]


def test_split_rejects_missing_or_singleton_class():
    with pytest.raises(ValueError):
        split({0: 0, 1: 0}, SplitSpec())
    with pytest.raises(ValueError):
        split({0: 0, 1: 0, 2: 1}, SplitSpec())


def test_forest_learns_separable_data():
    rng = np.random.default_rng(4)
    X, y = blob_data(rng)
    forest = train_forest(X, y, ForestConfig(n_trees=20, seed=0))
    Xt, yt = blob_data(rng)
    scores = predict_scores(forest, Xt)
    preds = (scores >= 0.5).astype(int)
    assert (preds == yt).mean() >= 0.95


def test_forest_deterministic():
    rng = np.random.default_rng(5)
    X, y = blob_data(rng, n_per_class=20, gap=1.0)
    a = train_forest(X, y, ForestConfig(n_trees=10, seed=3))
    b = train_forest(X, y, ForestConfig(n_trees=10, seed=3))
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
    assert np.array_equal(predict_scores(a, X), predict_scores(b, X))


def test_forest_requires_both_classes():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        train_forest(X, np.array([1, 1, 1, 1]), ForestConfig(n_trees=2))


def test_forest_is_exact_on_training_data_without_bagging():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    cfg = ForestConfig(n_trees=5, bootstrap=False, features_per_split=3, seed=0)
    forest = train_forest(X, y, cfg)
    scores = predict_scores(forest, X)
    assert np.array_equal((scores >= 0.5).astype(int), y)
    assert set(np.unique(scores)) <= {0.0, 1.0}  # identical trees


def test_single_tree_matches_exhaustive_cart():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(4, 9))
        dim = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, dim)), 1)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = ForestConfig(n_trees=1, bootstrap=False,
                           features_per_split=dim, seed=trial)
        forest = train_forest(X, y, cfg)
        tree = cart_fit(X, y)
        probe = np.round(rng.normal(size=(30, dim)), 1)
        for data in (X, probe):
            got = (predict_scores(forest, data) >= 0.5).astype(int)
            assert np.array_equal(got, cart_predict(tree, data)), trial


def test_predict_scores_is_vote_fraction():
    rng = np.random.default_rng(8)
    X, y = blob_data(rng, n_per_class=15, gap=0.5)
    forest = train_forest(X, y, ForestConfig(n_trees=7, seed=1))
    scores = predict_scores(forest, X)
    votes = np.array([t.predict(X) for t in forest.trees])
    assert np.array_equal(scores, votes.mean(axis=0))
    with pytest.raises(ValueError):
        predict_scores(forest, X[:, :2])


def test_metrics_hand_case():
    # 9 true positives, 1 false positive, 3 false negatives, 7 true negatives
    y = np.array([1] * 12 + [0] * 8)
    scores = np.array([0.9] * 9 + [0.1] * 3 + [0.8] + [0.2] * 7)
    m = compute_metrics(scores, y, threshold=0.35)
    assert (m.tp, m.fp, m.fn, m.tn) == (9, 1, 3, 7)
    assert m.precision == pytest.approx(0.9, abs=1e-12)
    assert m.recall == pytest.approx(0.75, abs=1e-12)
    assert m.f1 == pytest.approx(2 * 0.9 * 0.75 / (0.9 + 0.75), abs=1e-12)
    f1_neg = 2 * (7 / 10) * (7 / 8) / ((7 / 10) + (7 / 8))
    expected_wf1 = (12 / 20) * m.f1 + (8 / 20) * f1_neg
    assert m.weighted_f1 == pytest.approx(expected_wf1, abs=1e-12)
    assert not m.degenerate


def test_threshold_is_inclusive():
    y = np.array([1, 0])
    m = compute_metrics(np.array([0.35, 0.34]), y)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 0, 0, 1)


def test_metrics_degenerate_no_predicted_positives():
    y = np.array([1, 1, 0, 0])
    m = compute_metrics(np.array([0.1, 0.2, 0.0, 0.3]), y)
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate


def test_metrics_require_both_classes():
    with pytest.raises(ValueError):
        compute_metrics(np.array([0.5, 0.6]), np.array([1, 1]))


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(4, 101))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(size=n), int(rng.integers(1, 3)))
        m = compute_metrics(scores, y)
        assert m.auc == pytest.approx(pairwise_auc(scores, y), abs=1e-12)


def test_auc_all_tied_scores():
    y = np.array([1, 0, 1, 0, 0])
    m = compute_metrics(np.full(5, 0.7), y)
    assert m.auc == pytest.approx(0.5, abs=1e-12)
    assert m.roc_points == [(0.0, 0.0), (1.0, 1.0)]
    assert m.roc_thresholds[0] == math.inf


def test_roc_shape_and_monotonicity():
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, size=50)
    y[:2] = [0, 1]
    scores = np.round(rng.random(50), 1)
    points, thresholds = roc_curve(scores, y)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    assert thresholds[0] == math.inf
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    assert thresholds[1:] == sorted(thresholds[1:], reverse=True)
    # one point per distinct score plus the origin
    assert len(points) == len(set(scores.tolist())) + 1


def test_roc_matches_loop_oracle_on_ties_and_signed_zeros():
    rng = np.random.default_rng(11)
    palette = np.array([0.0, -0.0, 0.35, 0.5, 1.0, -0.25])
    for trial in range(300):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        scores = rng.choice(palette[:int(rng.integers(1, len(palette) + 1))], size=n)
        got = roc_curve(scores, y)
        assert repr(got) == repr(loop_roc_curve(scores, y)), trial
        assert repr(compute_metrics(scores, y).roc_thresholds) == repr(got[1])
    # a tied -0.0/0.0 group reports the score that sorts first
    _, thresholds = roc_curve(np.array([0.0, -0.0, 1.0]), np.array([0, 1, 1]))
    assert repr(thresholds) == "[inf, 1.0, 0.0]"
    _, thresholds = roc_curve(np.array([-0.0, 0.0, 1.0]), np.array([0, 1, 1]))
    assert repr(thresholds) == "[inf, 1.0, -0.0]"


def test_tree_arrays_are_immutable_record():
    rng = np.random.default_rng(12)
    X, y = blob_data(rng, n_per_class=10, gap=1.0)
    tree = train_forest(X, y, ForestConfig(n_trees=1, seed=0)).trees[0]
    n_nodes = len(tree.value)
    for name, dtype in (("feature", np.int64), ("threshold", np.float64),
                        ("left", np.int64), ("right", np.int64), ("value", np.int64)):
        column = getattr(tree, name)
        assert column.dtype == dtype and column.shape == (n_nodes,)
    leaf = tree.value >= 0
    assert np.all(tree.feature[leaf] == -1) and np.all(tree.left[leaf] == -1)
    assert np.all(tree.left[~leaf] > 0) and np.all(tree.right[~leaf] > 0)
    with pytest.raises(AttributeError):
        tree.value = np.zeros(1, dtype=np.int64)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be finite"):
        compute_metrics(np.array([0.1, 0.9]), np.array([0, 1]), threshold=threshold)


def test_perfect_and_inverted_rankings():
    y = np.array([0, 0, 1, 1])
    assert compute_metrics(np.array([0.1, 0.2, 0.8, 0.9]), y).auc == 1.0
    assert compute_metrics(np.array([0.9, 0.8, 0.2, 0.1]), y).auc == 0.0
