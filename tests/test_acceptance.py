"""Acceptance gate: one test per release criterion.

Each test checks its property suite against an independent oracle from
helpers.py and asserts its own wall-time budget. The extended-dataset
test at the bottom only runs when the dataset paths are supplied via
environment variables.
"""

import math
import os
import time

import numpy as np
import pytest

from ditsgcr import evaluation, pipeline, synthgen
from ditsgcr.clustering import (compute_subx, cosine_similarities,
                                normalize_rows, soft_assign)
from ditsgcr.graph_model import build_graph, ingest_csv, ingest_labels
from ditsgcr.temporal_aggregation import aggregate
from helpers import (brute_force_embeddings, dense_solve, dense_system,
                     hard_assign_onehot, pairwise_auc, random_connected_graph,
                     random_graph, straight_line_pipeline)

BENCHMARK = synthgen.SynthConfig()  # 1900 normals, 100 phishers, seed 42


def benchmark_metrics(graph, labels, seed, ablation=()):
    """The evaluate flow with one master seed, as the CLI wires it."""
    cfg = pipeline.PipelineConfig(seed=seed, ablation=frozenset(ablation))
    res = pipeline.run(graph, cfg)
    H = res.embeddings
    train_ids, test_ids = evaluation.split(labels, seed=seed)
    forest = evaluation.train_forest(H[train_ids], [labels[i] for i in train_ids], seed=seed)
    scores = evaluation.predict_scores(forest, H[test_ids])
    return evaluation.compute_metrics(scores, [labels[i] for i in test_ids],
                                      threshold=0.35)


def test_c01_aggregation_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(200):
        g = random_graph(rng, max_nodes=5, max_distinct_times=4)
        k = 1 + trial % 3
        Z = rng.normal(size=(g.n_nodes, k))
        alpha = float(rng.uniform(0.5, 5.0))
        got = aggregate(g, Z, alpha)
        expected = brute_force_embeddings(g, Z, alpha)
        assert np.max(np.abs(got - expected)) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_c02_literal_mode_scalar_cancellation():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    alphas = (0.5, 1.0, 60.0)
    for _ in range(50):
        g = random_graph(rng, max_nodes=5, max_distinct_times=4, t_range=40)
        # splice in a three-timestamp node so the default recurrence has
        # a decay step whose scale actually matters
        extra = [("m0", "m1", 1), ("m1", "m0", 7), ("m0", "m1", 19)]
        edges = [(g.id_to_key[u], g.id_to_key[v], t) for u, v, t in g.iter_edges()]
        g = build_graph(edges + extra)
        Z = rng.normal(size=(g.n_nodes, 2))

        # Eq. 4's growth form scales each sum by exp(+dt/alpha), which cancels
        # under normalization: for every alpha it is the lift without decay
        no_decay = aggregate(g, Z, 1e300)
        for a in alphas:
            growth = brute_force_embeddings(g, Z, a, literal=True)
            assert np.max(np.abs(growth - no_decay)) <= 1e-9

        default = [aggregate(g, Z, a) for a in alphas]
        diffs = [np.max(np.abs(a - b))
                 for i, a in enumerate(default) for b in default[i + 1:]]
        assert max(diffs) > 1e-9
    assert time.perf_counter() - start < 10.0


def test_c03_clustering_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(103)

    # (a) soft assignment rows are distributions for any beta
    for beta in (0.1, 1.0, 10.0, 1e6):
        sims = rng.uniform(-1, 1, size=(40, 6))
        R = soft_assign(sims, beta)
        assert np.max(np.abs(R.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(np.isfinite(R))

    # (b) beta = 1e6 reproduces the hard assignment step of K-means
    checked = ambiguous = 0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(2, 6))
        H_norm = normalize_rows(rng.normal(size=(n, 8)))
        centroids = normalize_rows(rng.normal(size=(k, 8)))
        R = soft_assign(cosine_similarities(H_norm, centroids), 1e6)
        onehot, sims = hard_assign_onehot(H_norm, centroids)
        top2 = np.sort(sims, axis=1)
        clear = (top2[:, -1] - top2[:, -2]) > 1e-4  # unambiguous argmax rows
        assert np.max(np.abs(R[clear] - onehot[clear])) <= 1e-6
        checked += int(clear.sum())
        ambiguous += int((~clear).sum())
    assert checked > 50 * ambiguous  # near-ties must stay rare

    # (c) the three subx hand cases
    e1 = np.array([[1.0, 0.0, 0.0, 0.0]])
    two = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert compute_subx(e1, two)[0] == pytest.approx([1.0, 0.0], abs=1e-9)

    same = np.array([[0.5, math.sqrt(0.75), 0.0, 0.0]] * 3)
    assert compute_subx(e1, same)[0] == pytest.approx([1 / 3] * 3, abs=1e-12)

    spread = np.array([[0.8, 0.6, 0.0, 0.0],
                       [0.5, 0.0, math.sqrt(0.75), 0.0],
                       [0.2, 0.0, 0.0, math.sqrt(0.96)]])
    assert compute_subx(e1, spread)[0] == pytest.approx([2 / 3, 1 / 3, 0.0],
                                                        abs=1e-9)
    assert time.perf_counter() - start < 30.0


def test_c04_laplacian_solver_matches_dense_solves():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    grid = [(lam, mu) for lam in (0.1, 1.0, 10.0) for mu in (0.1, 1.0, 10.0)]
    from ditsgcr.laplacian import solve
    from ditsgcr.graph_model import adjacency_weights
    for trial in range(100):
        n = int(rng.integers(4, 51))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        weights = adjacency_weights(g)
        k = int(rng.integers(2, 5))
        R = rng.dirichlet(np.ones(k), size=g.n_nodes)
        subx = rng.dirichlet(np.ones(k), size=g.n_nodes)
        lam, mu = grid[trial % len(grid)]

        M = dense_system(weights, R, lam, mu)
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() >= mu - 1e-8

        got = solve(subx, weights, R, lam=lam, mu=mu)
        expected = dense_solve(subx, weights, R, lam, mu)
        denom = max(1.0, float(np.abs(expected).max()))
        assert np.abs(got - expected).max() / denom <= 1e-5
    assert time.perf_counter() - start < 60.0


def test_c05_pipeline_matches_straight_line_rerun():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for trial in range(20):
        g = random_connected_graph(rng, 20, extra_edges=int(rng.integers(10, 40)))
        cfg = pipeline.PipelineConfig(clusters=(2, 3, 5)[trial % 3], seed=trial)
        res = pipeline.run(g, cfg)
        assert np.array_equal(res.embeddings, straight_line_pipeline(g, cfg))
        assert res.iterations_run <= 10
        adopted = res.unique_counts[:-1]  # the final count was not adopted
        if res.iterations_run == cfg.max_iters and \
                res.unique_counts[-1] > res.unique_counts[-2]:
            adopted = res.unique_counts
        for prev, nxt in zip(adopted[:-1], adopted[1:]):
            assert nxt > prev
    assert time.perf_counter() - start < 60.0


def test_c06_metrics_arithmetic_and_auc_oracle():
    start = time.perf_counter()
    y = np.array([1] * 12 + [0] * 8)
    scores = np.array([0.9] * 9 + [0.1] * 3 + [0.8] + [0.2] * 7)
    m = evaluation.compute_metrics(scores, y, threshold=0.35)
    assert (m.tp, m.fp, m.fn) == (9, 1, 3)
    assert m.precision == pytest.approx(0.9, abs=1e-9)
    assert m.recall == pytest.approx(0.75, abs=1e-9)
    assert m.f1 == pytest.approx(9 / 11, abs=1e-9)  # 0.818181...
    f1_neg = 2 * (7 / 10) * (7 / 8) / ((7 / 10) + (7 / 8))
    assert m.weighted_f1 == pytest.approx(0.6 * (9 / 11) + 0.4 * f1_neg, abs=1e-9)

    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(4, 101))
        yy = rng.integers(0, 2, size=n)
        if yy.min() == yy.max():
            yy[0] = 1 - yy[0]
        ss = np.round(rng.random(size=n), int(rng.integers(1, 3)))  # force ties
        got = evaluation.compute_metrics(ss, yy).auc
        assert got == pytest.approx(pairwise_auc(ss, yy), abs=1e-12)
    assert time.perf_counter() - start < 10.0


def test_c07_synthetic_benchmark_detection():
    start = time.perf_counter()
    graph, labels = synthgen.generate(BENCHMARK)
    assert graph.n_nodes == 2001 and graph.n_edges == 12659
    m = benchmark_metrics(graph, labels, seed=42)
    assert m.auc >= 0.90
    assert m.f1 >= 0.80
    # frozen first-run values; the pipeline is deterministic end to end
    assert (m.tp, m.fp, m.fn, m.tn) == (20, 0, 0, 381)
    assert m.f1 == pytest.approx(1.0, abs=1e-12)
    assert m.auc == pytest.approx(1.0, abs=1e-12)
    assert time.perf_counter() - start < 120.0


def test_c08_ablations_do_not_beat_full_model():
    start = time.perf_counter()
    graph, labels = synthgen.generate(BENCHMARK)
    seeds = range(42, 47)

    def mean_f1(ablation):
        return float(np.mean([benchmark_metrics(graph, labels, s, ablation).f1
                              for s in seeds]))

    full = mean_f1(())
    for flag in ("no_neighbor", "no_temporal", "no_laplacian"):
        assert full >= mean_f1((flag,)) - 0.02, flag
    assert time.perf_counter() - start < 600.0


def test_c09_iteration_cost_scales_linearly():
    start = time.perf_counter()
    cfg = pipeline.PipelineConfig(max_iters=1)

    def synth_graph(n_normal, n_phisher, seed):
        return synthgen.generate(synthgen.SynthConfig(
            n_normal=n_normal, n_phisher=n_phisher, seed=seed))[0]

    def one_iteration_seconds(g):
        t0 = time.perf_counter()
        pipeline.run(g, cfg)
        return time.perf_counter() - t0

    one_iteration_seconds(synth_graph(2000, 100, 1))  # warm-up
    small, big = synth_graph(16000, 800, 7), synth_graph(32000, 1600, 8)
    assert 90_000 <= small.n_edges <= 115_000
    assert 190_000 <= big.n_edges <= 230_000
    assert big.n_edges / small.n_edges >= 1.9
    # interleaved, fastest of each size: load from another process slows only
    # the timings near it, which one timing per size would read as superlinear
    t_small, t_big = [], []
    for _ in range(3):
        t_small.append(one_iteration_seconds(small))
        t_big.append(one_iteration_seconds(big))
    assert min(t_big) / min(t_small) <= 2.5
    assert time.perf_counter() - start < 600.0


EXTENDED_EDGES = os.environ.get("DITSGCR_EXTENDED_EDGES")
EXTENDED_LABELS = os.environ.get("DITSGCR_EXTENDED_LABELS")


@pytest.mark.skipif(not (EXTENDED_EDGES and EXTENDED_LABELS),
                    reason="extended dataset not supplied; set "
                           "DITSGCR_EXTENDED_EDGES and DITSGCR_EXTENDED_LABELS")
def test_c10_extended_dataset_reproduction():
    # multi-hour full-scale run, opt-in only
    graph = ingest_csv(EXTENDED_EDGES)
    labels = ingest_labels(EXTENDED_LABELS, graph)
    m = benchmark_metrics(graph, labels, seed=42)
    assert m.f1 == pytest.approx(0.9156, abs=0.03)
    assert m.auc == pytest.approx(0.96, abs=0.02)
