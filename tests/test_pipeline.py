import numpy as np
import pytest

from ditsgcr.graph_model import TemporalGraph, build_graph
from ditsgcr.pipeline import (PipelineConfig, count_unique_embeddings, run)
from ditsgcr.temporal_aggregation import output_width
from helpers import edge_rows, random_connected_graph, straight_line_pipeline


def edgeless_graph(n):
    keys = [f"a{i}" for i in range(n)]
    none = np.empty(0, dtype=np.int64)
    return TemporalGraph(n_nodes=n, n_edges=0,
                         key_to_id={k: i for i, k in enumerate(keys)},
                         id_to_key=list(keys),
                         entry_ptr=np.zeros(n + 1, dtype=np.int64), entry_t=none,
                         in_ptr=np.zeros(1, dtype=np.int64), in_ids=none,
                         out_ptr=np.zeros(1, dtype=np.int64), out_ids=none)


def test_count_unique_rounding():
    base = np.array([[0.123456731, 2.0], [0.123456739, 2.0]])
    assert count_unique_embeddings(base) == 1  # differ below 1e-6
    apart = np.array([[0.12341, 2.0], [0.12349, 2.0]])
    assert count_unique_embeddings(apart) == 2
    signed_zero = np.array([[-1e-9, 1.0], [1e-9, 1.0]])
    assert count_unique_embeddings(signed_zero) == 1  # -0.0 folds into +0.0
    assert count_unique_embeddings(np.zeros((0, 4))) == 0


def test_count_unique_matches_np_unique():
    rng = np.random.default_rng(0)
    for _ in range(20):
        H = np.round(rng.normal(size=(30, 4)), int(rng.integers(0, 9)))
        expected = np.unique(np.round(H, 6) + 0.0, axis=0).shape[0]
        assert count_unique_embeddings(H) == expected


def test_empty_graph():
    res = run(edgeless_graph(0), PipelineConfig(clusters=3))
    assert res.embeddings.shape == (0, output_width(3))
    assert res.iterations_run == 0
    assert res.unique_counts == [0]
    assert res.stop_reason == "no_gain"


def test_edgeless_graph_collapses_immediately():
    res = run(edgeless_graph(12), PipelineConfig(clusters=3, seed=1))
    assert res.embeddings.shape == (12, output_width(3))
    assert np.all(res.embeddings == 0.0)
    assert res.unique_counts == [1, 1]
    assert res.iterations_run == 1
    assert res.stop_reason == "no_gain"


def test_deterministic_bitwise():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 25, extra_edges=40)
    cfg = PipelineConfig(clusters=4, seed=7)
    a = run(g, cfg)
    b = run(g, cfg)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert a.unique_counts == b.unique_counts
    assert a.iterations_run == b.iterations_run


def test_matches_straight_line_rerun():
    rng = np.random.default_rng(2)
    for trial in range(5):
        g = random_connected_graph(rng, 20, extra_edges=30)
        cfg = PipelineConfig(clusters=3, seed=trial, max_iters=6)
        res = run(g, cfg)
        expected = straight_line_pipeline(g, cfg)
        assert np.array_equal(res.embeddings, expected)


def test_unique_counts_shape_invariants():
    rng = np.random.default_rng(3)
    reasons = set()
    for trial in range(5):
        g = random_connected_graph(rng, 18, extra_edges=25)
        for max_iters in (1, 8):
            cfg = PipelineConfig(clusters=3, seed=trial, max_iters=max_iters)
            res = run(g, cfg)
            counts = res.unique_counts
            assert len(counts) == res.iterations_run + 1
            assert 1 <= res.iterations_run <= cfg.max_iters
            assert all(0 <= c <= g.n_nodes for c in counts)
            # every adopted step strictly increased the distinct-row count
            for prev, nxt in zip(counts[:-2], counts[1:-1]):
                assert nxt > prev
            if res.stop_reason == "no_gain":
                assert counts[-1] <= counts[-2]
            else:
                assert res.stop_reason == "max_iters"
                assert res.iterations_run == cfg.max_iters and counts[-1] > counts[-2]
            reasons.add(res.stop_reason)
    assert reasons == {"no_gain", "max_iters"}


def test_all_distinct_rows_still_end_by_no_gain():
    # no stop when every row is distinct: a run costs the same iterations
    # whether or not the graph's rows all come apart
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 18, extra_edges=25)
    cfg = PipelineConfig(clusters=3, seed=0)
    res = run(g, cfg)
    assert res.unique_counts == [17, 18, 18] and g.n_nodes == 18
    assert res.stop_reason == "no_gain" and res.iterations_run == 2
    assert np.array_equal(res.embeddings, straight_line_pipeline(g, cfg))


def test_one_node_graph():
    g = build_graph([("a", "a", 1)])
    res = run(g, PipelineConfig(clusters=1))
    assert res.embeddings.shape == (1, output_width(1))
    assert res.unique_counts == [1, 1] and res.iterations_run == 1
    assert res.stop_reason == "no_gain"
    with pytest.raises(ValueError, match="2 clusters"):
        run(g, PipelineConfig(clusters=2))


def test_self_loop_only_graph():
    g = build_graph([("a", "a", 1), ("b", "b", 2), ("c", "c", 2)])
    cfg = PipelineConfig(clusters=2, seed=3)
    res = run(g, cfg)
    assert res.embeddings.shape == (3, output_width(2))
    assert np.array_equal(res.embeddings, straight_line_pipeline(g, cfg))
    assert res.stop_reason == "no_gain"


def test_duplicate_rows():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 15, extra_edges=20)
    doubled = build_graph(edge_rows(g) * 2)
    cfg = PipelineConfig(clusters=3, seed=1)
    res = run(doubled, cfg)
    # row-normalized neighbor sums make the first lift blind to multiplicity
    assert res.unique_counts[0] == run(g, cfg).unique_counts[0]
    assert np.array_equal(res.embeddings, straight_line_pipeline(doubled, cfg))


def test_more_clusters_than_distinct_rows():
    star = build_graph([("hub", f"leaf{i}", 5) for i in range(6)])
    cfg = PipelineConfig(clusters=4, seed=2)
    res = run(star, cfg)
    assert res.unique_counts[0] == 2 < cfg.clusters <= star.n_nodes
    assert res.stop_reason == "no_gain"
    assert np.array_equal(res.embeddings, straight_line_pipeline(star, cfg))


def test_ablations_change_output():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 30, extra_edges=60)
    base_cfg = PipelineConfig(clusters=3, seed=5)
    base = run(g, base_cfg)
    assert base.iterations_run >= 1
    for flag in ("no_neighbor", "no_temporal", "no_laplacian"):
        cfg = PipelineConfig(clusters=3, seed=5, ablation=frozenset({flag}))
        ablated = run(g, cfg)
        assert not np.array_equal(ablated.embeddings, base.embeddings), flag
        res = straight_line_pipeline(g, cfg)
        assert np.array_equal(ablated.embeddings, res), flag


def test_ablation_zeroes_blocks():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 15, extra_edges=20)
    k = 3
    flat = 4 * k * k
    no_t = run(g, PipelineConfig(clusters=k, ablation=frozenset({"no_temporal"})))
    assert np.all(no_t.embeddings[:, :flat] == 0.0)
    assert np.any(no_t.embeddings[:, flat:] != 0.0)
    no_n = run(g, PipelineConfig(clusters=k, ablation=frozenset({"no_neighbor"})))
    assert np.all(no_n.embeddings[:, flat:] == 0.0)


def test_no_laplacian_skips_solver_stage():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 15, extra_edges=20)
    res = run(g, PipelineConfig(clusters=3, ablation=frozenset({"no_laplacian"})))
    assert "laplacian_solve" not in res.stage_counters
    full = run(g, PipelineConfig(clusters=3))
    assert full.stage_counters["laplacian_solve"] == full.iterations_run
    assert full.stage_counters["aggregate"] == full.iterations_run + 1


def test_recency_weight_mode_runs_and_differs():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 25, extra_edges=50, t_range=100)
    a = run(g, PipelineConfig(clusters=3, seed=2, weight_mode="count"))
    b = run(g, PipelineConfig(clusters=3, seed=2, weight_mode="recency", alpha=10.0))
    assert a.embeddings.shape == b.embeddings.shape


def test_fewer_nodes_than_clusters():
    g = build_graph([("a", "b", 1)])
    with pytest.raises(ValueError, match="10 clusters need at least 10 nodes"):
        run(g, PipelineConfig(clusters=10))


@pytest.mark.parametrize("field", ["alpha", "beta", "lam", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PipelineConfig(**{field: value}).validate()


def test_invalid_configs():
    for cfg in (PipelineConfig(clusters=0),
                PipelineConfig(alpha=0.0),
                PipelineConfig(beta=0.0),
                PipelineConfig(max_iters=0),
                PipelineConfig(kmeans_iters=0),
                PipelineConfig(lam=-0.5),
                PipelineConfig(mu=0.0),
                PipelineConfig(weight_mode="nope"),
                PipelineConfig(ablation=frozenset({"bogus"}))):
        with pytest.raises(ValueError):
            cfg.validate()
