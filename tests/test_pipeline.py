import itertools
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsgcr import clustering, pipeline, synthgen, temporal_aggregation
from ditsgcr.graph_model import build_graph
from ditsgcr.pipeline import (PipelineConfig, count_unique_embeddings, run)
from ditsgcr.temporal_aggregation import output_width
from helpers import (edge_rows, edgeless_graph, extra_peak, random_connected_graph,
                     record_helpers, straight_line_pipeline)


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
        assert count_unique_embeddings(np.asfortranarray(H)) == expected  # rows not contiguous


# 1e-9 and -1e-9 round to +0.0 and -0.0; the last two values round to 1e-6 apart
VALUES = st.sampled_from([0.0, 1e-9, -1e-9, 2.5, -1.0, 0.1234564, 0.1234566])


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=4),
       picks=st.lists(st.integers(0, 3), max_size=24), block=st.integers(1, 5),
       weight=st.sampled_from([None, 0, 1]), fortran=st.booleans())
def test_count_unique_matches_np_unique_across_row_blocks(pool, picks, block, weight, fortran):
    # few pool rows and many picks: duplicates straddle the block edges. Key
    # weights of 0 give every row the same key, weights of 1 the plain sum of
    # its bits, the same for rows that permute one another
    H = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64).reshape(-1, 3)
    H = np.asfortranarray(H) if fortran else H
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "BLOCK_ROWS", block)
        if weight is not None:
            mp.setattr(pipeline, "_key_weights", lambda width: np.full(width, weight, np.uint64))
        got = count_unique_embeddings(H)
    assert got == np.unique(np.round(H, 6) + 0.0, axis=0).shape[0]


def test_count_keys_tell_short_mantissas_apart(monkeypatch):
    # 625 rows of halves and small integers, whose bits end in 51 or more
    # zeros: unshifted, their keys would differ in the top 13 bits only
    H = np.array(list(itertools.product([0.0, 0.5, 1.0, 2.0, 3.0], repeat=4)))
    unique = np.unique

    def keys_only(*args, **kwargs):  # a row-wise call is the collision fallback
        if kwargs.get("axis") is not None:
            pytest.fail("keys collided")
        return unique(*args, **kwargs)
    monkeypatch.setattr(np, "unique", keys_only)
    assert count_unique_embeddings(H) == 625


def test_count_compares_every_copy_of_a_key(monkeypatch):
    # 3000 rows of one key: row 0 leads 2998 copies over several row blocks,
    # some holding -0.0 where it holds +0.0 and some off by less than the
    # rounding. The last row is another
    row = np.array([0.0, 0.25, 1.0000001, -3.5])
    H = np.tile(row, (3000, 1))
    H[1::3, 0] = -0.0
    H[2::7, 2] += 1e-9
    H[-1] = [1.0, 2.0, 3.0, 4.0]
    assert count_unique_embeddings(H) == 2
    monkeypatch.setattr(pipeline, "_key_weights", lambda width: np.zeros(width, np.uint64))
    assert count_unique_embeddings(H) == 2  # one key: the last row is compared and differs


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_count_matches_np_unique(workers, monkeypatch):
    # above the pool's size gate: duplicates, signed zeros and rows that
    # permute one another spread over every row block
    n = clustering.POOL_MIN_ROWS + 300
    rng = np.random.default_rng(workers)
    pool = np.round(rng.normal(size=(900, 6)), 3)
    pool[::5, 0] = -1e-9  # rounds to -0.0
    pool[1::5] = pool[::5][:, ::-1]
    pool[2::5] = pool[::5]
    pool[2::5, 0] = 1e-9  # rounds to +0.0: the same row as pool[::5] after folding
    H = pool[rng.integers(len(pool), size=n)]
    want = np.unique(np.round(H, 6) + 0.0, axis=0).shape[0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    started = record_helpers(monkeypatch)
    assert count_unique_embeddings(H) == want
    monkeypatch.setattr(pipeline, "_key_weights", lambda width: np.ones(width, np.uint64))
    assert count_unique_embeddings(H) == want
    assert set(started) == ({workers - 1} if workers > 1 else set())
    assert len(started) >= 2 * (workers > 1)  # at least each count's key pass


def test_no_thread_outlives_run(monkeypatch):
    # above the pool's gate on two CPUs every kernel call starts and joins its
    # own helper, so none is left when run returns (embed's writer forks then)
    g = random_connected_graph(np.random.default_rng(7), clustering.POOL_MIN_ROWS, 2000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = record_helpers(monkeypatch)
    before = threading.active_count()
    run(g, PipelineConfig(clusters=3, max_iters=2, kmeans_iters=2))
    assert started and set(started) == {1}
    assert threading.active_count() == before


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


@pytest.mark.parametrize("ablation", [(), ("no_temporal",), ("no_laplacian",)])
def test_no_gain_stop_lifts_the_adopted_z_again(ablation, monkeypatch):
    # H is not kept beside the next one: a no_gain stop drops the new H and
    # lifts the adopted iteration's Z again, which gives that H's bits
    g = random_connected_graph(np.random.default_rng(3), 18, extra_edges=25)
    calls = []
    lift = temporal_aggregation.aggregate
    monkeypatch.setattr(temporal_aggregation, "aggregate",
                        lambda *args: calls.append(1) or lift(*args))
    for max_iters, reason, lifts in ((1, "max_iters", 2), (10, "no_gain", 4)):
        cfg = PipelineConfig(clusters=3, seed=0, max_iters=max_iters,
                             ablation=frozenset(ablation))
        calls.clear()
        res = run(g, cfg)
        assert res.stop_reason == reason
        assert len(calls) == res.iterations_run + 1 + (reason == "no_gain") == lifts
        assert res.embeddings.tobytes() == straight_line_pipeline(g, cfg).tobytes()


def test_run_holds_one_embedding_matrix_at_a_time(monkeypatch):
    # H is normalized in place and the adopted H is not kept beside the next
    # one; with 64-row blocks (as in test_row_block_memory_budget) the block
    # temporaries of a 2k-row graph stay small next to H
    g, _ = synthgen.generate(synthgen.SynthConfig())
    monkeypatch.setattr(clustering, "BLOCK_ROWS", 64)
    res, peak = extra_peak(run, g, PipelineConfig())
    assert res.stop_reason == "no_gain"
    H = res.embeddings
    assert peak - H.nbytes < 0.5 * H.nbytes  # the returned H is counted in peak


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


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
                     max_size=8),
       repeats=st.integers(0, 3), data=st.data())
def test_tiny_graphs_match_straight_line_rerun(rows, repeats, data):
    # at most 6 accounts and 4 timestamps: self-loops, repeated times and,
    # through the repeated prefix, duplicate rows are all common
    g = build_graph([(f"a{u}", f"a{v}", t) for u, v, t in rows + rows[:repeats]])
    n = g.n_nodes
    cfg = PipelineConfig(clusters=data.draw(st.integers(1, n + 1)),
                         seed=data.draw(st.integers(0, 3)))
    if 0 < n < cfg.clusters:
        with pytest.raises(ValueError, match="clusters need at least"):
            run(g, cfg)
        return
    res = run(g, cfg)
    assert res.embeddings.shape == (n, output_width(cfg.clusters))
    assert np.isfinite(res.embeddings).all()
    assert res.stop_reason in ("no_gain", "max_iters")
    if n >= 1:
        assert np.array_equal(res.embeddings, straight_line_pipeline(g, cfg))


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
    assert "laplacian_solve" not in res.stage_seconds
    full = run(g, PipelineConfig(clusters=3))
    assert "laplacian_solve" in full.stage_seconds
    assert len(full.unique_counts) == full.iterations_run + 1


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
                PipelineConfig(seed=-1),
                PipelineConfig(ablation=frozenset({"bogus"}))):
        with pytest.raises(ValueError):
            cfg.validate()
