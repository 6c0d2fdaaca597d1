import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsgcr.graph_model import (PAIR_DTYPE, adjacency_weights, build_graph,
                                 ingest_csv, ingest_labels, write_edge_csv,
                                 write_label_csv)
from helpers import canonical_form, group_rows, random_graph, weight_dict

KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
ROWS = st.lists(st.tuples(KEYS, KEYS, st.integers(0, 6)), max_size=25)


def node_entries(graph, v):
    """[(t, [in ids], [out ids]), ...] of node v, read from the arrays."""
    out = []
    for e in range(graph.entry_ptr[v], graph.entry_ptr[v + 1]):
        ins = graph.in_ids[graph.in_ptr[e]:graph.in_ptr[e + 1]].tolist()
        outs = graph.out_ids[graph.out_ptr[e]:graph.out_ptr[e + 1]].tolist()
        out.append((int(graph.entry_t[e]), ins, outs))
    return out


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_with_header(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["from,to,timestamp", "A,B,10", "B,A,12", "A,B,10"])
    g = ingest_csv(p)
    assert g.n_nodes == 2
    assert g.n_edges == 3
    assert g.id_to_key == ["A", "B"]
    assert g.key_to_id == {"A": 0, "B": 1}
    # duplicate rows each count: B's entry at t=10 has A twice inbound
    assert node_entries(g, 1) == [(12, [], [0]), (10, [0, 0], [])]


def test_ingest_without_header(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,10", "B,C,20"])
    g = ingest_csv(p)
    assert g.n_nodes == 3
    assert g.n_edges == 2


def test_ingest_extra_columns_ignored(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["from,to,timestamp,amount", "A,B,10,99.5", "B,A,11,3"])
    g = ingest_csv(p)
    assert g.n_edges == 2


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    g = ingest_csv(p)
    assert g.n_nodes == 0
    assert g.n_edges == 0
    assert len(g.entry_t) == 0
    assert list(g.iter_edges()) == []
    assert g.entry_ptr.tolist() == [0] and len(g.entry_t) == 0


def test_ingest_timelines_sorted_descending(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,5", "A,B,50", "A,C,20"])
    g = ingest_csv(p)
    assert [t for t, _, _ in node_entries(g, 0)] == [50, 20, 5]
    assert [tl.tolist() for tl in g.timelines] == [[50, 20, 5], [50, 5], [20]]
    with pytest.raises(ValueError):
        g.timelines[0][0] = 1  # the per-node view is read-only


def test_ingest_malformed_row_arity(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["from,to,timestamp", "A,B,10", "A,B"])
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(p)


def test_ingest_fractional_timestamp(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,10", "B,C,11.5"])
    with pytest.raises(ValueError, match="line 2.*fractional"):
        ingest_csv(p)


def test_ingest_unparsable_timestamp(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,10", "B,C,soon"])
    with pytest.raises(ValueError, match="line 2"):
        ingest_csv(p)


def test_ingest_negative_timestamp(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,-3"])
    with pytest.raises(ValueError, match="negative"):
        ingest_csv(p)


def test_ingest_timestamp_int64_bounds(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["A,B,0", "B,A,9223372036854775807"])
    g = ingest_csv(p)
    assert g.entry_t.dtype == np.int64 and g.entry_t.max() == 2**63 - 1
    assert list(g.iter_edges()) == [(0, 1, 0), (1, 0, 2**63 - 1)]
    write_lines(p, ["A,B,0", "B,A,9223372036854775808"])
    with pytest.raises(ValueError, match="line 2.*2\\*\\*63-1"):
        ingest_csv(p)


def test_ids_dense_and_bijective():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng)
        assert len(g.id_to_key) == g.n_nodes
        assert sorted(g.key_to_id.values()) == list(range(g.n_nodes))
        for key, i in g.key_to_id.items():
            assert g.id_to_key[i] == key


def test_edge_count_matches_out_lists():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng)
        assert g.n_edges == len(g.out_ids) == len(g.in_ids)
        assert g.out_ptr[-1] == g.in_ptr[-1] == g.n_edges


def test_timeline_entries_nonempty_and_strictly_descending():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng)
        for v in range(g.n_nodes):
            entries = node_entries(g, v)
            times = [t for t, _, _ in entries]
            assert times == sorted(times, reverse=True)
            assert len(set(times)) == len(times)
            for _, ins, outs in entries:
                assert len(ins) + len(outs) > 0


def test_round_trip_preserves_graph(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(10):
        g = random_graph(rng, max_nodes=6, max_distinct_times=5)
        p = tmp_path / f"rt{i}.csv"
        write_edge_csv(g, p)
        g2 = ingest_csv(p)
        assert canonical_form(g) == canonical_form(g2)


def test_round_trip_is_row_order_free(tmp_path):
    g = build_graph([("S2", "Q", 1), ("S1", "T1", 2), ("S2", "T2", 3)])
    p = tmp_path / "rt.csv"
    write_edge_csv(g, p)
    rows = p.read_text().strip().splitlines()
    header, body = rows[0], rows[1:]
    p.write_text("\n".join([header] + body[::-1]) + "\n")
    g2 = ingest_csv(p)
    assert canonical_form(g) == canonical_form(g2)


def test_self_loop_kept_in_timeline_not_adjacency():
    g = build_graph([("A", "A", 7), ("A", "B", 9)])
    assert node_entries(g, 0) == [(9, [], [1]), (7, [0], [0])]
    assert weight_dict(adjacency_weights(g)) == {(0, 1): 1.0}


def test_adjacency_count_mode_sums_directions():
    g = build_graph([("A", "B", 1), ("B", "A", 5), ("A", "B", 5)])
    assert weight_dict(adjacency_weights(g)) == {(0, 1): 3.0}


def test_adjacency_recency_mode():
    g = build_graph([("A", "B", 10)])
    for alpha in (0.5, 1.0, 60.0):
        assert weight_dict(adjacency_weights(g, "recency", alpha)) == {(0, 1): 1.0}
    g2 = build_graph([("A", "B", 10), ("A", "B", 4)])
    w = weight_dict(adjacency_weights(g2, "recency", 3.0))
    assert w[(0, 1)] == pytest.approx(1.0 + math.exp(-2.0), abs=1e-12)


def test_adjacency_weights_empty_and_self_loop_only():
    empty = build_graph([])
    loops = build_graph([("A", "A", 3), ("B", "B", 4)])
    for g in (empty, loops):
        for w in (adjacency_weights(g), adjacency_weights(g, "recency", 2.0)):
            assert w.dtype == PAIR_DTYPE and len(w) == 0


@settings(max_examples=150, deadline=None)
@given(ROWS)
def test_columnar_arrays_match_row_grouping(rows):
    g = build_graph(rows)
    assert g.n_edges == len(rows)
    assert g.id_to_key == list(dict.fromkeys(k for r in rows for k in r[:2]))
    expected = group_rows(rows)
    for v, key in enumerate(g.id_to_key):
        ids = [(t, [g.id_to_key[i] for i in ins], [g.id_to_key[i] for i in outs])
               for t, ins, outs in node_entries(g, v)]
        assert ids == [(t, ins, outs) for t, (ins, outs)
                       in sorted(expected[key].items(), reverse=True)]
    assert list(g.iter_edges()) == [
        (g.key_to_id[s], g.key_to_id[d], t)
        for s, d, t in sorted(rows, key=lambda r: (g.key_to_id[r[0]], -r[2]))]


@settings(max_examples=100, deadline=None)
@given(ROWS)
def test_adjacency_weights_match_row_sums(rows):
    g = build_graph(rows)
    expected = {}
    for s, d, _ in rows:
        u, v = sorted((g.key_to_id[s], g.key_to_id[d]))
        if u != v:
            expected[(u, v)] = expected.get((u, v), 0.0) + 1.0
    pairs = adjacency_weights(g)
    assert pairs.dtype == PAIR_DTYPE and len(pairs) == len(expected)
    assert weight_dict(pairs) == expected
    # sorted by (u, v), each pair once, u < v
    assert pairs.tolist() == sorted(pairs.tolist())
    assert len({(u, v) for u, v, _ in pairs.tolist()}) == len(pairs)
    assert np.all(pairs["u"] < pairs["v"])


def test_adjacency_rejects_bad_arguments():
    g = build_graph([("A", "B", 1)])
    with pytest.raises(ValueError):
        adjacency_weights(g, "volume")
    with pytest.raises(ValueError):
        adjacency_weights(g, "recency", alpha=0.0)


def test_labels_basic(tmp_path):
    g = build_graph([("A", "B", 1), ("C", "A", 2)])
    p = tmp_path / "labels.csv"
    write_lines(p, ["account,label", "A,1", "B,0", "C,0"])
    ls = ingest_labels(p, g)
    assert ls.labels == {0: 1, 1: 0, 2: 0}
    assert ls.skipped_keys == []


def test_labels_unknown_account_skipped(tmp_path):
    g = build_graph([("A", "B", 1)])
    p = tmp_path / "labels.csv"
    write_lines(p, ["account,label", "Z,1"])
    ls = ingest_labels(p, g)
    assert len(ls) == 0
    assert ls.skipped_keys == ["Z"]


def test_labels_invalid_value(tmp_path):
    g = build_graph([("A", "B", 1)])
    p = tmp_path / "labels.csv"
    write_lines(p, ["A,2"])
    with pytest.raises(ValueError, match="line 1"):
        ingest_labels(p, g)
    write_lines(p, ["account,label", "A,1.0"])
    with pytest.raises(ValueError, match="line 2"):
        ingest_labels(p, g)


def test_labels_conflicting_repeat(tmp_path):
    g = build_graph([("A", "B", 1)])
    p = tmp_path / "labels.csv"
    write_lines(p, ["account,label", "A,1", "B,0", "A,1"])
    assert ingest_labels(p, g).labels == {0: 1, 1: 0}  # an identical repeat is fine
    write_lines(p, ["account,label", "A,1", "B,0", "A,0"])
    with pytest.raises(ValueError, match="line 4: account 'A' labeled 0, listed earlier as 1"):
        ingest_labels(p, g)


def test_label_csv_round_trip(tmp_path):
    g = build_graph([("A", "B", 1), ("C", "A", 2)])
    p = tmp_path / "labels.csv"
    write_lines(p, ["account,label", "A,1", "B,0", "C,0"])
    ls = ingest_labels(p, g)
    q = tmp_path / "labels2.csv"
    write_label_csv(g, ls, q)
    ls2 = ingest_labels(q, g)
    assert ls2.labels == ls.labels
