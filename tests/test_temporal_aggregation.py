import dataclasses
import logging
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsgcr import clustering, synthgen, temporal_aggregation
from ditsgcr.graph_model import TemporalGraph, build_graph
from ditsgcr.temporal_aggregation import aggregate, output_width
from helpers import (brute_force_embeddings, edgeless_graph, extra_peak, loop_aggregate,
                     random_graph, record_helpers)

KEYS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
ROWS = st.lists(st.tuples(KEYS, KEYS, st.integers(0, 40)), min_size=1, max_size=30)


NO_DECAY = 1e300  # every decay factor is exactly 1.0: Eq. 4's growth form


def lift_row(edges, Z_by_key, key, alpha=1.0):
    """H row of `key` for the graph of `edges`, Z given per account key."""
    g = build_graph(edges)
    Z = np.array([Z_by_key[k] for k in g.id_to_key], dtype=np.float64)
    return aggregate(g, Z, alpha)[g.key_to_id[key]]


def test_output_width():
    assert output_width(1) == 6
    assert output_width(3) == 42
    assert output_width(10) == 420


def test_timestep_vector_in_only():
    # B's only entry has in-neighbor A with row (3, 4): w = s_B = (0.6, 0.8, 0, 0)
    h = lift_row([("A", "B", 5)], {"A": (3.0, 4.0), "B": (1.0, 0.0)}, "B")
    assert h[16:] == pytest.approx([0.6, 0.8, 0.0, 0.0], abs=1e-9)


def test_timestep_vector_duplicates_count():
    # C: in from B twice, out to A, all at t=5; raw concat (4, 1), norm sqrt(17)
    edges = [("C", "A", 5), ("B", "C", 5), ("B", "C", 5)]
    h = lift_row(edges, {"A": (1.0,), "B": (2.0,), "C": (0.0,)}, "C")
    assert h[4:] == pytest.approx(np.array([4.0, 1.0]) / math.sqrt(17.0), abs=1e-9)


def test_timestep_vector_unit_or_zero():
    # with one timestamp per graph every node has a single entry, so s_v is w
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_graph(rng, max_distinct_times=1)
        s = aggregate(g, rng.normal(size=(g.n_nodes, 3)), alpha=1.0)[:, 36:]
        for v in range(g.n_nodes):
            n = np.linalg.norm(s[v])
            assert n <= 1.0 + 1e-9
            assert n == 0.0 or n > 1.0 - 1e-6
    assert np.all(aggregate(g, np.zeros((g.n_nodes, 3)), alpha=1.0) == 0.0)


def test_temporal_structure_single_entry():
    h = lift_row([("A", "B", 3)], {"A": (1.0, 0.0), "B": (0.0, 1.0)}, "B")
    assert np.all(h[:16] == 0.0)
    assert h[16:] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)


def test_temporal_structure_two_entry_hand_case():
    # B: in from A at t=0 gives w1=(1,0), out to A at t=3 gives w2=(0,1),
    # z2 = normalize(w1) = (1, 0), so Z_B = w2 z2^T
    h = lift_row([("A", "B", 0), ("B", "A", 3)], {"A": (1.0,), "B": (1.0,)}, "B",
                 alpha=3.0)
    assert h == pytest.approx([0.0, 0.0, 1.0, 0.0, 1.0, 1.0], abs=1e-9)


def huge_gap_rows(alpha):
    """B's row for the two-entry hand case with a 1e9 s gap, near 0 and near 2**63."""
    for t0 in (0, 2**63 - 1 - 10**9):
        yield lift_row([("A", "B", t0), ("B", "A", t0 + 10**9)],
                       {"A": (1.0,), "B": (1.0,)}, "B", alpha=alpha)


def test_temporal_structure_huge_gap_default_mode():
    # the decay of the previous state vanishes; z2 is still normalize(w1)
    for h in huge_gap_rows(alpha=1.0):
        assert h == pytest.approx([0.0, 0.0, 1.0, 0.0, 1.0, 1.0], abs=1e-9)


def test_temporal_structure_huge_gap_literal_mode_no_overflow():
    for h in huge_gap_rows(alpha=NO_DECAY):
        assert np.all(np.isfinite(h))
        assert h == pytest.approx([0.0, 0.0, 1.0, 0.0, 1.0, 1.0], abs=1e-9)
    # the growth form decays by exactly 1, so only the entry order matters,
    # even for a gap of nearly 2**63
    Z = {"A": (1.0, -2.0), "B": (0.5, 0.5), "C": (-3.0, 1.0)}
    rows = [lift_row([("A", "B", 0), ("B", "A", 1), ("C", "B", t)], Z, "B", alpha=NO_DECAY)
            for t in (2, 2**63 - 1)]
    assert rows[0].tobytes() == rows[1].tobytes()


def test_tiny_alpha_zeroes_decay_without_overflow_warning():
    # gap / 1e-320 overflows to inf, gap / 1e-300 does not; both decays are 0
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, t_range=30)
        Z = rng.normal(size=(g.n_nodes, 2))
        assert np.array_equal(aggregate(g, Z, 1e-320), aggregate(g, Z, 1e-300))


def test_default_mode_alpha_matters():
    # three entries with distinct neighbor mixes make the decay observable
    g = build_graph([("b", "a", 1), ("c", "a", 4), ("a", "b", 6),
                     ("b", "c", 1), ("c", "b", 9)])
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(g.n_nodes, 2))
    h1 = aggregate(g, Z, alpha=0.5)
    h2 = aggregate(g, Z, alpha=60.0)
    assert np.max(np.abs(h1 - h2)) > 1e-9


def test_aggregate_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_graph(rng)
        k = int(rng.integers(1, 4))
        Z = rng.normal(size=(g.n_nodes, k))
        expected = brute_force_embeddings(g, Z, alpha=1.0)
        got = aggregate(g, Z, alpha=1.0)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_aggregate_matches_brute_force_literal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_graph(rng, t_range=25)
        Z = rng.normal(size=(g.n_nodes, 2))
        expected = brute_force_embeddings(g, Z, alpha=2.0, literal=True)
        got = aggregate(g, Z, alpha=NO_DECAY)
        assert np.max(np.abs(got - expected)) <= 1e-9


def test_aggregate_isolated_node_zero_row():
    base = build_graph([("A", "B", 1)])
    g = TemporalGraph(n_nodes=3, n_edges=1,
                      key_to_id={**base.key_to_id, "C": 2},
                      id_to_key=base.id_to_key + ["C"],
                      entry_ptr=np.append(base.entry_ptr, base.entry_ptr[-1]),
                      entry_t=base.entry_t, in_ptr=base.in_ptr, in_ids=base.in_ids,
                      out_ptr=base.out_ptr, out_ids=base.out_ids)
    H = aggregate(g, np.ones((3, 2)), alpha=1.0)
    assert H.shape == (3, output_width(2))
    assert np.all(H[2] == 0.0)
    assert np.any(H[0] != 0.0)


def relabel(g, perm):
    """g with node v renamed perm[v], its arrays rebuilt entry by entry."""
    def ptr(lengths):
        return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)

    n = g.n_nodes
    entry_t, ins, outs, lengths = [], [], [], []
    for old in np.argsort(perm):  # new node ids in ascending order
        a, b = g.entry_ptr[old], g.entry_ptr[old + 1]
        lengths.append(b - a)
        for e in range(a, b):
            entry_t.append(g.entry_t[e])
            ins.append(perm[g.in_ids[g.in_ptr[e]:g.in_ptr[e + 1]]])
            outs.append(perm[g.out_ids[g.out_ptr[e]:g.out_ptr[e + 1]]])
    none = [np.empty(0, dtype=np.int64)]
    return TemporalGraph(
        n_nodes=n, n_edges=g.n_edges,
        key_to_id={g.id_to_key[v]: int(perm[v]) for v in range(n)},
        id_to_key=[g.id_to_key[int(v)] for v in np.argsort(perm)],
        entry_ptr=ptr(lengths), entry_t=np.array(entry_t, dtype=np.int64),
        in_ptr=ptr([len(x) for x in ins]), in_ids=np.concatenate(ins + none),
        out_ptr=ptr([len(x) for x in outs]), out_ids=np.concatenate(outs + none))


def test_aggregate_permutation_equivariance():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_graph(rng)
        n = g.n_nodes
        Z = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        Z2 = np.empty_like(Z)
        Z2[perm] = Z
        H = aggregate(g, Z, alpha=1.0)
        H2 = aggregate(relabel(g, perm), Z2, alpha=1.0)
        assert np.allclose(H2[perm], H, atol=1e-12)


def test_aggregate_neighbor_sum_norm_bounded_by_entries():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(rng)
        k = 2
        Z = rng.normal(size=(g.n_nodes, k))
        H = aggregate(g, Z, alpha=1.0)
        for v in range(g.n_nodes):
            s = H[v, 4 * k * k:]
            n_entries = g.entry_ptr[v + 1] - g.entry_ptr[v]
            assert np.linalg.norm(s) <= n_entries + 1e-9


def test_aggregate_shape_and_errors():
    g = build_graph([("A", "B", 1)])
    H = aggregate(g, np.full((2, 10), 0.1), alpha=1.0)
    assert H.shape == (2, 420)
    with pytest.raises(ValueError):
        aggregate(g, np.ones((3, 2)), alpha=1.0)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError):
            aggregate(g, np.ones((2, 2)), alpha=alpha)


@settings(max_examples=100, deadline=None)
@given(ROWS, st.integers(0, 2**63 - 1 - 40), st.sampled_from([7.0, NO_DECAY]))
def test_timestamp_shift_leaves_embeddings_bit_identical(rows, shift, alpha):
    g = build_graph(rows)
    shifted = build_graph([(s, d, t + shift) for s, d, t in rows])
    Z = np.random.default_rng(len(rows)).normal(size=(g.n_nodes, 2))
    assert np.array_equal(aggregate(g, Z, alpha), aggregate(shifted, Z, alpha))


@settings(max_examples=100, deadline=None)
@given(ROWS, st.permutations(range(6)), st.randoms(use_true_random=False))
def test_relabeling_equivariance(rows, names, rnd):
    # rename every account and shuffle the rows, so ids come out in another order
    rename = {k: f"x{i}" for k, i in zip("abcdef", names)}
    shuffled = [(rename[s], rename[d], t) for s, d, t in rows]
    rnd.shuffle(shuffled)
    g, g2 = build_graph(rows), build_graph(shuffled)
    back = {new: old for old, new in rename.items()}
    Z_by_key = dict(zip("abcdef", np.random.default_rng(len(rows)).normal(size=(6, 2))))
    Z = np.array([Z_by_key[k] for k in g.id_to_key])
    Z2 = np.array([Z_by_key[back[k]] for k in g2.id_to_key])
    H = aggregate(g, Z, 50.0)
    H2 = aggregate(g2, Z2, 50.0)
    for key, v in g.key_to_id.items():
        assert np.allclose(H2[g2.key_to_id[rename[key]]], H[v], rtol=0, atol=1e-12)


def hub_graph(rng, hubs=(300,), n_other=40):
    """Hub accounts receiving at len distinct times each, over short timelines."""
    edges = []
    for h, n_times in enumerate(hubs):
        t = np.cumsum(1 + rng.integers(0, 4, size=n_times))  # gaps 1..4
        edges += [(f"o{rng.integers(n_other)}", f"hub{h}", int(x)) for x in t]
    edges += [(f"o{rng.integers(n_other)}", f"o{rng.integers(n_other)}", int(rng.integers(3)))
              for _ in range(2 * n_other)]
    return build_graph(edges)


def with_isolated(g, m):
    """g plus m accounts that have no timeline entries."""
    keys = [f"iso{i}" for i in range(m)]
    return dataclasses.replace(
        g, n_nodes=g.n_nodes + m, id_to_key=g.id_to_key + keys,
        key_to_id={**g.key_to_id, **{k: g.n_nodes + i for i, k in enumerate(keys)}},
        entry_ptr=np.append(g.entry_ptr, np.full(m, g.entry_ptr[-1])))


def timeline_lengths(g):
    return np.sort(np.diff(g.entry_ptr))[::-1]


@pytest.mark.parametrize("no_decay", [False, True])
def test_aggregate_matches_loop_oracle_bit_for_bit(no_decay):
    alpha = NO_DECAY if no_decay else 2.0
    rng = np.random.default_rng(61)
    hub = hub_graph(rng)
    tied = hub_graph(rng, hubs=(80, 80))
    flat = build_graph([(f"o{rng.integers(30)}", f"o{rng.integers(30)}", 7) for _ in range(60)])
    empty = build_graph([])
    self_loops = build_graph([("s", "s", t) for t in (1, 2, 4, 9)])
    cases = {
        "hub tail": hub,
        "two tied longest": tied,
        "no timeline above one entry": flat,
        "hub with isolated accounts": with_isolated(hub, 3),
        "one account with entries": with_isolated(self_loops, 2),
        "only isolated accounts": with_isolated(empty, 4),
        "no accounts": empty,
    }
    top = timeline_lengths(hub)
    assert top[0] > top[1] + 1  # the hub's chain takes several steps alone
    top = timeline_lengths(tied)
    assert top[0] == top[1] > top[2]  # no step is left with one node
    assert timeline_lengths(flat)[0] == 1
    for name, g in cases.items():
        for Z in (np.full((g.n_nodes, 3), 1 / 3), rng.normal(size=(g.n_nodes, 3))):
            got = aggregate(g, Z, alpha)
            want = loop_aggregate(g, Z, alpha)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_aggregate_hub_tail_matches_loop_oracle_on_random_hubs():
    rng = np.random.default_rng(62)
    for _ in range(20):
        g = hub_graph(rng, hubs=(int(rng.integers(2, 60)),), n_other=int(rng.integers(2, 12)))
        Z = rng.normal(size=(g.n_nodes, 2))
        alpha = float(rng.choice([0.5, 3.0, 1e6]))
        assert aggregate(g, Z, alpha).tobytes() == loop_aggregate(g, Z, alpha).tobytes()


LIFT_LINE = re.compile(
    r"lift: (\d+) entries, (\d+) chains, (\d+) restarts, longest chain (\d+) steps")


def lift_stats(caplog, g, Z, alpha):
    """aggregate's H and its debug line's (entries, chains, restarts, longest chain)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ditsgcr.temporal_aggregation"):
        H = aggregate(g, Z, alpha)
    [line] = [r.getMessage() for r in caplog.records if r.name == "ditsgcr.temporal_aggregation"]
    return H, tuple(int(x) for x in LIFT_LINE.fullmatch(line).groups())


def star_edges(center, times, inbound):
    """One edge per time between `center` and a fresh account, into the
    center when inbound (a pure sink), out of it otherwise (a pure source)."""
    ends = [(f"{center}-{i}", center) if inbound else (center, f"{center}-{i}")
            for i in range(len(times))]
    return [(a, b, int(t)) for (a, b), t in zip(ends, times)]


def test_lift_logs_entries_chains_restarts_and_longest_chain(caplog):
    # a 40-entry sink: gaps of 100 s restart every step after the first at
    # alpha 1, while at alpha 60 (decay >= exp(-5/3)) it stays one chain,
    # which steps alone, one Python step per entry
    g = build_graph(star_edges("s", 100 * np.arange(40), inbound=True))
    Z = np.random.default_rng(70).uniform(0.5, 1.0, size=(g.n_nodes, 2))
    assert lift_stats(caplog, g, Z, 1.0)[1] == (80, 39, 38, 1)
    assert lift_stats(caplog, g, Z, 60.0)[1] == (80, 1, 0, 39)


@pytest.mark.parametrize("gaps", [(100,), (1, 2, 100), (1, 100, 100, 100)])
def test_restarts_on_pure_sinks_and_sources_match_loop_oracle(gaps, caplog):
    # every entry of a sink (source) is in-only (out-only): the other half of
    # w is zero in the whole node, so only the live half decides a restart
    rng = np.random.default_rng(len(gaps))
    edges, restarts_at_1 = [], 0
    for center, inbound in (("sink", True), ("src", False), ("sink2", True)):
        steps = rng.choice(gaps, size=59)
        edges += star_edges(center, np.cumsum(np.append(0, steps)), inbound)
        restarts_at_1 += np.count_nonzero(steps[1:] >= 100)  # decay <= exp(-100)
    g = build_graph(edges)
    for Z in (rng.normal(size=(g.n_nodes, 3)), np.full((g.n_nodes, 3), 1 / 3)):
        for alpha in (1.0, 60.0, NO_DECAY):
            H, (_, chains, restarts, longest) = lift_stats(caplog, g, Z, alpha)
            assert H.tobytes() == loop_aggregate(g, Z, alpha).tobytes(), alpha
            assert chains == 3 + restarts
            if alpha == 1.0:
                assert restarts == restarts_at_1
            if alpha == NO_DECAY:
                assert (restarts, longest) == (0, 59)  # each node is one chain


def test_no_restart_where_a_live_column_is_zero(caplog):
    # an account that alternately receives and pays: every entry is zero in
    # the half of w that other entries fill, so decay * z is never negligible
    rng = np.random.default_rng(71)
    edges = [(f"a{i}", "x", 200 * i) if i % 2 == 0 else ("x", f"b{i}", 200 * i)
             for i in range(50)]
    g = build_graph(edges)
    for Z in (rng.normal(size=(g.n_nodes, 2)), np.full((g.n_nodes, 2), 0.5)):
        for alpha in (1e-300, 1.0):
            H, stats = lift_stats(caplog, g, Z, alpha)
            assert stats == (100, 1, 0, 49)
            assert H.tobytes() == loop_aggregate(g, Z, alpha).tobytes()


@pytest.mark.parametrize("ulps, restarts", [(0, 0), (1, 1), (-1, 0)])
def test_restart_threshold_is_strict_at_two_to_the_minus_55(ulps, restarts, caplog):
    # a sink paid by a, b and c at t = 0, 1, 39 (K = 1, so its live column is
    # in-column 0): the step at t = 39 restarts iff decay * 2**55 < w_b, where
    # w_b = z / (|z| + EPS) is set to decay * 2**55 moved by `ulps` ulps
    alpha = 38 / 38.2
    decay = np.exp(-np.array([38]) / alpha)[0]
    target = decay * 2.0**55
    for _ in range(abs(ulps)):
        target = np.nextafter(target, 2.0 if ulps > 0 else 0.0)

    def w(z):
        X = np.array([[z, 0.0]])
        return (X / (np.sqrt(np.einsum("ij,ij->i", X, X)) + 1e-10)[:, None])[0, 0]

    z = target * 1e-10 / (1 - target)  # w(z) is close to target
    for _ in range(200):
        if w(z) == target:
            break
        z = np.nextafter(z, np.inf if w(z) < target else 0.0)
    assert w(z) == target
    g = build_graph([("a", "s", 0), ("b", "s", 1), ("c", "s", 39)])
    Z = np.empty((4, 1))
    for key, value in zip("abcs", (0.7, z, 0.3, 0.0)):
        Z[g.key_to_id[key]] = value
    H, (_, chains, got, longest) = lift_stats(caplog, g, Z, alpha)
    assert (got, chains, longest) == (restarts, 1 + restarts, 2 - restarts)
    assert H.tobytes() == loop_aggregate(g, Z, alpha).tobytes()


def test_negative_zero_and_subnormal_z_match_loop_oracle():
    # -0.0 and subnormal rows of Z give w components that are zero or
    # subnormal in live columns, where no restart may fire; a tiny alpha makes
    # every decay factor 0.0, so everything else restarts
    rng = np.random.default_rng(72)
    edges = star_edges("s", 100 * np.arange(30), inbound=True)
    edges += [(f"a{i}", "x", 200 * i) if i % 2 == 0 else ("x", f"b{i}", 200 * i)
              for i in range(20)]
    edges += [(f"o{rng.integers(8)}", f"o{rng.integers(8)}", int(rng.integers(10**4)))
              for _ in range(40)]
    g = build_graph(edges)
    odd = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1.0, -1.0, 3e-8])
    for seed in range(4):
        Z = np.random.default_rng(seed).choice(odd, size=(g.n_nodes, 3))
        for alpha in (1e-300, 1.0, NO_DECAY):
            assert aggregate(g, Z, alpha).tobytes() == loop_aggregate(g, Z, alpha).tobytes()


def test_tiny_alpha_restarts_match_loop_oracle(caplog):
    # every decay factor is exactly 0.0: all steps of sinks and sources restart
    rng = np.random.default_rng(73)
    for _ in range(10):
        g = random_graph(rng, max_nodes=9, max_distinct_times=6, t_range=10**6)
        Z = rng.normal(size=(g.n_nodes, 2))
        assert aggregate(g, Z, 1e-300).tobytes() == loop_aggregate(g, Z, 1e-300).tobytes()
    g = build_graph(star_edges("s", np.arange(25), inbound=True))
    Z = rng.normal(size=(g.n_nodes, 2))
    H, stats = lift_stats(caplog, g, Z, 1e-300)
    assert stats == (50, 24, 23, 1)
    assert H.tobytes() == loop_aggregate(g, Z, 1e-300).tobytes()


def test_lift_sequential_depth_is_the_longest_chain(monkeypatch):
    # a 20,000-entry sink with 60 s gaps: at alpha 1 every step restarts, so
    # the recurrence takes one vectorized step; with no decay it takes one
    # Python step per entry. Counted as np.einsum calls, one of which
    # normalizes W; one block holds all first steps.
    n = 20000
    g = build_graph(star_edges("s", 60 * np.arange(n), inbound=True))
    Z = np.random.default_rng(74).uniform(0.5, 1.0, size=(g.n_nodes, 2))
    monkeypatch.setattr(temporal_aggregation, "BLOCK_ENTRIES", 2 * len(g.entry_t))
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(1) or einsum(*a, **kw))
    aggregate(g, Z, 1.0)
    assert len(calls) <= 1 + 1  # longest chain (one step) plus one
    calls.clear()
    aggregate(g, Z, NO_DECAY)
    assert len(calls) >= n - 1  # the sink's whole timeline, one step at a time


def block_edge_graph():
    """Timelines of 1, 2, 4 and 3 entries (prefix sums 1, 3, 7, 10), so blocks
    of 3 and of 7 entries end exactly on a node boundary, and the 4-entry
    node is longer than a 3-entry block."""
    edges = [("a", "b", 1), ("b", "c", 2), ("c", "c", 3), ("c", "c", 4), ("c", "d", 5),
             ("d", "d", 6), ("d", "d", 7)]
    return build_graph(edges)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("no_decay", [False, True])
def test_aggregate_node_blocks_match_loop_oracle_bit_for_bit(block, no_decay):
    alpha = NO_DECAY if no_decay else 2.0
    rng = np.random.default_rng(63)
    edge = block_edge_graph()
    assert list(edge.entry_ptr) == [0, 1, 3, 7, 10]
    cases = {f"random {i}": random_graph(rng, max_nodes=9, max_distinct_times=6)
             for i in range(8)}
    cases.update({
        "block edge on a node boundary": edge,
        "hub longer than a block": hub_graph(rng, hubs=(30,), n_other=6),
        "hub with isolated accounts": with_isolated(hub_graph(rng, hubs=(12, 5)), 3),
        "edgeless": edgeless_graph(5),
    })
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(temporal_aggregation, "BLOCK_ENTRIES", block)
        for name, g in cases.items():
            Z = rng.normal(size=(g.n_nodes, 3))
            got = aggregate(g, Z, alpha)
            assert got.tobytes() == loop_aggregate(g, Z, alpha).tobytes(), name


def test_aggregate_memory_budget():
    # far more timeline entries than a block: W and the recurrent states
    # exist one node block at a time, so on top of its output the lift holds
    # the per-entry decay and timeline flags and one block's temporaries
    g, _ = synthgen.generate(synthgen.SynthConfig(n_normal=3800, n_phisher=200))
    n_entries = len(g.entry_t)
    assert n_entries > 8 * temporal_aggregation.BLOCK_ENTRIES
    Z = np.random.default_rng(64).random((g.n_nodes, 10))
    H, peak = extra_peak(aggregate, g, Z, 1.0)
    W_bytes = n_entries * 20 * 8
    assert peak <= H.nbytes + 0.5 * W_bytes


@pytest.mark.parametrize("extra", [1, 65, 255, 257])
def test_pooled_aggregate_gives_the_serial_bits(extra, monkeypatch, caplog):
    # above the pool's size gate, with a hub longer than a block and 256-entry
    # blocks, so that the lift's one map_blocks call gets more node blocks
    # than threads; the blocks do not depend on the threads, and neither the
    # bits nor the debug line's counts on the blocks or the threads
    monkeypatch.setattr(temporal_aggregation, "BLOCK_ENTRIES", 256)
    rng = np.random.default_rng(extra)
    t = np.cumsum(1 + rng.integers(0, 4, size=4000))
    edges = [(f"o{rng.integers(3500)}", "hub", int(x)) for x in t]
    edges += [(f"o{rng.integers(3500)}", f"o{rng.integers(3500)}", int(rng.integers(10**6)))
              for _ in range(4000)]
    g = build_graph(edges)
    g = with_isolated(g, clustering.POOL_MIN_ROWS + extra - g.n_nodes)
    assert len(g.entry_t) > 2 * temporal_aggregation.BLOCK_ENTRIES  # several blocks
    hub = g.key_to_id["hub"]
    Z = rng.normal(size=(g.n_nodes, 10))
    lift_blocks, plans = [], []
    map_blocks = clustering.map_blocks

    def recording_map_blocks(fn, blocks):
        blocks = list(blocks)
        if fn.__name__ == "lift":
            lift_blocks.append(blocks)
        map_blocks(fn, blocks)
    monkeypatch.setattr(clustering, "map_blocks", recording_map_blocks)
    for alpha in (2.0, 60.0, NO_DECAY):
        want, counts = loop_aggregate(g, Z, alpha), set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, w=workers: set(range(w)))
            lift_blocks.clear()
            started = record_helpers(monkeypatch)
            H, stats = lift_stats(caplog, g, Z, alpha)
            assert H.tobytes() == want.tobytes()
            counts.add(stats)
            [blocks] = lift_blocks
            assert len(blocks) > workers and (hub, hub + 1) in blocks
            assert started == ([workers - 1] if workers > 1 else [])
            plans.append(blocks)
        assert len(counts) == 1, (alpha, counts)
    assert all(blocks == plans[0] for blocks in plans)  # one plan for 1, 2 and 3 CPUs


def test_library_aggregate_pools_itself(monkeypatch):
    # outside pipeline.run, on two CPUs, a lift of POOL_MIN_ROWS nodes starts
    # its own helper for its blocks and gives the bits of one CPU
    g, _ = synthgen.generate(synthgen.SynthConfig(n_normal=1100, n_phisher=3000, burst_fanin=2))
    assert g.n_nodes >= clustering.POOL_MIN_ROWS
    Z = np.random.default_rng(8).random((g.n_nodes, 4))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    started = record_helpers(monkeypatch)
    want = aggregate(g, Z, 1.0)
    assert started == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert aggregate(g, Z, 1.0).tobytes() == want.tobytes()
    assert started == [1]
