import numpy as np
import pytest

from ditsgcr.synthgen import SynthConfig, generate, generate_events

from helpers import tuple_generate, tuple_generate_events

GRAPH_ARRAYS = ("entry_ptr", "entry_t", "in_ptr", "in_ids", "out_ptr", "out_ids")

# the default at two seeds, both benchmark shapes, c09's big graph and the edge cases
ORACLE_CONFIGS = {
    "default": SynthConfig(),
    "default-seed-1": SynthConfig(seed=1),
    "hub-embed": SynthConfig(n_normal=4000, n_phisher=12000, burst_fanin=2, seed=5),
    "c09-big": SynthConfig(n_normal=32000, n_phisher=1600, seed=8),
    "rate-0.2": SynthConfig(n_normal=200, n_phisher=10, normal_rate=0.2,
                            time_span=100_000, burst_fanin=5, seed=2),
    "rate-0": SynthConfig(n_normal=100, n_phisher=8, normal_rate=0.0,
                          time_span=100_000, burst_fanin=3, seed=5),
    "empty": SynthConfig(n_normal=0, n_phisher=0),
    "one-normal": SynthConfig(n_normal=1, n_phisher=3, burst_fanin=1, seed=4),
    "no-phishers": SynthConfig(n_normal=300, n_phisher=0, seed=9),
}


def as_rows(events):
    src, dst, t, keys, _ = events
    return [(keys[s], keys[d], v) for s, d, v in zip(src.tolist(), dst.tolist(), t.tolist())]


def burst_events(events, phisher):
    src, dst, t, _, _ = events
    return (list(zip(src[dst == phisher].tolist(), t[dst == phisher].tolist())),
            list(zip(dst[src == phisher].tolist(), t[src == phisher].tolist())))


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_generate_matches_tuple_oracle(name):
    cfg = ORACLE_CONFIGS[name]
    events = generate_events(cfg)
    rows, labels_by_key = tuple_generate_events(cfg)
    assert as_rows(events) == rows
    assert dict(zip(events[3], events[4])) == labels_by_key
    for arr in events[:3]:
        assert arr.dtype == np.int64

    graph, labels = generate(cfg)
    want, want_labels = tuple_generate(cfg)
    assert (graph.n_nodes, graph.n_edges) == (want.n_nodes, want.n_edges)
    assert list(graph.key_to_id.items()) == list(want.key_to_id.items())
    assert graph.id_to_key == want.id_to_key
    for field in GRAPH_ARRAYS:
        got, ref = getattr(graph, field), getattr(want, field)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), field
    assert labels == want_labels


def test_empty_config():
    graph, labels = generate(SynthConfig(n_normal=0, n_phisher=0))
    assert graph.n_nodes == 0 and graph.n_edges == 0
    assert len(labels) == 0


def test_deterministic_events():
    cfg = SynthConfig(n_normal=50, n_phisher=5, time_span=100_000, seed=3)
    a, b = generate_events(cfg), generate_events(cfg)
    assert as_rows(a) == as_rows(b) and a[4] == b[4]
    c = generate_events(SynthConfig(n_normal=50, n_phisher=5, time_span=100_000, seed=4))
    assert as_rows(a) != as_rows(c)


def test_event_accounting_matches_graph():
    cfg = SynthConfig(n_normal=40, n_phisher=4, time_span=80_000, seed=0)
    events = generate_events(cfg)
    graph, labels = generate(cfg)
    assert graph.n_edges == len(events[0])
    assert sorted(graph.iter_edges(), key=lambda e: (e[0], e[1], e[2])) == \
        sorted(((graph.key_to_id[s], graph.key_to_id[d], t) for s, d, t in as_rows(events)),
               key=lambda e: (e[0], e[1], e[2]))


def test_burst_structure():
    cfg = SynthConfig(n_normal=60, n_phisher=6, time_span=90_000,
                      burst_window=400, burst_fanin=12, seed=7)
    events = generate_events(cfg)
    keys = events[3]
    for j in range(cfg.n_phisher):
        assert keys[cfg.n_normal + j] == f"p{j}"
        ins, outs = burst_events(events, cfg.n_normal + j)
        senders = [s for s, _ in ins]
        assert len(senders) == cfg.burst_fanin
        assert len(set(senders)) == cfg.burst_fanin  # distinct victims
        assert all(keys[s].startswith("n") for s in senders)
        assert 1 <= len(outs) <= 3
        assert {keys[d] for d, _ in outs} == {"sink"}
        in_times = [t for _, t in ins]
        out_times = [t for _, t in outs]
        assert max(in_times) < min(out_times)  # burst precedes cash-out
        assert max(out_times) - min(in_times) < 2 * cfg.burst_window
        assert min(in_times) >= 0 and max(out_times) < cfg.time_span


def test_normal_traffic_stays_normal():
    cfg = SynthConfig(n_normal=30, n_phisher=0, time_span=50_000, seed=1)
    events = generate_events(cfg)
    src, dst, t, keys, labels = events
    assert all(s.startswith("n") and d.startswith("n") for s, d, _ in as_rows(events))
    assert (src != dst).all()  # partner shift avoids self-pay
    assert ((0 <= t) & (t < cfg.time_span)).all()
    assert set(labels) == {0}
    assert "sink" not in keys


def test_labels_cover_exactly_graph_nodes():
    cfg = SynthConfig(n_normal=200, n_phisher=10, normal_rate=0.2,
                      time_span=100_000, burst_fanin=5, seed=2)
    graph, labels = generate(cfg)
    assert sorted(labels) == list(range(graph.n_nodes))
    for node, lab in labels.items():
        key = graph.id_to_key[node]
        assert lab == (1 if key.startswith("p") else 0)
    # low rate leaves some normals without transactions; they are dropped
    assert graph.n_nodes < cfg.n_normal + cfg.n_phisher + 1


def test_phishers_always_survive():
    cfg = SynthConfig(n_normal=100, n_phisher=8, normal_rate=0.0,
                      time_span=100_000, burst_fanin=3, seed=5)
    graph, labels = generate(cfg)
    keys = set(graph.id_to_key)
    assert {f"p{j}" for j in range(8)} <= keys
    assert "sink" in keys
    assert sum(labels.values()) == 8


def test_validation_errors():
    for cfg in (SynthConfig(n_normal=-1),
                SynthConfig(normal_rate=-0.5),
                SynthConfig(time_span=0),
                SynthConfig(time_span=2**63 + 1),  # a timestamp would overflow int64
                SynthConfig(burst_window=0),
                SynthConfig(time_span=1000, burst_window=11),  # over span/100
                SynthConfig(burst_fanin=0),
                SynthConfig(n_normal=10, burst_fanin=11),
                SynthConfig(seed=-1)):
        with pytest.raises(ValueError):
            cfg.validate()


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_non_finite_rate_rejected(rate):
    with pytest.raises(ValueError, match="normal_rate must be finite"):
        SynthConfig(normal_rate=rate).validate()


def test_burst_window_cap_accepts_boundary():
    SynthConfig(time_span=60_000, burst_window=600).validate()


def test_mean_transactions_tracks_rate():
    cfg = SynthConfig(n_normal=2000, n_phisher=0, normal_rate=5.0,
                      time_span=1_000_000, seed=11)
    src = generate_events(cfg)[0]
    per_account = len(src) / cfg.n_normal
    assert abs(per_account - cfg.normal_rate) < 0.3  # Poisson mean


def test_time_span_bound_is_named_and_inclusive():
    with pytest.raises(ValueError, match=r"time_span must be in 1\.\.2\*\*63"):
        SynthConfig(time_span=2**63 + 1).validate()
    cfg = SynthConfig(n_normal=20, n_phisher=2, burst_fanin=3, time_span=2**63, seed=0)
    t = generate_events(cfg)[2]
    assert t.dtype == np.int64 and (t >= 0).all()
    assert int(t.max()) > 2**62  # drawn across the whole span
