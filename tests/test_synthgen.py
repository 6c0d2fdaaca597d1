import pytest

from ditsgcr.synthgen import SynthConfig, generate, generate_events


def burst_events(events, phisher):
    ins = [(s, t) for s, d, t in events if d == phisher]
    outs = [(d, t) for s, d, t in events if s == phisher]
    return ins, outs


def test_empty_config():
    graph, labels = generate(SynthConfig(n_normal=0, n_phisher=0))
    assert graph.n_nodes == 0 and graph.n_edges == 0
    assert len(labels) == 0


def test_deterministic_events():
    cfg = SynthConfig(n_normal=50, n_phisher=5, time_span=100_000, seed=3)
    a, la = generate_events(cfg)
    b, lb = generate_events(cfg)
    assert a == b and la == lb
    c, _ = generate_events(SynthConfig(n_normal=50, n_phisher=5,
                                       time_span=100_000, seed=4))
    assert a != c


def test_event_accounting_matches_graph():
    cfg = SynthConfig(n_normal=40, n_phisher=4, time_span=80_000, seed=0)
    events, _ = generate_events(cfg)
    graph, labels = generate(cfg)
    assert graph.n_edges == len(events)
    assert sorted(graph.iter_edges(), key=lambda e: (e[0], e[1], e[2])) == \
        sorted(((graph.key_to_id[s], graph.key_to_id[d], t) for s, d, t in events),
               key=lambda e: (e[0], e[1], e[2]))


def test_burst_structure():
    cfg = SynthConfig(n_normal=60, n_phisher=6, time_span=90_000,
                      burst_window=400, burst_fanin=12, seed=7)
    events, _ = generate_events(cfg)
    for j in range(cfg.n_phisher):
        ins, outs = burst_events(events, f"p{j}")
        senders = [s for s, _ in ins]
        assert len(senders) == cfg.burst_fanin
        assert len(set(senders)) == cfg.burst_fanin  # distinct victims
        assert all(s.startswith("n") for s in senders)
        assert 1 <= len(outs) <= 3
        assert {d for d, _ in outs} == {"sink"}
        in_times = [t for _, t in ins]
        out_times = [t for _, t in outs]
        assert max(in_times) < min(out_times)  # burst precedes cash-out
        assert max(out_times) - min(in_times) < 2 * cfg.burst_window
        assert min(in_times) >= 0 and max(out_times) < cfg.time_span


def test_normal_traffic_stays_normal():
    cfg = SynthConfig(n_normal=30, n_phisher=0, time_span=50_000, seed=1)
    events, labels_by_key = generate_events(cfg)
    assert all(s.startswith("n") and d.startswith("n") for s, d, _ in events)
    assert all(s != d for s, d, _ in events)  # partner shift avoids self-pay
    assert all(0 <= t < cfg.time_span for _, _, t in events)
    assert set(labels_by_key.values()) == {0}
    assert "sink" not in labels_by_key


def test_labels_cover_exactly_graph_nodes():
    cfg = SynthConfig(n_normal=200, n_phisher=10, normal_rate=0.2,
                      time_span=100_000, burst_fanin=5, seed=2)
    graph, labels = generate(cfg)
    assert sorted(labels.labels) == list(range(graph.n_nodes))
    for node, lab in labels.labels.items():
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
    assert sum(labels.labels.values()) == 8


def test_validation_errors():
    for cfg in (SynthConfig(n_normal=-1),
                SynthConfig(normal_rate=-0.5),
                SynthConfig(time_span=0),
                SynthConfig(burst_window=0),
                SynthConfig(time_span=1000, burst_window=11),  # over span/100
                SynthConfig(burst_fanin=0),
                SynthConfig(n_normal=10, burst_fanin=11)):
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
    events, _ = generate_events(cfg)
    per_account = len(events) / cfg.n_normal
    assert abs(per_account - cfg.normal_rate) < 0.3  # Poisson mean
