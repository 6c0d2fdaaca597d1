"""Synthetic transaction graphs with planted phishing bursts.

Normal accounts transact with uniformly random normal partners at
uniform timestamps. Each phisher receives a burst of inbound transfers
from distinct normal accounts inside one short window, then forwards
1 to 3 transfers to a sink account shared by all phishers in the next
window. Everything is driven by one seeded generator, so a config
regenerates byte-identically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph_model import build_graph


@dataclass
class SynthConfig:
    n_normal: int = 1900
    n_phisher: int = 100
    normal_rate: float = 5.0
    time_span: int = 1_000_000
    burst_window: int = 600
    burst_fanin: int = 30
    seed: int = 42

    def validate(self) -> None:
        if self.n_normal < 0 or self.n_phisher < 0:
            raise ValueError("node counts must be non-negative")
        if not math.isfinite(self.normal_rate):
            raise ValueError(f"normal_rate must be finite, got {self.normal_rate}")
        if self.normal_rate < 0:
            raise ValueError("normal_rate must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.time_span < 1:
            raise ValueError("time_span must be positive")
        if self.n_phisher > 0:
            if self.burst_window < 1:
                raise ValueError("burst_window must be positive")
            if self.burst_window > self.time_span / 100:
                raise ValueError("burst_window must be at most time_span / 100")
            if self.burst_fanin < 1:
                raise ValueError("burst_fanin must be positive")
            if self.burst_fanin > self.n_normal:
                raise ValueError("burst_fanin needs that many distinct normal accounts")


def _normal_key(i: int) -> str:
    return f"n{i}"


def _phisher_key(i: int) -> str:
    return f"p{i}"


_SINK_KEY = "sink"


def generate_events(config: SynthConfig):
    """Raw edge rows and labels-by-key for a config.

    Returns (events, labels_by_key): events is a list of
    (src_key, dst_key, t) and is the generator's own accounting of every
    edge it planned, labels_by_key maps account key to 0/1 for every
    account that can appear (the graph built from events may omit
    accounts that never transacted).
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    events = []

    counts = rng.poisson(config.normal_rate, size=config.n_normal)
    for u in range(config.n_normal):
        m = int(counts[u])
        if m == 0 or config.n_normal < 2:
            continue
        partners = rng.integers(0, config.n_normal - 1, size=m)
        partners = partners + (partners >= u)  # uniform over the others
        times = rng.integers(0, config.time_span, size=m)
        src = _normal_key(u)
        for p, t in zip(partners, times):
            events.append((src, _normal_key(int(p)), int(t)))

    for j in range(config.n_phisher):
        phisher = _phisher_key(j)
        start_cap = config.time_span - 2 * config.burst_window
        t0 = int(rng.integers(0, max(start_cap, 1)))
        victims = rng.choice(config.n_normal, size=config.burst_fanin, replace=False)
        in_times = t0 + rng.integers(0, config.burst_window, size=config.burst_fanin)
        for v, t in zip(victims, in_times):
            events.append((_normal_key(int(v)), phisher, int(t)))
        n_out = int(rng.integers(1, 4))
        out_times = t0 + config.burst_window + rng.integers(0, config.burst_window, size=n_out)
        for t in out_times:
            events.append((phisher, _SINK_KEY, int(t)))

    labels_by_key = {_normal_key(i): 0 for i in range(config.n_normal)}
    labels_by_key.update({_phisher_key(j): 1 for j in range(config.n_phisher)})
    if config.n_phisher > 0:
        labels_by_key[_SINK_KEY] = 0
    return events, labels_by_key


def generate(config: SynthConfig):
    """Build the (TemporalGraph, {node id: label}) pair for a config.

    Labels cover exactly the nodes present in the graph; accounts that
    never transacted are dropped from both.
    """
    events, labels_by_key = generate_events(config)
    graph = build_graph(events)
    labels = {graph.key_to_id[k]: lab for k, lab in labels_by_key.items()
              if k in graph.key_to_id}
    return graph, labels
