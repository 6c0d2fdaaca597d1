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

from .graph_model import first_seen, graph_from_ids


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
        if not 1 <= self.time_span <= 2**63:  # timestamps below it fit in int64
            raise ValueError(f"time_span must be in 1..2**63, got {self.time_span}")
        if self.n_phisher > 0:
            if self.burst_window < 1:
                raise ValueError("burst_window must be positive")
            if self.burst_window > self.time_span / 100:
                raise ValueError("burst_window must be at most time_span / 100")
            if self.burst_fanin < 1:
                raise ValueError("burst_fanin must be positive")
            if self.burst_fanin > self.n_normal:
                raise ValueError("burst_fanin needs that many distinct normal accounts")


def generate_events(config: SynthConfig):
    """(src, dst, t, keys, labels): every planned edge as int64 arrays over
    account codes, normal i -> i, phisher j -> n_normal + j and their sink
    -> n_normal + n_phisher, with keys[c] and labels[c] (1 = phisher)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, n_phisher, window = config.n_normal, config.n_phisher, config.burst_window

    counts = rng.poisson(config.normal_rate, size=n) * (n >= 2)  # a lone account has no partner
    none = np.empty(0, dtype=np.int64)
    src, dst, t = [np.repeat(np.arange(n), counts)], [none], [none]  # never empty lists
    active = np.flatnonzero(counts)
    for u, m in zip(active.tolist(), counts[active].tolist()):
        partners = rng.integers(0, n - 1, size=m)
        dst.append(partners + (partners >= u))  # uniform over the others
        t.append(rng.integers(0, config.time_span, size=m))

    sink = n + n_phisher
    start_cap = max(config.time_span - 2 * window, 1)
    for phisher in range(n, sink):
        t0 = int(rng.integers(0, start_cap))
        victims = rng.choice(n, size=config.burst_fanin, replace=False)
        t.append(t0 + rng.integers(0, window, size=config.burst_fanin))  # the inbound burst
        n_out = int(rng.integers(1, 4))
        t.append(t0 + window + rng.integers(0, window, size=n_out))  # the cash-out
        src += [victims, np.full(n_out, phisher)]
        dst += [np.full(config.burst_fanin, phisher), np.full(n_out, sink)]

    keys = [f"n{i}" for i in range(n)] + [f"p{j}" for j in range(n_phisher)]
    keys += ["sink"] * (n_phisher > 0)
    labels = [0] * n + [1] * n_phisher + [0] * (n_phisher > 0)
    return (*map(np.concatenate, (src, dst, t)), keys, labels)


def generate(config: SynthConfig):
    """Build the (TemporalGraph, {node id: label}) pair for a config. Ids are
    numbered by graph_model.first_seen over the edge arrays, source before
    target; accounts that never transact are dropped from both."""
    src, dst, t, keys, labels = generate_events(config)
    ends = np.column_stack([src, dst]).ravel()
    ids, first = first_seen(ends)
    seen = ends[first].tolist()  # account codes, in id order
    src, dst = ids.reshape(-1, 2).T
    graph = graph_from_ids(src, dst, t, {keys[c]: i for i, c in enumerate(seen)})
    return graph, {i: labels[c] for i, c in enumerate(seen)}
