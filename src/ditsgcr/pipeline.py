"""End-to-end embedding pipeline.

Starting from uniform low-dimensional rows Z = 1/K, each iteration lifts
Z to high-dimensional embeddings H (temporal aggregation), soft-clusters
the normalized H, converts centroid distances to a fresh low-dimensional
Z (subx), smooths Z over the transaction graph (Laplacian solve) and
re-aggregates. Iteration stops early once the number of distinct
embedding rows stops increasing; the result of the non-improving
iteration is discarded.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import clustering, laplacian, temporal_aggregation
from .graph_model import WEIGHT_MODES, adjacency_weights

logger = logging.getLogger(__name__)

ABLATIONS = ("no_neighbor", "no_temporal", "no_laplacian")


@dataclass
class PipelineConfig:
    clusters: int = 10
    alpha: float = 1.0
    beta: float = 10.0
    max_iters: int = 10
    kmeans_iters: int = 10
    lam: float = 1.0
    mu: float = 1.0
    seed: int = 42
    literal_eq4: bool = False
    ablation: frozenset = frozenset()
    weight_mode: str = "count"

    def validate(self) -> None:
        if self.clusters < 1:
            raise ValueError("clusters must be at least 1")
        for name in ("alpha", "beta", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be at least 1")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        unknown = set(self.ablation) - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablation flags {sorted(unknown)}")


@dataclass
class PipelineResult:
    embeddings: np.ndarray
    iterations_run: int
    unique_counts: list
    stop_reason: str  # "no_gain" or "max_iters", see run()
    stage_counters: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)


def count_unique_embeddings(H: np.ndarray) -> int:
    """Distinct rows of H after rounding every entry to 6 decimals."""
    if H.shape[0] == 0:
        return 0
    rounded = np.round(H, 6) + 0.0  # +0.0 folds -0.0 into +0.0
    return len({row.tobytes() for row in rounded})


class _Stages:
    """Per-stage call counters and cumulative wall-times."""

    def __init__(self):
        self.counters = {}
        self.seconds = {}

    def run(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + (time.perf_counter() - start)
        self.counters[name] = self.counters.get(name, 0) + 1
        return out


def run(graph, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Compute final embeddings for every node of the graph.

    Returns embeddings of width 4K^2 + 2K along with the number of loop
    iterations entered, the per-iteration distinct-row counts (initial
    count first), why the loop stopped and stage counters/wall-times:
    "no_gain" when an iteration did not add a distinct row (its result is
    not adopted and its count is the last one), "max_iters" otherwise.
    Deterministic for a fixed config: centroid seeding derives from
    config.seed + iteration index. Raises ValueError for invalid configs
    or graphs with fewer (but more than zero) nodes than clusters; an
    empty graph returns an empty result without iterating ("no_gain").
    """
    config.validate()
    n = graph.n_nodes
    k = config.clusters
    width = temporal_aggregation.output_width(k)
    if n == 0:
        return PipelineResult(np.zeros((0, width)), 0, [0], "no_gain")
    if n < k:
        raise ValueError(f"{k} clusters need at least {k} nodes, the graph has {n}")

    stages = _Stages()
    flat = 4 * k * k

    def lift(Z):
        H = stages.run("aggregate", temporal_aggregation.aggregate,
                       graph, Z, config.alpha, config.literal_eq4)
        if "no_temporal" in config.ablation:
            H[:, :flat] = 0.0
        if "no_neighbor" in config.ablation:
            H[:, flat:] = 0.0
        return H

    smooth = "no_laplacian" not in config.ablation
    pairs = None
    lap_params = laplacian.LaplacianParams(lam=config.lam, mu=config.mu)

    Z = np.full((n, k), 1.0 / k)
    H = lift(Z)
    count = count_unique_embeddings(H)
    unique_counts = [count]
    iterations_run = 0
    stop_reason = "max_iters"

    for i in range(1, config.max_iters + 1):
        iterations_run = i
        H_norm = clustering.normalize_rows(H)
        R, centroids = stages.run("soft_kmeans", clustering.soft_kmeans,
                                  H_norm, k, config.beta, config.kmeans_iters,
                                  config.seed + i)
        subx = stages.run("subx", clustering.compute_subx, H_norm, centroids)
        if smooth:
            if pairs is None:
                pairs = adjacency_weights(graph, config.weight_mode, config.alpha)
            Z = stages.run("laplacian_solve", laplacian.solve,
                           subx, pairs, R, lap_params)
        else:
            Z = subx
        H_new = lift(Z)
        count_new = count_unique_embeddings(H_new)
        unique_counts.append(count_new)
        logger.info("iteration %d: %d unique rows (previous %d), stage seconds %s",
                    i, count_new, count,
                    {s: round(t, 3) for s, t in stages.seconds.items()})
        if count >= count_new:
            stop_reason = "no_gain"  # the non-improving result is not adopted
            break
        H = H_new
        count = count_new

    logger.info("stopped after %d iterations: %s", iterations_run, stop_reason)
    return PipelineResult(H, iterations_run, unique_counts, stop_reason,
                          stages.counters, stages.seconds)
