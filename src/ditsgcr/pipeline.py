"""End-to-end embedding pipeline.

Starting from uniform low-dimensional rows Z = 1/K, each iteration lifts
Z to high-dimensional embeddings H (temporal aggregation), soft-clusters
the normalized H, converts centroid distances to a fresh low-dimensional
Z (subx), smooths Z over the transaction graph (Laplacian solve) and
re-aggregates. Iteration stops early once the number of distinct
embedding rows stops increasing: the non-improving H is dropped and the
adopted one lifted again from its Z, so one n x width matrix is kept.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import clustering, laplacian, temporal_aggregation
from .graph_model import adjacency_weights

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
    ablation: frozenset = frozenset()

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        unknown = set(self.ablation) - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablation flags {sorted(unknown)}")


@dataclass
class PipelineResult:
    embeddings: np.ndarray
    iterations_run: int
    unique_counts: list
    stop_reason: str  # "no_gain" or "max_iters", see run()
    stage_seconds: dict = field(default_factory=dict)


SHIFT = 0.7390851332151607  # any constant in (0.5, 1) with few trailing zero bits


def _key_weights(width):
    """Fixed random odd 64-bit weights, one per column, for row keys."""
    rng = np.random.default_rng(0x5EED)
    return rng.integers(0, 2**64, size=width, dtype=np.uint64) | np.uint64(1)


def count_unique_embeddings(H: np.ndarray) -> int:
    """Distinct rows of H after rounding every entry to 6 decimals, -0.0
    folded into +0.0, counted exactly without a rounded copy of H.

    A row's key is the sum mod 2**64 of the bits of row + SHIFT, read as
    uint64, times _key_weights; the shift fills short mantissas (0.5, 3.0)
    whose trailing zeros would leave only the top bits of each product set.
    Each row whose key repeats is compared as floats (-0.0 == +0.0) with
    the first row of its key; only keys holding unequal rows go to
    np.unique. Both passes run on clustering.map_blocks by row blocks.
    """
    n, width = H.shape
    keys = np.empty(n, dtype=np.uint64)
    weights = _key_weights(width)

    def key(a, b):
        x = np.round(H[a:b], 6)
        x += SHIFT
        np.matmul(x.view(np.uint64), weights, out=keys[a:b])
    clustering.map_blocks(key, clustering.row_blocks(n))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows = np.flatnonzero(first[inverse] != np.arange(n))
    unequal = np.empty(len(rows), dtype=bool)

    def compare(a, b):
        x, y = H[rows[a:b]], H[first[inverse[rows[a:b]]]]
        np.round(x, 6, out=x)
        np.round(y, 6, out=y)
        np.any(x != y, axis=1, out=unequal[a:b])
    clustering.map_blocks(compare, clustering.row_blocks(len(rows)))
    count = len(first)
    if unequal.any():
        dirty = np.isin(inverse, inverse[rows[unequal]])
        bits = (np.round(H[dirty], 6) + 0.0).view(np.uint64)
        count += len(np.unique(bits, axis=0)) - len(np.unique(inverse[rows[unequal]]))
    return int(count)


def timed(seconds, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall time to seconds[name]."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds[name] = seconds.get(name, 0.0) + (time.perf_counter() - start)
    return out


def run(graph, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Compute final embeddings for every node of the graph.

    Returns embeddings of width 4K^2 + 2K along with the number of loop
    iterations entered, the per-iteration distinct-row counts (initial
    count first), why the loop stopped and per-stage wall-times:
    "no_gain" when an iteration did not add a distinct row (its count is the
    last one, and the adopted Z is lifted again), "max_iters" otherwise.
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

    seconds = {}  # cumulative wall-time per stage
    flat = 4 * k * k

    def lift(Z):
        H = timed(seconds, "aggregate", temporal_aggregation.aggregate, graph, Z, config.alpha)
        if "no_temporal" in config.ablation:
            H[:, :flat] = 0.0
        if "no_neighbor" in config.ablation:
            H[:, flat:] = 0.0
        return H

    pairs = adjacency_weights(graph) if "no_laplacian" not in config.ablation else None

    Z = np.full((n, k), 1.0 / k)
    H = lift(Z)
    unique_counts = [count_unique_embeddings(H)]
    stop_reason = "max_iters"

    for i in range(1, config.max_iters + 1):
        kept_Z = Z
        H_norm = clustering.normalize_rows(H, out=H)
        R, centroids = timed(seconds, "soft_kmeans", clustering.soft_kmeans,
                             H_norm, k, config.beta, config.kmeans_iters, config.seed + i)
        subx = timed(seconds, "subx", clustering.compute_subx, H_norm, centroids)
        del H, H_norm  # one array, freed before lift(Z) builds the next H
        if pairs is not None:
            Z = timed(seconds, "laplacian_solve", laplacian.solve,
                      subx, pairs, R, lam=config.lam, mu=config.mu)
        else:
            Z = subx
        del R, subx  # n x k each, freed for the lift's temporaries
        H = lift(Z)
        unique_counts.append(count_unique_embeddings(H))
        logger.info("iteration %d: %d unique rows (previous %d), stage seconds %s",
                    i, unique_counts[-1], unique_counts[-2],
                    {s: round(t, 3) for s, t in seconds.items()})
        if unique_counts[-2] >= unique_counts[-1]:
            stop_reason = "no_gain"  # the non-improving result is not adopted
            del H  # freed before the lift gives the adopted H's bits again
            H = lift(kept_Z)
            break

    iterations_run = len(unique_counts) - 1
    logger.info("stopped after %d iterations: %s", iterations_run, stop_reason)
    return PipelineResult(H, iterations_run, unique_counts, stop_reason, seconds)
