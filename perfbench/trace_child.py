"""Traced in-process run of one ditsgcr CLI command.

    python perfbench/trace_child.py SPANS_JSON SPAWNED_AT CLI_ARG...

Imports ditsgcr, replaces the public functions of its modules with
wrappers by setting module attributes (the program's files are not
edited), runs ``cli.main(CLI_ARG...)`` and, when it ends, writes every
span (name, start, end, parent) and count to SPANS_JSON. SPAWNED_AT is the
parent's ``time.perf_counter()`` just before it started this process; span
times are seconds from then. That is CLOCK_MONOTONIC on Linux, one clock for
all processes, so the first span also covers interpreter start-up. The
wrappers only time and count; the command's outputs stay byte-identical to
an untraced run, which the benchmark checks.
"""

import json
import resource
import sys
import time
from contextlib import contextmanager


class Recorder:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self, origin):
        self.origin = origin
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = {}
        self._stack = []

    def now(self):
        return time.perf_counter() - self.origin

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.now()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def set(self, key, value):
        self.counts[key] = value


class CountingMatrix:
    """Stands in for M inside cg_solve and counts its ``M @ x`` products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(rec, modules):
    """Wrap each layer's public functions; returns nothing, patches in place."""
    cli, clustering, evaluation, graph_model, laplacian, pipeline, aggregation = modules
    entries_by_graph = {}

    def wrap(module, attr, name, before=None, after=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            with rec.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def after_ingest(args, graph):
        rec.set("graph_model.ingest_csv.rss_mb", _peak_rss_mb())

    def after_aggregate(args, out):
        graph = args[0]
        if id(graph) not in entries_by_graph:
            entries_by_graph[id(graph)] = sum(len(tl) for tl in graph.timelines)
        rec.add("temporal_aggregation.aggregate.calls", 1)
        rec.add("temporal_aggregation.aggregate.entries", entries_by_graph[id(graph)])

    def before_cg(args):
        return (CountingMatrix(args[0]),) + tuple(args[1:])

    def after_cg(args, out):
        # one product per iteration plus the final true-residual check
        iters = max(args[0].products - 1, 0)
        rec.add("laplacian.cg_solve.calls", 1)
        rec.add("laplacian.cg_solve.iters_total", iters)
        rec.set("laplacian.cg_solve.iters_max",
                max(iters, rec.counts.get("laplacian.cg_solve.iters_max", 0)))

    def after_run(args, result):
        uc = result.unique_counts
        rec.set("pipeline.iterations_run", result.iterations_run)
        rec.set("pipeline.distinct_rows", max(uc))
        rec.set("pipeline.adopted", sum(1 for a, b in zip(uc, uc[1:]) if b > a))

    wrap(graph_model, "ingest_csv", "graph_model.ingest_csv", after=after_ingest)
    wrap(graph_model, "ingest_labels", "graph_model.ingest_labels")
    # pipeline imports adjacency_weights by name, so its own reference is the one to wrap
    wrap(pipeline, "adjacency_weights", "graph_model.adjacency_weights",
         after=lambda args, w: rec.set("graph_model.adjacency_weights.pairs", len(w)))
    wrap(aggregation, "aggregate", "temporal_aggregation.aggregate", after=after_aggregate)
    wrap(clustering, "soft_kmeans", "clustering.soft_kmeans",
         after=lambda args, out: rec.add("clustering.soft_kmeans.calls", 1))
    wrap(clustering, "compute_subx", "clustering.compute_subx")
    wrap(laplacian, "assemble_system", "laplacian.assemble_system",
         after=lambda args, M: rec.set("laplacian.assemble_system.nnz", int(M.nnz)))
    wrap(laplacian, "cg_solve", "laplacian.cg_solve", before=before_cg, after=after_cg)
    wrap(pipeline, "run", "pipeline.run", after=after_run)
    wrap(pipeline, "count_unique_embeddings", "pipeline.count_unique_embeddings")
    wrap(cli, "_cmd_embed", "cli.command")
    wrap(cli, "_cmd_evaluate", "cli.command")
    wrap(cli, "_write_manifest", "cli._write_manifest")
    wrap(evaluation, "train_forest", "evaluation.train_forest",
         after=lambda args, forest: rec.set(
             "evaluation.train_forest.tree_nodes", sum(len(t.value) for t in forest.trees)))
    wrap(evaluation, "predict_scores", "evaluation.predict_scores")
    wrap(evaluation, "compute_metrics", "evaluation.compute_metrics")


def main(argv):
    spans_path, spawned_at, cli_args = argv[0], float(argv[1]), argv[2:]
    rec = Recorder(spawned_at)
    import ditsgcr  # noqa: F401  (the package imports numpy, scipy and every module)
    from ditsgcr import (cli, clustering, evaluation, graph_model, laplacian,
                         pipeline, temporal_aggregation)
    rec.spans.append(["process.import", 0.0, rec.now(), None])  # start-up and imports
    install(rec, (cli, clustering, evaluation, graph_model, laplacian, pipeline,
                  temporal_aggregation))
    with rec.span("cli.main"):
        code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": rec.spans, "counts": rec.counts,
                   "peak_rss_mb": _peak_rss_mb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
