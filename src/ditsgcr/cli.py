"""Command line front end.

Three subcommands: embed (graph in, embedding CSV out), evaluate (graph
plus labels in, metrics line out) and synth (write a synthetic benchmark
graph). Every produced data file is deterministic for a fixed flag set;
a JSON run manifest (resolved config, input digests, stage wall-times
and, for embed and evaluate, why the iteration loop stopped) is written
alongside each primary output. DITSGCR_LOG={error|info|debug}
controls diagnostics on stderr.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
import time

from . import __version__

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging():
    name = os.environ.get("DITSGCR_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)  # repeated main() calls must re-apply the env


def _configure_threads(n):
    # honored by BLAS/OpenMP only if set before numpy loads, which is why
    # the package __init__ imports nothing and the heavy imports in this
    # module sit inside the command handlers
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, output_path, inputs, stage_seconds, stop_reason=None):
    config = {k: (sorted(v) if isinstance(v, list) else v)
              for k, v in vars(args).items() if k not in ("func", "threads")}
    manifest = {
        "artifact_version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "stage_seconds": {k: round(v, 6) for k, v in stage_seconds.items()},
    }
    if stop_reason is not None:
        manifest["stop_reason"] = stop_reason
    path = f"{output_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _shared_flags():
    """Flags shared by embed and evaluate: input, pipeline knobs, seed, threads."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--input", required=True, help="edge CSV: from,to,timestamp[,...]")
    parser.add_argument("--clusters", type=int, default=10,
                        help="number of clusters K, embedding width is 4K^2+2K (default 10)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="temporal decay scale in seconds (default 1.0)")
    parser.add_argument("--beta", type=float, default=10.0,
                        help="assignment sharpness (default 10.0)")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="cluster-Laplacian weight (default 1.0)")
    parser.add_argument("--mu", type=float, default=1.0,
                        help="anchor weight tying the solution to subx (default 1.0)")
    parser.add_argument("--kmeans-iters", type=int, default=10,
                        help="clustering iterations per pipeline round (default 10)")
    parser.add_argument("--max-iters", type=int, default=10,
                        help="pipeline iteration cap (default 10)")
    parser.add_argument("--weight-mode", choices=["count", "recency"], default="count",
                        help="adjacency weights: transaction counts or recency-faded sums")
    parser.add_argument("--literal-eq4", action="store_true",
                        help="use the growth-form temporal recurrence (alpha becomes inert)")
    parser.add_argument("--ablate", action="append", default=[],
                        choices=["no_neighbor", "no_temporal", "no_laplacian"],
                        help="disable one signal path; repeatable")
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads (applies to fresh processes)")
    return parser


def _pipeline_config(args):
    from .pipeline import PipelineConfig
    return PipelineConfig(
        clusters=args.clusters, alpha=args.alpha, beta=args.beta,
        max_iters=args.max_iters, kmeans_iters=args.kmeans_iters,
        lam=args.lam, mu=args.mu, seed=args.seed,
        literal_eq4=args.literal_eq4, ablation=frozenset(args.ablate),
        weight_mode=args.weight_mode,
    )


def _cmd_embed(args):
    from . import graph_model, pipeline

    graph = graph_model.ingest_csv(args.input)
    started = time.perf_counter()
    result = pipeline.run(graph, _pipeline_config(args))
    total = time.perf_counter() - started

    H = result.embeddings
    row = "%s," + ",".join(["%.9g"] * H.shape[1]) + "\n"
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("node_key," + ",".join(f"e{i}" for i in range(H.shape[1])) + "\n")
        for key, values in zip(graph.id_to_key, H):
            # one row at a time: H.tolist() would hold every value as a Python float
            fh.write(row % (key, *values.tolist()))

    _write_manifest(args, args.output, {"edges": args.input},
                    {**result.stage_seconds, "total": total}, result.stop_reason)
    print(f"wrote {H.shape[0]} embeddings of width {H.shape[1]} to {args.output} "
          f"({result.iterations_run} iterations)")
    return 0


def _cmd_evaluate(args):
    from . import evaluation, graph_model, pipeline

    graph = graph_model.ingest_csv(args.input)
    labels = graph_model.ingest_labels(args.labels, graph)
    if not labels.labels:
        raise ValueError("no usable labels: every labeled account is missing from the graph")

    started = time.perf_counter()
    result = pipeline.run(graph, _pipeline_config(args))
    H = result.embeddings

    train_ids, test_ids = evaluation.split(
        labels, evaluation.SplitSpec(train_fraction=args.train_frac, seed=args.seed))
    y = labels.labels
    forest = evaluation.train_forest(
        H[train_ids], [y[i] for i in train_ids],
        evaluation.ForestConfig(n_trees=args.trees, seed=args.seed))
    scores = evaluation.predict_scores(forest, H[test_ids])
    metrics = evaluation.compute_metrics(
        scores, [y[i] for i in test_ids], threshold=args.threshold)
    total = time.perf_counter() - started

    line = (f"precision={metrics.precision:.6f} recall={metrics.recall:.6f} "
            f"f1={metrics.f1:.6f} wf1={metrics.weighted_f1:.6f} auc={metrics.auc:.6f}")
    print(line)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    if args.emit_roc:
        with open(args.emit_roc, "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr,threshold\n")
            for (fpr, tpr), thr in zip(metrics.roc_points, metrics.roc_thresholds):
                fh.write("%.9g,%.9g,%.9g\n" % (fpr, tpr, thr))
    for path in (args.output, args.emit_roc):
        if path:
            _write_manifest(args, path, {"edges": args.input, "labels": args.labels},
                            {**result.stage_seconds, "total": total}, result.stop_reason)
    return 0


def _cmd_synth(args):
    from . import graph_model, synthgen

    config = synthgen.SynthConfig(
        n_normal=args.normal, n_phisher=args.phishers, normal_rate=args.rate,
        time_span=args.time_span, burst_window=args.burst_window,
        burst_fanin=args.burst_fanin, seed=args.seed)
    started = time.perf_counter()
    graph, labels = synthgen.generate(config)
    total = time.perf_counter() - started

    graph_model.write_edge_csv(graph, args.out_edges)
    graph_model.write_label_csv(graph, labels, args.out_labels)
    _write_manifest(args, args.out_edges, {}, {"total": total})
    print(f"wrote {graph.n_edges} edges over {graph.n_nodes} nodes to {args.out_edges}, "
          f"labels to {args.out_labels}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ditsgcr",
        description="Structural node embeddings for directed temporal transaction "
                    "graphs, with a malicious-account detection harness.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = [_shared_flags()]
    embed = sub.add_parser("embed", parents=shared,
                           help="compute node embeddings for an edge CSV")
    embed.add_argument("--output", default="embeddings.csv",
                       help="embedding CSV destination (default embeddings.csv)")
    embed.set_defaults(func=_cmd_embed)

    ev = sub.add_parser("evaluate", parents=shared,
                        help="train and score a detector on labeled nodes")
    ev.add_argument("--labels", required=True, help="label CSV: account,label with label in {0,1}")
    ev.add_argument("--output", default=None, help="optional file for the metrics line")
    ev.add_argument("--threshold", type=float, default=0.35,
                    help="vote fraction above which a node is flagged (default 0.35)")
    ev.add_argument("--trees", type=int, default=100, help="forest size (default 100)")
    ev.add_argument("--train-frac", type=float, default=0.8,
                    help="stratified train fraction (default 0.8)")
    ev.add_argument("--emit-roc", default=None, metavar="PATH",
                    help="write grouped ROC points as fpr,tpr,threshold CSV")
    ev.set_defaults(func=_cmd_evaluate)

    synth = sub.add_parser("synth", help="generate a synthetic labeled benchmark graph")
    synth.add_argument("--normal", type=int, default=1900, help="normal accounts (default 1900)")
    synth.add_argument("--phishers", type=int, default=100, help="phisher accounts (default 100)")
    synth.add_argument("--rate", type=float, default=5.0,
                       help="mean transactions per normal account (default 5.0)")
    synth.add_argument("--time-span", type=int, default=1_000_000,
                       help="timestamp range in seconds (default 1000000)")
    synth.add_argument("--burst-window", type=int, default=600,
                       help="burst length in seconds, at most time_span/100 (default 600)")
    synth.add_argument("--burst-fanin", type=int, default=30,
                       help="inbound edges per phisher burst (default 30)")
    synth.add_argument("--seed", type=int, default=42, help="generator seed (default 42)")
    synth.add_argument("--out-edges", default="edges.csv",
                       help="edge CSV destination (default edges.csv)")
    synth.add_argument("--out-labels", default="labels.csv",
                       help="label CSV destination (default labels.csv)")
    synth.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _configure_threads(args.threads)
    _configure_logging()
    from .laplacian import SolverConvergenceError  # numpy loads after the thread cap
    try:
        return args.func(args)
    except (ValueError, OSError, SolverConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
