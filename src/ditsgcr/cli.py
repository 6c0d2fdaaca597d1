"""Command line front end.

Three subcommands: embed (graph in, embedding CSV out), evaluate (graph
plus labels in, metrics line out) and synth (write a synthetic benchmark
graph). Every produced data file is deterministic for a fixed flag set;
a JSON run manifest (resolved config, input digests, stage wall-times
and, for embed and evaluate, why the iteration loop stopped and peak RSS)
is written alongside each primary output. DITSGCR_LOG={error|info|debug}
controls diagnostics on stderr; unset, warnings show.
"""

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import sys
import tempfile
import time

from . import __version__

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging():
    name = os.environ.get("DITSGCR_LOG", "").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)  # repeated main() calls must re-apply the env


def _configure_threads():
    # one BLAS/OpenMP thread whatever the environment says: the bits of the
    # gemms and dot products in soft k-means and CG depend on the thread
    # count. Honored only if set before numpy loads, which is why the
    # package __init__ imports nothing and the heavy imports in this module
    # sit inside the command handlers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return {"path": str(path), "sha256": h.hexdigest()}


def _reject_shared_outputs(outputs, manifested, inputs=()):
    """Raise ValueError if an output, {flag: path or None}, is not in an
    existing directory, or if two files the command writes are one: the
    outputs and "<path>.manifest.json" of the flags in manifested. So is an
    input, (flag, path) pairs, that is such a manifest."""
    named = {flag: path for flag, path in outputs.items() if path}
    for flag, path in named.items():
        if not os.path.isdir(parent := os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{flag}: no directory {parent}")
    named.update({f"the manifest of {flag}": f"{named[flag]}.manifest.json"
                  for flag in manifested if flag in named})
    seen = {}
    for flag, path in [*named.items(), *inputs]:
        first = seen.setdefault(os.path.realpath(path), flag)
        if first != flag and (flag in named or first.startswith("the manifest")):
            raise ValueError(f"{first} and {flag} are the same file: {path}")


def _write_manifest(args, output_path, inputs, stage_seconds, stop_reason=None,
                    write_workers=None):
    config = {k: (sorted(v) if isinstance(v, list) else v)
              for k, v in vars(args).items() if k != "func"}
    manifest = {
        "artifact_version": __version__,
        "config": config,
        "inputs": inputs,
        "stage_seconds": {k: round(v, 6) for k, v in stage_seconds.items()},
    }
    if stop_reason is not None:  # embed and evaluate
        manifest["stop_reason"] = stop_reason
        manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if write_workers is not None:  # embed
        manifest["write_workers"] = write_workers
    path = f"{output_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _shared_flags():
    """Flags shared by embed and evaluate: input, pipeline knobs, seed."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--input", required=True, help="edge CSV: from,to,timestamp[,...]")
    parser.add_argument("--clusters", type=int, default=10,
                        help="number of clusters K, embedding width is 4K^2+2K (default 10)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="temporal decay scale in seconds, 1e300 for no decay "
                             "(Eq. 4's growth form; default 1.0)")
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
    parser.add_argument("--ablate", action="append", default=[],
                        choices=["no_neighbor", "no_temporal", "no_laplacian"],
                        help="disable one signal path; repeatable")
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    return parser


def _pipeline_config(args):
    from .pipeline import PipelineConfig
    return PipelineConfig(
        clusters=args.clusters, alpha=args.alpha, beta=args.beta,
        max_iters=args.max_iters, kmeans_iters=args.kmeans_iters,
        lam=args.lam, mu=args.mu, seed=args.seed, ablation=frozenset(args.ablate),
    )


_write_rows = None  # (keys as bytes, H) while the embedding CSV is written


def _write_range(path, a, b, head=b""):
    """Write head, then rows a..b-1 of the embedding CSV, to path."""
    from . import csvformat
    keys, H = _write_rows
    with open(path, "wb") as fh:
        fh.write(head)
        csvformat.write(fh, H[a:b], keys[a:b])


def _cmd_embed(args):
    global _write_rows
    from . import clustering, graph_model, pipeline

    config = _pipeline_config(args)
    config.validate()  # before any input is read
    _reject_shared_outputs({"--output": args.output}, ["--output"], [("--input", args.input)])
    inputs = {"edges": _digest(args.input)}  # before --output can overwrite it
    seconds = {}
    graph = pipeline.timed(seconds, "ingest", graph_model.ingest_csv, args.input)
    result = pipeline.timed(seconds, "total", pipeline.run, graph, config)

    started = time.perf_counter()
    H = result.embeddings
    # quoted once, as csv.writer's QUOTE_MINIMAL would
    keys = [('"' + k.replace('"', '""') + '"' if set(k) & set(',"\r\n') else k).encode()
            for k in graph.id_to_key]
    n = H.shape[0]
    workers = clustering.pool_threads(n) + 1  # the CPUs an n-row map_blocks call uses
    # rows cuts[i]:cuts[i + 1] go to side file i from a forked worker, the
    # first range to part from the parent, which then appends the side files
    cuts = [n * i // workers for i in range(workers + 1)]
    # a new directory beside --output, so the working files are no existing file
    work = tempfile.mkdtemp(prefix=".ditsgcr-", dir=os.path.dirname(os.path.abspath(args.output)))
    part = os.path.join(work, "part")  # renamed onto --output once whole
    sides = [f"{part}.{i}" for i in range(1, workers)]
    head = ("node_key," + ",".join(f"e{i}" for i in range(H.shape[1])) + "\n").encode()
    _write_rows = keys, H
    try:
        if sides:
            import multiprocessing
            # fork, so that the workers inherit _write_rows instead of a
            # pickled H. They only format numbers and never call BLAS, so
            # forking after OpenBLAS has started its thread pool is safe.
            # Threads formatted these rows slower than the forked writers.
            with multiprocessing.get_context("fork").Pool(len(sides)) as pool:
                done = pool.starmap_async(_write_range, zip(sides, cuts[1:], cuts[2:]))
                _write_range(part, 0, cuts[1], head)
                done.get()
        else:
            _write_range(part, 0, cuts[1], head)
        with open(part, "ab") as fh:
            for side in sides:
                with open(side, "rb") as src:
                    shutil.copyfileobj(src, fh, 1 << 20)
        os.replace(part, args.output)
    finally:
        _write_rows = None
        shutil.rmtree(work)
    seconds["write"] = time.perf_counter() - started

    _write_manifest(args, args.output, inputs, {**result.stage_seconds, **seconds},
                    result.stop_reason, write_workers=workers)
    print(f"wrote {H.shape[0]} embeddings of width {H.shape[1]} to {args.output} "
          f"({result.iterations_run} iterations)")
    return 0


def _cmd_evaluate(args):
    import io

    import numpy as np

    from . import csvformat, evaluation, graph_model, pipeline

    config = _pipeline_config(args)
    config.validate()  # before split meets a negative seed
    if args.trees < 1:
        raise ValueError("need at least one tree")
    if not np.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold}")
    _reject_shared_outputs({"--output": args.output, "--emit-roc": args.emit_roc},
                           ["--output", "--emit-roc"],
                           [("--input", args.input), ("--labels", args.labels)])
    inputs = {"edges": _digest(args.input), "labels": _digest(args.labels)}
    seconds = {}
    graph = pipeline.timed(seconds, "ingest", graph_model.ingest_csv, args.input)
    labels = pipeline.timed(seconds, "ingest", graph_model.ingest_labels, args.labels, graph)
    if not labels:
        raise ValueError("no usable labels: every labeled account is missing from the graph")
    train_ids, test_ids = evaluation.split(labels, train_fraction=args.train_frac,
                                           seed=args.seed)
    result = pipeline.timed(seconds, "total", pipeline.run, graph, config)

    H_train, H_test = result.embeddings[train_ids], result.embeddings[test_ids]
    result.embeddings = None  # with H alive, the forest's presorted copy sets the peak
    forest = pipeline.timed(seconds, "forest", evaluation.train_forest, H_train,
                            [labels[i] for i in train_ids], n_trees=args.trees, seed=args.seed)
    scores = pipeline.timed(seconds, "score", evaluation.predict_scores, forest, H_test)
    metrics = pipeline.timed(seconds, "score", evaluation.compute_metrics, scores,
                             [labels[i] for i in test_ids], threshold=args.threshold)

    line = (f"precision={metrics.precision:.6f} recall={metrics.recall:.6f} "
            f"f1={metrics.f1:.6f} wf1={metrics.weighted_f1:.6f} auc={metrics.auc:.6f}")
    print(line)

    roc = io.BytesIO()
    roc.write(b"fpr,tpr,threshold\n")
    csvformat.write(roc, np.column_stack([metrics.roc_points, metrics.roc_thresholds]))
    for path, data in ((args.output, (line + "\n").encode()), (args.emit_roc, roc.getvalue())):
        if path:
            with open(path, "wb") as fh:
                fh.write(data)
            _write_manifest(args, path, inputs, {**result.stage_seconds, **seconds},
                            result.stop_reason)
    return 0


def _cmd_synth(args):
    from . import graph_model, synthgen

    _reject_shared_outputs({"--out-edges": args.out_edges, "--out-labels": args.out_labels},
                           ["--out-edges"])
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
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _configure_threads()
    _configure_logging()
    from .laplacian import SolverConvergenceError
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, SolverConvergenceError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry():
    """main(), then exit without the interpreter's teardown (about 0.1 s).
    Every output file is closed when main() returns. Tests call main()."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    logging.shutdown()
    os._exit(code)


if __name__ == "__main__":
    entry()
