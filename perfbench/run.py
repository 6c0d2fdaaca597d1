#!/usr/bin/env python3
"""Benchmark of the ditsgcr batch job: an edge CSV in, embeddings or detector metrics out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --record-reference [--smoke]

Run from anywhere; paths resolve against the repository root (the parent of
this directory). Only the standard library is used. Inputs are generated with
``ditsgcr synth`` and the program under test sees only the generated CSVs.
Every workload command runs as a fresh ``python -m ditsgcr.cli`` process,
one at a time, with PYTHONPATH=src and BLAS threads capped at BLAS_THREADS.
While each one runs, a speed gauge times a fixed loop in this process, and
the end-to-end timings are scaled to the gauge's nominal speed (see GAUGE_NOMINAL_S).

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` adds one
traced run (perfbench/trace_child.py) that wraps each module's public
functions in one process and reports the per-layer metrics. Both check the
outputs; a failed check counts in ``failed``. The last stdout line is the
result object; the line before it is the full record (percentiles, sample
counts, fail fraction, detector metrics and workload properties).

``--record-reference`` re-records perfbench/reference.json, the output
fingerprints every later run is compared with. Do that only for a deliberate
output change.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

# One BLAS/OpenMP thread: on a small shared machine a second, spinning BLAS
# thread made timings less steady, and the hot loops are Python either way.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run, children included, must end within 180 s
SETUP_PROBES = 5  # fresh import + ingest processes per run; setup_s is their median

# The speed of a core of a small shared machine drifts by 20% and more over
# tens of seconds, as other tenants come and go; raw wall times of the same
# code then spread wider than any bound worth setting. So while each timed
# process runs, a gauge thread in this process times a fixed pure-Python loop
# every GAUGE_INTERVAL_S (about 5% of the other core). Each end-to-end timing
# is scaled by GAUGE_NOMINAL_S / (median gauge time during that process): it
# reads in seconds at the speed at which the loop takes GAUGE_NOMINAL_S. The
# gauge never changes and never touches ditsgcr, so while the program keeps to
# one core a change to it moves the scaled times as much as the raw ones. A
# change that also puts the program on the gauge's core slows the gauge and
# so shrinks the scaled times; for such a change compare the raw times, which
# are in the record line. On a 2-core sandbox the log of the gauge time correlated 0.85
# with that of detect-2k's wall time (0.9 for hub-embed), and the scaling cut
# the spread of ten 40-second runs from 14% to 5% of their median (hub-embed:
# from 20% to 6%).
GAUGE_LOOPS = 60_000
GAUGE_INTERVAL_S = 0.2
GAUGE_NOMINAL_S = 0.01

EMBED_WIDTH = 420  # 4K^2 + 2K at the default K = 10
TRAIN_FRAC = 0.8  # evaluate's default stratified split
THRESHOLD = 0.35  # evaluate's default vote threshold
C07_SEED = 42
C07_COUNTS = (20, 0, 0, 381)  # frozen (tp, fp, fn, tn) of tests/test_acceptance.py c07
FP_RTOL = 1e-4  # fingerprint tolerance: a deliberate ~1e-6 output change still passes
FP_ATOL = 1e-4
AUC_ATOL = 0.01
SAMPLED_ROWS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "embed" or "evaluate"
    synth: tuple  # synth flags at full size
    smoke_synth: tuple  # synth flags for --smoke
    graph_seeds: tuple  # --seed picks one; each has a recorded reference fingerprint

    def graph_seed(self, seed):
        return self.graph_seeds[seed % len(self.graph_seeds)]


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("detect-2k", "evaluate",
             ("--normal", "1900", "--phishers", "100"),
             ("--normal", "380", "--phishers", "20"),
             (42, 1, 2, 3, 4, 5)),
    Workload("big-embed", "embed",
             ("--normal", "32000", "--phishers", "1600"),
             ("--normal", "950", "--phishers", "50"),
             (8, 1, 2, 3, 4, 5)),
    Workload("hub-embed", "embed",
             ("--normal", "4000", "--phishers", "12000", "--burst-fanin", "2"),
             ("--normal", "250", "--phishers", "750", "--burst-fanin", "2"),
             (5, 1, 2, 3, 4, 6)),
)}

END_TO_END_UNITS = {"wall_s": "s", "edges_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name in trace_child.py -> per-layer metric of its summed duration
SPAN_SECONDS = {
    "process.import": "process.import_s",
    "process.exit": "process.exit_s",
    "graph_model.ingest_csv": "graph_model.ingest_csv.s",
    "graph_model.ingest_labels": "graph_model.ingest_labels.s",
    "graph_model.adjacency_weights": "graph_model.adjacency_weights.s",
    "temporal_aggregation.aggregate": "temporal_aggregation.aggregate.s",
    "clustering.soft_kmeans": "clustering.soft_kmeans.s",
    "clustering.compute_subx": "clustering.compute_subx.s",
    "laplacian.assemble_system": "laplacian.assemble_system.s",
    "laplacian.cg_solve": "laplacian.cg_solve.s",
    "pipeline.count_unique_embeddings": "pipeline.count_unique_embeddings.s",
    "evaluation.train_forest": "evaluation.train_forest.s",
    "evaluation.predict_scores": "evaluation.predict_scores.s",
    "evaluation.compute_metrics": "evaluation.compute_metrics.s",
}
# spans whose self time (duration minus their children) is a per-layer metric
SPAN_SELF_SECONDS = {"pipeline.run": "pipeline.run.self_s", "cli.command": "cli.write_s"}
# counts recorded by trace_child.py that are reported as they are
SPAN_COUNTS = {
    "graph_model.ingest_csv.rss_mb": "MB",
    "graph_model.adjacency_weights.pairs": "count",
    "temporal_aggregation.aggregate.calls": "count",
    "clustering.soft_kmeans.calls": "count",
    "laplacian.assemble_system.nnz": "count",
    "laplacian.cg_solve.calls": "count",
    "laplacian.cg_solve.iters_total": "count",
    "laplacian.cg_solve.iters_max": "count",
    "pipeline.iterations_run": "count",
    "pipeline.distinct_rows": "count",
    "evaluation.train_forest.tree_nodes": "count",
}
PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_SECONDS.values()},
    **{m: "s" for m in SPAN_SELF_SECONDS.values()},
    **SPAN_COUNTS,
    "temporal_aggregation.aggregate.entries_per_s": "1/s",
    "pipeline.adopted_frac": "ratio",
    "cli.output_mb": "MB",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

SETUP_PROBE = (
    "import os, sys\n"
    "from ditsgcr import graph_model\n"
    "g = graph_model.ingest_csv(sys.argv[1])\n"
    "if len(sys.argv) > 2:\n"
    "    graph_model.ingest_labels(sys.argv[2], g)\n"
    "sys.stdout.write(f'{g.n_nodes} {g.n_edges}\\n')\n"
    "sys.stdout.flush()\n"
    "os._exit(0)  # the probe ends where ingest returns; teardown is not set-up\n"
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["DITSGCR_LOG"] = "error"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def gauge_once():
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(argv, stdout_path, deadline):
    """Run argv as a fresh child process and wait for it.

    Returns (exit code, wall seconds, peak RSS in MB, median gauge seconds
    while it ran). The RSS comes from os.wait4 and so belongs to this child
    alone. The child is killed at the run's deadline.
    """
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"run time limit of {RUN_LIMIT_S:.0f} s reached")
    gauge = []
    done = threading.Event()

    def sample():
        while not done.is_set():
            gauge.append(gauge_once())
            done.wait(GAUGE_INTERVAL_S)

    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        sampler = threading.Thread(target=sample)
        timer.start()
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            done.set()
            sampler.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, statistics.median(gauge)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    key: str  # reference.json key
    edges: Path
    labels: Path
    props: dict


def graph_properties(edges_csv, labels_csv):
    """Workload properties read from the generated CSVs, independent of ditsgcr."""
    stamps = {}  # account -> distinct timestamps, i.e. its timeline entries
    n_edges = 0
    with open(edges_csv, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)  # synth writes a header
        for row in rows:
            src, dst, t = row[0], row[1], row[2]
            stamps.setdefault(src, set()).add(t)
            stamps.setdefault(dst, set()).add(t)
            n_edges += 1
    sizes = [len(ts) for ts in stamps.values()]
    entries = sum(sizes)
    with open(labels_csv, newline="", encoding="utf-8") as fh:
        labels = [row[1] for row in list(csv.reader(fh))[1:]]
    return {"nodes": len(stamps), "edges": n_edges, "timeline_entries": entries,
            "longest_timeline": max(sizes), "longest_timeline_share": max(sizes) / entries,
            "positives": labels.count("1"), "negatives": labels.count("0")}


def prepare_inputs(wl, graph_seed, smoke, deadline):
    """Generate (once per checkout) the workload's CSVs with ``ditsgcr synth``."""
    size = "smoke" if smoke else "full"
    key = f"{wl.name}/{size}/{graph_seed}"
    d = WORK / "inputs" / f"{wl.name}-{size}-{graph_seed}"
    if not (d / "props.json").exists():
        tmp = d.with_name(d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        synth = wl.smoke_synth if smoke else wl.synth
        argv = [sys.executable, "-m", "ditsgcr.cli", "synth", *synth,
                "--seed", str(graph_seed), "--out-edges", str(tmp / "edges.csv"),
                "--out-labels", str(tmp / "labels.csv")]
        code = spawn(argv, tmp / "synth.out", deadline)[0]
        if code != 0:
            raise BenchError(f"ditsgcr synth failed with exit code {code}: "
                             f"{(tmp / 'synth.out.err').read_text(errors='replace')[-500:]}")
        props = graph_properties(tmp / "edges.csv", tmp / "labels.csv")
        (tmp / "props.json").write_text(json.dumps(props, sort_keys=True))
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
    props = json.loads((d / "props.json").read_text())
    return Inputs(key, d / "edges.csv", d / "labels.csv", props)


# ---------------------------------------------------------------- outputs

def cli_args(wl, inp, out_dir):
    if wl.command == "evaluate":
        return ["evaluate", "--input", str(inp.edges), "--labels", str(inp.labels),
                "--emit-roc", str(out_dir / "roc.csv")]
    return ["embed", "--input", str(inp.edges), "--output", str(out_dir / "embeddings.csv")]


def output_files(wl, out_dir):
    """The data outputs a run of the workload must reproduce byte for byte."""
    if wl.command == "evaluate":
        return [out_dir / "stdout.txt", out_dir / "roc.csv"]
    return [out_dir / "embeddings.csv"]


def _sig(x):
    return float(format(x, ".9g"))


def embedding_fingerprint(path, n_rows):
    """Row count, width, key order, column means and sampled row sums."""
    sampled = {i * n_rows // SAMPLED_ROWS for i in range(SAMPLED_ROWS)} if n_rows else set()
    keys = hashlib.sha256()
    row_sums = []
    rows = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        width = len(header) - 1
        sums = [0.0] * width
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if len(fields) != width + 1:
                raise ValueError(f"row {rows + 1} has {len(fields)} fields, header {width + 1}")
            values = [float(x) for x in fields[1:]]
            sums = [a + b for a, b in zip(sums, values)]
            keys.update(fields[0].encode() + b"\n")
            if rows in sampled:
                row_sums.append(_sig(math.fsum(values)))
            rows += 1
    return {"rows": rows, "width": width,
            "header_ok": header == ["node_key"] + [f"e{i}" for i in range(width)],
            "keys_sha256": keys.hexdigest(),
            "col_means": [_sig(s / rows) if rows else 0.0 for s in sums],
            "row_sums": row_sums}


def _test_size(n_class):
    n_train = min(max(int(TRAIN_FRAC * n_class), 1), n_class - 1)
    return n_class - n_train


def detector_fingerprint(out_dir, props):
    """(tp, fp, fn, tn), F1 and AUC of an evaluate run.

    The counts come from the ROC point at the default threshold times the
    test-split class sizes, and must agree with the printed metrics line.
    """
    line = (out_dir / "stdout.txt").read_text().strip().splitlines()[-1]
    printed = {k: float(v) for k, v in (kv.split("=") for kv in line.split())}
    n_pos, n_neg = _test_size(props["positives"]), _test_size(props["negatives"])
    fpr = tpr = 0.0
    with open(out_dir / "roc.csv", newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            if float(row[2]) >= THRESHOLD:  # thresholds descend along the curve
                fpr, tpr = float(row[0]), float(row[1])
    tp, fp = round(tpr * n_pos), round(fpr * n_neg)
    fn, tn = n_pos - tp, n_neg - fp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_pos
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    for name, value in (("precision", precision), ("recall", recall), ("f1", f1)):
        if abs(printed[name] - value) > 1e-6:
            raise ValueError(f"printed {name}={printed[name]} disagrees with ROC counts "
                             f"{(tp, fp, fn, tn)}")
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn, "f1": printed["f1"], "auc": printed["auc"]}


def fingerprint(wl, out_dir, props):
    if wl.command == "evaluate":
        return detector_fingerprint(out_dir, props)
    return embedding_fingerprint(out_dir / "embeddings.csv", props["nodes"])


def _close(a, b):
    return math.isfinite(a) and abs(a - b) <= FP_ATOL + FP_RTOL * abs(b)


def compare_fingerprint(wl, fp, ref, props, graph_seed, smoke):
    """Problems with an output fingerprint; empty when the output is right."""
    problems = []
    if wl.command == "evaluate":
        counts = (fp["tp"], fp["fp"], fp["fn"], fp["tn"])
        if graph_seed == C07_SEED and not smoke and (
                counts != C07_COUNTS or fp["f1"] != 1.0 or fp["auc"] != 1.0):
            problems.append(f"c07 pin: got {counts} f1={fp['f1']} auc={fp['auc']}, "
                            f"expected {C07_COUNTS} f1=auc=1.0")
        ref_counts = (ref["tp"], ref["fp"], ref["fn"], ref["tn"])
        if counts != ref_counts:
            problems.append(f"(tp, fp, fn, tn) {counts} != reference {ref_counts}")
        if abs(fp["auc"] - ref["auc"]) > AUC_ATOL or abs(fp["f1"] - ref["f1"]) > AUC_ATOL:
            problems.append(f"f1/auc {fp['f1']}/{fp['auc']} != reference {ref['f1']}/{ref['auc']}")
        return problems
    if (fp["rows"], fp["width"]) != (props["nodes"], EMBED_WIDTH) or not fp["header_ok"]:
        problems.append(f"output is {fp['rows']} x {fp['width']}, expected "
                        f"{props['nodes']} x {EMBED_WIDTH} under the e0..e{EMBED_WIDTH - 1} header")
    if fp["keys_sha256"] != ref["keys_sha256"]:
        problems.append("node key order differs from the reference")
    for what in ("col_means", "row_sums"):
        bad = [i for i, (a, b) in enumerate(zip(fp[what], ref[what])) if not _close(a, b)]
        if bad or len(fp[what]) != len(ref[what]):
            problems.append(f"{what} differ from the reference at {len(bad)} positions, "
                            f"first {bad[:3]}")
    return problems


class OutputChecker:
    """Checks each run's outputs: byte-identical to the first run, fingerprint
    within tolerance of the recorded reference. Fingerprints once per digest."""

    def __init__(self, wl, inp, graph_seed, smoke, reference):
        self.wl, self.inp, self.graph_seed, self.smoke = wl, inp, graph_seed, smoke
        self.ref = reference.get(inp.key)
        self.first_digest = None
        self.fingerprint = None
        self._verified = {}

    def check(self, out_dir, exit_code):
        """Problems with one run's outputs; empty when they are right."""
        if exit_code != 0:
            return [f"exit code {exit_code}: "
                    f"{(out_dir / 'stdout.txt.err').read_text(errors='replace')[-300:]}"]
        files = output_files(self.wl, out_dir)
        missing = [str(p) for p in files if not p.exists()]
        if missing:
            return [f"missing output {missing}"]
        digest = hashlib.sha256("".join(sha256_file(p) for p in files).encode()).hexdigest()
        if digest not in self._verified:
            self._verified[digest] = self._verify(out_dir)
        problems = list(self._verified[digest])
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("output bytes differ from the first run's")
        return problems

    def _verify(self, out_dir):
        if self.ref is None:
            return [f"no reference fingerprint recorded for {self.inp.key}"]
        if (self.ref["nodes"], self.ref["edges"]) != (self.inp.props["nodes"],
                                                      self.inp.props["edges"]):
            return [f"generated input differs from the reference's {self.inp.key}"]
        try:
            fp = fingerprint(self.wl, out_dir, self.inp.props)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"]
        if self.fingerprint is None:
            self.fingerprint = fp
        return compare_fingerprint(self.wl, fp, self.ref["fingerprint"], self.inp.props,
                                   self.graph_seed, self.smoke)


# ---------------------------------------------------------------- measuring

@dataclass
class Measurement:
    wall_s: list = field(default_factory=list)  # raw
    rss_mb: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)  # raw
    gauge_s: list = field(default_factory=list)  # median gauge time of each process
    scaled_wall_s: list = field(default_factory=list)  # at the gauge's nominal speed
    scaled_setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what, problems):
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def scaled(self, seconds, gauge):
        """`seconds` at the gauge's nominal speed; `gauge` was measured alongside."""
        self.gauge_s.append(gauge)
        return seconds * GAUGE_NOMINAL_S / gauge


def run_workload_once(wl, inp, out_dir, deadline):
    """One fresh-process run of the workload command; outputs land in out_dir."""
    argv = [sys.executable, "-m", "ditsgcr.cli", *cli_args(wl, inp, out_dir)]
    return spawn(argv, out_dir / "stdout.txt", deadline)


def setup_probe(wl, inp, deadline, out_root):
    """(wall, gauge) seconds of a fresh process that imports ditsgcr and returns
    from ingest; None on failure."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(inp.edges)]
    if wl.command == "evaluate":
        argv.append(str(inp.labels))
    out = out_root / "setup.txt"
    code, wall, _, gauge = spawn(argv, out, deadline)
    expected = f"{inp.props['nodes']} {inp.props['edges']}"
    return (wall, gauge) if code == 0 and out.read_text().strip() == expected else None


def measure(wl, inp, checker, seconds, deadline, setup_probes, out_root):
    """Untraced runs, started until `seconds` have passed (always at least one),
    each followed by a set-up probe while fewer than `setup_probes` ran."""
    out_dir = out_root / wl.name
    out_dir.mkdir(exist_ok=True)
    m = Measurement()
    probes_left = setup_probes
    start = time.perf_counter()
    while True:
        if not m.wall_s or time.perf_counter() - start < seconds:
            code, wall, rss, gauge = run_workload_once(wl, inp, out_dir, deadline)
            m.attempted += 1
            problems = checker.check(out_dir, code)
            if problems:
                m.fail(f"run {m.attempted}", problems)
            m.wall_s.append(wall)
            m.scaled_wall_s.append(m.scaled(wall, gauge))
            m.rss_mb.append(rss)
        elif not probes_left:
            return m
        if probes_left:
            probes_left -= 1
            m.attempted += 1
            probe = setup_probe(wl, inp, deadline, out_root)
            if probe is None:
                m.fail("set-up probe", ["ingest did not report the input's node and edge counts"])
            else:
                m.setup_s.append(probe[0])
                m.scaled_setup_s.append(m.scaled(*probe))


def traced_run(wl, inp, checker, deadline, m, out_root):
    """One run under trace_child.py; returns (wall seconds, trace, output MB)."""
    out_dir = out_root / f"{wl.name}-traced"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / "spans.json"
    argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans_path),
            repr(time.perf_counter()), *cli_args(wl, inp, out_dir)]
    code, wall = spawn(argv, out_dir / "stdout.txt", deadline)[:2]
    m.attempted += 1
    problems = checker.check(out_dir, code)  # also compares with the untraced bytes
    if problems:
        m.fail("traced run", problems)
    trace = json.loads(spans_path.read_text()) if spans_path.exists() else None
    output_mb = sum(p.stat().st_size for p in output_files(wl, out_dir)
                    if p.name != "stdout.txt" and p.exists()) / 1e6
    return wall, trace, output_mb


def layer_metrics(trace, traced_wall, untraced_wall, output_mb):
    """Per-layer metrics from the spans and counts of one traced run."""
    main_end = next(end for name, _, end, _ in trace["spans"] if name == "cli.main")
    if not 0.0 < main_end < traced_wall:
        raise BenchError("the traced child's clock does not match this process's")
    # from cli.main's return to the exit this process saw: interpreter teardown
    spans = trace["spans"] + [["process.exit", main_end, traced_wall, None]]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    total, self_s = {}, {}
    for (name, start, end, _), kids in zip(spans, covered):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - kids)
    counts = trace["counts"]
    out = {metric: total.get(span, 0.0) for span, metric in SPAN_SECONDS.items()}
    out.update({metric: self_s.get(span, 0.0) for span, metric in SPAN_SELF_SECONDS.items()})
    out.update({metric: counts.get(metric, 0) for metric in SPAN_COUNTS})
    agg_s = out["temporal_aggregation.aggregate.s"]
    out["temporal_aggregation.aggregate.entries_per_s"] = (
        counts.get("temporal_aggregation.aggregate.entries", 0) / agg_s if agg_s else 0.0)
    runs = counts.get("pipeline.iterations_run", 0)
    out["pipeline.adopted_frac"] = counts.get("pipeline.adopted", 0) / runs if runs else 0.0
    out["cli.output_mb"] = output_mb
    out["trace.overhead_s"] = traced_wall - untraced_wall
    named = set(SPAN_SECONDS) | set(SPAN_SELF_SECONDS)
    out["trace.coverage"] = sum(self_s[n] for n in named if n in self_s) / traced_wall
    return out


# ---------------------------------------------------------------- record

def summary(values):
    """Median, the highest nearest-rank percentile with at least ten samples
    beyond it (None below 11 samples), and the sample count."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s) if s else None, "n": n, "high": None}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out["high"] = {"pct": pct, "value": s[math.ceil(pct * n / 100) - 1]}
    return out


def provenance():
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_lines = 0
    for path in sorted((SRC / "ditsgcr").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "src_lines": src_lines, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0]}


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(smoke, out_root):
    """Run every workload once per pool seed and store its output fingerprint."""
    reference = load_reference()
    deadline = time.perf_counter() + 3600.0
    for wl in WORKLOADS.values():
        for graph_seed in wl.graph_seeds:
            inp = prepare_inputs(wl, graph_seed, smoke, deadline)
            out_dir = out_root / wl.name
            out_dir.mkdir(exist_ok=True)
            code, wall = run_workload_once(wl, inp, out_dir, deadline)[:2]
            if code != 0:
                raise BenchError(f"{inp.key}: exit code {code}")
            fp = fingerprint(wl, out_dir, inp.props)
            reference[inp.key] = {"nodes": inp.props["nodes"], "edges": inp.props["edges"],
                                  "fingerprint": fp}
            REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
            print(f"recorded {inp.key} ({wall:.1f} s)", file=sys.stderr)


def run(args, out_root):
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    graph_seed = wl.graph_seed(args.seed)
    inp = prepare_inputs(wl, graph_seed, args.smoke, deadline)
    checker = OutputChecker(wl, inp, graph_seed, args.smoke, load_reference())
    probes = 0 if args.trace else SETUP_PROBES
    m = measure(wl, inp, checker, args.seconds, deadline, probes, out_root)
    wall_median = statistics.median(m.wall_s)

    record = {"workload": wl.name, "seed": args.seed, "graph_seed": graph_seed,
              "smoke": args.smoke, "trace": args.trace, "properties": inp.props,
              **provenance(), "wall_s": summary(m.scaled_wall_s),
              "raw_wall_s": summary(m.wall_s), "peak_rss_mb": summary(m.rss_mb),
              "setup_s": summary(m.scaled_setup_s), "raw_setup_s": summary(m.setup_s),
              "gauge_s": summary(m.gauge_s), "gauge_nominal_s": GAUGE_NOMINAL_S}
    if args.trace:
        traced_wall, trace, output_mb = traced_run(wl, inp, checker, deadline, m, out_root)
        if trace is None:
            raise BenchError("the traced run wrote no spans")
        metrics = layer_metrics(trace, traced_wall, wall_median, output_mb)
        units = PER_LAYER_UNITS
        record["traced_wall_s"] = traced_wall
    else:
        metrics = {"wall_s": statistics.median(m.scaled_wall_s),
                   "edges_per_s": statistics.median(inp.props["edges"] / w
                                                    for w in m.scaled_wall_s),
                   "setup_s": statistics.median(m.scaled_setup_s) if m.scaled_setup_s else 0.0,
                   "peak_rss_mb": statistics.median(m.rss_mb)}
        units = END_TO_END_UNITS
    record["fail_frac"] = m.failed / m.attempted
    record["problems"] = m.problems[:20]
    if wl.command == "evaluate" and checker.fingerprint is not None:
        record["detector"] = checker.fingerprint
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, for checking the benchmark itself")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the output fingerprints in perfbench/reference.json")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    out_root = WORK / f"out-{os.getpid()}"  # concurrent runs keep apart
    try:
        if not (SRC / "ditsgcr" / "cli.py").exists():
            raise BenchError(f"no ditsgcr sources under {SRC}")
        out_root.mkdir(parents=True, exist_ok=True)
        if args.record_reference:
            record_reference(args.smoke, out_root)
        else:
            run(args, out_root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
