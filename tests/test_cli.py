import ast
import csv
import hashlib
import inspect
import io
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsgcr import cli, clustering, csvformat, evaluation, laplacian, pipeline, synthgen

SRC = Path(cli.__file__).resolve().parents[1]


def make_dataset(tmp_path, name="d", normals=20, phishers=2, seed=0):
    edges = tmp_path / f"{name}_edges.csv"
    labels = tmp_path / f"{name}_labels.csv"
    code = cli.main(["synth", "--normal", str(normals), "--phishers", str(phishers),
                     "--time-span", "100000", "--burst-window", "500",
                     "--burst-fanin", "5", "--seed", str(seed),
                     "--out-edges", str(edges), "--out-labels", str(labels)])
    assert code == 0
    return edges, labels


def read_rows(path):
    return path.read_text(encoding="utf-8").splitlines()


def on_one_cpu():
    """A preexec_fn that pins the child process, and only it, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def command_args(tmp_path, command, edges, labels):
    """Minimal flags for one run of `command` on a make_dataset graph."""
    return {"embed": ["--input", str(edges), "--output", str(tmp_path / "emb.csv"),
                      "--clusters", "3"],
            "evaluate": ["--input", str(edges), "--labels", str(labels), "--clusters", "3"],
            "synth": ["--out-edges", str(tmp_path / "e.csv"),
                      "--out-labels", str(tmp_path / "l.csv")]}[command]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "ditsgcr 0.1.0" in capsys.readouterr().out


def test_embed_flow(tmp_path, capsys):
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    code = cli.main(["embed", "--input", str(edges), "--output", str(out)])
    assert code == 0
    assert "embeddings of width 420" in capsys.readouterr().out

    rows = read_rows(out)
    header = rows[0].split(",")
    assert header[0] == "node_key"
    assert len(header) == 421  # node_key + 4*10^2 + 2*10 value columns
    assert header[1] == "e0" and header[-1] == "e419"
    n_edge_rows = len(read_rows(edges)) - 1
    assert len(rows) - 1 <= n_edge_rows * 2  # one row per node that transacted
    assert all(len(r.split(",")) == 421 for r in rows[1:])

    manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
    assert manifest["artifact_version"] == cli.__version__
    assert manifest["config"]["clusters"] == 10
    assert manifest["config"]["lam"] == 1.0
    digest = hashlib.sha256(edges.read_bytes()).hexdigest()
    assert manifest["inputs"]["edges"]["sha256"] == digest
    assert manifest["stage_seconds"]["total"] > 0
    assert manifest["stage_seconds"]["ingest"] > 0
    assert manifest["stage_seconds"]["write"] > 0
    assert manifest["write_workers"] == 1  # fewer rows than the pool's gate
    assert manifest["stop_reason"] == "no_gain"
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0


def test_embed_byte_identical_reruns(tmp_path):
    edges, _ = make_dataset(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out1),
                     "--clusters", "3"]) == 0
    assert cli.main(["embed", "--input", str(edges), "--output", str(out2),
                     "--clusters", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_embed_byte_identical_across_processes(tmp_path):
    # from the pool's gate on, the default run formats on every core
    edges = synth_above_pool_gate(tmp_path)
    outs, workers = [], []
    for hash_seed, pin in (("1", on_one_cpu()), ("2", on_one_cpu()), ("1", None)):
        out = tmp_path / f"emb{len(outs)}.csv"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-m", "ditsgcr.cli", "embed", "--input", str(edges),
                        "--output", str(out), "--clusters", "3"],
                       env=env, check=True, capture_output=True, preexec_fn=pin)
        outs.append(out.read_bytes())
        workers.append(json.loads(Path(f"{out}.manifest.json").read_text())["write_workers"])
    assert outs[0] == outs[1] == outs[2]
    nodes = len(read_rows(out)) - 1
    assert nodes >= clustering.POOL_MIN_ROWS
    assert workers == [1, 1, clustering.pool_threads(nodes) + 1]


def synth_above_pool_gate(tmp_path):
    """A 4101-node graph, above clustering.POOL_MIN_ROWS, whose sink holds 5993
    of its 34844 timeline entries: a chain that steps alone, in one of the
    nine node blocks of each lift."""
    edges, labels = tmp_path / "big_edges.csv", tmp_path / "big_labels.csv"
    assert cli.main(["synth", "--normal", "1100", "--phishers", "3000", "--burst-fanin", "2",
                     "--seed", "42", "--out-edges", str(edges), "--out-labels", str(labels)]) == 0
    return edges


def test_embed_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 2001 nodes: enough for soft k-means' gemms and CG's dot products to
    # change bits with the BLAS thread count, were it not fixed at one. Above
    # the pool's gate the kernels also run on one thread per CPU in the mask
    edges, labels = tmp_path / "edges.csv", tmp_path / "labels.csv"
    assert cli.main(["synth", "--normal", "1900", "--phishers", "100", "--seed", "42",
                     "--out-edges", str(edges), "--out-labels", str(labels)]) == 0
    base = {k: v for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMEXPR_NUM_THREADS")}
    base["PYTHONPATH"] = str(SRC)
    for graph, nodes in ((edges, 2001), (synth_above_pool_gate(tmp_path), 4101)):
        outs = []
        for name, pin, env in (("cpu1", on_one_cpu(), base), ("all", None, base),
                               ("blas2", None, {**base, "OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"{graph.stem}_{name}.csv"
            subprocess.run([sys.executable, "-m", "ditsgcr.cli", "embed", "--input",
                            str(graph), "--output", str(out)], env=env, check=True,
                           capture_output=True, preexec_fn=pin)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert len(read_rows(out)) - 1 == nodes
    assert nodes >= clustering.POOL_MIN_ROWS


def fake_pipeline(H):
    """A pipeline.run stand-in that returns H as the embeddings."""
    return lambda graph, config: pipeline.PipelineResult(H, 0, [0], "no_gain")


def write_chain(path, n):
    """Edge CSV over accounts a0 .. a{n-1}, each appearing first in id order."""
    rows = [f"a{i},a{i + 1},{i}" for i in range(n - 1)] or ["a0,a0,0"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), width=st.integers(1, 4), gate=st.integers(1, 9),
       data=st.data())
def test_parallel_writer_matches_one_worker(n, width, gate, data):
    specials = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")])
    values = data.draw(st.lists(st.one_of(st.floats(), specials),
                                min_size=n * width, max_size=n * width))
    H = np.array(values, dtype=float).reshape(n, width)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        edges = Path(tmp) / "edges.csv"
        write_chain(edges, n)
        mp.setattr(pipeline, "run", fake_pipeline(H))
        mp.setattr(clustering, "POOL_MIN_ROWS", gate)
        mp.setattr(cli, "_configure_threads", lambda: None)
        outputs = []
        for cpus in (1, 2, 3, n + 1):  # more writers than rows leave some ranges empty
            mp.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
            out = Path(tmp) / f"emb{cpus}.csv"
            assert cli.main(["embed", "--input", str(edges), "--output", str(out)]) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["write_workers"] == clustering.pool_threads(n) + 1
            outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])
    rows = list(csv.reader(outputs[0].decode("utf-8").splitlines()))
    assert [r[0] for r in rows[1:]] == [f"a{i}" for i in range(n)]
    assert [r[1:] for r in rows[1:]] == [[format(x, ".9g") for x in r] for r in H.tolist()]
    assert not multiprocessing.active_children()


def test_embedding_csv_fields_match_format(tmp_path, monkeypatch):
    edges, _ = make_dataset(tmp_path)
    specials = [0.0, -0.0, 1e-310, -1e-310, float("inf"), float("-inf"), float("nan"),
                123456789012.0, 1 / 3, -2.5e-7, 1e300]

    def fake_run(graph, config):
        values = np.resize(np.array(specials), graph.n_nodes * 7)
        return pipeline.PipelineResult(values.reshape(graph.n_nodes, 7), 0, [0], "no_gain")

    monkeypatch.setattr(pipeline, "run", fake_run)
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == "node_key,e0,e1,e2,e3,e4,e5,e6"
    expected = np.resize(np.array(specials), (len(rows) - 1) * 7).tolist()
    fields = [f for r in rows[1:] for f in r.split(",")[1:]]
    assert fields == [format(float(x), ".9g") for x in expected]
    assert {"-0", "1e-310", "inf", "-inf", "nan", "1.23456789e+11"} <= set(fields)


def assert_rows_match_format(values, width, keys=None):
    """RowFormatter's rows of values equal "%.9g" % x per value, joined by
    commas and each led by its key: Python's formatting is the oracle."""
    values = np.resize(np.asarray(values, dtype=np.float64), (-(-len(values) // width), width))
    fh = io.BytesIO()
    csvformat.RowFormatter(width).write(fh, values, keys)
    leads = [k.decode() + "," for k in keys] if keys is not None else [""] * len(values)
    expected = [lead + ",".join("%.9g" % x for x in row) for lead, row in
                zip(leads, values.tolist())]
    assert fh.getvalue().decode().split("\n") == [*expected, ""]


# a float64 drawn as raw bits, so that every exponent, subnormals, infinities
# and NaN payloads are as likely as any other pattern
float_bits = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
# 9-digit decimals of every fixed-notation exponent, .5 of a last digit off:
# the round-half-even ties of "%.9g" and their float neighbours
near_ties = st.builds(lambda d, e, side: float(np.nextafter((d + 0.5) * 10.0 ** e,
                                                           side * np.inf)),
                      st.integers(10**8, 10**9 - 1), st.integers(-12, 0),
                      st.sampled_from([-1, 0, 1]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(float_bits, near_ties, st.floats(-2e9, 2e9)),
                       min_size=1, max_size=3 * csvformat.CHUNK_ROWS),
       width=st.integers(1, 5), keyed=st.booleans())
def test_row_formatter_matches_percent_format(values, width, keyed):
    rows = -(-len(values) // width)
    keys = [f"k{i}".encode() for i in range(rows)] if keyed else None
    assert_rows_match_format(values, width, keys)


def string_tables():
    """csvformat's (words, offsets, digits), built one Python string per
    table entry: the oracle for its array construction."""
    def words(texts, size):
        return np.frombuffer(b"".join(t.encode().ljust(size, b"\0") for t in texts),
                             dtype=np.uint32)

    prefixes, offsets = [], []
    for neg, e, t in itertools.product((0, 1), range(-4, 9), range(10)):
        sign = "-" * neg
        if t == 0:
            prefixes.append("," + sign + "0")
            offsets.append([(3 * 4 + 0) * 1000] * 3)
            continue
        prefixes.append("," + sign + "0." * (e < 0) + "0" * (-e - 1))
        kept = max(t, e + 1)
        point = e >= 0 and kept > e + 1
        offsets.append([((e - 3 * g if point and 0 <= e - 3 * g < 3 else 3) * 4
                         + min(max(kept - 3 * g, 0), 3)) * 1000 for g in range(3)])
    groups = []
    for p, kept, v in itertools.product(range(4), range(4), range(1000)):
        d = f"{v:03d}"[:kept]
        groups.append(d[:p + 1] + "." * (p < 3) + d[p + 1:])
    all_words = np.concatenate([words(prefixes + ["\n" + s for s in prefixes], 8),
                                words(groups, 4)])
    offsets = np.array(offsets, dtype=np.intp).T.copy() + 4 * 2 * 13 * 10
    digits = np.array([[len(f"{v:03d}".rstrip("0")) and 3 * g + len(f"{v:03d}".rstrip("0"))
                        for v in range(1000)] for g in range(3)], dtype=np.intp)
    return all_words, offsets, digits


def test_formatter_tables_match_string_construction():
    for got, want in zip(csvformat._tables(), string_tables()):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_row_formatter_edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              float("inf"), float("-inf"), float("nan"), 1.7976931348623157e308,
              999999999.5, 999999998.5, 99999999.95, 9.9999999995e-5, 0.5, 1.0, 123456789.0]
    for edge in (1e-5, 1e-4, 1e8, 1e9):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    # exact ties at e = 8 round half to even; the decimal ties below them are
    # not exactly representable, so they round the way their binary value lies
    for d in (123456788, 123456789, 999999998):
        tie = d + 0.5
        values += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]
    values += [0.1234567885, 0.1234567895, 1.0000000005, 12345.6789e-12]
    values += [-v for v in values]
    for width in (1, 3, 7):
        assert_rows_match_format(values, width)


@pytest.mark.parametrize("command", ["embed", "evaluate"])
def test_only_the_sparse_kernels_of_scipy_load(tmp_path, command):
    # scipy.sparse would load scipy's array_api_compat, whose `from numpy
    # import *` imports numpy.f2py and numpy.testing
    edges, labels = make_dataset(tmp_path)
    code = "\n".join([
        "import sys",
        "from ditsgcr import cli",
        f"assert cli.main({[command, *command_args(tmp_path, command, edges, labels)]!r}) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith(('numpy.f2py', 'numpy.testing'))))"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out.splitlines()[-1] == "['scipy.sparse._sparsetools']"


def test_synth_byte_identical_reruns(tmp_path):
    e1, l1 = make_dataset(tmp_path, "x", seed=5)
    e2, l2 = make_dataset(tmp_path, "y", seed=5)
    assert e1.read_bytes() == e2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()
    e3, _ = make_dataset(tmp_path, "z", seed=6)
    assert e1.read_bytes() != e3.read_bytes()


def test_evaluate_flow(tmp_path, capsys):
    edges, labels = make_dataset(tmp_path, normals=40, phishers=4, seed=1)
    roc = tmp_path / "roc.csv"
    metrics_file = tmp_path / "metrics.txt"
    code = cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "3", "--trees", "25",
                     "--output", str(metrics_file), "--emit-roc", str(roc)])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    parts = line.split()
    assert [p.split("=")[0] for p in parts] == \
        ["precision", "recall", "f1", "wf1", "auc"]
    values = [float(p.split("=")[1]) for p in parts]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert metrics_file.read_text(encoding="utf-8").strip() == line
    assert (tmp_path / "metrics.txt.manifest.json").exists()

    rows = read_rows(roc)
    assert rows[0] == "fpr,tpr,threshold"
    assert rows[1] == "0,0,inf"
    fprs = [float(r.split(",")[0]) for r in rows[1:]]
    tprs = [float(r.split(",")[1]) for r in rows[1:]]
    assert fprs == sorted(fprs) and tprs == sorted(tprs)
    assert fprs[-1] == 1.0 and tprs[-1] == 1.0
    roc_manifest = json.loads((tmp_path / "roc.csv.manifest.json").read_text())
    assert isinstance(roc_manifest["peak_rss_mb"], float) and roc_manifest["peak_rss_mb"] > 0
    stages = roc_manifest["stage_seconds"]
    assert all(stages[k] > 0 for k in ("ingest", "total", "forest", "score"))


def test_non_finite_embeddings_fail_evaluate(tmp_path, capsys, monkeypatch):
    edges, labels = make_dataset(tmp_path)
    run = pipeline.run

    def poisoned(graph, config):
        result = run(graph, config)
        result.embeddings[:, 0] = np.nan
        return result

    monkeypatch.setattr(pipeline, "run", poisoned)
    capsys.readouterr()
    assert cli.main(["evaluate", *command_args(tmp_path, "evaluate", edges, labels)]) == 1
    assert capsys.readouterr().err == "error: features must be finite\n"


def test_evaluate_roc_byte_identical(tmp_path, capsys):
    edges, labels = make_dataset(tmp_path, normals=30, phishers=3, seed=2)
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    for r in (r1, r2):
        assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                         "--clusters", "3", "--trees", "10",
                         "--emit-roc", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_ablation_changes_embeddings(tmp_path):
    edges, _ = make_dataset(tmp_path)
    base = tmp_path / "base.csv"
    cut = tmp_path / "cut.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(base),
                     "--clusters", "3"]) == 0
    assert cli.main(["embed", "--input", str(edges), "--output", str(cut),
                     "--clusters", "3", "--ablate", "no_temporal"]) == 0
    assert base.read_bytes() != cut.read_bytes()
    flat = 4 * 3 * 3
    for row in read_rows(cut)[1:]:
        fields = row.split(",")[1:]
        assert all(f == "0" for f in fields[:flat])  # structural block zeroed
    manifest = json.loads((tmp_path / "cut.csv.manifest.json").read_text())
    assert manifest["config"]["ablate"] == ["no_temporal"]


def test_embed_empty_input(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "empty.csv"
    edges.write_text("from,to,timestamp\n", encoding="utf-8")
    out = tmp_path / "emb.csv"

    def no_pool(method):
        raise AssertionError("an empty graph must start no writer process")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert cli.main(["embed", "--input", str(edges), "--output", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0].startswith("node_key,e0,")
    assert "wrote 0 embeddings" in capsys.readouterr().out
    assert json.loads((tmp_path / "emb.csv.manifest.json").read_text())["write_workers"] == 1


class Unformattable:
    def __float__(self):
        raise ValueError("value cannot be formatted")


def test_writer_error_in_worker_is_one_line(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "edges.csv"
    write_chain(edges, 4)
    H = np.array([[0.5], [1.5], [Unformattable()], [2.5]], dtype=object)
    monkeypatch.setattr(pipeline, "run", fake_pipeline(H))
    monkeypatch.setattr(clustering, "POOL_MIN_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # row 2 is the worker's
    out = tmp_path / "e.csv"
    out.write_bytes(b"node_key,e0\nold,1\n")

    def hang(signum, frame):
        pytest.fail("the writer hung after a worker failed")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        code = cli.main(["embed", "--input", str(edges), "--output", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: value cannot be formatted\n"
    assert not multiprocessing.active_children()
    with pytest.raises(ChildProcessError):  # every worker has been reaped
        os.waitpid(-1, os.WNOHANG)
    assert out.read_bytes() == b"node_key,e0\nold,1\n"  # the old file, not a torn one
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "edges.csv"]


def test_quoted_keys_round_trip(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text('"a,b",c,5\nc,"q""r",6\n"n\nl",c,7\n', encoding="utf-8")
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "2"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [21] * 5  # node_key + 4*2^2 + 2*2 values
    assert [r[0] for r in rows[1:]] == ["a,b", "c", 'q"r', "n\nl"]


OVERSIZED = "k" * 200_000  # over the csv module's field size limit, 131072


@pytest.mark.parametrize("edge_rows, label_rows, message", [
    (f"a,b,1\n{OVERSIZED},c,2\n", "a,1\n", "line 2: field larger than field limit (131072)"),
    ("a,b,1\n", f"a,1\n{OVERSIZED},0\n", "line 2: field larger than field limit (131072)"),
    # a quoted line break in a key makes one row span two lines
    ('"a\nb",c,1\nd,e,x\n', "c,1\n", "line 3: unparsable timestamp 'x'"),
    ('"a\nb",c,1\n', 'account,label\n"a\nb",1\nc,2\n', "line 4: label '2' not in {0,1}"),
], ids=["oversized-edge", "oversized-label", "edge-after-line-break", "label-after-line-break"])
def test_bad_row_names_its_physical_line(tmp_path, capsys, edge_rows, label_rows, message):
    edges, labels = tmp_path / "e.csv", tmp_path / "l.csv"
    edges.write_text(edge_rows, encoding="utf-8")
    labels.write_text(label_rows, encoding="utf-8")
    assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, edge_rows, label_rows", [
    ("embed", "a,b,1\n,b,12\n", None),
    ("embed", "a,b,1\n ,b,12\n", None),
    ("evaluate", "a,b,1\nb,c,2\nc,a,3\n", "a,1\n,1\n"),
], ids=["empty-edge-key", "blank-edge-key", "empty-label-key"])
def test_empty_account_key_fails(tmp_path, capsys, command, edge_rows, label_rows):
    edges, labels = tmp_path / "e.csv", tmp_path / "l.csv"
    edges.write_text(edge_rows, encoding="utf-8")
    flags = ["--input", str(edges), "--output", str(tmp_path / "out.csv"), "--clusters", "2"]
    if label_rows is not None:
        labels.write_text(label_rows, encoding="utf-8")
        flags += ["--labels", str(labels)]
    inputs = sorted(tmp_path.iterdir())
    assert cli.main([command, *flags]) == 1
    assert capsys.readouterr().err == "error: line 2: empty account key\n"
    assert sorted(tmp_path.iterdir()) == inputs  # no output, no manifest


def test_manifest_digest_is_the_input_not_the_output(tmp_path):
    edges, _ = make_dataset(tmp_path)
    digest = hashlib.sha256(edges.read_bytes()).hexdigest()
    assert cli.main(["embed", "--input", str(edges), "--output", str(edges),
                     "--clusters", "3"]) == 0
    assert read_rows(edges)[0].startswith("node_key,")  # the embeddings replaced the input
    manifest = json.loads(Path(f"{edges}.manifest.json").read_text())
    assert manifest["inputs"]["edges"] == {"path": str(edges), "sha256": digest}


@pytest.mark.parametrize("command", ["embed", "evaluate", "synth"])
def test_removed_threads_flag_is_refused(tmp_path, capsys, monkeypatch, command):
    # the writer takes one process per CPU in the affinity mask; `taskset` caps it
    edges, labels = make_dataset(tmp_path)
    capsys.readouterr()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    args = command_args(tmp_path, command, edges, labels)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *args, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert not (tmp_path / "emb.csv").exists() and not (tmp_path / "e.csv").exists()


def test_cli_defaults_match_library_defaults(tmp_path, monkeypatch):
    parser = cli.build_parser()
    embed = parser.parse_args(["embed", "--input", "e.csv"])
    ev = parser.parse_args(["evaluate", "--input", "e.csv", "--labels", "l.csv"])
    assert cli._pipeline_config(embed) == pipeline.PipelineConfig()
    assert cli._pipeline_config(ev) == pipeline.PipelineConfig()

    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    assert defaults(evaluation.split) == {"train_fraction": ev.train_frac, "seed": ev.seed}
    assert defaults(evaluation.train_forest) == {"n_trees": ev.trees, "seed": ev.seed}
    assert defaults(evaluation.compute_metrics) == {"threshold": ev.threshold}

    configs = []

    def record(config):
        configs.append(config)
        raise ValueError("recorded")

    monkeypatch.setattr(synthgen, "generate", record)
    assert cli.main(["synth", *command_args(tmp_path, "synth", None, None)]) == 1
    assert configs == [synthgen.SynthConfig()]


def test_missing_input_fails(tmp_path, capsys):
    code = cli.main(["embed", "--input", str(tmp_path / "absent.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_timestamp_fails_with_line_number(tmp_path, capsys):
    edges = tmp_path / "bad.csv"
    edges.write_text("a,b,5\nc,d,oops\n", encoding="utf-8")
    assert cli.main(["embed", "--input", str(edges)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "oops" in err


def test_timestamp_beyond_int64_fails(tmp_path, capsys):
    edges = tmp_path / "big.csv"
    edges.write_text("a,b,9223372036854775807\nc,d,9223372036854775808\n",
                     encoding="utf-8")
    assert cli.main(["embed", "--input", str(edges)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2") and "9223372036854775808" in err
    assert len(err.strip().splitlines()) == 1


def test_solver_convergence_error_is_one_line(tmp_path, capsys, monkeypatch):
    edges, _ = make_dataset(tmp_path)
    monkeypatch.setattr(laplacian, "default_cg_max_iters", lambda n: 1)
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: conjugate gradients stopped")
    assert "false convergence" not in err  # the iteration cap stopped it
    assert len(err.strip().splitlines()) == 1


def test_solver_convergence_error_names_lambda_and_mu(tmp_path, capsys):
    # M = L + lambda * sum_c L_c + mu * I is nearly singular at a tiny mu
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3", "--mu", "1e-12"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: conjugate gradients stopped at relative residual")
    assert lines[0].endswith(" with lambda 1 and mu 1e-12")
    # only the recursive residual met the tolerance: the cause is named
    assert ", a false convergence: the system is too ill-conditioned with lambda" in lines[0]
    assert not out.exists()


def test_cli_import_leaves_numpy_unloaded():
    # main() fixes BLAS at one thread, honored only if numpy is not yet loaded
    code = "import sys, ditsgcr.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out.strip() == "False"


def test_bad_label_fails(tmp_path, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("a,2\n", encoding="utf-8")
    assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "2"]) == 1
    assert "not in {0,1}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("embed", "--alpha", "nan"), ("embed", "--beta", "nan"), ("embed", "--lambda", "nan"),
    ("embed", "--mu", "nan"), ("embed", "--beta", "inf"), ("embed", "--mu", "inf"),
    ("evaluate", "--threshold", "nan"), ("synth", "--rate", "nan"),
])
def test_non_finite_flags_fail(tmp_path, capsys, command, flag, value):
    edges, labels = make_dataset(tmp_path)
    capsys.readouterr()
    args = command_args(tmp_path, command, edges, labels)
    assert cli.main([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["embed", "evaluate", "synth"])
def test_negative_seed_fails(tmp_path, capsys, command):
    edges, labels = make_dataset(tmp_path)
    capsys.readouterr()
    args = command_args(tmp_path, command, edges, labels)
    assert cli.main([command, *args, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "emb.csv").exists() and not (tmp_path / "e.csv").exists()


def test_removed_pair_weight_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["embed", "--input", "edges.csv", "--weight-mode", "count"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weight-mode count" in capsys.readouterr().err


def test_removed_literal_recurrence_flag_is_refused(capsys):
    # `--alpha 1e300` gives the growth-form recurrence the flag used to select
    with pytest.raises(SystemExit) as exc:
        cli.main(["embed", "--input", "edges.csv", "--literal-eq4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --literal-eq4" in capsys.readouterr().err


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
     "and data type int64", "Unable to allocate 7.28 TiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, message, shown):
    def exhausted(config):
        raise MemoryError(message)

    monkeypatch.setattr(synthgen, "generate", exhausted)
    assert cli.main(["synth", *command_args(tmp_path, "synth", None, None)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shown}")
    assert len(err.splitlines()) == 1


def test_overflowing_lambda_fails(tmp_path, capsys):
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3", "--lambda", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda 1e+308 makes the system matrix overflow")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mu", ["1e150", "1e160"])
def test_overflowing_mu_fails(tmp_path, capsys, mu):
    # at 1e150 CG's p.Mp overflows, at 1e160 already ||b||
    edges = tmp_path / "e.csv"
    edges.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "2", "--mu", mu]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: lambda 1 and mu {float(mu):g} make the system overflow "
                   "in conjugate gradients\n")
    assert not out.exists()


@pytest.mark.parametrize("mu", ["5e-324", "1e-300"])
def test_underflowing_mu_fails(tmp_path, capsys, mu):
    # mu * subx loses its entries up to 0.5 at 5e-324, and its squared norm at
    # 1e-300: the solve would return Z = 0 and the run keep the first lift
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3", "--mu", mu]) == 1
    err = capsys.readouterr().err
    assert err == f"error: mu {float(mu):g} is too small: mu * subx underflows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_conflicting_labels_fail(tmp_path, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("a,1\nb,0\nc,0\na,0\n", encoding="utf-8")
    assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: account 'a' labeled 0")


def test_single_class_labels_fail(tmp_path, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("a,1\nb,1\nc,1\n", encoding="utf-8")
    assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_labels_all_unknown_fail(tmp_path, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("a,b,1\nb,a,2\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("x,1\ny,0\n", encoding="utf-8")
    assert cli.main(["evaluate", "--input", str(edges), "--labels", str(labels),
                     "--clusters", "2"]) == 1
    assert "no usable labels" in capsys.readouterr().err


def test_log_env_controls_diagnostics(tmp_path, capsys, monkeypatch):
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    monkeypatch.setenv("DITSGCR_LOG", "info")
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3"]) == 0
    err = capsys.readouterr().err
    assert "iteration 1:" in err and "ingested" in err
    assert "stopped after 1 iterations: no_gain" in err

    monkeypatch.delenv("DITSGCR_LOG")
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3"]) == 0
    assert "iteration" not in capsys.readouterr().err


def test_warnings_show_by_default(tmp_path, capsys, monkeypatch):
    edges, labels = make_dataset(tmp_path)
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("ghost,1\n")
    args = ["evaluate", "--input", str(edges), "--labels", str(labels), "--clusters", "3"]
    monkeypatch.delenv("DITSGCR_LOG", raising=False)
    assert cli.main(args) == 0
    assert capsys.readouterr().err.splitlines() == [
        "WARNING ditsgcr.graph_model: 1 labeled accounts not present in graph, skipped"]

    monkeypatch.setenv("DITSGCR_LOG", "error")
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""


def test_benchmark_tracer_sees_every_span(tmp_path):
    # perfbench/trace_child.py wraps functions by module attribute, so renaming or
    # re-signing one of them fails here instead of only in a traced benchmark run
    bench = SRC.parent / "perfbench"
    tree = ast.parse((bench / "run.py").read_text(encoding="utf-8"))
    span_seconds = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["SPAN_SECONDS"])
    edges, labels = make_dataset(tmp_path, normals=60, phishers=6)
    runs = {"embed": command_args(tmp_path, "embed", edges, labels),
            "evaluate": [*command_args(tmp_path, "evaluate", edges, labels),
                         "--emit-roc", str(tmp_path / "roc.csv")]}
    seen = set()
    for command, args in runs.items():
        spans_json = tmp_path / f"{command}_spans.json"
        proc = subprocess.run(
            [sys.executable, str(bench / "trace_child.py"), str(spans_json), "0", command,
             *args], env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen |= {span[0] for span in json.loads(spans_json.read_text())["spans"]}
    assert set(span_seconds) - {"process.exit"} - seen == set()


def test_benchmark_tracer_spans_nest_above_the_pool_gate(tmp_path):
    # perfbench/trace_child.py keeps one span stack for the process, so a
    # traced function called from a pool thread would interleave its spans
    edges = synth_above_pool_gate(tmp_path)
    spans_json = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(SRC.parent / "perfbench" / "trace_child.py"), str(spans_json),
         "0", "embed", "--input", str(edges), "--output", str(tmp_path / "emb.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_json.read_text())["spans"]
    assert sum(span[0] == "laplacian.cg_solve" for span in spans) >= 10
    children = {}
    for index, (name, start, end, parent) in enumerate(spans):
        assert start <= end, name
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2], (name, spans[parent])
        children.setdefault(parent, []).append(index)
    for siblings in children.values():
        ordered = sorted(siblings, key=lambda i: spans[i][1])
        for a, b in zip(ordered, ordered[1:]):
            assert spans[a][2] <= spans[b][1], (spans[a], spans[b])


@pytest.mark.parametrize("command, flags", [
    ("synth", ["--out-edges", "x.csv", "--out-labels", "x.csv"]),
    ("synth", ["--out-edges", "x.csv", "--out-labels", "sub/../x.csv"]),
    ("evaluate", ["--output", "x.csv", "--emit-roc", "x.csv"]),
    ("synth", ["--out-edges", "x.csv", "--out-labels", "x.csv.manifest.json"]),
    ("evaluate", ["--output", "x.csv", "--emit-roc", "x.csv.manifest.json"]),
    ("evaluate", ["--output", "x.csv", "--emit-roc", "sub/../x.csv.manifest.json"]),
])
def test_outputs_on_one_path_fail(tmp_path, capsys, monkeypatch, command, flags):
    # each output, or an output and another one's manifest, used to overwrite
    # the other, with exit code 0
    edges, labels = make_dataset(tmp_path)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    inputs = ["--input", str(edges), "--labels", str(labels)] if command == "evaluate" else []
    assert cli.main([command, *inputs, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "are the same file" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [edges.name, labels.name, f"{edges.name}.manifest.json", "sub"])  # nothing written


@pytest.mark.parametrize("command, flag", [
    ("embed", "--output"), ("evaluate", "--emit-roc"), ("evaluate", "--output"),
    ("synth", "--out-edges"), ("synth", "--out-labels"),
])
def test_output_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, flag):
    # embed used to run the whole pipeline and then name its working
    # directory; evaluate printed its metrics line first
    edges, labels = make_dataset(tmp_path)
    monkeypatch.setattr(pipeline, "run", lambda *a, **k: pytest.fail("the pipeline ran"))
    monkeypatch.setattr(synthgen, "generate", lambda *a, **k: pytest.fail("synth ran"))
    args = command_args(tmp_path, command, edges, labels)
    missing = tmp_path / "missing"
    if flag in args:
        args[args.index(flag) + 1] = str(missing / "x.csv")
    else:
        args += [flag, str(missing / "x.csv")]
    capsys.readouterr()
    assert cli.main([command, *args]) == 1
    assert capsys.readouterr() == ("", f"error: {flag}: no directory {missing}\n")
    assert not list(tmp_path.rglob(".ditsgcr-*")) and not missing.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--train-frac", "1.5", "train_fraction must be strictly between 0 and 1"),
    ("--trees", "0", "need at least one tree"),
    ("--threshold", "nan", "threshold must be finite, got nan"),
    ("--seed", "-1", "seed must be non-negative, got -1"),
])
def test_evaluate_flags_fail_before_the_pipeline(tmp_path, capsys, monkeypatch, flag, value,
                                                 message):
    # each used to fail after a whole pipeline run (--threshold after the forest too)
    edges, labels = make_dataset(tmp_path)
    monkeypatch.setattr(pipeline, "run", lambda *a, **k: pytest.fail("the pipeline ran"))
    args = command_args(tmp_path, "evaluate", edges, labels)
    capsys.readouterr()
    assert cli.main(["evaluate", *args, flag, value]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["embed", "evaluate"])
def test_input_on_an_output_manifest_fails(tmp_path, capsys, command):
    # the manifest used to overwrite the input it describes, with exit code 0
    edges, labels = make_dataset(tmp_path)
    source = tmp_path / "out.csv.manifest.json"
    source.write_bytes(edges.read_bytes())
    flag = "--input" if command == "embed" else "--labels"
    if command == "evaluate":
        source.write_bytes(labels.read_bytes())
    args = command_args(tmp_path, command, edges, labels)
    args[args.index(flag) + 1] = str(source)
    if command == "evaluate":
        args += ["--emit-roc", str(tmp_path / "roc.csv"), "--output", str(tmp_path / "out.csv")]
    else:
        args[args.index("--output") + 1] = str(tmp_path / "out.csv")
    capsys.readouterr()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main([command, *args]) == 1
    assert capsys.readouterr().err == \
        f"error: the manifest of --output and {flag} are the same file: {source}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert source.read_bytes() == (edges if command == "embed" else labels).read_bytes()


@pytest.mark.parametrize("name", ["out.csv.part", "out.csv.part.1"])
def test_embed_writes_over_no_existing_file(tmp_path, monkeypatch, name):
    # the writer writes over no existing file, an input named like a working
    # file included; with the pool's gate lowered a second CPU writes a side file
    monkeypatch.setattr(clustering, "POOL_MIN_ROWS", 1)
    edges, _ = make_dataset(tmp_path)
    source = tmp_path / name
    source.write_bytes(edges.read_bytes())
    out = tmp_path / "out.csv"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["embed", "--input", str(source), "--output", str(out),
                     "--clusters", "3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([*before, "out.csv", "out.csv.manifest.json"])
    assert source.read_bytes() == edges.read_bytes()
    nodes = len({key for row in read_rows(edges)[1:] for key in row.split(",")[:2]})
    assert len(read_rows(out)) == 1 + nodes


def test_time_span_beyond_int64_fails(tmp_path, capsys):
    args = command_args(tmp_path, "synth", None, None)
    assert cli.main(["synth", *args, "--time-span", str(2**63 + 1)]) == 1
    assert capsys.readouterr().err == f"error: time_span must be in 1..2**63, got {2**63 + 1}\n"
    assert cli.main(["synth", *args, "--time-span", str(2**63)]) == 0  # the bound itself


def processes_naming(text):
    """/proc entries of the live processes whose command line contains text."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if text.encode() in cmdline.read_bytes():
                found.append(cmdline.parent.name)
        except OSError:  # the process ended while it was listed
            pass
    return found


def test_entry_point_exits_without_teardown(tmp_path, capsys):
    # from the pool's gate on, the CSV is formatted by forked writers
    edges = synth_above_pool_gate(tmp_path)
    capsys.readouterr()
    ref = tmp_path / "ref.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(ref),
                     "--clusters", "3"]) == 0
    ref_out = capsys.readouterr().out
    out = tmp_path / "emb.csv"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = {"embed": (["--input", str(edges), "--output", str(out), "--clusters", "3"], 0),
            "bad": (["--input", str(tmp_path / "absent.csv"), "--output", str(out)], 1)}
    for name, (flags, code) in runs.items():
        proc = subprocess.run([sys.executable, "-m", "ditsgcr.cli", "embed", *flags],
                              env=env, capture_output=True, text=True, timeout=300)
        # the pipes reached EOF, so no process that inherited them is left
        assert proc.returncode == code, proc.stderr
        assert processes_naming(str(out)) == []
        if code == 0:
            assert proc.stdout == ref_out.replace(str(ref), str(out)) and proc.stderr == ""
            assert out.read_bytes() == ref.read_bytes()
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            nodes = len(read_rows(out)) - 1
            assert nodes >= clustering.POOL_MIN_ROWS
            assert manifest["write_workers"] == clustering.pool_threads(nodes) + 1
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: [Errno 2]")
            assert len(proc.stderr.splitlines()) == 1
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'ditsgcr = "ditsgcr.cli:entry"' in pyproject  # the console script's entry too
