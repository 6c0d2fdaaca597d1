import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ditsgcr import cli, laplacian, pipeline

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
    assert manifest["stop_reason"] == "no_gain"


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
    edges, _ = make_dataset(tmp_path)
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"emb{hash_seed}.csv"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-m", "ditsgcr.cli", "embed", "--input", str(edges),
                        "--output", str(out), "--clusters", "3", "--threads", "1"],
                       env=env, check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
    assert json.loads((tmp_path / "roc.csv.manifest.json").read_text())


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


def test_embed_empty_input(tmp_path, capsys):
    edges = tmp_path / "empty.csv"
    edges.write_text("from,to,timestamp\n", encoding="utf-8")
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0].startswith("node_key,e0,")
    assert "wrote 0 embeddings" in capsys.readouterr().out


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
    assert len(err.strip().splitlines()) == 1


def test_cli_import_leaves_numpy_unloaded():
    # --threads caps BLAS only if numpy is not yet loaded when main() runs
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
    args = {"embed": ["--input", str(edges), "--output", str(tmp_path / "emb.csv"),
                      "--clusters", "3"],
            "evaluate": ["--input", str(edges), "--labels", str(labels), "--clusters", "3"],
            "synth": ["--out-edges", str(tmp_path / "e.csv"),
                      "--out-labels", str(tmp_path / "l.csv")]}[command]
    assert cli.main([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_lambda_fails(tmp_path, capsys):
    edges, _ = make_dataset(tmp_path)
    out = tmp_path / "emb.csv"
    assert cli.main(["embed", "--input", str(edges), "--output", str(out),
                     "--clusters", "3", "--lambda", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: conjugate gradients stopped at relative residual nan")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


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
