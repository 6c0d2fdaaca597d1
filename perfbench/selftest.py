#!/usr/bin/env python3
"""Self-test of the benchmark on tiny graphs (the ``--smoke`` mode), about a minute.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that an injected wrong output counts as
a failure; that a change far below the fingerprint tolerance passes while a
larger one fails; and that the benchmark exits non-zero without printing a
result when the program's sources are missing. Exits non-zero on the first
failed check.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--smoke"])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics_emitted():
    for wl in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = bench(wl["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {wl['name']} trace {trace}: {len(got)} metrics with units")


def corrupt(wl, out_dir):
    """Change one value of the run's data output, as a wrong program would."""
    if wl.command == "evaluate":
        path = out_dir / "stdout.txt"
        fields = dict(kv.split("=") for kv in path.read_text().split())
        fields["auc"] = f"{abs(float(fields['auc']) - 0.5):.6f}"
        path.write_text(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")
        return
    path = out_dir / "embeddings.csv"
    lines = path.read_text().splitlines(keepends=True)
    key, first, rest = lines[1].split(",", 2)
    lines[1] = f"{key},{float(first) + 0.5!r},{rest}"
    path.write_text("".join(lines))


def check_wrong_output_fails():
    original = run.run_workload_once

    def corrupting(wl, inp, out_dir, deadline):
        result = original(wl, inp, out_dir, deadline)
        corrupt(wl, out_dir)
        return result

    run.run_workload_once = corrupting
    try:
        for name in ("detect-2k", "hub-embed"):
            res = bench(name, 0)
            assert not res["correct"] and res["failed"] >= 1, (name, res)
            print(f"ok  {name}: injected wrong output counted as "
                  f"{res['failed']} of {res['attempted']} failed")
    finally:
        run.run_workload_once = original


def check_tolerance():
    wl = run.WORKLOADS["big-embed"]
    key = f"{wl.name}/smoke/{wl.graph_seeds[0]}"
    ref = run.load_reference()[key]
    props = {"nodes": ref["nodes"]}

    def shifted(delta):
        fp = json.loads(json.dumps(ref["fingerprint"]))
        fp["col_means"] = [x + delta for x in fp["col_means"]]
        return run.compare_fingerprint(wl, fp, ref["fingerprint"], props, None, True)

    assert shifted(1e-6) == [], shifted(1e-6)
    assert shifted(1e-2), "a 1e-2 shift of every column mean passed the fingerprint check"
    print("ok  fingerprint accepts a 1e-6 shift and rejects a 1e-2 shift")


def check_refuses_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "detect-2k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit code {proc.returncode}, nothing on stdout")


if __name__ == "__main__":
    check_tolerance()
    check_refuses_without_sources()
    check_metrics_emitted()
    check_wrong_output_fails()
    print("selftest passed")
