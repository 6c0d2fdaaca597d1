#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, one workload, one pinned graph seed.

    python3 tools/paired_bench.py --base 7fc4465 --head HEAD --workload hub-embed \
        --seed 0 --pairs 10 [--seconds 40] [--out-dir .]

--base and --head are each a directory holding a checkout (a git worktree,
say) or a git revision, which is exported with `git archive` into a
temporary directory. Pair i runs `perfbench/run.py --trace 0` once from each
side, base first when i is even, so that drift in the machine's speed falls
on both sides alike. Each run.py run gives one sample per metric: its
median over the processes it started.

Printed per metric: the median and quartiles of each side, raw and
gauge-scaled (see perfbench/README.md), the number of pairs in which head
was better, a two-sided sign-test p (ties dropped) and, for the end-to-end
metrics of BENCHMARK.json, a verdict under their `bound`: "worse beyond
bound" when head's median is worse than base's by more than the bound;
"gain" when head is better in at least nine tenths of the pairs run (ties
count for neither side), the medians differ by more than the base IQR and
no more operations failed on head than on base, and, for the gauge-scaled
wall_s and edges_per_s, when their raw metric passes the same two tests;
"unresolved" when the base IQR is wider than the bound, unless every head
run beats every base run; "within bound" otherwise. Bounds and IQRs are
read as fractions of base's median. peak_rss_mb also gets its counts per
whole MB, since it can be bimodal. gauge_s gets each pair's ratio, head
over base, and "gauge moved" when head's gauge was slower, or faster, in
at least nine tenths of the pairs: the gauge shares the CPUs with the
program, so a scaled time can move with it. When the runs had fewer CPUs
than the machine (`taskset -c 0`, say), the gauge shared the program's
CPU, so the verdicts of wall_s, edges_per_s and setup_s are given on their
raw samples instead, and their entry names that metric (`verdict_on`).
The record goes to
BENCH_<head sha>.json in --out-dir
(BENCH_<head sha>-dirty.json for a head directory with uncommitted
changes), one entry per workload and seed, so the records of several
workloads share one file. Runs under an affinity mask that leaves out
some of the machine's CPUs go to CPU<ids>_<head sha>.json instead, CPU0_
under `taskset -c 0`, so that they do not overwrite the entries of runs on
every CPU. An entry also holds the machine's CPU count (`nproc`), the
number of CPUs the runs could use (`cpus`), 1 under `taskset -c 0`, and
the lines of each side's src/ (`src_lines`), printed base -> head.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# end-to-end metric -> its bound, as a fraction of base's median
BOUNDS = {m["name"]: m["bound"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

# metric -> (where it is in run.py's output, better direction)
METRICS = {
    "wall_s": (("metrics", "wall_s", "value"), "lower"),
    "raw_wall_s": (("record", "raw_wall_s", "median"), "lower"),
    "edges_per_s": (("metrics", "edges_per_s", "value"), "higher"),
    "raw_edges_per_s": (None, "higher"),  # input edges / raw_wall_s
    "setup_s": (("metrics", "setup_s", "value"), "lower"),
    "raw_setup_s": (("record", "raw_setup_s", "median"), "lower"),
    "peak_rss_mb": (("metrics", "peak_rss_mb", "value"), "lower"),
    "gauge_s": (("record", "gauge_s", "median"), "lower"),
}
# gauge-scaled metric -> the raw metric that must show its gain too
RAW = {"wall_s": "raw_wall_s", "edges_per_s": "raw_edges_per_s"}
# gauge-scaled metric -> the raw metric judged in its place on fewer CPUs
# than the machine's, where the gauge shares the program's CPU
PINNED_RAW = {**RAW, "setup_s": "raw_setup_s"}


def checkout(spec, tmp, side):
    """(directory, sha or None) of a checkout directory or a git revision,
    exported to its own directory per side, so that a revision can be run
    against itself. A directory with uncommitted changes is marked
    <HEAD sha>-dirty, so that it is not taken for its HEAD."""
    if Path(spec).is_dir():
        git = ["git", "-C", spec]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        if sha and subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                  text=True, check=True).stdout:
            sha += "-dirty"
        return Path(spec).resolve(), sha
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", spec + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    target = Path(tmp) / f"{side}-{sha[:12]}"
    target.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, sha


def machine():
    """The machine's CPU count and the CPUs this process may run on, which
    taskset narrows and run.py's children inherit."""
    return {"nproc": os.cpu_count(), "cpus": len(os.sched_getaffinity(0))}


def record_path(out_dir, head_sha):
    """BENCH_<head sha>.json in out_dir, or CPU<ids>_<head sha>.json when
    the affinity mask leaves out some of the machine's CPUs: CPU0_ under
    `taskset -c 0`, CPU0-2_ under `taskset -c 0,2`."""
    stem = (head_sha[:12] + "-dirty" * head_sha.endswith("-dirty")) if head_sha else "worktree"
    cpus = sorted(os.sched_getaffinity(0))
    prefix = "BENCH" if len(cpus) == os.cpu_count() else "CPU" + "-".join(map(str, cpus))
    return Path(out_dir) / f"{prefix}_{stem}.json"


def run_once(directory, workload, seed, seconds):
    """One run.py run; returns its samples, its failed count and the lines
    of the src/ it ran."""
    proc = subprocess.run([sys.executable, str(directory / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py failed in {directory}:\n{proc.stderr}")
    found = {"record": json.loads(lines[-2]), "metrics": json.loads(lines[-1])["metrics"]}
    sample = {}
    for name, (path, _) in METRICS.items():
        if path is not None:
            value = found
            for key in path:
                value = value[key]
            sample[name] = value
    sample["raw_edges_per_s"] = found["record"]["properties"]["edges"] / sample["raw_wall_s"]
    return sample, json.loads(lines[-1])["failed"], found["record"]["src_lines"]


def sign_test(wins, losses):
    """Two-sided sign-test p for wins against losses."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_wins(b, h, sign):
    """Pairs in which head is better; ties count for neither side."""
    return sum(sign * (y - x) > 0 for x, y in zip(b, h))


def clear_gain(b, h, sign, wins):
    """Head better in nine tenths of the pairs and beyond base's IQR."""
    (bq1, bmed, bq3), hmed = quartiles(b), statistics.median(h)
    return wins >= 0.9 * len(b) and sign * (hmed - bmed) > bq3 - bq1


def verdict(b, h, sign, wins, bound, failed, raw=None):
    """One end-to-end metric's verdict from base and head samples b and h,
    sign 1 where higher is better and -1 where lower is, head's wins, the
    failed counts of each side and, for a gauge-scaled metric, the (base,
    head) samples of its raw metric."""
    (bq1, bmed, bq3), hmed = quartiles(b), statistics.median(h)
    if sign * (bmed - hmed) > bound * abs(bmed):
        return "worse beyond bound"
    if (clear_gain(b, h, sign, wins) and failed["head"] <= failed["base"]
            and (raw is None or clear_gain(*raw, sign, pair_wins(*raw, sign)))):
        return "gain"
    if bq3 - bq1 > bound * abs(bmed) and min(sign * y for y in h) <= max(sign * x for x in b):
        return "unresolved"
    return "within bound"


def summarize(base, head, failed, pinned=False):
    """Per metric statistics and, for the end-to-end ones, verdicts; pinned
    when the runs had fewer CPUs than the machine (see PINNED_RAW)."""
    out = {}
    for name, (_, better) in METRICS.items():
        b = [s[name] for s in base]
        h = [s[name] for s in head]
        sign = 1 if better == "higher" else -1
        wins, losses = pair_wins(b, h, sign), pair_wins(b, h, -sign)
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(b), quartiles(h)
        out[name] = {"better": better, "base": {"q1": bq1, "median": bmed, "q3": bq3},
                     "head": {"q1": hq1, "median": hmed, "q3": hq3},
                     "change": hmed / bmed - 1 if bmed else None,
                     "head_better_pairs": wins, "head_worse_pairs": losses,
                     "sign_test_p": sign_test(wins, losses),
                     "beyond_base_iqr": abs(hmed - bmed) > bq3 - bq1}
        if name in BOUNDS and pinned and name in PINNED_RAW:
            rb, rh = ([s[PINNED_RAW[name]] for s in runs] for runs in (base, head))
            out[name]["verdict"] = verdict(rb, rh, sign, pair_wins(rb, rh, sign),
                                           BOUNDS[name], failed)
            out[name]["verdict_on"] = PINNED_RAW[name]
        elif name in BOUNDS:
            raw = [[s[RAW[name]] for s in runs] for runs in (base, head)] if name in RAW else None
            out[name]["verdict"] = verdict(b, h, sign, wins, BOUNDS[name], failed, raw)
    gauge = out["gauge_s"]
    gauge["pair_ratios"] = [y["gauge_s"] / x["gauge_s"] for x, y in zip(base, head)]
    gauge["gauge_moved"] = max(gauge["head_better_pairs"],
                               gauge["head_worse_pairs"]) >= 0.9 * len(base)
    rss = "peak_rss_mb"
    out[rss]["modes"] = {side: dict(sorted(Counter(round(s[rss]) for s in runs).items()))
                         for side, runs in (("base", base), ("head", head))}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout directory or git revision")
    parser.add_argument("--head", required=True, help="checkout directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="paired_bench_") as tmp:
        (base_dir, base_sha), (head_dir, head_sha) = (checkout(args.base, tmp, "base"),
                                                      checkout(args.head, tmp, "head"))
        runs = {"base": [], "head": []}
        failed = {"base": 0, "head": 0}
        src_lines = {}
        for i in range(args.pairs):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                sample, fails, src_lines[side] = run_once(
                    base_dir if side == "base" else head_dir,
                    args.workload, args.seed, args.seconds)
                runs[side].append(sample)
                failed[side] += fails
                print(f"pair {i + 1} {side}: raw {sample['raw_wall_s']:.3f} s, scaled "
                      f"{sample['wall_s']:.3f} s, rss {sample['peak_rss_mb']:.1f} MB",
                      file=sys.stderr, flush=True)
    host = machine()
    summary = summarize(runs["base"], runs["head"], failed, host["cpus"] < host["nproc"])
    for name, s in summary.items():
        print(f"{name:16s} base {s['base']['median']:10.4g} [{s['base']['q1']:.4g}, "
              f"{s['base']['q3']:.4g}]  head {s['head']['median']:10.4g} "
              f"[{s['head']['q1']:.4g}, {s['head']['q3']:.4g}]  head better in "
              f"{s['head_better_pairs']}/{args.pairs}, p = {s['sign_test_p']:.3g}"
              + (f"  {s['verdict']}" if "verdict" in s else "")
              + (f" on {s['verdict_on']}" if "verdict_on" in s else "")
              + ("  gauge moved" if s.get("gauge_moved") else ""))
    print("peak_rss_mb modes:", summary["peak_rss_mb"]["modes"])
    print(f"src_lines base {src_lines['base']} -> head {src_lines['head']} "
          f"({src_lines['head'] - src_lines['base']:+d})")
    entry = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
             "seconds": args.seconds, "base": {"spec": args.base, "sha": base_sha},
             "head": {"spec": args.head, "sha": head_sha}, **host, "src_lines": src_lines,
             "failed": failed, "runs": runs, "summary": summary}
    path = record_path(args.out_dir, head_sha)
    record = json.loads(path.read_text()) if path.exists() else {}
    record[f"{args.workload}/seed{args.seed}"] = entry
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
