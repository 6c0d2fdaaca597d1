"""Verdicts and machine fields of tools/paired_bench.py, on hand-made samples."""

import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

BASE = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, IQR 0.5


@pytest.mark.parametrize("head, failed, expected", [
    ([x - 1.0 for x in BASE], (0, 0), "gain"),
    ([x - 1.0 for x in BASE], (2, 1), "gain"),
    ([x - 1.0 for x in BASE], (0, 1), "within bound"),  # more head runs failed
    ([x + 0.1 for x in BASE], (0, 0), "within bound"),
    ([x + 5.0 for x in BASE], (0, 0), "worse beyond bound"),
])
def test_verdict_lower_is_better(head, failed, expected):
    wins = sum(y < x for x, y in zip(BASE, head))
    assert paired_bench.verdict(BASE, head, -1, wins, 0.25,
                                {"base": failed[0], "head": failed[1]}) == expected


def test_verdict_unresolved_when_base_spreads_wider_than_bound():
    base = [1.0, 1.0, 2.0, 2.0]
    head = [1.5, 1.5, 1.5, 1.5]
    assert paired_bench.verdict(base, head, -1, 2, 0.25, {"base": 0, "head": 0}) == "unresolved"


def test_every_end_to_end_metric_has_a_direction():
    assert set(paired_bench.BOUNDS) <= set(paired_bench.METRICS)


def test_record_counts_the_cpus_of_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # taskset -c 0
    assert paired_bench.machine() == {"nproc": 2, "cpus": 1}


@pytest.mark.parametrize("mask, name", [
    ({0, 1}, "BENCH_0123456789ab.json"),
    ({0}, "CPU0_0123456789ab.json"),  # taskset -c 0: not the two-CPU record
    ({1}, "CPU1_0123456789ab.json"),
])
def test_record_name_tells_a_narrowed_affinity_mask_apart(mask, name, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
    assert paired_bench.record_path(tmp_path, "0123456789abcdef") == tmp_path / name
    assert paired_bench.record_path(tmp_path, "0123456789abcdef-dirty").name == (
        name.replace(".json", "-dirty.json"))


@pytest.mark.parametrize("raw_head, expected", [
    ([x - 1.0 for x in BASE], "gain"),
    ([x - 1.0 for x in BASE[:8]] + BASE[8:], "within bound"),  # raw better in 8 of 10
    ([x - 0.2 for x in BASE], "within bound"),  # raw not beyond the base IQR
])
def test_scaled_gain_needs_a_raw_gain(raw_head, expected):
    head = [x - 1.0 for x in BASE]
    wins = sum(y < x for x, y in zip(BASE, head))
    assert paired_bench.verdict(BASE, head, -1, wins, 0.25, {"base": 0, "head": 0},
                                (BASE, raw_head)) == expected


def sample(value, gauge):
    return {name: value for name in paired_bench.METRICS} | {"gauge_s": gauge}


@pytest.mark.parametrize("head_gauges, moved", [
    ([1.2] * 9 + [0.9], True),  # slower in 9 of 10
    ([0.8] * 9 + [1.1], True),  # faster in 9 of 10
    ([1.2] * 8 + [0.9] * 2, False),
])
def test_gauge_moved_flag(head_gauges, moved):
    base = [sample(x, 1.0) for x in BASE]
    head = [sample(x, g) for x, g in zip(BASE, head_gauges)]
    gauge = paired_bench.summarize(base, head, {"base": 0, "head": 0})["gauge_s"]
    assert gauge["pair_ratios"] == pytest.approx(head_gauges)
    assert gauge["gauge_moved"] is moved


def test_rereading_a_record_whose_gauge_slowed():
    # 9d1c791's hub-embed wall_s fell 28% scaled but 9% raw, better in 8 of
    # 10 pairs and not beyond the raw base IQR; head's gauge was slower in all 10
    record = json.loads((ROOT / "bench" / "BENCH_9d1c791f768d.json").read_text())
    summary = {name: paired_bench.summarize(entry["runs"]["base"], entry["runs"]["head"],
                                            entry["failed"])
               for name, entry in record.items()}
    hub = summary["hub-embed/seed0"]
    assert hub["wall_s"]["verdict"] == "within bound"
    assert hub["edges_per_s"]["verdict"] == "within bound"
    assert hub["gauge_s"]["gauge_moved"] and min(hub["gauge_s"]["pair_ratios"]) > 1
    assert summary["detect-2k/seed0"]["peak_rss_mb"]["verdict"] == "gain"


def test_rereading_a_one_cpu_record_judges_the_raw_samples():
    # under taskset -c 0 the gauge shares the program's CPU: 840f0b4's hub-embed
    # scaled metrics spread over two modes, raw wall_s went 2.590 -> 2.562 s
    entry = json.loads((ROOT / "bench" / "CPU0_840f0b45fc12.json").read_text())["hub-embed/seed0"]
    assert entry["cpus"] < entry["nproc"]
    runs = entry["runs"]["base"], entry["runs"]["head"]
    scaled = paired_bench.summarize(*runs, entry["failed"])
    pinned = paired_bench.summarize(*runs, entry["failed"], pinned=True)
    for name, raw in (("wall_s", "raw_wall_s"), ("edges_per_s", "raw_edges_per_s"),
                      ("setup_s", "raw_setup_s")):
        assert scaled[name]["verdict"] == "unresolved" and "verdict_on" not in scaled[name]
        assert pinned[name]["verdict"] == "within bound"
        assert pinned[name]["verdict_on"] == raw
    assert pinned["raw_wall_s"]["base"]["median"] == pytest.approx(2.590, abs=5e-4)
    assert pinned["raw_wall_s"]["head"]["median"] == pytest.approx(2.562, abs=5e-4)
    assert pinned["raw_wall_s"]["head_better_pairs"] == 6
    assert pinned["peak_rss_mb"] == scaled["peak_rss_mb"]  # not gauge-scaled


def test_entry_holds_each_sides_src_lines(monkeypatch, tmp_path, capsys):
    # run.py's record line carries the lines of the src/ it ran
    src_lines = {"base": 1966, "head": 1964}

    def fake_run(cmd, **kwargs):
        side = Path(cmd[1]).parent.parent.name
        record = {"raw_wall_s": {"median": 2.0}, "raw_setup_s": {"median": 0.5},
                  "gauge_s": {"median": 0.01}, "properties": {"edges": 100},
                  "src_lines": src_lines[side]}
        metrics = {"metrics": {name: {"value": 1.0} for name in paired_bench.BOUNDS},
                   "failed": 0}
        return SimpleNamespace(returncode=0, stderr="",
                               stdout=f"{json.dumps(record)}\n{json.dumps(metrics)}\n")
    monkeypatch.setattr(paired_bench, "checkout", lambda spec, tmp, side: (tmp_path / side, None))
    monkeypatch.setattr(paired_bench.subprocess, "run", fake_run)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert paired_bench.main(["--base", "b", "--head", "h", "--workload", "hub-embed",
                              "--pairs", "2", "--out-dir", str(tmp_path)]) == 0
    assert "src_lines base 1966 -> head 1964 (-2)\n" in capsys.readouterr().out
    entry = json.loads((tmp_path / "BENCH_worktree.json").read_text())["hub-embed/seed0"]
    assert entry["src_lines"] == src_lines
    assert "verdict_on" not in entry["summary"]["wall_s"]  # every CPU: scaled verdicts
