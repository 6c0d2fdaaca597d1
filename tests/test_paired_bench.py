"""Verdicts and machine fields of tools/paired_bench.py, on hand-made samples."""

import importlib.util
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
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
