"""The pair runner's statistics, and the committed ``BENCH_*.json`` files.

``bench_pairs.py`` at the repository root compares a parent revision with
the change over paired benchmark runs.  These tests check its median,
quartiles and wins on fixed inputs, and that every committed
``BENCH_*.json`` holds the keys it writes.  They never run the benchmark.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import bench_pairs  # noqa: E402


def result(failed: int, attempted: int, **values: float) -> dict:
    """What ``perfbench/run.py`` prints as its last line, cut to the keys
    the runner reads."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()},
    }


@pytest.mark.parametrize(
    "values, median, q1, q3",
    [
        ([5.0, 1.0, 4.0, 2.0, 3.0], 3.0, 2.0, 4.0),
        ([4.0, 1.0, 3.0, 2.0], 2.5, 1.75, 3.25),
        ([7.0], 7.0, 7.0, 7.0),
    ],
)
def test_spread_gives_the_median_and_inclusive_quartiles(values, median, q1, q3):
    assert bench_pairs.spread(values) == {
        "median": median, "q1": q1, "q3": q3, "values": values
    }


def test_wins_count_strictly_better_pairs_only():
    change, parent = [1.0, 2.0, 3.0, 0.5], [2.0, 2.0, 1.0, 0.4]
    assert bench_pairs.wins(change, parent, "lower") == 1
    assert bench_pairs.wins(change, parent, "higher") == 2


def test_a_workload_record_pairs_the_two_sides():
    runs = {
        "change": [result(0, 10, latency_p50_ms=1.0), result(1, 10, latency_p50_ms=3.0)],
        "parent": [result(0, 12, latency_p50_ms=2.0), result(1, 8, latency_p50_ms=2.0)],
    }
    metric = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}
    assert bench_pairs.summarize(runs, [metric]) == {
        "metrics": {
            "latency_p50_ms": {
                "better": "lower",
                "bound": 0.2,
                "unit": "ms",
                "change": {"median": 2.0, "q1": 1.5, "q3": 2.5, "values": [1.0, 3.0]},
                "parent": {"median": 2.0, "q1": 2.0, "q3": 2.0, "values": [2.0, 2.0]},
                "wins": 1,
            }
        },
        "runs": {
            "change": {"attempted": 20, "correct": [True, False], "failed": 1,
                       "failed/attempted": 0.05},
            "parent": {"attempted": 20, "correct": [True, False], "failed": 1,
                       "failed/attempted": 0.05},
        },
    }


def test_every_committed_bench_file_holds_the_runner_keys():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, indent=1, sort_keys=True) + "\n", path.name
        assert {
            "bytecode", "change_dirty", "command", "pairs", "python", "revisions",
            "seconds", "seeds", "workloads",
        } <= set(data), path.name
        assert data["seconds"] == benchmark["run_seconds"], path.name
        assert set(data["workloads"]) == {w["name"] for w in benchmark["workloads"]}, path.name
        assert len(data["seeds"]) == data["pairs"]
        for name, record in data["workloads"].items():
            for side in ("change", "parent"):
                run = record["runs"][side]
                assert run["failed/attempted"] == run["failed"] / run["attempted"]
                assert len(run["correct"]) == data["pairs"]
            assert set(record["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}, name
            for metric in record["metrics"].values():
                assert {"better", "bound", "unit", "wins"} <= set(metric)
                for side in ("change", "parent"):
                    spread = metric[side]
                    assert len(spread["values"]) == data["pairs"]
                    assert spread == bench_pairs.spread(spread["values"])
                assert metric["wins"] == bench_pairs.wins(
                    metric["change"]["values"], metric["parent"]["values"], metric["better"]
                )
