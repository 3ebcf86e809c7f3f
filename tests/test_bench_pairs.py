"""The pair runner's statistics, and the committed ``BENCH_*.json`` files.

``bench_pairs.py`` at the repository root compares a parent revision with
the change over paired benchmark runs.  These tests check its median,
quartiles and wins on fixed inputs, that every committed ``BENCH_*.json``
holds the keys it writes, and that a run stopped by SIGTERM removes its
worktree.  They never run the benchmark: the stopped run is a copy of the
script in a throwaway repository whose benchmark command sleeps.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
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


def worktrees(repo: Path) -> list[str]:
    """The paths that ``git worktree list`` shows for ``repo``."""
    listing = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo,
                             check=True, capture_output=True, text=True).stdout
    return [line.split(" ", 1)[1] for line in listing.splitlines()
            if line.startswith("worktree ")]


def test_a_stopped_run_removes_the_parents_worktree(tmp_path):
    repo = tmp_path / "repo"
    for directory in ("src", "perfbench"):
        (repo / directory).mkdir(parents=True)
        (repo / directory / "stub.py").write_text("", encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", "import time; time.sleep(120)"],
        "run_seconds": 1,
        "workloads": [{"name": "stub"}],
        "end_to_end": [],
    }), encoding="utf-8")
    shutil.copy(ROOT / "bench_pairs.py", repo)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    temp = tmp_path / "temp"
    temp.mkdir()
    run = subprocess.Popen(
        [sys.executable, "bench_pairs.py", "--parent", "HEAD", "--pr", "0"], cwd=repo,
        env={**os.environ, "TMPDIR": str(temp)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(worktrees(repo)) < 2:
            assert run.poll() is None, run.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        parent = Path(worktrees(repo)[1])
        assert parent.is_relative_to(temp)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        run.kill()
        run.wait()
        run.stderr.close()
    assert worktrees(repo) == [str(repo)]
    assert not parent.exists()
    assert list(temp.iterdir()) == []
