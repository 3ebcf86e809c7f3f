"""Paired benchmark runs of a parent revision and the change: BENCH_<pr>.json.

    python3 bench_pairs.py --parent REV --pr N

The change is the tree this script sits in; the parent is checked out with
`git worktree add` into a temporary directory, removed at the end.  Every
workload of `BENCHMARK.json` gets `PAIRS` pairs.  Each pair runs the
benchmark command of `BENCHMARK.json`, `--workload W --seed S --seconds T`
with T its `run_seconds`, once on each side, in that side's tree: the
change goes first in odd pairs and the parent first in even ones, and both
sides of a pair use one seed (`SEEDS` taken in turn, so each seed runs in
both orders).  Only the last stdout line of each run is read, the JSON
object that `run.py` prints there.

While `main` runs, SIGTERM and SIGHUP raise `SystemExit` (status 128 + the
signal), so a stopped run still removes the parent's worktree in its
`finally`, and `subprocess.run` kills the child it was waiting for.

Both trees run in one bytecode regime: `compileall` writes the bytecode of
`src/` and `perfbench/` in each tree before the first run, and the runs
inherit no `PYTHONDONTWRITEBYTECODE`, so `setup_s` times an import from
cached bytecode on both sides.

The file, written with sorted keys beside this script, holds per workload
and end-to-end metric each side's median, quartiles and per-pair values,
the same for the per-pair ratio change/parent (`ratio`), the pairs the
change wins (ties count for neither side) and the bound from
`BENCHMARK.json`; per workload and side, `failed/attempted` over all runs;
and once, the Python version, the command line, the seeds, both revisions
and the bytecode regime.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
STOPS = (signal.SIGTERM, signal.SIGHUP)
SEEDS = (5, 7, 9, 11, 13)
PAIRS = 10
BYTECODE = (
    "compiled: python3 -m compileall on src/ and perfbench/ of both trees before "
    "the first run; PYTHONDONTWRITEBYTECODE unset"
)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``, and the values
    themselves in pair order."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def wins(change: list[float], parent: list[float], better: str) -> int:
    """The pairs whose change value is better than the parent's; a tie
    counts for neither."""
    if better == "lower":
        return sum(c < p for c, p in zip(change, parent))
    return sum(c > p for c, p in zip(change, parent))


def ratios(change: list[float], parent: list[float]) -> list[float]:
    """Each pair's change value over its parent value.  The two sides of a
    pair run minutes apart at most, so drift that moves both sides alike
    between pairs cancels here, where it widens each side's own quartiles."""
    return [c / p for c, p in zip(change, parent)]


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """One workload's record from each side's run results, in pair order:
    ``runs`` maps "change" and "parent" to the JSON objects that
    ``run.py`` printed."""
    record: dict = {"metrics": {}, "runs": {}}
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        record["runs"][side] = {
            "attempted": attempted,
            "failed": failed,
            "failed/attempted": failed / attempted if attempted else 0.0,
            "correct": [r["correct"] for r in results],
        }
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        record["metrics"][name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "unit": metric["unit"],
            "change": spread(values["change"]),
            "parent": spread(values["parent"]),
            "ratio": spread(ratios(values["change"], values["parent"])),
            "wins": wins(values["change"], values["parent"], metric["better"]),
        }
    return record


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree: Path, argv: list[str], env: dict, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON object of its last stdout line."""
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def stop(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run the pairs with SIGTERM and SIGHUP turned into ``SystemExit``."""
    handlers = {signum: signal.signal(signum, stop) for signum in STOPS}
    try:
        return run_pairs(argv)
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOPS)  # held if the add failed


def run_pairs(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    seeds = [SEEDS[pair % len(SEEDS)] for pair in range(PAIRS)]

    def command(workload: str, seed: object) -> list[str]:
        return [*benchmark["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds)]

    python = benchmark["command"][0]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    # Whether the measured code of the change differs from its revision.
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent_tree = Path(scratch) / "parent"
        # A stop during the add is held until the `try` that removes the tree.
        signal.pthread_sigmask(signal.SIG_BLOCK, STOPS)
        git("worktree", "add", "--detach", str(parent_tree), args.parent)
        try:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, STOPS)
            trees = {"change": ROOT, "parent": parent_tree}
            for tree in trees.values():
                subprocess.run([python, "-m", "compileall", "-q", "src", "perfbench"],
                               cwd=tree, env=env, check=True, capture_output=True)
            workloads = {}
            for workload in (w["name"] for w in benchmark["workloads"]):
                runs: dict[str, list[dict]] = {"change": [], "parent": []}
                for pair, seed in enumerate(seeds, 1):
                    order = ("change", "parent") if pair % 2 else ("parent", "change")
                    for side in order:
                        runs[side].append(
                            run_once(trees[side], command(workload, seed), env, seconds))
                    print(f"{workload}: pair {pair}/{PAIRS} done", file=sys.stderr)
                workloads[workload] = summarize(runs, benchmark["end_to_end"])
            revisions = {side: git("rev-parse", "HEAD", cwd=tree) for side, tree in trees.items()}
        finally:
            git("worktree", "remove", "--force", str(parent_tree))
    version = subprocess.run([python, "-c", "import sys; print(sys.version)"], env=env,
                             check=True, capture_output=True, text=True).stdout.strip()
    out = {
        "bytecode": BYTECODE,
        "command": command("W", "S"),
        "change_dirty": dirty,
        "pairs": PAIRS,
        "python": version,
        "revisions": revisions,
        "seconds": seconds,
        "seeds": seeds,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
