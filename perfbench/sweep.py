"""One-shot scaling sweep: time per stage at each doubling of a family's size.

    python3 perfbench/sweep.py --seed 1

Runs the ring family at n = 400 ... 3200 agents, the flags family at
k = 4, 8, 16 gates and the links family at m = 3 ... 24 tied parameters,
each command once per size (three times when a run takes under a second,
keeping the median).  Whole-command times come from untraced runs; stage
times from one traced run.  Like run.py, every time is scaled to reference
machine speed, timing the speed kernel just before and after each run.
Writes perfbench/results/sweep.json with, per family, the time ratio for
each doubling, in total and per stage.  This is a record, not a gated
benchmark run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import ROOT, Runner, machine_speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from verdict import judge  # noqa: E402

FAMILIES = {"ring": (400, 800, 1600, 3200), "flags": (4, 8, 16), "links": (3, 6, 12, 24)}

# (stage, stat, field): inclusive time, except where a stage's own children
# are listed separately (parse without lex, resolve without graph building).
STAGES = [
    ("lex", "dsl.lexer", "s"),
    ("parse", "dsl.parser", "self_s"),
    ("resolve", "dsl.resolver", "self_s"),
    ("build_graph", "model.build_graph", "s"),
    ("validate_autonomy", "model.validate_autonomy", "s"),
    ("discover_roles", "analysis.discover_roles", "s"),
    ("detect_conflicts", "analysis.detect_conflicts", "s"),
    ("derive_class_hierarchy", "analysis.derive_class_hierarchy", "s"),
    ("check_is_a", "analysis.check_is_a", "s"),
    ("extract_spanning_set", "analysis.extract_spanning_set", "s"),
    ("report", "report", "s"),
    ("graph_scans", "model.graph_scans", "s"),
    ("closure", "constraints.closure", "s"),
    ("bundle_signature", "analysis.bundle_signature", "s"),
]
QUICK_S = 1.0
MIN_BASE_S = 1e-4  # stage ratios from a smaller base are noise, not scaling


def scaled(run):
    """run() at reference speed: (its result, the factor applied)."""
    before = machine_speed()
    result = run()
    return result, (before + machine_speed()) / 2


def measure(runner: Runner, tracer: Tracer, req, paths) -> dict:
    first, factor = scaled(lambda: runner.execute(req, paths))
    totals = [first[0] * factor]
    if first[0] < QUICK_S:
        for _ in range(2):
            again, factor = scaled(lambda: runner.execute(req, paths))
            totals.append(again[0] * factor)
    tracer.install()
    try:
        _, factor = scaled(lambda: runner.execute(req, paths))
    finally:
        tracer.uninstall()
    stats = tracer.take()
    stages = {name: stats.get(stat, {}).get(field, 0.0) * factor
              for name, stat, field in STAGES}
    verdict = judge(req.expect, req.argv, first[1], first[2], first[4])
    return {"total_s": statistics.median(totals), "stages": stages, "verdict": verdict}


def doubling(sizes, by_size: dict) -> list[dict]:
    rows = []
    for small, big in zip(sizes, sizes[1:]):
        if big != 2 * small:
            continue
        a, b = by_size[small], by_size[big]
        stages = {
            name: (b["stages"][name] / a["stages"][name]
                   if a["stages"][name] >= MIN_BASE_S else None)
            for name, _, _ in STAGES
        }
        rows.append({"from": small, "to": big, "total": b["total_s"] / a["total_s"],
                     "stages": stages})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "results" / "sweep.json"))
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    record = {
        "what": ("seconds per command and per stage at each size, at reference "
                 "machine speed (see run.py); time ratios per doubling"),
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "families": {},
    }
    try:
        tracer = Tracer()
        for family, sizes in FAMILIES.items():
            runner = Runner(family, args.seed, workdir)
            extra = {"plan": ("spanning", "isa")} if family == "links" else {}
            requests = runner.generate(args.seed, 0, sizes=sizes, **extra)
            commands: dict[str, dict] = {}
            for index, req in enumerate(requests):
                command = req.id.rsplit(".", 1)[0]
                paths = runner.write(req, index)
                result = measure(runner, tracer, req, paths)
                commands.setdefault(command, {})[req.size] = result
                print(f"{req.id}: {result['total_s']:.4f} s"
                      f"{'' if result['verdict'] is None else ' (' + result['verdict'] + ')'}",
                      file=sys.stderr)
            summed = {
                size: {
                    "total_s": sum(c[size]["total_s"] for c in commands.values()),
                    "stages": {name: sum(c[size]["stages"][name] for c in commands.values())
                               for name, _, _ in STAGES},
                }
                for size in sizes
            }
            record["families"][family] = {
                "sizes": list(sizes),
                "per_doubling": doubling(sizes, summed),
                "commands": {
                    command: {
                        "per_doubling": doubling(sizes, by_size),
                        "by_size": {str(s): by_size[s] for s in sizes},
                    }
                    for command, by_size in commands.items()
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for family, data in record["families"].items():
        for row in data["per_doubling"]:
            print(f"{family} {row['from']} -> {row['to']}: x{row['total']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
