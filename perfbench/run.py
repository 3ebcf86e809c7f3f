"""promisekit benchmark: time to verdict on seeded `.pml` inputs.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One closed-loop client in one process: each request is one in-process call
of `promisekit.cli.main(argv)` with stdout captured, or, for `links`, one
parse + resolve + `extract_spanning_set` on a freshly written file.  The
timed loop runs rounds (a fixed list of requests whose inputs are generated
and written before the round) until `--seconds` of round time is spent, and
checks every verdict against the answer its generator wrote down.

Times are reported at reference machine speed: a fixed pure-Python kernel
(no promisekit code) is timed between rounds, and each round's times are
scaled by REFERENCE_S / kernel time.  On a shared machine whose speed drifts
by up to 2x from minute to minute this keeps runs comparable; the raw
figures are printed in the readable row and kept in perfbench/out/.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every request
twice, untraced and traced, checks that both outputs hash equal, and reports
the per-layer metrics (see tracer.py).  The last stdout line is one JSON
object; the line before it is a readable row.  `--workload all` runs each
workload in its own interpreter and prints one row per workload.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
# The import is timed first, in a fresh interpreter; the speed kernel runs
# after it in the same process (so on the same CPU, and without importing
# anything ahead of promisekit).
SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); import promisekit.cli; "
    "elapsed = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from run import machine_speed; print(elapsed, machine_speed())"
)

# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

REFERENCE_S = 0.010  # the kernel's time at reference speed
KERNEL_SHAPES = ((700, 5), (3500, 1))  # (cells, repeats): a small and a larger working set
SEGMENT_S = 0.1


@dataclass(frozen=True)
class _Cell:
    row: int
    tag: str


def _kernel() -> int:
    """Frozen-dataclass construction, hashing, sorting and formatting: the
    kind of work promisekit does, without any promisekit code, on a small
    reused working set (small models) and a larger one (big models)."""
    total = 0
    for size, repeats in KERNEL_SHAPES:
        for _ in range(repeats):
            cells = [_Cell(i % 211, f"t{i % 89}") for i in range(size)]
            counts: dict = {}
            for cell in cells:
                counts[cell] = counts.get(cell, 0) + 1
            ordered = sorted(counts, key=lambda c: (c.tag, c.row))
            total += len(",".join(f"{c.tag}:{c.row}" for c in ordered))
    return total


def machine_speed() -> float:
    """REFERENCE_S / the kernel's time: 1.0 at reference speed, 0.5 while the
    machine runs twice as slow.  The collector is off meanwhile, so the
    program's heap does not change the kernel's cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return REFERENCE_S / (time.perf_counter() - start)
    finally:
        gc.enable()


class ScaledClock:
    """Request time at reference speed.

    Request time (the clock runs only while requests run) is cut into
    segments of about SEGMENT_S.  machine_speed() is measured at both ends of
    each segment, outside its time, and the segment is scaled by the mean of
    the two."""

    def __init__(self) -> None:
        self.segments: list[tuple[float, float]] = []  # (seconds, factor)
        self._speed: Optional[float] = None
        self._start = self._open = 0.0
        self._requests = 0

    def resume(self) -> None:
        if self._speed is None:
            self._speed = machine_speed()
        self._start = time.perf_counter()

    def pause(self) -> None:
        self._open += time.perf_counter() - self._start

    @property
    def current(self) -> int:
        """Index of the segment the running request falls in."""
        return len(self.segments)

    def lap(self) -> None:
        """Call after each request, while the clock runs."""
        self._requests += 1
        now = time.perf_counter()
        if self._open + now - self._start >= SEGMENT_S:
            self._open += now - self._start
            self._close()
            self._start = time.perf_counter()

    def finish(self) -> None:
        """Close the last segment; call while paused."""
        if self._requests:
            self._close()

    def _close(self) -> None:
        speed = machine_speed()
        self.segments.append((self._open, (self._speed + speed) / 2))
        self._speed, self._open, self._requests = speed, 0.0, 0

    def elapsed(self) -> float:
        return sum(s for s, _ in self.segments) + self._open

    def wall(self, scaled: bool) -> float:
        return sum(s * (f if scaled else 1.0) for s, f in self.segments)


def measure_setup() -> tuple[float, float]:
    """Median time of `import promisekit.cli` in fresh interpreters: (raw,
    at reference speed)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        if i:  # the first run may compile bytecode; users pay that once
            elapsed, speed = map(float, done.stdout.split())
            raw.append(elapsed)
            scaled.append(elapsed * speed)
    return statistics.median(raw), statistics.median(scaled)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): p90, or lower on a short run, so that at least
    ten samples lie beyond it."""
    n = len(latencies)
    pct = min(TAIL_PERCENTILE, 100.0 * (1 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 0.0
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(latencies)[rank - 1]


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import promisekit.analysis
        import promisekit.cli
        import promisekit.dsl

        from workloads import WORKLOADS

        self.cli = promisekit.cli
        self.dsl = promisekit.dsl
        self.analysis = promisekit.analysis
        self.generate = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir

    def round(self, round_no: int, seed=None):
        return self.generate(self.seed if seed is None else seed, round_no)

    def write(self, req, index: int) -> list[str]:
        paths = []
        for j, (name, text) in enumerate(req.files):
            path = self.workdir / f"r{index}-{j}-{name}"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        return paths

    def execute(self, req, paths: list[str]):
        """Run one request; return (seconds, exit code, stdout, stderr, spanning)."""
        if req.library == "spanning":
            dsl, analysis = self.dsl, self.analysis
            start = time.perf_counter()
            with open(paths[0], encoding="utf-8") as handle:
                text = handle.read()
            parsed = dsl.parse(text, paths[0])
            resolved = dsl.resolve(parsed.ast)
            classes = analysis.extract_spanning_set(resolved.graph)
            elapsed = time.perf_counter() - start
            out = repr([(c.representative, c.members) for c in classes])
            return elapsed, 0, out, "", classes
        argv = [arg.format(*paths) for arg in req.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue(), None

    def attempt(self, req, paths: list[str]):
        try:
            return self.execute(req, paths)
        except Exception:  # a request that raises is a failed request
            return (0.0, None, traceback.format_exc(limit=3), "", None)


def _digest(result) -> str:
    _, code, out, err, _ = result
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def _expect_shape(req) -> tuple:
    """What a second seed must keep: id, argv length and the answer, with
    spanning classes reduced to their sizes and the mutated span dropped
    (names and positions change)."""
    expect = dict(req.expect)
    if "partition" in expect:
        expect["partition"] = sorted(len(c) for c in expect["partition"])
    expect.pop("diagnostic_at", None)
    return req.id, len(req.argv or ()), json.dumps(expect, sort_keys=True)


def check_independence(runner: Runner) -> list[str]:
    """A second seed gives different texts with the same expected verdicts."""
    problems = []
    first, second = runner.round(0), runner.round(0, seed=runner.seed + 1)
    if [_expect_shape(r) for r in first] != [_expect_shape(r) for r in second]:
        problems.append("seed+1 changes the expected verdicts")
    for a, b in zip(first, second):
        if any(x[1] == y[1] for x, y in zip(a.files, b.files)):
            problems.append(f"seed+1 repeats the input text of {a.id}")
    return problems


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from tracer import Tracer
    from verdict import judge

    known = json.loads((HERE / "known_failures.json").read_text())["failures"]
    setup = None if traced else measure_setup()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, seed, workdir)
        tracer = Tracer() if traced else None
        for name in tracer.missing if traced else ():
            print(f"perfbench: cannot trace {name}: not found", file=sys.stderr)
        problems = check_independence(runner)
        texts: set[bytes] = set()
        samples: list[tuple] = []  # (request id, size, seconds, segment)
        failures: dict[str, str] = {}
        failed = 0
        clock = ScaledClock()
        # per traced round: (layer stats, [(seconds, segment)], untraced s, traced s)
        rounds: list[tuple] = []
        round_no = 0
        while clock.elapsed() < seconds:
            staged = []
            for index, req in enumerate(runner.round(round_no)):
                digest = hashlib.sha256("\0".join(t for _, t in req.files).encode()).digest()
                if digest in texts:
                    problems.append(f"input text repeated in round {round_no}: {req.id}")
                texts.add(digest)
                staged.append((req, runner.write(req, index)))
            gc.collect()

            results, traced_results = [], []
            clock.resume()
            for index, (req, paths) in enumerate(staged):
                order = ((index + round_no) % 2 == 1, (index + round_no) % 2 == 0)
                for with_trace in order if traced else (False,):
                    segment = clock.current
                    if with_trace:
                        tracer.request = f"{round_no}:{req.id}"
                        tracer.install()
                        try:
                            traced_results.append((runner.attempt(req, paths), segment))
                        finally:
                            tracer.uninstall()
                    else:
                        results.append((runner.attempt(req, paths), segment))
                    clock.lap()
            clock.pause()
            if traced:
                rounds.append((tracer.take(), [(r[0], seg) for r, seg in results + traced_results],
                               sum(r[0] for r, _ in results),
                               sum(r[0] for r, _ in traced_results)))

            for i, (req, paths) in enumerate(staged):
                result, segment = results[i]
                if result[1] is None:
                    reason = "raised: " + result[2].strip().splitlines()[-1]
                else:
                    reason = judge(req.expect, req.argv, result[1], result[2], result[4])
                if traced and reason is None and _digest(result) != _digest(traced_results[i][0]):
                    reason = "traced output differs from untraced output"
                if reason is not None:
                    failures.setdefault(req.id, reason)
                    failed += 1
                samples.append((req.id, req.size, result[0], segment))
                for path in paths:
                    os.unlink(path)
            round_no += 1
        clock.finish()

        for req_id, reason in sorted(failures.items()):
            tag = "known seed failure" if req_id in known else "FAILED"
            print(f"{tag}: {req_id}: {reason}", file=sys.stderr)
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        correct = not (set(failures) - set(known)) and not problems
        attempted = len(samples)
        factors = [f for _, f in clock.segments]
        row = (f"{workload}: rounds={round_no} requests={attempted} failed={failed}"
               f" failed_ratio={failed / attempted:.4f} ratio"
               f" speed={statistics.median(factors):.3f}")
        if traced:
            metrics = traced_metrics(rounds, factors)
            write_lines(f"spans-{workload}-seed{seed}.jsonl", (
                {"request": request, "id": span_id, "parent": parent, "name": name,
                 "start": start, "end": end}
                for request, span_id, parent, name, start, end in tracer.spans))
        else:
            raw = end_to_end(samples, clock, setup[0], scaled=False)
            metrics = end_to_end(samples, clock, setup[1], scaled=True)
            pct, _ = tail([s[2] for s in samples])
            row += f" tail=p{pct:g} of {attempted} samples"
            row += " raw: " + " ".join(f"{k}={v['value']:.6g}" for k, v in raw.items())
            write_lines(f"requests-{workload}-seed{seed}.jsonl", (
                {"request": i, "size": n, "seconds": t, "speed": factors[g]}
                for i, n, t, g in samples))
        row += " | " + " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                for k, v in metrics.items())
        print(row)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(samples: list[tuple], clock: ScaledClock, setup_s: float,
               scaled: bool) -> dict:
    factors = [f if scaled else 1.0 for _, f in clock.segments]
    times = [t * factors[g] for _, _, t, g in samples]
    _, tail_value = tail(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
        "requests_per_s": {"value": len(times) / clock.wall(scaled), "unit": "1/s"},
        "doubling_ratio": {"value": doubling_ratio(samples, factors), "unit": "ratio"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def doubling_ratio(samples: list[tuple], factors: list[float]) -> float:
    """Geometric mean over commands of (median latency at the largest size /
    median at half that size).  A command is a request id without its size
    suffix."""
    by_command: dict[str, dict[int, list[float]]] = {}
    for req_id, size, t, g in samples:
        if size is not None:
            command = req_id.rsplit(".", 1)[0]
            by_command.setdefault(command, {}).setdefault(size, []).append(t * factors[g])
    logs = []
    for at in by_command.values():
        largest = max(at)
        logs.append(math.log(statistics.median(at[largest]) / statistics.median(at[largest // 2])))
    return math.exp(statistics.fmean(logs))


def traced_metrics(rounds: list[tuple], factors: list[float]) -> dict:
    """Counts from the first round (identical for a given seed); times are
    the median over rounds of seconds per round, each round scaled by the
    time-weighted factor of its requests."""
    from tracer import LAYER_METRICS, layer_values

    values, scales = [], []
    for stats, timed, _, _ in rounds:
        values.append(layer_values(stats))
        scales.append(sum(t * factors[g] for t, g in timed) / sum(t for t, _ in timed))
    metrics = {}
    for name, _stat, _field, unit in LAYER_METRICS:
        if unit == "s":
            value = statistics.median(v[name] * f for v, f in zip(values, scales))
        else:
            value = values[0][name]
        metrics[name] = {"value": value, "unit": unit}
    overhead = sum(r[3] for r in rounds) / sum(r[2] for r in rounds)
    metrics["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def write_lines(name: str, records) -> None:
    """JSON lines under perfbench/out/, for looking into a run afterwards."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / name, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own interpreter; one row per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if traced else "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        print(lines[-2])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "promisekit" / "cli.py").is_file():
        print(f"perfbench: no promisekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
