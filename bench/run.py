"""fibtree benchmark: one workload per run, outputs checked, one JSON result line.

    python3 bench/run.py --workload table-scans --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it runs the program from ./src.
With --trace 0 the run is untraced and prints the end-to-end metrics;
with --trace 1 it runs the traced layer pass (bench/tracepass.py) and
prints the per-layer metrics.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Load is a closed loop with one client.  Either workload repeats whole
rounds of its operations for about --seconds of wall time, set-up
samples and checks included, and reports the third quartile of its
round wall times as wall_s (see upper_quartile).  table-scans starts
one `python -m fibtree ... --jobs 1` process per operation, one after
another.  point-queries calls the library in this process, with fresh
seeded inputs each round, and runs at least RSS_ROUNDS rounds.  Outputs are checked outside the timed region: each
point-queries round's results against the independent computations in
bench/oracle.py; table-scans round 0's outputs against them, and later
rounds' by being byte-identical to round 0.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
import oracle
from proc import ROOT, SRC, Launcher, import_program, time_import

OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
# point-queries reads its peak RSS after this many rounds, so the figure
# covers the same work in every run however many rounds fit in --seconds
RSS_ROUNDS = 4


def time_setup_cli(launcher: Launcher, work: Path, seed: int, i: int) -> float:
    """Wall time of a trivial command, its output checked."""
    code = inputs.setup_code(seed, i)
    out, err = work / "setup.out", work / "setup.err"
    wall, _, status = launcher.run([sys.executable, "-m", "fibtree", "eval", code,
                                    "--format", "json"], out, err)
    if status != 0 or json.loads(out.read_text())["value"] != oracle.value(code):
        raise SystemExit(f"set-up command failed: eval {code}: {err.read_text()}")
    return wall


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def another_round(start: float, seconds: float, rounds: int) -> bool:
    """Whether to start another round: at least one, then while a round of
    the run's mean length so far (set-up samples and checks included)
    would end no more than half a round past `seconds` after `start`."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def upper_quartile(values: list[float]) -> float:
    """Third quartile, as statistics.quantiles(values, n=4) gives it.

    Host speed here has a steady floor with bursts of up to twice that
    speed.  The upper quartile of a run's rounds reads the program at the
    floor; a mean or median moves with the share of bursts the run got.
    With fewer than three values that method would extrapolate past the
    largest, so the largest is taken.
    """
    if len(values) < 3:
        return max(values)
    return statistics.quantiles(values, n=4)[2]


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile; with under 100 values, the largest."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------ CLI workloads

def run_cli_workload(ops: list, seed: int, seconds: float, work: Path, launcher: Launcher) -> dict:
    # set-up is timed before the loop and again after every round, so its
    # median spans the same stretch of host speed as the operations
    setup_times = [time_setup_cli(launcher, work, seed, i) for i in range(SETUP_REPEATS)]
    walls, rss, round_walls = [], [], []
    digests: list[tuple] = []        # per op: round 0's exit code, stdout digest and stderr
    changed = [0] * len(ops)         # per op: later rounds whose outputs differ from round 0
    start = time.perf_counter()
    while another_round(start, seconds, len(round_walls)):
        r = len(round_walls)
        round_wall = 0.0
        for i, op in enumerate(ops):
            out, err = work / f"r{r}-{i}.out", work / f"r{r}-{i}.err"
            wall, peak, code = launcher.run(
                [sys.executable, "-m", "fibtree", *op.argv, "--jobs", "1"], out, err)
            walls.append(wall)
            rss.append(peak)
            round_wall += wall
            digest = (code, _digest(out), checks.stable_stderr(err.read_text(encoding="utf-8")))
            if r == 0:
                digests.append(digest)
            else:
                changed[i] += digest != digests[i]
                out.unlink()
                err.unlink()
        round_walls.append(round_wall)
        setup_times.append(time_setup_cli(launcher, work, seed, len(setup_times)))

    rounds = len(round_walls)
    failed, wrong, items_per_round = 0, False, 0
    for i, op in enumerate(ops):
        if digests[i][0] != op.exit_ok:
            print(f"{op.kind} exited {digests[i][0]}, expected {op.exit_ok}", file=sys.stderr)
            failed += rounds
            continue
        try:
            items_per_round += checks.check_op(op, work / f"r0-{i}.out", seed)
        except Exception as exc:  # an output that cannot be read or checked is wrong
            print(f"check failed: {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += rounds
            wrong = True
            continue
        if changed[i]:
            print(f"{op.kind}: {changed[i]} later rounds differ from round 0", file=sys.stderr)
            failed += changed[i]
            wrong = True
    # a few dozen operations of 4 kinds make no tail: the percentiles run
    # over each kind's upper-quartile latency
    kind_us = [upper_quartile(walls[i::len(ops)]) * 1e6 for i in range(len(ops))]
    wall = upper_quartile(round_walls)
    return {
        "correct": not wrong,
        "attempted": len(ops) * rounds,
        "failed": failed,
        "metrics": {
            "wall_s": metric(wall, "s"),
            "items_per_s": metric(items_per_round / wall, "items/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(max(rss), "MB"),
            "call_p50_us": metric(statistics.median(kind_us), "us"),
            "call_p99_us": metric(p99(kind_us), "us"),
        },
        "detail": {"rounds": rounds, "round_walls_s": round_walls,
                   "op_walls_s": {op.kind: walls[i::len(ops)] for i, op in enumerate(ops)},
                   "op_peak_rss_mb": {op.kind: max(rss[i::len(ops)]) for i, op in enumerate(ops)},
                   "setup_s": setup_times},
    }


# ------------------------------------------------------------ point queries

def run_point_queries(seed: int, seconds: float) -> dict:
    setup_times = [time_import() for _ in range(SETUP_REPEATS)]
    import_program()
    import points

    latencies = array.array("q")    # ns, 8 bytes each: a list of ints would be 4 times larger
    round_walls: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    peak = 0.0
    start = time.perf_counter()
    while len(round_walls) < RSS_ROUNDS or another_round(start, seconds, len(round_walls)):
        calls = inputs.point_calls(seed, len(round_walls))
        t0 = time.perf_counter()
        results, lat, errors = points.run_calls(calls)
        round_walls.append(time.perf_counter() - t0)
        setup_times.append(time_import())
        latencies.extend(lat)
        attempted += len(calls)
        failed += errors
        for (kind, args), out in zip(calls, results):
            if out is None:
                continue
            try:
                checks.check_call(kind, args, out)
            except Exception as exc:  # a wrong or malformed result fails the call
                failed += 1
                wrong.append(f"{kind}{args}: {exc}")
        if len(round_walls) == RSS_ROUNDS:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in wrong[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    lat_us = [x / 1000 for x in latencies]
    wall = upper_quartile(round_walls)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": metric(wall, "s"),
            "items_per_s": metric((attempted - failed) / len(round_walls) / wall, "items/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            "call_p50_us": metric(statistics.median(lat_us), "us"),
            "call_p99_us": metric(p99(lat_us), "us"),
        },
        "detail": {"rounds": len(round_walls), "round_walls_s": round_walls,
                   "calls": attempted, "setup_s": setup_times},
    }


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch outputs and ends its launcher
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "fibtree" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'fibtree'} is missing; "
              "run from the root of a fibtree checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    if args.trace:
        import_program()
        import tracepass
        result = tracepass.run(args.workload, args.seed, OUT / f"trace-{tag}.json")
    elif args.workload == "point-queries":
        result = run_point_queries(args.seed, args.seconds)
    else:  # table-scans
        ops = inputs.table_ops(args.seed)
        work = OUT / f"work-{tag}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            with Launcher() as launcher:
                result = run_cli_workload(ops, args.seed, args.seconds, work, launcher)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
