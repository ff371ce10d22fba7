"""The traced run: one pass over every layer, with spans from this file.

Each call into a fibtree module's public functions gets a span named
`<module>.<function>`; phases group them.  The spans stay in memory and
are written out when the pass ends.  From them come the per-layer
metrics, each module's self time, and the tracing overhead: the
point-queries call mix timed as in the untraced run, against the same
mix with a span per call.  Every output the pass produces is checked as
in the untraced runs.  A render time (cli.main less the library calls it
makes) is taken right after those library calls, so that a drift in host
speed between the two stays small.  A library call that raises one of
the program's errors counts as failed, as in the untraced runs; a single
call that raises ends its phase, whose later metrics are then missing.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from math import gcd
from pathlib import Path

import fibtree
from fibtree import cli, threehat

import checks
import inputs
import oracle
import points
import proc
from spans import Tracer

# Modules whose self time is the summed duration of their own spans.
LIBRARY_MODULES = ("engine", "metrics", "expansion", "sternbrocot", "scans", "threehat")
SAMPLES = 4000          # per-call samples for each microsecond metric
EXPAND_SAMPLES = 40     # 40-bit codes for expand_recursive
OVERHEAD_GROUPS = 300   # point-query groups per overhead measurement
OVERHEAD_REPEATS = 11

# The length-13 JSON scan whose generator scans() drains, run through cli.main.
RENDER_OP = inputs.Op("conjecture-json", ("scan", "conjecture", "--len", "13", "--format", "json"), 3)

# Memory the build adds, as the rise of a fresh interpreter's resident
# high-water mark (VmHWM belongs to the process image, so nothing of the
# parent's size is inherited).  tracemalloc would slow the build 13-fold.
PEAK_PROBE = """
import re, fibtree
def kb(field):
    with open("/proc/self/status") as fh:
        return int(re.search(field + r":\\s+(\\d+)", fh.read()).group(1))
base = kb("VmRSS")
fibtree.build_value_tables(20)
print((kb("VmHWM") - base) / 1024)
"""


def _seconds(ns: int) -> float:
    return ns / 1e9


def _median_us(tr: Tracer, name: str) -> float:
    return statistics.median(tr.durations(name)) / 1e3


def _cold(fn):
    """Run a threehat call with its chain-length cache empty.

    The cache lives for the life of the process, so without this the
    second call on an input would skip the chain walk that every CLI
    process pays once.
    """
    def call(*args):
        threehat._chain_length_normalized.cache_clear()
        return fn(*args)
    return call


class _CallFailed(Exception):
    """A traced call raised one of the program's errors and was counted as failed."""


class _Pass:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tr = Tracer()
        self.m: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.conjecture_drain_s = 0.0       # set by scans()

    def call(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return self.tr.call(name, fn, *args)
        except (fibtree.DomainError, fibtree.DivergenceError) as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise _CallFailed from exc

    def check(self, what: str, cond: bool) -> None:
        if not cond:
            self.failed += 1
            self.wrong.append(what)

    def set(self, name: str, value: float, unit: str) -> None:
        self.m[name] = (value, unit)

    def last_s(self, name: str) -> float:
        return _seconds(self.tr.durations(name)[-1])

    # ---------------------------------------------------------- library layers

    def scans(self) -> None:
        tr = self.tr
        tables = self.call("scans.build_value_tables", fibtree.build_value_tables, 20)
        self.check("build_value_tables(20)", tables[20] == oracle.level_values(20))
        del tables
        build_s = self.last_s("scans.build_value_tables")
        self.set("scans.table_build_s", build_s, "s")
        self.call("scans.build_value_tables.jobs2", fibtree.build_value_tables, 20, 2)
        self.set("scans.table_build_jobs2_s", self.last_s("scans.build_value_tables.jobs2"), "s")
        with tr.span("probe.table_peak"):
            peak_mb = float(proc.probe(PEAK_PROBE))
        self.attempted += 1
        self.set("scans.table_peak_mb", peak_mb, "MB")

        report = self.call("scans.scan_reflection", fibtree.scan_reflection, 20)
        self.check("scan_reflection(20)", report.checked == 2**21 - 2 and not report.violations)
        self.set("scans.reflection_check_s", self.last_s("scans.scan_reflection") - build_s, "s")
        classes = self.call("scans.scan_converse", fibtree.scan_converse, 18)
        self.check("scan_converse(18)",
                   [c.to_jsonable() for c in classes] == oracle.converse_classes(18))
        self.set("scans.converse_s", self.last_s("scans.scan_converse"), "s")
        roots = self.call("scans.scan_roots", fibtree.scan_roots, 400, 12)
        self.check("scan_roots(400, 12)", roots.checked == oracle.coprime_pairs(400)
                   and (1, 2, 3) in roots.survivors)
        self.set("scans.roots_s", self.last_s("scans.scan_roots"), "s")
        self.set("scans.codes_checked", report.checked + roots.checked, "count")

        self.attempted += 1
        try:
            with tr.span("scans.iter_conjecture_violations"):
                t0 = time.perf_counter_ns()
                stream = fibtree.iter_conjecture_violations(13)
                first = next(stream)
                first_ns = time.perf_counter_ns() - t0
                pairs = 1 + sum(1 for _ in stream)
        except (fibtree.DomainError, fibtree.DivergenceError) as exc:
            self.failed += 1
            self.errors.append(f"iter_conjecture_violations: {type(exc).__name__}: {exc}")
            raise _CallFailed from exc
        self.check("iter_conjecture_violations(13)",
                   first["length"] == 13 and pairs == sum(oracle.conjecture_counts(13).values()))
        self.conjecture_drain_s = self.last_s("scans.iter_conjecture_violations")
        self.set("scans.conjecture_first_pair_s", _seconds(first_ns), "s")
        self.set("scans.conjecture_drain_s", self.conjecture_drain_s, "s")
        self.set("scans.pairs", pairs, "count")

        # right after the drain, so a drift in host speed between them stays small
        self.cli_main(RENDER_OP)
        self.set("cli.conjecture_render_s",
                 self.last_s("cli.main") - self.conjecture_drain_s, "s")

    def _per_call(self, name: str, fn, args_list, check) -> None:
        """One span per call; check(args, result) returns False or raises on a wrong result."""
        for args in args_list:
            try:
                out = self.call(name, fn, *args)
            except _CallFailed:
                continue
            try:
                ok = check(args, out) is not False
            except Exception:  # a malformed result is a wrong one
                ok = False
            if not ok:
                self.check(f"{name}{args}", False)

    def _codes(self, salt: str, n: int, lo=1, hi=64, need_zero=False) -> list[str]:
        r = inputs.rng(self.seed, "trace", salt)
        return [inputs.random_code(r, r.randint(lo, hi), need_zero) for _ in range(n)]

    def metrics(self) -> None:
        codes = [(oracle.code_str(x, 16),) for x in range(1 << 16)]
        self._per_call("metrics.cluster_variance", fibtree.cluster_variance, codes,
                       lambda a, q: (q.numerator, q.denominator) == oracle.variance(a[0]))
        self.set("metrics.cluster_variance_us", _median_us(self.tr, "metrics.cluster_variance"), "us")

    def sternbrocot(self) -> None:
        verdict = self.call("sternbrocot.check_generation", fibtree.check_generation, 14)
        self.check("check_generation(14)", verdict.equal and verdict.state_side == 2**15)
        self.set("sternbrocot.check_generation_s", self.last_s("sternbrocot.check_generation"), "s")
        codes = [(c,) for c in self._codes("labels", SAMPLES // 2)]
        for name, fn in (("u", fibtree.u), ("v", fibtree.v)):
            self._per_call("sternbrocot.label", fn, codes,
                           lambda a, q, name=name: checks.check_call(name, a, q))
        self.set("sternbrocot.label_us", _median_us(self.tr, "sternbrocot.label"), "us")

    def engine(self) -> None:
        codes = [(c,) for c in self._codes("engine", SAMPLES)]
        self._per_call("engine.evaluate", fibtree.evaluate, codes,
                       lambda a, s: s == oracle.state(a[0]))
        self._per_call("engine.trace", fibtree.trace, codes,
                       lambda a, t: checks.check_call("trace", a, t))
        states = [(oracle.state(c),) for c, in codes]
        self._per_call("engine.decode_state", fibtree.decode_state, states,
                       lambda a, c: oracle.state(c) == a[0])
        for name in ("evaluate", "trace", "decode_state"):
            self.set(f"engine.{name}_us", _median_us(self.tr, f"engine.{name}"), "us")
        n = self.call("engine.enumerate_states",
                      lambda: sum(1 for _ in fibtree.enumerate_states(3000)))
        # tree states with c <= 3000 are the coprime a < b with a + b <= 3000, plus the root
        self.check("enumerate_states(3000)", n == sum(
            1 for b in range(2, 3000) for a in range(1, min(b, 3001 - b)) if gcd(a, b) == 1))
        self.set("engine.enumerate_states_s", self.last_s("engine.enumerate_states"), "s")

    def expansion(self) -> None:
        def round_trip(code):
            e = fibtree.encode_expansion(code)
            return e, fibtree.decode_expansion(e)

        codes = [(c,) for c in self._codes("expansion", SAMPLES, need_zero=True)]
        self._per_call("expansion.encode_decode", round_trip, codes,
                       lambda a, out: checks.check_call("encode_expansion", a, out[0])
                       or out[1] == a[0])
        self.set("expansion.encode_decode_us", _median_us(self.tr, "expansion.encode_decode"), "us")
        long_codes = [(c,) for c in self._codes("expand", EXPAND_SAMPLES, 40, 40, need_zero=True)]
        self._per_call("expansion.expand_recursive", points.CALLS["expand_recursive"], long_codes,
                       lambda a, out: checks.check_call("expand_recursive", a, out))
        self.set("expansion.expand_recursive_ms",
                 _median_us(self.tr, "expansion.expand_recursive") / 1e3, "ms")

    def threehat(self) -> None:
        """The hat inputs for this seed (inputs.hat_plan), each call cold."""
        plan = inputs.hat_plan(self.seed)
        q, qo = plan["solve"], plan["solve_oracle"]
        links = self.call("threehat.chain", _cold(fibtree.chain), plan["chain"], False)
        self.check("chain", len(links) == oracle.chain_lengths(plan["chain"])[0])
        turn = self.call("threehat.first_announcement", _cold(fibtree.first_announcement),
                         plan["simulate"])
        self.check("first_announcement", turn == oracle.announcement(plan["simulate"]))
        transcript = self.call("threehat.dialogue_simulate", _cold(fibtree.dialogue_simulate),
                               plan["simulate"])
        self.check("dialogue_simulate", transcript.turn == turn[0])
        solve = _cold(fibtree.solve_puzzle)
        for query in (q, qo):
            result = self.call("threehat.solve_puzzle", solve,
                               fibtree.PuzzleQuery(query.solver, query.rounds, query.value))
            self.check("solve_puzzle", query.known in [s.config for s in result.solutions])
        found = self.call("threehat.brute_solve", _cold(fibtree.brute_solve),
                          fibtree.PuzzleQuery(qo.solver, qo.rounds, qo.value), inputs.ORACLE_CAP)
        self.check("brute_solve", qo.known in [s.config for s in found])
        for name in ("chain", "first_announcement", "dialogue_simulate", "brute_solve"):
            self.set(f"threehat.{name}_s", self.last_s(f"threehat.{name}"), "s")
        self.set("threehat.solve_puzzle_s", _seconds(sum(self.tr.durations("threehat.solve_puzzle"))),
                 "s")

        # the same inputs through cli.main, right after the library calls
        main_ns = 0
        for op in inputs.hat_ops(self.seed):
            self.cli_main(op)
            main_ns += self.tr.durations("cli.main")[-1]
        library_ns = sum(sum(self.tr.durations(f"threehat.{name}")) for name in
                         ("chain", "dialogue_simulate", "solve_puzzle", "brute_solve"))
        self.set("cli.hat_render_s", _seconds(main_ns - library_ns), "s")

    # ------------------------------------------------------------- the CLI

    def cli_main(self, op) -> int:
        """cli.main in this process, payload to a file; the output is checked.

        Returns the payload size in bytes.
        """
        out = self.work / f"{op.kind}.out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.call("cli.main", _cold(cli.main), [*op.argv, "--out", str(out)])
        try:
            self.check(f"cli {op.kind} exit {code}", code == op.exit_ok)
            checks.check_op(op, out, self.seed)
        except Exception as exc:  # an output that cannot be read or checked is wrong
            self.check(f"cli {op.kind}: {type(exc).__name__}: {exc}", False)
        size = out.stat().st_size
        out.unlink()
        return size

    def cli(self, workload: str) -> None:
        with self.tr.span("probe.import_cli"):
            imports = [proc.time_import("fibtree.cli") for _ in range(5)]
        self.set("cli.import_s", statistics.median(imports), "s")

        # payload of one round of this workload's CLI operations
        ops = inputs.table_ops(self.seed) if workload == "table-scans" else []
        self.set("cli.bytes_out", sum(self.cli_main(op) for op in ops), "count")

    # ------------------------------------------------------------ overhead

    def overhead(self) -> None:
        """The point-queries mix timed as in the untraced run, with and without spans."""
        calls = inputs.point_calls(self.seed, "overhead", OVERHEAD_GROUPS)
        # named apart from the layer spans, so they stay out of the self times
        names = {k: f"overhead.{m}.{k}" for k, m in points.MODULE.items()}

        def record(kind, start, end):
            self.tr.add(names[kind], start, end)

        def timed(rec):
            t0 = time.perf_counter()
            _, _, errors = points.run_calls(calls, rec)
            elapsed = time.perf_counter() - t0
            self.failed += errors
            return elapsed

        # a first pass fills the chain-length cache, so both sides see it
        # warm; its results are checked, and the timed passes repeat its calls
        results, _, errors = points.run_calls(calls)
        self.failed += errors
        for (kind, args), out in zip(calls, results):
            if out is None:
                continue
            try:
                checks.check_call(kind, args, out)
            except Exception as exc:  # a wrong or malformed result fails the call
                self.check(f"{kind}{args}: {exc}", False)
        ratios = []
        for i in range(OVERHEAD_REPEATS):
            # alternate which side goes first, so drift in host speed cancels
            if i % 2:
                spanned, plain = timed(record), timed(None)
            else:
                plain, spanned = timed(None), timed(record)
            ratios.append(spanned / plain)
        self.attempted += len(calls) * (1 + 2 * OVERHEAD_REPEATS)
        self.set("trace.overhead_pct", 100 * (statistics.median(ratios) - 1), "%")


def run(workload: str, seed: int, trace_path: Path) -> dict:
    work = trace_path.with_suffix(".work")
    work.mkdir(exist_ok=True)
    p = _Pass(seed, work)
    phases = [(name, getattr(p, name)) for name in
              ("scans", "metrics", "sternbrocot", "engine", "expansion", "threehat")]
    phases += [("cli", lambda: p.cli(workload)), ("overhead", p.overhead)]
    with p.tr.span("trace-run"):
        for name, phase in phases:
            with p.tr.span(f"phase.{name}"):
                try:
                    phase()
                except _CallFailed:
                    pass  # counted as failed; the phase's later metrics are left out
    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    # cli.main runs scans and threehat code that has no span of its own, so
    # the cli layer's self time is its render time: main less the library
    # calls timed just before it
    self_ns = p.tr.self_times()
    for module in LIBRARY_MODULES:
        total = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == module)
        p.set(f"{module}.self_s", _seconds(total), "s")
    if "cli.conjecture_render_s" in p.m and "cli.hat_render_s" in p.m:
        p.set("cli.self_s", p.m["cli.conjecture_render_s"][0] + p.m["cli.hat_render_s"][0], "s")
    p.tr.write(trace_path)
    for line in p.errors[:10]:
        print(f"call failed: {line}", file=sys.stderr)
    for line in p.wrong[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not p.wrong,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in p.m.items()},
        "detail": {"spans": len(p.tr.spans), "trace_file": str(trace_path)},
    }
