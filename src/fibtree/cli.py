"""Command line surface.

One binary, subcommand per operation.  Scans run in one process on the
row kernel engine.level_rows; --jobs is accepted for compatibility and
selects nothing.  Machine formats (json, csv) are deterministic:
identical argv produces byte-identical output, so scan results can be
diffed across runs.  Timings go to stderr only.  Each command imports
the library modules it runs, so a process loads only what its command
needs.

Exit codes: 0 success, 1 usage error, 2 domain error (invalid code,
state, configuration or expansion), 3 scan completed and found
violations or counterexamples.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .engine import ROOT, as_code, as_root, evaluate, reflect, trace, value
from .errors import DivergenceError, DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FINDINGS = 3

LENGTH_CAP = 30


# one compact encoder for every line; json.dumps would build one per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _frac(q) -> str:
    """A Fraction as numerator/denominator."""
    return f"{q.numerator}/{q.denominator}"


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _check_cap(args, name: str, limit: int) -> None:
    if limit > LENGTH_CAP and not args.unsafe_no_cap:
        raise DomainError(
            f"{name} {limit} exceeds the hard cap {LENGTH_CAP} "
            "(pass --unsafe-no-cap to override)"
        )


class _Writer:
    """Payload sink: stdout by default, the --out file when given."""

    def __init__(self, path: str | None):
        self._path = path
        self._fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout

    def line(self, text: str) -> None:
        self._fh.write(text + "\n")

    def rows(self):
        import csv

        return csv.writer(self._fh, lineterminator="\n")

    def close(self) -> None:
        if self._path:
            self._fh.close()


def _emit_doc(args, out: _Writer, doc: dict, text_lines: list[str],
              csv_header: list[str], csv_rows: list[list]) -> None:
    if args.format == "json":
        out.line(_dumps(doc))
    elif args.format == "csv":
        w = out.rows()
        w.writerow(csv_header)
        w.writerows(csv_rows)
    else:
        for ln in text_lines:
            out.line(ln)


def _emit_stream(args, out: _Writer, items, summary_of, text_of,
                 csv_header: list[str], csv_row_of, summary_text_of) -> int:
    """Scan output: one record per line, then a trailing summary.

    items may be a lazy iterable (conjecture scans yield millions of
    pairs); the stream is never materialized.  summary_of / summary_text_of
    receive the streamed record count once the stream is exhausted.  The
    csv body cannot carry the summary object, so the summary sentence goes
    to stderr there; json and text keep it in-band.
    """
    count = 0
    if args.format == "json":
        for it in items:
            out.line(_dumps(it))
            count += 1
        out.line(_dumps(summary_of(count)))
    elif args.format == "csv":
        w = out.rows()
        w.writerow(csv_header)
        for it in items:
            w.writerow(csv_row_of(it))
            count += 1
        print(summary_text_of(count), file=sys.stderr)
    else:
        for it in items:
            out.line(text_of(it))
            count += 1
        out.line(summary_text_of(count))
    return count


def _scan_summary(scope: str, checked: int, violation_count: int,
                  **extra) -> dict:
    """Trailing summary record: counts only, the records were the stream."""
    doc = {"scope": scope, "checked": checked, "violations": [],
           "violation_count": violation_count, "elapsed_ms": None}
    doc.update(extra)
    return doc


def _stopwatch(scope: str):
    t0 = time.perf_counter()

    def report():
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"{scope}: {ms:.1f} ms", file=sys.stderr)

    return report


def _parse_root(text: str | None):
    if text is None:
        return ROOT
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError("--root expects two comma-separated integers, e.g. 1,2")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"--root expects integers, got {text!r}")
    return as_root((a, b, a + b))


# ------------------------------------------------------------- commands

def _cmd_eval(args, out: _Writer) -> int:
    state = evaluate(as_code(args.code), _parse_root(args.root))
    doc = {"state": list(state), "value": state[2]}
    _emit_doc(args, out, doc,
              [f"state: {state[0]} {state[1]} {state[2]}", f"value: {state[2]}"],
              ["a", "b", "c", "value"],
              [[state[0], state[1], state[2], state[2]]])
    return EXIT_OK


def _cmd_trace(args, out: _Writer) -> int:
    states = trace(as_code(args.code), _parse_root(args.root))
    doc = {"code": args.code, "states": [list(s) for s in states]}
    _emit_doc(args, out, doc,
              [f"{i}: {s[0]} {s[1]} {s[2]}" for i, s in enumerate(states)],
              ["step", "a", "b", "c"],
              [[i, s[0], s[1], s[2]] for i, s in enumerate(states)])
    return EXIT_OK


def _cmd_reflect(args, out: _Writer) -> int:
    code = as_code(args.code)
    mirrored = reflect(code)
    val, mval = value(code), value(mirrored)
    doc = {"code": code, "reflected": mirrored, "value": val, "reflected_value": mval}
    _emit_doc(args, out, doc,
              [f"code: {code} value: {val}",
               f"reflected: {mirrored} value: {mval}"],
              ["code", "reflected", "value", "reflected_value"],
              [[code, mirrored, val, mval]])
    return EXIT_OK


def _cmd_metrics(args, out: _Writer) -> int:
    from .metrics import cluster_average, cluster_profile, cluster_variance, weight

    code = as_code(args.code)
    profile = cluster_profile(code)
    avg, var = cluster_average(code), cluster_variance(code)
    clusters = list(profile.per_position)
    doc = {"weight": weight(code), "avg": _frac(avg), "var": _frac(var),
           "clusters": clusters}
    _emit_doc(args, out, doc,
              [f"weight: {doc['weight']}",
               f"clusters: {' '.join(map(str, clusters))}",
               f"avg: {doc['avg']}",
               f"var: {doc['var']}"],
              ["weight", "avg", "var", "clusters"],
              [[doc["weight"], doc["avg"], doc["var"],
                " ".join(map(str, clusters))]])
    return EXIT_OK


def _cmd_expand(args, out: _Writer) -> int:
    from .expansion import (Expansion, decode_expansion, encode_expansion,
                            expand_recursive, flatten_products, pure_fibonacci,
                            tree_to_jsonable, tree_value)

    if (args.code is None) == (args.inverse is None):
        print("error: expand needs either a code or --inverse A B K",
              file=sys.stderr)
        return EXIT_USAGE
    if args.inverse is not None:
        a, b, k = args.inverse
        e = Expansion(a, b, k)
        code = decode_expansion(e)
        doc = {"a": e.a, "b": e.b, "k": e.k, "code": code, "value": e.value()}
        _emit_doc(args, out, doc,
                  [f"code: {code}",
                   f"expansion: {e.a}*F({e.k}) + {e.b}*F({e.k + 2})",
                   f"value: {e.value()}"],
                  ["code", "a", "b", "k", "value"],
                  [[code, e.a, e.b, e.k, e.value()]])
        return EXIT_OK

    code = as_code(args.code)
    if not code:
        raise DomainError("the empty code has no expansion")
    if "0" not in code:
        val = pure_fibonacci(code)
        doc = {"code": code, "fibonacci_index": len(code) + 4, "value": val}
        text = [f"code: {code}",
                f"expansion: F({len(code) + 4})",
                f"value: {val}"]
        csv_row = [code, "", "", "", val]
    else:
        e = encode_expansion(code)
        doc = {"code": code, "a": e.a, "b": e.b, "k": e.k, "value": e.value()}
        text = [f"code: {code}",
                f"expansion: {e.a}*F({e.k}) + {e.b}*F({e.k + 2})",
                f"a: {e.a}", f"b: {e.b}", f"k: {e.k}",
                f"value: {e.value()}"]
        csv_row = [code, e.a, e.b, e.k, e.value()]
    if args.recursive:
        tree = expand_recursive(code)
        products = [list(t) for t in flatten_products(tree)]
        doc["tree"] = tree_to_jsonable(tree)
        doc["products"] = products
        doc["tree_value"] = tree_value(tree)
        text.append(f"tree: {_dumps(doc['tree'])}")
        text.append("products: " + " + ".join(
            "*".join(f"F({i})" for i in t) for t in products))
    _emit_doc(args, out, doc, text, ["code", "a", "b", "k", "value"], [csv_row])
    return EXIT_OK


def _cmd_sb_frac(args, out: _Writer) -> int:
    from .sternbrocot import u, v

    code = as_code(args.code)
    uq, vq = u(code), v(code)
    doc = {"code": code, "u": _frac(uq), "v": _frac(vq)}
    _emit_doc(args, out, doc,
              [f"u: {doc['u']}", f"v: {doc['v']}"],
              ["code", "u", "v"],
              [[code, doc["u"], doc["v"]]])
    return EXIT_OK


def _cmd_sb_check(args, out: _Writer) -> int:
    from .sternbrocot import check_generation

    _check_cap(args, "--depth", args.depth)
    done = _stopwatch(f"sb check depth {args.depth}")
    items, bad = [], 0
    for c in range(1, args.depth + 1):
        verdict = check_generation(c)
        items.append({"length": verdict.length, "equal": verdict.equal,
                      "state_side": verdict.state_side,
                      "path_side": verdict.path_side})
        bad += 0 if verdict.equal else 1
    scope = f"sb-check:depth={args.depth}"
    _emit_stream(args, out, items,
                 lambda n: _scan_summary(scope, args.depth, bad),
                 lambda it: (f"c={it['length']}: equal={it['equal']} "
                             f"({it['state_side']} fractions)"),
                 ["length", "equal", "state_side", "path_side"],
                 lambda it: [it["length"], it["equal"],
                             it["state_side"], it["path_side"]],
                 lambda n: f"checked {args.depth} generations, {bad} violations")
    done()
    return EXIT_FINDINGS if bad else EXIT_OK


def _cmd_scan_reflection(args, out: _Writer) -> int:
    from .scans import scan_reflection

    _check_cap(args, "--max-len", args.max_len)
    done = _stopwatch(f"scan reflection max-len {args.max_len}")
    report = scan_reflection(args.max_len, jobs=args.jobs)
    scope = f"reflection:max-len={args.max_len}"
    _emit_stream(args, out, report.violations,
                 lambda n: _scan_summary(scope, report.checked, n),
                 lambda it: (f"len {it['length']}: {it['code']} -> {it['value']} "
                             f"but {it['reflected']} -> {it['reflected_value']}"),
                 ["length", "code", "reflected", "value", "reflected_value"],
                 lambda it: [it["length"], it["code"], it["reflected"],
                             it["value"], it["reflected_value"]],
                 lambda n: f"checked {report.checked} codes, {n} violations")
    done()
    return EXIT_FINDINGS if report.violations else EXIT_OK


def _cmd_scan_conjecture(args, out: _Writer) -> int:
    from math import comb

    from .scans import iter_conjecture_violations

    _check_cap(args, "--len", args.length)
    done = _stopwatch(f"scan conjecture len {args.length}")
    if args.weight is not None:
        checked = comb(args.length, args.weight) if args.weight <= args.length else 0
        scope = f"conjecture:len={args.length}:weight={args.weight}"
    else:
        checked = 1 << args.length
        scope = f"conjecture:len={args.length}"
    pairs = iter_conjecture_violations(args.length, weight_filter=args.weight,
                                       jobs=args.jobs)
    count = _emit_stream(
        args, out, pairs,
        lambda n: _scan_summary(scope, checked, n),
        lambda it: (f"len {it['length']} weight {it['weight']}: "
                    f"var {it['low_var']} value {it['low_var_value']} vs "
                    f"var {it['high_var']} value {it['high_var_value']} "
                    f"(codes {it['low_var_code']}, {it['high_var_code']})"),
        ["length", "weight", "low_var_code", "high_var_code",
         "low_var", "high_var", "low_var_value", "high_var_value"],
        lambda it: [it["length"], it["weight"], it["low_var_code"],
                    it["high_var_code"], it["low_var"], it["high_var"],
                    it["low_var_value"], it["high_var_value"]],
        lambda n: f"checked {checked} codes, {n} counterexample pairs")
    done()
    return EXIT_FINDINGS if count else EXIT_OK


def _cmd_scan_converse(args, out: _Writer) -> int:
    from .scans import iter_converse_classes

    _check_cap(args, "--len", args.length)
    done = _stopwatch(f"scan converse len {args.length}")
    classes = iter_converse_classes(args.length)
    flagged = 0

    def records():
        nonlocal flagged
        for cls in classes:
            flagged += cls.beyond_reflection
            yield cls.to_jsonable()

    scope = f"converse:len={args.length}"
    _emit_stream(args, out, records(),
                 lambda n: _scan_summary(scope, 1 << args.length, flagged,
                                         classes=n),
                 lambda it: (f"value {it['value']}: {' '.join(it['codes'])}"
                             + (" [beyond reflection]"
                                if it["beyond_reflection"] else "")),
                 ["value", "codes", "beyond_reflection"],
                 lambda it: [it["value"], " ".join(it["codes"]),
                             it["beyond_reflection"]],
                 lambda n: (f"checked {1 << args.length} codes, {n} "
                            f"shared-value classes, {flagged} beyond reflection"))
    done()
    return EXIT_FINDINGS if flagged else EXIT_OK


def _cmd_scan_roots(args, out: _Writer) -> int:
    from .scans import scan_roots

    _check_cap(args, "--depth", args.depth)
    done = _stopwatch(f"scan roots max-entry {args.max_entry} depth {args.depth}")
    report = scan_roots(args.max_entry, args.depth)
    items = [{"root": list(s)} for s in report.survivors]
    _emit_stream(args, out, items,
                 lambda n: report.to_jsonable(),
                 lambda it: "root {} {} {}".format(*it["root"]),
                 ["a", "b", "c"],
                 lambda it: list(it["root"]),
                 lambda n: f"checked {report.checked} roots, {n} survivors")
    done()
    return EXIT_OK


def _cmd_scan_blocks(args, out: _Writer) -> int:
    from .scans import check_block_alternating

    _check_cap(args, "--max-j", args.max_j)
    if args.max_j < 2:
        raise DomainError("--max-j must be >= 2")
    done = _stopwatch(f"scan blocks max-j {args.max_j}")
    items = [check_block_alternating(j).to_jsonable()
             for j in range(2, args.max_j + 1)]
    bad = sum(1 for it in items if not it["ok"])
    scope = f"blocks:max-j={args.max_j}"
    _emit_stream(args, out, items,
                 lambda n: _scan_summary(scope, len(items), bad),
                 lambda it: (f"j={it['j']}: block {it['block']} "
                             f"(reflected {it['block_reflected']}), alternating "
                             f"{it['alternating']} (reflected "
                             f"{it['alternating_reflected']}), ok={it['ok']}"),
                 ["j", "block", "block_reflected", "alternating",
                  "alternating_reflected", "ok"],
                 lambda it: [it["j"], it["block"], it["block_reflected"],
                             it["alternating"], it["alternating_reflected"],
                             it["ok"]],
                 lambda n: f"checked {len(items)} block sizes, {bad} violations")
    done()
    return EXIT_FINDINGS if bad else EXIT_OK


def _cmd_hat_simulate(args, out: _Writer) -> int:
    from .threehat import dialogue_simulate

    transcript = dialogue_simulate((args.a, args.b, args.c))
    doc = transcript.to_jsonable()
    lines = []
    for rec in transcript.turns:
        if rec.action == "announce":
            lines.append(f"turn {rec.turn}: {rec.player} announces {rec.value}")
        else:
            lines.append(f"turn {rec.turn}: {rec.player} passes")
    lines.append(f"result: {transcript.announcer} announces {transcript.value} "
                 f"at turn {transcript.turn} (round {transcript.round})")
    _emit_doc(args, out, doc, lines,
              ["turn", "player", "action", "value"],
              [[r.turn, r.player, r.action, "" if r.value is None else r.value]
               for r in transcript.turns])
    return EXIT_OK


def _cmd_hat_chain(args, out: _Writer) -> int:
    from .threehat import chain

    cfg = (args.a, args.b, args.c)
    full = chain(cfg, abbreviated=False)
    length = max(len(full) - 1, 1)
    links = full if args.full else full[:length]
    doc = {"config": list(cfg), "abbreviated": not args.full,
           "chain": [list(s) for s in links], "length": length}
    _emit_doc(args, out, doc,
              [f"{s[0]} {s[1]} {s[2]}" for s in links] + [f"length: {length}"],
              ["index", "a", "b", "c"],
              [[i, s[0], s[1], s[2]] for i, s in enumerate(links)])
    return EXIT_OK


def _cmd_hat_solve(args, out: _Writer) -> int:
    from .threehat import PuzzleQuery, brute_solve, is_base, solve_puzzle

    query = PuzzleQuery(args.solver, args.rounds, args.value)
    result = solve_puzzle(query)
    doc = result.to_jsonable()
    lines = [f"query: solver {query.solver}, rounds {query.rounds}, "
             f"value {query.value}",
             "survivors: " + (", ".join(
                 "[{} {} {}]".format(*s) for s in result.criteria.survivors)
                 or "(none)"),
             "excluded: " + " ".join(
                 f"{k}={n}" for k, n in result.criteria.excluded.items())]
    csv_rows = [[*s.config, s.announcer, s.round, s.turn]
                for s in result.solutions]
    if result.solutions:
        lines.append("solutions:")
        lines.extend(f"  ({s.config[0]}, {s.config[1]}, {s.config[2]}): "
                     f"{s.announcer} announces at turn {s.turn}, round {s.round}"
                     for s in result.solutions)
    else:
        lines.append("solutions: (none)")
    if args.oracle_cap is not None:
        oracle = brute_solve(query, args.oracle_cap)
        doc["oracle"] = [s.to_jsonable() for s in oracle]
        solved = {s.config for s in result.solutions}
        extra = [s for s in oracle if s.config not in solved]
        doc["oracle_extra"] = [s.to_jsonable() for s in extra]
        lines.append(f"oracle (cap {args.oracle_cap}): "
                     f"{len(oracle)} solutions, {len(extra)} outside the "
                     "primitive-scaling pipeline")
        lines.extend("  extra ({}, {}, {}){}".format(
            *s.config, " [base]" if is_base(s.config) else "")
            for s in extra)
        csv_rows.extend([*s.config, s.announcer, s.round, s.turn]
                        for s in extra)
    _emit_doc(args, out, doc, lines,
              ["wa", "wb", "wc", "announcer", "round", "turn"], csv_rows)
    return EXIT_OK


# --------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="accepted for compatibility; scans run in one process")
    common.add_argument("--out", metavar="PATH",
                        help="write payload to PATH instead of stdout")
    common.add_argument("--unsafe-no-cap", action="store_true",
                        help=f"lift the hard length cap of {LENGTH_CAP}")

    parser = argparse.ArgumentParser(
        prog="fibtree",
        description="Binary-code state machine over additive integer triples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="state and value reached by a code")
    p.add_argument("code")
    p.add_argument("--root", help="root triple as a,b (third entry is a+b)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("trace", parents=[common],
                       help="every intermediate state of a code")
    p.add_argument("code")
    p.add_argument("--root", help="root triple as a,b (third entry is a+b)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("reflect", parents=[common],
                       help="reverse a code and compare values")
    p.add_argument("code")
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("metrics", parents=[common],
                       help="cluster profile, average and variance")
    p.add_argument("code")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("expand", parents=[common],
                       help="two-term Fibonacci expansion of a value")
    p.add_argument("code", nargs="?")
    p.add_argument("--inverse", nargs=3, type=int, metavar=("A", "B", "K"),
                   help="decode the expansion a*F(k) + b*F(k+2) back to a code")
    p.add_argument("--recursive", action="store_true",
                   help="expand coefficients recursively into a tree")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("scan", help="exhaustive checks over code space")
    scan_sub = p.add_subparsers(dest="scan_command", required=True)

    q = scan_sub.add_parser("reflection", parents=[common],
                            help="value invariance under code reversal")
    q.add_argument("--max-len", type=_positive_int, required=True)
    q.set_defaults(func=_cmd_scan_reflection)

    q = scan_sub.add_parser("conjecture", parents=[common],
                            help="variance orders value within a weight class")
    q.add_argument("--len", dest="length", type=_positive_int, required=True)
    q.add_argument("--weight", type=_positive_int)
    q.set_defaults(func=_cmd_scan_conjecture)

    q = scan_sub.add_parser("converse", parents=[common],
                            help="value classes shared beyond reflection pairs")
    q.add_argument("--len", dest="length", type=_positive_int, required=True)
    q.set_defaults(func=_cmd_scan_converse)

    q = scan_sub.add_parser("roots", parents=[common],
                            help="root triples preserving reflection invariance")
    q.add_argument("--max-entry", type=_positive_int, required=True)
    q.add_argument("--depth", type=_positive_int, default=10)
    q.set_defaults(func=_cmd_scan_roots)

    q = scan_sub.add_parser("blocks", parents=[common],
                            help="block versus alternating code values")
    q.add_argument("--max-j", type=_positive_int, default=12)
    q.set_defaults(func=_cmd_scan_blocks)

    p = sub.add_parser("sb", help="fraction labels on code paths")
    sb_sub = p.add_subparsers(dest="sb_command", required=True)

    q = sb_sub.add_parser("frac", parents=[common],
                          help="the two fraction labels of a code")
    q.add_argument("code")
    q.set_defaults(func=_cmd_sb_frac)

    q = sb_sub.add_parser("check", parents=[common],
                          help="generation sets match mediant paths")
    q.add_argument("--depth", type=_positive_int, required=True)
    q.set_defaults(func=_cmd_sb_check)

    p = sub.add_parser("hat", help="three-player sum-configuration dialogues")
    hat_sub = p.add_subparsers(dest="hat_command", required=True)

    q = hat_sub.add_parser("simulate", parents=[common],
                           help="run a dialogue to its first announcement")
    q.add_argument("a", type=_positive_int)
    q.add_argument("b", type=_positive_int)
    q.add_argument("c", type=_positive_int)
    q.set_defaults(func=_cmd_hat_simulate)

    q = hat_sub.add_parser("chain", parents=[common],
                           help="sigma-reduction chain of a configuration")
    q.add_argument("a", type=_positive_int)
    q.add_argument("b", type=_positive_int)
    q.add_argument("c", type=_positive_int)
    q.add_argument("--full", action="store_true",
                   help="include the final base configuration")
    q.set_defaults(func=_cmd_hat_chain)

    q = hat_sub.add_parser("solve", parents=[common],
                           help="configurations answering an announcement query")
    q.add_argument("--solver", required=True, choices=("A", "B", "C"))
    q.add_argument("--rounds", type=_positive_int, required=True)
    q.add_argument("--value", type=_positive_int, required=True)
    q.add_argument("--oracle-cap", type=_positive_int,
                   help="also run the exhaustive oracle up to this entry bound")
    q.set_defaults(func=_cmd_hat_solve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 0 is --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    out = _Writer(args.out)
    try:
        return args.func(args, out)
    except (DomainError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
