"""Command line surface.

One binary, subcommand per operation.  Each command computes its result
and returns it as data, in one of two shapes:

- a Doc: a function that returns its compact JSON object as pieces, its
  text lines, and its CSV header and rows;
- a Stream: scan records, lazy and never materialized, with a CSV
  header and row function, a text-line function, a JSON-line function,
  and a summary function that gets the record count once the records
  run out.

The converse and conjecture records and the hat turns and links fill
%-templates of ints, bools, 0/1 codes and p/q fractions, which need no
escaping, instead of the compact encoder _dumps: the bytes are the same.
Conjecture text lines fill one too, instead of str.format_map.

One renderer, _render, writes either shape as text, JSON or CSV, and
main owns the rendering, a scan's stderr timing line, labelled by its
argv, and the exit code.  The library returns plain data; only this
module knows the output formats.  Scans run in one process on the row
kernel engine.level_rows; --jobs is accepted for compatibility and
selects nothing.  Machine formats (json, csv) are deterministic:
identical argv produces byte-identical output, so scan results can be
diffed across runs.  Timings go to stderr only.  Each command imports
the library modules it runs, so a process loads only what its command
needs.  The parser writes each argument shape that commands share once,
as a parent parser (the common options, a code, a code with --root, the
hat entries a b c, --len), and registers every command through one
helper that adds the common options and its function.

Exit codes: 0 success, 1 usage error (including an --out path that
cannot be written, or a reader that closed the output pipe early), 2
domain error (invalid code, state, configuration or expansion, or a
result whose decimal digits pass the interpreter's limit), 3 scan
completed and found violations or counterexamples.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain, islice
from math import log10
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .engine import ROOT, as_code, as_state, evaluate, reflect, trace, value
from .errors import DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FINDINGS = 3

LENGTH_CAP = 30


# one compact encoder for every line; json.dumps would build one per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class Doc(NamedTuple):
    """A whole result: a function that returns the compact JSON object as
    pieces, the text lines and the CSV table.

    _render calls json or reads text or rows once, for the format asked,
    so a command with a long payload passes generators and builds only
    that one; its JSON pieces are a head, one piece per item and a tail.
    """
    json: Callable[[], Iterable[str]]
    text: Iterable[str]
    header: list[str]
    rows: Iterable


class Stream(NamedTuple):
    """A scan result: records written one per line as they come, then a
    summary.

    row, text and json each map one record to its CSV row, text line or
    JSON line.  summary(count) gets the number of records written and
    returns the summary record, the summary sentence, and whether the
    scan found anything.
    """
    records: Iterable
    header: list[str]
    row: Callable
    text: Callable
    json: Callable
    summary: Callable


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


def _check_cap(args, name: str, size: int, cap: int = LENGTH_CAP) -> None:
    if size > cap and not args.unsafe_no_cap:
        raise DomainError(
            f"{name} {size} exceeds the hard cap {cap} "
            "(pass --unsafe-no-cap to override)"
        )


def _check_digits(name: str, size: int, bits: int) -> None:
    """Refuse a size whose counts, up to 2**bits, pass the interpreter's
    digit limit for integer output once bits * log10(2) reaches it, even
    under --unsafe-no-cap; 0 (or no limit) refuses nothing."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and bits * log10(2) >= limit:
        raise DomainError(f"{name} {size} gives counts of more than {limit} "
                          "decimal digits, the interpreter's limit for integer output")


def _render(result: Doc | Stream, fmt: str, out) -> bool:
    """Write a result to out in fmt; return whether it found anything.

    A stream's summary ends its text and JSON payloads.  A CSV body
    cannot carry the summary record, so the sentence goes to stderr there.
    """
    write = out.write
    if fmt == "csv":
        import csv

        table = csv.writer(out, lineterminator="\n")
        table.writerow(result.header)
    if isinstance(result, Doc):
        if fmt == "json":
            out.writelines(result.json())
            write("\n")
        elif fmt == "csv":
            table.writerows(result.rows)
        else:
            out.writelines(line + "\n" for line in result.text)
        return False
    count = 0
    if fmt == "csv":
        for count, row in enumerate(map(result.row, result.records), 1):
            table.writerow(row)
    else:
        line_of = result.json if fmt == "json" else result.text
        for count, line in enumerate(map(line_of, result.records), 1):
            write(line + "\n")
    record, sentence, found = result.summary(count)
    if fmt == "json":
        write(_dumps(record) + "\n")
    elif fmt == "csv":
        print(sentence, file=sys.stderr)
    else:
        write(sentence + "\n")
    return found


def _scan_summary(scope: str, checked: int, violation_count: int,
                  **extra) -> dict:
    """Trailing summary record: counts only, the records were the stream."""
    doc = {"scope": scope, "checked": checked, "violations": [],
           "violation_count": violation_count, "elapsed_ms": None}
    doc.update(extra)
    return doc


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
    return as_state((a, b, a + b))


# ------------------------------------------------------------- commands

def _cmd_eval(args) -> Doc:
    a, b, c = evaluate(as_code(args.code), _parse_root(args.root))
    return Doc(lambda: [_dumps({"state": [a, b, c], "value": c})],
               [f"state: {a} {b} {c}", f"value: {c}"],
               ["a", "b", "c", "value"], [[a, b, c, c]])


def _cmd_trace(args) -> Doc:
    states = trace(as_code(args.code), _parse_root(args.root))
    return Doc(lambda: [_dumps({"code": args.code, "states": states})],
               ["{}: {} {} {}".format(i, *s) for i, s in enumerate(states)],
               ["step", "a", "b", "c"],
               [[i, *s] for i, s in enumerate(states)])


def _cmd_reflect(args) -> Doc:
    code = as_code(args.code)
    mirrored = reflect(code)
    val, mval = value(code), value(mirrored)
    return Doc(lambda: [_dumps({"code": code, "reflected": mirrored, "value": val,
                                "reflected_value": mval})],
               [f"code: {code} value: {val}", f"reflected: {mirrored} value: {mval}"],
               ["code", "reflected", "value", "reflected_value"],
               [[code, mirrored, val, mval]])


def _cmd_metrics(args) -> Doc:
    from .metrics import cluster_average, cluster_profile, cluster_variance, weight

    code = as_code(args.code)
    clusters = list(cluster_profile(code).per_position)
    w, avg, var = weight(code), _frac(cluster_average(code)), _frac(cluster_variance(code))
    spaced = " ".join(map(str, clusters))
    return Doc(lambda: [_dumps({"weight": w, "avg": avg, "var": var,
                                "clusters": clusters})],
               [f"weight: {w}", f"clusters: {spaced}", f"avg: {avg}", f"var: {var}"],
               ["weight", "avg", "var", "clusters"], [[w, avg, var, spaced]])


def _cmd_expand(args) -> Doc | int:
    from .expansion import (Expansion, decode_expansion, encode_expansion,
                            expand_recursive, flatten_products, pure_fibonacci,
                            tree_to_jsonable, tree_value)

    if (args.code is None) == (args.inverse is None):
        print("error: expand needs either a code or --inverse A B K",
              file=sys.stderr)
        return EXIT_USAGE
    header = ["code", "a", "b", "k", "value"]
    if args.inverse is not None:
        e = Expansion(*args.inverse)
        # the value has about 0.209 K digits, written out in full; past
        # K = 20,575 it passes the interpreter's 4,300-digit limit
        _check_cap(args, "--inverse K", e.k, 10**4)
        _check_cap(args, "decoded code length", e.code_length(), 10**6)
        code = decode_expansion(e)
        return Doc(lambda: [_dumps({"a": e.a, "b": e.b, "k": e.k, "code": code,
                                    "value": e.value()})],
                   [f"code: {code}",
                    f"expansion: {e.a}*F({e.k}) + {e.b}*F({e.k + 2})",
                    f"value: {e.value()}"],
                   header, [[code, e.a, e.b, e.k, e.value()]])

    code = as_code(args.code)
    if not code:
        raise DomainError("the empty code has no expansion")
    if "0" not in code:
        val = pure_fibonacci(code)
        doc = {"code": code, "fibonacci_index": len(code) + 4, "value": val}
        text = [f"code: {code}", f"expansion: F({len(code) + 4})", f"value: {val}"]
        row = [code, "", "", "", val]
    else:
        e = encode_expansion(code)
        doc = {"code": code, "a": e.a, "b": e.b, "k": e.k, "value": e.value()}
        text = [f"code: {code}",
                f"expansion: {e.a}*F({e.k}) + {e.b}*F({e.k + 2})",
                f"a: {e.a}", f"b: {e.b}", f"k: {e.k}",
                f"value: {e.value()}"]
        row = [code, e.a, e.b, e.k, e.value()]
    if not args.recursive:
        return Doc(lambda: [_dumps(doc)], text, header, [row])
    # the tree is a DAG, but its spelled-out JSON and product list can grow
    # exponentially with the code, so each is built only for a format that
    # writes it, and once
    tree = expand_recursive(code)

    def recursive_doc():
        doc["tree"] = tree_to_jsonable(tree)
        doc["products"] = [list(t) for t in flatten_products(tree)]
        doc["tree_value"] = tree_value(tree)
        return [_dumps(doc)]

    def recursive_lines():
        yield f"tree: {_dumps(tree_to_jsonable(tree))}"
        yield "products: " + " + ".join(
            "*".join(f"F({i})" for i in t) for t in flatten_products(tree))

    return Doc(recursive_doc, chain(text, recursive_lines()), header, [row])


def _cmd_sb_frac(args) -> Doc:
    from .sternbrocot import u, v

    code = as_code(args.code)
    uq, vq = _frac(u(code)), _frac(v(code))
    return Doc(lambda: [_dumps({"code": code, "u": uq, "v": vq})],
               [f"u: {uq}", f"v: {vq}"],
               ["code", "u", "v"], [[code, uq, vq]])


def _cmd_sb_check(args) -> Stream:
    from .sternbrocot import check_generation

    _check_cap(args, "--depth", args.depth)
    # the counts 2**(c + 1), refused from c = 14,284 at 4,300 digits
    _check_digits("--depth", args.depth, args.depth + 1)
    bad = 0

    def verdicts():
        nonlocal bad
        for c in range(1, args.depth + 1):
            verdict = check_generation(c)._asdict()
            bad += not verdict["equal"]
            yield verdict

    scope = f"sb-check:depth={args.depth}"
    header = ["length", "equal", "state_side", "path_side"]
    return Stream(verdicts(), header, itemgetter(*header),
                  "c={length}: equal={equal} ({state_side} fractions)".format_map, _dumps,
                  lambda n: (_scan_summary(scope, args.depth, bad),
                             f"checked {args.depth} generations, {bad} violations",
                             bad > 0))


def _cmd_scan_reflection(args) -> Stream:
    from .scans import scan_reflection

    _check_cap(args, "--max-len", args.max_len)
    report = scan_reflection(args.max_len)
    scope = f"reflection:max-len={args.max_len}"
    header = ["length", "code", "reflected", "value", "reflected_value"]
    return Stream(report.violations, header, itemgetter(*header),
                  "len {length}: {code} -> {value} but {reflected} -> "
                  "{reflected_value}".format_map, _dumps,
                  lambda n: (_scan_summary(scope, report.checked, n),
                             f"checked {report.checked} codes, {n} violations",
                             n > 0))


def _cmd_scan_conjecture(args) -> Stream:
    from math import comb

    from .scans import iter_conjecture_violations

    _check_cap(args, "--len", args.length)
    if args.weight is not None:
        checked = comb(args.length, args.weight)
        scope = f"conjecture:len={args.length}:weight={args.weight}"
    else:
        checked = 1 << args.length
        scope = f"conjecture:len={args.length}"
    header = ["length", "weight", "low_var_code", "high_var_code",
              "low_var", "high_var", "low_var_value", "high_var_value"]
    row = itemgetter(*header)
    text_row = itemgetter("length", "weight", "low_var", "low_var_value", "high_var",
                          "high_var_value", "low_var_code", "high_var_code")
    return Stream(iter_conjecture_violations(args.length, weight_filter=args.weight),
                  header, row,
                  lambda it: "len %d weight %d: var %s value %d vs var %s value %d "
                  "(codes %s, %s)" % text_row(it),
                  # the library's records hold their keys in header order
                  lambda it: '{"length":%d,"weight":%d,"low_var_code":"%s",'
                  '"high_var_code":"%s","low_var":"%s","high_var":"%s",'
                  '"low_var_value":%d,"high_var_value":%d}' % row(it),
                  lambda n: (_scan_summary(scope, checked, n),
                             f"checked {checked} codes, {n} counterexample pairs",
                             n > 0))


def _cmd_scan_converse(args) -> Stream:
    from .scans import iter_converse_classes

    _check_cap(args, "--len", args.length)
    classes = iter_converse_classes(args.length)
    flagged = 0

    def records():
        nonlocal flagged
        for cls in classes:
            flagged += cls.beyond_reflection
            yield cls

    checked = 1 << args.length
    scope = f"converse:len={args.length}"
    return Stream(records(), ["value", "codes", "beyond_reflection"],
                  lambda c: [c.value, " ".join(c.codes), c.beyond_reflection],
                  lambda c: (f"value {c.value}: {' '.join(c.codes)}"
                             + (" [beyond reflection]" if c.beyond_reflection else "")),
                  # a class has two or more codes, so the list is never empty
                  lambda c: '{"value":%d,"codes":["%s"],"beyond_reflection":%s}' % (
                      c.value, '","'.join(c.codes),
                      "true" if c.beyond_reflection else "false"),
                  lambda n: (_scan_summary(scope, checked, flagged, classes=n),
                             f"checked {checked} codes, {n} shared-value "
                             f"classes, {flagged} beyond reflection",
                             flagged > 0))


def _cmd_scan_roots(args) -> Stream:
    from .scans import scan_roots

    _check_cap(args, "--depth", args.depth)
    _check_cap(args, "--max-entry", args.max_entry, 10**9)
    report = scan_roots(args.max_entry, args.depth)
    survivors = [list(s) for s in report.survivors]
    summary = {"scope": report.scope, "checked": report.checked,
               "survivors": survivors, "elapsed_ms": None}
    return Stream([{"root": s} for s in survivors], ["a", "b", "c"],
                  itemgetter("root"), "root {root[0]} {root[1]} {root[2]}".format_map,
                  _dumps,
                  lambda n: (summary, f"checked {report.checked} roots, {n} survivors",
                             False))


def _cmd_scan_blocks(args) -> Stream:
    from .scans import check_block_alternating

    _check_cap(args, "--max-j", args.max_j)
    if args.max_j < 2:
        raise DomainError("--max-j must be >= 2")
    verdicts = map(check_block_alternating, range(2, args.max_j + 1))
    items = [{**v._asdict(), "ok": v.ok} for v in verdicts]
    bad = sum(not it["ok"] for it in items)
    scope = f"blocks:max-j={args.max_j}"
    header = ["j", "block", "block_reflected", "alternating",
              "alternating_reflected", "ok"]
    return Stream(items, header, itemgetter(*header),
                  "j={j}: block {block} (reflected {block_reflected}), alternating "
                  "{alternating} (reflected {alternating_reflected}), ok={ok}".format_map,
                  _dumps,
                  lambda n: (_scan_summary(scope, n, bad),
                             f"checked {n} block sizes, {bad} violations", bad > 0))


def _cmd_hat_simulate(args) -> Doc:
    from .threehat import dialogue_simulate

    t = dialogue_simulate((args.a, args.b, args.c))

    def doc():
        yield '{"config":%s,"turns":[' % _dumps(t.config)
        # every turn passes but the last, the only one with a value
        for r in t.turns:
            yield ('{"turn":%d,"player":"%s","action":"%s"},' % r[:3]
                   if r.value is None else _dumps(r._asdict()))
        yield ('],"announcer":"%s","turn":%d,"round":%d,"value":%d}'
               % (t.announcer, t.turn, t.round, t.value))

    lines = chain((f"turn {r.turn}: {r.player} announces {r.value}"
                   if r.action == "announce" else f"turn {r.turn}: {r.player} passes"
                   for r in t.turns),
                  [f"result: {t.announcer} announces {t.value} "
                   f"at turn {t.turn} (round {t.round})"])
    return Doc(doc, lines, ["turn", "player", "action", "value"],
               ([r.turn, r.player, r.action, "" if r.value is None else r.value]
                for r in t.turns))


def _cmd_hat_chain(args) -> Doc:
    from .threehat import chain_length, iter_chain

    cfg = (args.a, args.b, args.c)
    length = chain_length(cfg)
    links = iter_chain(cfg) if args.full else islice(iter_chain(cfg), length)

    def doc():
        pieces = map("[%d,%d,%d]".__mod__, links)
        yield '{"config":%s,"abbreviated":%s,"chain":[%s' % (
            _dumps(cfg), _dumps(not args.full), next(pieces, ""))
        yield from map(",".__add__, pieces)
        yield '],"length":%d}' % length

    return Doc(doc, chain(("{} {} {}".format(*s) for s in links), [f"length: {length}"]),
               ["index", "a", "b", "c"],
               ([i, *s] for i, s in enumerate(links)))


def _cmd_hat_solve(args) -> Doc:
    from .threehat import PuzzleQuery, bounds, brute_solve, is_base, solve_puzzle

    _check_cap(args, "--value", args.value, 10**6)
    if args.oracle_cap is not None:
        _check_cap(args, "--oracle-cap", args.oracle_cap, 10**6)
    query = PuzzleQuery(args.solver, args.rounds, args.value)
    # the excluded counts reach about 2**hi: from --rounds 4,763 (A), 4,762 (B, C)
    _check_digits("--rounds", args.rounds, bounds(query.solver, query.rounds)[1])
    # with the digit limit off only this cap bounds them, at about 3 * rounds bits
    _check_cap(args, "--rounds", args.rounds, 10**4)
    result = solve_puzzle(query)
    doc = {"query": query._asdict(), "survivors": result.criteria.survivors,
           "excluded": result.criteria.excluded,
           "solutions": [s._asdict() for s in result.solutions]}
    lines = [f"query: solver {query.solver}, rounds {query.rounds}, "
             f"value {query.value}",
             "survivors: " + (", ".join(
                 "[{} {} {}]".format(*s) for s in result.criteria.survivors)
                 or "(none)"),
             "excluded: " + " ".join(
                 f"{k}={n}" for k, n in result.criteria.excluded.items())]
    rows = [[*s.config, s.announcer, s.round, s.turn] for s in result.solutions]
    if result.solutions:
        lines.append("solutions:")
        lines.extend(f"  ({s.config[0]}, {s.config[1]}, {s.config[2]}): "
                     f"{s.announcer} announces at turn {s.turn}, round {s.round}"
                     for s in result.solutions)
    else:
        lines.append("solutions: (none)")
    if args.oracle_cap is not None:
        oracle = brute_solve(query, args.oracle_cap)
        doc["oracle"] = [s._asdict() for s in oracle]
        solved = {s.config for s in result.solutions}
        extra = [s for s in oracle if s.config not in solved]
        doc["oracle_extra"] = [s._asdict() for s in extra]
        lines.append(f"oracle (cap {args.oracle_cap}): "
                     f"{len(oracle)} solutions, {len(extra)} outside the "
                     "primitive-scaling pipeline")
        lines.extend("  extra ({}, {}, {}){}".format(
            *s.config, " [base]" if is_base(s.config) else "")
            for s in extra)
        rows.extend([*s.config, s.announcer, s.round, s.turn] for s in extra)
    return Doc(lambda: [_dumps(doc)], lines,
               ["wa", "wb", "wc", "announcer", "round", "turn"],
               rows)


# --------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    def shape(*parents) -> argparse.ArgumentParser:
        """A parent parser: arguments that several commands share."""
        return argparse.ArgumentParser(add_help=False, parents=parents)

    common = shape()
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="accepted for compatibility; scans run in one process")
    common.add_argument("--out", metavar="PATH",
                        help="write payload to PATH instead of stdout")
    common.add_argument("--unsafe-no-cap", action="store_true",
                        help=f"lift the hard caps: {LENGTH_CAP} on lengths and "
                        "depths, 10**9 on --max-entry, 10**6 on hat solve values, "
                        "10**4 on its --rounds, 10**4 on expand --inverse K and "
                        "10**6 on its code length")
    code = shape()
    code.add_argument("code")
    rooted = shape(code)
    rooted.add_argument("--root", help="root triple as a,b (third entry is a+b)")
    config = shape()
    for entry in "abc":
        config.add_argument(entry, type=_positive_int)
    length = shape()
    length.add_argument("--len", dest="length", type=_positive_int, required=True)

    def command(group, name: str, func, about: str, *shapes):
        """Add a subcommand running func, with the common options and shapes."""
        p = group.add_parser(name, parents=[common, *shapes], help=about)
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="fibtree",
        description="Binary-code state machine over additive integer triples.")
    sub = parser.add_subparsers(dest="command", required=True)
    command(sub, "eval", _cmd_eval, "state and value reached by a code", rooted)
    command(sub, "trace", _cmd_trace, "every intermediate state of a code", rooted)
    command(sub, "reflect", _cmd_reflect, "reverse a code and compare values", code)
    command(sub, "metrics", _cmd_metrics, "cluster profile, average and variance", code)
    p = command(sub, "expand", _cmd_expand, "two-term Fibonacci expansion of a value")
    p.add_argument("code", nargs="?")
    p.add_argument("--inverse", nargs=3, type=int, metavar=("A", "B", "K"),
                   help="decode the expansion a*F(k) + b*F(k+2) back to a code")
    p.add_argument("--recursive", action="store_true",
                   help="expand coefficients recursively into a tree")

    scan = sub.add_parser("scan", help="exhaustive checks over code space"
                          ).add_subparsers(dest="scan_command", required=True)
    command(scan, "reflection", _cmd_scan_reflection,
            "value invariance under code reversal"
            ).add_argument("--max-len", type=_positive_int, required=True)
    command(scan, "conjecture", _cmd_scan_conjecture,
            "variance orders value within a weight class", length
            ).add_argument("--weight", type=_positive_int)
    command(scan, "converse", _cmd_scan_converse,
            "value classes shared beyond reflection pairs", length)
    p = command(scan, "roots", _cmd_scan_roots,
                "root triples preserving reflection invariance")
    p.add_argument("--max-entry", type=_positive_int, required=True)
    p.add_argument("--depth", type=_positive_int, default=10)
    command(scan, "blocks", _cmd_scan_blocks, "block versus alternating code values"
            ).add_argument("--max-j", type=_positive_int, default=12)

    sb = sub.add_parser("sb", help="fraction labels on code paths"
                        ).add_subparsers(dest="sb_command", required=True)
    command(sb, "frac", _cmd_sb_frac, "the two fraction labels of a code", code)
    command(sb, "check", _cmd_sb_check, "generation sets match mediant paths"
            ).add_argument("--depth", type=_positive_int, required=True)

    hat = sub.add_parser("hat", help="three-player sum-configuration dialogues"
                         ).add_subparsers(dest="hat_command", required=True)
    command(hat, "simulate", _cmd_hat_simulate,
            "run a dialogue to its first announcement", config)
    command(hat, "chain", _cmd_hat_chain, "sigma-reduction chain of a configuration",
            config).add_argument("--full", action="store_true",
                                 help="include the final base configuration")
    p = command(hat, "solve", _cmd_hat_solve,
                "configurations answering an announcement query")
    p.add_argument("--solver", required=True, choices=("A", "B", "C"))
    p.add_argument("--rounds", type=_positive_int, required=True)
    p.add_argument("--value", type=_positive_int, required=True)
    p.add_argument("--oracle-cap", type=_positive_int,
                   help="also run the exhaustive oracle up to this entry bound")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 0 is --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    t0 = time.perf_counter()
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        if args.out:
            # opened only now, so a command that fails leaves the file alone
            with open(args.out, "w", encoding="utf-8", newline="") as out:
                found = _render(result, args.format, out)
        else:
            found = _render(result, args.format, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits(); the commands
        # that can meet one spell their text lines before --out is opened.
        # The limit stays: lifting it makes decimal output quadratic in time.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a result has more than {sys.get_int_max_str_digits()} "
              "decimal digits, the interpreter's limit for integer output",
              file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to
        # devnull, so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, Stream):
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"{' '.join(argv)}: {ms:.1f} ms", file=sys.stderr)
    return EXIT_FINDINGS if found else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
