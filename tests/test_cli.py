import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibtree
from fibtree import chain, threehat
from fibtree.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


# ------------------------------------------------------------- basics

def test_eval_json_is_byte_stable(capsys):
    rc, out, _ = run(capsys, "eval", "1011", "--format", "json")
    assert rc == 0
    assert out == '{"state":[7,12,19],"value":19}\n'


def test_eval_text(capsys):
    rc, out, _ = run(capsys, "eval", "1011")
    assert rc == 0
    assert out == "state: 7 12 19\nvalue: 19\n"


def test_eval_csv(capsys):
    rc, out, _ = run(capsys, "eval", "1011", "--format", "csv")
    assert rc == 0
    assert out == "a,b,c,value\n7,12,19,19\n"


def test_eval_alternate_root(capsys):
    rc, out, _ = run(capsys, "eval", "01", "--root", "2,1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"state": [3, 5, 8], "value": 8}


def test_bad_code_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "eval", "102")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 1


def test_missing_argument_is_a_usage_error(capsys):
    rc, _, _ = run(capsys, "eval")
    assert rc == 1


def test_trace_csv(capsys):
    rc, out, _ = run(capsys, "trace", "01", "--format", "csv")
    assert rc == 0
    assert out == "step,a,b,c\n0,1,2,3\n1,1,3,4\n2,3,4,7\n"


def test_reflect(capsys):
    rc, out, _ = run(capsys, "reflect", "10011", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "code": "10011", "reflected": "11001",
        "value": 25, "reflected_value": 25,
    }


def test_metrics_json(capsys):
    rc, out, _ = run(capsys, "metrics", "1100", "--format", "json")
    assert rc == 0
    assert out == '{"weight":2,"avg":"2/1","var":"4/1","clusters":[2,2,2,2]}\n'


# ------------------------------------------------------------ expansion

def test_expand(capsys):
    rc, out, _ = run(capsys, "expand", "10011", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "10011", "a": 5, "b": 3, "k": 3,
                               "value": 25}


def test_expand_pure_fibonacci(capsys):
    rc, out, _ = run(capsys, "expand", "1111", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "1111", "fibonacci_index": 8,
                               "value": 21}


def test_expand_recursive_tree(capsys):
    rc, out, _ = run(capsys, "expand", "10011", "--recursive",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["tree"] == {"k": 3, "a": {"fib": 5}, "b": {"fib": 4}}
    assert doc["products"] == [[3, 5], [4, 5]]
    assert doc["tree_value"] == 25


def test_expand_inverse(capsys):
    rc, out, _ = run(capsys, "expand", "--inverse", "2", "3", "3",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"a": 2, "b": 3, "k": 3, "code": "1011",
                               "value": 19}


def test_expand_requires_exactly_one_mode(capsys):
    assert run(capsys, "expand")[0] == 1
    assert run(capsys, "expand", "1011", "--inverse", "2", "3", "3")[0] == 1


# ------------------------------------------------------------ fractions

def test_sb_frac(capsys):
    rc, out, _ = run(capsys, "sb", "frac", "0", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "0", "u": "1/3", "v": "3/1"}


def test_sb_check(capsys):
    rc, out, _ = run(capsys, "sb", "check", "--depth", "4",
                     "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    items, summary = docs[:-1], docs[-1]
    assert [d["length"] for d in items] == [1, 2, 3, 4]
    assert all(d["equal"] for d in items)
    assert [d["state_side"] for d in items] == [4, 8, 16, 32]
    assert summary["violation_count"] == 0


# ---------------------------------------------------------------- scans

def test_scan_conjecture_streams_and_counts(capsys):
    rc, out, err = run(capsys, "scan", "conjecture", "--len", "5",
                       "--format", "json")
    assert rc == 3  # findings
    docs = json_lines(out)
    items, summary = docs[:-1], docs[-1]
    assert len(items) == 6
    assert items[0] == {
        "length": 5, "weight": 2,
        "low_var_code": "00110", "high_var_code": "10001",
        "low_var": "17/5", "high_var": "29/5",
        "low_var_value": 19, "high_var_value": 20,
    }
    assert summary == {"scope": "conjecture:len=5", "checked": 32,
                       "violations": [], "violation_count": 6,
                       "elapsed_ms": None}
    assert "ms" in err  # timing goes to stderr only


def test_scan_conjecture_weight_filter(capsys):
    rc, out, _ = run(capsys, "scan", "conjecture", "--len", "5",
                     "--weight", "3", "--format", "json")
    assert rc == 3
    summary = json_lines(out)[-1]
    assert summary["scope"] == "conjecture:len=5:weight=3"
    assert summary["checked"] == 10
    assert summary["violation_count"] == 2


def test_scan_reflection_clean(capsys):
    rc, out, _ = run(capsys, "scan", "reflection", "--max-len", "8",
                     "--format", "json")
    assert rc == 0
    summary = json_lines(out)[-1]
    assert summary["checked"] == 510
    assert summary["violation_count"] == 0


def test_scan_converse_flags_classes(capsys):
    rc, out, _ = run(capsys, "scan", "converse", "--len", "5",
                     "--format", "json")
    assert rc == 3
    docs = json_lines(out)
    flagged = [d for d in docs[:-1] if d.get("beyond_reflection")]
    assert {d["value"] for d in flagged} == {17, 23, 25, 29}
    assert docs[-1]["classes"] == 11


def test_scan_roots(capsys):
    rc, out, _ = run(capsys, "scan", "roots", "--max-entry", "10",
                     "--depth", "6", "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    assert docs[:-1] == [{"root": [1, 2, 3]}, {"root": [2, 1, 3]}]
    assert docs[-1]["survivors"] == [[1, 2, 3], [2, 1, 3]]
    assert docs[-1]["checked"] == 63


def test_scan_blocks(capsys):
    rc, out, _ = run(capsys, "scan", "blocks", "--max-j", "6",
                     "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    assert [d["j"] for d in docs[:-1]] == [2, 3, 4, 5, 6]
    assert all(d["ok"] for d in docs[:-1])
    assert docs[:-1][0]["block"] == 14 and docs[:-1][0]["alternating"] == 17


def test_scan_cap_guards_runtime(capsys):
    rc, _, err = run(capsys, "scan", "reflection", "--max-len", "31")
    assert rc == 2
    assert "error:" in err


def test_unsafe_no_cap_lifts_the_guard(capsys):
    rc, out, _ = run(capsys, "scan", "blocks", "--max-j", "31",
                     "--unsafe-no-cap", "--format", "json")
    assert rc == 0
    assert json_lines(out)[-1]["checked"] == 30


def test_scan_output_is_identical_across_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        rc, out, _ = run(capsys, "scan", "conjecture", "--len", "8",
                         "--jobs", jobs, "--format", "json")
        assert rc == 3
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_redirects_payload_to_file(capsys, tmp_path):
    target = tmp_path / "scan.jsonl"
    rc, out, _ = run(capsys, "scan", "conjecture", "--len", "5",
                     "--format", "json", "--out", str(target))
    assert rc == 3
    assert out == ""
    rc, direct, _ = run(capsys, "scan", "conjecture", "--len", "5",
                        "--format", "json")
    assert target.read_text() == direct


# ------------------------------------------------------------------ hats

def test_hat_simulate_json(capsys):
    rc, out, _ = run(capsys, "hat", "simulate", "3", "1", "2",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["announcer"] == "A" and doc["turn"] == 4 and doc["round"] == 2
    assert doc["turns"][-1] == {"turn": 4, "player": "A",
                                "action": "announce", "value": 3}


def test_hat_simulate_rejects_invalid_world(capsys):
    rc, _, err = run(capsys, "hat", "simulate", "1", "2", "4")
    assert rc == 2
    assert "error:" in err


def test_hat_chain_json(capsys):
    rc, out, _ = run(capsys, "hat", "chain", "3", "11", "14",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["chain"] == [[3, 11, 14], [3, 8, 11], [3, 5, 8],
                            [2, 3, 5], [1, 2, 3]]
    assert doc["length"] == 5


def test_hat_chain_full(capsys):
    rc, out, _ = run(capsys, "hat", "chain", "3", "11", "14", "--full",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out)["chain"][-1] == [1, 1, 2]


@pytest.mark.parametrize("flags", [(), ("--full",)])
def test_hat_chain_walks_the_chain_once(capsys, monkeypatch, flags):
    calls = []

    def counting_chain(*args, **kwargs):
        calls.append(args)
        return chain(*args, **kwargs)

    # the command imports chain from fibtree.threehat when it runs
    monkeypatch.setattr(threehat, "chain", counting_chain)
    rc, _, _ = run(capsys, "hat", "chain", "3", "11", "14", *flags)
    assert rc == 0
    assert len(calls) == 1


def test_hat_solve_json(capsys):
    rc, out, _ = run(capsys, "hat", "solve", "--solver", "C",
                     "--rounds", "1", "--value", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["survivors"] == [[1, 2, 3]]
    assert [s["config"] for s in doc["solutions"]] == [[1, 2, 3], [2, 1, 3]]
    assert doc["excluded"] == {"chain_length": 0, "value_lower_bound": 6,
                               "prime_upper_bound": 0, "divisibility": 0}


def test_hat_solve_with_oracle(capsys):
    rc, out, _ = run(capsys, "hat", "solve", "--solver", "C",
                     "--rounds", "1", "--value", "2", "--oracle-cap", "10",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["solutions"] == []
    assert [s["config"] for s in doc["oracle"]] == [[1, 1, 2]]


# ------------------------------------------------------ golden outputs

# SHA-256 of stdout and the exit code of four scans in every format.  A
# change to how a scan checks its statement must leave these bytes alone.
GOLDEN_DIGESTS = [
    ("scan reflection --max-len 18", "text", 0,
     "9c9082a0ba64f4ac04772050d65b59b2c0bccc1cc2cba3f3e0c0327e5fc3f4ca"),
    ("scan reflection --max-len 18", "json", 0,
     "6ef262e5f61d44c134f0dd805f7eae1d66d86fff37099a4fe98ca81c5c754926"),
    ("scan reflection --max-len 18", "csv", 0,
     "96cadf998d21130af25114a3cfd0687a8bffc19562de7310e3b91adecbe343f7"),
    ("scan roots --max-entry 400 --depth 12", "text", 0,
     "72c70cc4774c41be4e1e8f73b52b0766b83852e6eed048d19351dcec7f03fc77"),
    ("scan roots --max-entry 400 --depth 12", "json", 0,
     "f0e169448143ccd6657cae3270a03bcfb440ad21937b0c94373a8a816335bd6f"),
    ("scan roots --max-entry 400 --depth 12", "csv", 0,
     "0d331f1c73876efb2b3b266e8bf7d4b3c84cf943e7404877df5fdb06b0b8813a"),
    ("sb check --depth 12", "text", 0,
     "d0e2473c1e65b5cb7d7baa3fa2f75f59e6d32101d4ea8b51cfb52067771909e5"),
    ("sb check --depth 12", "json", 0,
     "fa6ee947e38fef9a049dcacef6376c84e832744c4cf34cc41896c70db046392f"),
    ("sb check --depth 12", "csv", 0,
     "c86b7995487162ceaf57eda8d72a80c1741629c74938d30efe8c6d6ffbd7407b"),
    ("scan converse --len 16", "text", 3,
     "69fd46416dd59108c6713b574c374b71922fbe37c4d188045f419fa6301ec2f3"),
    ("scan converse --len 16", "json", 3,
     "6045a11c4289aea4cff8f0adcb21476c50c69f1eb1a1c1ee50ad7fb1a4d5c802"),
    ("scan converse --len 16", "csv", 3,
     "60a00ffe88a3a19dae9c8ce8b220ed6558680eff48cdcbfd1ab292d35e16dd36"),
]


@pytest.mark.parametrize("command, fmt, code, digest", GOLDEN_DIGESTS)
def test_scan_output_matches_golden_digest(capsys, command, fmt, code, digest):
    argv = command.split() + ([] if fmt == "text" else ["--format", fmt])
    rc, out, _ = run(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------- fresh interpreters

# In-process tests run after other tests have imported every module, so
# what a command loads, and whether the lazy package resolves a name on
# its own, shows only in a new interpreter.

def _child(*args):
    src = str(Path(fibtree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# Prints the modules that a bare `import fibtree`, or one command given
# as arguments, adds to sys.modules.
NEW_MODULES = """
import os, sys
before = set(sys.modules)
if sys.argv[1:]:
    from fibtree.cli import main
    main(sys.argv[1:] + ["--out", os.devnull])
else:
    import fibtree
print(" ".join(sorted(set(sys.modules) - before)))
"""

SCAN_UNUSED = {"dataclasses", "fractions", "csv", "fibtree.threehat",
               "fibtree.expansion", "fibtree.metrics", "fibtree.sternbrocot"}


@pytest.mark.parametrize("command, unused", [
    ("scan reflection --max-len 8", SCAN_UNUSED),
    ("scan converse --len 8", SCAN_UNUSED),
    ("scan roots --max-entry 20 --depth 4", SCAN_UNUSED),
    ("sb check --depth 4",
     {"dataclasses", "fibtree.threehat", "fibtree.expansion", "fibtree.scans"}),
])
def test_command_imports_only_its_modules(command, unused):
    proc = _child("-c", NEW_MODULES, *command.split())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fibtree.cli" in added
    assert not added & unused


def test_bare_import_loads_no_submodule():
    proc = _child("-c", NEW_MODULES)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "fibtree" in added
    assert [m for m in added if m.startswith("fibtree.")] == []


FRESH_COMMANDS = [
    "eval 0101",
    "trace 0110",
    "reflect 10011",
    "metrics 0110",
    "expand 10011",
    "expand 10011 --recursive",
    "expand --inverse 2 3 4",
    "sb frac 0110",
    "sb check --depth 4",
    "scan reflection --max-len 6",
    "scan conjecture --len 6",
    "scan converse --len 6",
    "scan roots --max-entry 20 --depth 4",
    "scan blocks --max-j 4",
    "hat simulate 3 11 14",
    "hat chain 3 11 14",
    "hat solve --solver C --rounds 1 --value 3",
]


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_every_command_runs_in_a_fresh_process(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    proc = _child("-m", "fibtree", *command.split())
    assert (proc.returncode, proc.stdout) == (rc, out), proc.stderr


PUBLIC_NAMES = """
import importlib
import fibtree
assert fibtree.scans is importlib.import_module("fibtree.scans")
assert fibtree.cli.main is importlib.import_module("fibtree.cli").main
star = {}
exec("from fibtree import *", star)
for name in fibtree.__all__:
    module = importlib.import_module("fibtree." + fibtree._OWNER[name])
    assert star[name] is getattr(fibtree, name) is getattr(module, name), name
assert not hasattr(fibtree, "no_such_name")
try:
    fibtree.no_such_name
except AttributeError:
    print("ok")
"""


def test_public_names_resolve_lazily():
    proc = _child("-c", PUBLIC_NAMES)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
