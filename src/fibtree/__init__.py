"""Binary codes acting on additive integer triples.

The package walks the tree of states (a, b, c) with c = a + b generated
from (1, 2, 3) by the two steps (a, b, c) -> (a, c, a+c) and
(a, b, c) -> (b, c, b+c), and studies the integer sequence read off the
third entries: reflection invariance, cluster metrics, two-term
Fibonacci expansions, fraction labels on paths, and the three-player
sum-configuration dialogue the same tree solves.

Importing the package loads no submodule.  A public name is looked up
in _EXPORTS on first access, its submodule is imported then, and every
name of that submodule is bound here, so later lookups are plain
attribute reads.  A CLI process thus loads only its command's modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it contributes to the package
_EXPORTS = {
    "engine": (
        "ROOT", "State", "apply_step", "as_code", "as_state",
        "decode_state", "enumerate_codes", "enumerate_states", "evaluate",
        "level_row", "level_rows", "reduce_state", "reflect", "trace", "value",
    ),
    "errors": ("DomainError", "DivergenceError"),
    "metrics": (
        "ClusterProfile", "cluster_average", "cluster_profile",
        "cluster_variance", "weight",
    ),
    "expansion": (
        "Expansion", "ExpansionTree", "Leaf", "SumNode", "decode_expansion",
        "encode_expansion", "expand_recursive", "fib", "flatten_products",
        "pure_fibonacci", "tree_to_jsonable", "tree_value",
    ),
    "scans": (
        "BlockAlternatingVerdict", "RootScanReport", "ScanReport", "ValueClass",
        "build_value_tables", "check_block_alternating",
        "iter_conjecture_violations", "iter_converse_classes", "scan_conjecture",
        "scan_converse", "scan_reflection", "scan_roots",
    ),
    "sternbrocot": (
        "GenerationVerdict", "apply_path", "check_generation", "f_L", "f_R",
        "u", "v",
    ),
    "threehat": (
        "ChainTreeVerdict", "CriteriaReport", "DivergenceReport", "LemmaReport",
        "PuzzleQuery", "Solution", "SolveResult", "Transcript", "TurnRecord",
        "apply_criteria", "bounds", "brute_solve", "chain", "chain_length",
        "chains_equal_tree", "dialogue_simulate", "divergence_sweep",
        "first_announcement", "is_base", "iter_chain", "lemma_report",
        "normalize", "sigma_reduce", "solve_puzzle", "validate_config",
    ),
    "cli": (),  # the command line; reached as fibtree.cli
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        if name in _EXPORTS:
            # importing a submodule binds it as an attribute of the package
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = import_module(f"{__name__}.{module}")
    globals().update((n, getattr(mod, n)) for n in _EXPORTS[module])
    return globals()[name]
