"""The point-queries call table: each call kind bound to fibtree's public API.

Imported only after run.py has put the checkout's src/ first on sys.path.
"""

from __future__ import annotations

from time import perf_counter_ns

import fibtree


def _decode_expansion(a: int, b: int, k: int) -> str:
    # building the Expansion is part of the call: it validates its fields
    return fibtree.decode_expansion(fibtree.Expansion(a, b, k))


def _expand_recursive(code: str):
    tree = fibtree.expand_recursive(code)
    return tree, fibtree.tree_value(tree)


CALLS = {
    "value": fibtree.value,
    "trace": fibtree.trace,
    "reflect": fibtree.reflect,
    "decode_state": fibtree.decode_state,
    "cluster_variance": fibtree.cluster_variance,
    "encode_expansion": fibtree.encode_expansion,
    "decode_expansion": _decode_expansion,
    "expand_recursive": _expand_recursive,
    "u": fibtree.u,
    "v": fibtree.v,
    "chain_length": fibtree.chain_length,
    "first_announcement": fibtree.first_announcement,
}

# The module each call kind enters, for per-layer span names.
MODULE = {
    "value": "engine", "trace": "engine", "reflect": "engine", "decode_state": "engine",
    "cluster_variance": "metrics",
    "encode_expansion": "expansion", "decode_expansion": "expansion",
    "expand_recursive": "expansion",
    "u": "sternbrocot", "v": "sternbrocot",
    "chain_length": "threehat", "first_announcement": "threehat",
}


def run_calls(calls: list[tuple], record=None) -> tuple[list, list[int], int]:
    """Time each call on its own; returns (results, latencies in ns, errors).

    A call that raises leaves None as its result and counts as an error.
    The traced run passes record(kind, start_ns, end_ns) to add a span per
    call, so traced and untraced timing differ only by that call.
    """
    results, latencies, errors = [], [], 0
    for kind, args in calls:
        fn = CALLS[kind]
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except (fibtree.DomainError, fibtree.DivergenceError):
            out = None
            errors += 1
        t1 = perf_counter_ns()
        latencies.append(t1 - t0)
        results.append(out)
        if record is not None:
            record(kind, t0, t1)
    return results, latencies, errors
