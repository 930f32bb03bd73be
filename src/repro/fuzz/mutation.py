"""Intentional emitter bugs, for validating the fuzzer itself.

A differential fuzzer that has never caught anything is untested code.
:func:`inject_emitter_bug` patches a classic class of code-generator
bug into every compiled technique at once — the event-driven reference
evaluates gates through :mod:`repro.logic` and is unaffected, so the
campaign must catch the disagreement and the shrinker must reduce it
to a gate-count-minimal reproducer.  Used by ``tests/test_fuzz.py``,
by ``repro-sim fuzz --inject-bug`` (the mutation runs documented in
EXPERIMENTS.md), and by nothing else: never enable this outside a
self-test.

The patch is applied to each module that imported
:func:`~repro.codegen.gates.gate_expression` by name.  Mutated
programs have different generated source, hence different cache
fingerprints — the process-wide program cache cannot leak buggy
machines into healthy runs or vice versa.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.codegen.gates import gate_expression as _real_gate_expression
from repro.codegen.program import Expr, Un
from repro.errors import SimulationError
from repro.logic import GateType

__all__ = [
    "INJECTIONS",
    "MUTATIONS",
    "inject_emitter_bug",
]

#: Mutation name -> (gate type whose emission is corrupted, description).
MUTATIONS = {
    "nor-as-or": (GateType.NOR, "NOR emits OR (dropped invert)"),
    "xnor-as-xor": (GateType.XNOR, "XNOR emits XOR (dropped invert)"),
    "nand-as-and": (GateType.NAND, "NAND emits AND (dropped invert)"),
    "not-as-buf": (GateType.NOT, "NOT emits BUF (dropped invert)"),
}

#: Every self-test bug by name (``repro-sim fuzz --inject-bug``).
INJECTIONS = tuple(MUTATIONS)

#: Every module that binds ``gate_expression`` at import time.
_PATCH_SITES = (
    "repro.codegen.gates",
    "repro.parallel.codegen",
    "repro.parallel.aligned_codegen",
    "repro.pcset.codegen",
    "repro.lcc.zerodelay",
)


def _buggy(kind: str):
    target, _description = MUTATIONS[kind]

    def gate_expression(gate_type: GateType, operands: list) -> Expr:
        expr = _real_gate_expression(gate_type, operands)
        if gate_type is target and isinstance(expr, Un):
            # Drop the inverting wrapper: the classic missing-~ bug.
            return expr.a
        return expr

    return gate_expression


@contextmanager
def inject_emitter_bug(kind: str = "nor-as-or"):
    """Context manager: corrupt one gate type's emitted expression.

    All compiled techniques (PC-set, parallel variants, LCC) pick up
    the corrupted emission; the interpreted simulators do not.  The
    original emitter is restored on exit, even on error.
    """
    if kind not in MUTATIONS:
        raise SimulationError(
            f"unknown mutation {kind!r}; choose from "
            f"{sorted(MUTATIONS)}"
        )
    import importlib

    buggy = _buggy(kind)
    modules = [importlib.import_module(name) for name in _PATCH_SITES]
    saved = [module.gate_expression for module in modules]
    for module in modules:
        module.gate_expression = buggy
    try:
        yield MUTATIONS[kind][1]
    finally:
        for module, original in zip(modules, saved):
            module.gate_expression = original
