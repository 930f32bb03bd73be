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
    "inject_bug",
    "inject_emitter_bug",
    "inject_tile_bug",
]

#: Mutation name -> (gate type whose emission is corrupted, description).
MUTATIONS = {
    "nor-as-or": (GateType.NOR, "NOR emits OR (dropped invert)"),
    "xnor-as-xor": (GateType.XNOR, "XNOR emits XOR (dropped invert)"),
    "nand-as-and": (GateType.NAND, "NAND emits AND (dropped invert)"),
    "not-as-buf": (GateType.NOT, "NOT emits BUF (dropped invert)"),
}

#: Every self-test bug by name (``repro-sim fuzz --inject-bug``): the
#: emitter mutations, then the tile-layout bug.
INJECTIONS = (*MUTATIONS, "tile-boundary")

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


#: Modules that bind ``tile_groups`` by name at import time.
_TILE_PATCH_SITES = ("repro.codegen.packing", "repro.lcc.zerodelay")


@contextmanager
def inject_tile_bug():
    """Context manager: corrupt the K-tile slot-major input layout.

    A machine compiled with ``tiles=K`` consumes pass rows with input
    slot ``s`` tile ``t`` at index ``s*K + t``; the injected bug
    interleaves them group-major (``t*num_inputs + s``) instead — the
    classic tile-boundary transposition — in both places that lay the
    rows out: the Python transposition (``tile_groups``) and the C
    library's ``pack_lanes``.  Any tiled pass over a circuit with more
    than one input computes with the wrong words, so the campaign's
    tiled packed checks must disagree with the untiled reference.
    Self-test only.
    """
    import importlib

    from repro.codegen import c_emitter
    from repro.codegen.packing import tile_groups as real_tile_groups

    real_lane_helpers = c_emitter._lane_helper_lines

    def buggy_lane_helpers(interface):
        tiles = interface.tiles
        slot_major = f"s * {tiles} + g % {tiles}]"
        group_major = f"(g % {tiles}) * {interface.num_inputs} + s]"
        lines = real_lane_helpers(interface)
        if not any(slot_major in line for line in lines):
            raise SimulationError("pack_lanes no longer matches the "
                                  "tile-boundary mutation")
        return [line.replace(slot_major, group_major) for line in lines]

    def buggy_tile_groups(groups, num_inputs, tiles):
        rows = []
        for base in range(0, len(groups), tiles):
            chunk = list(groups[base:base + tiles])
            while len(chunk) < tiles:
                chunk.append([0] * num_inputs)
            rows.append([
                chunk[t][k]
                for t in range(tiles)
                for k in range(num_inputs)
            ])
        return rows

    modules = [
        importlib.import_module(name) for name in _TILE_PATCH_SITES
    ]
    saved = [module.tile_groups for module in modules]
    for module in modules:
        module.tile_groups = buggy_tile_groups
    c_emitter._lane_helper_lines = buggy_lane_helpers
    try:
        yield "tiled pass rows laid out group-major (transposed layout)"
    finally:
        for module, original in zip(modules, saved):
            module.tile_groups = original
        c_emitter._lane_helper_lines = real_lane_helpers


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


def inject_bug(name: str):
    """The context manager that injects bug ``name`` (:data:`INJECTIONS`)."""
    if name == "tile-boundary":
        return inject_tile_bug()
    return inject_emitter_bug(name)
