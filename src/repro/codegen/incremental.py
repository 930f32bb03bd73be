"""Per-fanin-cone incremental compilation.

The monolithic compiled simulators fingerprint the *whole* generated
source: touch one gate and the entire program misses the cache and
recompiles.  CVC's lesson (see PAPERS.md) is that compiled simulators
live or die on compile turnaround, so this module splits a circuit
into one small program per primary output — the output's fanin cone —
and keys each in the process-wide :class:`ProgramCache` by a *content
hash of the cone itself* (``Program.content_key``).  Editing one gate
re-fingerprints only the cones that contain it; every untouched cone
is a cache hit, on the C backend skipping the ``cc`` invocation
entirely.

The trade-off is steady-state speed: logic shared by several cones is
duplicated into each, so a cone-partitioned evaluation does more gate
work per vector than the monolithic program.  Use it where recompile
latency dominates (edit/simulate loops); use the monolithic engines
where throughput dominates.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.analysis.levelize import levelize
from repro.codegen.gates import gate_expression
from repro.codegen.naming import NameAllocator
from repro.codegen.program import Assign, Emit, Input, Program, Var
from repro.codegen.runtime import compile_program, program_cache
from repro.netlist.circuit import Circuit
from repro.simbase import input_rows

__all__ = [
    "Cone",
    "output_cones",
    "cone_fingerprint",
    "generate_cone_program",
    "ConeSimulator",
]


class Cone:
    """The fanin cone of one primary output.

    ``gates`` are in the levelized order of the *parent* circuit
    restricted to the cone (deterministic, and identical for identical
    cones); ``inputs`` are the primary inputs the cone reads, in the
    parent circuit's input declaration order.
    """

    __slots__ = ("output", "gates", "inputs")

    def __init__(self, output, gates, inputs) -> None:
        self.output = output
        self.gates = gates
        self.inputs = inputs

    def __repr__(self) -> str:
        return (
            f"Cone({self.output!r}: {len(self.gates)} gates, "
            f"{len(self.inputs)} inputs)"
        )


def output_cones(circuit: Circuit) -> dict[str, Cone]:
    """One :class:`Cone` per primary output, in output order."""
    levels = levelize(circuit)
    ordered = sorted(
        circuit.topological_gates(),
        key=lambda g: (levels.gate_levels[g.name], g.name),
    )
    cones: dict[str, Cone] = {}
    for out in circuit.outputs:
        member: set[str] = set()
        stack = [out]
        while stack:
            net = stack.pop()
            if net in member:
                continue
            member.add(net)
            driver = circuit.driver_of(net)
            if driver is not None:
                stack.extend(driver.inputs)
        cones[out] = Cone(
            out,
            [g for g in ordered if g.output in member],
            [n for n in circuit.inputs if n in member],
        )
    return cones


def cone_fingerprint(cone: Cone, word_width: int) -> str:
    """Content hash of a cone — the incremental cache key.

    Hashes exactly what determines the generated source: the output
    name, the cone's input names in slot order, the gate list (name,
    type, inputs) in emission order, and the word width.  Two
    structurally identical cones in different circuits therefore share
    one cache entry.
    """
    payload = json.dumps(
        [
            cone.output,
            cone.inputs,
            [
                [g.output, g.gate_type.value, list(g.inputs)]
                for g in cone.gates
            ],
            word_width,
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def generate_cone_program(
    cone: Cone, *, word_width: int = 32
) -> Program:
    """An LCC-style program computing one output from its cone inputs.

    The program's ``content_key`` is the cone fingerprint, so the
    runtime caches it by cone content rather than by source text.
    """
    fingerprint = cone_fingerprint(cone, word_width)
    program = Program(
        f"cone_{fingerprint[:12]}",
        word_width=word_width,
        inputs=list(cone.inputs),
        mask_assignments=False,
    )
    names = NameAllocator()
    for net in cone.inputs:
        program.declare(names.get(net))
    for gate in cone.gates:
        program.declare(names.get(gate.output))
    for slot, net in enumerate(cone.inputs):
        program.init.append(Assign(names.get(net), Input(slot)))
    for gate in cone.gates:
        operands = [Var(names.get(i)) for i in gate.inputs]
        program.body.append(
            Assign(names.get(gate.output),
                   gate_expression(gate.gate_type, operands))
        )
    program.output.append(
        Emit(Var(names.get(cone.output)), (cone.output,))
    )
    program.validate()
    program.content_key = fingerprint
    return program


class ConeSimulator:
    """Zero-delay evaluation through per-output cone programs.

    Construction compiles (or cache-hits) one machine per output cone
    and records the program-cache delta it caused in ``cache_delta``:
    after a single-gate edit, ``hits`` counts the cones that were
    reused verbatim and ``misses`` the ones that actually recompiled.

    ``evaluate`` / ``apply_vectors`` are bit-identical to the
    monolithic :class:`~repro.lcc.zerodelay.LCCSimulator` on the
    primary outputs (each cone computes the same levelized gate
    cascade, just restricted to its support).
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        backend: str = "python",
        word_width: int = 32,
    ) -> None:
        self.circuit = circuit
        self.backend = backend
        self.word_width = word_width
        cache = program_cache()
        before = cache.stats()
        with telemetry.span("emit", technique="cones",
                            circuit=circuit.name):
            self.cones = output_cones(circuit)
            self._programs = {
                out: generate_cone_program(
                    cone, word_width=word_width
                )
                for out, cone in self.cones.items()
            }
        self._machines = {
            out: compile_program(program, backend)
            for out, program in self._programs.items()
        }
        after = cache.stats()
        #: Program-cache traffic caused by building this simulator.
        self.cache_delta = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }
        #: Cone fingerprint per output (the cache keys used).
        self.cone_keys = {
            out: program.content_key
            for out, program in self._programs.items()
        }
        input_index = {n: i for i, n in enumerate(circuit.inputs)}
        self._cone_slots = {
            out: [input_index[n] for n in cone.inputs]
            for out, cone in self.cones.items()
        }
        self._inputs = circuit.inputs
        self._outputs = circuit.outputs

    # ------------------------------------------------------------------
    @property
    def num_cones(self) -> int:
        return len(self.cones)

    def evaluate(
        self, vector: "Mapping[str, int] | Sequence[int]"
    ) -> dict[str, int]:
        """Settle one vector; returns all primary output values."""
        [values] = input_rows([vector], self._inputs)
        out: dict[str, int] = {}
        for name, machine in self._machines.items():
            slots = self._cone_slots[name]
            out[name] = machine.step([values[s] for s in slots])[0] & 1
        return out

    def apply_vectors(
        self,
        vectors: "Sequence[Mapping[str, int] | Sequence[int]]",
    ) -> list[dict[str, int]]:
        """Settle a batch; per-vector output dicts, cone-batched."""
        rows = input_rows(vectors, self._inputs)
        results: list[dict[str, int]] = [{} for _ in rows]
        for name, machine in self._machines.items():
            slots = self._cone_slots[name]
            cone_rows = [[row[s] for s in slots] for row in rows]
            for result, out in zip(
                results, machine.step_many(cone_rows)
            ):
                result[name] = out[0] & 1
        return results
