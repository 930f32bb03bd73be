"""Code generation for the PC-set method (§2, Fig. 4).

Layout of the generated program, in the paper's order:

1. *Initialization*: for every net that had a zero added to its PC-set,
   move its final value (the variable of its maximum raw PC element)
   into its time-0 variable; read the primary inputs from the vector.
2. *Simulation*: gates in levelized order; one evaluation per element
   of the gate's PC-set; operands selected by the
   largest-strictly-smaller rule.
3. *Output routine*: the PRINT pseudo-gate — one emitted vector per
   element of the union of the monitored nets' PC-sets.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import telemetry
from repro.analysis.levelize import levelize
from repro.analysis.pcsets import compute_pc_sets
from repro.codegen.gates import gate_expression
from repro.codegen.program import Assign, Emit, Input, Program, Var
from repro.logic import GateType
from repro.netlist.circuit import Circuit
from repro.pcset.variables import PCSetVariables

__all__ = ["generate_pcset_program"]


def generate_pcset_program(
    circuit: Circuit,
    *,
    word_width: int = 32,
    monitored: Optional[Iterable[str]] = None,
    emit_outputs: bool = True,
) -> tuple[Program, PCSetVariables]:
    """Generate the PC-set program for ``circuit``.

    Returns ``(program, variables)``; the variable map is what the
    simulator uses to seed state and decode results.  Vector slot ``k``
    carries primary input ``k``; because the generated code is purely
    bit-wise (the PC-set method emits *no shifts*), each bit position of
    the word simulates an independent vector stream — pass 0/1 for
    single-vector simulation or packed words for the §3-referenced
    multi-vector mode.
    """
    with telemetry.span("emit", technique="pcset", circuit=circuit.name):
        return _generate_pcset_program(
            circuit, word_width=word_width, monitored=monitored,
            emit_outputs=emit_outputs,
        )


def _generate_pcset_program(
    circuit: Circuit,
    *,
    word_width: int,
    monitored: Optional[Iterable[str]],
    emit_outputs: bool,
) -> tuple[Program, PCSetVariables]:
    monitored_list = (
        list(monitored) if monitored is not None else circuit.outputs
    )
    levels = levelize(circuit)
    pc = compute_pc_sets(circuit, levels)
    pc.apply_zero_insertion(monitored_list)
    variables = PCSetVariables(pc)

    program = Program(
        f"pcset_{circuit.name}",
        word_width=word_width,
        inputs=circuit.inputs,
        mask_assignments=False,
        output_mask=(1 << word_width) - 1,
    )

    # Declarations.  Constant-signal variables get their value at
    # declaration time and are never reassigned.
    const_values: dict[str, int] = {}
    for gate in circuit.gates.values():
        if gate.gate_type is GateType.CONST0:
            const_values[gate.output] = 0
        elif gate.gate_type is GateType.CONST1:
            const_values[gate.output] = program.word_mask
    for net_name, _time, identifier in variables.ordered:
        program.declare(identifier, const_values.get(net_name, 0))

    # 1. Initialization: zero-element moves, then primary-input reads.
    for net_name in circuit.nets:
        if net_name in pc.zero_added:
            final_time = pc.raw_net_pc_sets[net_name][-1]
            program.init.append(
                Assign(
                    variables.var(net_name, 0),
                    Var(variables.var(net_name, final_time)),
                )
            )
    for slot, net_name in enumerate(circuit.inputs):
        program.init.append(
            Assign(variables.var(net_name, 0), Input(slot))
        )

    # 2. Simulation code: levelized gate order, one evaluation per
    #    gate PC element.
    ordered = sorted(
        circuit.topological_gates(),
        key=lambda g: levels.gate_levels[g.name],
    )
    for gate in ordered:
        if gate.fan_in == 0:
            continue  # constants: value fixed at declaration
        for time in pc.gate_pc_set(gate.name):
            operands = [
                Var(variables.operand(in_net, time))
                for in_net in gate.inputs
            ]
            program.body.append(
                Assign(
                    variables.var(gate.output, time),
                    gate_expression(gate.gate_type, operands),
                )
            )

    # 3. Output routine: the PRINT pseudo-gate.
    if emit_outputs:
        for time in pc.output_pc_set(monitored_list):
            for net_name in monitored_list:
                program.output.append(
                    Emit(
                        Var(variables.sample(net_name, time)),
                        (net_name, time),
                    )
                )

    return program, variables
