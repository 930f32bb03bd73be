"""The PC-set method simulator facade.

Wraps the generated PC-set program behind the common compiled-simulator
interface, adds history reconstruction (the generated code "creates a
complete history for the vector", §2), and decodes the PRINT output
routine.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.pcset.codegen import generate_pcset_program
from repro.simbase import CompiledSimulator, monitored_nets

__all__ = ["PCSetSimulator"]


class PCSetSimulator(CompiledSimulator):
    """Compiled unit-delay simulation via the PC-set method (§2).

    Typical use::

        sim = PCSetSimulator(circuit)
        sim.reset([0] * len(circuit.inputs))
        history = sim.apply_vector_history(vector)

    ``backend="c"`` compiles the generated code with the system C
    compiler instead of running it as Python.

    Activity counters (``probes=``) live on the parallel technique's
    facade, and packed settled values on the zero-delay LCC one.

    Multi-vector traffic should use the inherited batch API
    (``apply_vectors`` for outputs, ``prepare_batch`` +
    ``run_prepared`` for timing): one dispatch drives the whole batch
    through the generated ``run_block`` loop.  ``apply_vector_history``
    stays scalar — it reads the persistent state before and after each
    vector.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        backend: str = "python",
        word_width: int = 32,
        monitored: Optional[list[str]] = None,
        with_outputs: bool = True,
    ) -> None:
        self.monitored = monitored_nets(circuit, monitored)
        program, variables = generate_pcset_program(
            circuit,
            word_width=word_width,
            monitored=self.monitored,
            emit_outputs=with_outputs,
        )
        self.variables = variables
        self.pc_sets = variables.pc_sets
        super().__init__(
            circuit,
            program,
            backend=backend,
            with_outputs=with_outputs,
        )

    # ------------------------------------------------------------------
    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        # A steady state is constant in time: every (net, t) variable
        # holds the settled value of its net.  The value is replicated
        # through the word so packed multi-vector lanes stay consistent.
        mask = self.program.word_mask
        return [
            (-(settled[net_name] & 1)) & mask
            for net_name, _time, _identifier in self.variables.ordered
        ]

    # ------------------------------------------------------------------
    def apply_vector_history(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, list[tuple[int, int]]]:
        """Simulate one vector and reconstruct every net's change history.

        Returns ``net -> [(time, value), ...]`` with the time-0 value
        first — directly comparable with
        :meth:`repro.eventsim.simulator.EventDrivenSimulator.apply_vector`.
        """
        before = dict(zip(
            (identifier for _n, _t, identifier in self.variables.ordered),
            self.machine.dump_state(),
        ))
        self.apply_vector(vector)
        after = dict(zip(
            (identifier for _n, _t, identifier in self.variables.ordered),
            self.machine.dump_state(),
        ))

        histories: dict[str, list[tuple[int, int]]] = {}
        pc = self.pc_sets
        for net_name in self.circuit.nets:
            raw = pc.raw_net_pc_sets[net_name]
            full = pc.net_pc_set(net_name)
            if full[0] == 0:
                start = after[self.variables.var(net_name, 0)] & 1
            else:
                # No time-0 variable: the net held its previous final
                # value at time 0.
                start = before[self.variables.var(net_name, raw[-1])] & 1
            changes = [(0, start)]
            for time in raw:
                if time == 0:
                    continue
                value = after[self.variables.var(net_name, time)] & 1
                if value != changes[-1][1]:
                    changes.append((time, value))
            histories[net_name] = changes
        return histories

    def output_trace(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[tuple[int, dict[str, int]]]:
        """Simulate one vector; return the decoded PRINT routine output.

        One ``(time, {net: value})`` entry per element of the output
        routine's PC-set, in ascending time order.
        """
        out = self.apply_vector(vector)
        trace: dict[int, dict[str, int]] = {}
        for (net_name, time), value in zip(self.output_labels(), out):
            trace.setdefault(time, {})[net_name] = value & 1
        return sorted(trace.items())

    def final_values(self) -> dict[str, int]:
        """Settled values of the monitored nets after the last vector."""
        state = dict(zip(
            (identifier for _n, _t, identifier in self.variables.ordered),
            self.machine.dump_state(),
        ))
        return {
            net_name: state[self.variables.final_var(net_name)] & 1
            for net_name in self.monitored
        }
