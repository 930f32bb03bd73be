"""The parallel-technique simulator facade.

Selects a variant (unoptimized, trimming, path-tracing, cycle-breaking,
or path-tracing + trimming), compiles it on a backend, and exposes the
common simulator interface plus bit-field history decoding.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.codegen.probes import ProbeSpec, instrument_parallel_program
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.parallel.codegen import generate_parallel_program
from repro.simbase import CompiledSimulator, check_pinned, monitored_nets

__all__ = ["ParallelSimulator", "OPTIMIZATIONS"]

#: Recognized optimization selectors.
OPTIMIZATIONS = (
    "none",
    "trim",
    "pathtrace",
    "cyclebreak",
    "pathtrace+trim",
)


class ParallelSimulator(CompiledSimulator):
    """Compiled unit-delay simulation via the parallel technique (§3-§4).

    Parameters
    ----------
    optimization:
        One of :data:`OPTIMIZATIONS`.  ``"none"`` is the plain §3
        technique; ``"trim"`` adds bit-field trimming; ``"pathtrace"``
        and ``"cyclebreak"`` are the §4 shift-elimination algorithms;
        ``"pathtrace+trim"`` is the Fig. 24 combination.
    backend:
        ``"python"`` or ``"c"``.
    word_width:
        Bits per machine word (8, 16, 32 or 64; the paper used 32).
    probes:
        Compile per-net toggle counters into the generated pass
        (``True`` for every net, an iterable of net names, or a
        :class:`~repro.codegen.probes.ProbeSpec`); read them with the
        inherited ``activity_report()``.  A net's bit-field *is* its
        settling history, so counting is a popcount of adjacent-bit
        differences — available on the time-aligned layouts
        (optimization ``"none"`` or ``"trim"``) only.
    partitions, tiles:
        Must be 1 (see :func:`~repro.simbase.check_pinned`), checked
        before the program is generated.

    Multi-vector traffic should go through the inherited batch API —
    ``apply_vectors`` for outputs, ``prepare_batch`` + ``run_prepared``
    for timing — which keeps the vector loop inside the generated code
    on both backends.  The per-vector methods below
    (``apply_vector_history``, ``output_trace``) stay scalar because
    they decode the machine *state* between vectors.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        optimization: str = "none",
        backend: str = "python",
        word_width: int = 32,
        monitored: Optional[list[str]] = None,
        with_outputs: bool = True,
        probes=None,
        partitions: int = 1,
        tiles: int = 1,
    ) -> None:
        check_pinned(partitions, tiles)
        if optimization not in OPTIMIZATIONS:
            raise SimulationError(
                f"unknown optimization {optimization!r}; "
                f"choose from {OPTIMIZATIONS}"
            )
        self.optimization = optimization
        self.monitored = monitored_nets(circuit, monitored)
        if optimization in ("none", "trim"):
            program, layout = generate_parallel_program(
                circuit,
                word_width=word_width,
                trimming=(optimization == "trim"),
                monitored=self.monitored,
                emit_outputs=with_outputs,
            )
            self.alignment = None
        else:
            from repro.parallel.aligned_codegen import (
                generate_aligned_program,
            )
            from repro.parallel.cyclebreak import cycle_breaking_alignment
            from repro.parallel.pathtrace import path_tracing_alignment

            if optimization.startswith("pathtrace"):
                alignment = path_tracing_alignment(circuit)
            else:
                alignment = cycle_breaking_alignment(circuit)
            program, layout = generate_aligned_program(
                circuit,
                alignment,
                word_width=word_width,
                trimming=optimization.endswith("+trim"),
                monitored=self.monitored,
                emit_outputs=with_outputs,
            )
            self.alignment = alignment
        self.layout = layout
        self.depth = layout.levels.depth
        spec = ProbeSpec.coerce(probes)
        plan = None
        if spec is not None:
            plan = instrument_parallel_program(
                program, layout, circuit, spec
            )
        super().__init__(
            circuit,
            program,
            backend=backend,
            with_outputs=with_outputs,
            probe_plan=plan,
        )

    # ------------------------------------------------------------------
    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        # A steady state is flat in time: replicate each net's settled
        # value through every word of its field.
        mask = self.program.word_mask
        words: list[int] = []
        for net_name in self.circuit.nets:
            fill = (-(settled[net_name] & 1)) & mask
            words.extend([fill] * self.layout.field(net_name).num_words)
        return words

    # ------------------------------------------------------------------
    def _state_words(self) -> dict[str, list[int]]:
        """Current field words per net, decoded from machine state."""
        state = self.machine.dump_state()
        result: dict[str, list[int]] = {}
        cursor = 0
        for net_name in self.circuit.nets:
            count = self.layout.field(net_name).num_words
            result[net_name] = state[cursor:cursor + count]
            cursor += count
        return result

    def _old_finals(self) -> dict[str, int]:
        """Previous settled value per net (high-order bit of each field)."""
        w = self.layout.word_width
        return {
            net_name: (words[-1] >> (w - 1)) & 1
            for net_name, words in self._state_words().items()
        }

    def history_from_state(
        self, old_finals: Optional[Mapping[str, int]] = None
    ) -> dict[str, list[tuple[int, int]]]:
        """Change history of every net, decoded from the bit-fields.

        Valid right after :meth:`apply_vector`; directly comparable to
        the event-driven simulator's recorded histories.  For aligned
        fields whose bit 0 sits at the net's minlevel, the time-0 value
        is not represented in the field any more; pass ``old_finals``
        (captured with :meth:`_old_finals` *before* stepping) to recover
        it exactly.
        """
        w = self.layout.word_width
        histories: dict[str, list[tuple[int, int]]] = {}
        minlevels = self.layout.levels.net_minlevels
        for net_name, words in self._state_words().items():
            spec = self.layout.field(net_name)
            changes: list[tuple[int, int]] = []
            for time in range(self.depth + 1):
                pos = spec.bitpos(time)
                if pos < 0:
                    # Below the field: alignment is below minlevel there,
                    # so the net holds its time-0 value; skip to the
                    # first represented time.
                    continue
                if pos >= spec.num_words * w:
                    break
                value = (words[pos // w] >> (pos % w)) & 1
                if not changes:
                    changes.append((time, value))
                elif value != changes[-1][1]:
                    changes.append((time, value))
            if changes and changes[0][0] != 0:
                first_time, first_value = changes[0]
                if first_time < minlevels[net_name]:
                    # Provably still the time-0 value.
                    changes[0] = (0, first_value)
                elif old_finals is not None:
                    start = old_finals[net_name]
                    if start == first_value:
                        changes[0] = (0, first_value)
                    else:
                        changes.insert(0, (0, start))
                else:
                    # Best effort without the previous state: bit 0 can
                    # only sit at a time <= minlevel, and at minlevel
                    # the value may be a genuine change we cannot date.
                    changes[0] = (0, first_value)
            histories[net_name] = changes
        return histories

    def apply_vector_history(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, list[tuple[int, int]]]:
        """Simulate one vector and decode every net's change history."""
        old_finals = self._old_finals()
        self.apply_vector(vector)
        return self.history_from_state(old_finals)

    def final_values(self) -> dict[str, int]:
        """Settled values of the monitored nets after the last vector."""
        w = self.layout.word_width
        state = self._state_words()
        result: dict[str, int] = {}
        for net_name in self.monitored:
            spec = self.layout.field(net_name)
            pos = spec.bitpos(self.layout.levels.net_levels[net_name])
            result[net_name] = (state[net_name][pos // w] >> (pos % w)) & 1
        return result

    def output_trace(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[tuple[int, dict[str, int]]]:
        """Simulate one vector; return per-time monitored values.

        One entry per time unit 0..depth (the sliding-mask trace of §3).
        """
        self.apply_vector(vector)
        history = self.history_from_state()
        trace: list[tuple[int, dict[str, int]]] = []
        current = {
            net_name: history[net_name][0][1] for net_name in self.monitored
        }
        cursors = {net_name: 0 for net_name in self.monitored}
        for time in range(self.depth + 1):
            for net_name in self.monitored:
                changes = history[net_name]
                cursor = cursors[net_name]
                while (cursor + 1 < len(changes)
                       and changes[cursor + 1][0] <= time):
                    cursor += 1
                cursors[net_name] = cursor
                current[net_name] = changes[cursor][1]
            trace.append((time, dict(current)))
        return trace
