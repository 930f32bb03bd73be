"""Compiled clocked simulation of synchronous sequential circuits.

Combines §1's flip-flop-breaking recipe with a compiled engine.  The
zero-delay engine compiles the broken core with its flip-flops closed
through program state (``generate_lcc_program(..., flipflops=...)``):
one pass of the generated code is one clock cycle, the flip-flop
state lives in the machine's state buffer, and one kernel call clocks
a whole batch.  The unit-delay engines settle the core once per
cycle and carry the state here; they can additionally keep the full
intra-cycle unit-delay history, so glitches *inside* a clock period
are visible — the thing a plain zero-delay clocked model cannot show.

The byte boundary
-----------------
Every engine clocks through :meth:`CompiledSequentialSimulator.apply_bits`:
one 0/1 byte per external input per cycle in, one 0/1 byte per
external output per cycle out.  ``step`` and ``apply_vectors`` encode
their rows into such a block once per batch, which is where a bad row
is reported; :func:`~repro.replay.harness.replay_tape` hands over tape
bytes as they are.

Partial-progress contract
-------------------------
If a cycle of ``apply_vectors`` fails (bad vector, backend failure),
every *completed* cycle stays committed: ``cycle`` counts the cycles
that ran, ``state`` holds the flip-flop values after the last completed
cycle, and the failing cycle has consumed nothing.  Callers that need
all-or-nothing semantics take a :meth:`snapshot` first and
:meth:`restore` it on error.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.codegen.runtime import BatchCounters, Machine, compile_program
from repro.errors import SimulationError
from repro.lcc.zerodelay import generate_lcc_program
from repro.netlist.sequential import SequentialCircuit
from repro.simbase import check_pinned

__all__ = ["CompiledSequentialSimulator"]


class CompiledSequentialSimulator:
    """Clocked simulation over a compiled combinational core.

    Parameters
    ----------
    sequential:
        The broken circuit (from ``parse_bench_sequential`` or
        ``break_at_flipflops``).
    engine:
        ``"lcc"`` — zero-delay clocked program (fastest; per-cycle
        settled values only), or ``"parallel"`` / ``"pcset"`` —
        unit-delay compiled cores that additionally expose the
        intra-cycle waveforms via :meth:`step` with ``record=True``.
    partitions, tiles:
        Must be 1 (see :func:`~repro.simbase.check_pinned`).

    ``machine`` is the clocked program's machine on the zero-delay
    engine and ``None`` on the per-cycle ones.
    """

    ENGINES = ("lcc", "parallel", "pcset")

    def __init__(
        self,
        sequential: SequentialCircuit,
        *,
        engine: str = "lcc",
        backend: str = "python",
        word_width: int = 32,
        tiles: int = 1,
        partitions: int = 1,
    ) -> None:
        check_pinned(partitions, tiles)
        if engine not in self.ENGINES:
            raise SimulationError(f"unknown engine: {engine!r}")
        self.sequential = sequential
        self.engine = engine
        self.backend = backend
        core = sequential.core
        self._inputs = list(sequential.external_inputs)
        self._input_set = frozenset(self._inputs)
        self._core_inputs = core.inputs
        self._outputs = list(sequential.external_outputs)
        self.machine: Optional[Machine] = None
        self._sim = None
        monitored = sorted(
            set(sequential.external_outputs)
            | set(sequential.flipflops.values())
        )
        if engine == "lcc":
            program = generate_lcc_program(
                core, word_width=word_width,
                emit_outputs=self._outputs,
                flipflops=sequential.flipflops,
            )
            self.machine = compile_program(program, backend)
            # The generator declares one state variable per net, in
            # core.nets order; the Q variables hold the flip-flops.
            index_of = {net: i for i, net in enumerate(core.nets)}
            self._q_words = [index_of[q] for q in sequential.flipflops]
        elif engine == "parallel":
            from repro.parallel.simulator import ParallelSimulator

            self._sim = ParallelSimulator(
                core, optimization="pathtrace+trim",
                backend=backend, word_width=word_width,
                monitored=monitored,
            )
        else:
            from repro.pcset.simulator import PCSetSimulator

            self._sim = PCSetSimulator(
                core, backend=backend, word_width=word_width,
                monitored=monitored,
            )
        #: Driver-loop totals (cycles as "vectors"), mirroring the
        #: machine-level :class:`BatchCounters` the combinational
        #: engines keep — the clocked loop is the unit of work here.
        self.counters = BatchCounters()
        self.reset()

    # ------------------------------------------------------------------
    @property
    def state(self) -> dict[str, int]:
        """Flip-flop values (keyed by Q net) after the last cycle."""
        if self.machine is None:
            return dict(self._state)
        words = self.machine.dump_state()
        return {
            q: words[i] & 1
            for q, i in zip(self.sequential.flipflops, self._q_words)
        }

    def reset(self, state: Optional[Mapping[str, int]] = None) -> None:
        """Set the flip-flop state (default all zeros).

        Unknown keys in ``state`` raise :class:`SimulationError` — a
        typo'd flip-flop name must not be silently dropped — and so
        does a value that is not an integer.
        """
        flipflops = self.sequential.flipflops
        if state is None:
            bits = self.sequential.initial_state()
        else:
            missing = [q for q in flipflops if q not in state]
            if missing:
                raise SimulationError(
                    f"state missing flip-flops: {missing[:5]}"
                )
            unknown = sorted(q for q in state if q not in flipflops)
            if unknown:
                raise SimulationError(
                    f"state has unknown flip-flops: {unknown[:5]}"
                )
            bits = {}
            for q in flipflops:
                value = state[q]
                if not isinstance(value, int):
                    raise SimulationError(
                        f"flip-flop {q!r}: state value {value!r} is "
                        f"not an integer"
                    )
                bits[q] = value & 1
        if self.machine is None:
            self._state = bits
            self._previous = None
        else:
            # Every other variable is rewritten before it is read.
            words = [0] * self.machine.num_state
            for q, i in zip(flipflops, self._q_words):
                words[i] = bits[q]
            self.machine.load_state(words)
        self.cycle = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The machine state needed to resume bit-identically.

        That is the flip-flop state plus the cycle count, and on the
        unit-delay engines, once a cycle has run, its core input
        vector as ``"previous"``: the next cycle's intra-cycle history
        starts from that vector's steady state.
        """
        snapshot = {"state": self.state, "cycle": self.cycle}
        if self.machine is None and self._previous is not None:
            snapshot["previous"] = list(self._previous)
        return snapshot

    def restore(self, snapshot: Mapping) -> None:
        """Resume from a :meth:`snapshot` (or checkpoint payload).

        A payload without ``"previous"`` (a replay checkpoint) settles
        the first resumed cycle from its own inputs, as after
        :meth:`reset`; only its recorded history differs.
        """
        self.reset(snapshot["state"])
        self.cycle = int(snapshot["cycle"])
        previous = snapshot.get("previous")
        if previous is not None and self.machine is None:
            self._sim.reset(previous)
            self._previous = list(previous)

    # ------------------------------------------------------------------
    def _encode(
        self, rows: list
    ) -> tuple[bytes, int, Optional[SimulationError]]:
        """The batch boundary: rows as one 0/1 byte per external input.

        Returns ``(block, good, error)``: the rows before the first bad
        one, encoded, their number, and the bad row's error (``None``
        when every row is good).
        """
        parts = []
        for offset, row in enumerate(rows):
            try:
                parts.append(self._row_bits(row, self.cycle + offset))
            except SimulationError as error:
                return b"".join(parts), offset, error
        return b"".join(parts), len(rows), None

    def _row_bits(
        self, row: "Mapping[str, int] | Sequence[int]", cycle: int
    ) -> bytes:
        """One row of :meth:`_encode`, its values masked to bit 0.

        Accepts a mapping over the external input names, or a plain
        sequence in ``sequential.external_inputs`` order (the tape
        layout).  Unknown mapping keys raise — in particular a Q-net
        key, which would otherwise shadow the flip-flop state.  The
        happy path is the plain comprehension; only a ``TypeError`` out
        of it (``"1" & 1``, ``None & 1``) pays for the search that
        names the input.
        """
        inputs = self._inputs
        if isinstance(row, Mapping):
            unknown = sorted(k for k in row if k not in self._input_set)
            if unknown:
                raise SimulationError(
                    f"cycle {cycle}: unknown inputs: {unknown[:5]}"
                )
            missing = [n for n in inputs if n not in row]
            if missing:
                raise SimulationError(
                    f"cycle {cycle}: inputs missing: {missing[:5]}"
                )
            values = [row[n] for n in inputs]
        else:
            values = list(row)
            if len(values) != len(inputs):
                raise SimulationError(
                    f"cycle {cycle}: input vector has {len(values)} "
                    f"values for {len(inputs)} external inputs"
                )
        try:
            return bytes([value & 1 for value in values])
        except TypeError:
            for name, value in zip(inputs, values):
                if not isinstance(value, int):
                    raise SimulationError(
                        f"cycle {cycle}, input {name!r}: value "
                        f"{value!r} is not an integer"
                    )
            raise

    def _cycle(self, row: bytes, record: bool = False):
        """One clock cycle of a unit-delay engine.

        Returns the external outputs as bytes and, with ``record``,
        the intra-cycle per-net change lists.
        """
        merged = dict(zip(self._inputs, row))
        merged.update(self._state)
        vector = [merged[n] for n in self._core_inputs]
        history = None
        if self._previous is None:
            # Unit-delay cores start from the previous steady state;
            # the first cycle settles from the current state/input.
            self._sim.reset(vector)
        if record:
            history = self._sim.apply_vector_history(vector)
            settled = {
                net_name: changes[-1][1]
                for net_name, changes in history.items()
            }
        else:
            self._sim.apply_vector(vector)
            settled = self._sim.final_values()
        self._state = {
            q: settled[d] & 1
            for q, d in self.sequential.flipflops.items()
        }
        self._previous = vector
        self.cycle += 1
        return bytes([settled[o] & 1 for o in self._outputs]), history

    def apply_bits(self, block: bytes, count: int) -> bytes:
        """Clock ``count`` cycles given as bytes; return the outputs.

        ``block`` holds one byte per external input, cycle after
        cycle, every byte 0 or 1 (the layout of
        :meth:`~repro.replay.tape.Tape.read_bits`).  The result holds
        one 0/1 byte per external output, cycle after cycle, sampled
        before each clock edge.  The zero-delay engine clocks the whole
        block in one kernel call; the other engines settle one cycle at
        a time.

        The batch runs under a ``seq.run`` telemetry span; the
        ``seq.cycles``/``seq.batches`` counters and this simulator's
        :class:`BatchCounters` record *completed* cycles even when a
        mid-batch cycle raises.
        """
        width = len(self._inputs)
        if len(block) != count * width:
            raise SimulationError(
                f"bit block has {len(block)} bytes, expected {count} "
                f"cycles of {width} inputs"
            )
        started = self.cycle
        t0 = time.perf_counter()
        try:
            with telemetry.span("seq.run", engine=self.engine):
                if self.machine is not None:
                    out = self.machine.run_bit_rows(block, count)
                    self.cycle += count
                    return out
                return b"".join([
                    self._cycle(block[i * width:(i + 1) * width])[0]
                    for i in range(count)
                ])
        finally:
            completed = self.cycle - started
            self.counters.record(completed, time.perf_counter() - t0)
            if telemetry.enabled():
                telemetry.counter("seq.batches")
                telemetry.counter("seq.cycles", completed)

    # ------------------------------------------------------------------
    def step(
        self,
        inputs: "Mapping[str, int] | Sequence[int]",
        record: bool = False,
    ):
        """Advance one clock cycle.

        Returns ``outputs`` (external outputs sampled *before* the
        edge, i.e. the settled values of this cycle), or
        ``(outputs, history)`` with ``record`` on a unit-delay engine —
        ``history`` being the intra-cycle per-net change lists.
        """
        if not record:
            return self.apply_vectors([inputs])[0]
        if self.engine == "lcc":
            raise SimulationError(
                "intra-cycle recording needs a unit-delay engine "
                "(parallel or pcset)"
            )
        block, _good, error = self._encode([inputs])
        if error is not None:
            raise error
        out, history = self._cycle(block, record=True)
        return dict(zip(self._outputs, out)), history

    def apply_vectors(
        self,
        input_sequence: "Sequence[Mapping[str, int] | Sequence[int]]",
    ) -> list[dict[str, int]]:
        """Clock through a batch of input vectors; return per-cycle outputs.

        Cycle-identical to calling :meth:`step` per entry: the batch is
        encoded once and clocked through :meth:`apply_bits`.  A bad
        vector — unknown or missing inputs, a wrong length, a value
        that is not an integer — raises :class:`SimulationError`
        naming its cycle once the cycles before it have run (see the
        module docstring for the partial-progress contract).
        """
        block, good, error = self._encode(list(input_sequence))
        out = self.apply_bits(block, good)
        if error is not None:
            raise error
        names = self._outputs
        width = len(names)
        return [
            dict(zip(names, out[i * width:(i + 1) * width]))
            for i in range(good)
        ]

    def run(
        self,
        input_sequence: "Sequence[Mapping[str, int] | Sequence[int]]",
    ) -> list[dict[str, int]]:
        """Clock through a sequence of input vectors; return outputs."""
        return self.apply_vectors(input_sequence)
