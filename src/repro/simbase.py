"""Shared behaviour of the compiled-simulator facades.

Every compiled technique (PC-set, parallel, and their optimized
variants) wraps a generated :class:`~repro.codegen.program.Program` the
same way: compile it on a backend, seed the persistent state from a
zero-delay steady state, feed vectors, decode outputs.  This module
hosts that common machinery; the technique-specific subclasses provide
only the program generation and the state encoding/decoding.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.codegen.packing import (
    lane_segments,
    packed_apply,
    packing_mode,
    select_lanes,
    select_tiles,
)
from repro.codegen.probes import ProbePlan, ProbeRuntime
from repro.codegen.program import Program
from repro.codegen.runtime import (
    BatchCounters,
    CMachine,
    Machine,
    compile_program,
)
from repro.errors import SimulationError
from repro.eventsim.zerodelay import steady_state
from repro.netlist.circuit import Circuit

__all__ = ["CompiledSimulator", "check_partitions"]


def check_partitions(partitions: int) -> None:
    """Accept only ``partitions=1``.

    Partitioned execution was removed; the keyword remains on the
    facades callers already pin to 1, and anything else is an error
    rather than a silent monolithic run.
    """
    if partitions != 1:
        raise SimulationError(
            "partitioned execution was removed; partitions must be 1: "
            f"{partitions!r}"
        )


class CompiledSimulator:
    """Base class for compiled unit-delay simulator facades.

    Parameters
    ----------
    circuit:
        The acyclic circuit being simulated.
    program:
        The generated program (built by the subclass).
    backend:
        ``"python"`` (default) or ``"c"``.
    with_outputs:
        When false, the program's output section is dropped before
        compilation — the configuration benchmarks time, matching the
        paper's methodology of excluding output handling from
        measurements.  Output-decoding APIs then raise.
    partitions:
        Must be 1 (see :func:`check_partitions`).
    tiles:
        Tiled/laned batch width: an explicit ``K >= 1`` forces K tiles
        (pattern-packable programs: ``word_width * K`` lanes per pass)
        or K lanes (shift programs with ``state_carry="finals"``: one
        word per lane, the batch split into K contiguous segments);
        ``"auto"`` picks per batch (see
        :func:`~repro.codegen.packing.select_tiles` /
        :func:`~repro.codegen.packing.select_lanes`).  ``1`` (default)
        is the historical single-word behaviour.  Results are
        bit-identical either way.
    """

    def __init__(
        self,
        circuit: Circuit,
        program: Program,
        *,
        backend: str = "python",
        with_outputs: bool = True,
        checksum_mask: Optional[int] = None,
        partitions: int = 1,
        tiles: "int | str" = 1,
        probe_plan: Optional[ProbePlan] = None,
        packing_override: Optional[str] = None,
        **backend_kwargs,
    ) -> None:
        check_partitions(partitions)
        self.circuit = circuit
        self.program = program
        self.backend = backend
        self.with_outputs = with_outputs
        self.checksum_mask = (
            checksum_mask if checksum_mask is not None else program.word_mask
        )
        if tiles != "auto":
            tiles = int(tiles)
            if tiles < 1:
                raise SimulationError(f"tiles must be >= 1: {tiles}")
        self.tiles = tiles
        compiled = program if with_outputs else program.without_output()
        self._compiled_program = compiled
        self._backend_kwargs = backend_kwargs
        self._tiled_machines: dict[int, Machine] = {}
        self.machine: Machine = compile_program(
            compiled, backend, **backend_kwargs
        )
        #: Pattern-lane packing eligibility of the *compiled* program
        #: (``"full"``/``"settled"``/``"none"`` — see
        #: :mod:`repro.codegen.packing`).  Programs with shifts or
        #: negates (the §3 parallel technique's time-shift code) are
        #: ``"none"`` and always run scalar; the PC-set method is
        #: ``"settled"`` (its zero-element moves read previous-vector
        #: finals), so only settled-value observers may pack it.
        #: Probe-instrumented programs pass the *uninstrumented*
        #: program's mode via ``packing_override`` — the probe
        #: statements use popcounts and shifts that are lane-safe by
        #: construction but would classify the program ``"none"``.
        self.packing_mode = (
            packing_override if packing_override is not None
            else packing_mode(compiled)
        )
        self.probe_plan = probe_plan
        self._probe_runtime = (
            ProbeRuntime(probe_plan, program)
            if probe_plan is not None else None
        )
        self._inputs = circuit.inputs
        self._settled = False

    # ------------------------------------------------------------------
    # state seeding
    # ------------------------------------------------------------------
    def reset(
        self, vector: Mapping[str, int] | Sequence[int] | None = None
    ) -> None:
        """Seed the previous-vector steady state.

        Settles the circuit on ``vector`` (default: all zeros) with a
        zero-delay evaluation and loads the resulting values into the
        persistent variables, encoded however the technique requires.
        """
        if vector is None:
            vector = [0] * len(self._inputs)
        with telemetry.span("seed"):
            settled = steady_state(self.circuit, vector)
            state = self._encode_state(settled)
            if self.probe_plan is not None:
                if self._settled and self._probe_runtime is not None:
                    # Keep whatever the counters accumulated so far;
                    # the reload below would silently discard it.
                    self._probe_runtime.drain(self.machine)
                state = state + [0] * self.probe_plan.state_pad
            self.machine.load_state(state)
        self._settled = True

    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        """Persistent-state words for a constant-history steady state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _vector_words(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        if isinstance(vector, Mapping):
            missing = [n for n in self._inputs if n not in vector]
            if missing:
                raise SimulationError(f"vector missing inputs: {missing}")
            return [vector[n] & 1 for n in self._inputs]
        values = list(vector)
        if len(values) != len(self._inputs):
            raise SimulationError(
                f"vector has {len(values)} values, expected "
                f"{len(self._inputs)}"
            )
        return [value & 1 for value in values]

    def apply_vector(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """Simulate one vector; returns the raw emitted output words."""
        if not self._settled:
            raise SimulationError("call reset() before apply_vector()")
        out = self.machine.step(self._vector_words(vector))
        if self._probe_runtime is not None:
            self._probe_runtime.note_vectors(self.machine, 1)
        return out

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Simulate a batch; returns per-vector raw output words.

        Bit-identical to ``[self.apply_vector(v) for v in vectors]``.
        When the compiled program is ``"full"``-mode packable
        (shift-free *and* memoryless), the batch is auto-packed —
        ``word_width`` vectors per compiled pass, times the tile count
        when ``tiles > 1`` — exact scalar words reconstructed on
        unpacking.  Shift programs (the §3 parallel technique) whose
        generator declares ``state_carry="finals"`` run *laned* when
        ``tiles`` allows: the batch splits into K contiguous segments,
        each lane owning its own word so the time-shift ops move
        history within the lane, with lanes 1..K-1 seeded from the
        steady state of the preceding segment's last vector (exactly
        what the finals contract guarantees reproduces the chain).
        ``"settled"`` programs (the PC-set method) emit
        intermediate-time values with opaque cross-pass state and keep
        the scalar ``run_block`` loop with no behavior change.
        """
        if not self._settled:
            raise SimulationError("call reset() before apply_vectors()")
        words = [self._vector_words(vector) for vector in vectors]
        if (self.packing_mode == "full" and self._inputs
                and self.probe_plan is None):
            telemetry.counter("packing.packed_batches")
            return packed_apply(self._packed_machine(len(words)), words)
        lanes = self._batch_lanes(len(words))
        if lanes > 1:
            telemetry.counter("packing.laned_batches")
            return self._run_laned(words, lanes, collect=True)
        telemetry.counter(f"packing.fallback.{self.packing_mode}")
        if self._probe_runtime is not None and words:
            # Chunked so no compiled counter can wrap between drains.
            out: list[list[int]] = []
            for start, length in self._probe_runtime.chunk_vectors(
                len(words)
            ):
                out.extend(self.machine.step_many(
                    words[start:start + length], masked=True
                ))
                self._probe_runtime.note_vectors(self.machine, length)
            return out
        return self.machine.step_many(words, masked=True)

    # ------------------------------------------------------------------
    # tiled / laned execution
    # ------------------------------------------------------------------
    def _tiled_machine(self, tiles: int) -> Machine:
        """The K-tile compilation of this program (memoized per K)."""
        machine = self._tiled_machines.get(tiles)
        if machine is None:
            machine = compile_program(
                self._compiled_program, self.backend, tiles=tiles,
                **self._backend_kwargs,
            )
            self._tiled_machines[tiles] = machine
        return machine

    def _packed_machine(self, num_vectors: int) -> Machine:
        """The machine for a pattern-packed batch of ``num_vectors``.

        Explicit ``tiles=K`` forces K on any backend; ``"auto"``
        consults :func:`~repro.codegen.packing.select_tiles`.  K is
        clamped to the number of packed groups the batch actually
        fills, so small batches never pay for idle tiles.
        """
        width = self.program.word_width
        if self.tiles == "auto":
            tiles = select_tiles(num_vectors, width, backend=self.backend)
        else:
            tiles = self.tiles
        if num_vectors:
            tiles = max(1, min(tiles, -(-num_vectors // width)))
        else:
            tiles = 1
        if tiles == 1:
            return self.machine
        return self._tiled_machine(tiles)

    def _batch_lanes(self, num_vectors: int) -> int:
        """Lane count for a shift-program batch (1 = scalar loop)."""
        if self.program.state_carry != "finals" or not self._inputs:
            return 1
        if self.probe_plan is not None:
            # The lane handoff keeps only the last lane's state, which
            # would discard every other lane's probe counters.
            return 1
        if self.tiles == "auto":
            lanes = select_lanes(num_vectors, backend=self.backend)
        else:
            lanes = self.tiles
        return max(1, min(lanes, num_vectors))

    def _lane_plan(self, words: list[list[int]], lanes: int):
        """Segments, padded slot-major pass rows, and lane seeds.

        Lane ``t`` owns the contiguous vector range
        ``starts[t] .. starts[t] + segs[t] - 1``; shorter lanes are
        padded by repeating their last vector (those passes' outputs
        are discarded and no other lane reads their state).  Seeds for
        lanes 1..K-1 are the technique's encoding of the steady state
        on the previous segment's last vector — by the
        ``state_carry="finals"`` contract this reproduces the true
        vector chain bit for bit.  Lane 0 continues from the live
        scalar state, which is read at *run* time.
        """
        segments = lane_segments(len(words), lanes)
        max_len = max(length for _start, length in segments)
        num_inputs = len(self._inputs)
        rows = []
        for p in range(max_len):
            row = []
            for k in range(num_inputs):
                for start, length in segments:
                    i = p if p < length else length - 1
                    row.append(words[start + i][k])
            rows.append(row)
        seeds = [
            self._encode_state(
                steady_state(self.circuit, words[start - 1])
            )
            for start, _length in segments[1:]
        ]
        return segments, rows, seeds

    def _seed_lanes(
        self, machine: Machine, seeds: list[list[int]]
    ) -> int:
        """Load per-lane state into a tiled machine; lane 0 = live state."""
        lanes = machine.tiles
        lane_states = [self.machine.dump_state()] + seeds
        num_state = len(lane_states[0])
        full = [0] * (num_state * lanes)
        for s in range(num_state):
            for t in range(lanes):
                full[s * lanes + t] = lane_states[t][s]
        machine.load_state(full)
        return num_state

    def _handoff_lanes(self, machine: Machine, num_state: int) -> None:
        """Continue the scalar chain from the last lane's final state."""
        lanes = machine.tiles
        after = machine.dump_state()
        self.machine.load_state(
            [after[s * lanes + lanes - 1] for s in range(num_state)]
        )

    def _run_laned(
        self, words: list[list[int]], lanes: int, *, collect: bool
    ) -> Optional[list[list[int]]]:
        """Run a shift-program batch K lanes at a time, bit-identically."""
        machine = self._tiled_machine(lanes)
        segments, rows, seeds = self._lane_plan(words, lanes)
        num_state = self._seed_lanes(machine, seeds)
        with telemetry.span("pack.shift", lanes=lanes):
            flat: Optional[list[int]] = [] if collect else None
            machine.run_block(rows, flat, masked=True)
            telemetry.counter("pack.shift.batches")
            telemetry.counter("pack.shift.vectors", len(words))
        # run_block counted passes; restate lanes actually represented.
        machine.counters.vectors += len(words) - len(rows)
        self._handoff_lanes(machine, num_state)
        if not collect:
            return None
        emits = machine.num_outputs // lanes
        per_row = machine.num_outputs
        out: list[list[int]] = []
        assert flat is not None
        for t, (_start, length) in enumerate(segments):
            for p in range(length):
                base = p * per_row
                out.append(
                    [flat[base + o * lanes + t] for o in range(emits)]
                )
        return out

    def prepare_batch(self, vectors: Sequence[Sequence[int]]):
        """Marshal a batch once, outside any timed region.

        On the C backend the batch becomes one contiguous native buffer
        driven by the generated ``run_block`` loop, so the timed region
        contains no interpreter work at all (the paper's timing loop
        was compiled too).  On the Python backend the vectors are
        pre-marshalled and the timed run is a single batched send into
        the generated coroutine's in-frame loop.  Laned shift programs
        (``tiles > 1`` on a ``state_carry="finals"`` program) also
        compute the segment rows and steady-state lane seeds here;
        only the lane-0 live state is read at run time.
        """
        with telemetry.span("pack"):
            words = [self._vector_words(vector) for vector in vectors]
            lanes = self._batch_lanes(len(words))
            if lanes > 1:
                machine = self._tiled_machine(lanes)
                _segs, rows, seeds = self._lane_plan(words, lanes)
                if isinstance(machine, CMachine):
                    return (
                        "lane-c", machine, machine.pack_block(rows),
                        len(rows), len(words), seeds,
                    )
                return ("lane-py", machine, rows, len(words), seeds)
            if isinstance(self.machine, CMachine):
                if self._probe_runtime is not None and words:
                    # Pre-pack in wrap-free chunks (one chunk at any
                    # realistic word width; tiny widths get several).
                    chunk = self._probe_runtime.chunk
                    parts = [
                        (
                            self.machine.pack_block(words[i:i + chunk]),
                            min(chunk, len(words) - i),
                        )
                        for i in range(0, len(words), chunk)
                    ]
                    return ("c-probe", parts)
                return ("c", self.machine.pack_block(words), len(words))
            return ("py", words)

    def run_prepared(self, prepared) -> None:
        """Run a batch produced by :meth:`prepare_batch`."""
        if not self._settled:
            raise SimulationError("call reset() before running")
        kind = prepared[0]
        if kind == "c":
            self.machine.run_packed(prepared[1], prepared[2])
            self._note_probe_vectors(prepared[2])
            return
        if kind == "c-probe":
            assert self._probe_runtime is not None
            # Start from zeroed counters so each pre-packed chunk has
            # the full wrap-free budget.
            self._probe_runtime.drain(self.machine)
            for packed, count in prepared[1]:
                self.machine.run_packed(packed, count)
                self._probe_runtime.note_vectors(self.machine, count)
            return
        if kind == "lane-c":
            _, machine, packed, passes, num_vectors, seeds = prepared
            num_state = self._seed_lanes(machine, seeds)
            with telemetry.span("pack.shift", lanes=machine.tiles):
                machine.run_packed(
                    packed, passes, vectors_represented=num_vectors
                )
                telemetry.counter("pack.shift.batches")
                telemetry.counter("pack.shift.vectors", num_vectors)
            self._handoff_lanes(machine, num_state)
            return
        if kind == "lane-py":
            _, machine, rows, num_vectors, seeds = prepared
            num_state = self._seed_lanes(machine, seeds)
            with telemetry.span("pack.shift", lanes=machine.tiles):
                machine.run_block(rows, masked=True)
                telemetry.counter("pack.shift.batches")
                telemetry.counter("pack.shift.vectors", num_vectors)
            machine.counters.vectors += num_vectors - len(rows)
            self._handoff_lanes(machine, num_state)
            return
        rows = prepared[1]
        if self._probe_runtime is not None and rows:
            for start, length in self._probe_runtime.chunk_vectors(len(rows)):
                self.machine.run_block(rows[start:start + length], masked=True)
                self._probe_runtime.note_vectors(self.machine, length)
            return
        self.machine.run_block(rows, masked=True)

    def _note_probe_vectors(self, count: int) -> None:
        if self._probe_runtime is not None and count:
            self._probe_runtime.note_vectors(self.machine, count)

    def run_batch(self, vectors: Sequence[Sequence[int]]) -> None:
        """Simulate many vectors back to back (the timing fast path)."""
        self.run_prepared(self.prepare_batch(vectors))

    def run_batch_checksum(self, vectors: Sequence[Sequence[int]]) -> int:
        """Simulate many vectors and fold all emitted outputs.

        Requires ``with_outputs=True``.  Used to cross-check that two
        backends (or two techniques with identical output routines)
        compute the same results.
        """
        if not self.with_outputs:
            raise SimulationError(
                "simulator was built without outputs; cannot checksum"
            )
        checksum = 0
        mask = self.checksum_mask
        for out in self.apply_vectors(vectors):
            folded = 0
            for value in out:
                folded = ((folded << 7) | (folded >> 55)) & (2**62 - 1)
                folded ^= value & mask
            checksum ^= folded
        return checksum

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    @property
    def probe_runtime(self) -> Optional[ProbeRuntime]:
        return self._probe_runtime

    def activity_report(self):
        """Drain the compiled-in probe counters into an ActivityReport.

        Requires the simulator to have been built with ``probes=``.
        The report is cumulative since construction (or the last
        checkpoint restore) and bit-identical to the history-based
        :func:`repro.activity.collect_activity` over the same vectors.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; no activity "
                "counters to report"
            )
        self._probe_runtime.drain(self.machine)
        return self._probe_runtime.report()

    def capture_trace(
        self,
        vectors: Sequence[Mapping[str, int] | Sequence[int]],
        writer,
        nets: Optional[Sequence[str]] = None,
    ) -> None:
        """Stream selected nets' settling histories into a VCD writer.

        One vector at a time: each history is decoded and handed to
        ``writer.add_vector`` immediately, so the batch's histories
        are never materialized together.  ``nets`` defaults to the
        probe spec's ``trace_nets`` (every net when unset).
        """
        if nets is None:
            if (self.probe_plan is not None
                    and self.probe_plan.spec.trace_nets):
                nets = self.probe_plan.spec.trace_nets
            else:
                nets = list(self.circuit.nets)
        for vector in vectors:
            history = self.apply_vector_history(vector)
            writer.add_vector({n: history[n] for n in nets})

    # ------------------------------------------------------------------
    @property
    def counters(self):
        """Per-batch throughput counters of the underlying machine(s).

        With no tiled machines instantiated this *is* the scalar
        machine's live counter object (so ``reset()`` on it works as
        before); once tiled/laned batches have run, an aggregate over
        every machine is returned.
        """
        if not self._tiled_machines:
            return self.machine.counters
        total = BatchCounters()
        for machine in (self.machine, *self._tiled_machines.values()):
            total.batches += machine.counters.batches
            total.vectors += machine.counters.vectors
            total.seconds += machine.counters.seconds
        return total

    def output_labels(self) -> list[tuple]:
        return self.machine.output_labels()

    def source(self) -> str:
        """The generated source the machine was compiled from."""
        return getattr(self.machine, "source", "")
