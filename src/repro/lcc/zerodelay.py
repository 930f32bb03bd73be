"""Zero-delay LCC code generation and simulation (Fig. 1).

One variable per net; one statement per gate, in levelized order.  Each
run settles the circuit on a vector, so this simulator also provides the
compiled steady-state engine used to seed the unit-delay simulators.

Because the generated code is purely bit-wise (no shifts), the very same
program simulates ``word_width`` independent vectors at once when the
inputs are packed one vector per bit — classic compiled zero-delay
bit-parallelism, reproduced here for the §5 "1/23" comparison.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.analysis.levelize import levelize
from repro.codegen.gates import gate_expression
from repro.codegen.naming import NameAllocator
from repro.codegen.packing import (
    bit_block,
    pack_patterns,
    packed_apply,
    packed_bits,
    packing_mode,
    validate_packed_words,
)
from repro.codegen.probes import (
    ProbeRuntime,
    ProbeSpec,
    instrument_lcc_program,
)
from repro.codegen.program import Assign, Emit, Input, Program, Var
from repro.codegen.runtime import CMachine, Machine, compile_program
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simbase import check_pinned

__all__ = ["generate_lcc_program", "LCCSimulator"]


def generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int = 32,
    emit_outputs: bool = True,
) -> Program:
    """Generate the zero-delay LCC program for a circuit.

    Input slot ``k`` carries the value(s) of the ``k``-th primary input:
    bit ``j`` belongs to packed vector ``j``, so passing plain 0/1 values
    simulates a single vector.
    """
    with telemetry.span("emit", technique="lcc", circuit=circuit.name):
        return _generate_lcc_program(
            circuit, word_width=word_width, emit_outputs=emit_outputs
        )


def _generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int,
    emit_outputs: bool,
) -> Program:
    program = Program(
        f"lcc_{circuit.name}",
        word_width=word_width,
        inputs=circuit.inputs,
        mask_assignments=False,
    )
    names = NameAllocator()
    for net_name in circuit.nets:
        program.declare(names.get(net_name))
    for slot, net_name in enumerate(circuit.inputs):
        program.init.append(Assign(names.get(net_name), Input(slot)))
    levels = levelize(circuit)
    ordered = sorted(
        circuit.topological_gates(),
        key=lambda g: (levels.gate_levels[g.name], g.name),
    )
    for gate in ordered:
        operands = [Var(names.get(i)) for i in gate.inputs]
        program.body.append(
            Assign(names.get(gate.output),
                   gate_expression(gate.gate_type, operands))
        )
    if emit_outputs:
        for net_name in circuit.outputs:
            program.output.append(
                Emit(Var(names.get(net_name)), (net_name,))
            )
    program.validate()
    return program


class LCCSimulator:
    """Compiled zero-delay simulator.

    ``backend`` is ``"python"`` or ``"c"``.  ``evaluate`` settles one
    vector and returns the monitored outputs; ``apply_vectors`` settles
    a whole batch with the vector loop inside the generated code;
    ``run_batch`` times many vectors and folds a checksum compatible
    with the interpreted
    :class:`repro.eventsim.zerodelay.ZeroDelaySimulator`.

    Pattern-lane packing: the LCC program is shift-free and memoryless
    (:func:`repro.codegen.packing.packing_mode` returns ``"full"``), so
    batches of plain 0/1 vectors are automatically transposed into lane
    words and driven ``word_width`` vectors per compiled pass.
    ``packed="auto"`` (default) packs whenever the batch is eligible
    (all values 0/1); ``packed=False`` forces the scalar
    ``run_block`` path — the paper's one-vector-per-pass
    configuration; ``packed=True`` requires packing and raises
    :class:`SimulationError` when a batch is ineligible.  Both paths
    are bit-identical in their results; only the per-pass lane count
    differs.  (The machine's persistent state is scratch for this
    memoryless program, so only outputs are specified across paths.)

    ``partitions`` and ``tiles`` must be 1 (see
    :func:`~repro.simbase.check_pinned`).

    Probes: ``probes=`` compiles per-net toggle counters into the
    generated pass (see :mod:`repro.codegen.probes`).  A pseudo-input
    carries the lane-occupancy mask, so packed batches count all
    ``word_width`` lanes with one popcount per net per pass.  Seed the
    baseline with :meth:`probe_reset`, run batches, then read
    :meth:`activity_report`.  Probed batches require plain 0/1
    vectors (the counters chain consecutive lanes as consecutive
    vectors).
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        backend: str = "python",
        word_width: int = 32,
        packed: bool | str = "auto",
        partitions: int = 1,
        tiles: int = 1,
        probes=None,
    ) -> None:
        check_pinned(partitions, tiles)
        if packed not in (True, False, "auto"):
            raise SimulationError(
                f"packed must be True, False or 'auto': {packed!r}"
            )
        spec = ProbeSpec.coerce(probes)
        self.circuit = circuit
        self.program = generate_lcc_program(circuit, word_width=word_width)
        #: ``"full"`` for every LCC program; kept as an attribute so the
        #: auto-pack decision reads as policy, not as an LCC special
        #: case.  Recorded *before* probe instrumentation — the probe
        #: statements use shifts and popcounts, which are lane-safe
        #: here by construction but would classify the program
        #: ``"none"``.
        self.packing_mode = packing_mode(self.program)
        self.probe_plan = (
            instrument_lcc_program(self.program, circuit, spec)
            if spec is not None else None
        )
        self.backend = backend
        self.machine: Machine = compile_program(self.program, backend)
        self._probe_runtime = (
            ProbeRuntime(self.probe_plan, self.program)
            if self.probe_plan is not None else None
        )
        self.word_width = word_width
        self.packed = packed
        self._inputs = circuit.inputs
        self._outputs = circuit.outputs

    def _batch(self, vectors) -> tuple[list, Optional[bytes]]:
        """The batch's rows and their :func:`bit_block` (``None``: not 0/1).

        The one boundary of :meth:`apply_vectors`/:meth:`run_batch`,
        whatever ``packed`` is: list and tuple vectors are used as
        given, any other vector (a ``Mapping`` keyed by input name, an
        iterator) goes through :meth:`_vector_list` first; then every
        length and every value's type is checked, and 0/1 eligibility
        decided, once over the whole batch.
        """
        rows = list(vectors)
        if not set(map(type, rows)) <= {list, tuple}:
            rows = [self._vector_list(vector) for vector in rows]
        return rows, bit_block(rows, len(self._inputs))

    def _packable(self, block: Optional[bytes]) -> bool:
        """May this batch take the packed path?

        ``apply_vectors`` accepts multi-bit words too (the classic
        packed-input mode of :meth:`evaluate_packed`); those already
        occupy all lanes, have no :func:`bit_block` and must go
        through the scalar path unchanged.
        """
        if self.packed is False or self.packing_mode != "full":
            if self.packed is True:
                raise SimulationError(
                    f"packed=True but program mode is "
                    f"{self.packing_mode!r}"
                )
            return False
        if not self._inputs:
            return False
        if block is None and self.packed is True:
            raise SimulationError(
                "packed=True requires plain 0/1 vectors (one lane each)"
            )
        return block is not None

    def _probe_words(
        self, words: Sequence[Sequence[int]]
    ) -> list[list[int]]:
        """Validate 0/1 vectors; append the ``__probe_en`` occupancy 1."""
        for word in words:
            for value in word:
                if value not in (0, 1):
                    raise SimulationError(
                        "probed runs take plain 0/1 vectors; the "
                        "counters chain lanes as consecutive vectors, "
                        "so pre-packed multi-bit words are not countable"
                    )
        return [[*word, 1] for word in words]

    def evaluate(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle on one vector; returns monitored output values."""
        values = self._vector_list(vector)
        if self._probe_runtime is not None:
            [values] = self._probe_words([values])
        out = self.machine.step(values)
        if self._probe_runtime is not None:
            self._probe_runtime.note_vectors(self.machine, 1)
        return {name: value & 1 for name, value in zip(self._outputs, out)}

    def evaluate_packed(
        self, vector: Sequence[int]
    ) -> dict[str, int]:
        """Settle ``word_width`` packed vectors at once.

        Slot ``k`` of ``vector`` carries bit ``j`` = value of input ``k``
        in packed vector ``j``; the returned words are packed the same
        way.  Words are validated against the word width up front —
        an oversized word would be truncated by the C backend (and not
        by the Python one), silently corrupting whole lanes.
        """
        if self._probe_runtime is not None:
            raise SimulationError(
                "evaluate_packed carries word_width unrelated vectors "
                "per call; probe counting chains lanes as consecutive "
                "vectors — use apply_vectors with 0/1 vectors instead"
            )
        words = self._vector_list(vector)
        validate_packed_words(
            words, self.word_width, context="packed input word"
        )
        out = self.machine.step(words)
        return dict(zip(self._outputs, out))

    def evaluate_all_nets(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle and return every net's value (from machine state)."""
        values = self._vector_list(vector)
        if self._probe_runtime is not None:
            [values] = self._probe_words([values])
        self.machine.step(values)
        if self._probe_runtime is not None:
            self._probe_runtime.note_vectors(self.machine, 1)
        state = self.machine.state_dict()
        # State variable order matches circuit.nets insertion order
        # (probe state is declared after every net variable).
        return {
            net_name: state[var] & 1
            for net_name, var in zip(self.circuit.nets, state)
        }

    def _vector_list(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        if isinstance(vector, Mapping):
            missing = [n for n in self._inputs if n not in vector]
            if missing:
                raise SimulationError(f"vector missing inputs: {missing}")
            return [vector[n] for n in self._inputs]
        values = list(vector)
        if len(values) != len(self._inputs):
            raise SimulationError(
                f"vector has {len(values)} values, expected "
                f"{len(self._inputs)}"
            )
        return values

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Settle a batch; returns per-vector raw output words.

        Bit-identical to ``[self.machine.step(v) for v in vectors]``.
        Eligible 0/1 batches are pattern-packed — ``word_width``
        vectors per compiled pass — and the exact scalar words are
        reconstructed on unpacking (:func:`packed_apply`; on the C
        backend the transposition and unpacking run inside the
        generated library); everything else runs through the scalar
        ``run_block`` loop.  A value that is not an ``int`` raises
        :class:`SimulationError` naming the vector and the input.
        """
        words, block = self._batch(vectors)
        if self._probe_runtime is not None:
            return self._probed_batch(words, block)
        if self._packable(block):
            telemetry.counter("packing.packed_batches")
            return packed_apply(self.machine, words, block=block)
        telemetry.counter("packing.fallback.scalar")
        return self.machine.step_many(words)

    def _probed_batch(
        self, words: list, block: Optional[bytes]
    ) -> list[list[int]]:
        """Run a 0/1 batch with toggle counting, chunked wrap-free.

        Packed when eligible (the occupancy input rides along as one
        extra column and the exact scalar words are reconstructed),
        scalar otherwise; either way the batch is split so no compiled
        counter can wrap between drains, and the counters observe
        every vector exactly once.
        """
        runtime = self._probe_runtime
        assert runtime is not None
        if not words:
            return []
        packable = self._packable(block)
        en_words = self._probe_words(words)
        telemetry.counter(
            "packing.packed_batches" if packable
            else "packing.fallback.scalar"
        )
        out: list[list[int]] = []
        for start, length in runtime.chunk_vectors(len(words)):
            chunk = en_words[start:start + length]
            if packable:
                out.extend(packed_apply(self.machine, chunk))
            else:
                out.extend(self.machine.step_many(chunk))
            runtime.note_vectors(self.machine, length)
        return out

    # ------------------------------------------------------------------
    # checksum folding
    # ------------------------------------------------------------------
    @property
    def _fold_bits(self) -> int:
        """Width of the checksum accumulator, derived from the word.

        ``2 * word_width - 2`` — at the historical default width of 32
        this is the 62-bit fold the interpreted
        :class:`~repro.eventsim.zerodelay.ZeroDelaySimulator` uses, so
        the two engines stay checksum-compatible; wider/narrower
        programs get a proportionally sized accumulator instead of a
        hardcoded rotate.
        """
        return 2 * self.word_width - 2

    def _fold(self, folded: int, bit: int) -> int:
        bits = self._fold_bits
        folded = ((folded << 1) | (folded >> (bits - 1))) & ((1 << bits) - 1)
        return folded ^ bit

    def run_batch(self, vectors: Sequence[Sequence[int]]) -> int:
        """Simulate many (unpacked) vectors; fold outputs to a checksum.

        The checksum folds each output's *logical* (bit-0) value, so the
        packed and scalar paths produce the same result; eligible
        batches run packed (one pass per ``word_width`` vectors).
        """
        words, block = self._batch(vectors)
        if self._probe_runtime is not None:
            rows = self._probed_batch(words, block)
        elif self._packable(block):
            telemetry.counter("packing.packed_batches")
            # packed_bits returns exactly the bit-0 values the fold
            # consumes.
            rows = packed_bits(self.machine, words, block=block)
        else:
            telemetry.counter("packing.fallback.scalar")
            rows = self.machine.step_many(words)
        checksum = 0
        for out in rows:
            folded = 0
            for value in out:
                folded = self._fold(folded, value & 1)
            checksum ^= folded
        return checksum

    # ------------------------------------------------------------------
    # prepared batches (timing fast path)
    # ------------------------------------------------------------------
    def prepare_batch(self, vectors: Sequence[Sequence[int]]):
        """Marshal a scalar batch once, outside any timed region.

        Mirrors :meth:`repro.simbase.CompiledSimulator.prepare_batch`:
        on the C backend the batch becomes one contiguous native
        buffer; on the Python backend a pre-marshalled word list.
        """
        with telemetry.span("pack"):
            words = [self._vector_list(vector) for vector in vectors]
            if self._probe_runtime is not None:
                rows = self._probe_words(words)
                return (
                    "probe",
                    self._probe_parts(rows, represented=None),
                    False,
                )
            if isinstance(self.machine, CMachine):
                return (
                    "c", self.machine.pack_block(words), len(words), None
                )
            mask = self.program.word_mask
            masked = [[value & mask for value in word] for word in words]
            return ("py", masked, len(words), None)

    def _probe_parts(self, rows, *, represented, group_lanes: int = 1):
        """Split pre-marshalled pass rows into wrap-free probe parts.

        ``group_lanes`` is the vectors-per-row factor (``word_width``
        for pattern-packed groups, 1 for scalar rows);
        ``represented=None`` marks scalar parts.  Each part is
        ``(payload, rows, vectors)`` with payload pre-packed on the C
        backend.
        """
        runtime = self._probe_runtime
        assert runtime is not None
        row_chunk = max(1, runtime.chunk // group_lanes)
        parts = []
        for i in range(0, len(rows), row_chunk):
            part = rows[i:i + row_chunk]
            if represented is None:
                vectors = len(part)
            else:
                vectors = min(represented - i * group_lanes,
                              len(part) * group_lanes)
            payload = (
                self.machine.pack_block(part)
                if isinstance(self.machine, CMachine) else part
            )
            parts.append((payload, len(part), vectors))
        return parts

    def prepare_packed(self, vectors: Sequence[Sequence[int]]):
        """Transpose + marshal a pattern batch outside the timed region.

        The timed run is then pure compiled passes —
        ``ceil(len(vectors) / word_width)`` of them.
        Raises :class:`SimulationError` when the batch is not packable
        (the caller asked for the packed configuration explicitly).
        """
        words = [self._vector_list(vector) for vector in vectors]
        if self.packing_mode != "full" or not self._inputs:
            raise SimulationError(
                f"program {self.program.name!r} is not pattern-packable "
                f"(mode {self.packing_mode!r})"
            )
        if self._probe_runtime is not None:
            # The occupancy column packs into exactly the lane mask
            # (a partial last group gets 0 for the unoccupied lanes),
            # and the previous-value chain carries across parts
            # through the machine state.
            en_words = self._probe_words(words)
            groups, _lane_counts = pack_patterns(
                en_words, self.word_width
            )
            return (
                "probe",
                self._probe_parts(
                    groups,
                    represented=len(words),
                    group_lanes=self.word_width,
                ),
                True,
            )
        groups, _lane_counts = pack_patterns(words, self.word_width)
        if isinstance(self.machine, CMachine):
            return (
                "c", self.machine.pack_block(groups), len(groups),
                len(words),
            )
        return ("py", groups, len(groups), len(words))

    def run_prepared(self, prepared) -> None:
        """Run a batch from :meth:`prepare_batch`/:meth:`prepare_packed`.

        Outputs are discarded — this is the timing fast path; the
        throughput counters record scalar vectors simulated either way.
        """
        if prepared[0] == "probe":
            runtime = self._probe_runtime
            assert runtime is not None
            # Start from zeroed counters so each pre-marshalled part
            # has the full wrap-free budget.
            runtime.drain(self.machine)
            _kind, parts, packed_groups = prepared
            for payload, count, vectors in parts:
                represented = vectors if packed_groups else None
                if isinstance(self.machine, CMachine):
                    self.machine.run_packed(
                        payload, count, vectors_represented=represented
                    )
                elif packed_groups:
                    self.machine.run_packed_block(
                        payload, vectors_represented=represented
                    )
                else:
                    self.machine.run_block(payload, masked=True)
                runtime.note_vectors(self.machine, vectors)
            return
        kind, payload, count, represented = prepared
        if kind == "c":
            self.machine.run_packed(
                payload, count, vectors_represented=represented
            )
        elif represented is None:
            self.machine.run_block(payload, masked=True)
        else:
            self.machine.run_packed_block(
                payload, vectors_represented=represented
            )

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    @property
    def probe_runtime(self) -> Optional[ProbeRuntime]:
        return self._probe_runtime

    def probe_reset(
        self, vector: Mapping[str, int] | Sequence[int] | None = None
    ) -> None:
        """Seed the toggle baseline from one settled (uncounted) vector.

        Settles ``vector`` (default all zeros), keeps the resulting
        per-net values as the previous-value bits, and zeroes the
        counters — the next batch's first vector toggles relative to
        this baseline, exactly like a zero-delay reference that starts
        from the same vector.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; nothing to seed"
            )
        if vector is None:
            vector = [0] * len(self._inputs)
        [values] = self._probe_words([self._vector_list(vector)])
        self.machine.step(values)
        self._probe_runtime.discard(self.machine)

    def activity_report(self):
        """Drain the compiled-in probe counters into an ActivityReport.

        Zero-delay simulation sees at most one transition per net per
        vector, so functional toggles equal total toggles and the
        glitch excess is zero by construction.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; no activity "
                "counters to report"
            )
        self._probe_runtime.drain(self.machine)
        return self._probe_runtime.report()
