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
from repro.codegen.packing import validate_packed_words
from repro.codegen.probes import ProbeSpec, instrument_lcc_program
from repro.codegen.program import Assign, Emit, Input, Program, Var
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simbase import CompiledSimulator, check_pinned, input_rows

__all__ = ["generate_lcc_program", "LCCSimulator"]


def generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int = 32,
    emit_outputs: "bool | Sequence[str]" = True,
    flipflops: Optional[Mapping[str, str]] = None,
) -> Program:
    """Generate the zero-delay LCC program for a circuit.

    Input slot ``k`` carries the value(s) of the ``k``-th primary input:
    bit ``j`` belongs to packed vector ``j``, so passing plain 0/1 values
    simulates a single vector.  ``emit_outputs`` is ``True`` (emit the
    primary outputs), ``False`` (no output section) or the nets to emit,
    in order.

    ``flipflops`` (``q_net -> d_net``) closes the circuit's flip-flops
    through program state, making one pass one clock cycle: each Q net
    is a state variable instead of an input slot (the inputs are the
    remaining primary inputs), and the output section first emits the
    outputs, sampled before the clock edge, then copies every D into
    its Q through one temporary per flip-flop, so chained flip-flops
    update together.
    """
    with telemetry.span("emit", technique="lcc", circuit=circuit.name):
        return _generate_lcc_program(
            circuit, word_width=word_width, emit_outputs=emit_outputs,
            flipflops=flipflops or {},
        )


def _generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int,
    emit_outputs: "bool | Sequence[str]",
    flipflops: Mapping[str, str],
) -> Program:
    inputs = [net for net in circuit.inputs if net not in flipflops]
    program = Program(
        f"lcc_{circuit.name}",
        word_width=word_width,
        inputs=inputs,
        mask_assignments=False,
    )
    names = NameAllocator()
    for net_name in circuit.nets:
        program.declare(names.get(net_name))
    for slot, net_name in enumerate(inputs):
        program.init.append(Assign(names.get(net_name), Input(slot)))
    levels = levelize(circuit)
    # (level, name) orders the gates totally, so any input order does;
    # levelize has already checked the circuit for cycles.
    ordered = sorted(
        circuit.gates.values(),
        key=lambda g: (levels.gate_levels[g.name], g.name),
    )
    for gate in ordered:
        operands = [Var(names.get(i)) for i in gate.inputs]
        program.body.append(
            Assign(names.get(gate.output),
                   gate_expression(gate.gate_type, operands))
        )
    if emit_outputs is True:
        emit_outputs = circuit.outputs
    for net_name in emit_outputs or ():
        program.output.append(
            Emit(Var(names.get(net_name)), (net_name,))
        )
    nexts = [
        program.declare_temp(names.get(("next", q), f"{q}_next"))
        for q in flipflops
    ]
    for temp, d in zip(nexts, flipflops.values()):
        program.output.append(Assign(temp, Var(names.get(d))))
    for q, temp in zip(flipflops, nexts):
        program.output.append(Assign(names.get(q), Var(temp)))
    return program


class LCCSimulator(CompiledSimulator):
    """Compiled zero-delay simulator.

    ``backend`` is ``"python"`` or ``"c"``.  ``evaluate`` settles one
    vector and returns the monitored outputs; ``apply_vectors`` settles
    a whole batch with the vector loop inside the generated code;
    ``run_batch`` times many vectors and folds a checksum compatible
    with the interpreted
    :class:`repro.eventsim.zerodelay.ZeroDelaySimulator`.  The program
    is memoryless, so no ``reset`` is needed before the first vector;
    batches run through the executor every compiled facade shares
    (:class:`~repro.simbase.CompiledSimulator`).

    Pattern-lane packing: the LCC program is shift-free and memoryless,
    so the facade declares packing mode ``"full"`` rather than
    classifying its program, and batches of plain 0/1 vectors are
    automatically transposed into lane words and driven
    ``word_width`` vectors per compiled pass.
    ``packed="auto"`` (default) packs whenever the batch is eligible
    (all values 0/1); ``packed=False`` forces the scalar
    ``run_block`` path — the paper's one-vector-per-pass
    configuration; ``packed=True`` requires packing and raises
    :class:`SimulationError` when a batch is ineligible.  Both paths
    are bit-identical in their results and end state; only the
    per-pass lane count differs.  Multi-bit input words (the classic
    packed-input mode of :meth:`evaluate_packed`) already occupy all
    lanes and run scalar, as given.

    ``partitions`` and ``tiles`` must be 1 (see
    :func:`~repro.simbase.check_pinned`), checked before the program
    is generated.

    Probes: ``probes=`` compiles per-net toggle counters into the
    generated pass (see :mod:`repro.codegen.probes`).  A pseudo-input
    carries the lane-occupancy mask, so packed batches count all
    ``word_width`` lanes with one popcount per net per pass.  Seed the
    baseline with :meth:`probe_reset`, run batches, then read
    :meth:`activity_report`.  Probed batches require plain 0/1
    vectors (the counters chain consecutive lanes as consecutive
    vectors).
    """

    _lane_words = True

    #: The generator writes every net, inputs first and gates in level
    #: order, with ``&``, ``|``, ``^`` and ``~`` only, and
    #: :meth:`~repro.netlist.circuit.Circuit.validate` rejects an
    #: undriven net: the program is shift-free and memoryless.  The
    #: probe statements' shifts and popcounts are lane-safe here but
    #: would classify it ``"none"``.
    _packing_mode = "full"

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
        program = generate_lcc_program(circuit, word_width=word_width)
        plan = (
            instrument_lcc_program(program, circuit, spec)
            if spec is not None else None
        )
        super().__init__(circuit, program, backend=backend, probe_plan=plan)
        self.word_width = word_width
        self._packed = packed
        self._outputs = circuit.outputs
        self._settled = True

    @property
    def packed(self) -> bool | str:
        """The ``packed`` argument: ``True``, ``False`` or ``"auto"``."""
        return self._packed

    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        # One word per net; with probes, every counted net's
        # previous-value bit and (zeroed) counter follow.
        state = [settled[net] & 1 for net in self.circuit.nets]
        if self.probe_plan is not None:
            for net in self.probe_plan.nets:
                state += [settled[net] & 1, 0]
        return state

    def evaluate(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle on one vector; returns monitored output values."""
        out = self.apply_vector(vector)
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
        [words] = input_rows([vector], self._inputs)
        validate_packed_words(
            words, self.word_width, context="packed input word"
        )
        out = self.machine.step(words)
        return dict(zip(self._outputs, out))

    def evaluate_all_nets(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle and return every net's value (from machine state)."""
        self.apply_vector(vector)
        state = self.machine.state_dict()
        # State variable order matches circuit.nets insertion order
        # (probe state is declared after every net variable).
        return {
            net_name: state[var] & 1
            for net_name, var in zip(self.circuit.nets, state)
        }

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Settle a batch; returns per-vector raw output words.

        Bit-identical to ``[self.machine.step(v) for v in vectors]``;
        see :meth:`repro.simbase.CompiledSimulator.apply_vectors`.  On
        the C backend a packed batch is transposed and unpacked inside
        the generated library.
        """
        return self._apply(vectors)

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
        packed and scalar paths produce the same result.
        """
        checksum = 0
        for out in self._apply(vectors):
            folded = 0
            for value in out:
                folded = self._fold(folded, value & 1)
            checksum ^= folded
        return checksum

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
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
        [row], _block = self._batch([vector])
        self.machine.step(row)
        self._probe_runtime.discard(self.machine)
