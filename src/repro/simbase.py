"""Shared behaviour of the compiled-simulator facades.

Every compiled technique (zero-delay LCC, PC-set, parallel, and their
optimized variants) wraps a generated
:class:`~repro.codegen.program.Program` the same way: compile it on a
backend, seed the persistent state from a zero-delay steady state, feed
vectors, decode outputs.  This module hosts that common machinery —
among it the one batch executor every facade runs through — and the
technique-specific subclasses provide only the program generation and
the state encoding/decoding.

The batch executor
------------------
A batch crosses one boundary (:meth:`CompiledSimulator._batch`): the
vectors become rows (:func:`input_rows`) and one
:func:`~repro.codegen.packing.bit_block` decides whether they are plain
0/1; a batch masked to bit 0 gets the block of its masked rows.  One
decision (:meth:`CompiledSimulator._packs`) picks packed or scalar,
for ``apply_vectors`` and for a prepared batch alike, and one run loop
(:meth:`CompiledSimulator._run`) chunks it so no probe counter can
wrap.  A scalar batch with a block hands the block to the machine
(:meth:`~repro.codegen.runtime.Machine.step_bits`: on C one byte-block
crossing each way, no per-value loop); lane words and probed chunks
run their rows through ``step_many``.  A packed batch runs all but its
last vector pattern-packed and the last one on the scalar path, so the
machine ends in the state the scalar loop leaves.

The timing fast path (:meth:`CompiledSimulator.prepare_batch`,
:meth:`CompiledSimulator.run_prepared`) marshals a batch once into one
machine payload, the lane rows of a packed batch or the input rows of
a scalar one, and runs it with one
:meth:`~repro.codegen.runtime.Machine.run_packed` call.  Probe counters
count on ``apply_vector``/``apply_vectors`` only.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.codegen.packing import bit_block, packed_apply, packing_mode
from repro.codegen.probes import ProbePlan, ProbeRuntime
from repro.codegen.program import Program
from repro.codegen.runtime import Machine, compile_program
from repro.errors import SimulationError
from repro.eventsim.zerodelay import steady_state
from repro.netlist.circuit import Circuit

__all__ = [
    "CompiledSimulator",
    "check_pinned",
    "input_rows",
    "monitored_nets",
]


def check_pinned(partitions: int, tiles: int) -> None:
    """Accept only ``partitions=1`` and ``tiles=1``.

    Partitioned, tiled and laned execution were removed; the keywords
    remain on the facades callers already pin to 1, and anything else
    is an error rather than a silent monolithic, one-word-per-net run.
    """
    if partitions != 1:
        raise SimulationError(
            "partitioned execution was removed; partitions must be 1: "
            f"{partitions!r}"
        )
    if tiles != 1:
        raise SimulationError(
            "tiled and laned execution were removed; tiles must be 1: "
            f"{tiles!r}"
        )


def monitored_nets(
    circuit: Circuit, monitored: Optional[Sequence[str]]
) -> list[str]:
    """The nets a facade monitors: ``monitored``, else the primary
    outputs.

    Checked before any program is generated: a name that is not a net
    of ``circuit`` raises :class:`SimulationError` naming it.
    """
    if monitored is None:
        return circuit.outputs
    nets = list(monitored)
    for net_name in nets:
        if net_name not in circuit.nets:
            raise SimulationError(f"no such net to monitor: {net_name!r}")
    return nets


def input_rows(vectors, inputs: Sequence[str]) -> list:
    """Every vector as a row of input values, in ``inputs`` order.

    Lists and tuples are used as given, a ``Mapping`` is read by input
    name, and any other iterable becomes a list.  A missing input or a
    row of the wrong length raises :class:`SimulationError` naming the
    vector; the values themselves are checked by
    :func:`~repro.codegen.packing.bit_block`.
    """
    rows = list(vectors)
    if not set(map(type, rows)) <= {list, tuple}:
        for index, vector in enumerate(rows):
            if isinstance(vector, Mapping):
                missing = [n for n in inputs if n not in vector]
                if missing:
                    raise SimulationError(
                        f"vector {index} missing inputs: {missing}"
                    )
                rows[index] = [vector[n] for n in inputs]
            elif type(vector) not in (list, tuple):
                rows[index] = list(vector)
    if set(map(len, rows)) - {len(inputs)}:
        for index, row in enumerate(rows):
            if len(row) != len(inputs):
                raise SimulationError(
                    f"vector {index} has {len(row)} values, expected "
                    f"{len(inputs)}"
                )
    return rows


class CompiledSimulator:
    """Base class for compiled simulator facades.

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
        measurements.  Every vector then emits no words.
    probe_plan:
        The plan of the probe statements the subclass compiled into
        ``program``, or ``None``.

    The facades take only their own keywords and check them before
    generating anything; none reaches the machine.
    """

    #: Keep multi-bit input words as given, one lane per bit (the LCC
    #: and multi-vector facades).  Otherwise a batch that is not plain
    #: 0/1 keeps bit 0 of every value.
    _lane_words = False

    #: When a batch may pack: ``"auto"`` (whenever eligible), ``True``
    #: (required) or ``False`` (never).  Only the LCC facade's
    #: ``packed=`` argument changes it.
    _packed: "bool | str" = "auto"

    #: The packing mode of a facade whose generator fixes it (LCC's
    #: ``"full"``); ``None`` classifies the compiled program.
    _packing_mode: Optional[str] = None

    def __init__(
        self,
        circuit: Circuit,
        program: Program,
        *,
        backend: str = "python",
        with_outputs: bool = True,
        probe_plan: Optional[ProbePlan] = None,
    ) -> None:
        self.circuit = circuit
        self.program = program
        self.backend = backend
        self.with_outputs = with_outputs
        compiled = program if with_outputs else program.without_output()
        self.machine: Machine = compile_program(compiled, backend)
        #: Pattern-lane packing eligibility of the *compiled* program
        #: (``"full"`` or ``"none"`` — see :mod:`repro.codegen.packing`).
        #: Programs with shifts or negates (the §3 parallel technique's
        #: time-shift code) or with state read before it is written
        #: (the PC-set method's zero-element moves) are ``"none"`` and
        #: always run scalar.  LCC declares its mode
        #: (:attr:`_packing_mode`) instead.
        self.packing_mode = self._packing_mode or packing_mode(compiled)
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
        Probe counters, which follow the technique's state, restart
        from zero; what they counted so far is kept.
        """
        if vector is None:
            vector = [0] * len(self._inputs)
        with telemetry.span("seed"):
            settled = steady_state(self.circuit, vector)
            state = self._encode_state(settled)
            if self._probe_runtime is not None and self._settled:
                # Keep whatever the counters accumulated so far;
                # the reload below would silently discard it.
                self._probe_runtime.drain(self.machine)
            state += [0] * (self.machine.num_state - len(state))
            self.machine.load_state(state)
        self._settled = True

    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        """Persistent-state words for a constant-history steady state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the batch executor
    # ------------------------------------------------------------------
    def _batch(self, vectors) -> tuple[list, Optional[bytes]]:
        """The batch boundary: machine rows and the batch's bit block.

        Rows come from :func:`input_rows`; one
        :func:`~repro.codegen.packing.bit_block` checks every value's
        type and decides 0/1 eligibility (``None``: not 0/1).  A batch
        that is not 0/1 keeps bit 0 of every value, and gets the block
        of those masked rows, unless the facade takes
        :attr:`_lane_words`: it then runs exactly like the same batch
        masked by the caller.  Probes with an occupancy input (LCC)
        require 0/1 vectors and get the occupancy 1 appended.
        """
        rows = input_rows(vectors, self._inputs)
        block = bit_block(rows, len(self._inputs))
        counts_lanes = (
            self.probe_plan is not None
            and self.probe_plan.en_slot is not None
        )
        if block is None:
            if counts_lanes:
                raise SimulationError(
                    "probed runs take plain 0/1 vectors; the counters "
                    "chain lanes as consecutive vectors, so pre-packed "
                    "multi-bit words are not countable"
                )
            if not self._lane_words:
                rows = [[value & 1 for value in row] for row in rows]
                block = bytearray().join(map(bytes, rows))
        elif counts_lanes:
            rows = [[*row, 1] for row in rows]
        return rows, block

    def _packs(self, block: Optional[bytes]) -> bool:
        """The packing decision for one batch.

        A batch packs when the program's packing mode is ``"full"``,
        the block is 0/1, the circuit has an input, and LCC's
        ``packed`` allows it.  With ``packed=True`` a refusal raises
        instead.  The outcome is counted in the ``packing.*``
        telemetry.
        """
        refusal = None
        if self.packing_mode != "full":
            refusal = (
                f"program {self.program.name!r} is not pattern-packable "
                f"(mode {self.packing_mode!r})"
            )
        elif block is None or not self._inputs:
            refusal = (
                "packing needs plain 0/1 vectors (one lane each) and at "
                "least one input"
            )
        if refusal is not None and self._packed is True:
            raise SimulationError(refusal)
        packs = refusal is None and self._packed is not False
        if packs:
            telemetry.counter("packing.packed_batches")
        else:
            mode = self.packing_mode
            reason = "scalar" if mode == "full" else mode
            telemetry.counter(f"packing.fallback.{reason}")
        return packs

    def _run(
        self, rows: list, block: Optional[bytes], packed: bool
    ) -> list[list[int]]:
        """Run machine rows; return every vector's raw output words.

        Under probes the rows run in wrap-free chunks and the counters
        note every vector once.
        """
        runtime = self._probe_runtime
        if runtime is None:
            return self._run_rows(rows, block, packed)
        out: list[list[int]] = []
        for start, length in runtime.chunk_vectors(len(rows)):
            out += self._run_rows(rows[start:start + length], None, packed)
            runtime.note_vectors(self.machine, length)
        return out

    def _run_rows(
        self, rows: list, block: Optional[bytes], packed: bool
    ) -> list[list[int]]:
        """One chunk of :meth:`_run`.

        ``block`` is the rows' bit block when the rows are the batch's
        own.  A scalar chunk with a block runs through the machine's
        byte-block path (:meth:`~repro.codegen.runtime.Machine.step_bits`);
        lane words and probed chunks, which have none, take
        ``step_many``.  A packed chunk runs all but its last vector
        pattern-packed (:func:`~repro.codegen.packing.packed_apply`)
        and the last one scalar: the machine then holds the state the
        scalar loop would, not the packed lanes.
        """
        if not packed or len(rows) < 2:
            return self._run_scalar(rows, block)
        head = len(rows) - 1
        last = None
        if block is not None:
            # Views, not copies: the block is as large as the batch.
            split = head * len(self._inputs)
            view = memoryview(block)
            block, last = view[:split], view[split:]
        out = packed_apply(self.machine, rows[:head], block=block)
        out += self._run_scalar(rows[head:], last)
        return out

    def _run_scalar(
        self, rows: list, block: Optional[bytes]
    ) -> list[list[int]]:
        if block is None:
            return self.machine.step_many(rows, masked=True)
        return self.machine.step_bits(block, len(rows))

    def _apply(self, vectors) -> list[list[int]]:
        """The body of every facade's ``apply_vectors``."""
        if not self._settled:
            raise SimulationError("call reset() before apply_vectors()")
        rows, block = self._batch(vectors)
        return self._run(rows, block, self._packs(block))

    def apply_vector(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """Simulate one vector; returns the raw emitted output words."""
        if not self._settled:
            raise SimulationError("call reset() before apply_vector()")
        [row], _block = self._batch([vector])
        out = self.machine.step(row)
        if self._probe_runtime is not None:
            self._probe_runtime.note_vectors(self.machine, 1)
        return out

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Simulate a batch; returns per-vector raw output words.

        Bit-identical to ``[self.apply_vector(v) for v in vectors]``,
        and leaves the machine in the same state.  A ``"full"``-mode
        (shift-free *and* memoryless) program packs a 0/1 batch —
        ``word_width`` vectors per compiled pass — and reconstructs
        the exact scalar words on unpacking.  Shift programs (the §3
        parallel technique) and stateful ones (the PC-set method, whose
        zero-element moves read the previous vector's finals) keep the
        scalar ``run_block`` loop.  A value
        that is not an ``int`` raises :class:`SimulationError` naming
        the vector and the input.
        """
        return self._apply(vectors)

    def prepare_batch(self, vectors: Sequence[Sequence[int]]):
        """Marshal a batch once, outside any timed region.

        Returns ``(payload, passes, vectors)``.  The batch takes the
        packing decision :meth:`apply_vectors` takes
        (:meth:`_packs`): a packed payload is the machine's lane rows
        (:meth:`~repro.codegen.runtime.Machine.pack_lanes`),
        ``word_width`` vectors per pass, and a scalar one its input
        rows (:meth:`~repro.codegen.runtime.Machine.pack_block`).  On
        the C backend either is one contiguous native buffer, so the
        timed region contains no interpreter work at all (the paper's
        timing loop was compiled too); on the Python backend it is one
        send into the generated coroutine's in-frame loop.  Probe
        counters count on :meth:`apply_vectors` only: a probed
        simulator raises :class:`SimulationError`.
        """
        if self._probe_runtime is not None:
            raise SimulationError(
                "probe counters count on apply_vector/apply_vectors "
                "only; a probed simulator prepares no batches"
            )
        with telemetry.span("pack"):
            rows, block = self._batch(vectors)
            count = len(rows)
            if self._packs(block):
                passes = -(-count // self.program.word_width)
                return self.machine.pack_lanes(block, count), passes, count
            return self.machine.pack_block(rows), count, count

    def run_prepared(self, prepared) -> None:
        """Run a batch from :meth:`prepare_batch`: one
        :meth:`~repro.codegen.runtime.Machine.run_packed` call.

        Outputs are discarded — this is the timing fast path; the
        throughput counters record the vectors the batch carried.  A
        packed batch leaves its last pass's lanes in the state.
        """
        if not self._settled:
            raise SimulationError("call reset() before running")
        payload, passes, vectors = prepared
        self.machine.run_packed(payload, passes, vectors_represented=vectors)

    # ------------------------------------------------------------------
    # probes and histories
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
        Zero-delay simulation sees at most one transition per net per
        vector, so there functional toggles equal total toggles.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; no activity "
                "counters to report"
            )
        self._probe_runtime.drain(self.machine)
        return self._probe_runtime.report()

    def apply_vector_history(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, list[tuple[int, int]]]:
        """Simulate one vector and return every net's change history.

        Only the PC-set and parallel facades decode settling histories.
        """
        raise SimulationError(
            f"{type(self).__name__} records no per-vector settling "
            "histories; build it with probes= and read "
            "activity_report() instead"
        )

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
        """The machine's live per-batch throughput counters."""
        return self.machine.counters

    def output_labels(self) -> list[tuple]:
        return self.machine.output_labels()

    def source(self) -> str:
        """The generated source the machine was compiled from."""
        return getattr(self.machine, "source", "")
