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
from repro.codegen.packing import check_integers, packed_apply, packing_mode
from repro.codegen.probes import ProbePlan, ProbeRuntime
from repro.codegen.program import Program
from repro.codegen.runtime import CMachine, Machine, compile_program
from repro.errors import SimulationError
from repro.eventsim.zerodelay import steady_state
from repro.netlist.circuit import Circuit

__all__ = ["CompiledSimulator", "check_pinned"]


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
    partitions, tiles:
        Must be 1 (see :func:`check_pinned`).
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
        tiles: int = 1,
        probe_plan: Optional[ProbePlan] = None,
        packing_override: Optional[str] = None,
        **backend_kwargs,
    ) -> None:
        check_pinned(partitions, tiles)
        self.circuit = circuit
        self.program = program
        self.backend = backend
        self.with_outputs = with_outputs
        self.checksum_mask = (
            checksum_mask if checksum_mask is not None else program.word_mask
        )
        compiled = program if with_outputs else program.without_output()
        self._compiled_program = compiled
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

    def _batch_words(self, vectors) -> list[list[int]]:
        """Every vector's input words; a non-integer value raises
        :class:`SimulationError` naming the vector and the input.

        The happy path is the plain comprehension; only a ``TypeError``
        out of it (``"1" & 1``, ``None & 1``) pays for the search.
        """
        try:
            return [self._vector_words(vector) for vector in vectors]
        except TypeError:
            check_integers(
                [vector[n] for n in self._inputs]
                if isinstance(vector, Mapping) else vector
                for vector in vectors
            )
            raise

    def apply_vector(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """Simulate one vector; returns the raw emitted output words."""
        if not self._settled:
            raise SimulationError("call reset() before apply_vector()")
        [words] = self._batch_words([vector])
        out = self.machine.step(words)
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
        ``word_width`` vectors per compiled pass — exact scalar words
        reconstructed on unpacking.  Shift programs (the §3 parallel
        technique) and ``"settled"`` programs (the PC-set method, which
        emits intermediate-time values with opaque cross-pass state)
        keep the scalar ``run_block`` loop.  A value that is not an
        ``int`` raises :class:`SimulationError` naming the vector and
        the input.
        """
        if not self._settled:
            raise SimulationError("call reset() before apply_vectors()")
        words = self._batch_words(vectors)
        if (self.packing_mode == "full" and self._inputs
                and self.probe_plan is None):
            telemetry.counter("packing.packed_batches")
            return packed_apply(self.machine, words)
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

    def prepare_batch(self, vectors: Sequence[Sequence[int]]):
        """Marshal a batch once, outside any timed region.

        On the C backend the batch becomes one contiguous native buffer
        driven by the generated ``run_block`` loop, so the timed region
        contains no interpreter work at all (the paper's timing loop
        was compiled too).  On the Python backend the vectors are
        pre-marshalled and the timed run is a single batched send into
        the generated coroutine's in-frame loop.
        """
        with telemetry.span("pack"):
            words = self._batch_words(vectors)
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
        """The machine's live per-batch throughput counters."""
        return self.machine.counters

    def output_labels(self) -> list[tuple]:
        return self.machine.output_labels()

    def source(self) -> str:
        """The generated source the machine was compiled from."""
        return getattr(self.machine, "source", "")
