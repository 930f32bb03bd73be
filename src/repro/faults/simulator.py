"""Pattern-parallel stuck-at fault simulation (PPSFP).

Detection compares settled outputs only, so grading runs the zero-delay
LCC program (:func:`~repro.lcc.zerodelay.generate_lcc_program`): one
variable per net and one statement per gate, in levelized order, which
settle every net in one pass.  The program is purely bit-wise, so its
bit lanes can carry *patterns*: lane ``j`` of a pass simulates vector
``g * W + j`` of pattern group ``g`` (see :mod:`repro.codegen.packing`).
Faults are injected by one instrumented program covering every net:
after each write to a net's variable it runs one masking statement

    N = (N & FMASK) | FVAL

where ``FMASK``/``FVAL`` are two state words per net (the *pins*),
adjacent in the state.  A fresh state has every mask all-ones and
every value zero, which leaves the machine fault-free; ``FMASK = 0``
with ``FVAL`` replicated pins the net to its stuck value in every lane.
Pinning a fault is two state-word writes; the program's inputs are the
circuit's inputs alone.

Grading a fault list is then one flow on either backend:

1. the batch becomes one byte per value
   (:func:`~repro.codegen.packing.bit_block`) and then lane rows
   (``pack_lanes``);
2. *good-machine pre-pass*: the unpinned machine runs all ``N``
   vectors pattern-packed, ``ceil(N / W)`` compiled passes in one
   ``run_packed_block`` batch;
3. *detection screen*: each fault is pinned in every lane and pattern
   groups run in order; the first group whose monitored outputs
   differ from the good words yields the detecting lane, i.e. the
   first detecting vector, and the remaining groups are skipped.  On
   the C backend the library's ``screen`` grades the whole list in
   one call; the Python machine's per-group loop is the reference
   (:meth:`~repro.codegen.runtime.Machine.screen`).

With ``workers = W > 1`` a C screen splits the list across
``min(W, len(faults))`` threads: fault ``i`` goes to thread ``i mod
W``, and each thread runs one ``screen`` call on a sibling machine of
the one compiled program over the pre-pass's shared lanes and good
words.  ctypes releases the GIL for the call, so the parts run side by
side; a thread runs nothing but the library call, and the counters,
the telemetry and any exception are taken on the calling thread once
every thread has joined.  The results go back in fault order, so the
report equals the inline one.  The Python machine's screen holds the
GIL, so that backend grades the whole list in one call at any
``workers``.

In an acyclic circuit a net's settled value depends on the current
inputs alone, and every pass recomputes every net, constant ones
included, so no pass threads state from the previous vector: the
pre-pass and every fault's screen start from the fresh state, and no
grading entry point takes an initial state.  Grading counts no
switching activity either: that is a probed
:class:`~repro.parallel.simulator.ParallelSimulator` run.  A
circuit with no inputs is all constant and grades the same way.  The
unit-delay PC-set program settles to the same values through several
assignments per net (3,419 against 443 on c880), so generating,
rendering and running it cost several times as much.

:func:`serial_fault_simulation` is the brute-force reference — one
full event-driven simulation per fault on an injected circuit — used
to validate the compiled screen and for small jobs.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.packing import bit_block
from repro.codegen.program import Assign, Bin, Program, Var
from repro.codegen.runtime import (
    BatchCounters,
    CMachine,
    compile_program,
    record_run,
)
from repro.errors import SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.faults.model import Fault, full_fault_list, inject_stuck_at
from repro.lcc.zerodelay import generate_lcc_program
from repro.netlist.circuit import Circuit
from repro.simbase import check_pinned, monitored_nets

__all__ = [
    "FaultReport",
    "ParallelFaultSimulator",
    "serial_fault_simulation",
    "run_fault_simulation",
]


class FaultReport:
    """Outcome of a fault-simulation run.

    Attributes
    ----------
    detected:
        ``Fault -> index of the first detecting vector``.
    undetected:
        Faults no vector exposed.
    num_vectors:
        Vectors simulated.
    counters:
        The :class:`~repro.codegen.runtime.BatchCounters` of the
        grading machines, summed, when the grading run attaches them
        (:func:`run_fault_simulation`), else ``None``.
    """

    #: Throughput counters; attached by the grading entry points.
    counters = None

    def __init__(
        self,
        detected: dict[Fault, int],
        undetected: list[Fault],
        num_vectors: int,
    ) -> None:
        self.detected = detected
        self.undetected = undetected
        self.num_vectors = num_vectors

    @property
    def num_faults(self) -> int:
        return len(self.detected) + len(self.undetected)

    @property
    def coverage(self) -> float:
        """Detected fraction (1.0 = full coverage)."""
        if self.num_faults == 0:
            return 1.0
        return len(self.detected) / self.num_faults

    def first_detection(self, fault: Fault) -> Optional[int]:
        return self.detected.get(fault)

    def __eq__(self, other: object) -> bool:
        """Bit-identical reports: same detected map (fault -> first
        detecting vector), same undetected faults *in the same order*,
        same vector count.  This is the contract threaded grading is
        held to against the inline run."""
        if not isinstance(other, FaultReport):
            return NotImplemented
        return (
            self.detected == other.detected
            and self.undetected == other.undetected
            and self.num_vectors == other.num_vectors
        )

    __hash__ = None  # reports are mutable aggregates, not keys

    def __repr__(self) -> str:
        return (
            f"FaultReport({len(self.detected)}/{self.num_faults} "
            f"detected, coverage {self.coverage:.1%}, "
            f"{self.num_vectors} vectors)"
        )


class ParallelFaultSimulator:
    """Pattern-parallel stuck-at fault simulation over the LCC program.

    One instrumented program with a pin pair of state words for every
    net is compiled on first use (or by :meth:`warm_up`) and grades
    every fault list given to :meth:`run` (see the module docstring).
    The sibling machines a threaded C screen needs are built on first
    use and kept.  ``partitions`` and ``tiles`` must be 1 (see
    :func:`~repro.simbase.check_pinned`).
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        word_width: int = 32,
        backend: str = "python",
        monitored: Optional[list[str]] = None,
        tiles: int = 1,
        partitions: int = 1,
    ) -> None:
        check_pinned(partitions, tiles)
        self.circuit = circuit
        self.word_width = word_width
        self.backend = backend
        self.monitored = monitored_nets(circuit, monitored)
        if not self.monitored:
            raise SimulationError("no monitored outputs to detect with")
        self._base = generate_lcc_program(
            circuit, word_width=word_width, emit_outputs=self.monitored,
        )
        # Every net's FMASK state word, in sorted net order after the
        # base program's state; its FVAL word follows it.
        first = len(self._base.state_vars)
        self._pin = {
            net_name: first + 2 * k
            for k, net_name in enumerate(sorted(circuit.nets))
        }
        self._machine = None
        # Sibling machines of the compiled program, for threaded screens.
        self._siblings: list = []
        # The compiled machine's fresh state: every pin unpinned.
        self._start: list[int] = []

    def warm_up(self) -> None:
        """Build and compile the instrumented machine now, so that a
        caller can pay the compile (gcc, on the C backend) before its
        first :meth:`run`."""
        self._compiled()

    def batch_counters(self) -> Optional[BatchCounters]:
        """The :class:`BatchCounters` of every machine, summed
        (``None`` before the machine is built)."""
        if self._machine is None:
            return None
        total = BatchCounters()
        for machine in (self._machine, *self._siblings):
            total.batches += machine.counters.batches
            total.vectors += machine.counters.vectors
            total.seconds += machine.counters.seconds
        return total

    def _compiled(self):
        """The instrumented machine, built on first use."""
        if self._machine is None:
            self._machine = compile_program(
                self._instrumented_program(), self.backend
            )
            self._start = self._machine.dump_state()
        return self._machine

    # ------------------------------------------------------------------
    def _instrumented_program(self) -> Program:
        """The base program with a pin pair of state words for every net.

        The ``k``-th net in sorted order owns state words ``FMASK``
        (initially all-ones) and ``FVAL`` (initially zero), at
        :attr:`_pin` and the word after it, named ``fm{k}``/``fv{k}``
        unless a net's variable already has that name.  Every net
        variable is rewritten by every pass, so its initial value is
        scratch.
        """
        base = self._base
        mask = base.word_mask
        program = Program(
            f"{base.name}_faulty",
            word_width=base.word_width,
            inputs=base.inputs,
            mask_assignments=False,
            output_mask=mask,
        )
        # One variable per net, in circuit order.
        owner_of = dict(zip(base.state_vars, self.circuit.nets))
        taken = set(owner_of)

        def fresh(name: str) -> str:
            while name in taken:
                name += "_"
            taken.add(name)
            return name

        program.state_init = dict(base.state_init)
        pins: dict[str, tuple[Var, Var]] = {}
        for k, net_name in enumerate(self._pin):
            fmask, fval = fresh(f"fm{k}"), fresh(f"fv{k}")
            program.state_init[fmask] = mask
            program.state_init[fval] = 0
            # One pair of operands per net, shared by its statements.
            pins[net_name] = (Var(fmask), Var(fval))
        program.state_vars = list(program.state_init)
        program._state_set = set(program.state_vars)

        touched: set[str] = set()

        def mask_stmt(dest: str, net_name: str) -> Assign:
            fmask, fval = pins[net_name]
            return Assign(dest, Bin("|", Bin("&", Var(dest), fmask), fval))

        def splice(section: list) -> list:
            out = []
            for stmt in section:
                out.append(stmt)
                if isinstance(stmt, Assign):
                    net_name = owner_of.get(stmt.dest)
                    if net_name is not None:
                        touched.add(net_name)
                        out.append(mask_stmt(stmt.dest, net_name))
            return out

        program.init = splice(base.init)
        program.body = splice(base.body)
        # Nets the program never assigns (undriven ones) still need
        # their faulty lanes pinned: mask their variables once per
        # vector at the top of the init section.
        leading = [
            mask_stmt(identifier, net_name)
            for identifier, net_name in owner_of.items()
            if net_name not in touched
        ]
        program.init = leading + program.init
        program.output = base.output
        return program

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: Sequence[Sequence[int]],
        faults: Optional[Sequence[Fault]] = None,
        *,
        workers: int = 1,
    ) -> FaultReport:
        """Grade ``faults`` (default: all) over ``vectors``.

        Every vector must hold one integer per primary input; a vector
        of the wrong length or a non-integer value raises
        :class:`SimulationError` naming the vector (and the input)
        before any machine runs.  Multi-bit values are graded on bit 0.
        ``workers`` threads share a C screen (see the module
        docstring); a count below 1 raises :class:`SimulationError`.
        """
        _check_workers(workers)
        count = len(vectors)
        block = bit_block(vectors, len(self.circuit.inputs))
        if block is None:
            block = bytearray(
                value & 1 for vector in vectors for value in vector
            )
        if faults is None:
            faults = full_fault_list(self.circuit)
        for fault in faults:
            if fault.net not in self.circuit.nets:
                raise SimulationError(f"no such net: {fault.net!r}")
        machine = self._compiled()
        if not count:
            return FaultReport({}, list(faults), 0)
        # A circuit without inputs has an empty block at every count.
        with telemetry.span("fault.good"):
            machine.load_state(self._start)
            lanes = machine.pack_lanes(block, count)
            goods = machine.run_lanes(lanes, count)

        # Pin each fault in every lane: FMASK drops to zero and FVAL
        # replicates the stuck value across the word.
        mask = machine.program.word_mask
        with telemetry.span("fault.screen"):
            firsts = self._screen(
                lanes, count, goods,
                [self._pin[fault.net] for fault in faults],
                [mask if fault.value else 0 for fault in faults],
                workers,
            )
        detected: dict[Fault, int] = {}
        undetected: list[Fault] = []
        for fault, first in zip(faults, firsts):
            if first < 0:
                undetected.append(fault)
            else:
                detected[fault] = first
        return FaultReport(detected, undetected, count)

    def _screen(self, lanes, count, goods, pins, values, workers):
        """Every pin's first detection, on ``workers`` threads on C."""
        machine = self._machine
        parts = min(workers, len(pins))
        if parts < 2 or not isinstance(machine, CMachine):
            return machine.screen(
                lanes, count, goods, self._start, pins, values
            )
        while len(self._siblings) < parts - 1:
            self._siblings.append(machine.sibling())
        jobs = [
            part.screen_call(
                lanes, count, goods, self._start,
                pins[k::parts], values[k::parts],
            )
            for k, part in enumerate((machine, *self._siblings[:parts - 1]))
        ]
        seconds: list = [None] * parts
        errors: list = [None] * parts

        def work(k: int) -> None:
            try:
                seconds[k] = jobs[k][0]()
            except BaseException as error:  # re-raised after the join
                errors[k] = error

        threads = [
            threading.Thread(target=work, args=(k,))
            for k in range(1, parts)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        for error in errors:
            if error is not None:
                raise error
        firsts = [0] * len(pins)
        vectors = 0
        for k, (_call, finish) in enumerate(jobs):
            firsts[k::parts], carried = finish(seconds[k])
            vectors += carried
        # The parts overlap: the phase takes the split's wall time once.
        record_run(vectors, wall, parts)
        return firsts


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise SimulationError(f"workers must be >= 1: {workers}")


def serial_fault_simulation(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    initial: Optional[Sequence[int]] = None,
) -> FaultReport:
    """Brute-force reference: one event-driven run per fault."""
    if faults is None:
        faults = full_fault_list(circuit)
    if initial is None:
        initial = [0] * len(circuit.inputs)

    good = EventDrivenSimulator(circuit)
    good.reset(initial)
    good_outputs: list[list[int]] = []
    for vector in vectors:
        good.apply_vector(vector)
        values = good.output_values()
        good_outputs.append([values[n] for n in circuit.outputs])

    detected: dict[Fault, int] = {}
    undetected: list[Fault] = []
    for fault in faults:
        faulty_circuit = inject_stuck_at(circuit, fault)
        sim = EventDrivenSimulator(faulty_circuit)
        sim.reset(initial)
        first: Optional[int] = None
        for index, vector in enumerate(vectors):
            sim.apply_vector(vector)
            values = sim.output_values()
            observed = [values[n] for n in faulty_circuit.outputs]
            if observed != good_outputs[index]:
                first = index
                break
        if first is None:
            undetected.append(fault)
        else:
            detected[fault] = first
    return FaultReport(detected, undetected, len(vectors))


def run_fault_simulation(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    word_width: int = 32,
    backend: str = "python",
    tiles: int = 1,
    workers: int = 1,
    partitions: int = 1,
) -> FaultReport:
    """Convenience wrapper around :class:`ParallelFaultSimulator`.

    With ``workers > 1`` a C screen splits the fault list across that
    many threads (:meth:`ParallelFaultSimulator.run`); the report is
    the same at every count, and a count below 1 raises
    :class:`SimulationError`.  The report's ``counters`` sum every
    grading machine's.  ``partitions`` and ``tiles`` must be 1 (see
    :func:`~repro.simbase.check_pinned`).

    An explicitly empty fault list short-circuits to an empty report:
    no simulator is built and no program compiled.
    """
    check_pinned(partitions, tiles)
    _check_workers(workers)
    if faults is not None:
        faults = list(faults)
        if not faults:
            return FaultReport({}, [], len(vectors))
    simulator = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=backend
    )
    report = simulator.run(vectors, faults, workers=workers)
    report.counters = simulator.batch_counters()
    return report
