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

In an acyclic circuit a net's settled value depends on the current
inputs alone, and every pass recomputes every net, constant ones
included, so no pass threads state from the previous vector: the
pre-pass and every fault's screen start from the fresh state.  A
circuit with no inputs is all constant and grades the same way.  The
unit-delay PC-set program settles to the same values through several
assignments per net (3,419 against 443 on c880), so generating,
rendering and running it cost several times as much.

:func:`serial_fault_simulation` is the brute-force reference — one
full event-driven simulation per fault on an injected circuit — used
to validate the compiled screen and for small jobs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.packing import bit_block
from repro.codegen.probes import ProbeSpec
from repro.codegen.program import Assign, Bin, Program, Var
from repro.codegen.runtime import compile_program
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
        The engine's :class:`~repro.codegen.runtime.BatchCounters`
        snapshot when the grading run attaches one (single-process
        :func:`run_fault_simulation`), else ``None``.
    """

    #: Throughput counters; attached by the grading entry points.
    counters = None
    #: Fault-free per-net switching activity
    #: (:class:`~repro.activity.ActivityReport`); attached by the
    #: grading entry points when ``probes=`` was requested.
    activity = None

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
        same vector count.  This is the contract sharded grading is
        held to against the single-process run."""
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
    ``partitions`` and ``tiles`` must be 1 (see
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
        probes=None,
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
        # The compiled machine's fresh state: every pin unpinned.
        self._start: list[int] = []
        # Good-pre-pass memo: ((count, block), lanes, goods).  The good
        # words depend only on the circuit, word width and vectors, so
        # repeated run() calls over the same vectors — the sharded
        # grading shape — reuse them instead of re-running the pre-pass
        # per shard.  ``goods`` is pass-major, one word per monitored
        # output.
        self._goods_memo: Optional[tuple] = None
        #: Good-machine switching probes (see :meth:`good_activity`).
        self.probes = ProbeSpec.coerce(probes)
        self._activity_memo = None

    def warm_up(self) -> None:
        """Build and compile the instrumented machine now.

        Sharded grading calls this once per worker process, so backend
        compilation — gcc, on the C backend — runs once per worker
        instead of once per shard.
        """
        self._compiled()

    def batch_counters(self):
        """The machine's live :class:`BatchCounters` (``None`` before
        the machine is built)."""
        machine = self._machine
        return None if machine is None else machine.counters

    def good_activity(
        self,
        vectors: Sequence[Sequence[int]],
        initial: Optional[Sequence[int]] = None,
    ):
        """Fault-free per-net switching activity over ``vectors``.

        Runs the *good* machine once with compiled-in toggle counters
        (a probed PC-set simulator seeded from the ``initial`` steady
        state) and returns its
        :class:`~repro.activity.ActivityReport`.  The counters are
        fault-independent — exactly like the good pre-pass — so the
        report is memoized per simulator: sharded grading pays one
        probed pass per worker regardless of shard count, and the
        outcome merged from any shard is bit-identical to the
        single-process run.
        """
        if self.probes is None:
            raise SimulationError(
                "fault simulator was built without probes=; no "
                "good-machine activity to report"
            )
        if initial is None:
            initial = [0] * len(self.circuit.inputs)
        key = (
            tuple(tuple(v & 1 for v in vector) for vector in vectors),
            tuple(v & 1 for v in initial),
        )
        if self._activity_memo is not None and self._activity_memo[0] == key:
            return self._activity_memo[1]
        from repro.pcset.simulator import PCSetSimulator

        with telemetry.span("fault.activity"):
            sim = PCSetSimulator(
                self.circuit,
                word_width=self.word_width,
                backend=self.backend,
                probes=self.probes,
            )
            sim.reset(list(initial))
            sim.apply_vectors([list(vector) for vector in vectors])
            report = sim.activity_report()
        self._activity_memo = (key, report)
        return report

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
    ) -> FaultReport:
        """Grade ``faults`` (default: all) over ``vectors``.

        Every vector must hold one integer per primary input; a vector
        of the wrong length or a non-integer value raises
        :class:`SimulationError` naming the vector (and the input)
        before any machine runs.  Multi-bit values are graded on bit 0.
        """
        count = len(vectors)
        block = bit_block(vectors, len(self.circuit.inputs))
        if block is None:
            block = bytes(value & 1 for vector in vectors for value in vector)
        if faults is None:
            faults = full_fault_list(self.circuit)
        for fault in faults:
            if fault.net not in self.circuit.nets:
                raise SimulationError(f"no such net: {fault.net!r}")
        machine = self._compiled()
        if not count:
            return FaultReport({}, list(faults), 0)
        # A circuit without inputs has an empty block at every count.
        key = (count, block)
        if self._goods_memo is not None and self._goods_memo[0] == key:
            _key, lanes, goods = self._goods_memo
        else:
            with telemetry.span("fault.good"):
                machine.load_state(self._start)
                lanes = machine.pack_lanes(block, count)
                goods = machine.run_lanes(lanes, count)
            self._goods_memo = (key, lanes, goods)

        # Pin each fault in every lane: FMASK drops to zero and FVAL
        # replicates the stuck value across the word.
        mask = machine.program.word_mask
        with telemetry.span("fault.screen"):
            firsts = machine.screen(
                lanes, count, goods, self._start,
                [self._pin[fault.net] for fault in faults],
                [mask if fault.value else 0 for fault in faults],
            )
        detected: dict[Fault, int] = {}
        undetected: list[Fault] = []
        for fault, first in zip(faults, firsts):
            if first < 0:
                undetected.append(fault)
            else:
                detected[fault] = first
        return FaultReport(detected, undetected, count)


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
    initial: Optional[Sequence[int]] = None,
    tiles: int = 1,
    workers: int = 1,
    shards: Optional[int] = None,
    mp_start: str = "auto",
    shard_timeout: Optional[float] = None,
    partitions: int = 1,
    probes=None,
) -> FaultReport:
    """Convenience wrapper around :class:`ParallelFaultSimulator`.

    With ``workers > 1`` the fault list is sharded across a worker
    pool (:mod:`repro.faults.sharding`) and the merged report — a
    :class:`~repro.faults.sharding.ShardedFaultReport` — is
    bit-identical to the single-process run; a count below 1 raises
    :class:`SimulationError`.  ``shards``, ``mp_start`` and
    ``shard_timeout`` tune that path and are ignored otherwise.
    ``partitions`` and ``tiles`` must be 1 (see
    :func:`~repro.simbase.check_pinned`).

    An explicitly empty fault list short-circuits to an empty report —
    no simulator is built, no program compiled, no pool spun up (the
    sharded path likewise returns its empty merged report inline, so
    the ``workers > 1`` report type stays :class:`ShardedFaultReport`).

    ``probes`` additionally grades *switching activity*: the fault-free
    machine runs once with compiled-in toggle counters, seeded from the
    ``initial`` steady state (default all zeros), and the report gains
    an ``activity`` attribute (:class:`~repro.activity.ActivityReport`)
    — in sharded mode the per-net counters ride the shard outcomes and
    the parent keeps the lowest-indexed copy, bit-identical to the
    single-process run.  Detection compares settled values only, so
    ``initial`` never changes which vector detects a fault.
    """
    check_pinned(partitions, tiles)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1: {workers}")
    if faults is not None:
        faults = list(faults)
        if not faults and workers == 1:
            return FaultReport({}, [], len(vectors))
    if workers > 1:
        from repro.faults.sharding import run_sharded_fault_simulation

        return run_sharded_fault_simulation(
            circuit, vectors, faults,
            word_width=word_width, backend=backend, initial=initial,
            workers=workers, shards=shards,
            mp_start=mp_start, shard_timeout=shard_timeout,
            probes=probes,
        )
    simulator = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=backend, probes=probes,
    )
    report = simulator.run(vectors, faults)
    report.counters = simulator.batch_counters()
    if simulator.probes is not None:
        report.activity = simulator.good_activity(vectors, initial)
    return report
