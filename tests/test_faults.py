"""Tests for stuck-at fault simulation (serial and pattern-parallel)."""

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.errors import NetlistError, SimulationError
from repro.eventsim.zerodelay import steady_state
from repro.faults.model import Fault, full_fault_list, inject_stuck_at
from repro.faults.simulator import (
    ParallelFaultSimulator,
    run_fault_simulation,
    serial_fault_simulation,
)
from repro.harness.vectors import vectors_for
from repro.netlist.builder import CircuitBuilder
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.random_circuits import random_dag_circuit

BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())

WIDTHS = (8, 16, 32, 64)


def _cases(*axes):
    """``(backend, *axis values)`` params over every backend.

    A Python case is named by its axis values alone (``8-0``), a C
    case carries a ``c-`` prefix (``c-8-0``).
    """
    cases = [()]
    for axis in axes:
        cases = [case + (value,) for case in cases for value in axis]
    return [
        pytest.param(
            backend, *case,
            id="-".join(
                ([] if backend == "python" else [backend])
                + [str(value) for value in case]
            ),
        )
        for backend in BACKENDS for case in cases
    ]


def _graded(circuit, vectors, faults, width):
    """The report of every backend, checked against serial injection.

    Multi-bit values are graded on bit 0, so the serial reference runs
    on the vectors' bit 0.
    """
    bits = [[value & 1 for value in vector] for vector in vectors]
    serial = serial_fault_simulation(circuit, bits, faults)
    reports = {
        backend: ParallelFaultSimulator(
            circuit, word_width=width, backend=backend
        ).run(vectors, faults)
        for backend in BACKENDS
    }
    for backend, report in reports.items():
        assert report == serial, backend
    return serial


def and_gate():
    b = CircuitBuilder("and2")
    a, c = b.inputs("A", "B")
    b.outputs(b.and_("Z", a, c))
    return b.build()


class TestFaultModel:
    def test_fault_identity(self):
        assert Fault("N", 0) == Fault("N", 0)
        assert Fault("N", 0) != Fault("N", 1)
        assert len({Fault("N", 0), Fault("N", 0)}) == 1
        assert repr(Fault("N", 1)) == "N/sa1"
        with pytest.raises(SimulationError):
            Fault("N", 2)

    def test_full_fault_list(self):
        circuit = and_gate()
        faults = full_fault_list(circuit)
        assert len(faults) == 2 * 3  # A, B, Z
        assert Fault("Z", 1) in faults
        with pytest.raises(NetlistError):
            full_fault_list(circuit, ["GHOST"])

    def test_inject_internal_net(self):
        b = CircuitBuilder("chain")
        a = b.input("A")
        n = b.not_("N", a)
        b.outputs(b.not_("Z", n))
        circuit = b.build()
        faulty = inject_stuck_at(circuit, Fault("N", 1))
        # Z now reads a constant 1 -> Z == 0 regardless of A.
        assert steady_state(faulty, [0])["Z"] == 0
        assert steady_state(faulty, [1])["Z"] == 0
        # The original driver still exists, feeding the shadow net.
        assert "N__free" in faulty.nets

    def test_inject_primary_input(self):
        circuit = and_gate()
        faulty = inject_stuck_at(circuit, Fault("A", 1))
        assert steady_state(faulty, [0, 1])["Z"] == 1

    def test_inject_monitored_net(self):
        circuit = and_gate()
        faulty = inject_stuck_at(circuit, Fault("Z", 0))
        (out,) = faulty.outputs
        assert steady_state(faulty, [1, 1])[out] == 0

    def test_inject_unknown_net(self):
        with pytest.raises(NetlistError):
            inject_stuck_at(and_gate(), Fault("GHOST", 0))


class TestKnownDetectability:
    def test_and_gate_textbook_vectors(self):
        circuit = and_gate()
        # The vector (1,1) detects A/sa0, B/sa0, Z/sa0;
        # (1,0) detects B/sa1 and Z/sa1; (0,1) detects A/sa1.
        sim = ParallelFaultSimulator(circuit, word_width=8)
        report = sim.run([[1, 1], [1, 0], [0, 1]])
        assert report.coverage == 1.0
        assert report.first_detection(Fault("A", 0)) == 0
        assert report.first_detection(Fault("B", 1)) == 1
        assert report.first_detection(Fault("A", 1)) == 2

    def test_redundant_consensus_term_is_undetectable(self):
        # OUT = A*S + B*~S + A*B: the consensus product R is redundant,
        # so R/sa0 cannot be detected at OUT — the classic example.
        b = CircuitBuilder("mux_rc")
        a, bb, s = b.inputs("A", "B", "S")
        sn = b.not_("SN", s)
        b.outputs(b.or_(
            "OUT",
            b.and_("P", a, s),
            b.and_("Q", bb, sn),
            b.and_("R", a, bb),
        ))
        circuit = b.build()
        # Exhaustive vectors: if nothing detects it, it is redundant.
        vectors = [[(v >> i) & 1 for i in range(3)] for v in range(8)]
        report = run_fault_simulation(
            circuit, vectors, [Fault("R", 0)], word_width=8
        )
        assert report.coverage == 0.0
        assert report.undetected == [Fault("R", 0)]


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        circuit = random_dag_circuit(seed + 70, num_inputs=4,
                                     num_gates=14)
        vectors = vectors_for(circuit, 12, seed=seed)
        faults = full_fault_list(circuit)
        serial = serial_fault_simulation(circuit, vectors, faults)
        parallel = run_fault_simulation(
            circuit, vectors, faults, word_width=8
        )
        assert serial.detected == parallel.detected
        assert set(serial.undetected) == set(parallel.undetected)

    def test_adder_coverage(self):
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 30, seed=9)
        serial = serial_fault_simulation(circuit, vectors)
        parallel = run_fault_simulation(circuit, vectors, word_width=32)
        assert serial.detected == parallel.detected
        # Random vectors reach high coverage on an adder quickly.
        assert parallel.coverage > 0.9

    def test_nonzero_initial_state(self):
        # Detection compares settled values, so the serial reference
        # seeded from any state grades like the compiled screen, which
        # takes none.
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 10, seed=3)
        initial = [1] * len(circuit.inputs)
        serial = serial_fault_simulation(
            circuit, vectors, initial=initial
        )
        parallel = run_fault_simulation(circuit, vectors, word_width=16)
        assert serial == parallel


class TestBatching:
    def test_more_faults_than_lanes(self):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 20, seed=1)
        faults = full_fault_list(circuit)
        assert len(faults) > 7  # > one 8-bit batch (7 lanes)
        small = run_fault_simulation(
            circuit, vectors, faults, word_width=8
        )
        large = run_fault_simulation(
            circuit, vectors, faults, word_width=64
        )
        assert small.detected == large.detected

    def test_same_net_both_polarities_in_one_batch(self):
        circuit = and_gate()
        report = run_fault_simulation(
            circuit, [[1, 1], [0, 1]],
            [Fault("A", 0), Fault("A", 1)], word_width=8,
        )
        assert report.first_detection(Fault("A", 0)) == 0
        assert report.first_detection(Fault("A", 1)) == 1


class TestReport:
    def test_report_metrics(self):
        report = serial_fault_simulation(
            and_gate(), [[1, 1]], [Fault("A", 0), Fault("A", 1)]
        )
        assert report.num_faults == 2
        assert report.coverage == pytest.approx(0.5)
        assert "coverage 50.0%" in repr(report)

    def test_guards(self):
        circuit = and_gate()
        sim = ParallelFaultSimulator(circuit)
        with pytest.raises(SimulationError, match="GHOST"):
            sim.run([[1, 1]], [Fault("GHOST", 0)])
        no_outputs = CircuitBuilder("dead")
        a = no_outputs.input("A")
        no_outputs.not_("N", a)
        with pytest.raises(SimulationError, match="monitored"):
            ParallelFaultSimulator(no_outputs.build())


class TestInstrumentationModes:
    """The one instrumented machine: compiled once, reused by every run."""

    def test_all_mode_reuses_one_machine(self):
        circuit = ripple_carry_adder(2)
        sim = ParallelFaultSimulator(circuit, word_width=8)
        faults = full_fault_list(circuit)
        sim.run([[0] * 5], faults)
        machine = sim._machine
        sim.run([[1] * 5], faults)
        assert sim._machine is machine

    def test_bad_instrument_rejected(self):
        # The per-batch programs are gone, and with them the keyword.
        with pytest.raises(TypeError, match="instrument"):
            ParallelFaultSimulator(and_gate(), instrument="sideways")


class TestRemovedKnobs:
    """One engine: the knobs that chose between engines are gone."""

    @staticmethod
    def _graders():
        circuit = and_gate()
        vectors = [[1, 1]]
        return {
            "ParallelFaultSimulator": lambda **kw: ParallelFaultSimulator(
                circuit, **kw
            ),
            "ParallelFaultSimulator.run": lambda **kw: ParallelFaultSimulator(
                circuit
            ).run(vectors, **kw),
            "run_fault_simulation": lambda **kw: run_fault_simulation(
                circuit, vectors, **kw
            ),
        }

    @pytest.mark.parametrize("entry", [
        "ParallelFaultSimulator", "ParallelFaultSimulator.run",
        "run_fault_simulation",
    ])
    @pytest.mark.parametrize("knob, value", [
        ("patterns", "auto"), ("instrument", "all"),
        ("drop_detected", True), ("shards", 2), ("mp_start", "auto"),
        ("shard_timeout", None), ("probes", None), ("initial", None),
    ])
    def test_knob_is_a_type_error(self, entry, knob, value):
        # Even the old default value is refused.
        with pytest.raises(TypeError, match=knob):
            self._graders()[entry](**{knob: value})

    def test_run_takes_no_initial_state(self):
        # Detection compares settled values only, so a seed state could
        # never change a report.
        with pytest.raises(TypeError, match="initial"):
            ParallelFaultSimulator(and_gate()).run([[1, 1]], initial=[0, 0])


class TestVectorValidation:
    """Vectors are checked once, before any machine runs."""

    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_vectors_named(self, patterns, backend):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 6, seed=4)
        width = len(circuit.inputs)

        def batch(rows, index):
            # "packed": the whole list in one call, the bad vector
            # sharing a pass with its neighbours; "scalar": the bad
            # vector alone, the one pattern of its pass, so vector 0.
            if patterns == "scalar":
                return [rows[index]], 0
            return rows, index

        short = [list(v) for v in vectors]
        short[3] = short[3][:-1]
        rows, index = batch(short, 3)
        with pytest.raises(
            SimulationError,
            match=rf"vector {index} has {width - 1} values, "
                  rf"expected {width}",
        ):
            run_fault_simulation(circuit, rows, backend=backend)
        for bad in ("1", 1.0, None):
            odd = [list(v) for v in vectors]
            odd[2][1] = bad
            rows, index = batch(odd, 2)
            with pytest.raises(
                SimulationError,
                match=rf"vector {index}, input 1: value {bad!r} is not "
                      rf"an integer",
            ):
                run_fault_simulation(circuit, rows, backend=backend)


class TestPackedPatternGrading:
    """The PPSFP screen: patterns in the lanes, each fault pinned in all.

    Detection compares settled monitored values only, so grading with
    patterns in the lanes and the fault pinned everywhere must produce
    the same report — same first-detecting vector per fault — as
    serial injection and as grading one vector per pass.
    """

    @pytest.mark.parametrize("backend, width, seed",
                             _cases(WIDTHS, range(3)))
    def test_packed_matches_serial_and_scalar(self, backend, width, seed):
        circuit = random_dag_circuit(seed + 40, num_inputs=5,
                                     num_gates=18)
        # Not a multiple of the width: the last pattern group is
        # partial and its idle lanes must not fake detections.
        vectors = vectors_for(circuit, width + 5, seed=seed)
        faults = full_fault_list(circuit)
        serial = serial_fault_simulation(circuit, vectors, faults)
        sim = ParallelFaultSimulator(circuit, word_width=width,
                                     backend=backend)
        packed = sim.run(vectors, faults)
        # Scalar: one vector per pass, so every detection sits in lane
        # 0 of a one-lane group; the first detecting vector per fault
        # must be the one the packed groups report.
        scalar: dict = {}
        for index, vector in enumerate(vectors):
            for fault in sim.run([vector], faults).detected:
                scalar.setdefault(fault, index)
        assert packed.detected == scalar == serial.detected
        assert packed == serial
        python = ParallelFaultSimulator(circuit, word_width=width)
        assert python.run(vectors, faults) == packed

    def test_nonzero_initial_state_is_irrelevant_when_packed(self):
        # Settled values do not depend on the pre-existing state, so
        # the packed screen, which takes none, must match the serial
        # reference run from any initial vector.
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 10, seed=3)
        for initial in ([0] * len(circuit.inputs), [1] * len(circuit.inputs)):
            serial = serial_fault_simulation(
                circuit, vectors, initial=initial
            )
            assert serial == run_fault_simulation(
                circuit, vectors, word_width=16
            )

    def test_empty_vector_list(self):
        report = ParallelFaultSimulator(and_gate()).run([])
        assert report.detected == {}
        assert report.num_vectors == 0
        assert len(report.undetected) == report.num_faults

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_circuit_without_inputs_takes_the_screen(self, backend, width):
        # Every net is in a constant cone: each vector is the empty
        # vector, and the screen's packed groups carry no input words.
        from repro.logic import GateType
        from repro.netlist.circuit import Circuit

        circuit = Circuit("noinputs")
        circuit.add_gate(GateType.CONST1, "K1", [])
        circuit.add_gate(GateType.CONST0, "K0", [])
        circuit.add_gate(GateType.NAND, "A", ["K1", "K0"])
        circuit.add_gate(GateType.AND, "B", ["A", "K1"])
        circuit.add_gate(GateType.XOR, "C", ["B", "K0"])
        for name in ("B", "C"):
            circuit.add_net(name, is_output=True)
        circuit.validate()
        faults = full_fault_list(circuit)
        for count in (0, 1, width + 3):
            vectors = [[]] * count
            sim = ParallelFaultSimulator(
                circuit, word_width=width, backend=backend
            )
            report = sim.run(vectors, faults)
            assert report == serial_fault_simulation(
                circuit, vectors, faults
            )
            # Constant stuck-at faults are detectable from vector 0.
            assert bool(report.detected) == bool(count)

    def test_bad_patterns_rejected(self):
        # The screen is the only engine; the keyword that chose between
        # it and the lane-per-fault loop is gone.
        with pytest.raises(TypeError, match="patterns"):
            ParallelFaultSimulator(and_gate(), patterns="sideways")

    @pytest.mark.parametrize("backend, width", _cases(WIDTHS))
    def test_constant_cone_state_not_poisoned_between_faults(
        self, backend, width
    ):
        # Regression: a constant net's settled value lives in a state
        # variable the passes read but never recompute.  A fault
        # pinned on that net (N1/sa1 here) rewrites the variable in
        # every lane; without resetting the steady state before the
        # next fault's scan, the later comparison against the good
        # words diffs in every lane and fakes a detection at vector 0.
        from repro.logic import GateType
        from repro.netlist.circuit import Circuit

        circuit = Circuit("constcone")
        for i in range(3):
            circuit.add_net(f"I{i}", is_input=True)
        circuit.add_gate(GateType.AND, "N0", ["I0", "I2"])
        circuit.add_gate(GateType.CONST0, "N1", [])
        circuit.add_gate(GateType.NOT, "N2", ["N1"])
        circuit.add_gate(GateType.BUF, "N3", ["I2"])
        for name in ("N0", "N2", "N3"):
            circuit.add_net(name, is_output=True)
        circuit.validate()
        vectors = [[0, 0, 1], [1, 0, 0], [1, 1, 0], [1, 0, 1]]
        faults = full_fault_list(circuit)
        serial = serial_fault_simulation(circuit, vectors, faults)
        packed = ParallelFaultSimulator(
            circuit, word_width=width, backend=backend
        ).run(vectors, faults)
        assert packed == serial
        # The poisoned run reported N3/sa1 at vector 0; the true first
        # detecting vector is 1 (N3 follows I2, which drops to 0 there).
        assert packed.first_detection(Fault("N3", 1)) == 1

    @pytest.mark.parametrize("backend, width", _cases(WIDTHS))
    def test_fill_lanes_never_detect(self, backend, width):
        # Z/sa1 differs from the good machine only on vectors that
        # drive Z to 0.  The three [1, 1] vectors never do, but the
        # fill lanes of their partial group carry the all-zeros vector,
        # which does: the screen must mask them off.
        fault = Fault("Z", 1)
        vectors = [[1, 1]] * 3
        sim = ParallelFaultSimulator(
            and_gate(), word_width=width, backend=backend
        )
        report = sim.run(vectors, [fault])
        assert report.undetected == [fault]
        assert sim.run(vectors + [[0, 0]], [fault]).detected == {fault: 3}

    @pytest.mark.parametrize("width", WIDTHS)
    def test_backends_agree_on_edge_lists(self, width):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, width + 3, seed=6)
        faults = full_fault_list(circuit)
        # A fault named twice is graded twice, as serial injection does.
        _graded(circuit, vectors, [faults[3], faults[0], faults[3]], width)
        assert _graded(circuit, vectors, [], width).num_faults == 0
        assert _graded(circuit, [], faults, width).undetected == faults

    @pytest.mark.parametrize("width", WIDTHS)
    def test_multi_bit_values_graded_on_bit_0(self, width):
        circuit = ripple_carry_adder(2)
        bits = vectors_for(circuit, 2 * width + 1, seed=8)
        # Every value keeps its bit 0 and gains high bits, some past a
        # byte.
        wide = [
            [value | (2 + 4 * ((index + slot) % 80)) for slot, value
             in enumerate(vector)]
            for index, vector in enumerate(bits)
        ]
        # Every backend's report equals serial injection over bit 0.
        _graded(circuit, wide, full_fault_list(circuit), width)


class TestZeroDelayFaultProgram:
    """The instrumented program is the zero-delay LCC program: one
    variable per net, each assigned and pinned once per pass."""

    def test_one_evaluation_and_one_pin_per_net(self):
        circuit = ripple_carry_adder(2)
        sim = ParallelFaultSimulator(circuit, word_width=8)
        program = sim._instrumented_program()
        nets = len(circuit.nets)
        # A word per net, then its FMASK/FVAL pair.
        assert len(program.state_vars) == 3 * nets
        assert sorted(sim._pin.values()) == list(range(nets, 3 * nets, 2))
        assignments = program.init + program.body
        assert len(assignments) == 2 * nets
        assert len(program.output) == len(circuit.outputs)
        assert not program.temp_vars

    @pytest.mark.parametrize("backend, width", _cases((8, 64)))
    def test_nets_named_like_pin_words(self, backend, width):
        # The pin words would be fm{k}/fv{k}; nets of those names keep
        # theirs and the pins take other ones.
        b = CircuitBuilder("pinnames")
        fm0, fv0 = b.inputs("fm0", "fv0")
        fm1 = b.nand("fm1", fm0, fv0)
        b.outputs(b.xor("fv1", fm1, fv0), b.not_("fm2", fm1))
        circuit = b.build()
        sim = ParallelFaultSimulator(
            circuit, word_width=width, backend=backend
        )
        names = sim._instrumented_program().state_vars
        assert len(set(names)) == 3 * len(circuit.nets)
        vectors = vectors_for(circuit, width + 2, seed=4)
        assert sim.run(vectors) == serial_fault_simulation(circuit, vectors)

    @pytest.mark.parametrize("backend, width", _cases((8, 64)))
    def test_simulator_graded_again_equals_fresh_and_serial(
        self, backend, width
    ):
        # A caller that grades with one simulator more than once (test
        # generation does): new vectors, then the same vectors again.
        circuit = random_dag_circuit(43, num_inputs=5, num_gates=18)
        first = vectors_for(circuit, width + 5, seed=1)
        second = vectors_for(circuit, 2 * width + 3, seed=2)
        options = dict(word_width=width, backend=backend)
        sim = ParallelFaultSimulator(circuit, **options)
        sim.run(first)
        for vectors in (second, second):
            report = sim.run(vectors)
            fresh = ParallelFaultSimulator(circuit, **options).run(vectors)
            assert report == fresh == serial_fault_simulation(
                circuit, vectors
            )

    @pytest.mark.parametrize("backend, width", _cases((8, 64)))
    def test_counters_cover_their_own_call(self, backend, width):
        circuit = ripple_carry_adder(2)
        first = vectors_for(circuit, width + 3, seed=8)
        second = vectors_for(circuit, 3 * width, seed=9)
        options = dict(word_width=width, backend=backend)
        report = run_fault_simulation(circuit, first, **options)
        before = report.counters.as_dict()
        later = run_fault_simulation(circuit, second, **options)
        assert report.counters.as_dict() == before
        fresh = ParallelFaultSimulator(circuit, **options)
        fresh.run(second)
        counted = fresh.batch_counters()
        assert later.counters.batches == counted.batches
        assert later.counters.vectors == counted.vectors
