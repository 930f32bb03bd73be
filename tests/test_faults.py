"""Tests for stuck-at fault simulation (serial and lane-parallel)."""

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
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 10, seed=3)
        initial = [1] * len(circuit.inputs)
        serial = serial_fault_simulation(
            circuit, vectors, initial=initial
        )
        parallel = run_fault_simulation(
            circuit, vectors, word_width=16, initial=initial
        )
        assert serial.detected == parallel.detected


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

    def test_drop_detected_keeps_results(self):
        circuit = and_gate()
        sim = ParallelFaultSimulator(circuit, word_width=8)
        kept = sim.run([[1, 1], [1, 0], [0, 1]], drop_detected=False)
        dropped = sim.run([[1, 1], [1, 0], [0, 1]], drop_detected=True)
        assert kept.detected == dropped.detected


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
    def test_batch_mode_matches_all_mode(self):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 15, seed=6)
        faults = full_fault_list(circuit)
        all_mode = ParallelFaultSimulator(
            circuit, word_width=8, instrument="all"
        ).run(vectors, faults)
        batch_mode = ParallelFaultSimulator(
            circuit, word_width=8, instrument="batch"
        ).run(vectors, faults)
        assert all_mode.detected == batch_mode.detected
        assert set(all_mode.undetected) == set(batch_mode.undetected)

    def test_all_mode_reuses_one_machine(self):
        circuit = ripple_carry_adder(2)
        sim = ParallelFaultSimulator(circuit, word_width=8)
        faults = full_fault_list(circuit)
        sim.run([[0] * 5], faults)
        machine = sim._all_machine
        sim.run([[1] * 5], faults)
        assert sim._all_machine is machine

    def test_bad_instrument_rejected(self):
        with pytest.raises(SimulationError, match="instrument"):
            ParallelFaultSimulator(and_gate(), instrument="sideways")


class TestVectorValidation:
    """Vectors are checked once, before any machine runs."""

    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_vectors_named(self, patterns, backend):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 6, seed=4)
        width = len(circuit.inputs)
        short = [list(v) for v in vectors]
        short[3] = short[3][:-1]
        with pytest.raises(
            SimulationError,
            match=rf"vector 3 has {width - 1} values, expected {width}",
        ):
            run_fault_simulation(circuit, short, patterns=patterns,
                                 backend=backend)
        for bad in ("1", 1.0, None):
            odd = [list(v) for v in vectors]
            odd[2][1] = bad
            with pytest.raises(
                SimulationError,
                match=rf"vector 2, input 1: value {bad!r} is not an "
                      rf"integer",
            ):
                run_fault_simulation(circuit, odd, patterns=patterns,
                                     backend=backend)


class TestPackedPatternGrading:
    """patterns="packed" (PPSFP shape) vs the scalar lane loop.

    Detection compares settled monitored values only, so grading with
    patterns in the lanes and the fault pinned everywhere must produce
    the same report — same first-detecting vector per fault — as the
    lane-per-fault loop and as serial injection.
    """

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width", [8, 32])
    def test_packed_matches_serial_and_scalar(self, seed, width):
        circuit = random_dag_circuit(seed + 40, num_inputs=5,
                                     num_gates=18)
        # Not a multiple of the width: the last pattern group is
        # partial and its idle lanes must not fake detections.
        vectors = vectors_for(circuit, width + 5, seed=seed)
        faults = full_fault_list(circuit)
        serial = serial_fault_simulation(circuit, vectors, faults)
        scalar = ParallelFaultSimulator(
            circuit, word_width=width, patterns="scalar"
        ).run(vectors, faults)
        packed = ParallelFaultSimulator(
            circuit, word_width=width, patterns="packed"
        ).run(vectors, faults)
        assert packed.detected == scalar.detected == serial.detected
        assert set(packed.undetected) == set(serial.undetected)

    def test_auto_takes_packed_path(self):
        sim = ParallelFaultSimulator(and_gate())
        assert sim.patterns == "auto"
        assert sim._pack_eligible

    def test_instrument_batch_packed(self):
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 21, seed=2)
        faults = full_fault_list(circuit)
        packed = ParallelFaultSimulator(
            circuit, word_width=8, instrument="batch", patterns="packed"
        ).run(vectors, faults)
        scalar = ParallelFaultSimulator(
            circuit, word_width=8, instrument="batch", patterns="scalar"
        ).run(vectors, faults)
        assert packed.detected == scalar.detected
        assert set(packed.undetected) == set(scalar.undetected)

    def test_nonzero_initial_state_is_irrelevant_when_packed(self):
        # Settled values do not depend on the pre-existing state, so
        # the report must be identical for any initial vector — and
        # still match the serial reference run with that initial.
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 10, seed=3)
        initial = [1] * len(circuit.inputs)
        serial = serial_fault_simulation(circuit, vectors, initial=initial)
        packed = run_fault_simulation(
            circuit, vectors, word_width=16, initial=initial,
            patterns="packed",
        )
        assert serial.detected == packed.detected

    def test_empty_vector_list(self):
        report = ParallelFaultSimulator(
            and_gate(), patterns="packed"
        ).run([])
        assert report.detected == {}
        assert report.num_vectors == 0
        assert len(report.undetected) == report.num_faults

    def test_bad_patterns_rejected(self):
        with pytest.raises(SimulationError, match="patterns"):
            ParallelFaultSimulator(and_gate(), patterns="sideways")

    def test_constant_cone_state_not_poisoned_between_faults(self):
        # Regression: a constant net's settled value lives in a state
        # variable the passes read but never recompute.  A fault
        # pinned on that net (N1/sa1 here) rewrites the variable in
        # every lane; without reloading the steady state before the
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
            circuit, word_width=16, patterns="packed"
        ).run(vectors, faults)
        assert packed.detected == serial.detected
        assert set(packed.undetected) == set(serial.undetected)
        # The poisoned run reported N3/sa1 at vector 0; the true first
        # detecting vector is 1 (N3 follows I2, which drops to 0 there).
        assert packed.first_detection(Fault("N3", 1)) == 1
