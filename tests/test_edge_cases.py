"""Edge-case tests across modules."""

import pytest

from repro.analysis.levelize import levelize
from repro.analysis.pcsets import compute_pc_sets
from repro.errors import CodegenError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.harness.vectors import vectors_for
from repro.netlist.builder import CircuitBuilder
from repro.netlist.random_circuits import layered_circuit
from repro.parallel.bitfields import FieldLayout
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator


class TestDegenerateCircuits:
    def test_single_buffer(self):
        b = CircuitBuilder("wire")
        a = b.input("A")
        b.outputs(b.buf("Z", a))
        circuit = b.build()
        for sim in (PCSetSimulator(circuit),
                    ParallelSimulator(circuit, word_width=8)):
            sim.reset([0])
            history = sim.apply_vector_history([1])
            assert history["Z"] == [(0, 0), (1, 1)]

    def test_single_inverter_chain_height_one(self):
        b = CircuitBuilder("inv")
        a = b.input("A")
        b.outputs(b.not_("Z", a))
        circuit = b.build()
        sim = ParallelSimulator(circuit, optimization="pathtrace+trim",
                                word_width=8)
        sim.reset([1])
        assert sim.apply_vector_history([0])["Z"] == [(0, 0), (1, 1)]

    def test_input_fed_straight_to_output(self):
        # A primary input that is also monitored.
        b = CircuitBuilder("passthrough")
        a = b.input("A")
        b.output(a)
        b.outputs(b.not_("Z", a))
        circuit = b.build()
        sim = PCSetSimulator(circuit)
        sim.reset([0])
        sim.apply_vector([1])
        assert sim.final_values() == {"A": 1, "Z": 0}

    def test_duplicate_pin_gate_simulation(self):
        # XOR(A, A) == 0 for all histories; AND(A, A) == A.
        b = CircuitBuilder("dup")
        a = b.input("A")
        b.outputs(b.xor("X", a, a), b.and_("Y", a, a))
        circuit = b.build()
        reference = EventDrivenSimulator(circuit)
        sim = ParallelSimulator(circuit, optimization="pathtrace",
                                word_width=8)
        reference.reset([0])
        sim.reset([0])
        for vector in ([1], [0], [1]):
            assert reference.apply_vector(vector, record=True) == \
                sim.apply_vector_history(vector)

    def test_constants_only_feeding_logic(self):
        b = CircuitBuilder("konst")
        a = b.input("A")
        one = b.const1("ONE")
        zero = b.const0("ZERO")
        b.outputs(b.or_("Z", b.and_("P", a, one), zero))
        circuit = b.build()
        sim = PCSetSimulator(circuit)
        sim.reset([0])
        history = sim.apply_vector_history([1])
        assert history["ONE"] == [(0, 1)]
        assert history["ZERO"] == [(0, 0)]
        assert history["Z"][-1][1] == 1


class TestWordWidth64:
    def test_wide_word_parallel(self):
        circuit = layered_circuit(
            13, num_inputs=5, num_gates=80, depth=50, num_outputs=3
        )
        reference = EventDrivenSimulator(circuit)
        sim = ParallelSimulator(circuit, optimization="pathtrace+trim",
                                word_width=64)
        zeros = [0] * 5
        reference.reset(zeros)
        sim.reset(zeros)
        for vector in vectors_for(circuit, 6, seed=2):
            assert reference.apply_vector(vector, record=True) == \
                sim.apply_vector_history(vector)
        # Depth 50 fits one 64-bit word: no multi-word machinery.
        assert sim.layout.max_words() == 1


class TestLayoutGuards:
    def test_negative_width_alignment_rejected(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        with pytest.raises(CodegenError, match="width"):
            FieldLayout(
                fig4_circuit, levels,
                alignments={n: 10 for n in fig4_circuit.nets},
            )


class TestOutputPcSetEdge:
    def test_empty_monitored_set(self, fig4_circuit):
        pc = compute_pc_sets(fig4_circuit)
        assert pc.output_pc_set([]) == (0,)


class TestStateEvolutionAcrossBatches:
    def test_run_batch_equals_sequential_applies(self, fig4_circuit):
        vectors = vectors_for(fig4_circuit, 9, seed=5)
        one = PCSetSimulator(fig4_circuit)
        two = PCSetSimulator(fig4_circuit)
        one.reset()
        two.reset()
        one.run_prepared(one.prepare_batch(vectors))
        for vector in vectors:
            two.apply_vector(vector)
        assert one.final_values() == two.final_values()

    def test_prepared_batches_resumable(self, fig4_circuit):
        vectors = vectors_for(fig4_circuit, 8, seed=6)
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        prepared = sim.prepare_batch(vectors)
        sim.run_prepared(prepared)
        first = sim.final_values()
        sim.run_prepared(prepared)  # state keeps evolving
        second = sim.final_values()
        # Same last vector -> same settled values.
        assert first == second
