"""Tests for the PC-set method (§2): codegen, simulation, multi-vector."""

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.eventsim.simulator import EventDrivenSimulator
from repro.harness.vectors import vectors_for
from repro.netlist.builder import CircuitBuilder
from repro.pcset.codegen import generate_pcset_program
from repro.pcset.multivector import (
    MultiVectorPCSetSimulator,
    pack_lanes,
    unpack_lanes,
)
from repro.pcset.simulator import PCSetSimulator
from repro.pcset.variables import PCSetVariables

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


class TestCodegen:
    def test_fig4_exact_statements(self, fig4_circuit):
        program, _variables = generate_pcset_program(fig4_circuit)
        source = program.python_source()
        # The paper's Fig. 4 code, line for line.
        for line in ("D_0 = D_1", "D_1 = A_0 & B_0",
                     "E_1 = D_0 & C_0", "E_2 = D_1 & C_0"):
            assert line in source
        # Initialization precedes simulation.
        assert source.index("D_0 = D_1") < source.index("D_1 = A_0 & B_0")

    def test_variable_count_is_pc_total(self, small_random_circuit):
        program, variables = generate_pcset_program(small_random_circuit)
        assert len(program.state_vars) == len(variables)
        assert len(variables) == variables.pc_sets.total_elements()

    def test_no_shifts_generated(self, small_random_circuit):
        program, _ = generate_pcset_program(small_random_circuit)
        assert program.stats().shifts == 0

    def test_one_evaluation_per_gate_pc_element(self, fig4_circuit):
        program, variables = generate_pcset_program(fig4_circuit)
        # Gates: D has 1 element, E has 2; plus 1 zero-move + 3 reads.
        assert len(program.body) == 3
        assert len(program.init) == 4

    def test_output_routine_one_print_per_element(self, fig4_circuit):
        program, _ = generate_pcset_program(fig4_circuit)
        # Output PC-set of {E} = {1, 2}: one emit per element per net.
        assert program.output_labels() == [("E", 1), ("E", 2)]

    def test_comments_mode(self, fig4_circuit):
        # Generated code carries no gate or net name outside its
        # sanitized identifiers, so there is no comment mode.
        with pytest.raises(TypeError, match="comments"):
            generate_pcset_program(fig4_circuit, comments=True)

    def test_constants_fixed_at_declaration(self):
        b = CircuitBuilder("k")
        a = b.input("A")
        one = b.const1("ONE")
        b.outputs(b.and_("OUT", a, one))
        program, variables = generate_pcset_program(b.build())
        name = variables.var("ONE", 0)
        assert program.state_init[name] == program.word_mask


class TestVariables:
    def test_operand_selection_rule(self, fig4_circuit):
        _, variables = generate_pcset_program(fig4_circuit)
        # E evaluated at t=2 reads D's latest change before 2 -> D_1.
        assert variables.operand("D", 2) == variables.var("D", 1)
        # At t=1 it must fall back to the inserted zero.
        assert variables.operand("D", 1) == variables.var("D", 0)

    def test_final_var_is_max_element(self, fig4_circuit):
        _, variables = generate_pcset_program(fig4_circuit)
        assert variables.final_var("E") == variables.var("E", 2)

    def test_sample_rule(self, fig4_circuit):
        _, variables = generate_pcset_program(fig4_circuit)
        assert variables.sample("E", 1) == variables.var("E", 1)
        assert variables.sample("E", 5) == variables.var("E", 2)


class TestSimulation:
    def test_matches_event_driven(self, small_random_circuit):
        reference = EventDrivenSimulator(small_random_circuit)
        sim = PCSetSimulator(small_random_circuit)
        vectors = vectors_for(small_random_circuit, 30, seed=5)
        zeros = [0] * len(small_random_circuit.inputs)
        reference.reset(zeros)
        sim.reset(zeros)
        for vector in vectors:
            expected = reference.apply_vector(vector, record=True)
            got = sim.apply_vector_history(vector)
            assert expected == got

    @NEED_CC
    def test_c_backend_matches(self, fig4_circuit):
        py = PCSetSimulator(fig4_circuit)
        cc = PCSetSimulator(fig4_circuit, backend="c")
        vectors = vectors_for(fig4_circuit, 20, seed=2)
        py.reset([0, 0, 0])
        cc.reset([0, 0, 0])
        assert py.apply_vectors(vectors) == cc.apply_vectors(vectors)
        assert py.final_values() == cc.final_values()

    def test_output_trace(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset([0, 0, 0])
        trace = sim.output_trace([1, 1, 1])
        assert trace == [(1, {"E": 0}), (2, {"E": 1})]

    def test_final_values(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset([0, 0, 0])
        sim.apply_vector([1, 1, 1])
        assert sim.final_values() == {"E": 1}

    def test_custom_monitored_set(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit, monitored=["D", "E"])
        sim.reset([0, 0, 0])
        sim.apply_vector([1, 1, 0])
        assert sim.final_values() == {"D": 1, "E": 0}


class TestMultiVector:
    def test_pack_unpack_roundtrip(self):
        rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        words = pack_lanes(rows)
        assert unpack_lanes(words, 3) == rows

    def test_pack_ragged_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="ragged"):
            pack_lanes([[1, 0], [1]])

    def test_lanes_match_scalar_streams(self, small_random_circuit):
        lanes = 4
        total = 20
        vectors = vectors_for(small_random_circuit, total, seed=11)
        zeros = [0] * len(small_random_circuit.inputs)

        mv = MultiVectorPCSetSimulator(small_random_circuit, lanes=lanes)
        mv.reset(zeros)
        mv.run_streams(vectors)
        packed_finals = mv.final_values_per_lane()

        for lane in range(lanes):
            stream = vectors[lane::lanes]
            scalar = PCSetSimulator(small_random_circuit)
            scalar.reset(zeros)
            for vector in stream:
                scalar.apply_vector(vector)
            assert packed_finals[lane] == scalar.final_values(), lane

    def test_lane_bounds(self, fig4_circuit):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="lanes"):
            MultiVectorPCSetSimulator(fig4_circuit, lanes=64,
                                      word_width=32)
        sim = MultiVectorPCSetSimulator(fig4_circuit, lanes=2)
        sim.reset([0, 0, 0])
        with pytest.raises(SimulationError, match="exceed"):
            sim.apply_packed([[0, 0, 0]] * 3)

    def test_default_lane_count_is_word_width(self, fig4_circuit):
        sim = MultiVectorPCSetSimulator(fig4_circuit, word_width=16)
        assert sim.lanes == 16
