"""Tests for the parallel technique (§3) and bit-field trimming."""

import pytest

from repro.analysis.levelize import levelize
from repro.analysis.pcsets import compute_pc_sets
from repro.codegen.runtime import have_c_compiler
from repro.errors import CodegenError, SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.harness.vectors import vectors_for
from repro.netlist.builder import CircuitBuilder
from repro.netlist.random_circuits import layered_circuit
from repro.parallel.bitfields import FieldLayout, WordClass
from repro.parallel.codegen import generate_parallel_program
from repro.parallel.simulator import OPTIMIZATIONS, ParallelSimulator

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


def deep_circuit(depth=40, seed=0):
    """A circuit needing multiple 16-bit words."""
    return layered_circuit(
        seed, num_inputs=6, num_gates=depth + 20, depth=depth,
        num_outputs=3,
    )


class TestFieldLayout:
    def test_uniform_width_is_depth_plus_one(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        layout = FieldLayout(fig4_circuit, levels, word_width=8)
        for net_name in fig4_circuit.nets:
            spec = layout.field(net_name)
            assert spec.width == 3
            assert spec.num_words == 1
            assert spec.alignment == 0

    def test_word_rounding(self):
        circuit = deep_circuit(40)
        levels = levelize(circuit)
        layout = FieldLayout(circuit, levels, word_width=16)
        spec = layout.field(circuit.outputs[0])
        assert spec.width == 41
        assert spec.num_words == 3
        assert spec.words == [f"{spec.words[0][:-2]}_0",
                              spec.words[0][:-2] + "_1",
                              spec.words[0][:-2] + "_2"]

    def test_word_index(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        layout = FieldLayout(fig4_circuit, levels, word_width=8)
        assert layout.word_index("E", 2) == (0, 2)

    def test_classification_requires_pc_sets(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        with pytest.raises(CodegenError, match="PC-sets"):
            FieldLayout(fig4_circuit, levels, trimming=True)

    def test_trimming_classification(self):
        # Chain of 20 buffers, W=8: deep nets have LOW_FINAL low words
        # and GAP words outside their narrow PC windows.
        b = CircuitBuilder("chain")
        net = b.input("A")
        for i in range(20):
            net = b.buf(f"N{i}", net)
        b.outputs(net)
        circuit = b.build()
        levels = levelize(circuit)
        pc = compute_pc_sets(circuit, levels)
        layout = FieldLayout(circuit, levels, word_width=8,
                             pc_sets=pc, trimming=True)
        # N19: PC-set {20}; words cover bits 0..23.
        spec = layout.field("N19")
        assert spec.classes[0] is WordClass.LOW_FINAL   # times 0..7 < 20
        assert spec.classes[1] is WordClass.LOW_FINAL   # times 8..15 < 20
        assert spec.classes[2] is WordClass.ACTIVE      # rep at 20
        # N2: PC-set {3}; word 0 active, words 1-2 are gaps.
        spec2 = layout.field("N2")
        assert spec2.classes[0] is WordClass.ACTIVE
        assert spec2.classes[1] is WordClass.GAP
        assert spec2.classes[2] is WordClass.GAP

    def test_aggregates(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        layout = FieldLayout(fig4_circuit, levels, word_width=8)
        assert layout.total_words() == 5
        assert layout.max_width() == 3
        assert layout.max_words() == 1
        assert "max_width=3" in repr(layout)


class TestCodegen:
    def test_fig6_one_word_form(self, fig4_circuit):
        program, _ = generate_parallel_program(fig4_circuit, word_width=8)
        source = program.python_source()
        # Fig. 6 shape: initialization shifts + inline gate form.
        assert "D = (D | ((A & B) << 1)) & MASK" in source
        assert "E = (E | ((D & C) << 1)) & MASK" in source
        assert "D = (D >> 7) & MASK" in source  # final value into bit 0
        # The C rendering matches Fig. 6 (bar width-preserving casts).
        c_source = program.c_source()
        assert "S->D = S->D | ((uint8_t)((S->A & S->B) << 1U));" in c_source
        assert "S->E = S->E | ((uint8_t)((S->D & S->C) << 1U));" in c_source

    def test_fig8_two_word_form(self):
        circuit = deep_circuit(20)
        program, layout = generate_parallel_program(circuit, word_width=16)
        source = program.python_source()
        # Multi-word gates use temps, carries and shifted ORs.
        assert "tmp0" in source
        assert ">> 15" in source
        assert "<< 1" in source

    def test_pi_fields_filled_with_new_value(self, fig4_circuit):
        program, _ = generate_parallel_program(fig4_circuit, word_width=8)
        source = program.python_source()
        assert "A = (-V[0]) & MASK" in source
        assert "B = (-V[1]) & MASK" in source

    def test_invalid_output_mode(self, fig4_circuit):
        with pytest.raises(CodegenError, match="output mode"):
            generate_parallel_program(fig4_circuit, output_mode="tsv")

    def test_bit_output_mode_sliding_mask(self, fig4_circuit):
        program, _ = generate_parallel_program(
            fig4_circuit, word_width=8, output_mode="bits"
        )
        labels = program.output_labels()
        assert labels == [("E", 0), ("E", 1), ("E", 2)]

    def test_trimming_identical_for_single_word(self, fig4_circuit):
        plain, _ = generate_parallel_program(fig4_circuit, word_width=8)
        trimmed, _ = generate_parallel_program(
            fig4_circuit, word_width=8, trimming=True
        )
        plain_lines = plain.python_source().splitlines()[3:]
        trimmed_lines = trimmed.python_source().splitlines()[3:]
        assert plain_lines == trimmed_lines

    def test_trimming_reduces_ops_multiword(self):
        circuit = deep_circuit(45, seed=3)
        plain, _ = generate_parallel_program(circuit, word_width=16)
        trimmed, _ = generate_parallel_program(
            circuit, word_width=16, trimming=True
        )
        assert trimmed.stats().total_ops < plain.stats().total_ops
        assert trimmed.stats().shifts < plain.stats().shifts


@pytest.mark.parametrize("optimization", ["none", "trim"])
@pytest.mark.parametrize("word_width", [8, 32])
class TestSimulationMatchesReference:
    def test_histories(self, small_random_circuit, optimization,
                       word_width):
        reference = EventDrivenSimulator(small_random_circuit)
        sim = ParallelSimulator(
            small_random_circuit, optimization=optimization,
            word_width=word_width,
        )
        zeros = [0] * len(small_random_circuit.inputs)
        reference.reset(zeros)
        sim.reset(zeros)
        for vector in vectors_for(small_random_circuit, 20, seed=8):
            expected = reference.apply_vector(vector, record=True)
            got = sim.apply_vector_history(vector)
            assert expected == got


class TestDeepCircuits:
    @pytest.mark.parametrize("optimization",
                             ["none", "trim", "pathtrace",
                              "cyclebreak", "pathtrace+trim"])
    def test_multiword_histories(self, optimization):
        circuit = deep_circuit(40, seed=5)
        reference = EventDrivenSimulator(circuit)
        sim = ParallelSimulator(
            circuit, optimization=optimization, word_width=16
        )
        zeros = [0] * len(circuit.inputs)
        reference.reset(zeros)
        sim.reset(zeros)
        for vector in vectors_for(circuit, 10, seed=4):
            assert reference.apply_vector(vector, record=True) == \
                sim.apply_vector_history(vector)


class TestSimulatorFacade:
    def test_unknown_optimization(self, fig4_circuit):
        with pytest.raises(SimulationError, match="unknown optimization"):
            ParallelSimulator(fig4_circuit, optimization="magic")
        assert "pathtrace+trim" in OPTIMIZATIONS

    def test_requires_reset(self, fig4_circuit):
        sim = ParallelSimulator(fig4_circuit)
        with pytest.raises(SimulationError, match="reset"):
            sim.apply_vector([1, 1, 1])

    def test_final_values_and_trace(self, fig4_circuit):
        sim = ParallelSimulator(fig4_circuit, word_width=8)
        sim.reset([0, 0, 0])
        trace = sim.output_trace([1, 1, 1])
        assert trace == [(0, {"E": 0}), (1, {"E": 0}), (2, {"E": 1})]
        assert sim.final_values() == {"E": 1}

    def test_without_outputs_blocks_checksum(self, fig4_circuit):
        sim = ParallelSimulator(fig4_circuit, with_outputs=False)
        sim.reset([0, 0, 0])
        sim.run_batch(vectors_for(fig4_circuit, 5))
        with pytest.raises(SimulationError, match="without outputs"):
            sim.run_batch_checksum([[1, 1, 1]])

    @NEED_CC
    def test_c_backend_checksum_parity(self, fig4_circuit):
        vectors = vectors_for(fig4_circuit, 25, seed=1)
        py = ParallelSimulator(fig4_circuit)
        cc = ParallelSimulator(fig4_circuit, backend="c")
        py.reset([0, 0, 0])
        cc.reset([0, 0, 0])
        assert py.run_batch_checksum(vectors) == \
            cc.run_batch_checksum(vectors)

    def test_vector_shape_errors(self, fig4_circuit):
        sim = ParallelSimulator(fig4_circuit)
        sim.reset([0, 0, 0])
        with pytest.raises(SimulationError, match="expected 3"):
            sim.apply_vector([1])
        with pytest.raises(SimulationError, match="missing"):
            sim.apply_vector({"A": 1})

    def test_constants_in_parallel(self):
        b = CircuitBuilder("k")
        a = b.input("A")
        one = b.const1("ONE")
        b.outputs(b.and_("OUT", a, one))
        circuit = b.build()
        sim = ParallelSimulator(circuit, word_width=8)
        sim.reset([0])
        history = sim.apply_vector_history([1])
        assert history["OUT"] == [(0, 0), (1, 1)]
        assert history["ONE"] == [(0, 1)]
