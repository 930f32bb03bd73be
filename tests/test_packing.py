"""Pattern-lane packing: transposition, eligibility, bit-identity.

The contract under test (see ``repro.codegen.packing``): a shift-free
program evaluates ``word_width`` transposed vectors in one compiled
pass, bit-identically to the scalar per-vector loop — across word
widths, backends, batch sizes that don't divide the width, and the
settled-observer boundary for stateful (PC-set) programs.  Shifted
programs must fall back with no behavior change.
"""

import pytest

from repro.codegen.packing import (
    bit_block,
    pack_patterns,
    packed_apply,
    packed_bits,
    packing_mode,
    validate_packed_words,
)
from repro.codegen.program import (
    Assign,
    Bin,
    Const,
    Emit,
    Input,
    Program,
    Var,
)
from repro.codegen.runtime import compile_program, have_c_compiler
from repro.errors import BackendError, SimulationError
from repro.eventsim.zerodelay import ZeroDelaySimulator
from repro.harness.runner import run_technique, simulate_outputs
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator, generate_lcc_program
from repro.netlist.bench import parse_bench
from repro.netlist.iscas85 import make_circuit
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.codegen import generate_pcset_program
from repro.pcset.simulator import PCSetSimulator
from repro.simbase import CompiledSimulator

BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())
WIDTHS = (8, 16, 32, 64)


def _identity_machine(num_inputs, backend):
    """A machine that emits its inputs: packed_bits undoes the packing."""
    program = Program("identity", word_width=8,
                      inputs=[f"i{k}" for k in range(num_inputs)])
    for k in range(num_inputs):
        program.declare(f"v{k}")
        program.init.append(Assign(f"v{k}", Input(k)))
        program.output.append(Emit(Var(f"v{k}"), (f"i{k}",)))
    program.validate()
    return compile_program(program, backend)


def _both_fill_polarities():
    """Outputs whose all-zeros value is 1 (NAND, NOT) and 0 (AND, XOR)."""
    return parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\n"
        "OUTPUT(n1)\nOUTPUT(n2)\nOUTPUT(y)\nOUTPUT(x)\n"
        "x = XOR(a, b)\nn1 = NAND(x, c)\nn2 = NOT(a)\ny = AND(b, c)\n",
        "polarities",
    )


class TestTransposition:
    def test_round_trip(self):
        vectors = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]]
        groups, lane_counts = pack_patterns(vectors, 4)
        assert lane_counts == [4, 1]
        # bit j of word k = input k of vector j
        assert groups[0] == [0b0101, 0b0110, 0b1011]
        assert groups[1] == [1, 0, 0]
        for backend in BACKENDS:
            machine = _identity_machine(3, backend)
            assert packed_bits(machine, vectors) == vectors

    def test_empty_batch(self):
        assert pack_patterns([], 8) == ([], [])
        for backend in BACKENDS:
            assert packed_bits(_identity_machine(3, backend), []) == []

    def test_partial_group_high_lanes_zero(self):
        groups, lane_counts = pack_patterns([[1, 1]], 32)
        assert lane_counts == [1]
        assert groups == [[1, 1]]

    def test_non_bit_value_rejected(self):
        with pytest.raises(SimulationError, match="not a single bit"):
            pack_patterns([[0, 2]], 8)

    def test_ragged_vectors_rejected(self):
        with pytest.raises(SimulationError, match="expected 2"):
            pack_patterns([[0, 1], [1]], 8)

    def test_validate_packed_words_overflow(self):
        validate_packed_words([255], 8)
        with pytest.raises(SimulationError, match="does not fit"):
            validate_packed_words([256], 8)
        with pytest.raises(SimulationError, match="does not fit"):
            validate_packed_words([-1], 8)

    @pytest.mark.parametrize("word", [1.5, 256.0])
    def test_validate_packed_words_rejects_non_integers(self, word):
        with pytest.raises(SimulationError, match="not an integer"):
            validate_packed_words([word], 8)


class TestPackingMode:
    def test_lcc_is_full(self, fig1_circuit):
        assert packing_mode(generate_lcc_program(fig1_circuit)) == "full"

    def test_pcset_is_none(self, fig4_circuit):
        # Its zero-element moves read the previous vector's finals.
        program, _variables = generate_pcset_program(fig4_circuit)
        assert packing_mode(program) == "none"

    @pytest.mark.parametrize(
        "optimization", ["none", "trim", "pathtrace", "pathtrace+trim"]
    )
    def test_parallel_is_none(self, fig4_circuit, optimization):
        sim = ParallelSimulator(fig4_circuit, optimization=optimization)
        assert sim.packing_mode == "none"


class TestMachineEntry:
    """The run_packed_block entry on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_group_length_validated(self, fig1_circuit, backend):
        machine = compile_program(
            generate_lcc_program(fig1_circuit), backend
        )
        with pytest.raises(BackendError, match="expected 3"):
            machine.run_packed_block([[1, 1]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_oversized_lane_word_rejected(self, fig1_circuit, backend):
        program = generate_lcc_program(fig1_circuit, word_width=8)
        machine = compile_program(program, backend)
        with pytest.raises(SimulationError, match="does not fit"):
            machine.run_packed_block([[256, 0, 0]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_record_represented_vectors(
        self, fig1_circuit, backend
    ):
        program = generate_lcc_program(fig1_circuit, word_width=8)
        machine = compile_program(program, backend)
        machine.run_packed_block([[1, 2, 3]], vectors_represented=5)
        assert machine.counters.vectors == 5
        machine.run_packed_block([[1, 2, 3]])
        assert machine.counters.vectors == 5 + 8

    @pytest.mark.skipif(not have_c_compiler(), reason="no C compiler")
    def test_bit_block_length_checked(self, fig1_circuit):
        # pack_lanes trusts the block's size; the machine checks it.
        machine = compile_program(generate_lcc_program(fig1_circuit), "c")
        with pytest.raises(BackendError, match="expected 2 vectors of 3"):
            machine.run_bit_block(b"\x00\x01\x01", 2, fill=True)
        assert machine.run_bit_block(b"\x00\x01\x01", 1, fill=True) == [
            machine.step([0, 1, 1])
        ]

    @pytest.mark.skipif(not have_c_compiler(), reason="no C compiler")
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("fill", [False, True], ids=["bits", "fill"])
    def test_run_bit_block_backends_agree(self, width, fill):
        # The Python machine's transposition is the reference the C
        # library's pack_lanes/unpack_lanes are held to, at the batch
        # sizes around one pass; both equal the scalar pass's words
        # (with ``fill``) or their bit 0 (without).
        circuit = _both_fill_polarities()
        program = generate_lcc_program(circuit, word_width=width)
        python = compile_program(program, "python")
        c = compile_program(program, "c")
        scalar = compile_program(program, "python")
        for count in (0, 1, width - 1, width, width + 1):
            vectors = vectors_for(circuit, count, seed=count)
            block = bit_block(vectors, len(circuit.inputs))
            want = [scalar.step(vector) for vector in vectors]
            if not fill:
                want = [[word & 1 for word in row] for row in want]
            assert python.run_bit_block(block, count, fill=fill) == want
            assert c.run_bit_block(block, count, fill=fill) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lane_helper_names_reserved(self, backend):
        # Nets may not shadow the C library's pack_lanes/unpack_lanes.
        circuit = parse_bench(
            "INPUT(pack_lanes)\nINPUT(b)\nOUTPUT(unpack_lanes)\n"
            "unpack_lanes = NAND(pack_lanes, b)\n", "clash",
        )
        sim = LCCSimulator(circuit, backend=backend, word_width=8)
        assert sim.apply_vectors([[1, 1], [0, 1]]) == [[254], [255]]


class TestPackedEqualsScalar:
    """The tentpole bit-identity property."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_circuits(self, backend, width, seed):
        circuit = random_dag_circuit(
            num_inputs=6, num_gates=30, seed=seed
        )
        # Deliberately not a multiple of the width: the last group is
        # partial and its unused lanes must not leak into results.
        vectors = vectors_for(circuit, 2 * width + 5, seed=seed + 1)
        packed = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=True
        )
        scalar = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=False
        )
        assert packed.apply_vectors(vectors) == scalar.apply_vectors(vectors)
        assert packed.run_batch(vectors) == scalar.run_batch(vectors)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", (32, 64))
    def test_scaled_c880(self, backend, width):
        circuit = make_circuit("c880", scale_factor=0.25)
        vectors = vectors_for(circuit, 70, seed=7)
        packed = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=True
        )
        scalar = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=False
        )
        assert packed.apply_vectors(vectors) == scalar.apply_vectors(vectors)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_byte_path_identity(self, backend, width):
        # The C byte path (pack_lanes/unpack_lanes) against the scalar
        # run_block loop on the same backend and against the Python
        # transposition, over batch sizes that leave the last group
        # empty, partial, full and spilling into further groups.
        circuit = _both_fill_polarities()
        packed = LCCSimulator(circuit, backend=backend, word_width=width,
                              packed=True)
        scalar = LCCSimulator(circuit, backend=backend, word_width=width,
                              packed=False)
        python = LCCSimulator(circuit, word_width=width, packed=True)
        for size in (0, 1, width - 1, width, width + 1,
                     2 * width + 5):
            vectors = vectors_for(circuit, size, seed=size)
            want = scalar.apply_vectors(vectors)
            assert packed.apply_vectors(vectors) == want, size
            assert python.apply_vectors(vectors) == want, size
            checksum = scalar.run_batch(vectors)
            assert packed.run_batch(vectors) == checksum, size
            assert python.run_batch(vectors) == checksum, size

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mapping_vectors(self, backend):
        circuit = _both_fill_polarities()
        vectors = vectors_for(circuit, 21, seed=5)
        named = [dict(zip(circuit.inputs, vector)) for vector in vectors]
        sim = LCCSimulator(circuit, backend=backend, word_width=16)
        want = LCCSimulator(circuit, word_width=16,
                            packed=False).apply_vectors(vectors)
        assert sim.apply_vectors(named) == want
        assert sim.apply_vectors(vectors) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_probed_batch_matches_python(self, backend):
        circuit = _both_fill_polarities()
        vectors = vectors_for(circuit, 45, seed=6)
        runs = []
        for engine in ("python", backend):
            sim = LCCSimulator(circuit, backend=engine, word_width=16,
                               probes=True)
            sim.probe_reset()
            outputs = sim.apply_vectors(vectors)
            runs.append((outputs, vars(sim.activity_report())))
        assert runs[0] == runs[1]

    def test_packed_apply_matches_per_vector_step(self, fig1_circuit):
        machine = compile_program(
            generate_lcc_program(fig1_circuit, word_width=8), "python"
        )
        vectors = vectors_for(fig1_circuit, 13, seed=2)
        expected = [machine.step(list(v)) for v in vectors]
        assert packed_apply(machine, vectors) == expected

    def test_auto_mode_packs_and_matches(self, fig1_circuit):
        vectors = vectors_for(fig1_circuit, 50, seed=4)
        auto = LCCSimulator(fig1_circuit, word_width=16)  # packed="auto"
        scalar = LCCSimulator(fig1_circuit, word_width=16, packed=False)
        assert auto.apply_vectors(vectors) == scalar.apply_vectors(vectors)
        # 50 vectors, width 16 -> 4 groups + 1 fill group, not 50 steps.
        assert auto.machine.counters.batches < len(vectors)


class TestEligibilityBoundary:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multibit_words_fall_back_under_auto(self, fig1_circuit,
                                                 backend):
        sim = LCCSimulator(fig1_circuit, word_width=8, backend=backend)
        packed_input = [3, 3, 1]  # classic packed-input mode, not 0/1
        batch = [[0, 1, 1], packed_input]
        out = sim.apply_vectors(batch)
        assert out == [sim.machine.step(vector) for vector in batch]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("packed", ["auto", False])
    def test_non_integer_values_rejected(self, fig1_circuit, backend,
                                         packed):
        sim = LCCSimulator(fig1_circuit, backend=backend, packed=packed)
        with pytest.raises(SimulationError,
                           match=r"vector 1, input 2: value 1\.0 is not"):
            sim.apply_vectors([[0, 1, 1], [1, 0, 1.0]])
        # bool is an int: it stays accepted.
        assert sim.apply_vectors([[True, False, True]]) == (
            sim.apply_vectors([[1, 0, 1]])
        )

    def test_multibit_words_rejected_under_packed_true(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8, packed=True)
        with pytest.raises(SimulationError, match="0/1"):
            sim.apply_vectors([[3, 3, 1]])

    def test_bad_packed_option_rejected(self, fig1_circuit):
        with pytest.raises(SimulationError, match="packed must be"):
            LCCSimulator(fig1_circuit, packed="yes")

    def test_evaluate_packed_overflow_rejected(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8)
        with pytest.raises(SimulationError, match="does not fit"):
            sim.evaluate_packed([256, 0, 0])

    def test_shift_program_falls_back_unchanged(self, fig11_circuit):
        # The parallel technique's program shifts across lanes; the
        # simbase auto-pack must leave it on the exact scalar path.
        vectors = vectors_for(fig11_circuit, 20, seed=6)
        outputs = simulate_outputs(fig11_circuit, "parallel", vectors)
        reference = simulate_outputs(
            fig11_circuit, "parallel", list(vectors)
        )
        assert outputs == reference
        run = run_technique(fig11_circuit, "parallel", vectors)
        run()  # still executes scalar run_block without error

    def test_settled_program_not_auto_packed(self, fig4_circuit):
        # A PC-set program that settles from the previous vector's
        # finals runs scalar, exactly as the per-vector loop.
        sim = PCSetSimulator(fig4_circuit)
        assert sim.packing_mode == "none"
        sim.reset([0, 0, 0])
        vectors = vectors_for(fig4_circuit, 10, seed=8)
        expected = []
        ref = PCSetSimulator(fig4_circuit)
        ref.reset([0, 0, 0])
        for vector in vectors:
            expected.append(ref.apply_vector(list(vector)))
        assert sim.apply_vectors(vectors) == expected


class TestSimbaseFullMode:
    """A memoryless hand-built program auto-packs through simbase."""

    def _simulator(self, circuit, backend):
        class MemorylessSimulator(CompiledSimulator):
            def _encode_state(self, settled):
                # Scratch only: every variable is rewritten each pass.
                return [0] * len(self.program.state_vars)

        program = generate_lcc_program(circuit, word_width=16)
        return MemorylessSimulator(circuit, program, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_vectors_packs(self, fig1_circuit, backend):
        sim = self._simulator(fig1_circuit, backend)
        assert sim.packing_mode == "full"
        sim.reset()
        vectors = vectors_for(fig1_circuit, 37, seed=3)
        expected = [sim.machine.step(list(v)) for v in vectors]
        assert sim.apply_vectors(vectors) == expected
        assert sim.machine.counters.batches < 37 + len(expected)


class TestSettledOutputs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_scalar_final_values(self, backend):
        # Settled values of a batch come from the packed LCC program:
        # the PC-set method's final values after each scalar vector.
        circuit = random_dag_circuit(num_inputs=5, num_gates=25, seed=13)
        vectors = vectors_for(circuit, 41, seed=14)
        sim = LCCSimulator(circuit, backend=backend, word_width=16)
        packed = [
            {net: word & 1 for net, word in zip(circuit.outputs, out)}
            for out in sim.apply_vectors(vectors)
        ]
        ref = PCSetSimulator(circuit, backend=backend, word_width=16)
        ref.reset()
        expected = []
        for vector in vectors:
            ref.apply_vector(list(vector))
            expected.append(ref.final_values())
        assert packed == expected


class TestChecksumRegression:
    """Pin the derived fold width: 2 * word_width - 2.

    The constants below were computed once with the hardcoded 62-bit
    rotate this fold replaced; any change to the folding (width
    derivation, rotate amount, masking) shows up here, and the
    interpreted engine cross-check keeps the two engines compatible.
    """

    def test_fold_bits_derivation(self, fig1_circuit):
        assert LCCSimulator(fig1_circuit)._fold_bits == 62
        assert LCCSimulator(fig1_circuit, word_width=8)._fold_bits == 14
        assert LCCSimulator(fig1_circuit, word_width=64)._fold_bits == 126

    @pytest.mark.parametrize(
        "name,expected", [("c880", 0x11), ("c499", 0x82)]
    )
    def test_pinned_checksums(self, name, expected):
        circuit = make_circuit(name, scale_factor=0.25)
        vectors = vectors_for(circuit, 100, seed=9)
        packed = LCCSimulator(circuit, packed=True)
        scalar = LCCSimulator(circuit, packed=False)
        assert packed.run_batch(vectors) == expected
        assert scalar.run_batch(vectors) == expected
        assert ZeroDelaySimulator(circuit).run_batch(vectors) == expected
        # The checksum folds logical bit values, so it is word-width
        # independent for 0/1 batches.
        wide = LCCSimulator(circuit, word_width=64)
        assert wide.run_batch(vectors) == expected


class TestHarnessThreading:
    @pytest.mark.parametrize("packed", [True, False, "auto"])
    def test_zero_lcc_accepts_packed_option(self, fig1_circuit, packed):
        vectors = vectors_for(fig1_circuit, 24, seed=5)
        run = run_technique(
            fig1_circuit, "zero-lcc", vectors, packed=packed
        )
        run()


def _program_with_state():
    """A tiny program exercising state, shifts, and sar."""
    p = Program("tiled_probe", word_width=8, inputs=["a", "b"])
    p.declare("s", 3)
    t = p.declare_temp("t")
    p.init.append(Assign(t, Bin("&", Input(0), Input(1))))
    p.body.append(Assign("s", Bin("^", Var("s"), Var(t))))
    p.body.append(Assign(t, Bin("sar", Var("s"), Const(2))))
    p.output.append(Emit(Bin("|", Var("s"), Bin("<<", Var(t), Const(1))),
                         ("o",)))
    p.validate()
    return p


class TestDiagnostics:
    def test_validate_group_names_vector_span(self):
        p = _program_with_state()
        m = compile_program(p, "python")
        with pytest.raises(SimulationError,
                           match=r"group 1 \(vectors 8\.\.15\)"):
            m.run_packed_block([[1, 2], [1, 1 << 20]])
