"""Lane tiling past the word_width ceiling.

A machine compiled with ``tiles=K`` gives every net an array of K
words — ``word_width * K`` pattern lanes per compiled pass — and a
shift program run laned gives each lane its own word so time-shift
ops move history *within* a lane.  The contract everywhere is
bit-identity: at any K, on any backend, outputs (and, for the laned
chain, final machine state) equal the K=1 run word for word.
"""

import random

import pytest

from repro.codegen.packing import (
    MAX_TILES,
    lane_segments,
    select_lanes,
    select_tiles,
    tile_groups,
)
from repro.codegen.program import Assign, Bin, Const, Emit, Input, Program, Var
from repro.codegen.runtime import compile_program, have_c_compiler
from repro.errors import SimulationError
from repro.faults.simulator import run_fault_simulation
from repro.fuzz.lattice import FuzzConfig
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator

BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())


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


class TestEmitterStability:
    """tiles=1 must be byte-identical to the untiled emitters —
    otherwise every existing cached artifact would recompile."""

    def test_python_source_k1_identity(self):
        p = _program_with_state()
        assert p.python_source(tiles=1) == p.python_source()

    def test_c_source_k1_identity(self):
        p = _program_with_state()
        assert p.c_source(tiles=1) == p.c_source()

    def test_tiled_sources_differ(self):
        p = _program_with_state()
        assert p.python_source(tiles=2) != p.python_source()
        assert p.c_source(tiles=2) != p.c_source()


class TestTiledMachineIdentity:
    """A K-tile machine is K independent copies of the K=1 machine."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tiles", [2, 3])
    def test_lanes_are_independent(self, backend, tiles):
        p = _program_with_state()
        scalar = compile_program(p, backend)
        tiled = compile_program(p, backend, tiles=tiles)
        rng = random.Random(7)
        groups = [[rng.randrange(256) for _ in range(2)]
                  for _ in range(tiles)]
        want = []
        for group in groups:
            m = compile_program(p, backend)
            out = []
            m.run_packed_block([group], out)
            want.append(out)
        row = [groups[t][s] for s in range(2) for t in range(tiles)]
        got = []
        tiled.run_packed_block([row], got)
        n_out = scalar.num_outputs
        for t in range(tiles):
            assert [got[o * tiles + t] for o in range(n_out)] == want[t]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_roundtrip_is_tile_minor(self, backend):
        p = _program_with_state()
        tiled = compile_program(p, backend, tiles=2)
        tiled.load_state([5, 9])
        assert tiled.dump_state() == [5, 9]


class TestSelectionPolicy:
    def test_python_backend_never_tiles(self):
        assert select_tiles(10_000, 8, backend="python") == 1
        assert select_lanes(10_000, backend="python") == 1

    def test_c_backend_scales_with_groups(self):
        assert select_tiles(8, 8, backend="c") == 1
        assert select_tiles(3 * 8, 8, backend="c") == 3
        assert select_tiles(100 * 8, 8, backend="c") == MAX_TILES

    def test_lane_floor(self):
        assert select_lanes(31, backend="c") == 1
        assert select_lanes(32, backend="c") == 2
        assert select_lanes(1000, backend="c") == MAX_TILES

    def test_word_width_one_packing_functions(self):
        # The packing-layer helpers must cope with degenerate 1-bit
        # words (one vector per lane) even though compiled programs
        # only exist at 8/16/32/64.
        assert select_tiles(5, 1, backend="c") == 5
        rows = tile_groups([[1], [0], [1]], 1, 2)
        assert rows == [[1, 0], [1, 0]]
        assert lane_segments(5, 2) == [(0, 2), (2, 3)]

    def test_lane_segments_cover_batch_in_order(self):
        for total in (1, 7, 16, 33):
            for lanes in (1, 2, 5):
                segs = lane_segments(total, lanes)
                assert len(segs) == lanes
                cursor = 0
                for start, length in segs:
                    assert start == cursor
                    cursor += length
                assert cursor == total
                # last lane always ends at the final vector
                assert segs[-1][0] + segs[-1][1] == total

    def test_bad_tiles_rejected(self):
        with pytest.raises(SimulationError, match="tiles"):
            LCCSimulator(random_dag_circuit(0, num_inputs=3, num_gates=6),
                         tiles=0)


class TestPackedTiledExecution:
    """Tiled packed apply_vectors vs the single-word packed path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tiles", [2, 4, MAX_TILES, "auto"])
    def test_lcc_batch_identity(self, backend, tiles):
        circuit = random_dag_circuit(21, num_inputs=5, num_gates=24)
        # 37 is not a multiple of word_width*K for any K under test.
        vectors = vectors_for(circuit, 37, seed=21)
        base = LCCSimulator(circuit, word_width=8,
                            backend=backend).apply_vectors(vectors)
        sim = LCCSimulator(circuit, word_width=8, backend=backend,
                           tiles=tiles)
        assert sim.apply_vectors(vectors) == base
        assert (sim.run_batch(vectors)
                == LCCSimulator(circuit, word_width=8,
                                backend=backend).run_batch(vectors))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pcset_settled_identity(self, backend):
        circuit = random_dag_circuit(22, num_inputs=4, num_gates=20)
        vectors = vectors_for(circuit, 29, seed=22)
        zeros = [0] * len(circuit.inputs)
        base = PCSetSimulator(circuit, word_width=8, backend=backend)
        base.reset(zeros)
        tiled = PCSetSimulator(circuit, word_width=8, backend=backend,
                               tiles=3)
        tiled.reset(zeros)
        assert tiled.settled_outputs(vectors) == base.settled_outputs(
            vectors
        )

    def test_batch_smaller_than_one_tile(self):
        # K clamps to the group count: a 3-vector batch on a K=4
        # request must not pad itself into a mostly-idle pass.
        circuit = random_dag_circuit(23, num_inputs=4, num_gates=15)
        vectors = vectors_for(circuit, 3, seed=23)
        base = LCCSimulator(circuit, word_width=8).apply_vectors(vectors)
        sim = LCCSimulator(circuit, word_width=8, tiles=4)
        assert sim.apply_vectors(vectors) == base


class TestLanedShiftExecution:
    """Shift programs packed K vectors per pass, one lane per word."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("optimization",
                             ["none", "pathtrace+trim"])
    @pytest.mark.parametrize("tiles", [2, 3, MAX_TILES])
    def test_outputs_and_final_state(self, backend, optimization, tiles):
        circuit = random_dag_circuit(31, num_inputs=5, num_gates=25)
        vectors = vectors_for(circuit, 41, seed=31)
        zeros = [0] * len(circuit.inputs)

        scalar = ParallelSimulator(circuit, optimization=optimization,
                                   word_width=8, backend=backend)
        scalar.reset(zeros)
        want = scalar.apply_vectors(vectors)

        laned = ParallelSimulator(circuit, optimization=optimization,
                                  word_width=8, backend=backend,
                                  tiles=tiles)
        laned.reset(zeros)
        assert laned.apply_vectors(vectors) == want
        # Exact chain continuity: the laned run hands the last lane's
        # state back to the scalar machine.
        assert (laned.machine.dump_state()
                == scalar.machine.dump_state())

    def test_chain_continues_across_batches(self):
        circuit = random_dag_circuit(32, num_inputs=4, num_gates=20)
        vectors = vectors_for(circuit, 50, seed=32)
        zeros = [0] * len(circuit.inputs)
        scalar = ParallelSimulator(circuit, word_width=8)
        scalar.reset(zeros)
        want = scalar.apply_vectors(vectors)
        laned = ParallelSimulator(circuit, word_width=8, tiles=2)
        laned.reset(zeros)
        got = laned.apply_vectors(vectors[:23])
        got += laned.apply_vectors(vectors[23:])
        assert got == want


class TestTiledFaultGrading:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_report_identity(self, backend):
        circuit = random_dag_circuit(51, num_inputs=5, num_gates=22)
        vectors = vectors_for(circuit, 45, seed=51)
        base = run_fault_simulation(circuit, vectors, word_width=8,
                                    backend=backend)
        for tiles in (2, "auto"):
            tiled = run_fault_simulation(circuit, vectors, word_width=8,
                                         backend=backend, tiles=tiles)
            assert tiled == base

    def test_sharded_tiled_identity(self):
        circuit = random_dag_circuit(52, num_inputs=4, num_gates=18)
        vectors = vectors_for(circuit, 30, seed=52)
        base = run_fault_simulation(circuit, vectors, word_width=8)
        sharded = run_fault_simulation(circuit, vectors, word_width=8,
                                       tiles=2, workers=2)
        assert sharded == base


class TestDiagnostics:
    def test_validate_group_names_vector_span(self):
        p = _program_with_state()
        m = compile_program(p, "python")
        with pytest.raises(SimulationError,
                           match=r"group 1 \(vectors 8\.\.15\)"):
            m.run_packed_block([[1, 2], [1, 1 << 20]])

    def test_validate_group_span_scales_with_tiles(self):
        p = _program_with_state()
        m = compile_program(p, "python", tiles=2)
        with pytest.raises(SimulationError,
                           match=r"group 1 \(vectors 16\.\.31\)"):
            m.run_packed_block([[0, 0, 0, 0], [0, 1 << 20, 0, 0]])


class TestFuzzLatticeTiles:
    def test_default_tiles_keeps_corpus_ids(self):
        config = FuzzConfig()
        assert "tiles" not in config.as_dict()
        assert FuzzConfig.from_dict(config.as_dict()) == config

    def test_tiled_config_round_trip(self):
        config = FuzzConfig(check="packed", technique="zero-lcc",
                            word_width=8, tiles=4)
        data = config.as_dict()
        assert data["tiles"] == 4
        assert FuzzConfig.from_dict(data) == config
        assert config.label().endswith("k4")
