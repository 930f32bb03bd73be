"""Tests for the shared compiled-simulator facade behaviour."""

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.errors import SimulationError
from repro.harness.vectors import vectors_for
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator


BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())


class TestReset:
    def test_default_reset_is_all_zeros(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        # Steady state of A=B=C=0 has D=E=0.
        assert sim.final_values() == {"E": 0}

    def test_reset_with_vector(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset([1, 1, 1])
        assert sim.final_values() == {"E": 1}

    def test_reset_matches_reference_after_reset(self, fig4_circuit):
        from repro.eventsim.simulator import EventDrivenSimulator

        reference = EventDrivenSimulator(fig4_circuit)
        sim = ParallelSimulator(fig4_circuit, word_width=8)
        reference.reset([1, 0, 1])
        sim.reset([1, 0, 1])
        assert reference.apply_vector([1, 1, 1], record=True) == \
            sim.apply_vector_history([1, 1, 1])


class TestVectorHandling:
    def test_mapping_vectors(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        sim.apply_vector({"A": 1, "B": 1, "C": 1})
        assert sim.final_values() == {"E": 1}

    def test_mapping_missing_input(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        with pytest.raises(SimulationError, match="missing"):
            sim.apply_vector({"A": 1, "B": 1})

    def test_run_batch_requires_reset(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        with pytest.raises(SimulationError, match="reset"):
            sim.run_batch([[1, 1, 1]])

    @pytest.mark.parametrize("facade", [ParallelSimulator, PCSetSimulator])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", ["1", 1.0, None])
    def test_non_integer_value_named(self, fig4_circuit, facade, backend,
                                     bad):
        sim = facade(fig4_circuit, backend=backend, word_width=8)
        sim.reset()
        with pytest.raises(
            SimulationError,
            match=rf"vector 0, input 1: value {bad!r} is not an integer",
        ):
            sim.apply_vector([1, bad, 0])
        vectors = [[0, 0, 0], [1, 1, 1], [1, bad, 0]]
        with pytest.raises(
            SimulationError,
            match=rf"vector 2, input 1: value {bad!r} is not an integer",
        ):
            sim.apply_vectors(vectors)
        named = [dict(zip("ABC", vector)) for vector in vectors]
        with pytest.raises(SimulationError, match=r"vector 2, input 1"):
            sim.apply_vectors(named)


class TestChecksums:
    def test_checksum_stable(self, fig4_circuit):
        vectors = vectors_for(fig4_circuit, 12, seed=6)
        a = PCSetSimulator(fig4_circuit)
        b = PCSetSimulator(fig4_circuit)
        a.reset()
        b.reset()
        assert a.run_batch_checksum(vectors) == b.run_batch_checksum(
            vectors
        )

    def test_checksum_differs_on_different_vectors(self, fig4_circuit):
        a = PCSetSimulator(fig4_circuit)
        a.reset()
        one = a.run_batch_checksum(vectors_for(fig4_circuit, 12, seed=1))
        a.reset()
        two = a.run_batch_checksum(vectors_for(fig4_circuit, 12, seed=2))
        assert one != two

    def test_source_accessor(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        assert "def machine():" in sim.source()
        assert sim.output_labels()


def _run_lcc(circuit, vectors, **pinned):
    from repro.lcc.zerodelay import LCCSimulator

    return LCCSimulator(circuit, **pinned).apply_vectors(vectors)


def _run_parallel(circuit, vectors, **pinned):
    sim = ParallelSimulator(circuit, word_width=8, **pinned)
    sim.reset()
    return sim.apply_vectors(vectors)


def _run_fault_simulator(circuit, vectors, **pinned):
    from repro.faults.simulator import ParallelFaultSimulator

    return ParallelFaultSimulator(circuit, **pinned).run(vectors)


def _run_fault_simulation(circuit, vectors, **pinned):
    from repro.faults.simulator import run_fault_simulation

    # The empty fault list returns before any simulator is built, so
    # the keyword must be checked at the entry point itself.
    return run_fault_simulation(circuit, vectors, [], **pinned)


def _run_sequential(circuit, vectors, **pinned):
    from repro.netlist.sequential import break_at_flipflops
    from repro.seqsim import CompiledSequentialSimulator

    sim = CompiledSequentialSimulator(
        break_at_flipflops(circuit, {}), **pinned
    )
    return sim.apply_vectors(vectors)


PINNED_ENTRY_POINTS = pytest.mark.parametrize("run", [
    _run_lcc, _run_parallel, _run_fault_simulator, _run_fault_simulation,
    _run_sequential,
], ids=["LCCSimulator", "ParallelSimulator", "ParallelFaultSimulator",
        "run_fault_simulation", "CompiledSequentialSimulator"])


@PINNED_ENTRY_POINTS
@pytest.mark.parametrize("partitions", [0, 1, 2])
def test_partitions_accepts_only_one(fig4_circuit, run, partitions):
    # Partitioned execution was removed; the keyword survives only as
    # a pinned 1, and anything else must fail loudly instead of
    # quietly running monolithic.
    vectors = vectors_for(fig4_circuit, 3, seed=0)
    if partitions == 1:
        assert run(fig4_circuit, vectors, partitions=partitions) is not None
        return
    with pytest.raises(SimulationError, match="partitioned execution"):
        run(fig4_circuit, vectors, partitions=partitions)


@PINNED_ENTRY_POINTS
@pytest.mark.parametrize("tiles", [0, 1, 2, "auto"])
def test_tiles_accepts_only_one(fig4_circuit, run, tiles):
    # Tiled and laned execution were removed the same way: every net
    # is one word, and any tile count but 1 is an error, probes or not.
    vectors = vectors_for(fig4_circuit, 3, seed=0)
    if tiles == 1:
        assert run(fig4_circuit, vectors, tiles=tiles) is not None
        return
    with pytest.raises(SimulationError, match="tiles must be 1"):
        run(fig4_circuit, vectors, tiles=tiles)
    if run is _run_lcc:
        with pytest.raises(SimulationError, match="tiles must be 1"):
            run(fig4_circuit, vectors, tiles=tiles, probes=True)
