"""Tests for the shared compiled-simulator facade behaviour."""

import pytest

from repro.errors import SimulationError
from repro.harness.vectors import vectors_for
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator


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


def _run_lcc(circuit, vectors, partitions):
    from repro.lcc.zerodelay import LCCSimulator

    return LCCSimulator(circuit, partitions=partitions).apply_vectors(
        vectors
    )


def _run_parallel(circuit, vectors, partitions):
    sim = ParallelSimulator(circuit, word_width=8, partitions=partitions)
    sim.reset()
    return sim.apply_vectors(vectors)


def _run_fault_simulator(circuit, vectors, partitions):
    from repro.faults.simulator import ParallelFaultSimulator

    return ParallelFaultSimulator(circuit, partitions=partitions).run(
        vectors
    )


def _run_fault_simulation(circuit, vectors, partitions):
    from repro.faults.simulator import run_fault_simulation

    # The empty fault list returns before any simulator is built, so
    # the keyword must be checked at the entry point itself.
    return run_fault_simulation(circuit, vectors, [],
                                partitions=partitions)


def _run_sequential(circuit, vectors, partitions):
    from repro.netlist.sequential import break_at_flipflops
    from repro.seqsim import CompiledSequentialSimulator

    sim = CompiledSequentialSimulator(
        break_at_flipflops(circuit, {}), partitions=partitions
    )
    return sim.apply_vectors(vectors)


@pytest.mark.parametrize("run", [
    _run_lcc, _run_parallel, _run_fault_simulator, _run_fault_simulation,
    _run_sequential,
], ids=["LCCSimulator", "ParallelSimulator", "ParallelFaultSimulator",
        "run_fault_simulation", "CompiledSequentialSimulator"])
@pytest.mark.parametrize("partitions", [0, 1, 2])
def test_partitions_accepts_only_one(fig4_circuit, run, partitions):
    # Partitioned execution was removed; the keyword survives only as
    # a pinned 1, and anything else must fail loudly instead of
    # quietly running monolithic.
    vectors = vectors_for(fig4_circuit, 3, seed=0)
    if partitions == 1:
        assert run(fig4_circuit, vectors, partitions) is not None
        return
    with pytest.raises(SimulationError, match="partitioned execution"):
        run(fig4_circuit, vectors, partitions)
