"""Tests for sharded multiprocess fault grading (repro.faults.sharding).

The hard contract under test: the merged report of any sharded run —
whatever the pool geometry, start method, or failure pattern — equals
(``==``) the single-process run bit for bit: same detected map (fault
-> first detecting vector), same undetected faults in the same order.
"""

import pytest

from repro.codegen.runtime import CMachine, have_c_compiler
from repro.errors import SimulationError
from repro.faults.model import Fault, full_fault_list
from repro.faults.sharding import (
    ShardedFaultReport,
    run_sharded_fault_simulation,
    shard_faults,
)
from repro.faults.simulator import FaultReport, run_fault_simulation
from repro.harness.runner import grade_faults
from repro.harness.vectors import vectors_for
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.random_circuits import random_dag_circuit

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


def _workload(bits=3, num_vectors=14, seed=5):
    circuit = ripple_carry_adder(bits)
    vectors = vectors_for(circuit, num_vectors, seed=seed)
    return circuit, vectors, full_fault_list(circuit)


class TestShardFaults:
    def test_contiguous_near_even_partition(self):
        faults = full_fault_list(ripple_carry_adder(3))
        shards = shard_faults(faults, 4)
        assert len(shards) == 4
        assert [f for shard in shards for f in shard] == faults
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        # Deterministic: same split every time.
        assert shard_faults(faults, 4) == shards

    def test_more_shards_than_faults_clamps(self):
        faults = [Fault("A", 0), Fault("A", 1)]
        shards = shard_faults(faults, 10)
        assert shards == [[faults[0]], [faults[1]]]

    def test_empty_and_invalid(self):
        # An empty fault list has no shards at all — the historical
        # [[]] answer made the pool grade a shard of nothing.
        assert shard_faults([], 3) == []
        with pytest.raises(SimulationError, match="num_shards"):
            shard_faults([Fault("A", 0)], 0)

    def test_empty_fault_list_short_circuits_inline(self):
        circuit, vectors, _ = _workload()
        report = run_fault_simulation(circuit, vectors, [])
        assert isinstance(report, FaultReport)
        assert report.num_faults == 0
        assert report.detected == {}
        assert report.undetected == []
        assert report.coverage == 1.0
        assert report.num_vectors == len(vectors)

    def test_empty_fault_list_short_circuits_sharded(self):
        # workers > 1 must not spin up a pool (or compile anything)
        # just to grade zero faults.
        circuit, vectors, _ = _workload()
        report = run_fault_simulation(circuit, vectors, [], workers=3)
        assert isinstance(report, ShardedFaultReport)
        assert report.num_faults == 0
        assert report.coverage == 1.0
        assert report.num_vectors == len(vectors)
        stats = report.sharding_stats()
        assert stats["num_shards"] == 0
        assert stats["workers"] == 1
        assert stats["mp_start"] == "inline"
        assert not report.degraded


class TestMergedEqualsSingleProcess:
    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    def test_patterns_modes_python_backend(self, patterns):
        circuit, vectors, faults = _workload()
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16, patterns=patterns
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, patterns=patterns,
            workers=2, mp_start="fork",
        )
        assert isinstance(sharded, ShardedFaultReport)
        assert sharded == single
        assert sharded.undetected == single.undetected  # same order too
        assert sum(sharded.shard_sizes) == len(faults)
        assert not sharded.retried_shards
        assert not sharded.degraded

    @NEED_CC
    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    def test_patterns_modes_c_backend(self, patterns):
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c",
            patterns=patterns,
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c",
            patterns=patterns, workers=2, mp_start="fork",
        )
        assert sharded == single

    @NEED_CC
    def test_forked_workers_reuse_parent_programs(self, monkeypatch):
        # A forked worker inherits the parent's loaded libraries: once
        # the parent has compiled the program, no worker compiles it
        # again.  A worker that did would raise and lose its shards to
        # the parent's in-process retry.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        inline = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c",
            workers=1,
        )

        def refuse(*args):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(CMachine, "_compile", refuse)
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c",
            workers=2, shards=2, mp_start="fork",
        )
        assert sharded == inline
        assert sharded.retried_shards == []

    def test_spawn_round_trip(self):
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16,
            workers=2, mp_start="spawn",
        )
        assert sharded == single
        assert sharded.mp_start == "spawn"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_match(self, seed):
        circuit = random_dag_circuit(seed + 120, num_inputs=4,
                                     num_gates=14)
        vectors = vectors_for(circuit, 12, seed=seed)
        faults = full_fault_list(circuit)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=8
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=8, workers=2,
            shards=5, mp_start="fork",
        )
        assert sharded == single

    def test_workers_one_runs_inline(self):
        circuit, vectors, faults = _workload()
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=1
        )
        assert sharded == single
        assert sharded.mp_start == "inline"
        assert sharded.workers == 1

    def test_wrapper_and_harness_plumbing(self):
        circuit, vectors, faults = _workload(bits=2, num_vectors=8)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        via_wrapper = run_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2
        )
        via_harness = grade_faults(
            circuit, vectors, faults, word_width=16, workers=2
        )
        assert isinstance(via_wrapper, ShardedFaultReport)
        assert via_wrapper == single
        assert via_harness == single

    def test_empty_fault_list(self):
        circuit, vectors, _faults = _workload(bits=2)
        report = run_sharded_fault_simulation(
            circuit, vectors, [], word_width=16, workers=2
        )
        assert report.detected == {}
        assert report.undetected == []
        assert report.num_vectors == len(vectors)

    def test_unknown_net_rejected_before_pool_start(self):
        circuit, vectors, _faults = _workload(bits=2)
        with pytest.raises(SimulationError, match="GHOST"):
            run_sharded_fault_simulation(
                circuit, vectors, [Fault("GHOST", 0)], workers=2
            )

    def test_bad_start_method_rejected(self):
        circuit, vectors, faults = _workload(bits=2)
        with pytest.raises(SimulationError, match="start method"):
            run_sharded_fault_simulation(
                circuit, vectors, faults, workers=2,
                mp_start="teleport",
            )


class TestRobustness:
    def test_failed_shard_retried_in_process(self):
        circuit, vectors, faults = _workload()
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2,
            shards=4, mp_start="fork", _fail_shards={1},
        )
        assert sharded == single  # report still complete
        assert 1 in sharded.retried_shards

    def test_killed_worker_retried_in_process(self):
        # os._exit in the worker breaks the whole pool; every shard it
        # takes down must be regraded in-process and the merged report
        # must still be complete and identical.
        circuit, vectors, faults = _workload()
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2,
            shards=4, mp_start="fork",
            _fail_shards={0}, _fail_mode="exit",
        )
        assert sharded == single
        assert 0 in sharded.retried_shards

    def test_shard_timeout_triggers_in_process_retry(self):
        circuit, vectors, faults = _workload(bits=2, num_vectors=8)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2,
            shards=2, mp_start="fork", shard_timeout=0.25,
            _delay_shards={0: 5.0},
        )
        assert sharded == single
        assert 0 in sharded.retried_shards

    def test_pool_start_failure_degrades_to_single_process(self, monkeypatch):
        from repro.faults import sharding as sharding_module

        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(
            sharding_module, "ProcessPoolExecutor", broken_pool
        )
        circuit, vectors, faults = _workload(bits=2, num_vectors=8)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2
        )
        assert sharded == single
        assert sharded.degraded

    def test_report_metadata_round_trip(self):
        circuit, vectors, faults = _workload(bits=2, num_vectors=8)
        sharded = run_sharded_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2,
            mp_start="fork",
        )
        stats = sharded.sharding_stats()
        assert stats["workers"] == 2
        assert stats["num_shards"] == len(stats["shard_sizes"])
        assert stats["counters"]["vectors"] > 0
        assert "x" in repr(sharded)  # "P workers x S shards"

    def test_report_equality_contract(self):
        # FaultReport.__eq__ is what the acceptance gate leans on:
        # order of undetected matters, vector count matters.
        fault = Fault("A", 0)
        other = Fault("A", 1)
        base = FaultReport({fault: 3}, [other], 10)
        assert base == FaultReport({fault: 3}, [other], 10)
        assert base != FaultReport({fault: 2}, [other], 10)
        assert base != FaultReport({fault: 3}, [], 10)
        assert base != FaultReport({fault: 3}, [other], 11)
        assert (base == object()) is False
