"""Tests for fault grading with the fault list split across threads.

``workers = W > 1`` splits a C screen's pins across ``min(W, faults)``
threads: fault ``i`` goes to thread ``i mod W``, each thread runs one
``screen`` call on a sibling machine of the one compiled program, and
the results go back in fault order.  The hard contract under test: the
report at any worker count equals (``==``) the inline run bit for bit,
same detected map (fault -> first detecting vector), same undetected
faults in the same order, on both backends.
"""

import pytest

from repro.codegen.program import Program
from repro.codegen.runtime import CMachine, PythonMachine, have_c_compiler
from repro.errors import SimulationError
from repro.faults import simulator as fault_simulator
from repro.faults.model import Fault, full_fault_list
from repro.faults.simulator import (
    FaultReport,
    ParallelFaultSimulator,
    run_fault_simulation,
    serial_fault_simulation,
)
from repro.harness.vectors import vectors_for
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.random_circuits import random_dag_circuit

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)
BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())


def _workload(bits=3, num_vectors=14, seed=5):
    circuit = ripple_carry_adder(bits)
    vectors = vectors_for(circuit, num_vectors, seed=seed)
    return circuit, vectors, full_fault_list(circuit)


def _batches(vectors, patterns):
    """The calls a test grades ``vectors`` in: ``"packed"`` hands the
    whole list to one call, so up to ``word_width`` vectors share each
    compiled pass; ``"scalar"`` hands over one vector per call, so every
    pass carries a single pattern in lane 0."""
    if patterns == "scalar":
        return [[vector] for vector in vectors]
    return [vectors]


def _no_threads(monkeypatch):
    """Make starting a thread in the fault simulator fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(fault_simulator.threading, "Thread", refuse)


class TestShardFaults:
    @NEED_CC
    def test_more_shards_than_faults_clamps(self, monkeypatch):
        # Three faults, one named twice, over seven workers: three
        # parts, one fault each, so two siblings beside the compiled
        # machine.  The Python backend grades them in one call.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        faults = [faults[4], faults[0], faults[4]]
        inline = run_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c"
        )
        assert inline == serial_fault_simulation(circuit, vectors, faults)
        assert run_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=7
        ) == inline
        calls = []
        screen_call = CMachine.screen_call

        def spy(machine, lanes, count, goods, start, pins, values):
            calls.append(list(pins))
            return screen_call(
                machine, lanes, count, goods, start, pins, values
            )

        monkeypatch.setattr(CMachine, "screen_call", spy)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        assert sim.run(vectors, faults, workers=7) == inline
        assert len(sim._siblings) == 2
        assert calls == [[sim._pin[fault.net]] for fault in faults]

    @NEED_CC
    def test_strided_split(self, monkeypatch):
        # Fault i goes to part i mod W; each part is one screen call.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        calls = []
        screen_call = CMachine.screen_call

        def spy(machine, lanes, count, goods, start, pins, values):
            calls.append(list(pins))
            return screen_call(
                machine, lanes, count, goods, start, pins, values
            )

        monkeypatch.setattr(CMachine, "screen_call", spy)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        sim.run(vectors, faults, workers=3)
        pins = [sim._pin[fault.net] for fault in faults]
        assert calls == [pins[0::3], pins[1::3], pins[2::3]]

    def test_empty_and_invalid(self):
        # The split on the simulator itself: no pins, no parts; a
        # worker count below 1 is refused before anything runs.
        circuit, vectors, faults = _workload(bits=2)
        sim = ParallelFaultSimulator(circuit, word_width=16)
        report = sim.run(vectors, [], workers=3)
        assert report == FaultReport({}, [], len(vectors))
        assert sim._siblings == []
        with pytest.raises(SimulationError, match="workers must be >= 1"):
            sim.run(vectors, faults, workers=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers, capsys):
        # Every entry point refuses it, rather than quietly grading in
        # the calling thread.
        from repro.cli import main

        circuit, vectors, faults = _workload()
        message = rf"workers must be >= 1: {workers}"
        with pytest.raises(SimulationError, match=message):
            run_fault_simulation(circuit, vectors, faults, workers=workers)
        with pytest.raises(SimulationError, match=message):
            run_fault_simulation(circuit, vectors, [], workers=workers)
        assert main(["faults", "rca2", "-n", "4", "-j", str(workers)]) == 2
        assert capsys.readouterr().err == f"repro-sim: error: {message}\n"

    def test_empty_fault_list_short_circuits_inline(self):
        circuit, vectors, _ = _workload()
        report = run_fault_simulation(circuit, vectors, [])
        assert isinstance(report, FaultReport)
        assert report.num_faults == 0
        assert report.detected == {}
        assert report.undetected == []
        assert report.coverage == 1.0
        assert report.num_vectors == len(vectors)

    @NEED_CC
    def test_empty_fault_list_short_circuits_sharded(self, monkeypatch):
        # workers > 1 must not compile anything, or start any thread,
        # just to grade zero faults.
        def refuse(*args):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(CMachine, "_compile", refuse)
        _no_threads(monkeypatch)
        circuit, vectors, _ = _workload()
        report = run_fault_simulation(
            circuit, vectors, [], workers=3, backend="c"
        )
        assert type(report) is FaultReport
        assert report.num_faults == 0
        assert report.coverage == 1.0
        assert report.num_vectors == len(vectors)
        assert report.counters is None


class TestMergedEqualsSingleProcess:
    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    def test_patterns_modes_python_backend(self, patterns, monkeypatch):
        # The Python screen holds the GIL: one call grades the whole
        # list at any worker count, on no thread.
        circuit, vectors, faults = _workload()
        calls = []
        screen = PythonMachine.screen

        def spy(machine, lanes, count, goods, start, pins, values):
            calls.append(len(pins))
            return screen(machine, lanes, count, goods, start, pins, values)

        monkeypatch.setattr(PythonMachine, "screen", spy)
        _no_threads(monkeypatch)
        for batch in _batches(vectors, patterns):
            single = run_fault_simulation(
                circuit, batch, faults, word_width=16
            )
            threaded = run_fault_simulation(
                circuit, batch, faults, word_width=16, workers=2,
            )
            assert type(threaded) is FaultReport
            assert threaded == single
            assert threaded.undetected == single.undetected  # same order
            assert calls == [len(faults), len(faults)]
            calls.clear()

    @NEED_CC
    @pytest.mark.parametrize("patterns", ["scalar", "packed"])
    def test_patterns_modes_c_backend(self, patterns):
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        for batch in _batches(vectors, patterns):
            single = run_fault_simulation(
                circuit, batch, faults, word_width=16, backend="c",
            )
            threaded = run_fault_simulation(
                circuit, batch, faults, word_width=16, backend="c",
                workers=2,
            )
            assert threaded == single
            assert threaded.undetected == single.undetected

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_match(self, seed):
        # One to four workers, both backends: the inline report, which
        # equals serial injection.
        circuit = random_dag_circuit(seed + 120, num_inputs=4,
                                     num_gates=14)
        vectors = vectors_for(circuit, 12, seed=seed)
        faults = full_fault_list(circuit)
        serial = serial_fault_simulation(circuit, vectors, faults)
        for backend in BACKENDS:
            for workers in (1, 2, 3, 4):
                report = run_fault_simulation(
                    circuit, vectors, faults, word_width=8,
                    backend=backend, workers=workers,
                )
                assert report == serial, (backend, workers)
                assert report.undetected == serial.undetected

    @NEED_CC
    def test_workers_one_runs_inline(self, monkeypatch):
        # One machine, no thread, no sibling: two kernel calls.
        circuit, vectors, faults = _workload()
        _no_threads(monkeypatch)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        report = sim.run(vectors, faults, workers=1)
        assert sim._siblings == []
        assert sim.batch_counters().batches == 2
        monkeypatch.undo()
        assert report == sim.run(vectors, faults, workers=2)

    def test_wrapper_and_harness_plumbing(self):
        circuit, vectors, faults = _workload(bits=2, num_vectors=8)
        single = run_fault_simulation(
            circuit, vectors, faults, word_width=16
        )
        via_wrapper = run_fault_simulation(
            circuit, vectors, faults, word_width=16, workers=2
        )
        assert type(via_wrapper) is FaultReport
        assert via_wrapper == single

    def test_empty_fault_list(self):
        circuit, vectors, _faults = _workload(bits=2)
        report = run_fault_simulation(
            circuit, vectors, [], word_width=16, workers=2
        )
        assert report.detected == {}
        assert report.undetected == []
        assert report.num_vectors == len(vectors)

    def test_unknown_net_rejected_before_pool_start(self, monkeypatch):
        # Checked before any machine is compiled or thread started.
        monkeypatch.setattr(
            ParallelFaultSimulator, "_compiled",
            lambda self: pytest.fail("a machine was built"),
        )
        _no_threads(monkeypatch)
        circuit, vectors, _faults = _workload(bits=2)
        with pytest.raises(SimulationError, match="GHOST"):
            run_fault_simulation(
                circuit, vectors, [Fault("GHOST", 0)], workers=2
            )

    def test_bad_start_method_rejected(self):
        # There is no start method to choose: any is refused.
        circuit, vectors, faults = _workload(bits=2)
        with pytest.raises(TypeError, match="mp_start"):
            run_fault_simulation(
                circuit, vectors, faults, workers=2, mp_start="teleport",
            )


class TestThreadedGrading:
    @NEED_CC
    def test_counters_summed_over_machines(self):
        circuit, vectors, faults = _workload()
        inline = run_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c"
        )
        threaded = run_fault_simulation(
            circuit, vectors, faults, word_width=16, backend="c",
            workers=3,
        )
        # The pre-pass and one screen batch per machine, carrying the
        # same passes as the one inline screen.
        assert inline.counters.batches == 2
        assert threaded.counters.batches == 4
        assert threaded.counters.vectors == inline.counters.vectors

    @NEED_CC
    def test_siblings_reuse_the_loaded_library(self, monkeypatch):
        # Siblings share the compiled program's library: once it is
        # built, no thread's machine compiles it again, and a
        # simulator keeps its siblings from one run to the next.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        sim.warm_up()

        def refuse(*args):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(CMachine, "_compile", refuse)
        first = sim.run(vectors, faults, workers=2)
        siblings = list(sim._siblings)
        assert first == sim.run(vectors, faults, workers=2)
        assert sim._siblings == siblings
        assert siblings[0]._lib is sim._machine._lib
        assert siblings[0]._state is not sim._machine._state

    @NEED_CC
    def test_siblings_are_not_rendered_again(self, monkeypatch):
        # A sibling is made from the loaded library: the program's
        # source is neither rendered nor hashed again.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        inline = sim.run(vectors, faults)

        def refuse(program):
            raise AssertionError("the source was rendered again")

        monkeypatch.setattr(Program, "c_source", refuse)
        assert sim.run(vectors, faults, workers=3) == inline
        machine = sim._machine
        assert len(sim._siblings) == 2
        for sibling in sim._siblings:
            assert sibling._lib is machine._lib
            assert sibling.source is machine.source
            assert sibling._state is not machine._state
            assert sibling._in_bytes is not machine._in_bytes
            assert sibling.counters is not machine.counters

    @NEED_CC
    @pytest.mark.parametrize("failing", [0, 1])
    def test_thread_exception_reaches_the_caller(self, failing):
        # Part 0 runs on the calling thread, part 1 on a second one;
        # either part's error is raised to the caller once both joined.
        circuit, vectors, faults = _workload(bits=2, num_vectors=10)
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        expected = sim.run(vectors, faults, workers=2)
        machine = (sim._machine, *sim._siblings)[failing]
        kernel = machine._entry["screen"]

        def broken(*args):
            raise RuntimeError(f"part {failing} failed")

        machine._entry["screen"] = broken
        before = sim.batch_counters().batches
        with pytest.raises(RuntimeError, match=f"part {failing} failed"):
            sim.run(vectors, faults, workers=2)
        # Only the pre-pass was recorded: no part's screen is counted
        # when one of them failed.
        assert sim.batch_counters().batches == before + 1
        machine._entry["screen"] = kernel
        assert sim.run(vectors, faults, workers=2) == expected


class TestRobustness:
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
