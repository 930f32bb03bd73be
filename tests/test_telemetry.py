"""Tests for the telemetry layer (repro.telemetry) and its plumbing.

Covers the contracts the instrumentation promises: span nesting and
self-time bookkeeping, the allocation-free disabled path, the snapshot
sections, the CLI export surfaces (``--profile``, ``--metrics-out`` and
the ``profile`` subcommand), and deterministic phase counts when a
fault screen is split across threads.
"""

import json
import re
import time

import pytest

from repro import telemetry
from repro.cli import main
from repro.codegen.runtime import have_c_compiler
from repro.faults.simulator import (
    ParallelFaultSimulator,
    run_fault_simulation,
)
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.generators import ripple_carry_adder
from repro.parallel.simulator import ParallelSimulator

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Isolate every test from global telemetry state."""
    prior = telemetry.enabled()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.enable() if prior else telemetry.disable()
    telemetry.reset()


class TestSpans:
    def test_nested_paths_aggregate(self):
        telemetry.enable()
        for _ in range(2):
            with telemetry.span("emit"):
                with telemetry.span("levelize"):
                    pass
        phases = telemetry.snapshot()["phases"]
        assert set(phases) == {"emit", "emit/levelize"}
        assert phases["emit"]["count"] == 2
        assert phases["emit/levelize"]["count"] == 2

    def test_self_time_excludes_children(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        outer = telemetry.snapshot()["phases"]["outer"]
        inner = telemetry.snapshot()["phases"]["outer/inner"]
        assert outer["seconds"] >= inner["seconds"]
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"]
        )
        # Leaf spans have no children: self == total.
        assert inner["self_seconds"] == inner["seconds"]

    def test_record_phase_joins_under_stack(self):
        telemetry.enable()
        with telemetry.span("fault.screen"):
            telemetry.record_phase("run", 0.25, count=3)
        phases = telemetry.snapshot()["phases"]
        run = phases["fault.screen/run"]
        assert run["count"] == 3
        assert run["seconds"] == pytest.approx(0.25)
        # The pre-measured time counts as the parent's child time.
        screen = phases["fault.screen"]
        assert screen["seconds"] - screen["self_seconds"] == pytest.approx(
            0.25
        )

    def test_record_phase_top_level(self):
        telemetry.enable()
        telemetry.record_phase("run", 1.5)
        assert telemetry.phase_totals() == {"run": pytest.approx(1.5)}

    def test_abandoned_inner_span_does_not_poison_the_stack(self):
        # A generator that enters a span and is never resumed leaves
        # the span's frame on the stack; the enclosing span's exit
        # must pop defensively back to itself, or every later phase
        # inherits a stale path prefix.
        telemetry.enable()

        def walker():
            with telemetry.span("inner"):
                yield "mid-body"

        with telemetry.span("outer"):
            gen = walker()
            next(gen)  # enter "inner", abandon it mid-body
        # The outer exit discarded the stale frame: later spans are
        # top-level again.
        with telemetry.span("later"):
            pass
        phases = telemetry.snapshot()["phases"]
        assert "later" in phases
        assert "outer" in phases
        assert not any("/later" in path for path in phases)
        from repro.telemetry import _STACK
        assert _STACK == []
        # Closing the generator afterwards fires inner's __exit__ with
        # self no longer on the stack; it must record quietly without
        # corrupting state.
        gen.close()
        phases = telemetry.snapshot()["phases"]
        assert phases["outer/inner"]["count"] == 1
        assert _STACK == []
        with telemetry.span("after"):
            pass
        assert "after" in telemetry.snapshot()["phases"]

    def test_disabled_span_is_shared_singleton(self):
        assert not telemetry.enabled()
        first = telemetry.span("emit", gates=10)
        second = telemetry.span("run")
        assert first is second  # one shared no-op object, no allocation
        with first as entered:
            assert entered is first
            entered.annotate(extra=1)
            entered.count("batches")
        assert telemetry.snapshot()["phases"] == {}
        assert telemetry.registry().counters == {}

    def test_disabled_recording_is_noop(self):
        telemetry.counter("run.batches")
        telemetry.gauge("depth", 9)
        telemetry.event("fuzz.failure")
        telemetry.record_phase("run", 1.0)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["phases"] == {}


class TestSnapshots:
    def test_derived_sections_always_present(self):
        snap = telemetry.snapshot()
        assert set(snap["packing"]) == {"packed_batches", "fallback"}
        assert set(snap["packing"]["fallback"]) == {"scalar", "none"}
        assert set(snap["cache"]) == {"entries", "hits", "misses"}
        assert "sharding" not in snap

    def test_lcc_scalar_fallback_reaches_packing_section(self):
        circuit = ripple_carry_adder(2)
        sim = LCCSimulator(circuit, packed=False)
        telemetry.enable()
        sim.apply_vectors(vectors_for(circuit, 5, seed=1))
        packing = telemetry.snapshot()["packing"]
        assert packing["fallback"]["scalar"] == 1
        assert packing["packed_batches"] == 0

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("c", marks=NEED_CC)]
    )
    def test_lcc_packed_batch_reaches_packing_section(self, backend):
        circuit = ripple_carry_adder(2)
        sim = LCCSimulator(circuit, backend=backend, word_width=8)
        telemetry.enable()
        sim.apply_vectors(vectors_for(circuit, 20, seed=1))
        snap = telemetry.snapshot()
        assert snap["packing"]["packed_batches"] == 1
        assert snap["counters"]["run.vectors"] == 20
        assert {"pack", "run", "unpack"} <= set(snap["phases"])

    @NEED_CC
    def test_c_scalar_batch_records_its_byte_boundary(self):
        """A C parallel batch: one pack, run and unpack per batch."""
        circuit = ripple_carry_adder(2)
        sim = ParallelSimulator(circuit, backend="c", word_width=8)
        sim.reset()
        telemetry.enable()
        for seed in range(3):
            sim.apply_vectors(vectors_for(circuit, 9, seed=seed))
        phases = telemetry.snapshot()["phases"]
        assert {name: entry["count"] for name, entry in phases.items()} == {
            "pack": 3, "run": 3, "unpack": 3,
        }

    def test_write_metrics(self, tmp_path):
        telemetry.enable()
        telemetry.counter("run.batches")
        path = tmp_path / "metrics.json"
        telemetry.write_metrics(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["run.batches"] == 1
        assert "packing" in data and "cache" in data


def _coverage_of(out: str) -> float:
    match = re.search(r"\((\d+(?:\.\d+)?)% covered\)", out)
    assert match, out
    return float(match.group(1))


class TestCLI:
    def test_profile_flag_on_subcommand(self, capsys):
        assert main(["--scale", "0.2", "stats", "c432", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "telemetry profile: stats" in out
        assert "program cache:" in out
        assert "% covered" in out

    def test_metrics_out_flag(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main([
            "--scale", "0.2", "simulate", "c432", "-n", "16",
            "--metrics-out", str(path),
        ]) == 0
        assert f"wrote metrics to {path}" in capsys.readouterr().out
        data = json.loads(path.read_text())
        for section in ("cache", "packing", "counters", "phases",
                        "gauges"):
            assert section in data
        assert data["phases"], data  # the pipeline was instrumented

    def test_profile_subcommand_phase_names(self, capsys):
        assert main([
            "--scale", "0.25", "profile", "c432", "-n", "64",
        ]) == 0
        out = capsys.readouterr().out
        for phase in ("levelize", "pcset", "align", "emit", "cc",
                      "seed", "pack", "run"):
            assert phase in out, f"missing phase {phase!r} in:\n{out}"
        assert "program cache:" in out

    @NEED_CC
    def test_profile_coverage_within_ten_percent(self, capsys):
        """The headline acceptance run: phases cover >= 90% of wall."""
        assert main([
            "profile", "c432", "-b", "c", "-n", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert _coverage_of(out) >= 90.0, out

    def test_profile_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main([
            "--scale", "0.2", "profile", "c432", "-n", "32",
            "--metrics-out", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["cache"]["misses"] >= 1  # fresh compile
        assert "emit" in data["phases"]
        assert data["counters"]["run.vectors"] >= 32


class TestThreadedTelemetry:
    """A screen split across threads records its counters and phases on
    the calling thread, after the join."""

    def _workload(self):
        circuit = ripple_carry_adder(3)
        return circuit, vectors_for(circuit, 14, seed=5)

    @NEED_CC
    def test_workers2_phase_counts_are_deterministic(self):
        circuit, vectors = self._workload()
        # Warm the program cache: a compile adds phases of its own.
        run_fault_simulation(circuit, vectors, word_width=16, backend="c")
        seen = []
        for _ in range(3):
            telemetry.enable(reset_state=True)
            report = run_fault_simulation(
                circuit, vectors, word_width=16, backend="c", workers=2,
            )
            snap = telemetry.snapshot()
            seen.append((
                {path: entry["count"]
                 for path, entry in snap["phases"].items()},
                snap["counters"],
            ))
            # The pre-pass, then one screen batch per thread.
            assert report.counters.batches == 3
        phases, counters = seen[0]
        assert all(entry == seen[0] for entry in seen)
        assert phases["fault.good/run"] == 1
        assert phases["fault.screen/run"] == 2
        assert phases["fault.screen"] == 1
        assert counters["run.batches"] == 3
        assert counters["run.vectors"] == report.counters.vectors

    @NEED_CC
    def test_split_screen_self_time_is_never_negative(self):
        # The parts overlap in time: the run phase takes the split's
        # wall time once, so it never exceeds the screen span, while
        # each machine's counters keep their own part's seconds.
        circuit, vectors = self._workload()
        sim = ParallelFaultSimulator(circuit, word_width=16, backend="c")
        sim.run(vectors, workers=2)  # builds the sibling
        machines = (sim._machine, *sim._siblings)
        before = [machine.counters.seconds for machine in machines]
        for machine in machines:
            kernel = machine._entry["screen"]

            def slow(*args, kernel=kernel):
                time.sleep(0.05)
                return kernel(*args)

            machine._entry["screen"] = slow
        telemetry.enable(reset_state=True)
        sim.run(vectors, workers=2)
        phases = telemetry.snapshot()["phases"]
        screen, run = phases["fault.screen"], phases["fault.screen/run"]
        assert run["count"] == 2
        assert run["seconds"] <= screen["seconds"]
        assert screen["self_seconds"] >= 0
        for machine, seconds in zip(machines, before):
            assert machine.counters.seconds - seconds >= 0.05

    @NEED_CC
    def test_disabled_threads_leave_the_registry_empty(self):
        circuit, vectors = self._workload()
        assert not telemetry.enabled()
        report = run_fault_simulation(
            circuit, vectors, word_width=16, backend="c", workers=4,
        )
        assert report.counters.batches == 5
        assert report.counters.vectors > 0
        assert telemetry.registry().counters == {}
        assert telemetry.snapshot()["phases"] == {}


class TestActivityTelemetry:
    """The derived ``activity`` section fed by compiled-in probes."""

    def test_activity_section_always_present(self):
        section = telemetry.snapshot()["activity"]
        assert set(section) == {
            "vectors", "toggles", "functional", "glitches",
        }
        assert all(value == 0 for value in section.values())

    def test_probed_run_populates_section(self):
        from repro.parallel.simulator import ParallelSimulator

        telemetry.enable()
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 20, seed=5)
        sim = ParallelSimulator(circuit, word_width=16, probes=True)
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors([list(v) for v in vectors])
        report = sim.activity_report()
        section = telemetry.snapshot()["activity"]
        assert section["vectors"] == report.vectors == len(vectors)
        assert section["toggles"] == report.total_toggles()
        assert section["functional"] == sum(report.functional.values())
        assert section["glitches"] == report.total_glitch_toggles()
