"""Tests for the telemetry layer (repro.telemetry) and its plumbing.

Covers the contracts the instrumentation promises: span nesting and
self-time bookkeeping, associative registry/snapshot merges, the
snapshot -> diff -> merge cross-process round trip, the allocation-free
disabled path, the CLI export surfaces (``--profile``, ``--metrics-out``
and the ``profile`` subcommand), and merged per-worker counters and
retry/degradation events in sharded fault grading.
"""

import json
import re

import pytest

from repro import telemetry
from repro.cli import main
from repro.codegen.runtime import have_c_compiler
from repro.faults.sharding import run_sharded_fault_simulation
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.generators import ripple_carry_adder
from repro.parallel.simulator import ParallelSimulator
from repro.telemetry import MetricsRegistry

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
        telemetry.event("shard.retry")
        telemetry.record_phase("run", 1.0)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["phases"] == {}


class TestMetricsRegistry:
    def _sample(self, hits, depth):
        registry = MetricsRegistry()
        registry.inc("cache.hits", hits)
        registry.inc("run.batches")
        registry.set_gauge("depth", depth)
        return registry

    def test_merge_is_associative(self):
        parts = [self._sample(1, 5), self._sample(2, 9), self._sample(4, 7)]

        def fold(order):
            total = MetricsRegistry()
            for index in order:
                total.merge(parts[index])
            return total.as_dict()

        left = fold([0, 1, 2])
        right = fold([2, 1, 0])
        assert left == right
        assert left["counters"]["cache.hits"] == 7
        assert left["gauges"]["depth"] == 9  # gauges merge by max

    def test_dict_round_trip(self):
        registry = self._sample(3, 4)
        clone = MetricsRegistry.from_dict(registry.as_dict())
        assert clone.as_dict() == registry.as_dict()

    def test_merge_snapshots_associative(self):
        def snap(n):
            return {
                "enabled": True,
                "counters": {"run.vectors": n, f"only.{n}": 1},
                "gauges": {"depth": n},
                "phases": {
                    "emit": {
                        "count": 1, "seconds": float(n), "self_seconds": 1.0,
                    },
                },
                "cache": {"entries": n, "hits": n, "misses": 1},
            }

        a, b, c = snap(1), snap(2), snap(4)
        left = telemetry.merge_snapshots(telemetry.merge_snapshots(a, b), c)
        right = telemetry.merge_snapshots(a, telemetry.merge_snapshots(b, c))
        assert left == right
        assert left["counters"]["run.vectors"] == 7
        assert left["phases"]["emit"]["count"] == 3
        assert left["cache"] == {"entries": 4, "hits": 7, "misses": 3}
        assert left["gauges"]["depth"] == 4


class TestSnapshots:
    def test_derived_sections_always_present(self):
        snap = telemetry.snapshot()
        assert set(snap["packing"]) == {"packed_batches", "fallback"}
        assert set(snap["packing"]["fallback"]) == {
            "scalar", "settled", "none",
        }
        assert set(snap["sharding"]) == {"retries", "timeouts", "degraded"}
        assert set(snap["cache"]) == {"entries", "hits", "misses"}

    def test_cross_process_round_trip(self):
        """snapshot -> diff -> merge reproduces the delta exactly."""
        telemetry.enable()
        telemetry.counter("run.batches", 2)
        with telemetry.span("emit"):
            pass
        before = telemetry.snapshot()
        # "The worker's extra work" happens after the baseline.
        telemetry.counter("run.batches", 3)
        telemetry.counter("packing.packed_batches")
        telemetry.gauge("depth", 17)
        with telemetry.span("emit"):
            with telemetry.span("levelize"):
                pass
        delta = telemetry.diff_snapshots(telemetry.snapshot(), before)

        assert delta["counters"]["run.batches"] == 3
        assert delta["counters"]["packing.packed_batches"] == 1
        assert delta["phases"]["emit"]["count"] == 1
        assert delta["phases"]["emit/levelize"]["count"] == 1
        assert "run.batches" not in delta.get("cache", {})

        # A fresh "parent" process folds the delta in.
        telemetry.reset()
        telemetry.merge_snapshot(delta)
        merged = telemetry.snapshot()
        assert merged["counters"]["run.batches"] == 3
        assert merged["gauges"]["depth"] == 17
        assert merged["phases"]["emit"]["count"] == 1
        assert merged["phases"]["emit/levelize"]["count"] == 1

    def test_child_cache_counts_add_to_live_cache(self):
        telemetry.enable()
        base = telemetry.snapshot()["cache"]
        telemetry.merge_snapshot({
            "counters": {}, "gauges": {}, "phases": {},
            "cache": {"entries": 1, "hits": 5, "misses": 2},
        })
        cache = telemetry.snapshot()["cache"]
        assert cache["hits"] == base["hits"] + 5
        assert cache["misses"] == base["misses"] + 2
        # Raw counters never expose cache.* (the section is derived).
        assert not any(
            name.startswith("cache.")
            for name in telemetry.snapshot()["counters"]
        )

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
        assert "packing" in data and "sharding" in data


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
        for section in ("cache", "packing", "sharding", "counters",
                        "phases", "gauges"):
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


class TestShardedTelemetry:
    def _workload(self):
        circuit = ripple_carry_adder(3)
        return circuit, vectors_for(circuit, 14, seed=5)

    def test_workers4_merges_counters_and_retry_events(self):
        circuit, vectors = self._workload()
        telemetry.enable(reset_state=True)
        report = run_sharded_fault_simulation(
            circuit, vectors, workers=4, shards=4, word_width=16,
            mp_start="fork", _fail_shards={1},
        )
        # Satellite: per-worker BatchCounters merge into the report.
        assert report.counters.batches >= 1
        assert report.counters.vectors > 0
        assert report.counters.seconds > 0
        stats = report.sharding_stats()
        assert stats["events"]["retries"] >= 1
        assert stats["events"]["degraded"] == 0
        # Parent-side events land in the registry...
        counters = telemetry.registry().counters
        assert counters["events.shard.retry"] >= 1
        # ...and worker-shipped phase deltas merge into the parent: the
        # fault screens ran in worker processes, not here.
        snap = telemetry.snapshot()
        screens = [p for p in snap["phases"] if "fault.screen" in p]
        assert screens, snap["phases"]
        assert snap["sharding"]["retries"] >= 1
        # Worker compilations surface through the merged cache section.
        assert snap["cache"]["misses"] >= 1

    def test_workers4_disabled_still_reports_events(self):
        circuit, vectors = self._workload()
        assert not telemetry.enabled()
        report = run_sharded_fault_simulation(
            circuit, vectors, workers=4, shards=4, word_width=16,
            mp_start="fork", _fail_shards={1},
        )
        assert report.counters.vectors > 0
        assert report.sharding_stats()["events"]["retries"] >= 1
        assert telemetry.registry().counters == {}  # nothing leaked

    def test_degraded_pool_records_event(self, monkeypatch):
        from repro.faults import sharding as sharding_module

        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(
            sharding_module, "ProcessPoolExecutor", broken_pool
        )
        circuit, vectors = self._workload()
        telemetry.enable(reset_state=True)
        report = run_sharded_fault_simulation(
            circuit, vectors, workers=2, word_width=16,
        )
        assert report.degraded
        assert report.sharding_stats()["events"]["degraded"] == 1
        assert telemetry.registry().counters["events.shard.degraded"] == 1
        assert telemetry.snapshot()["sharding"]["degraded"] == 1


class TestActivityTelemetry:
    """The derived ``activity`` section fed by compiled-in probes."""

    def test_activity_section_always_present(self):
        section = telemetry.snapshot()["activity"]
        assert set(section) == {
            "vectors", "toggles", "functional", "glitches",
        }
        assert all(value == 0 for value in section.values())

    def test_probed_run_populates_section(self):
        from repro.pcset.simulator import PCSetSimulator

        telemetry.enable()
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 20, seed=5)
        sim = PCSetSimulator(circuit, word_width=16, probes=True)
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors([list(v) for v in vectors])
        report = sim.activity_report()
        section = telemetry.snapshot()["activity"]
        assert section["vectors"] == report.vectors == len(vectors)
        assert section["toggles"] == report.total_toggles()
        assert section["functional"] == sum(report.functional.values())
        assert section["glitches"] == report.total_glitch_toggles()

    def test_activity_merge_associative(self):
        def snap(n):
            return {
                "enabled": True,
                "counters": {
                    "activity.vectors": n,
                    "activity.toggles": 3 * n,
                    "activity.functional": 2 * n,
                    "activity.glitches": n,
                },
                "gauges": {},
                "phases": {},
            }

        a, b, c = snap(1), snap(2), snap(4)
        left = telemetry.merge_snapshots(
            telemetry.merge_snapshots(a, b), c
        )
        right = telemetry.merge_snapshots(
            a, telemetry.merge_snapshots(b, c)
        )
        assert left == right
        assert left["activity"] == {
            "vectors": 7, "toggles": 21, "functional": 14, "glitches": 7,
        }

    def test_activity_cross_process_round_trip(self):
        """Probe counters survive snapshot -> diff -> merge intact."""
        from repro.pcset.simulator import PCSetSimulator

        telemetry.enable()
        circuit = ripple_carry_adder(2)
        warm = vectors_for(circuit, 6, seed=1)
        work = vectors_for(circuit, 9, seed=2)

        def probed_run(vectors):
            sim = PCSetSimulator(circuit, word_width=8, probes=True)
            sim.reset([0] * len(circuit.inputs))
            sim.apply_vectors([list(v) for v in vectors])
            return sim.activity_report()

        probed_run(warm)  # pre-existing parent-side counts
        before = telemetry.snapshot()
        report = probed_run(work)  # "the worker's extra work"
        delta = telemetry.diff_snapshots(telemetry.snapshot(), before)
        assert delta["activity"]["vectors"] == len(work)
        assert delta["activity"]["toggles"] == report.total_toggles()

        telemetry.reset()
        telemetry.merge_snapshot(delta)
        merged = telemetry.snapshot()["activity"]
        assert merged == delta["activity"]

    def test_sharded_probe_counters_merge_into_parent(self):
        telemetry.enable()
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 8, seed=3)
        report = run_sharded_fault_simulation(
            circuit, vectors, workers=2, word_width=16,
            mp_start="fork", probes=True,
        )
        assert report.activity is not None
        assert report.activity.vectors == len(vectors)
        section = telemetry.snapshot()["activity"]
        # Every worker grades its own good machine, so the merged
        # totals are at least one full instrumented pass.
        assert section["vectors"] >= report.activity.vectors
        assert section["toggles"] >= report.activity.total_toggles()
