"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.  The
smoke runs use 5%-scale analogs: they check that the command works, and
their numbers are not evidence of anything.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from suite import run, trace

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()


def _run(*args, timeout=300, root=run.ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "suite" / "run.py"),
         *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_maps_to_a_declared_metric_and_workload():
    declared = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert set(layers) == set(trace.LAYER_MAP)
    for layer in layers:
        moves = trace.LAYER_MAP[layer]
        assert moves, layer
        for metric, targets in moves.items():
            assert metric in declared, (layer, metric)
            assert targets and set(targets) <= workloads, (layer, targets)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _span(name, start, end, parent, work=None):
    return [name, start, end, parent, work]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("setup", 0.0, 10.0, -1),
        _span("lcc.build", 1.0, 9.0, 0),
        _span("runtime.load", 2.0, 8.0, 1),
        _span("runtime.cc", 3.0, 7.5, 2),
        _span("codegen.emit", 8.0, 8.5, 1),
        _span("call", 10.0, 12.0, -1),
        _span("runtime.kernel", 10.5, 11.0, 5, (4, 40, 256)),
        _span("runtime.kernel", 11.0, 11.5, 5, (4, 40, 256)),
    ]
    summary = trace.summarize(spans)
    setup, call = summary["setup"], summary["call"]
    assert setup["roots"] == 1 and setup["total"] == 10.0
    assert setup["self"] == {
        "setup": 2.0, "lcc.build": 1.5, "runtime.load": 1.5,
        "runtime.cc": 4.5, "codegen.emit": 0.5,
    }
    assert call["self"] == {"call": 1.0, "runtime.kernel": 1.0}
    assert call["calls"]["runtime.kernel"] == 2
    assert (call["passes"], call["ops"], call["lanes"]) == (8, 80, 512)
    assert call["pass_s"] == 1.0
    assert trace.layer_self(setup) == {
        "facade": 1.5, "load": 1.5, "cc": 4.5, "emit": 0.5,
    }
    metrics = trace.layer_metrics(summary, gates=10, counts={
        "cache_misses": 1, "cache_hits": 0.0, "source_lines": 5,
        "total_ops": 10, "loaded_libs": 1, "overhead": 0.0,
    })
    assert metrics["setup.cc_s"] == 4.5
    assert metrics["call.kernel_ms"] == 1000.0
    assert metrics["runtime.kernel_share"] == 0.5
    assert metrics["runtime.ns_per_op"] == 1e9 / 80
    assert metrics["trace.coverage"] == (10.0 - 2.0 + 2.0 - 1.0) / 12.0
    assert set(metrics) == set(trace.LAYER_MAP)


def _bindings() -> dict:
    """Every callable bound in a watched module or target class."""
    seen = {}
    for module in trace._binding_modules():
        for key, value in list(vars(module).items()):
            if callable(value):
                seen[(module.__name__, key)] = value
    for module_name, attribute, _name in trace.TARGETS:
        owner, name, value = trace._resolve(module_name, attribute)
        if owner is not None:
            seen[(owner.__qualname__, name)] = value
    return seen


def test_tracer_restores_every_wrapped_function():
    from repro import LCCSimulator, parse_bench
    from repro.codegen.runtime import have_c_compiler

    trace.import_targets()
    before = _bindings()
    tracer = trace.Tracer("test")
    tracer.install()
    during = _bindings()
    changed = {key for key in before if during.get(key) is not before[key]}
    assert len(changed) == len(tracer._patches)
    wrappers = {id(during[key]) for key in changed}
    circuit = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "tiny"
    )
    machine = None
    if have_c_compiler():
        with tracer.span("call"):
            sim = LCCSimulator(circuit, backend="c", word_width=8)
            assert sim.apply_vectors([[1, 1], [0, 1]]) == [[254], [255]]
        machine = sim.machine
        assert all(
            callable(entry) and entry.__name__ == "kernel"
            for entry in machine._entry.values()
        )
    tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert not any(id(value) in wrappers for value in after.values())
    if machine is not None:
        assert not any(
            getattr(entry, "__name__", "") == "kernel"
            for entry in machine._entry.values()
        )
        names = {span[0] for span in tracer.spans}
        assert {"lcc.build", "runtime.cc", "runtime.kernel"} <= names


# ----------------------------------------------------------------------
# statistics and compare mode
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(199)]) is None
    samples = [float(i) for i in range(200)]
    assert run.tail_percentile(samples) == 189.0
    assert sum(s > 189.0 for s in samples) == 10


def test_quartiles_match_statistics_quantiles():
    assert run.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


@pytest.mark.parametrize("base,new,better,expected", [
    ([100, 101, 99, 100], [100, 102, 101, 99], "lower", "ok"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "regressed"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regressed"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "ok"),
    ([100, 150, 70, 100], [100, 160, 60, 105], "lower", "unresolved"),
    ([100, 150, 70, 100], [115, 160, 60, 120], "lower", "unresolved"),
    ([100, 101, 99, 100], [109, 110, 107, 108], "lower", "ok"),
])
def test_compare_verdicts(base, new, better, expected):
    assert run.verdict(base, new, better, 0.10) == expected


def test_compare_flags_regressions_and_digests(tmp_path, capsys):
    def result(values, digest):
        return {"workloads": {"replay": {
            "metrics": {"setup_s": {
                "median": run.quartiles(values)[1],
                "q1": run.quartiles(values)[0],
                "q3": run.quartiles(values)[2], "values": values,
            }},
            "digests": {"replay": digest},
        }}}

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(result([10.0, 10.1, 9.9], "x")))
    b.write_text(json.dumps(result([10.0, 10.2, 9.8], "x")))
    c.write_text(json.dumps(result([20.0, 20.1, 19.9], "y")))
    assert run.compare(str(a), str(b), SPEC) == 0
    assert "ok" in capsys.readouterr().out
    assert run.compare(str(a), str(c), SPEC) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "DIGESTS DIFFER" in out


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_smoke_run_at_tiny_scale_is_not_evidence(tmp_path):
    """A 5%-scale run of every workload: the command works end to end."""
    out = tmp_path / "smoke.json"
    done = _run("--scale", "0.05", "--seconds", "0.3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    expected = {
        f"{w['name']}/{m['name']}"
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
    assert set(last["metrics"]) == expected
    assert all(row["value"] > 0 for row in last["metrics"].values())
    doc = json.loads(out.read_text())
    assert doc["config"]["evidence"] is False
    built = doc["provenance"]["workloads"]
    assert set(built) == set(doc["workloads"])
    for name, summary in doc["workloads"].items():
        assert built[name]["circuit"]["scale"] == 0.05
        assert built[name]["machines"] and summary["digests"]


def test_traced_smoke_run_reports_every_layer_metric():
    done = _run("--workload", "fault-grade", "--scale", "0.05",
                "--seconds", "0.3", "--trace", "1")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert last["metrics"]["trace.coverage"]["value"] > 0.9


def test_overrunning_run_is_killed_and_counted_failed():
    done = _run("--workload", "unit-delay", "--timeout", "0.5")
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == 1
    assert not list(run.WORK.glob("run-*"))


def test_fails_without_library_source(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(root=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
