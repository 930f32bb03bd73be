"""Batch dispatch — per-vector ``step()`` loop vs ``run_block``.

Quantifies what moving the vector loop inside the generated code buys
on each backend.  Three drive styles over identical pre-masked words:

``loop``      one ``machine.step(words)`` call per vector;
``batch``     one ``machine.step_many(words)`` call (per-vector output
              lists materialized);
``prepared``  marshal once, then ``run_block``/``run_packed`` with
              outputs discarded — the timing harness's configuration.

The gap is pure dispatch overhead (generator protocol or ctypes call,
plus allocation), so it narrows as circuits grow; the report makes the
trend visible across the suite.
"""

import pytest

from _common import NUM_VECTORS, SUITE, circuit, write_report
from repro.codegen.runtime import have_c_compiler
from repro.harness.tables import format_table
from repro.harness.vectors import vectors_for
from repro.parallel.simulator import ParallelSimulator

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)

NAMES = SUITE[:3]
BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())
STYLES = ("loop", "batch", "prepared")

_results: dict[tuple[str, str, str], float] = {}

_machine_cache: dict[tuple[str, str], object] = {}


def _machine(name: str, backend: str):
    key = (name, backend)
    if key not in _machine_cache:
        sim = ParallelSimulator(
            circuit(name), optimization="pathtrace+trim",
            backend=backend, with_outputs=False,
        )
        sim.reset([0] * len(sim.circuit.inputs))
        _machine_cache[key] = sim
    return _machine_cache[key]


def _words(name: str):
    return [
        [bit & 1 for bit in vec]
        for vec in vectors_for(circuit(name), NUM_VECTORS, seed=12)
    ]


def _driver(sim, style: str, words):
    machine = sim.machine
    if style == "loop":
        def run():
            step = machine.step
            for w in words:
                step(w)
    elif style == "batch":
        def run():
            machine.step_many(words, masked=True)
    else:
        prepared = sim.prepare_batch(words)

        def run():
            sim.run_prepared(prepared)
    return run


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("style", STYLES)
def test_batch_dispatch(benchmark, name, backend, style):
    sim = _machine(name, backend)
    run = _driver(sim, style, _words(name))
    benchmark.group = f"dispatch:{name}:{backend}"
    benchmark(run)
    _results[(name, backend, style)] = benchmark.stats.stats.mean


def test_batch_dispatch_report(benchmark):
    def build_rows():
        rows = []
        for name in NAMES:
            for backend in BACKENDS:
                loop = _results.get((name, backend, "loop"))
                batch = _results.get((name, backend, "batch"))
                prepared = _results.get((name, backend, "prepared"))
                if None in (loop, batch, prepared):
                    continue
                rows.append([
                    f"{name}/{backend}", loop, batch, prepared,
                    loop / max(batch, 1e-12),
                    loop / max(prepared, 1e-12),
                ])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    if not rows:
        pytest.skip("no dispatch results collected")
    table = format_table(
        ["circuit/backend", "loop s", "batch s", "prepared s",
         "batch speedup", "prepared speedup"],
        rows,
        title=f"Batch dispatch — {NUM_VECTORS} vectors",
        float_format="{:.6f}",
    )
    write_report("batch_dispatch", table)
