"""§5's zero-delay context point — compiled LCC vs interpreted.

"Our results for zero-delay simulation show that on the average a
compiled simulation runs in 1/23 the time of an interpreted
simulation."  This benchmark times the interpreted zero-delay
evaluator against the compiled LCC program (Fig. 1) on the same
circuits and reports the ratio.
"""

import pytest

from _common import BACKEND, NUM_VECTORS, SUITE, circuit, write_report
from repro.eventsim.zerodelay import ZeroDelaySimulator
from repro.harness.tables import format_table, geometric_mean
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator

_results: dict[tuple[str, str], float] = {}


@pytest.mark.parametrize("name", SUITE)
def test_zero_interpreted(benchmark, name):
    target = circuit(name)
    vectors = vectors_for(target, NUM_VECTORS, seed=85)
    sim = ZeroDelaySimulator(target)
    benchmark.group = f"zero:{name}"
    benchmark(lambda: sim.run_batch(vectors))
    _results[(name, "interp")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("name", SUITE)
def test_zero_lcc(benchmark, name):
    target = circuit(name)
    vectors = vectors_for(target, NUM_VECTORS, seed=85)
    # packed=False pins the paper's configuration — one vector per
    # compiled pass — so the ~23x figure is not inflated by pattern-lane
    # packing (the repository benchmark's lcc-stream workload measures
    # the packed path).
    sim = LCCSimulator(target, backend=BACKEND, packed=False)
    benchmark.group = f"zero:{name}"
    benchmark(lambda: sim.run_batch(vectors))
    _results[(name, "lcc")] = benchmark.stats.stats.mean


def test_zero_delay_report(benchmark):
    def build_rows():
        rows = []
        for name in SUITE:
            if (name, "interp") not in _results:
                continue
            interp = _results[(name, "interp")]
            lcc = _results[(name, "lcc")]
            rows.append([name, interp, lcc, interp / max(lcc, 1e-12)])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    if not rows:
        pytest.skip("no timing results collected")
    table = format_table(
        ["circuit", "interpreted s", "LCC s", "speedup"],
        rows,
        title=(f"Zero-delay — interpreted vs compiled LCC, "
               f"{NUM_VECTORS} vectors, backend={BACKEND} "
               f"(paper: ~23x)"),
        float_format="{:.6f}",
    )
    speedups = [row[3] for row in rows]
    write_report("zero_delay", table)
    assert geometric_mean(speedups) > 2.0
