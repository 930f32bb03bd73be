"""Extension benchmark — pattern-parallel vs serial fault simulation.

The §3 observation that the PC-set method is "amenable to bit-parallel
simulation" pays off hardest in fault grading: one pass carries
``word_width`` test patterns with the fault pinned in every lane.  This
benchmark grades the same fault universe with the serial (one
event-driven run per fault) and the pattern-parallel engines and
reports the speedup.
"""

import pytest

from _common import BACKEND, write_report
from repro.faults.model import full_fault_list
from repro.faults.simulator import serial_fault_simulation
from repro.harness.tables import format_table
from repro.harness.vectors import vectors_for
from repro.netlist.generators import ripple_carry_adder

VECTORS = 24

_results: dict[str, float] = {}


def _workload():
    circuit = ripple_carry_adder(6)
    vectors = vectors_for(circuit, VECTORS, seed=13)
    faults = full_fault_list(circuit)
    return circuit, vectors, faults


def test_serial_fault_sim(benchmark):
    circuit, vectors, faults = _workload()
    benchmark.group = "fault-sim"
    benchmark.pedantic(
        lambda: serial_fault_simulation(circuit, vectors, faults),
        rounds=3, iterations=1,
    )
    _results["serial"] = benchmark.stats.stats.mean


@pytest.mark.parametrize("word_width", (8, 32))
def test_parallel_fault_sim(benchmark, word_width):
    from repro.faults.simulator import ParallelFaultSimulator

    circuit, vectors, faults = _workload()
    # The instrumented program is compiled once, outside the timed
    # region, matching the paper's methodology.
    sim = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=BACKEND
    )
    sim.warm_up()
    benchmark.group = "fault-sim"
    benchmark.pedantic(
        lambda: sim.run(vectors, faults),
        rounds=3, iterations=1,
    )
    _results[f"parallel{word_width}"] = benchmark.stats.stats.mean


def test_fault_parallelism_report(benchmark):
    def build_rows():
        circuit, vectors, faults = _workload()
        rows = [["circuit", f"{circuit.name}"],
                ["faults", len(faults)],
                ["vectors", len(vectors)]]
        serial = _results.get("serial")
        for label, mean in sorted(_results.items()):
            row = [label, f"{mean:.4f}s"]
            if serial and label != "serial":
                row.append(f"{serial / mean:.1f}x vs serial")
            rows.append(row)
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    if "serial" not in _results:
        pytest.skip("no results collected")
    table = format_table(
        ["quantity", "value", "speedup"],
        [r + [""] * (3 - len(r)) for r in rows],
        title=(f"Extension — fault-simulation parallelism "
               f"(backend={BACKEND})"),
    )
    write_report("fault_parallelism", table)
    # The 32-bit pattern-parallel engine must beat one-at-a-time
    # serial.
    assert _results["parallel32"] < _results["serial"]