"""Shared infrastructure for the figure benchmarks.

Environment knobs (all optional):

``REPRO_BENCH_SCALE``
    Scale factor for the synthetic ISCAS85 analogs used in *timing*
    benchmarks (default 0.25).  Depth — and therefore word counts — is
    always preserved; static tables (Figs. 20-22, code size) always use
    the full published sizes.
``REPRO_BENCH_VECTORS``
    Vectors per timed run (default 256; the paper used 5,000 on a 1989
    workstation).
``REPRO_BENCH_BACKEND``
    ``c`` (default when a C compiler is present) or ``python``.
``REPRO_BENCH_SUITE``
    Comma-separated circuit names (default: all ten).

Each figure benchmark writes its paper-shaped table to
``benchmarks/results/<figure>.txt`` and prints it, so EXPERIMENTS.md
can quote the numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.codegen.runtime import have_c_compiler
from repro.netlist.iscas85 import ISCAS85_SPECS, make_circuit

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
NUM_VECTORS = int(os.environ.get("REPRO_BENCH_VECTORS", "256"))
BACKEND = os.environ.get(
    "REPRO_BENCH_BACKEND", "c" if have_c_compiler() else "python"
)

_default_suite = ",".join(ISCAS85_SPECS)
SUITE = [
    name.strip()
    for name in os.environ.get("REPRO_BENCH_SUITE", _default_suite).split(",")
    if name.strip()
]

_circuit_cache: dict[tuple[str, float], object] = {}


def circuit(name: str, scale: float = SCALE):
    """Cached ISCAS85-analog circuit at the requested scale."""
    key = (name, scale)
    if key not in _circuit_cache:
        _circuit_cache[key] = make_circuit(name, scale_factor=scale)
    return _circuit_cache[key]


def full_circuit(name: str):
    """The full-size analog (used by all static tables)."""
    return circuit(name, 1.0)


def write_report(figure: str, text: str) -> None:
    """Persist a figure's table under benchmarks/results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{figure}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
