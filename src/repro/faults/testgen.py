"""Random-pattern test generation and test-set compaction.

The production use of a fast fault simulator: grade random patterns,
keep the ones that catch something, stop when coverage saturates.
Because detection here compares *settled* output values — which for a
combinational circuit depend only on the current vector — detection is
order-independent, so dropping useless vectors is sound.

Two entry points:

- :func:`generate_tests` — grow a test set from seeded random vectors
  until a coverage target or a budget is hit (random-pattern test
  generation, the standard ATPG front-end);
- :func:`compact_tests` — shrink an existing test set without losing
  coverage (first-detection selection plus an optional reverse
  elimination pass).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.faults.model import Fault, full_fault_list
from repro.faults.simulator import FaultReport, ParallelFaultSimulator
from repro.harness.vectors import random_vectors
from repro.netlist.circuit import Circuit

__all__ = ["TestSet", "generate_tests", "compact_tests"]


class TestSet:
    """A graded test set: vectors plus the coverage they achieve."""

    def __init__(
        self,
        vectors: list[list[int]],
        report: FaultReport,
    ) -> None:
        self.vectors = vectors
        self.report = report

    @property
    def coverage(self) -> float:
        return self.report.coverage

    def __len__(self) -> int:
        return len(self.vectors)

    def __repr__(self) -> str:
        return (
            f"TestSet({len(self.vectors)} vectors, "
            f"coverage {self.coverage:.1%})"
        )


def generate_tests(
    circuit: Circuit,
    *,
    target_coverage: float = 1.0,
    max_vectors: int = 1000,
    chunk: int = 64,
    seed: int = 0,
    faults: Optional[Sequence[Fault]] = None,
    word_width: int = 32,
    backend: str = "python",
) -> TestSet:
    """Random-pattern test generation with fault dropping.

    Draws seeded random vectors in chunks, keeps only the vectors that
    first-detect at least one remaining fault, and stops when
    ``target_coverage`` of the fault universe is detected or
    ``max_vectors`` candidates have been graded.
    """
    if not 0.0 <= target_coverage <= 1.0:
        raise SimulationError("target_coverage must be within [0, 1]")
    universe = (
        list(faults) if faults is not None else full_fault_list(circuit)
    )
    simulator = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=backend
    )
    remaining = list(universe)
    detected: dict[Fault, int] = {}
    kept: list[list[int]] = []
    drawn = 0
    width = len(circuit.inputs)
    while (
        remaining
        and drawn < max_vectors
        and (len(universe) - len(remaining)) / len(universe)
        < target_coverage
    ):
        batch = random_vectors(
            min(chunk, max_vectors - drawn), width, seed + drawn
        )
        drawn += len(batch)
        report = simulator.run(batch, remaining)
        useful = sorted(set(report.detected.values()))
        for index in useful:
            kept.append(batch[index])
        offset = len(kept) - len(useful)
        for fault, index in report.detected.items():
            detected[fault] = offset + useful.index(index)
        remaining = [f for f in remaining if f not in report.detected]
    final = FaultReport(detected, remaining, len(kept))
    return TestSet(kept, final)


def compact_tests(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    *,
    faults: Optional[Sequence[Fault]] = None,
    word_width: int = 32,
    backend: str = "python",
    reverse_pass: bool = True,
) -> TestSet:
    """Shrink ``vectors`` without losing stuck-at coverage.

    Stage 1 keeps each fault's first detector.  Stage 2 (optional)
    walks the kept set backwards and drops any vector whose faults are
    all covered by the others — the classic reverse-order refinement.
    """
    universe = (
        list(faults) if faults is not None else full_fault_list(circuit)
    )
    simulator = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=backend
    )
    baseline = simulator.run(vectors, universe)
    keep_indexes = sorted(set(baseline.detected.values()))
    kept = [list(vectors[i]) for i in keep_indexes]

    detectable = list(baseline.detected)
    if reverse_pass and len(kept) > 1:
        for position in range(len(kept) - 1, -1, -1):
            trial = kept[:position] + kept[position + 1:]
            report = simulator.run(trial, detectable)
            if len(report.detected) == len(detectable):
                kept = trial
    final = simulator.run(kept, universe)
    return TestSet(kept, final)
