"""Wall-clock measurement with repeat-and-best/average statistics.

The paper ran each experiment five times under ``/bin/time`` and
averaged.  :func:`time_run` does the same with ``perf_counter`` and
also reports the minimum (less noise-sensitive on a multitasking
host).  Results normalize per vector so differently sized batches
compare directly.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["TimingResult", "time_run"]


class TimingResult:
    """Timing of one technique on one workload."""

    __slots__ = ("label", "samples", "num_vectors")

    def __init__(self, label: str, samples: list[float],
                 num_vectors: int) -> None:
        self.label = label
        self.samples = samples
        self.num_vectors = num_vectors

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def best(self) -> float:
        return min(self.samples)

    @property
    def per_vector(self) -> float:
        """Mean seconds per vector."""
        return self.mean / max(1, self.num_vectors)

    @property
    def vectors_per_second(self) -> float:
        """Mean throughput — the batching API's headline number.

        Comparable with ``machine.counters.vectors_per_second``, which
        the backends accumulate per ``run_block`` batch.
        """
        if self.mean == 0:
            return float("inf")
        return self.num_vectors / self.mean

    def speedup_over(self, other: "TimingResult") -> float:
        """How many times faster than ``other`` (per vector)."""
        if self.per_vector == 0:
            return float("inf")
        return other.per_vector / self.per_vector

    def __repr__(self) -> str:
        return (
            f"TimingResult({self.label}: mean={self.mean:.4f}s over "
            f"{len(self.samples)} trials, {self.num_vectors} vectors)"
        )


def time_run(
    run: Callable[[], None],
    *,
    label: str = "",
    num_vectors: int = 1,
    repeat: int = 5,
    warmup: int = 1,
) -> TimingResult:
    """Time ``run()`` ``repeat`` times after ``warmup`` untimed calls."""
    for _ in range(warmup):
        run()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return TimingResult(label, samples, num_vectors)
