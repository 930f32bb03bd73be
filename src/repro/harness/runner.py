"""One factory for every simulator in the library.

Technique names (the rows/columns of the paper's tables):

========================  ====================================================
name                      meaning
========================  ====================================================
``interp3``               interpreted event-driven unit delay, 3-valued
``interp2``               interpreted event-driven unit delay, 2-valued
``pcset``                 the PC-set method (§2)
``pcset-mv``              PC-set, multi-vector bit-parallel mode
``parallel``              the parallel technique, unoptimized (§3)
``parallel-trim``         + bit-field trimming (Fig. 20)
``parallel-pathtrace``    + path-tracing shift elimination (Fig. 23)
``parallel-cyclebreak``   + cycle-breaking shift elimination (Fig. 23)
``parallel-best``         + path tracing + trimming (Fig. 24)
``zero-interp``           interpreted zero-delay
``zero-lcc``              compiled zero-delay LCC (Fig. 1)
========================  ====================================================

Compiled techniques accept ``backend="python"|"c"`` and ``word_width``;
timing callers pass ``with_outputs=False`` to match the paper's
methodology.

Everything here drives *batches*: :func:`run_technique` builds its
timed runnable over the prepared-batch fast path (the vector loop runs
inside the generated code on both backends), and
:func:`simulate_outputs` is the output-collecting counterpart used by
cross-validation tooling.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.eventsim.zerodelay import ZeroDelaySimulator
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.circuit import Circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.multivector import MultiVectorPCSetSimulator
from repro.pcset.simulator import PCSetSimulator

__all__ = [
    "TECHNIQUES",
    "PROBE_TECHNIQUES",
    "build_simulator",
    "run_technique",
    "simulate_outputs",
]

TECHNIQUES = (
    "interp3",
    "interp2",
    "pcset",
    "pcset-mv",
    "parallel",
    "parallel-trim",
    "parallel-pathtrace",
    "parallel-cyclebreak",
    "parallel-best",
    "zero-interp",
    "zero-lcc",
)

#: Techniques whose generated program takes compiled-in probes
#: (``probes=``): the parallel technique on its time-aligned layouts
#: and the zero-delay LCC program.
PROBE_TECHNIQUES = ("parallel", "parallel-trim", "zero-lcc")

_PARALLEL_OPT = {
    "parallel": "none",
    "parallel-trim": "trim",
    "parallel-pathtrace": "pathtrace",
    "parallel-cyclebreak": "cyclebreak",
    "parallel-best": "pathtrace+trim",
}


def build_simulator(circuit: Circuit, technique: str, **options):
    """Instantiate the simulator implementing ``technique``."""
    if technique == "interp3":
        return EventDrivenSimulator(circuit, logic="three")
    if technique == "interp2":
        return EventDrivenSimulator(circuit, logic="two")
    if technique == "pcset":
        return PCSetSimulator(circuit, **options)
    if technique == "pcset-mv":
        return MultiVectorPCSetSimulator(circuit, **options)
    if technique in _PARALLEL_OPT:
        return ParallelSimulator(
            circuit, optimization=_PARALLEL_OPT[technique], **options
        )
    if technique == "zero-interp":
        return ZeroDelaySimulator(circuit, logic="two")
    if technique == "zero-lcc":
        return LCCSimulator(circuit, **options)
    raise SimulationError(
        f"unknown technique {technique!r}; choose from {TECHNIQUES}"
    )


def run_technique(
    circuit: Circuit,
    technique: str,
    vectors: Sequence[Sequence[int]],
    **options,
) -> Callable[[], None]:
    """Build a zero-argument runnable that simulates ``vectors``.

    The returned callable is what the timing harness (and the
    pytest-benchmark fixtures) invoke repeatedly.  Construction,
    state seeding and vector marshalling all happen here, outside the
    timed region — the paper likewise excludes compile and I/O time,
    and its per-vector driver loop was itself compiled.  Across repeat
    invocations the circuit state simply keeps evolving; straight-line
    simulation cost is data-independent, so this is sound for timing.
    """
    zeros = [0] * len(circuit.inputs)
    if technique in ("interp3", "interp2"):
        sim = build_simulator(circuit, technique)
        sim.reset(zeros)
        return lambda: sim.run_batch(vectors)
    if technique == "zero-interp":
        sim = build_simulator(circuit, technique)
        return lambda: sim.run_batch(vectors)
    if technique == "zero-lcc":
        # ``packed`` rides through **options to the LCCSimulator: a
        # 0/1 batch packs unless it is False, the paper's
        # one-vector-per-pass configuration, and the runnable is then
        # ceil(n / word_width) pattern-packed compiled passes.
        sim = build_simulator(circuit, technique, **options)
        prepared = sim.prepare_batch(vectors)
        return lambda: sim.run_prepared(prepared)
    if technique == "pcset-mv":
        sim = build_simulator(
            circuit, technique, with_outputs=False, **options
        )
        sim.reset(zeros)
        prepared_streams = sim.prepare_streams(vectors)
        return lambda: sim.run_prepared(prepared_streams)
    sim = build_simulator(circuit, technique, with_outputs=False, **options)
    sim.reset(zeros)
    prepared = sim.prepare_batch(vectors)
    return lambda: sim.run_prepared(prepared)


def simulate_outputs(
    circuit: Circuit,
    technique: str,
    vectors: Sequence[Sequence[int]],
    **options,
) -> list[list[int]]:
    """Simulate ``vectors`` on a *compiled* technique; return each
    vector's raw output words.

    The whole batch runs through ``apply_vectors`` — one dispatch into
    the generated ``run_block`` loop.  State (where the technique keeps
    any) is seeded from the all-zeros steady state, as the timing
    harness does.  Interpreted techniques have no raw output-word
    protocol and are rejected.
    """
    sim = build_simulator(circuit, technique, **options)
    if not hasattr(sim, "apply_vectors"):
        raise SimulationError(
            f"{technique!r} is not a compiled technique; it has no "
            "batched output protocol"
        )
    if hasattr(sim, "reset"):
        sim.reset([0] * len(circuit.inputs))
    return sim.apply_vectors(vectors)
