"""Sharded multiprocess fault grading.

Each stuck-at fault's detection screen is independent (the PPSFP loop
of :mod:`repro.faults.simulator`), so the fault list parallelizes the way
GSIM/Manticore partition simulation work: split it into contiguous
*shards*, grade each shard in a worker process, and merge the per-shard
outcomes back into one report.  The merge is deterministic — shards are
contiguous slices of the fault list and are merged in shard order, so
the merged :class:`ShardedFaultReport` is **bit-identical** to the
single-process run: same ``detected`` map (fault -> first detecting
vector), same ``undetected`` faults in the same order.

Robustness over raw parallelism:

- *per-worker warm-up*: the pool initializer builds the instrumented
  simulator once per worker and pre-compiles its machine
  (:meth:`ParallelFaultSimulator.warm_up`), so backend compilation —
  gcc, on the C backend — runs once per worker instead of once per
  shard; the good pre-pass is likewise memoized per worker across its
  shards.
- *per-shard timeout and in-process retry*: results are collected in
  submission order and each shard may wait at most ``shard_timeout``
  seconds beyond the previous one; a shard that times out, raises, or
  loses its worker (``BrokenProcessPool`` after a kill) is regraded
  in the parent process, so the merged report is always complete.
- *graceful degradation*: when the pool cannot start at all (or
  ``workers=1``), every shard runs on the existing single-process path
  and the report is flagged ``degraded``.

Cost model (see ``docs/algorithms.md`` §11): with ``S`` shards over
``P`` workers, grading pays one warm-up (program generation +
compile) per worker and one good pre-pass per worker (memoized across
that worker's shards), then the per-fault detection screens split
``S/P`` ways — so wall-clock approaches ``warmup + good + screens/P``
once ``S >= P`` and the fault list is long enough to amortize warm-up.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.runtime import BatchCounters, program_cache
from repro.errors import SimulationError
from repro.faults.model import Fault, full_fault_list
from repro.faults.simulator import FaultReport, ParallelFaultSimulator
from repro.netlist.circuit import Circuit

__all__ = [
    "GradingConfig",
    "ShardOutcome",
    "ShardedFaultReport",
    "shard_faults",
    "merge_shard_outcomes",
    "run_sharded_fault_simulation",
]


class GradingConfig:
    """Picklable bundle shipped to every worker (and used for retries).

    ``fail_shards``/``fail_mode``/``delay_shards`` are fault-injection
    hooks for the robustness tests: they make *worker-side* grading of
    the named shards raise, hard-exit, or stall — the parent's
    in-process retry path never consults them.
    """

    __slots__ = (
        "circuit", "vectors", "word_width", "backend", "initial",
        "telemetry", "fail_shards", "fail_mode", "delay_shards", "probes",
    )

    def __init__(
        self,
        circuit: Circuit,
        vectors: list[list[int]],
        *,
        word_width: int = 32,
        backend: str = "python",
        initial: Optional[Sequence[int]] = None,
        fail_shards: frozenset = frozenset(),
        fail_mode: str = "raise",
        delay_shards: Optional[dict] = None,
        probes=None,
    ) -> None:
        self.circuit = circuit
        self.vectors = vectors
        self.word_width = word_width
        self.backend = backend
        self.initial = initial
        # Captured at construction: workers must collect telemetry
        # exactly when the parent process was collecting it.
        self.telemetry = telemetry.enabled()
        self.fail_shards = fail_shards
        self.fail_mode = fail_mode
        self.delay_shards = delay_shards or {}
        self.probes = probes

    def build_simulator(self) -> ParallelFaultSimulator:
        return ParallelFaultSimulator(
            self.circuit,
            word_width=self.word_width,
            backend=self.backend,
            probes=self.probes,
        )


class ShardOutcome:
    """One shard's grading result plus its execution metadata."""

    __slots__ = (
        "index", "detected", "undetected", "counters", "cache",
        "pid", "retried", "telemetry", "activity",
    )

    def __init__(
        self,
        index: int,
        detected: dict[Fault, int],
        undetected: list[Fault],
        counters: dict,
        cache: dict,
        pid: int,
    ) -> None:
        self.index = index
        self.detected = detected
        self.undetected = undetected
        self.counters = counters
        self.cache = cache
        self.pid = pid
        self.retried = False
        #: Telemetry snapshot delta shipped by a *worker* process
        #: (``None`` when graded inline — the parent's own registry
        #: already holds that activity).
        self.telemetry: Optional[dict] = None
        #: Good-machine :class:`~repro.activity.ActivityReport` when
        #: the run was probed.  Fault-independent (every shard's copy
        #: is identical — it is memoized per worker), so the merge
        #: keeps the lowest-indexed one.
        self.activity = None

    def __repr__(self) -> str:
        return (
            f"ShardOutcome(#{self.index}, "
            f"{len(self.detected)}+{len(self.undetected)} faults, "
            f"pid {self.pid}{', retried' if self.retried else ''})"
        )


class ShardedFaultReport(FaultReport):
    """A merged :class:`FaultReport` with sharded-execution metadata.

    Equality (`==`) against a plain :class:`FaultReport` compares only
    the grading outcome — that is the bit-identical contract — while
    the extra fields record *how* the run executed:

    Attributes
    ----------
    workers / num_shards / shard_sizes / mp_start:
        Pool geometry.  ``mp_start`` is ``"inline"`` when no pool ran.
    retried_shards:
        Shard indices regraded in-process after a worker failure,
        kill, or timeout.
    degraded:
        True when the pool could not start and the whole fault list
        fell back to the single-process path.
    counters:
        Per-shard machine :class:`BatchCounters` summed across shards.
    cache_stats:
        Program-cache hit/miss deltas summed across workers.
    worker_pids:
        Distinct process ids that produced the merged outcomes.
    events:
        Robustness-event tallies — ``retries`` / ``timeouts`` /
        ``degraded`` — recorded whether or not telemetry is enabled.
    """

    def __init__(
        self,
        detected: dict[Fault, int],
        undetected: list[Fault],
        num_vectors: int,
        *,
        workers: int,
        num_shards: int,
        shard_sizes: list[int],
        mp_start: str,
        retried_shards: list[int],
        degraded: bool,
        counters: BatchCounters,
        cache_stats: dict,
        worker_pids: list[int],
        events: Optional[dict] = None,
    ) -> None:
        super().__init__(detected, undetected, num_vectors)
        self.workers = workers
        self.num_shards = num_shards
        self.shard_sizes = shard_sizes
        self.mp_start = mp_start
        self.retried_shards = retried_shards
        self.degraded = degraded
        self.counters = counters
        self.cache_stats = cache_stats
        self.worker_pids = worker_pids
        self.events = events if events is not None else {
            "retries": len(retried_shards),
            "timeouts": 0,
            "degraded": 1 if degraded else 0,
        }

    def sharding_stats(self) -> dict:
        """The execution metadata as one JSON-friendly dict."""
        return {
            "workers": self.workers,
            "num_shards": self.num_shards,
            "shard_sizes": list(self.shard_sizes),
            "mp_start": self.mp_start,
            "retried_shards": list(self.retried_shards),
            "degraded": self.degraded,
            "counters": self.counters.as_dict(),
            "cache_stats": dict(self.cache_stats),
            "worker_pids": list(self.worker_pids),
            "events": dict(self.events),
        }

    def __repr__(self) -> str:
        base = super().__repr__()[:-1]  # strip the closing paren
        extra = f", {self.workers} workers x {self.num_shards} shards"
        if self.retried_shards:
            extra += f", retried {self.retried_shards}"
        if self.degraded:
            extra += ", degraded"
        return f"{base}{extra})"


def shard_faults(
    faults: Sequence[Fault], num_shards: int
) -> list[list[Fault]]:
    """Split ``faults`` into ``num_shards`` contiguous, near-even shards.

    Deterministic: shard ``i`` is a slice of the original order, sizes
    differ by at most one (earlier shards take the remainder), and
    concatenating the shards reproduces the input exactly — which is
    what makes the merged report order-identical to a single run.
    """
    faults = list(faults)
    if num_shards < 1:
        raise SimulationError(f"num_shards must be >= 1: {num_shards}")
    if not faults:
        # No faults, no shards: grading zero faults must not spin up
        # any machinery (an empty shard would still compile a
        # simulator just to grade nothing).
        return []
    num_shards = min(num_shards, len(faults))
    base, extra = divmod(len(faults), num_shards)
    shards: list[list[Fault]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(faults[start:start + size])
        start += size
    return shards


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process state, installed by the pool initializer: the
#: simulator (compiled once per worker) and the shipped config.
_WORKER_SIM: Optional[ParallelFaultSimulator] = None
_WORKER_CONFIG: Optional[GradingConfig] = None
#: What this worker has already shipped to the parent: the telemetry
#: snapshot taken after the previous shard (or the post-fork baseline),
#: so each outcome carries exactly the activity since the last one —
#: the first shard's delta includes the warm-up compile.
_WORKER_SHIPPED: Optional[dict] = None


def _init_worker(config: GradingConfig) -> None:
    """Pool initializer: build + warm up this worker's simulator."""
    global _WORKER_SIM, _WORKER_CONFIG, _WORKER_SHIPPED
    _WORKER_CONFIG = config
    if config.telemetry:
        # Fresh per-process state: a forked worker inherits the
        # parent's phases/counters, which the parent already owns.
        telemetry.enable(reset_state=True)
        # The baseline still carries the inherited live program-cache
        # stats; snapshotting here keeps them out of the first delta.
        _WORKER_SHIPPED = telemetry.snapshot()
    _WORKER_SIM = config.build_simulator()
    _WORKER_SIM.warm_up()


def _grade_with(
    sim: ParallelFaultSimulator,
    config: GradingConfig,
    index: int,
    faults: list[Fault],
) -> ShardOutcome:
    """Grade one shard on ``sim``; record counter/cache deltas."""
    cache = program_cache()
    cache_before = cache.stats()

    def counter_snapshot() -> tuple[int, int, float]:
        counters = sim.batch_counters()
        if counters is None:
            return (0, 0, 0.0)
        return (counters.batches, counters.vectors, counters.seconds)

    before = counter_snapshot()
    report = sim.run(config.vectors, faults)
    after = counter_snapshot()
    cache_after = cache.stats()
    outcome = ShardOutcome(
        index=index,
        detected=report.detected,
        undetected=report.undetected,
        counters={
            "batches": after[0] - before[0],
            "vectors": after[1] - before[1],
            "seconds": after[2] - before[2],
        },
        cache={
            "hits": cache_after["hits"] - cache_before["hits"],
            "misses": cache_after["misses"] - cache_before["misses"],
        },
        pid=os.getpid(),
    )
    if sim.probes is not None:
        outcome.activity = sim.good_activity(
            config.vectors, config.initial
        )
    return outcome


def _grade_shard(item: tuple[int, list[Fault]]) -> ShardOutcome:
    """Worker entry point: grade one shard on the per-worker simulator."""
    index, faults = item
    config = _WORKER_CONFIG
    assert config is not None and _WORKER_SIM is not None
    if index in config.delay_shards:
        time.sleep(config.delay_shards[index])
    if index in config.fail_shards:
        if config.fail_mode == "exit":
            os._exit(17)  # simulate a killed worker
        raise RuntimeError(f"injected failure for shard {index}")
    outcome = _grade_with(_WORKER_SIM, config, index, faults)
    if config.telemetry:
        global _WORKER_SHIPPED
        snap = telemetry.snapshot()
        outcome.telemetry = telemetry.diff_snapshots(
            snap, _WORKER_SHIPPED or {}
        )
        _WORKER_SHIPPED = snap
    return outcome


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def merge_shard_outcomes(
    outcomes: Sequence[ShardOutcome],
    num_vectors: int,
    *,
    workers: int,
    num_shards: int,
    shard_sizes: list[int],
    mp_start: str,
    degraded: bool,
    events: Optional[dict] = None,
) -> ShardedFaultReport:
    """Deterministically merge per-shard outcomes into one report.

    Outcomes are ordered by shard index (shards are contiguous slices
    of the fault list), so detected-map insertion order and the
    undetected list both reproduce the single-process run exactly.
    Worker-shipped telemetry deltas fold into this process's registry
    (inline/retried outcomes carry none — their activity is already
    recorded here).
    """
    detected: dict[Fault, int] = {}
    undetected: list[Fault] = []
    counters = BatchCounters()
    cache_stats = {"hits": 0, "misses": 0}
    retried: list[int] = []
    pids: set[int] = set()
    activity = None
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if activity is None and outcome.activity is not None:
            activity = outcome.activity
        detected.update(outcome.detected)
        undetected.extend(outcome.undetected)
        counters.batches += outcome.counters["batches"]
        counters.vectors += outcome.counters["vectors"]
        counters.seconds += outcome.counters["seconds"]
        cache_stats["hits"] += outcome.cache["hits"]
        cache_stats["misses"] += outcome.cache["misses"]
        if outcome.retried:
            retried.append(outcome.index)
        pids.add(outcome.pid)
        if outcome.telemetry is not None and outcome.pid != os.getpid():
            telemetry.merge_snapshot(outcome.telemetry)
    report = ShardedFaultReport(
        detected, undetected, num_vectors,
        workers=workers,
        num_shards=num_shards,
        shard_sizes=list(shard_sizes),
        mp_start=mp_start,
        retried_shards=retried,
        degraded=degraded,
        counters=counters,
        cache_stats=cache_stats,
        worker_pids=sorted(pids),
        events=events,
    )
    report.activity = activity
    return report


def _resolve_start_method(mp_start: str) -> str:
    methods = multiprocessing.get_all_start_methods()
    if mp_start == "auto":
        return "fork" if "fork" in methods else "spawn"
    if mp_start not in methods:
        raise SimulationError(
            f"start method {mp_start!r} unavailable; have {methods}"
        )
    return mp_start


def run_sharded_fault_simulation(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    word_width: int = 32,
    backend: str = "python",
    initial: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    mp_start: str = "auto",
    shard_timeout: Optional[float] = None,
    probes=None,
    _fail_shards: frozenset = frozenset(),
    _fail_mode: str = "raise",
    _delay_shards: Optional[dict] = None,
) -> ShardedFaultReport:
    """Grade ``faults`` over ``vectors`` with a sharded worker pool.

    ``workers`` defaults to ``os.cpu_count()``; ``shards`` defaults to
    ``2 * workers`` (load balancing without paying too many redundant
    good pre-passes — see the module docstring's cost model).
    ``mp_start`` is ``"fork"``, ``"spawn"``, or ``"auto"`` (fork where
    available).  ``shard_timeout`` bounds, per shard, how long the
    collection loop waits beyond the previously collected shard;
    late, failed, or killed shards are regraded in-process.

    The merged report equals (``==``) the single-process
    :func:`~repro.faults.simulator.run_fault_simulation` result.
    With ``probes`` each worker also grades fault-free switching
    activity once (memoized across its shards); the per-net counters
    ride the shard outcomes and the parent attaches the
    lowest-indexed copy as ``report.activity`` — bit-identical to the
    single-process run, including across retries and degradation.
    """
    if faults is None:
        faults = full_fault_list(circuit)
    faults = list(faults)
    for fault in faults:
        if fault.net not in circuit.nets:
            raise SimulationError(f"no such net: {fault.net!r}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise SimulationError(f"workers must be >= 1: {workers}")
    if not faults:
        # Empty fault list: an empty report, inline, without building
        # a simulator, compiling a program, or starting any pool.
        return ShardedFaultReport(
            {}, [], len(vectors),
            workers=1, num_shards=0, shard_sizes=[],
            mp_start="inline", retried_shards=[], degraded=False,
            counters=BatchCounters(), cache_stats={},
            worker_pids=[os.getpid()],
            events={"retries": 0, "timeouts": 0, "degraded": 0},
        )
    start_method = _resolve_start_method(mp_start)
    config = GradingConfig(
        circuit, [list(vector) for vector in vectors],
        word_width=word_width, backend=backend, initial=initial,
        fail_shards=frozenset(_fail_shards), fail_mode=_fail_mode,
        delay_shards=_delay_shards, probes=probes,
    )
    shard_lists = shard_faults(
        faults, shards if shards is not None else max(1, 2 * workers)
    )
    num_shards = len(shard_lists)
    shard_sizes = [len(shard) for shard in shard_lists]

    local_sim: Optional[ParallelFaultSimulator] = None

    def local() -> ParallelFaultSimulator:
        nonlocal local_sim
        if local_sim is None:
            local_sim = config.build_simulator()
            local_sim.warm_up()
        return local_sim

    def run_inline(mp_label: str, degraded: bool) -> ShardedFaultReport:
        if degraded:
            telemetry.event("shard.degraded", mp_start=mp_label)
        outcomes = [
            _grade_with(local(), config, index, shard)
            for index, shard in enumerate(shard_lists)
        ]
        return merge_shard_outcomes(
            outcomes, len(config.vectors),
            workers=1 if not degraded else workers,
            num_shards=num_shards, shard_sizes=shard_sizes,
            mp_start=mp_label, degraded=degraded,
            events={
                "retries": 0,
                "timeouts": 0,
                "degraded": 1 if degraded else 0,
            },
        )

    if workers == 1 or num_shards <= 1 or not faults:
        return run_inline("inline", degraded=False)

    pool = None
    try:
        context = multiprocessing.get_context(start_method)
        pool = ProcessPoolExecutor(
            max_workers=min(workers, num_shards),
            mp_context=context,
            initializer=_init_worker,
            initargs=(config,),
        )
        futures = [
            pool.submit(_grade_shard, (index, shard))
            for index, shard in enumerate(shard_lists)
        ]
    except Exception:
        # The pool never came up (resource limits, missing /dev/shm,
        # unpicklable payload, ...): degrade to single-process.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return run_inline(start_method, degraded=True)

    outcomes: list[ShardOutcome] = []
    failed: list[int] = []
    timeouts = 0
    for index, future in enumerate(futures):
        try:
            outcomes.append(future.result(timeout=shard_timeout))
        except FuturesTimeoutError:
            timeouts += 1
            telemetry.event("shard.timeout", shard=index)
            failed.append(index)
        except Exception:
            # Worker raised, died (BrokenProcessPool), or the shard
            # could not be shipped: regrade in-process below.
            failed.append(index)
    # A timed-out shard's worker may still be grinding; don't block
    # shutdown on it (the in-process retry supersedes its result).
    pool.shutdown(wait=timeouts == 0, cancel_futures=True)

    for index in failed:
        telemetry.event("shard.retry", shard=index)
        outcome = _grade_with(local(), config, index, shard_lists[index])
        outcome.retried = True
        outcomes.append(outcome)

    return merge_shard_outcomes(
        outcomes, len(config.vectors),
        workers=workers, num_shards=num_shards,
        shard_sizes=shard_sizes, mp_start=start_method,
        degraded=False,
        events={
            "retries": len(failed),
            "timeouts": timeouts,
            "degraded": 0,
        },
    )
