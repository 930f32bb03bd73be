"""One run of one benchmark workload, in its own process.

``run.py`` starts ``python -m suite.workloads`` once per run with a
fresh, empty ``TMPDIR``, so every run begins with a cold program cache,
which is what a one-shot user pays.  The run

1. builds the workload's ``.bench`` text and stimulus from ``--seed``;
2. sets up twice from that text (parse, build, reset/warm-up), each
   on an empty program cache: here and, at the same time on the other
   CPU, in a helper process started with ``--beside``;
3. calls the public entry point in a closed loop, starting the next call
   only when the previous one returned, until ``--seconds`` of call
   time are spent.  Each call's input is made just before the call,
   outside the timed region, and dropped after it;
4. reads the peak RSS, then checks a seeded sample of the run's own
   outputs against the interpreted reference in :mod:`repro.eventsim`;
5. writes one JSON result file.

Times are reported in reference-host seconds (:class:`HostSpeed`): on
a shared host other tenants slow every program on it by up to 2x for
minutes at a time, which moves a run's median call by 7-45% from run
to run.  Divided by the slowdown a fixed probe shows right beside it,
the same call moves by 1-4%.  The raw times stay in the result file.

With ``--trace 1`` this process's set-up and every second call run
under the tracer (:mod:`suite.trace`); the untraced calls between them
give the tracer's overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from repro import (
    EventDrivenSimulator,
    LCCSimulator,
    ParallelFaultSimulator,
    ParallelSimulator,
    ZeroDelaySimulator,
    break_at_flipflops,
    full_fault_list,
    inject_stuck_at,
    levelize,
    make_circuit,
    parse_bench,
    run_fault_simulation,
    write_bench,
)
from repro.codegen.runtime import CMachine, program_cache
from repro.eventsim.indexed import IndexedCircuit
from repro.logic import eval_gate
from repro.netlist.random_circuits import derive_flipflops, sequentialize
from repro.replay.harness import fold_outputs, replay_tape
from repro.replay.tape import Tape, write_tape
from repro.seqsim import CompiledSequentialSimulator

from suite import trace

#: Every analog is synthesized from this seed; ``--seed`` drives only
#: the stimulus, so the programs compiled are identical across seeds.
CIRCUIT_SEED = 1990

#: Pinned execution plan.  ``tiles="auto"`` on c7552 sends cc1 past
#: nine CPU-minutes, so tiling stays off (README.md, "Why tiles=1").
C_OPTIONS = {"backend": "c", "word_width": 64, "tiles": 1, "partitions": 1}

#: Cold set-ups per run, one per CPU, side by side; ``setup_s`` is
#: their median.  Each runs the C compiler on the whole program.
SETUPS = 2

#: Calls per run at least, so a traced run has an untraced call too.
MIN_CALLS = 2

_BYTE_BITS = [tuple((byte >> k) & 1 for k in range(8)) for byte in range(256)]


def random_vector(rng: random.Random, width: int) -> list[int]:
    """A uniform 0/1 vector of ``width`` values."""
    vector: list[int] = []
    for byte in rng.randbytes((width + 7) // 8):
        vector.extend(_BYTE_BITS[byte])
    del vector[width:]
    return vector


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:16]


#: Seconds one :func:`probe` takes on the reference host (2-vCPU Xeon
#: at 2.1 GHz, Python 3.11) when nothing else runs there.
REFERENCE_PROBE_S = 0.00080


def probe() -> int:
    """Fixed interpreter work whose time tracks the host's speed."""
    values = []
    table: dict[int, int] = {}
    for i in range(8000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        values.append(i ^ key)
    return len(values) + len(table)


class HostSpeed:
    """How slow the host runs, measured beside the timed regions.

    Other tenants of a shared host slow it by up to 2x for seconds or
    minutes at a time, and the compiler, the interpreter and the
    compiled kernel slow roughly alike.  Batches of probes run before
    and after the set-ups and after every call.  A call is divided by
    the mean slowdown of the batches on either side of it; a set-up,
    longer than most bursts, by the run's median batch.  Either way it
    reads in reference-host seconds whatever the load.
    """

    def __init__(self) -> None:
        self.batches: dict[str, list[float]] = {"setup": [], "call": []}

    def sample(self, phase: str, count: int) -> None:
        """Append one batch: the mean of ``count`` probe times."""
        total = 0.0
        for _ in range(count):
            start = time.perf_counter()
            probe()
            total += time.perf_counter() - start
        self.batches[phase].append(total / count)

    def calls(self, seconds: list[float]) -> list[float]:
        """Reference-host seconds of each call; call ``i`` ran between
        call batches ``i`` and ``i + 1``."""
        batches = self.batches["call"]
        return [
            value * 2 * REFERENCE_PROBE_S / (before + after)
            for value, before, after in zip(seconds, batches, batches[1:])
        ]

    def run(self, seconds: float) -> float:
        """Reference-host seconds of a region at the run's median speed."""
        batches = self.batches["setup"] + self.batches["call"]
        return seconds * REFERENCE_PROBE_S / statistics.median(batches)


class Workload:
    """One public entry point driven from ``.bench`` text.

    Every call of a run does the same amount of work, so the median
    call stands for all of them.
    """

    name = ""
    circuit_name = ""

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.pick = random.Random(f"{seed}:verify")
        self.source = self.build_source(scale)
        self.text = write_bench(self.source)

    def build_source(self, scale: float):
        return make_circuit(
            self.circuit_name, seed=CIRCUIT_SEED, scale_factor=scale
        )

    def circuit_info(self, scale: float) -> dict:
        return {
            "name": self.source.name,
            "gates": self.source.num_gates,
            "levels": levelize(self.source).num_levels,
            "inputs": len(self.source.inputs),
            "outputs": len(self.source.outputs),
            "scale": scale,
        }

    def setup(self):
        raise NotImplementedError

    def stimulus(self):
        raise NotImplementedError

    def call(self, state, stimulus):
        """Run one public call; returns ``(output, vectors done)``."""
        raise NotImplementedError

    def observe(self, index: int, stimulus, output) -> None:
        """Keep what verification needs from call ``index``."""

    def verify(self, state) -> dict:
        """``{"checked", "mismatches", "digests"}`` for this run."""
        raise NotImplementedError


class Batches(Workload):
    """``apply_vectors`` on fresh random batches of ``batch`` vectors."""

    batch = 0
    samples = 64

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.kept: list[tuple[list[int], list[int]]] = []

    def stimulus(self):
        width = len(self.source.inputs)
        return [random_vector(self.rng, width) for _ in range(self.batch)]

    def call(self, sim, vectors):
        return sim.apply_vectors(vectors), len(vectors)


class LccStream(Batches):
    """Zero-delay LCC, packed full-mode ``apply_vectors`` batches."""

    name = "lcc-stream"
    circuit_name = "c7552"
    batch = 2048

    def setup(self):
        circuit = parse_bench(self.text, self.source.name)
        return LCCSimulator(circuit, **C_OPTIONS)

    def observe(self, index, vectors, outputs):
        take = min(8, self.samples - len(self.kept))
        for j in sorted(self.pick.sample(range(len(vectors)), take)):
            self.kept.append((vectors[j], outputs[j]))

    def verify(self, sim):
        reference = ZeroDelaySimulator(sim.circuit)
        outputs = sim.circuit.outputs
        mismatches = 0
        for vector, words in self.kept:
            settled = reference.evaluate(vector)
            if [word & 1 for word in words] != [settled[o] for o in outputs]:
                mismatches += 1
        return {
            "checked": len(self.kept),
            "mismatches": mismatches,
            "digests": {"sampled_outputs": digest(self.kept)},
        }


def _value_at(changes: list[tuple[int, int]], when: int) -> int:
    value = changes[0][1]
    for time_, changed in changes:
        if time_ > when:
            break
        value = changed
    return value


class UnitDelay(Batches):
    """``parallel-best`` (path tracing + trimming), state carried."""

    name = "unit-delay"
    circuit_name = "c6288"
    batch = 4096

    def setup(self):
        circuit = parse_bench(self.text, self.source.name)
        sim = ParallelSimulator(
            circuit, optimization="pathtrace+trim", **C_OPTIONS
        )
        sim.reset()
        return sim

    def observe(self, index, vectors, outputs):
        if index == 0:
            self.kept = list(zip(vectors, outputs))[:self.samples]

    def verify(self, sim):
        """Each emitted bit-field bit against the event-driven history.

        Bit ``b`` of word ``j`` of a net's field holds the net's value
        at time ``j * W + b + alignment``, for the field's used width.
        """
        reference = EventDrivenSimulator(sim.circuit)
        reference.reset([0] * len(sim.circuit.inputs))
        layout = sim.layout
        width = layout.word_width
        labels = sim.output_labels()
        mismatches = 0
        for vector, words in self.kept:
            history = reference.apply_vector(vector, record=True)
            wrong = False
            for (net, j), word in zip(labels, words):
                spec = layout.field(net)
                for bit in range(width):
                    position = j * width + bit
                    if position >= spec.width:
                        break
                    when = position + spec.alignment
                    if when < 0:
                        continue
                    if (word >> bit) & 1 != _value_at(history[net], when):
                        wrong = True
            mismatches += wrong
        return {
            "checked": len(self.kept),
            "mismatches": mismatches,
            "digests": {"first_outputs": digest([w for _, w in self.kept])},
        }


def settled_outputs(circuit, input_words: list[int], mask: int) -> list[int]:
    """Interpreted bit-parallel settle: one lane per vector."""
    indexed = IndexedCircuit(circuit)
    values = [0] * indexed.num_nets
    for net_id, word in zip(indexed.input_ids, input_words):
        values[net_id] = word
    gate_inputs = indexed.gate_inputs
    for gate_id in indexed.topo_gate_ids:
        values[indexed.gate_output[gate_id]] = eval_gate(
            indexed.gate_types[gate_id],
            [values[i] for i in gate_inputs[gate_id]],
        ) & mask
    return [values[i] for i in indexed.output_ids]


def _report_digest(report) -> str:
    return digest({
        "detected": sorted(
            [fault.net, fault.value, first]
            for fault, first in report.detected.items()
        ),
        "undetected": [[f.net, f.value] for f in report.undetected],
    })


class FaultGrade(Workload):
    """PPSFP stuck-at grading; every call rebuilds its simulator.

    Each call grades the same vectors against every eighth fault of the
    full list: a full-list grading takes 2.4 s, and a run holding one or
    two calls gives no median to speak of.
    """

    name = "fault-grade"
    circuit_name = "c880"
    batch = 2048
    fault_stride = 8
    samples = 16

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        width = len(self.source.inputs)
        self.vectors = [
            random_vector(self.rng, width) for _ in range(self.batch)
        ]
        self.faults = full_fault_list(self.source)[::self.fault_stride]
        self.report = None
        self.reports: set[str] = set()

    def setup(self):
        circuit = parse_bench(self.text, self.source.name)
        simulator = ParallelFaultSimulator(circuit, **C_OPTIONS)
        simulator.warm_up()
        return circuit, simulator

    def stimulus(self):
        return self.vectors

    def call(self, state, vectors):
        report = run_fault_simulation(
            state[0], vectors, self.faults, workers=1, **C_OPTIONS
        )
        return report, len(vectors)

    def observe(self, index, vectors, report):
        self.reports.add(_report_digest(report))
        if self.report is None:
            self.report = report

    def verify(self, state):
        """Sampled first detections against interpreted settles.

        A fault's first detection is the lowest vector whose settled
        outputs differ from the fault-free circuit's, which a
        bit-parallel settle over all vectors gives at once.
        """
        circuit = state[0]
        mask = (1 << len(self.vectors)) - 1
        words = [0] * len(circuit.inputs)
        for j, vector in enumerate(self.vectors):
            for k, value in enumerate(vector):
                if value:
                    words[k] |= 1 << j
        good = settled_outputs(circuit, words, mask)
        faults = self.pick.sample(
            self.faults, min(self.samples, len(self.faults))
        )
        mismatches = 0
        for fault in faults:
            faulty = settled_outputs(
                inject_stuck_at(circuit, fault), words, mask
            )
            diff = 0
            for a, b in zip(good, faulty):
                diff |= a ^ b
            expected = (diff & -diff).bit_length() - 1 if diff else None
            if self.report.first_detection(fault) != expected:
                mismatches += 1
        # Every call graded the same vectors, so every report agrees.
        mismatches += len(self.reports) - 1
        return {
            "checked": len(faults) + len(self.reports),
            "mismatches": mismatches,
            "digests": {"fault_report": sorted(self.reports)[0]},
        }


class Replay(Workload):
    """Clocked LCC replay of a seeded tape, one cycle at a time."""

    name = "replay"
    circuit_name = "c5315"
    flipflops = 64
    cycles = 2048
    chunk_cycles = 1024
    check_cycles = 2000

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        external = break_at_flipflops(
            self.source, derive_flipflops(self.source)
        ).external_inputs
        path = os.path.join(workdir, "stimulus.tape")
        write_tape(path, external, (
            random_vector(self.rng, len(external))
            for _ in range(self.cycles)
        ))
        self.tape = Tape(path)
        self.results: set[str] = set()

    def build_source(self, scale):
        return sequentialize(
            super().build_source(scale), self.flipflops, seed=CIRCUIT_SEED
        )

    def circuit_info(self, scale):
        info = super().circuit_info(scale)
        info["flipflops"] = len(derive_flipflops(self.source))
        return info

    def setup(self):
        core = parse_bench(self.text, self.source.name)
        sequential = break_at_flipflops(core, derive_flipflops(core))
        return CompiledSequentialSimulator(
            sequential, engine="lcc", **C_OPTIONS
        )

    def stimulus(self):
        return self.tape

    def call(self, sim, tape):
        result = replay_tape(sim, tape, chunk_cycles=self.chunk_cycles)
        return result, result.cycles

    def observe(self, index, tape, result):
        self.results.add(digest([result.checksum, result.toggles]))

    def verify(self, sim):
        """The first cycles against interpreted ``SequentialCircuit.step``."""
        cycles = min(self.check_cycles, self.tape.cycles)
        sequential = sim.sequential
        reference = ZeroDelaySimulator(sequential.core)
        outputs = sequential.external_outputs
        state = sequential.initial_state()
        checksum = 0
        toggles = dict.fromkeys(outputs, 0)
        previous = None
        for row in self.tape.read(0, cycles):
            state, values = sequential.step(
                reference.evaluate, state,
                dict(zip(sequential.external_inputs, row)),
            )
            bits = [values[o] for o in outputs]
            checksum = fold_outputs(checksum, bits)
            if previous is not None:
                for o, bit, before in zip(outputs, bits, previous):
                    toggles[o] += bit != before
            previous = bits
        got = replay_tape(
            sim, self.tape, chunk_cycles=self.chunk_cycles, limit=cycles
        )
        mismatches = int(got.checksum != checksum or got.toggles != toggles)
        mismatches += len(self.results) - 1
        return {
            "checked": 1 + len(self.results),
            "mismatches": mismatches,
            "digests": {
                "replay": sorted(self.results)[0],
                "prefix_checksum": f"{checksum:016x}",
            },
        }


WORKLOADS = {
    cls.name: cls for cls in (LccStream, UnitDelay, FaultGrade, Replay)
}


def live_machines() -> list[dict]:
    """The compiled C machines alive now, with the flags cc used."""
    machines = []
    for obj in gc.get_objects():
        if isinstance(obj, CMachine):
            stats = obj.program.stats()
            machines.append({
                "program": obj.program.name,
                "opt_level": obj.opt_level,
                "source_lines": stats.source_lines,
                "total_ops": stats.total_ops,
            })
    return sorted(machines, key=lambda m: m["program"])


def loaded_libraries(directory: str) -> int:
    """Distinct shared objects under ``directory`` mapped right now."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split(None, 5)
            if len(fields) == 6 and fields[5].startswith(directory):
                if ".so" in fields[5]:
                    paths.add(fields[5].strip())
    return len(paths)


def _timed(tracer, root: str, function, *args):
    """``(result, seconds)``; under ``tracer`` inside a root span."""
    if tracer is None:
        start = time.perf_counter()
        result = function(*args)
        return result, time.perf_counter() - start
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span(root):
            result = function(*args)
        return result, time.perf_counter() - start
    finally:
        tracer.uninstall()


def set_up_beside(args) -> dict:
    """``--beside``: the run's other cold set-up, in its own process."""
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    print("ready", flush=True)
    _state, seconds = _timed(None, "setup", workload.setup)
    return {"setup_s": seconds, "attempted": 1, "failed": 0}


def _beside(args) -> tuple[subprocess.Popen, str]:
    """Start :func:`set_up_beside` and wait until it is ready to time."""
    workdir = os.path.join(args.workdir, "beside")
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    helper = subprocess.Popen(
        [sys.executable, "-m", "suite.workloads", "--beside",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--scale", str(args.scale),
         "--workdir", workdir, "--result", result],
        stdout=subprocess.PIPE, text=True,
    )
    helper.stdout.readline()
    return helper, result


def run(args) -> dict:
    trace.import_targets()
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    tracer = trace.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}") \
        if args.trace else None
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "scale": args.scale, "circuit": workload.circuit_info(args.scale),
    }
    gates = result["circuit"]["gates"]

    # Both set-ups start on an empty program cache.  The probes run
    # while nothing else does: two processes probing or compiling side
    # by side slow each other's probes, not each other's compiles.
    speed = HostSpeed()
    speed.sample("setup", 150)
    helper, helper_result = _beside(args)
    try:
        state, seconds = _timed(tracer, "setup", workload.setup)
        helper.wait()
    finally:
        if helper.poll() is None:
            helper.kill()
            helper.wait()
    speed.sample("setup", 150)
    with open(helper_result) as handle:
        setup_s = [seconds, json.load(handle)["setup_s"]]
    misses = program_cache().stats()["misses"]
    hits_before = program_cache().stats()["hits"]
    machines = live_machines()

    timed: list[tuple[float, bool]] = []
    spent = 0.0
    speed.sample("call", 10)
    while True:
        stimulus = workload.stimulus()
        use_tracer = tracer if len(timed) % 2 == 1 else None
        (output, per_call), seconds = _timed(
            use_tracer, "call", workload.call, state, stimulus
        )
        workload.observe(len(timed), stimulus, output)
        del stimulus, output
        timed.append((seconds, use_tracer is not None))
        speed.sample("call", max(2, round(0.1 * seconds / REFERENCE_PROBE_S)))
        spent += seconds
        calls = len(timed)
        if calls >= MIN_CALLS and spent + spent / calls > args.seconds:
            break
    hits = program_cache().stats()["hits"] - hits_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    libs = loaded_libraries(tempfile.gettempdir())

    check = workload.verify(state)
    calls = [seconds for seconds, _ in timed]
    normal = speed.calls(calls)
    plain = [n for n, (_, traced) in zip(normal, timed) if not traced]
    traced = [n for n, (_, traced) in zip(normal, timed) if traced]
    setups = [speed.run(s) for s in setup_s]
    result.update({
        "setup_samples_s": setup_s,
        "call_samples_s": [s for s, traced in timed if not traced],
        "call_normalized_s": plain,
        "probe_batches_s": speed.batches,
        "machines": machines,
        "verify": {k: check[k] for k in ("checked", "mismatches")},
        "digests": check["digests"],
        "attempted": SETUPS + len(timed) + check["checked"],
        "failed": check["mismatches"],
    })
    if tracer is None:
        call_s = statistics.median(plain)
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "vectors_per_s": per_call / call_s,
            "call_ms": 1e3 * call_s,
            "peak_rss_mb": peak_rss_mb,
        }
        return result
    summary = trace.summarize(tracer.spans)
    result["metrics"] = trace.layer_metrics(summary, gates=gates, counts={
        "cache_misses": misses,
        "cache_hits": hits / len(timed),
        "source_lines": sum(m["source_lines"] for m in machines),
        "total_ops": sum(m["total_ops"] for m in machines),
        "loaded_libs": libs,
        "overhead": statistics.median(traced) / statistics.median(plain) - 1,
    })
    result["layers"] = {
        phase: {
            "roots": totals["roots"], "total_s": totals["total"],
            "self_s": totals["self"], "calls": totals["calls"],
        }
        for phase, totals in summary.items()
    }
    if args.spans:
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--beside", action="store_true",
                        help="only the run's second set-up (internal)")
    args = parser.parse_args(argv)
    try:
        result = set_up_beside(args) if args.beside else run(args)
    except Exception:
        traceback.print_exc()
        result = {
            "workload": args.workload, "seed": args.seed,
            "error": traceback.format_exc(), "attempted": 1, "failed": 1,
        }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
