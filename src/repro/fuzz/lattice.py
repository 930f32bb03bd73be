"""The differential fuzzer's configuration lattice.

Five execution paths must agree bit for bit — the event-driven
reference, the PC-set method, the parallel variants, both backends,
and the scalar/packed/batched/threaded execution shapes.  A point in
the lattice is a :class:`FuzzConfig`: *which* differential check to
run (``check``), on *which* technique, backend, word width, batch
size, and — for the fault workload — worker count.  The campaign
(:mod:`repro.fuzz.campaign`) samples a slice of the lattice per
circuit; :func:`run_check` executes one point and raises
:class:`~repro.harness.compare.Mismatch` on disagreement, which is the
single predicate the shrinker and the corpus replay share.
"""

from __future__ import annotations

import itertools
import os
import random
import tempfile
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from repro.errors import SimulationError
from repro.harness.compare import PACKED_TECHNIQUES, Mismatch, cross_validate
from repro.harness.runner import PROBE_TECHNIQUES as _PROBED
from repro.netlist.circuit import Circuit

__all__ = [
    "CHECKS",
    "CONFIG_SCHEMA",
    "BACKENDS",
    "HISTORY_TECHNIQUES",
    "PROBE_TECHNIQUES",
    "SEQUENTIAL_ENGINES",
    "SURFACES",
    "WORD_WIDTHS",
    "FuzzConfig",
    "sample_configs",
    "coverage_configs",
    "run_check",
]

#: The differential comparisons the fuzzer knows how to run.
CHECKS = ("history", "batched", "packed", "faults", "sequential")

#: Version of the serialized :class:`FuzzConfig` shape.  Corpus entries
#: record it so a build can tell "written by an older library — refill
#: the late-added defaults" (an upgrade shim runs) apart from "written
#: by a *newer* library" (a clean error instead of silently dropping
#: axes it does not understand).
CONFIG_SCHEMA = 2

#: Compiled backends the lattice can draw.
BACKENDS = ("python", "c")

#: The execution surfaces a campaign is expected to cover — the
#: printed lattice-coverage summary counts drawn configs per surface.
#: ``replay-restore`` is the clocked check (its third shape resumes a
#: fresh simulator from a mid-stream checkpoint).
SURFACES = (
    "scalar", "batched", "packed", "replay-restore", "probed", "faults",
)

#: Clocked engines exercised by the ``"sequential"`` check.
SEQUENTIAL_ENGINES = ("lcc", "parallel", "pcset")

#: Unit-delay techniques with a per-net change-history protocol.
HISTORY_TECHNIQUES = (
    "pcset",
    "parallel",
    "parallel-trim",
    "parallel-pathtrace",
    "parallel-cyclebreak",
    "parallel-best",
)

WORD_WIDTHS = (8, 16, 32, 64)

_HISTORY_PROBED = tuple(t for t in _PROBED if t in HISTORY_TECHNIQUES)

#: Techniques whose compiled fast path accepts ``probes=`` per check.
PROBE_TECHNIQUES = {
    "history": _HISTORY_PROBED,
    "batched": _HISTORY_PROBED,
    "packed": tuple(t for t in _PROBED if t in PACKED_TECHNIQUES),
}


@dataclass(frozen=True)
class FuzzConfig:
    """One point of the configuration lattice.

    ``batch_size`` chunks the tape for the batched/packed/sequential
    paths (``0`` = the whole tape in one dispatch).  ``workers``
    applies to the ``"faults"`` check (threaded screen identity).
    ``probes`` additionally builds the
    technique under test with compiled-in activity counters and
    compares them differentially against the history-derived reference.
    """

    check: str = "history"
    technique: str = "parallel-best"
    backend: str = "python"
    word_width: int = 32
    batch_size: int = 0
    workers: int = 1
    probes: bool = False

    def __post_init__(self) -> None:
        if self.check not in CHECKS:
            raise SimulationError(
                f"check must be one of {CHECKS}: {self.check!r}"
            )
        if self.backend not in BACKENDS:
            raise SimulationError(f"unknown backend {self.backend!r}")
        if self.word_width not in WORD_WIDTHS:
            raise SimulationError(
                f"word_width must be one of {WORD_WIDTHS}: "
                f"{self.word_width}"
            )
        if self.check in ("history", "batched"):
            if self.technique not in HISTORY_TECHNIQUES:
                raise SimulationError(
                    f"{self.check!r} check needs a technique from "
                    f"{HISTORY_TECHNIQUES}: {self.technique!r}"
                )
        elif self.check == "packed":
            if self.technique not in PACKED_TECHNIQUES:
                raise SimulationError(
                    f"'packed' check needs a technique from "
                    f"{PACKED_TECHNIQUES}: {self.technique!r}"
                )
        elif self.check == "sequential":
            if self.technique not in SEQUENTIAL_ENGINES:
                raise SimulationError(
                    f"'sequential' check needs an engine from "
                    f"{SEQUENTIAL_ENGINES}: {self.technique!r}"
                )
        if self.probes:
            allowed = PROBE_TECHNIQUES.get(self.check)
            if allowed is None:
                raise SimulationError(
                    f"probes apply to checks "
                    f"{tuple(PROBE_TECHNIQUES)} only "
                    f"(check={self.check!r})"
                )
            if self.technique not in allowed:
                raise SimulationError(
                    f"{self.check!r} check supports probes on "
                    f"techniques {allowed} only: {self.technique!r}"
                )

    def label(self) -> str:
        """Compact human-readable identity (corpus entries, logs)."""
        parts = [self.check]
        if self.check != "faults":
            parts.append(self.technique)
        parts.append(self.backend)
        parts.append(f"w{self.word_width}")
        if (self.check in ("batched", "packed", "sequential")
                and self.batch_size):
            parts.append(f"b{self.batch_size}")
        if self.check == "faults" and self.workers > 1:
            parts.append(f"j{self.workers}")
        if self.probes:
            parts.append("pr")
        return "/".join(parts)

    def surfaces(self) -> frozenset:
        """The execution surfaces this lattice point exercises.

        The mapping is by construction of :func:`run_check`: the
        history check steps per vector (scalar), the batched check
        drives ``apply_vectors``, the packed check drives the
        pattern-lane observation paths, the sequential check always
        includes its mid-stream checkpoint/restore shape, and probes
        ride along on any check that accepts them.
        """
        primary = {
            "history": "scalar",
            "batched": "batched",
            "packed": "packed",
            "sequential": "replay-restore",
            "faults": "faults",
        }[self.check]
        covered = {primary}
        if self.probes:
            covered.add("probed")
        return frozenset(covered)

    def lattice_key(self) -> str:
        """Coarse lattice-point identity used by corpus distillation.

        Two configs with the same key exercise the same code paths:
        the exact chunk size and worker count are sampling noise, so
        they collapse to chunked/whole and solo/multi buckets — an
        entry is subsumed by a *smaller* entry with an equal key.
        """
        parts = [self.check]
        if self.check != "faults":
            parts.append(self.technique)
        parts.append(self.backend)
        parts.append(f"w{self.word_width}")
        parts.append("chunked" if self.batch_size else "whole")
        if self.workers > 1:
            parts.append("multi")
        if self.probes:
            parts.append("pr")
        return "/".join(parts)

    def as_dict(self) -> dict:
        data = asdict(self)
        # Late-added lattice axes serialize only when non-default, so
        # pre-existing corpus entries keep their content-addressed ids
        # (``from_dict`` refills the default on load).  The ``schema``
        # field is likewise excluded from content addressing
        # (:meth:`repro.fuzz.corpus.CorpusEntry.entry_id`).
        if not data["probes"]:
            del data["probes"]
        data["schema"] = CONFIG_SCHEMA
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzConfig":
        """Deserialize a config dict, strictly.

        Dicts written before the ``schema`` field existed load as
        schema 1 and pass through the upgrade shims; dicts claiming a
        *newer* schema raise (a newer library wrote them — replaying a
        silently truncated config would test the wrong lattice point).
        After upgrading, any key that is not a config field raises
        instead of being ignored: a corpus entry that drifted from the
        code is a corrupt reproducer, not a best-effort one.
        """
        data = dict(data)
        schema = data.pop("schema", 1)
        if not isinstance(schema, int) or schema < 1:
            raise SimulationError(
                f"config schema must be a positive int: {schema!r}"
            )
        if schema > CONFIG_SCHEMA:
            raise SimulationError(
                f"config schema {schema} is newer than this library "
                f"understands ({CONFIG_SCHEMA}); upgrade the library "
                f"to replay this corpus entry"
            )
        while schema < CONFIG_SCHEMA:
            data = _CONFIG_UPGRADES[schema](data)
            schema += 1
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise SimulationError(
                f"unknown FuzzConfig fields {unknown}; corpus entries "
                f"written by a newer library declare a newer schema — "
                f"this dict claims schema {CONFIG_SCHEMA}, so these "
                f"keys are corruption, not new axes"
            )
        return cls(**data)


def _upgrade_config_v1(data: dict) -> dict:
    """Schema 1 -> 2: the pre-``schema`` shape.

    Schema 1 dicts predate the explicit version field; every axis they
    can carry is still a field today, and axes added since (probes)
    serialize only when non-default — the dataclass defaults refill
    them.  The shim is therefore a
    rename-free pass-through; it exists so future shape changes have an
    established place to rewrite old keys.
    """
    return data


_CONFIG_UPGRADES = {1: _upgrade_config_v1}


def sample_configs(
    rng: random.Random,
    count: int,
    *,
    backends: Sequence[str] = ("python",),
    include_faults: bool = True,
) -> list[FuzzConfig]:
    """Draw ``count`` lattice points, deterministically for a given RNG.

    The draw is weighted toward the history check (the strictest
    oracle); batched, packed and — when enabled — fault-report
    identity each get a slice of every campaign.
    """
    kinds = ["history", "history", "batched", "packed", "sequential"]
    if include_faults:
        kinds.append("faults")
    configs: list[FuzzConfig] = []
    for _ in range(count):
        check = rng.choice(kinds)
        backend = rng.choice(list(backends))
        word_width = rng.choice(WORD_WIDTHS)
        if check == "packed":
            technique = rng.choice(list(PACKED_TECHNIQUES))
        elif check == "sequential":
            technique = rng.choice(list(SEQUENTIAL_ENGINES))
        else:
            technique = rng.choice(list(HISTORY_TECHNIQUES))
        batch_size = rng.choice((0, 1, 2, 3, 5, 8))
        workers = rng.choice((2, 3)) if check == "faults" else 1
        allowed = PROBE_TECHNIQUES.get(check)
        probes = (
            allowed is not None
            and technique in allowed
            and rng.choice((False, False, True))
        )
        configs.append(FuzzConfig(
            check=check,
            technique=technique,
            backend=backend,
            word_width=word_width,
            batch_size=batch_size,
            workers=workers,
            probes=probes,
        ))
    return configs


def coverage_configs(
    backends: Sequence[str] = ("python",),
) -> list[FuzzConfig]:
    """A deterministic config set touching every execution surface.

    The campaign runs these against its first circuit before random
    sampling takes over, so a bounded run still *draws* scalar,
    batched, packed, sequential replay-with-restore, and probed
    configurations — random sampling
    alone can miss a surface inside a small budget.  The preferred
    backend is ``c`` when fuzzed (the production path), else the first
    one given.
    """
    backend = "c" if "c" in backends else backends[0]
    return [
        # scalar
        FuzzConfig(check="history", technique="parallel-best",
                   backend=backend, word_width=16),
        # batched
        FuzzConfig(check="batched", technique="parallel-trim",
                   backend=backend, word_width=32, batch_size=3),
        # packed
        FuzzConfig(check="packed", technique="zero-lcc",
                   backend=backend, word_width=8),
        # packed at 64 bits: the campaign's short tapes leave the one
        # group partial, the shape the fill reconstruction must survive
        FuzzConfig(check="packed", technique="zero-lcc",
                   backend=backend, word_width=64),
        # sequential replay with mid-stream checkpoint/restore
        FuzzConfig(check="sequential", technique="lcc",
                   backend=backend, word_width=16, batch_size=2),
        # compiled-in probes
        FuzzConfig(check="history", technique="parallel-trim",
                   backend=backend, word_width=8, probes=True),
        # fault-report identity
        FuzzConfig(check="faults", technique="parallel-best",
                   backend=backend, word_width=16, workers=2),
    ]


def run_check(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
) -> int:
    """Run one lattice point; returns the number of comparisons made.

    Raises :class:`~repro.harness.compare.Mismatch` on the first
    disagreement — the shared predicate of the campaign, the shrinker,
    and corpus replay.
    """
    if config.check == "faults":
        return _check_faults(circuit, vectors, config)
    if config.check == "sequential":
        return _check_sequential(circuit, vectors, config)
    execution = {"history": "scalar", "batched": "batched",
                 "packed": "packed"}[config.check]
    checks = cross_validate(
        circuit,
        vectors,
        techniques=(config.technique,),
        backend=config.backend,
        word_width=config.word_width,
        execution=execution,
        batch_size=config.batch_size or None,
    )
    if config.probes:
        checks += _check_probes(circuit, vectors, config)
    return checks


def _check_probes(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
) -> int:
    """Compiled-in probe counters vs. the history-derived reference.

    The instrumented fast path must reproduce exactly what the
    event-driven reference derives from full settling histories: full
    toggle counts for the unit-delay techniques, zero-delay functional
    counts for the LCC path.  The LCC counters additionally track
    primary inputs (vector-to-vector transitions), which the history
    reference does not model — those are reconstructed in plain code.
    """
    from repro.activity import collect_activity
    from repro.eventsim.simulator import EventDrivenSimulator
    from repro.harness.runner import build_simulator

    ref = collect_activity(EventDrivenSimulator(circuit), vectors)
    rows = [list(vector) for vector in vectors]
    sim = build_simulator(
        circuit, config.technique,
        word_width=config.word_width, backend=config.backend, probes=True,
    )
    zero_delay = config.technique == "zero-lcc"
    if zero_delay:
        sim.probe_reset()
    else:
        sim.reset([0] * len(circuit.inputs))
    chunk = config.batch_size or len(rows) or 1
    for start in range(0, len(rows), chunk):
        sim.apply_vectors(rows[start:start + chunk])
    got = sim.activity_report()

    want_toggles = dict(ref.functional if zero_delay else ref.toggles)
    want_functional = dict(ref.functional)
    if zero_delay:
        prev = [0] * len(circuit.inputs)
        for row in rows:
            for net, before, after in zip(circuit.inputs, prev, row):
                if (before ^ after) & 1:
                    want_toggles[net] += 1
            prev = row
        want_functional = dict(want_toggles)

    label = f"probes[{config.technique}]"
    if got.vectors != len(rows):
        raise Mismatch(
            label, -1, [],
            f"  probe vector count diverged: {got.vectors} != "
            f"{len(rows)}",
        )
    for what, got_map, want_map in (
        ("toggle", dict(got.toggles), want_toggles),
        ("functional", dict(got.functional), want_functional),
    ):
        if got_map != want_map:
            bad = sorted(
                net for net in set(got_map) | set(want_map)
                if got_map.get(net) != want_map.get(net)
            )
            raise Mismatch(
                label, -1, bad,
                f"  probe {what} counts diverged from the history "
                f"reference: "
                f"{ {n: got_map.get(n) for n in bad[:5]} } vs "
                f"{ {n: want_map.get(n) for n in bad[:5]} }",
            )
    return 2 * len(want_toggles) + 1


def _check_sequential(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
) -> int:
    """Clocked differential check over the ``FQ``/``FD`` convention.

    The circuit's flip-flops are reconstructed by name
    (:func:`~repro.netlist.random_circuits.derive_flipflops` — a
    purely combinational circuit degenerates to a zero-flip-flop
    clocked check, still valid), the vector tape's external-input
    columns become the stimulus stream, and the compiled engine under
    test is compared cycle by cycle against the interpreted
    zero-delay reference driven through ``SequentialCircuit.step``:
    per-cycle external outputs *and* the next flip-flop state must
    match, the batched ``apply_vectors`` path must be cycle-identical
    to stepping, a mid-stream snapshot/restore into a *fresh*
    simulator must continue bit-identically, and ``replay_tape`` over
    the same rows written to a tape must give the reference's checksum
    and toggle counts.
    """
    from repro.eventsim.zerodelay import steady_state
    from repro.netlist.random_circuits import derive_flipflops
    from repro.netlist.sequential import SequentialCircuit
    from repro.seqsim import CompiledSequentialSimulator

    flipflops = derive_flipflops(circuit)
    core = circuit.copy(circuit.name)
    for d_net in flipflops.values():
        core.add_net(d_net, is_output=True)
    seq = SequentialCircuit(core, flipflops)
    external = seq.external_inputs
    ext_slots = [
        i for i, n in enumerate(circuit.inputs) if n in set(external)
    ]
    rows = [[vec[i] & 1 for i in ext_slots] for vec in vectors]

    def make_sim() -> CompiledSequentialSimulator:
        return CompiledSequentialSimulator(
            seq,
            engine=config.technique,
            backend=config.backend,
            word_width=config.word_width,
        )

    # Interpreted reference: the paper's clocked recipe over the
    # event-driven zero-delay settle.
    state = seq.initial_state()
    ref_outputs: list[dict[str, int]] = []
    ref_states: list[dict[str, int]] = []
    for row in rows:
        state, outputs = seq.step(
            lambda core_inputs: steady_state(core, core_inputs),
            state,
            dict(zip(external, row)),
        )
        ref_outputs.append(outputs)
        ref_states.append(dict(state))

    checks = 0
    label = f"sequential[{config.technique}]"

    def compare(cycle: int, got: Mapping, want: Mapping,
                what: str) -> None:
        if dict(got) != dict(want):
            bad = sorted(
                n for n in want
                if dict(got).get(n) != want[n]
            )
            raise Mismatch(
                label, cycle, bad,
                f"  {what} diverged at cycle {cycle}: "
                f"{ {n: dict(got).get(n) for n in bad[:5]} } vs "
                f"{ {n: want[n] for n in bad[:5]} }",
            )

    # 1. step-wise outputs + next state vs. the reference.
    sim = make_sim()
    for cycle, row in enumerate(rows):
        outputs = sim.step(row)
        compare(cycle, outputs, ref_outputs[cycle], "outputs")
        compare(cycle, sim.state, ref_states[cycle], "state")
        checks += 2

    # 2. batched apply_vectors must be cycle-identical to stepping.
    batched = make_sim()
    chunk = config.batch_size or len(rows) or 1
    got_outputs: list[dict[str, int]] = []
    for start in range(0, len(rows), chunk):
        got_outputs.extend(
            batched.apply_vectors(rows[start:start + chunk])
        )
    for cycle, outputs in enumerate(got_outputs):
        compare(cycle, outputs, ref_outputs[cycle], "batched outputs")
        checks += 1
    if rows:
        compare(len(rows) - 1, batched.state, ref_states[-1],
                "batched final state")
        checks += 1

    # 3. checkpoint/restore into a fresh simulator continues
    # identically.  The snapshot rides through the replay layer's
    # JSON checkpoint document (PR 8's on-disk format) rather than the
    # in-memory dict, so the serialization path is differentially
    # checked too.
    if len(rows) >= 2:
        import json

        from repro.replay.checkpoint import ReplayCheckpoint

        half = len(rows) // 2
        first = make_sim()
        first.apply_vectors(rows[:half])
        snap = first.snapshot()
        document = json.dumps(ReplayCheckpoint(
            cycle=snap["cycle"], state=snap["state"],
            circuit=circuit.name, engine=config.technique,
        ).as_dict())
        restored = ReplayCheckpoint.from_dict(json.loads(document))
        if restored.state != {q: v & 1 for q, v in snap["state"].items()}:
            raise Mismatch(
                label, half - 1, sorted(snap["state"]),
                "  checkpoint JSON round-trip corrupted the state: "
                f"{restored.state!r} vs {snap['state']!r}",
            )
        checks += 1
        resumed = make_sim()
        resumed.restore(
            {"state": restored.state, "cycle": restored.cycle}
        )
        for cycle, outputs in zip(
            range(half, len(rows)), resumed.apply_vectors(rows[half:])
        ):
            compare(cycle, outputs, ref_outputs[cycle],
                    "resumed outputs")
            checks += 1

    # 4. replay_tape from a tape on disk, in chunks that do not divide
    # the row count, against the reference outputs' checksum and
    # per-output toggle counts; then again in two segments, cut at a
    # checkpoint off the chunk grid and resumed from its JSON document
    # in a fresh simulator, so the fold's carried sum, counts and
    # previous row cross a chunk boundary mid-stream.
    if rows:
        from repro.replay import Tape, fold_outputs, replay_tape, write_tape

        outputs = seq.external_outputs
        checksum = 0
        toggles = dict.fromkeys(outputs, 0)
        for cycle, want in enumerate(ref_outputs):
            checksum = fold_outputs(checksum, [want[o] for o in outputs])
            if cycle:
                for o in outputs:
                    toggles[o] += want[o] != ref_outputs[cycle - 1][o]
        chunk = next(c for c in itertools.count(2) if len(rows) % c)
        # Never a multiple of the chunk; inside the tape when it fits.
        cut = chunk + 1 if chunk + 1 < len(rows) else 1

        def check(got, what: str) -> None:
            if got.checksum != checksum or got.toggles != toggles:
                bad = sorted(
                    o for o in outputs if got.toggles[o] != toggles[o]
                )
                raise Mismatch(
                    label, len(rows) - 1, bad,
                    f"  replay_tape ({what}) diverged: checksum "
                    f"{got.checksum:#018x} vs {checksum:#018x}, toggles "
                    f"{ {o: got.toggles[o] for o in bad[:5]} } vs "
                    f"{ {o: toggles[o] for o in bad[:5]} }",
                )

        with tempfile.TemporaryDirectory(prefix="repro_fuzz_") as work:
            path = os.path.join(work, "stimulus.tape")
            write_tape(path, external, rows)
            tape = Tape(path)
            check(
                replay_tape(make_sim(), tape, chunk_cycles=chunk),
                f"chunks of {chunk}",
            )
            checks += 1
            if len(rows) >= 2:
                head = replay_tape(
                    make_sim(), tape, chunk_cycles=chunk,
                    checkpoint_every=cut, checkpoint_dir=work, limit=cut,
                )
                check(
                    replay_tape(
                        make_sim(), tape, chunk_cycles=chunk,
                        resume_from=head.checkpoints[-1],
                    ),
                    f"chunks of {chunk}, resumed at cycle {cut}",
                )
                checks += 1
    return checks


#: Serial (event-driven, one run per fault) reference is only affordable
#: on small instances; above these bounds the faults check still
#: validates inline-vs-threaded identity.  The bounds cover every
#: campaign draw: at most 12 vectors, and at most 39 gates (a 3-bit
#: array multiplier, 36 gates, plus up to three flip-flop D buffers).
_SERIAL_MAX_GATES = 40
_SERIAL_MAX_VECTORS = 12


def _check_faults(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
) -> int:
    """Fault-report identity: inline vs. threaded vs. serial.

    Every report must be equal — same detected map (fault -> first
    detecting vector) and same undetected list.  On small instances the
    brute-force event-driven reference is compared too, and one
    simulator grades the draw twice, the second time with its vectors
    reversed (a caller reusing its simulator, as test generation does,
    with good words it has not memoized) against serial injection on
    the reversed vectors.
    """
    from repro.faults.simulator import (
        ParallelFaultSimulator,
        run_fault_simulation,
        serial_fault_simulation,
    )

    options = dict(word_width=config.word_width, backend=config.backend)
    inline = run_fault_simulation(circuit, vectors, **options)
    checks = inline.num_faults
    if config.workers > 1:
        threaded = run_fault_simulation(
            circuit, vectors, workers=config.workers, **options
        )
        if threaded != inline:
            raise Mismatch(
                f"faults[threaded j{config.workers}]", -1, [],
                f"  threaded report diverged from inline: "
                f"{threaded!r} vs {inline!r}",
            )
        checks += threaded.num_faults
    if (circuit.num_gates <= _SERIAL_MAX_GATES
            and len(vectors) <= _SERIAL_MAX_VECTORS):
        serial = serial_fault_simulation(circuit, vectors)
        if serial != inline:
            raise Mismatch(
                "faults[serial]", -1, [],
                f"  compiled report diverged from the event-driven "
                f"reference: {inline!r} vs {serial!r}",
            )
        checks += serial.num_faults
        simulator = ParallelFaultSimulator(circuit, **options)
        simulator.run(vectors)
        backwards = vectors[::-1]
        again = simulator.run(backwards)
        want = serial_fault_simulation(circuit, backwards)
        if again != want:
            raise Mismatch(
                "faults[reused]", -1, [],
                f"  a second run of one simulator, vectors reversed, "
                f"diverged from the event-driven reference: "
                f"{again!r} vs {want!r}",
            )
        checks += want.num_faults
    return checks
