"""Tests for compiled-in net probes (docs/algorithms.md §17).

The contract under test: a simulator built with ``probes=`` counts
per-net switching *inside the generated program* and its
``activity_report()`` is bit-identical to the history-based
reference — on every backend, word width, and execution shape
(scalar, batched, packed; a probed simulator prepares no batches) —
plus the streaming waveform path (``capture_trace``, replay ``--vcd`` with
byte-identical checkpoint resume).
"""

import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.activity import collect_activity
from repro.analysis.levelize import levelize
from repro.codegen import probes as probes_module
from repro.codegen.c_emitter import STEP_PART_SIZE
from repro.codegen.probes import ProbeSpec
from repro.codegen.program import Assign
from repro.codegen.runtime import (
    clear_program_cache,
    have_c_compiler,
    program_cache,
)
from repro.errors import SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.faults.simulator import ParallelFaultSimulator
from repro.harness.runner import build_simulator
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.builder import CircuitBuilder
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator
from repro.waveform import VCDWriter

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)

BACKENDS = ["python", pytest.param("c", marks=NEED_CC)]


def glitchy_circuit():
    """Reconvergent fanout with unequal path lengths: hazards abound."""
    return random_dag_circuit(90, num_inputs=4, num_gates=18)


def mux_with_hazard():
    b = CircuitBuilder("mux")
    a, bb, s = b.inputs("A", "B", "S")
    sn = b.not_("SN", s)
    b.outputs(b.or_("OUT", b.and_("P", a, s), b.and_("Q", bb, sn)))
    return b.build()


def reference(circuit, vectors, initial=None):
    """History-derived activity from the event-driven reference."""
    return collect_activity(
        EventDrivenSimulator(circuit), vectors, initial=initial
    )


def lcc_reference(circuit, vectors, initial=None):
    """What zero-delay LCC probes must count: functional transitions
    for gate nets, vector-to-vector transitions for primary inputs."""
    ref = reference(circuit, vectors, initial=initial)
    want = dict(ref.functional)
    prev = list(initial) if initial is not None else [0] * len(
        circuit.inputs
    )
    for row in vectors:
        for net, before, after in zip(circuit.inputs, prev, row):
            if (before ^ after) & 1:
                want[net] += 1
        prev = list(row)
    return want


class TestProbeSpec:
    def test_coerce_forms(self):
        assert ProbeSpec.coerce(None) is None
        assert ProbeSpec.coerce(False) is None
        assert ProbeSpec.coerce(True).nets is None
        assert ProbeSpec.coerce("X").nets == ("X",)
        assert ProbeSpec.coerce(["X", "Y", "X"]).nets == ("X", "Y")
        spec = ProbeSpec(["A"], trace_nets=["B"])
        assert ProbeSpec.coerce(spec) is spec

    def test_resolve_circuit_order(self):
        circuit = mux_with_hazard()
        spec = ProbeSpec(["OUT", "SN", "A"])
        resolved = spec.resolve(circuit)
        assert set(resolved) == {"A", "SN", "OUT"}
        order = {net: i for i, net in enumerate(circuit.nets)}
        assert list(resolved) == sorted(resolved, key=order.__getitem__)

    def test_resolve_unknown_net(self):
        with pytest.raises(SimulationError, match="not in circuit"):
            ProbeSpec(["nope"]).resolve(mux_with_hazard())


class TestFastPathIdentity:
    """Instrumented unit-delay paths vs. the history reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("word_width", [8, 64])
    @pytest.mark.parametrize(
        "make_sim",
        [
            lambda c, b, w: ParallelSimulator(
                c, backend=b, word_width=w, probes=True
            ),
            lambda c, b, w: ParallelSimulator(
                c, backend=b, word_width=w, optimization="trim",
                probes=True,
            ),
        ],
        ids=["parallel", "parallel-trim"],
    )
    def test_batched_identity(self, backend, word_width, make_sim):
        circuit = glitchy_circuit()
        vectors = vectors_for(circuit, 37, seed=8)
        ref = reference(circuit, vectors)
        sim = make_sim(circuit, backend, word_width)
        sim.reset([0] * len(circuit.inputs))
        # Uneven chunks: counters must accumulate across batches.
        for start in (0, 5, 18):
            end = {0: 5, 5: 18, 18: len(vectors)}[start]
            sim.apply_vectors([list(v) for v in vectors[start:end]])
        report = sim.activity_report()
        assert report.vectors == len(vectors)
        assert report.toggles == ref.toggles
        assert report.functional == ref.functional

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("facade", [ParallelSimulator, LCCSimulator],
                             ids=lambda facade: facade.__name__)
    def test_prepare_batch_refused_under_probes(self, backend, facade):
        # The counters count on apply_vector/apply_vectors only; the
        # refusal comes before the batch is marshalled or counted.
        circuit = glitchy_circuit()
        vectors = [list(v) for v in vectors_for(circuit, 40, seed=9)]
        sim = facade(circuit, backend=backend, word_width=16, probes=True)
        sim.reset([0] * len(circuit.inputs))
        with pytest.raises(SimulationError, match="apply_vectors"):
            sim.prepare_batch(vectors)
        assert sim.counters.vectors == 0
        sim.apply_vectors(vectors)
        assert sim.activity_report().vectors == len(vectors)

    def test_small_width_chunking_never_wraps(self):
        # w8 leaves tiny per-counter headroom; long batches must drain
        # mid-flight and still sum exactly.
        circuit = glitchy_circuit()
        vectors = [list(v) for v in vectors_for(circuit, 300, seed=10)]
        ref = reference(circuit, vectors)
        sim = ParallelSimulator(circuit, word_width=8, probes=True)
        assert sim.probe_runtime.chunk < len(vectors)
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors(vectors)
        assert sim.activity_report().toggles == ref.toggles

    def test_subset_probes_count_only_those_nets(self):
        circuit = mux_with_hazard()
        vectors = vectors_for(circuit, 25, seed=11)
        ref = reference(circuit, vectors)
        sim = ParallelSimulator(circuit, probes=["OUT", "SN"])
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors([list(v) for v in vectors])
        report = sim.activity_report()
        assert set(report.toggles) == {"OUT", "SN"}
        assert report.toggles["OUT"] == ref.toggles["OUT"]
        assert report.toggles["SN"] == ref.toggles["SN"]

    def test_non_zero_initial_state(self):
        circuit = glitchy_circuit()
        initial = [1, 0, 1, 1]
        vectors = vectors_for(circuit, 21, seed=12)
        ref = reference(circuit, vectors, initial=initial)
        sim = ParallelSimulator(circuit, probes=True)
        sim.reset(list(initial))
        sim.apply_vectors([list(v) for v in vectors])
        assert sim.activity_report().toggles == ref.toggles


class TestLCCProbes:
    """Zero-delay counters: functional transitions + PI tracking."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("word_width", [8, 64])
    @pytest.mark.parametrize("packed", [True, False])
    def test_packed_and_scalar_identity(
        self, backend, word_width, packed
    ):
        circuit = glitchy_circuit()
        vectors = [list(v) for v in vectors_for(circuit, 45, seed=13)]
        want = lcc_reference(circuit, vectors)
        sim = LCCSimulator(
            circuit, backend=backend, word_width=word_width,
            packed=packed, probes=True,
        )
        sim.probe_reset()
        sim.apply_vectors(vectors)
        report = sim.activity_report()
        assert report.vectors == len(vectors)
        assert report.toggles == want
        # Zero delay: every transition is functional by construction.
        assert report.functional == report.toggles

    def test_probe_reset_seeds_previous_values(self):
        circuit = glitchy_circuit()
        seed_vector = [1, 1, 0, 1]
        vectors = [list(v) for v in vectors_for(circuit, 15, seed=14)]
        want = lcc_reference(circuit, vectors, initial=seed_vector)
        sim = LCCSimulator(circuit, probes=True)
        sim.probe_reset(seed_vector)
        sim.apply_vectors(vectors)
        assert sim.activity_report().toggles == want


class TestCaptureTrace:
    def test_streams_histories_to_vcd(self):
        circuit = mux_with_hazard()
        vectors = vectors_for(circuit, 9, seed=17)
        sim = ParallelSimulator(
            circuit,
            probes=ProbeSpec(trace_nets=["OUT", "SN"]),
        )
        sim.reset([0] * len(circuit.inputs))
        stream = io.StringIO()
        depth = levelize(circuit).depth
        writer = VCDWriter(depth, ["OUT", "SN"], stream=stream)
        sim.capture_trace([list(v) for v in vectors], writer)
        writer.finalize()
        text = stream.getvalue()
        assert writer.num_vectors == len(vectors)
        assert "OUT" in text and "SN" in text
        assert "$enddefinitions" in text
        # Only the requested nets are declared.
        assert " P " not in text and " Q " not in text

    def test_trace_defaults_to_all_nets(self):
        circuit = mux_with_hazard()
        sim = ParallelSimulator(circuit, probes=True)
        sim.reset([0] * len(circuit.inputs))
        stream = io.StringIO()
        writer = VCDWriter(
            levelize(circuit).depth, list(circuit.nets), stream=stream
        )
        sim.capture_trace([[1, 0, 1]], writer)
        assert all(net in stream.getvalue() for net in circuit.nets)


class TestReplayVCD:
    def _tape(self, tmp_path, cycles=60):
        from repro.netlist.seqgen import binary_counter
        from repro.replay import Tape, write_tape
        from repro.seqsim import CompiledSequentialSimulator

        seq = binary_counter(4)
        sim = CompiledSequentialSimulator(seq)
        inputs = list(sim.sequential.external_inputs)
        rows = [[(c >> i) & 1 for i in range(len(inputs))]
                for c in range(cycles)]
        path = os.path.join(tmp_path, "stim.tape")
        write_tape(path, inputs, rows)
        return Tape(path)

    def _sim(self):
        from repro.netlist.seqgen import binary_counter
        from repro.seqsim import CompiledSequentialSimulator

        return CompiledSequentialSimulator(binary_counter(4))

    def test_resume_is_byte_identical(self, tmp_path):
        from repro.replay import load_checkpoint, replay_tape

        tape = self._tape(tmp_path)
        full_vcd = os.path.join(tmp_path, "full.vcd")
        full = replay_tape(
            self._sim(), tape, chunk_cycles=25, vcd_path=full_vcd
        )
        assert full.vcd_path == full_vcd
        full_text = Path(full_vcd).read_text()
        assert full_text.startswith("$date")
        # Closing marker only at end of tape.
        assert full_text.rstrip().endswith("#120")

        cpdir = os.path.join(tmp_path, "cp")
        seg_vcd = os.path.join(tmp_path, "seg.vcd")
        first = replay_tape(
            self._sim(), tape, chunk_cycles=25, checkpoint_every=24,
            checkpoint_dir=cpdir, limit=24, vcd_path=seg_vcd,
        )
        cp = load_checkpoint(first.checkpoints[0])
        assert cp.vcd is not None and cp.vcd["num_vectors"] == 24
        resumed = replay_tape(
            self._sim(), tape, chunk_cycles=25,
            resume_from=first.checkpoints[0], vcd_path=seg_vcd,
        )
        assert resumed.cycle == tape.cycles
        assert Path(seg_vcd).read_text() == full_text

    def test_interrupted_segment_left_open(self, tmp_path):
        from repro.replay import replay_tape

        tape = self._tape(tmp_path)
        vcd = os.path.join(tmp_path, "open.vcd")
        replay_tape(self._sim(), tape, limit=20, vcd_path=vcd)
        # No closing time marker: a resumed run appends.
        assert not Path(vcd).read_text().rstrip().endswith("#120")

    def test_subset_nets(self, tmp_path):
        from repro.replay import replay_tape

        tape = self._tape(tmp_path)
        sim = self._sim()
        outputs = list(sim.sequential.external_outputs)
        vcd = os.path.join(tmp_path, "sub.vcd")
        replay_tape(sim, tape, vcd_path=vcd, vcd_nets=outputs[:2])
        text = Path(vcd).read_text()
        assert outputs[0] in text
        assert outputs[2] not in text

    def test_error_paths(self, tmp_path):
        from repro.replay import replay_tape

        tape = self._tape(tmp_path)
        with pytest.raises(
            SimulationError, match="external outputs only"
        ):
            replay_tape(
                self._sim(), tape,
                vcd_path=os.path.join(tmp_path, "x.vcd"),
                vcd_nets=["nope"],
            )
        with pytest.raises(SimulationError, match="requires vcd_path"):
            replay_tape(self._sim(), tape, vcd_nets=["B0"])

    def test_resume_needs_writer_state(self, tmp_path):
        from repro.replay import replay_tape

        tape = self._tape(tmp_path)
        cpdir = os.path.join(tmp_path, "cp")
        bare = replay_tape(
            self._sim(), tape, checkpoint_every=24,
            checkpoint_dir=cpdir, limit=24,
        )
        with pytest.raises(
            SimulationError, match="no waveform writer state"
        ):
            replay_tape(
                self._sim(), tape, resume_from=bare.checkpoints[0],
                vcd_path=os.path.join(tmp_path, "y.vcd"),
            )
        # ...but a vcd-less resume of a vcd-less checkpoint is fine,
        # and checkpoints written before waveform streaming existed
        # (no "vcd" key at all) still load.
        payload = json.loads(Path(bare.checkpoints[0]).read_text())
        del payload["vcd"]
        legacy = os.path.join(tmp_path, "legacy.json")
        Path(legacy).write_text(json.dumps(payload))
        result = replay_tape(self._sim(), tape, resume_from=legacy)
        assert result.cycle == tape.cycles


class TestErrors:
    def test_collect_activity_rejects_historyless_engine(self):
        circuit = mux_with_hazard()
        sim = LCCSimulator(circuit)
        with pytest.raises(SimulationError) as err:
            collect_activity(sim, vectors_for(circuit, 4, seed=18))
        message = str(err.value)
        assert "LCCSimulator" in message
        assert "records no per-vector settling histories" in message
        assert "probes=" in message

    def test_activity_report_requires_probes(self):
        sim = PCSetSimulator(mux_with_hazard())
        sim.reset([0, 0, 0])
        with pytest.raises(SimulationError, match="without probes="):
            sim.activity_report()

    def test_parallel_pathtrace_probes_unavailable(self):
        with pytest.raises(
            SimulationError, match="time-aligned field layout"
        ):
            ParallelSimulator(
                glitchy_circuit(), optimization="pathtrace",
                probes=True,
            )

    def test_unknown_probe_nets_rejected(self):
        with pytest.raises(SimulationError, match="not in circuit"):
            ParallelSimulator(mux_with_hazard(), probes=["ghost"])


class TestCacheFingerprint:
    def test_probe_spec_participates(self):
        # The cache key is the source hash: probe statements are part
        # of the source, so plain, all-nets and subset programs are
        # three entries, while requests lowering to the same
        # statements share one.
        circuit = mux_with_hazard()
        clear_program_cache()
        ParallelSimulator(circuit)
        ParallelSimulator(circuit, probes=True)
        ParallelSimulator(circuit, probes=["OUT"])
        assert program_cache().stats() == {
            "entries": 3, "hits": 0, "misses": 3,
        }
        ParallelSimulator(circuit, probes=list(circuit.nets))
        ParallelSimulator(circuit, probes=ProbeSpec(trace_nets=["OUT"]))
        assert program_cache().stats() == {
            "entries": 3, "hits": 2, "misses": 3,
        }


class TestCLI:
    def test_activity_probes_matches_history_table(self, capsys):
        from repro.cli import main

        def rows(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            # Strip the title line (it differs: "compiled-in probes").
            return [
                line for line in out.splitlines()[1:] if line.strip()
            ]

        base = ["activity", "rca3", "-n", "40", "--seed", "7",
                "-t", "parallel"]
        assert rows(base + ["--probes"]) == rows(base)

    def test_activity_zero_lcc_needs_probes(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--probes"):
            main(["activity", "rca2", "-t", "zero-lcc", "-n", "4"])

    def test_activity_probes_needs_capable_technique(self, capsys):
        # A usage error: argparse's prefix and exit status, naming the
        # techniques that take probes.
        from repro.cli import main

        for technique in ("interp2", "pcset"):
            assert main([
                "activity", "rca2", "-t", technique, "-n", "4",
                "--probes",
            ]) == 2
            err = capsys.readouterr().err
            assert "probe-capable" in err
            assert "(parallel, parallel-trim, zero-lcc)" in err
            assert f"not {technique!r}" in err

    def test_replay_vcd_flag(self, tmp_path, capsys):
        from repro.cli import main

        tape = str(tmp_path / "stim.tape")
        assert main(
            ["tape", "counter4", "-n", "30", "-o", tape]
        ) == 0
        capsys.readouterr()
        vcd = str(tmp_path / "out.vcd")
        assert main([
            "replay", "counter4", "--tape", tape, "--vcd", vcd,
            "--probe-nets", "B0,B1",
        ]) == 0
        out = capsys.readouterr().out
        assert "waveform:" in out
        text = Path(vcd).read_text()
        assert "B0" in text and "B2" not in text


class TestPCSetHasNoProbes:
    def test_probes_keyword_is_gone(self):
        circuit = mux_with_hazard()
        with pytest.raises(TypeError, match="probes"):
            PCSetSimulator(circuit, probes=True)
        with pytest.raises(TypeError, match="probes"):
            build_simulator(circuit, "pcset", probes=True)
        assert not hasattr(PCSetSimulator, "settled_outputs")
        assert not hasattr(probes_module, "instrument_pcset_program")


_PART = re.compile(
    r"static NOINLINE void step_\d+\(struct state \*restrict S,"
    r" const word \*V\) \{\n(.*?)\n\}\n",
    re.S,
)


def _part_sizes(program):
    """Assignments per ``step_<i>`` part of the rendered C source."""
    return [
        sum(" = " in line and not line.lstrip().startswith("word ")
            for line in body.split("\n"))
        for body in _PART.findall(program.c_source())
    ]


class TestProbedStepParts:
    """A probed program is cut into ``step`` parts like a plain one: a
    lowering that kept a temporary live across the pass would render
    one monolithic part, and compile for minutes on a large circuit."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: LCCSimulator(c, probes=True).program,
            lambda c: ParallelSimulator(c, probes=True).program,
            lambda c: ParallelSimulator(
                c, optimization="trim", probes=True
            ).program,
            lambda c: ParallelFaultSimulator(c)._instrumented_program(),
        ],
        ids=["lcc", "parallel", "parallel-trim", "fault"],
    )
    def test_probed_program_renders_in_parts(self, build):
        circuit = random_dag_circuit(93, num_inputs=6, num_gates=90)
        program = build(circuit)
        assigns = sum(
            isinstance(stmt, Assign) for stmt in program.init + program.body
        )
        assert assigns > 2 * STEP_PART_SIZE
        sizes = _part_sizes(program)
        assert len(sizes) >= assigns // (2 * STEP_PART_SIZE)
        assert max(sizes) <= 2 * STEP_PART_SIZE


class TestProbedGradingSkipsPCSet:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_activity_without_the_pcset_program(self, backend, monkeypatch):
        from repro.faults.simulator import (
            run_fault_simulation,
            serial_fault_simulation,
        )
        from repro.pcset import codegen as pcset_codegen
        from repro.pcset import simulator as pcset_simulator

        def refuse(*args, **kwargs):
            raise AssertionError("the PC-set program was generated")

        for module in (pcset_codegen, pcset_simulator):
            monkeypatch.setattr(module, "generate_pcset_program", refuse)
        circuit = glitchy_circuit()
        vectors = [list(v) for v in vectors_for(circuit, 23, seed=19)]
        report = run_fault_simulation(
            circuit, vectors, backend=backend, word_width=16,
        )
        assert report == serial_fault_simulation(circuit, vectors)
        # Fault-free activity is one probed, trimmed parallel simulator
        # away, and that one skips the PC-set program too.
        sim = ParallelSimulator(
            circuit, optimization="trim", backend=backend, word_width=16,
            probes=True,
        )
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors(vectors)
        assert vars(sim.activity_report()) == vars(
            reference(circuit, vectors)
        )
