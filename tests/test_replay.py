"""Tests for stimulus tapes, replay and checkpoints."""

import filecmp
import json
from pathlib import Path

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.errors import SimulationError
from repro.netlist.seqgen import binary_counter, lfsr, shift_register
from repro.replay import (
    ReplayCheckpoint,
    Tape,
    TapeError,
    fold_outputs,
    load_checkpoint,
    random_tape,
    replay_tape,
    write_tape,
)
from repro.seqsim import CompiledSequentialSimulator

BACKENDS = ["python"] + (["c"] if have_c_compiler() else [])
NEED_CC = pytest.mark.skipif(not have_c_compiler(), reason="no C compiler")


class TestTape:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "t.tape")
        rows = [[1, 0], [0, 1], [1, 1], [0, 0]]
        assert write_tape(path, ["A", "B"], rows) == 4
        tape = Tape(path)
        assert tape.inputs == ["A", "B"]
        assert tape.cycles == 4
        assert tape.read(0, 4) == rows

    def test_mapping_rows(self, tmp_path):
        path = str(tmp_path / "t.tape")
        write_tape(path, ["A", "B"], [{"B": 1, "A": 0}, {"A": 1, "B": 0}])
        assert Tape(path).read(0, 2) == [[0, 1], [1, 0]]

    def test_seek_mid_tape(self, tmp_path):
        path = str(tmp_path / "t.tape")
        rows = [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(50)]
        write_tape(path, ["A", "B", "C"], rows)
        tape = Tape(path)
        assert tape.read(17, 5) == rows[17:22]
        assert tape.read(49, 1) == rows[49:]
        assert tape.read(0, 1) == rows[:1]

    def test_chunks_cover_tape_exactly(self, tmp_path):
        path = str(tmp_path / "t.tape")
        rows = [[i & 1] for i in range(10)]
        write_tape(path, ["A"], rows)
        tape = Tape(path)
        seen = []
        starts = []
        for start, vectors in tape.chunks(3):
            starts.append(start)
            seen.extend(vectors)
        assert starts == [0, 3, 6, 9]
        assert seen == rows

    def test_random_tape_deterministic(self, tmp_path):
        a = random_tape(str(tmp_path / "a.tape"), ["X", "Y"], 64, seed=7)
        b = random_tape(str(tmp_path / "b.tape"), ["X", "Y"], 64, seed=7)
        c = random_tape(str(tmp_path / "c.tape"), ["X", "Y"], 64, seed=8)
        assert a.read(0, 64) == b.read(0, 64)
        assert a.read(0, 64) != c.read(0, 64)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_text("#not-a-tape\n#inputs A\n0\n")
        with pytest.raises(TapeError, match="not a stimulus tape"):
            Tape(str(path))

    def test_missing_inputs_header(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_text("#repro-tape v1\n0\n")
        with pytest.raises(TapeError, match="#inputs"):
            Tape(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_text("#repro-tape v1\n#inputs A,B\n10\n0")
        with pytest.raises(TapeError, match="truncated"):
            Tape(str(path))

    def test_bad_character(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_text("#repro-tape v1\n#inputs A,B\n10\n2x\n")
        tape = Tape(str(path))
        with pytest.raises(TapeError, match="bad character"):
            tape.read(0, 2)

    def test_broken_line_terminator(self, tmp_path):
        # Four 4-byte lines, so the size check passes, but the second
        # line's terminator column holds a digit.
        path = tmp_path / "bad.tape"
        path.write_text("#repro-tape v1\n#inputs A,B,C\n010\n0101101\n111\n")
        tape = Tape(str(path))
        assert tape.cycles == 4
        with pytest.raises(TapeError, match="cycle 1 does not end in a"):
            tape.read(0, 4)
        with pytest.raises(TapeError, match="cycle 1 does not end"):
            tape.read_bits(1, 2)
        assert tape.read(0, 1) == [[0, 1, 0]]
        assert tape.read_bits(3, 1) == b"\x01\x01\x01"

    def test_newline_in_data_column(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_text("#repro-tape v1\n#inputs A,B\n10\n\n1\n")
        with pytest.raises(TapeError, match=r"character '\\n' at cycle 1"):
            Tape(str(path)).read(0, 2)

    def test_read_bits_matches_read(self, tmp_path):
        path = str(tmp_path / "t.tape")
        rows = [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(20)]
        write_tape(path, ["A", "B", "C"], rows)
        tape = Tape(path)
        assert tape.read_bits(5, 4) == bytes(sum(rows[5:9], []))
        assert tape.read_bits(20, 0) == b""
        empty = str(tmp_path / "empty.tape")
        write_tape(empty, [], [[]] * 3)
        assert Tape(empty).read_bits(0, 3) == b""
        assert Tape(empty).read(0, 3) == [[], [], []]

    def test_out_of_range_read(self, tmp_path):
        path = str(tmp_path / "t.tape")
        write_tape(path, ["A"], [[0], [1]])
        with pytest.raises(TapeError, match="out of range"):
            Tape(path).read(1, 2)

    def test_write_rejects_non_bits(self, tmp_path):
        path = str(tmp_path / "t.tape")
        with pytest.raises(TapeError, match="must be 0 or 1"):
            write_tape(path, ["A"], [[2]])
        with pytest.raises(TapeError, match="missing input"):
            write_tape(path, ["A", "B"], [{"A": 1}])


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        cp = ReplayCheckpoint(
            cycle=42,
            state={"Q0": 1, "Q1": 0},
            checksum=0xDEADBEEF,
            toggles={"O0": 7},
            prev_outputs={"O0": 1},
            tape_inputs=["EN"],
            tape_cycles=100,
            circuit="counter",
            engine="lcc",
        )
        path = cp.save(str(tmp_path / "cp.json"))
        loaded = load_checkpoint(path)
        assert loaded.as_dict() == cp.as_dict()

    def test_crash_mid_write_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import repro.replay.checkpoint as checkpoint_module

        path = str(tmp_path / "cp.json")
        ReplayCheckpoint(cycle=7, state={"Q0": 1}).save(path)

        def dump_then_crash(obj, handle, **kwargs):
            handle.write('{"format": "repro-replay-')
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_module.json, "dump", dump_then_crash)
        with pytest.raises(OSError, match="disk full"):
            ReplayCheckpoint(cycle=9, state={"Q0": 0}).save(path)
        monkeypatch.undo()
        assert load_checkpoint(path).cycle == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.json"]

    def test_state_masked(self):
        cp = ReplayCheckpoint(cycle=0, state={"Q0": 3, "Q1": -1})
        assert cp.state == {"Q0": 1, "Q1": 1}

    def test_format_guards(self, tmp_path):
        with pytest.raises(SimulationError, match="not a replay"):
            ReplayCheckpoint.from_dict({"format": "something-else"})
        with pytest.raises(SimulationError, match="version"):
            ReplayCheckpoint.from_dict(
                {"format": "repro-replay-checkpoint", "version": 99}
            )
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(SimulationError):
            load_checkpoint(str(path))


class TestFoldOutputs:
    def test_order_sensitive(self):
        a = fold_outputs(fold_outputs(0, [1, 0]), [0, 1])
        b = fold_outputs(fold_outputs(0, [0, 1]), [1, 0])
        assert a != b

    def test_stays_64_bit(self):
        checksum = 0
        for _ in range(200):
            checksum = fold_outputs(checksum, [1, 1, 0, 1])
        assert 0 <= checksum < (1 << 64)

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 128, 1000])
    def test_chunk_fold_matches_bitwise_fold(self, length):
        import random

        from repro.replay.harness import _fold_digits

        rng = random.Random(length)
        for start in (0, 1, (1 << 64) - 1, rng.getrandbits(64)):
            bits = [rng.randint(0, 1) for _ in range(length)]
            digits = "".join(map(str, bits)).encode()
            assert _fold_digits(start, digits) == fold_outputs(start, bits)


#: Clocked circuits at the edges of the byte boundary.  ``no_inputs``
#: is a two-stage Johnson counter whose second flip-flop's D pin is the
#: first one's Q, so it only counts right when both update together.
EDGE_CIRCUITS = {
    "no_flipflops": (
        "INPUT(A)\nINPUT(B)\nOUTPUT(X)\nOUTPUT(Y)\n"
        "X = NAND(A, B)\nY = XOR(A, B)\n"
    ),
    "no_inputs": (
        "OUTPUT(O0)\nOUTPUT(Q1)\nQ0 = DFF(D0)\nQ1 = DFF(Q0)\n"
        "D0 = NOT(Q1)\nO0 = BUF(Q0)\n"
    ),
    "no_outputs": "INPUT(EN)\nQ0 = DFF(D0)\nD0 = XOR(Q0, EN)\n",
    "d_pin_output": (
        "INPUT(EN)\nOUTPUT(D0)\nOUTPUT(Q0)\nQ0 = DFF(D0)\n"
        "D0 = XOR(Q0, EN)\n"
    ),
}


def _reference_replay(seq, tape):
    """Checksum, toggles and output lines by the interpreted engine."""
    from repro.eventsim.zerodelay import ZeroDelaySimulator

    reference = ZeroDelaySimulator(seq.core)
    outputs = seq.external_outputs
    state = seq.initial_state()
    checksum, toggles, lines, previous = 0, dict.fromkeys(outputs, 0), [], None
    for row in tape.read(0, tape.cycles):
        state, values = seq.step(
            reference.evaluate, state, dict(zip(seq.external_inputs, row))
        )
        bits = [values[o] for o in outputs]
        checksum = fold_outputs(checksum, bits)
        if previous is not None:
            for o, bit, before in zip(outputs, bits, previous):
                toggles[o] += bit != before
        previous = bits
        lines.append("".join(map(str, bits)))
    return checksum, toggles, lines


def _replay_setup(tmp_path, *, bits=4, cycles=400, seed=11):
    seq = binary_counter(bits)
    tape = random_tape(
        str(tmp_path / "stim.tape"), seq.external_inputs, cycles,
        seed=seed,
    )
    return seq, tape


class TestReplay:
    @pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
    def test_matches_manual_step_loop(self, tmp_path, engine):
        seq, tape = _replay_setup(tmp_path, cycles=60)
        manual = CompiledSequentialSimulator(
            binary_counter(4), engine=engine
        )
        outputs = list(seq.external_outputs)
        checksum = 0
        toggles = {o: 0 for o in outputs}
        prev = None
        for row in tape.read(0, tape.cycles):
            out = manual.step(row)
            checksum = fold_outputs(checksum, [out[o] for o in outputs])
            if prev is not None:
                for o in outputs:
                    toggles[o] += int(out[o] != prev[o])
            prev = out
        sim = CompiledSequentialSimulator(seq, engine=engine)
        result = replay_tape(sim, tape, chunk_cycles=17)
        assert result.cycles == result.cycle == 60
        assert result.checksum == checksum
        assert result.toggles == toggles

    def test_engines_agree_on_shared_tape(self, tmp_path):
        _, tape = _replay_setup(tmp_path, cycles=150)
        results = {}
        for engine in ("lcc", "parallel", "pcset"):
            sim = CompiledSequentialSimulator(
                binary_counter(4), engine=engine
            )
            results[engine] = replay_tape(sim, tape, chunk_cycles=64)
        checksums = {r.checksum for r in results.values()}
        toggle_sets = [r.toggles for r in results.values()]
        assert len(checksums) == 1
        assert toggle_sets[0] == toggle_sets[1] == toggle_sets[2]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
    def test_checkpoint_restore_bit_identical(
        self, tmp_path, engine, backend
    ):
        seq, tape = _replay_setup(tmp_path, cycles=120)
        full_out = str(tmp_path / f"full_{engine}_{backend}.out")
        full = replay_tape(
            CompiledSequentialSimulator(
                binary_counter(4), engine=engine, backend=backend
            ),
            tape, chunk_cycles=50, outputs_path=full_out,
        )
        cpdir = tmp_path / f"cp_{engine}_{backend}"
        cpdir.mkdir()
        head_out = str(tmp_path / f"head_{engine}_{backend}.out")
        first = replay_tape(
            CompiledSequentialSimulator(
                binary_counter(4), engine=engine, backend=backend
            ),
            tape, chunk_cycles=50, checkpoint_every=48,
            checkpoint_dir=str(cpdir), limit=70, outputs_path=head_out,
        )
        assert first.cycle == 70
        assert len(first.checkpoints) == 1
        # A *fresh* simulator resumes from the mid-stream checkpoint and
        # must reproduce both the remaining cycles and the summary.
        tail_out = str(tmp_path / f"tail_{engine}_{backend}.out")
        resumed = replay_tape(
            CompiledSequentialSimulator(
                binary_counter(4), engine=engine, backend=backend
            ),
            tape, chunk_cycles=50, resume_from=first.checkpoints[0],
            outputs_path=tail_out,
        )
        assert resumed.resumed_from == 48
        assert resumed.cycle == 120
        assert resumed.checksum == full.checksum
        assert resumed.toggles == full.toggles

        # The output streams agree too: the head's cycles up to the
        # checkpoint plus the resumed tail are the full run's stream
        # (tape-format files: the first two lines are the header).
        def body(path):
            with open(path) as handle:
                return handle.read().splitlines()[2:]

        assert body(head_out)[:48] + body(tail_out) == body(full_out)

    def test_resumed_output_segments_concatenate(self, tmp_path):
        seq, tape = _replay_setup(tmp_path, cycles=90)
        full_out = str(tmp_path / "full.out")
        replay_tape(
            CompiledSequentialSimulator(binary_counter(4)),
            tape, outputs_path=full_out,
        )
        cpdir = tmp_path / "cp"
        cpdir.mkdir()
        head_out = str(tmp_path / "head.out")
        head = replay_tape(
            CompiledSequentialSimulator(binary_counter(4)),
            tape, checkpoint_every=30, checkpoint_dir=str(cpdir),
            limit=30, outputs_path=head_out,
        )
        tail_out = str(tmp_path / "tail.out")
        replay_tape(
            CompiledSequentialSimulator(binary_counter(4)),
            tape, resume_from=head.checkpoints[0],
            outputs_path=tail_out,
        )
        # Output streams are tape-format files: strip the two header
        # lines and the segments must concatenate to the full stream.
        def body(p):
            return Path(p).read_text().splitlines()[2:]

        assert body(head_out) + body(tail_out) == body(full_out)

    def test_identical_runs_byte_compare(self, tmp_path):
        _, tape = _replay_setup(tmp_path, cycles=80)
        a = str(tmp_path / "a.out")
        b = str(tmp_path / "b.out")
        replay_tape(
            CompiledSequentialSimulator(binary_counter(4)),
            tape, outputs_path=a, chunk_cycles=7,
        )
        replay_tape(
            CompiledSequentialSimulator(
                binary_counter(4), engine="parallel"
            ),
            tape, outputs_path=b, chunk_cycles=64,
        )
        assert filecmp.cmp(a, b, shallow=False)

    @pytest.mark.parametrize("options", [
        {"backend": "c"},
        {"partitions": 1},
        {"word_width": 8},
        {"engine": "pcset", "backend": "c"},
        {"engine": "parallel"},
        {"engine": "pcset"},
    ])
    def test_option_threading_bit_identical(self, tmp_path, options):
        _, tape = _replay_setup(tmp_path, cycles=64)
        base = replay_tape(
            CompiledSequentialSimulator(binary_counter(4)), tape
        )
        tuned = replay_tape(
            CompiledSequentialSimulator(binary_counter(4), **options),
            tape,
        )
        assert tuned.checksum == base.checksum
        assert tuned.toggles == base.toggles

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
    @pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
    def test_edge_circuits_match_reference(
        self, tmp_path, name, engine, backend
    ):
        from repro.netlist.bench import parse_bench_sequential

        seq = parse_bench_sequential(EDGE_CIRCUITS[name], name)
        tape = random_tape(
            str(tmp_path / "stim.tape"), seq.external_inputs, 150, seed=5
        )
        checksum, toggles, lines = _reference_replay(seq, tape)
        vcds = set()
        for chunk in (1, 7, 64, 100):
            out = tmp_path / f"out{chunk}.tape"
            vcd = tmp_path / f"out{chunk}.vcd"
            traced = dict(vcd_path=str(vcd)) if seq.external_outputs else {}
            result = replay_tape(
                CompiledSequentialSimulator(
                    seq, engine=engine, backend=backend
                ),
                tape, chunk_cycles=chunk, outputs_path=str(out), **traced,
            )
            assert result.cycles == 150
            assert result.checksum == checksum
            assert result.toggles == toggles
            assert out.read_text().splitlines()[2:] == lines
            if traced:
                vcds.add(vcd.read_text())
            # Checkpoint mid-chunk, resume in a fresh simulator.
            cpdir = tmp_path / f"cp{chunk}"
            head = replay_tape(
                CompiledSequentialSimulator(
                    seq, engine=engine, backend=backend
                ),
                tape, chunk_cycles=chunk, checkpoint_every=48,
                checkpoint_dir=str(cpdir), limit=110,
            )
            resumed = replay_tape(
                CompiledSequentialSimulator(
                    seq, engine=engine, backend=backend
                ),
                tape, chunk_cycles=chunk, resume_from=head.checkpoints[-1],
            )
            assert head.checkpoints[-1].endswith("000000000096.json")
            assert resumed.checksum == checksum
            assert resumed.toggles == toggles
        assert len(vcds) <= 1

    def test_lfsr_and_shiftreg_generators(self, tmp_path):
        for seq in (lfsr(5), shift_register(6)):
            tape = random_tape(
                str(tmp_path / f"{seq.core.name}.tape"),
                seq.external_inputs, 40, seed=3,
            )
            results = [
                replay_tape(
                    CompiledSequentialSimulator(seq, engine=e), tape
                ).checksum
                for e in ("lcc", "parallel")
            ]
            assert results[0] == results[1]

    def test_guards(self, tmp_path):
        seq, tape = _replay_setup(tmp_path, cycles=10)
        sim = CompiledSequentialSimulator(binary_counter(4))
        with pytest.raises(SimulationError, match="checkpoint_dir"):
            replay_tape(sim, tape, checkpoint_every=5)
        with pytest.raises(SimulationError, match="chunk_cycles"):
            replay_tape(sim, tape, chunk_cycles=0)
        with pytest.raises(SimulationError, match="limit"):
            replay_tape(sim, tape, limit=-5)
        other = random_tape(
            str(tmp_path / "other.tape"), ["X", "Y"], 10
        )
        with pytest.raises(SimulationError, match="do not match"):
            replay_tape(sim, other)
        # Checkpoint beyond the tape, or for a different tape: refused.
        cp = ReplayCheckpoint(
            cycle=99, state=seq.initial_state(), tape_inputs=["EN"]
        )
        with pytest.raises(SimulationError, match="beyond the tape"):
            replay_tape(sim, tape, resume_from=cp)
        cp = ReplayCheckpoint(
            cycle=2, state=seq.initial_state(), tape_inputs=["ZZ"]
        )
        with pytest.raises(SimulationError, match="different"):
            replay_tape(sim, tape, resume_from=cp)

    def test_on_chunk_and_limit(self, tmp_path):
        _, tape = _replay_setup(tmp_path, cycles=100)
        sim = CompiledSequentialSimulator(binary_counter(4))
        seen = []
        result = replay_tape(
            sim, tape, chunk_cycles=16, limit=40,
            on_chunk=lambda cycle, total: seen.append((cycle, total)),
        )
        assert result.cycles == 40
        assert seen == [(16, 40), (32, 40), (40, 40)]

    def test_replay_telemetry(self, tmp_path):
        from repro import telemetry

        _, tape = _replay_setup(tmp_path, cycles=60)
        telemetry.enable(reset_state=True)
        try:
            cpdir = tmp_path / "cp"
            cpdir.mkdir()
            first = replay_tape(
                CompiledSequentialSimulator(binary_counter(4)),
                tape, checkpoint_every=20, checkpoint_dir=str(cpdir),
                limit=40,
            )
            replay_tape(
                CompiledSequentialSimulator(binary_counter(4)),
                tape, resume_from=first.checkpoints[-1],
            )
            snap = telemetry.snapshot()
            assert snap["counters"]["seq.checkpoints"] == 2
            assert snap["counters"]["seq.restores"] == 1
            assert snap["seq"]["checkpoints"] == 2
            assert snap["seq"]["restores"] == 1
            assert any("seq.replay" in name for name in snap["phases"])
        finally:
            telemetry.disable()
            telemetry.reset()


def _wide_sequential(outputs: int, inputs: int):
    """A clocked circuit with many more outputs than inputs, so a replay
    chunk's output rows are its largest buffers."""
    from repro.netlist.bench import parse_bench_sequential

    lines = [f"INPUT(A{i})" for i in range(inputs)]
    lines += [f"OUTPUT(O{k})" for k in range(outputs)]
    for k in range(outputs):
        lines += [
            f"Q{k} = DFF(D{k})",
            f"D{k} = XOR(Q{k}, A{k % inputs})",
            f"O{k} = NAND(D{k}, Q{(7 * k + 1) % outputs})",
        ]
    return parse_bench_sequential("\n".join(lines) + "\n", "wide")


class _PythonFoldRan(Exception):
    pass


@NEED_CC
class TestCompiledFold:
    """``replay_tape`` folds on a clocked C machine through the library's
    ``fold_rows``; the Python reference serves everything else."""

    def test_c_replay_never_reaches_python_fold(self, tmp_path, monkeypatch):
        from repro.replay import harness

        seq, tape = _replay_setup(tmp_path, cycles=120)
        want = replay_tape(
            CompiledSequentialSimulator(seq), tape, chunk_cycles=50
        )

        def refuse(*args):
            raise _PythonFoldRan

        monkeypatch.setattr(harness, "_fold_rows", refuse)
        got = replay_tape(
            CompiledSequentialSimulator(seq, backend="c"), tape,
            chunk_cycles=50,
        )
        assert (got.checksum, got.toggles) == (want.checksum, want.toggles)
        for options in (
            {"backend": "python"},
            {"backend": "c", "engine": "parallel"},
            {"backend": "c", "engine": "pcset"},
        ):
            with pytest.raises(_PythonFoldRan):
                replay_tape(CompiledSequentialSimulator(seq, **options), tape)

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_c_replay_equals_python_replay(self, tmp_path, chunk):
        """The same outputs file, checksum and toggles on both backends:
        a whole tape, a ``limit``ed head that checkpoints at cycle 100
        (off the chunk grid), and the tail resumed from that checkpoint
        in a fresh simulator."""
        seq = _wide_sequential(outputs=23, inputs=3)
        tape = random_tape(
            str(tmp_path / "stim.tape"), seq.external_inputs, 300, seed=4
        )
        runs = {}
        for backend in ("python", "c"):
            def sim():
                return CompiledSequentialSimulator(seq, backend=backend)

            work = tmp_path / backend
            work.mkdir()
            full = replay_tape(
                sim(), tape, chunk_cycles=chunk,
                outputs_path=str(work / "full.out"),
            )
            head = replay_tape(
                sim(), tape, chunk_cycles=chunk, checkpoint_every=100,
                checkpoint_dir=str(work), limit=150,
                outputs_path=str(work / "head.out"),
            )
            assert head.cycle == 150
            assert head.checkpoints[-1].endswith("000000000100.json")
            tail = replay_tape(
                sim(), tape, chunk_cycles=chunk,
                resume_from=head.checkpoints[-1],
                outputs_path=str(work / "tail.out"),
            )
            assert (tail.checksum, tail.toggles) == (
                full.checksum, full.toggles
            )
            runs[backend] = [
                (run.checksum, run.toggles, (work / name).read_bytes())
                for run, name in (
                    (full, "full.out"), (head, "head.out"), (tail, "tail.out")
                )
            ]
        assert runs["c"] == runs["python"]
        assert len(set(runs["c"][0][1].values())) > 1

    @staticmethod
    def _warm_c_peak(tmp_path, **options):
        """Bytes a second C replay of 2048 cycles x 100 outputs, in
        chunks of 1024 cycles, allocates at its peak."""
        import tracemalloc

        seq = _wide_sequential(outputs=100, inputs=5)
        tape = random_tape(
            str(tmp_path / "stim.tape"), seq.external_inputs, 2048, seed=3
        )
        sim = CompiledSequentialSimulator(seq, backend="c")
        first = replay_tape(sim, tape, chunk_cycles=1024, **options)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            again = replay_tape(sim, tape, chunk_cycles=1024, **options)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (again.checksum, again.toggles) == (
            first.checksum, first.toggles
        )
        return peak - before

    def test_warm_c_replay_peak(self, tmp_path):
        """A warm C ``replay_tape`` peaks at about two chunks of output
        bytes: the narrowed new one and the slice it is cut from.  The
        last chunk's is freed before the next runs, and the Python
        fold's temporaries took eight."""
        assert self._warm_c_peak(tmp_path) < 3 * 1024 * 100

    def test_warm_c_replay_peak_with_outputs(self, tmp_path):
        """Writing the outputs adds one chunk's digits and its lines,
        made one after the other; both are freed before the next
        chunk runs."""
        peak = self._warm_c_peak(tmp_path,
                                 outputs_path=str(tmp_path / "run.out"))
        assert peak < 4 * 1024 * 100


class TestReplayCLI:
    def test_tape_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        tape = str(tmp_path / "cli.tape")
        assert main(["tape", "counter4", "-n", "200", "-o", tape]) == 0
        assert "200 cycles" in capsys.readouterr().out
        assert main(["replay", "counter4", "--tape", tape]) == 0
        out = capsys.readouterr().out
        assert "checksum" in out
        assert "cycles/s" in out

    def test_cli_resume_matches_full(self, tmp_path, capsys):
        from repro.cli import main

        tape = str(tmp_path / "cli.tape")
        main(["tape", "counter4", "-n", "100", "-o", tape])
        capsys.readouterr()
        full_out = str(tmp_path / "full.out")
        main(["replay", "counter4", "--tape", tape,
              "--outputs", full_out])
        full_text = capsys.readouterr().out
        cpdir = tmp_path / "cp"
        cpdir.mkdir()
        assert main([
            "replay", "counter4", "--tape", tape,
            "--checkpoint-every", "40", "--checkpoint-dir", str(cpdir),
            "--limit", "40",
        ]) == 0
        capsys.readouterr()
        cps = sorted(cpdir.glob("checkpoint_*.json"))
        assert len(cps) == 1
        assert main([
            "replay", "counter4", "--tape", tape,
            "--resume-from", str(cps[0]), "--coverage", "3",
        ]) == 0
        resumed_text = capsys.readouterr().out
        def checksum_line(text):
            return [l for l in text.splitlines() if "checksum" in l]
        assert checksum_line(resumed_text) == checksum_line(full_text)

    def test_cli_incremental_and_engines_agree(self, tmp_path, capsys):
        from repro.cli import main

        tape = str(tmp_path / "cli.tape")
        main(["tape", "lfsr5", "-n", "80", "-o", tape])
        capsys.readouterr()
        sums = []
        for extra in ([], ["-e", "parallel"], ["-e", "pcset"]):
            assert main(
                ["replay", "lfsr5", "--tape", tape] + extra
            ) == 0
            text = capsys.readouterr().out
            sums.append(
                [l for l in text.splitlines() if "checksum" in l]
            )
        assert sums[0] == sums[1] == sums[2]
