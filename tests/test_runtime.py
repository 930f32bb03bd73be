"""Tests for the execution backends (Machine protocol)."""

import gc
import inspect
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc

import pytest

import repro
from repro.codegen.program import Assign, Bin, Const, Emit, Input, Program, Var
from repro.codegen.runtime import (
    CMachine,
    PythonMachine,
    compile_program,
    have_c_compiler,
    program_cache,
    program_fingerprint,
)
from repro.errors import BackendError

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


def _counter_program(name: str = "counter") -> Program:
    """x' = x | V[0]; emits x."""
    p = Program(name, word_width=16, inputs=["IN"])
    p.declare("x", 0)
    p.body.append(Assign("x", Bin("|", Var("x"), Input(0))))
    p.output.append(Emit(Var("x"), ("x",)))
    return p


def _run_child(tmp_path, script: str) -> str:
    """Run ``script`` in a fresh interpreter whose temp dir is ``tmp_path``.

    The script can call :func:`_counter_program`; its stdout is
    returned.
    """
    preamble = (
        "from repro.codegen.program import Assign, Bin, Emit, Input, "
        "Program, Var\n" + inspect.getsource(_counter_program)
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", preamble + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestPythonMachine:
    def test_step_and_outputs(self):
        machine = PythonMachine(_counter_program())
        assert machine.step([0b01]) == [0b01]
        assert machine.step([0b10]) == [0b11]
        assert machine.num_inputs == 1
        assert machine.num_state == 1
        assert machine.output_labels() == [("x",)]

    def test_state_roundtrip(self):
        machine = PythonMachine(_counter_program())
        machine.step([7])
        assert machine.dump_state() == [7]
        machine.load_state([0x1FFFF])  # masked to 16 bits
        assert machine.dump_state() == [0xFFFF]
        assert machine.state_dict() == {"x": 0xFFFF}

    def test_load_state_length_checked(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="state has 1"):
            machine.load_state([1, 2])

    def test_source_attached(self):
        machine = PythonMachine(_counter_program())
        assert "def machine():" in machine.source

    def test_inputs_masked_to_word_width(self):
        # Oversized Python ints must behave like the C backend's
        # fixed-width words (ctypes truncates silently).
        machine = PythonMachine(_counter_program())
        assert machine.step([0x1_0002]) == [0x0002]

    def test_step_rejects_wrong_vector_length(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="expected 1"):
            machine.step([1, 2])

    def test_step_many_matches_step_loop(self):
        batched = PythonMachine(_counter_program())
        scalar = PythonMachine(_counter_program())
        vectors = [[1], [4], [2], [8]]
        expected = [scalar.step(v) for v in vectors]
        assert batched.step_many(vectors) == expected
        assert batched.dump_state() == scalar.dump_state()

    def test_run_block_flat_buffer_and_discard(self):
        machine = PythonMachine(_counter_program())
        out: list = []
        assert machine.run_block([[1], [2]], out) is out
        assert out == [1, 3]
        # out=None discards but still advances state.
        assert machine.run_block([[4]]) is None
        assert machine.dump_state() == [7]

    def test_counters_accumulate(self):
        machine = PythonMachine(_counter_program())
        assert machine.counters.batches == 0
        machine.step_many([[1], [2], [4]])
        machine.run_block([[8]])
        assert machine.counters.batches == 2
        assert machine.counters.vectors == 4
        assert machine.counters.seconds > 0
        assert machine.counters.vectors_per_second > 0
        machine.counters.reset()
        assert machine.counters.as_dict()["vectors"] == 0


@NEED_CC
class TestCMachine:
    def test_step_and_state(self):
        machine = CMachine(_counter_program())
        assert machine.step([5]) == [5]
        assert machine.dump_state() == [5]
        machine.load_state([0])
        assert machine.step([2]) == [2]

    def test_step_many(self):
        machine = CMachine(_counter_program())
        outs = machine.step_many([[1], [2], [4]])
        assert outs == [[1], [3], [7]]
        assert machine.dump_state() == [7]

    def test_run_block_collects_or_discards(self):
        machine = CMachine(_counter_program())
        out: list = []
        machine.run_block([[1], [2]], out)
        assert out == [1, 3]
        machine.run_block([[4]])  # discarded, state still advances
        assert machine.dump_state() == [7]
        assert machine.counters.vectors == 3

    def test_pack_block_rejects_ragged_vectors(self):
        # Regression: a short vector used to shift every later vector
        # into the wrong slot (pos ran backwards); a long one overran
        # into the next vector's words.
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError, match="vector 1"):
            machine.pack_block([[1], [1, 2]])
        with pytest.raises(BackendError, match="vector 0"):
            machine.pack_block([[], [1]])

    def test_compile_failure_reported(self, monkeypatch):
        program = _counter_program()
        # Sabotage the source through a bogus variable name that only
        # the C compiler rejects.
        program.state_vars.append("1bad")
        program.state_init["1bad"] = 0
        with pytest.raises(BackendError, match="compilation failed"):
            CMachine(program)

    def test_load_state_length_checked(self):
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError):
            machine.load_state([])

    def test_run_packed_checks_passes_and_output_buffer(self):
        """A pass count past the payload or an output buffer too small
        for the passes raises before the library reads or writes past
        either buffer."""
        import ctypes

        machine = CMachine(_counter_program())
        packed = machine.pack_block([[1], [2]])
        for count in (3, 10_000_000, -1):
            with pytest.raises(
                BackendError, match=f"{count} passes over a payload of 2"
            ):
                machine.run_packed(packed, count)
        with pytest.raises(BackendError, match="1 words is too small"):
            machine.run_packed(packed, 2, (ctypes.c_uint16 * 1)())
        assert machine.dump_state() == [0]
        assert machine.counters.vectors == 0
        out = (ctypes.c_uint16 * 2)()
        machine.run_packed(packed, 2, out)
        assert list(out) == [1, 3]
        machine.run_packed(packed, 1)
        assert machine.dump_state() == [3]


def _state_program(word_width: int) -> Program:
    """Four state words, each emitted as it was loaded."""
    p = Program("state", word_width=word_width, inputs=["IN"])
    for k in range(4):
        p.declare(f"s{k}", k)
        p.output.append(Emit(Var(f"s{k}"), (f"s{k}",)))
    return p


@pytest.mark.parametrize("width", (8, 16, 32, 64))
@pytest.mark.parametrize("machine_class", [PythonMachine] + (
    [CMachine] if have_c_compiler() else []
))
def test_load_state_masks_and_raises(machine_class, width):
    """Values that do not fit are cut to the word width, a sequence of
    any kind loads, and a value that is not an integer raises the
    ``TypeError`` of ``&`` and leaves the state as it was."""
    machine = machine_class(_state_program(width))
    mask = (1 << width) - 1
    for values in (
        [-1, 1 << width, (1 << width) + 5, True],
        (mask, 0, 7, -(1 << 70)),
        [3, 2, 1, 0],
    ):
        machine.load_state(values)
        assert machine.dump_state() == [value & mask for value in values]
        assert machine.step([0]) == [value & mask for value in values]
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError, match="unsupported operand"):
            machine.load_state([1, bad, 2, 3])
        assert machine.dump_state() == [3, 2, 1, 0]
    with pytest.raises(BackendError, match="state has 4 words, got 5"):
        machine.load_state([0] * 5)


def _toggle_program(
    inputs: int = 2, emits: bool = True, word_width: int = 32
) -> Program:
    """x' = x ^ V[0]; emits x, ~x (high bits set) and x & V[last]."""
    p = Program("toggle", word_width=word_width,
                inputs=[f"I{k}" for k in range(inputs)])
    p.declare("x", 0)
    if inputs:
        p.body.append(Assign("x", Bin("^", Var("x"), Input(0))))
    if emits:
        p.output.append(Emit(Var("x"), ("x",)))
        p.output.append(Emit(~Var("x"), ("nx",)))
        if inputs:
            p.output.append(
                Emit(Bin("&", Var("x"), Input(inputs - 1)), ("and",))
            )
    return p


MACHINES = [PythonMachine] + ([CMachine] if have_c_compiler() else [])


@pytest.mark.parametrize("machine_class", MACHINES)
class TestRunBitRows:
    def test_matches_step_many_bit_zero(self, machine_class):
        rows = [[1, 0], [1, 1], [0, 1], [1, 1], [0, 0]]
        bits = machine_class(_toggle_program())
        words = machine_class(_toggle_program())
        block = bytes(sum(rows, []))
        expected = [w & 1 for row in words.step_many(rows) for w in row]
        assert bits.run_bit_rows(block, len(rows)) == bytes(expected)
        assert bits.dump_state() == words.dump_state()
        assert bits.counters.vectors == len(rows)

    def test_no_inputs_and_no_outputs(self, machine_class):
        bare = machine_class(_toggle_program(inputs=0))
        assert bare.run_bit_rows(b"", 3) == bytes([0, 1] * 3)
        silent = machine_class(_toggle_program(emits=False))
        assert silent.run_bit_rows(b"\x01\x00\x01\x00", 2) == b""
        assert silent.dump_state() == [0]
        assert machine_class(_toggle_program()).run_bit_rows(b"", 0) == b""

    def test_block_length_checked(self, machine_class):
        machine = machine_class(_toggle_program())
        with pytest.raises(BackendError, match="3 bytes, expected 2"):
            machine.run_bit_rows(b"\x01\x00\x01", 2)


WIDTHS = (8, 16, 32, 64)


def _fanin_program(inputs: int, word_width: int) -> Program:
    """x' = x ^ V[0]; emits x, then V[k] ^ ~x for every input k.

    Every input reaches an output, and every word but the first has
    its high bits set, so a stale or misplaced byte of either buffer
    shows in the full words and in bit 0.
    """
    p = Program("fanin", word_width=word_width,
                inputs=[f"I{k}" for k in range(inputs)])
    p.declare("x", 0)
    p.body.append(Assign("x", Bin("^", Var("x"), Input(0))))
    p.output.append(Emit(Var("x"), ("x",)))
    for k in range(inputs):
        p.output.append(Emit(Bin("^", Input(k), ~Var("x")), (f"o{k}",)))
    return p


def _random_block(count: int, inputs: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(1) for _ in range(count * inputs))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("machine_class", MACHINES)
class TestStepBits:
    """``step_bits``, the full-word sibling of ``run_bit_rows``."""

    def test_matches_step_loop(self, machine_class, width):
        program = _fanin_program(3, width)
        for count in (0, 1, width - 1, width, width + 1):
            block = _random_block(count, 3, seed=count)
            bits = machine_class(program)
            loop = machine_class(program)
            expected = [
                loop.step(list(block[i * 3:(i + 1) * 3]))
                for i in range(count)
            ]
            assert bits.step_bits(block, count) == expected
            assert bits.dump_state() == loop.dump_state()
            assert bits.counters.vectors == count

    def test_no_inputs_and_no_outputs(self, machine_class, width):
        mask = (1 << width) - 1
        bare = machine_class(_toggle_program(inputs=0, word_width=width))
        assert bare.step_bits(b"", 3) == [[0, mask]] * 3
        silent = machine_class(
            _toggle_program(emits=False, word_width=width)
        )
        assert silent.step_bits(b"\x01\x00\x01\x00", 2) == [[], []]
        assert silent.dump_state() == [0]
        empty = machine_class(_toggle_program(word_width=width))
        assert empty.step_bits(b"", 0) == []

    def test_block_length_checked(self, machine_class, width):
        machine = machine_class(_toggle_program(word_width=width))
        with pytest.raises(BackendError, match="3 bytes, expected 2"):
            machine.step_bits(b"\x01\x00\x01", 2)

    def test_sizes_up_and_down_equal_a_fresh_machine(
        self, machine_class, width
    ):
        """One machine through 4096 -> 1 -> 0 -> 5000 vectors, twice,
        alternating the two byte-path methods: every call equals a
        fresh machine's from the same state, so no call reads a stale
        or short held buffer."""
        program = _fanin_program(5, width)
        driven = machine_class(program)
        methods = ("run_bit_rows", "step_bits")
        calls = [
            (count, methods[(index + turn) % 2])
            for turn in range(2)
            for index, count in enumerate((4096, 1, 0, 5000))
        ]
        for seed, (count, method) in enumerate(calls):
            block = _random_block(count, 5, seed=seed)
            fresh = machine_class(program)
            fresh.load_state(driven.dump_state())
            got = getattr(driven, method)(block, count)
            assert got == getattr(fresh, method)(block, count)
            assert len(got) == count * (1 if method == "step_bits" else 6)
            assert driven.dump_state() == fresh.dump_state()


@NEED_CC
@pytest.mark.parametrize("width", WIDTHS)
def test_second_batch_allocates_no_word_buffers(width):
    """The held buffers serve a batch no larger than an earlier one.

    A call that built its own word buffers would allocate the widened
    block and the output words, as the machine's first call does.  The
    second call may allocate only its narrowed result and the one
    staging copy a ``bytearray`` slice store makes of a ``bytes`` block
    (as large as the widened block at 8 bits, where a word is a byte).
    """
    inputs, emits, count = 32, 3, 1024
    machine = CMachine(_toggle_program(inputs=inputs, word_width=width))
    block = _random_block(count, inputs)
    machine.run_bit_rows(block, count)
    state = machine.dump_state()
    word_buffers = count * (inputs + emits) * width // 8
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        again = machine.run_bit_rows(block, count)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < word_buffers
    if width > 8:
        assert peak - before < len(block) * width // 8
    fresh = CMachine(machine.program)
    fresh.load_state(state)
    assert again == fresh.run_bit_rows(block, count)


@NEED_CC
@pytest.mark.parametrize("width", WIDTHS)
def test_tape_block_is_not_copied(tmp_path, width):
    """``Tape.read_bits`` returns a ``bytearray``, which the widening
    store reads in place: a warm call allocates nothing near the
    block's size, only its narrowed result and the slice it is cut
    from (``3 * count`` bytes each here)."""
    from repro.replay import Tape, write_tape

    inputs, count = 32, 1024
    path = str(tmp_path / "block.tape")
    block = _random_block(count, inputs)
    write_tape(path, [f"I{k}" for k in range(inputs)], (
        block[i * inputs:(i + 1) * inputs] for i in range(count)
    ))
    block = Tape(path).read_bits(0, count)
    assert isinstance(block, bytearray)
    machine = CMachine(_toggle_program(inputs=inputs, word_width=width))
    first = machine.run_bit_rows(block, count)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        again = machine.run_bit_rows(block, count)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < len(block) // 2
    assert len(again) == len(first) == 3 * count


@NEED_CC
@pytest.mark.parametrize("width", WIDTHS)
def test_bit_block_is_not_copied(width):
    """``bit_block`` returns a ``bytearray``, which the widening store
    reads in place, as it does a tape block: a warm call allocates
    nothing near the block's size."""
    from repro.codegen.packing import bit_block

    inputs, count = 32, 1024
    raw = _random_block(count, inputs)
    rows = [list(raw[i * inputs:(i + 1) * inputs]) for i in range(count)]
    block = bit_block(rows, inputs)
    assert isinstance(block, bytearray) and block == raw
    machine = CMachine(_toggle_program(inputs=inputs, word_width=width))
    first = machine.run_bit_rows(block, count)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        again = machine.run_bit_rows(block, count)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < len(block) // 2
    assert len(again) == len(first) == 3 * count


@NEED_CC
@pytest.mark.parametrize("width", WIDTHS)
def test_pack_lanes_takes_bytes_and_bytearray(width):
    inputs, count = 5, 3 * width + 1
    block = _random_block(count, inputs, seed=width)
    machine = CMachine(_toggle_program(inputs=inputs, word_width=width))
    lanes = machine.pack_lanes(bytearray(block), count)
    assert list(lanes) == list(machine.pack_lanes(block, count))
    python = PythonMachine(machine.program)
    assert [
        word for row in python.pack_lanes(block, count) for word in row
    ] == list(lanes)


def _fold_reference(rows: bytes, prev, start: int, width: int):
    """The fold by its definition: ``fold_outputs`` row by row, and
    per column the rows that differ from the row before."""
    from repro.replay.harness import fold_outputs

    checksum, toggles, last = start, [0] * width, prev
    for r in range(len(rows) // width if width else 0):
        row = rows[r * width:(r + 1) * width]
        checksum = fold_outputs(checksum, list(row))
        if last is not None:
            for j in range(width):
                toggles[j] += row[j] != last[j]
        last = row
    return checksum, toggles


#: ``(columns, rows)`` shapes of the fold tests.
FOLD_SHAPES = [
    (width, rows)
    for width in (0, 1, 7, 63, 64, 65, 187)
    for rows in (0, 1, 2, 1000)
]


def _fold_case(width: int, rows: int, seed: int):
    rng = random.Random(seed * 1009 + width * 31 + rows)
    block = bytes(rng.getrandbits(1) for _ in range(rows * width))
    prev = bytes(rng.getrandbits(1) for _ in range(width))
    starts = (0, 1, (1 << 64) - 1, rng.getrandbits(64))
    return block, prev, starts


def _fold_with(fold, rows, count, prev, start: int, width: int):
    """``(sum, toggles gained, bits of the row it returns)``."""
    import ctypes

    checksum = ctypes.c_uint64(start)
    toggles = (ctypes.c_int64 * width)(*range(width))
    last = fold(rows, count, prev, checksum, toggles)
    return (
        checksum.value,
        [t - j for j, t in enumerate(toggles)],
        None if last is None else bytes(last),
    )


@pytest.mark.parametrize(
    "width,rows", [(w, r) for w, r in FOLD_SHAPES if w * r <= 7000]
)
def test_reference_fold_matches_definition(width, rows):
    """The harness's chunk fold equals the row-by-row definition and
    returns the row the next chunk compares with."""
    from repro.replay.harness import _fold_rows

    block, prev, starts = _fold_case(width, rows, seed=1)
    for start in starts:
        for before in (None, prev):
            want = _fold_reference(block, before, start, width)
            last = block[len(block) - width:] if rows else before
            assert _fold_with(_fold_rows, block, rows, before, start,
                              width) == (*want, last)


def _word_rows(bits: bytes, word_width: int, seed: int) -> bytearray:
    """Native words whose bit 0 is ``bits`` and whose other bits are
    random, followed by one row's worth of all-ones words that no fold
    of ``len(bits)`` values may read."""
    from array import array

    rng = random.Random(seed)
    high = ((1 << word_width) - 1) ^ 1
    words = [(rng.getrandbits(word_width) & high) | bit for bit in bits]
    tail = [(1 << word_width) - 1] * 200
    return bytearray(array(CMachine._FORMAT[word_width], words + tail))


@NEED_CC
@pytest.mark.parametrize("word_width", WIDTHS)
def test_compiled_fold_matches_reference(word_width):
    """The library's ``fold_rows`` over words equals the Python
    reference over the same rows' bit-0 bytes at every shape, with and
    without a previous row (``bytes`` or ``bytearray``), from any
    starting sum, in every word width's library, and leaves the last
    row's bits for the next chunk; the words' high bits and the words
    past the rows change nothing."""
    from repro.replay.harness import _fold_rows

    machine = CMachine(_toggle_program(word_width=word_width))
    for width, rows in FOLD_SHAPES:
        block, prev, starts = _fold_case(width, rows, seed=word_width)
        words = _word_rows(block, word_width, seed=width * rows)
        for start in starts:
            for before in (None, prev):
                want = _fold_with(_fold_rows, block, rows, before, start,
                                  width)
                kinds = (bytes, bytearray) if before is not None else (None,)
                for kind in kinds:
                    given = None if kind is None else kind(before)
                    got = _fold_with(machine.fold_rows, words, rows, given,
                                     start, width)
                    assert got == want, (width, rows, start, kind)


@NEED_CC
def test_compiled_fold_carries_the_previous_row_in_place():
    """A ``bytearray`` previous row is the buffer the helper writes the
    last row into, so consecutive chunks fold as one."""
    import ctypes

    machine = CMachine(_toggle_program(word_width=64))
    width, rows = 65, 40
    block, _prev, _starts = _fold_case(width, rows, seed=5)
    words = _word_rows(block, 64, seed=6)
    whole = _fold_with(machine.fold_rows, words, rows, None, 9, width)
    checksum, toggles = ctypes.c_uint64(9), (ctypes.c_int64 * width)()
    prev = None
    size = width * 8
    for first, count in ((0, 1), (1, 0), (1, 16), (17, 23)):
        chunk = bytearray(words[first * size:(first + count) * size])
        last = machine.fold_rows(chunk, count, prev, checksum, toggles)
        if isinstance(prev, bytearray) and count:
            assert last is prev
        prev = last
    assert (checksum.value, list(toggles), bytes(prev)) == whole


@NEED_CC
def test_compiled_fold_checks_sizes_and_text_is_shared():
    import ctypes

    machine = CMachine(_toggle_program())
    checksum, toggles = ctypes.c_uint64(0), (ctypes.c_int64 * 3)()
    words = bytearray(2 * 3 * 4)
    with pytest.raises(BackendError, match="do not hold 3 rows of 3 words"):
        machine.fold_rows(words, 3, None, checksum, toggles)
    with pytest.raises(BackendError, match="do not hold 2 rows of 3 words"):
        machine.fold_rows(words[:-1], 2, None, checksum, toggles)
    with pytest.raises(BackendError, match="do not hold -1 rows"):
        machine.fold_rows(words, -1, None, checksum, toggles)
    with pytest.raises(BackendError, match="has 2 bytes, expected 3"):
        machine.fold_rows(words, 2, b"\x00\x01", checksum, toggles)
    assert (checksum.value, list(toggles)) == (0, [0, 0, 0])
    # No program-specific size: every library carries the same text.
    def helper(source):
        return source[source.index("void fold_rows("):]

    other = CMachine(_counter_program("fold-text"))
    assert helper(machine.source) == helper(other.source)


def _pinned_program() -> Program:
    """x = (V[0] & m) | v; emits x.  State words: x, then pin pair m, v."""
    p = Program("pinned", word_width=8, inputs=["IN"])
    p.declare("x", 0)
    p.declare("m", 0xFF)
    p.declare("v", 0)
    p.body.append(Assign(
        "x", Bin("|", Bin("&", Input(0), Var("m")), Var("v"))
    ))
    p.output.append(Emit(Var("x"), ("x",)))
    return p


@pytest.mark.parametrize("machine_class", MACHINES)
class TestScreen:
    """The generic screen on a one-input program with one pin pair."""

    def _graded(self, machine_class, bits, pins, values):
        machine = machine_class(_pinned_program())
        start = machine.dump_state()
        lanes = machine.pack_lanes(bytes(bits), len(bits))
        goods = machine.run_lanes(lanes, len(bits))
        return machine, machine.screen(
            lanes, len(bits), goods, start, pins, values
        )

    def test_first_differing_vector_per_pin(self, machine_class):
        # Ten vectors over two 8-lane passes; the last pass is partial.
        bits = [1, 1, 1, 1, 1, 1, 1, 1, 1, 0]
        machine, firsts = self._graded(
            machine_class, bits, [1, 1, 1], [0xFF, 0, 0xFF]
        )
        # x stuck at 1 first differs where the input is 0 (vector 9);
        # stuck at 0, at the first 1 (vector 0).
        assert firsts == [9, 0, 9]
        # Passes up to each first difference: 10 + 8 + 10 vectors.
        assert machine.counters.vectors == len(bits) + 28

    def test_fill_lanes_ignored(self, machine_class):
        # Stuck at 1 over all-ones vectors: only the fill lanes differ.
        _machine, firsts = self._graded(machine_class, [1, 1, 1], [1], [0xFF])
        assert firsts == [-1]

    def test_bounds_checked_before_running(self, machine_class):
        machine = machine_class(_pinned_program())
        start = machine.dump_state()
        lanes = machine.pack_lanes(b"\x01\x00", 2)
        goods = machine.run_lanes(lanes, 2)
        for pins in ([2], [-1]):
            with pytest.raises(BackendError, match="outside the state"):
                machine.screen(lanes, 2, goods, start, pins, [0])
        with pytest.raises(BackendError, match="state has 3 words"):
            machine.screen(lanes, 2, goods, start[:2], [1], [0])
        with pytest.raises(BackendError, match="needs 2 lane rows"):
            machine.screen(lanes, 9, goods, start, [1], [0])

    def test_values_must_match_pins(self, machine_class):
        # Before the check, C graded missing values as stuck-at-0 and
        # the Python loop dropped the pins past the last value.
        machine = machine_class(_pinned_program())
        start = machine.dump_state()
        lanes = machine.pack_lanes(b"\x01\x00\x01", 3)
        goods = machine.run_lanes(lanes, 3)
        state = machine.dump_state()
        batches = machine.counters.batches
        for values in ([0xFF, 0], [0xFF, 0, 0xFF, 0]):
            with pytest.raises(BackendError, match="3 pins got"):
                machine.screen(lanes, 3, goods, start, [1, 1, 1], values)
        assert machine.dump_state() == state
        assert machine.counters.batches == batches
        assert machine.screen(
            lanes, 3, goods, start, [1, 1, 1], [0xFF, 0, 0xFF]
        ) == [1, 0, 1]


class TestCompileProgram:
    def test_backend_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "python"), PythonMachine
        )
        with pytest.raises(BackendError, match="unknown backend"):
            compile_program(_counter_program(), "fortran")

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_level_is_not_a_keyword(self, backend):
        # The C level follows the program's size; neither the entry
        # point nor a machine takes one.
        with pytest.raises(TypeError, match="opt_level"):
            compile_program(_counter_program(), backend, opt_level="-O0")

    @NEED_CC
    def test_c_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "c"), CMachine
        )

    def test_have_c_compiler_cached(self):
        first = have_c_compiler()
        assert have_c_compiler() == first

    def test_have_c_compiler_force_reprobes(self, monkeypatch):
        import shutil as _shutil

        try:
            # With every candidate unresolvable the reprobe must
            # return None even though a positive result was cached ...
            monkeypatch.setattr(_shutil, "which", lambda name: None)
            assert have_c_compiler(force=True) is None
            # ... and without force, the (now negative) cache sticks.
            monkeypatch.undo()
            assert have_c_compiler() is None
        finally:
            have_c_compiler(force=True)  # restore the real probe


class TestProgramCache:
    def test_python_code_object_reused(self):
        program = _counter_program()
        fingerprint = program_fingerprint(program.python_source())
        key = (fingerprint, "python", "")
        cache = program_cache()
        a = PythonMachine(program)
        hits = cache.hits
        b = PythonMachine(_counter_program())
        assert cache.hits == hits + 1
        assert cache.get(key) is not None
        # Cached code, independent coroutine state.
        assert a.step([1]) == [1]
        assert b.step([2]) == [2]
        assert a.dump_state() == [1]
        assert b.dump_state() == [2]

    @NEED_CC
    def test_c_artifact_reused_with_private_state(self):
        cache = program_cache()
        first = CMachine(_counter_program())
        hits = cache.hits
        second = CMachine(_counter_program())
        assert cache.hits == hits + 1  # library reused, not rebuilt
        assert first._lib is second._lib
        # One library, two states: nothing leaks between machines.
        assert first.step([5]) == [5]
        assert second.dump_state() == [0]
        second.load_state([1])
        assert first.dump_state() == [5]
        assert second.step([8]) == [9]
        assert first.step([0]) == [5]
        assert second.dump_state() == [9]

    @NEED_CC
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc")
    def test_dropped_machines_leave_one_library(self):
        # The build files have fixed names, so the library is found by
        # the path each machine's library was loaded from.
        def mapped(paths):
            with open("/proc/self/maps") as maps:
                return {
                    line.split(None, 5)[5].strip()
                    for line in maps
                    if any(path in line for path in paths)
                }

        paths = set()
        for value in range(50):
            machine = CMachine(_counter_program("dropped"))
            assert machine.step([value]) == [value]
            paths.add(machine._lib._name)
            del machine
        gc.collect()
        assert len(paths) == 1
        assert len(mapped(paths)) == 1

    @NEED_CC
    def test_wiped_tempdir_keeps_cache_hits_working(self, tmp_path):
        # Regression: a cache hit copied the library out of a cache
        # directory under the temp dir, so once a temp cleaner removed
        # it every later hit raised FileNotFoundError.
        out = _run_child(tmp_path, """
            import os, shutil, tempfile
            from repro.codegen.runtime import CMachine, program_cache

            first = CMachine(_counter_program())
            root = tempfile.gettempdir()
            for entry in os.listdir(root):
                path = os.path.join(root, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.unlink(path)
            hits = program_cache().hits
            second = CMachine(_counter_program())
            assert program_cache().hits == hits + 1
            print(second.step([3]), first.dump_state())
        """)
        assert out.split() == ["[3]", "[0]"]

    @NEED_CC
    def test_no_files_left_in_tempdir(self, tmp_path):
        # A miss, a hit and a compile at another opt level, checked
        # while the machines are alive and again after the process is
        # gone.
        out = _run_child(tmp_path, """
            import os, tempfile
            from repro.codegen.runtime import CMachine, program_cache

            cache = program_cache()
            machines = [
                CMachine(_counter_program()),
                CMachine(_counter_program()),
            ]
            # Past the threshold every program builds at -O0.
            CMachine.O0_LINE_THRESHOLD = 0
            machines.append(CMachine(_counter_program()))
            assert machines[-1].opt_level == "-O0"
            print(cache.misses, cache.hits, os.listdir(tempfile.gettempdir()))
        """)
        assert out.split() == ["2", "1", "[]"]
        assert list(tmp_path.iterdir()) == []

    @NEED_CC
    def test_threads_share_one_library(self):
        # ctypes releases the GIL in foreign calls, so the two threads'
        # kernels really run at once on the shared library.
        program = Program("adder", word_width=32, inputs=["IN"])
        program.declare("x", 1)
        program.body.append(Assign("x", Bin("+", Var("x"), Input(0))))
        program.output.append(Emit(Var("x"), ("x",)))
        calls = [
            [[[(seed * 7919 + call * 64 + i) % 1000] for i in range(64)]
             for call in range(200)]
            for seed in (1, 2)
        ]

        def drive(machine, batches, results):
            for batch in batches:
                results.append(machine.run_block(batch, []))

        expected = []
        for batches in calls:
            results: list = []
            drive(CMachine(program), batches, results)
            expected.append(results)
        machines = [CMachine(program) for _ in calls]
        assert machines[0]._lib is machines[1]._lib
        got: list = [[], []]
        threads = [
            threading.Thread(target=drive, args=(m, b, r))
            for m, b, r in zip(machines, calls, got)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    @NEED_CC
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_keeps_loaded_programs(self):
        parent = CMachine(_counter_program())
        assert parent.step([5]) == [5]
        child = os.fork()
        if child == 0:
            # In the child: assert with os._exit codes (no pytest).
            try:
                def refuse(*args):
                    raise AssertionError("the compiler ran")

                CMachine._compile = refuse
                cache = program_cache()
                hits = cache.hits
                twin = CMachine(_counter_program())
                ok = cache.hits == hits + 1 and twin._lib is parent._lib
                ok = ok and twin.step([2]) == [2]
                ok = ok and parent.step([10]) == [15]
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
        _pid, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parent.dump_state() == [5]

    def test_lru_eviction_and_stats(self):
        from repro.codegen.runtime import ProgramCache

        cache = ProgramCache(capacity=2)
        cache.put(("a", "python", ""), object())
        cache.put(("b", "python", ""), object())
        assert cache.get(("a", "python", "")) is not None
        cache.put(("c", "python", ""), object())  # evicts "b" (LRU)
        assert cache.get(("b", "python", "")) is None
        assert cache.get(("a", "python", "")) is not None
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["entries"] == 2
        cache.clear()
        assert len(cache) == 0


def test_opt_level_auto_downgrade():
    from repro.codegen.program import Assign, Bin, Program, Var

    small = _counter_program()
    assert CMachine(small).opt_level == "-O1"
    # A synthetic program over the line threshold drops to -O0.
    big = Program("big", word_width=32, inputs=["IN"])
    big.declare("x")
    for _ in range(CMachine.O0_LINE_THRESHOLD + 1):
        big.body.append(Assign("x", Bin("&", Var("x"), Var("x"))))
    machine = CMachine(big)
    assert machine.opt_level == "-O0"


@NEED_CC
@pytest.mark.parametrize("name", ["a/b", "../escaped", "x*/ y"])
def test_program_name_never_becomes_a_path(name, tmp_path, monkeypatch):
    # The build files have fixed names in a private directory: a slash
    # or a parent step in the name neither fails nor escapes it, and a
    # "*/" does not close the source's header comment.
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    program = _toggle_program()
    program.name = name
    rows = [[1, 0], [1, 1], [0, 1], [1, 1]]
    expected = PythonMachine(program).step_many(rows)
    assert CMachine(program).step_many(rows) == expected
    assert list(tmp_path.iterdir()) == [temp]
    assert list(temp.iterdir()) == []
