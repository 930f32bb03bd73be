"""The replay driver: stream a tape through a clocked simulator.

``replay_tape`` clocks a :class:`CompiledSequentialSimulator` through a
stimulus :class:`Tape` in bounded-memory chunks, optionally writing a
checkpoint every N cycles and/or resuming from one.  The tape's
validated byte reader hands each chunk to the simulator as bytes.
From its outputs the run keeps per-output toggle counts (coverage)
and a rolling checksum over every output of every cycle — the
one-number bit-identity witness used by the tests — folded in one
step per chunk, and it may stream the outputs to an output tape (same
fixed-width line format as the stimulus, so runs are compared with a
byte compare) and a waveform.

The machine's type picks how a chunk runs and folds; both folds take
the same arguments.  On a clocked C machine ``sim.run_held`` leaves
the outputs in the machine's held word buffer and the library's
``fold_rows`` (:meth:`~repro.codegen.runtime.CMachine.fold_rows`)
reads bit 0 of those words in place, carrying the last row's bits to
the next chunk in a small byte buffer; the words are narrowed to bytes
(:meth:`~repro.codegen.runtime.CMachine.narrow`) only for a writer.
Every other machine and engine runs ``sim.apply_bits``, one 0/1 byte
per output per cycle, and :func:`_fold_rows`, the Python reference
the library's helper is tested against.  Either way the checksum
lives in a ``c_uint64`` and the counts in a ``c_int64`` array across
chunks, and the ``toggles`` dict is built only for a checkpoint and
the result.

Chunk boundaries are aligned to checkpoint boundaries, so a checkpoint
always lands *exactly* after its cycle regardless of chunk size — the
restore contract is "cycle C completed, cycle C+1 not started".
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import Callable, Optional

from repro import telemetry
from repro.codegen.runtime import CMachine
from repro.errors import SimulationError
from repro.replay.checkpoint import ReplayCheckpoint, load_checkpoint
from repro.replay.tape import TAPE_MAGIC, Tape

__all__ = ["ReplayResult", "replay_tape", "fold_outputs"]

_MASK64 = (1 << 64) - 1

#: ``bytes.translate`` table: a 0/1 byte becomes its ASCII digit.
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def fold_outputs(checksum: int, bits: list[int]) -> int:
    """Fold one cycle's output bits into the rolling checksum.

    Rotate-then-xor over a 64-bit word: order-sensitive (swapped cycles
    change the sum) and cheap enough to run every cycle.
    """
    for bit in bits:
        checksum = (
            ((checksum << 1) | (checksum >> 63)) ^ bit
        ) & _MASK64
    return checksum


def _fold_digits(checksum: int, digits: bytes) -> int:
    """:func:`fold_outputs` over a whole chunk of bits at once.

    ``digits`` holds the bits as ASCII ``0``/``1``, in fold order.
    Folding ``n`` bits rotates the running value left by ``n`` and
    leaves bit ``i`` at position ``(n - 1 - i) mod 64``: that is the
    running value rotated by ``n mod 64``, XOR the 64-bit limbs of the
    bits read as one binary number.
    """
    if not digits:
        return checksum
    shift = len(digits) % 64
    checksum = ((checksum << shift) | (checksum >> (64 - shift))) & _MASK64
    value = int(digits, 2)
    while value >> 64:
        # Split at a limb boundary; the halves' limbs XOR together.
        half = 64 * ((value.bit_length() + 127) // 128)
        value = (value >> half) ^ (value & ((1 << half) - 1))
    return checksum ^ value


def _fold_rows(rows, count, prev, checksum, toggles):
    """Fold a chunk's output rows into the checksum and toggle counts.

    The reference of the C library's ``fold_rows``
    (:meth:`~repro.codegen.runtime.CMachine.fold_rows`), with the same
    arguments, on bytes: ``rows`` holds ``count`` rows of
    ``len(toggles)`` 0/1 bytes, ``prev`` the row before them or
    ``None``.  ``checksum`` (a ``c_uint64``) folds every bit as
    :func:`fold_outputs` would, and ``toggles[j]`` gains the rows
    whose column ``j`` differs from the row before.  Returns the last
    row (``prev`` when ``count`` is 0), the next chunk's ``prev``.
    """
    if not count:
        return prev
    width = len(toggles)
    checksum.value = _fold_digits(checksum.value, rows.translate(_DIGIT))
    # Row r's bytes XOR row r-1's: 1 where an output toggled.
    both = rows if prev is None else prev + rows
    changed = (
        int.from_bytes(both[width:], "big")
        ^ int.from_bytes(both[:len(both) - width], "big")
    ).to_bytes(len(both) - width, "big")
    for j in range(width):
        toggles[j] += changed[j::width].count(1)
    return rows[len(rows) - width:]


class ReplayResult:
    """Summary of one :func:`replay_tape` call."""

    __slots__ = (
        "cycles", "cycle", "checksum", "toggles", "seconds",
        "checkpoints", "resumed_from", "outputs_path", "vcd_path",
    )

    def __init__(
        self,
        *,
        cycles: int,
        cycle: int,
        checksum: int,
        toggles: dict[str, int],
        seconds: float,
        checkpoints: list[str],
        resumed_from: Optional[int],
        outputs_path: Optional[str],
        vcd_path: Optional[str] = None,
    ) -> None:
        self.cycles = cycles          # cycles executed by this call
        self.cycle = cycle            # final cycle count (tape offset)
        self.checksum = checksum
        self.toggles = toggles
        self.seconds = seconds
        self.checkpoints = checkpoints
        self.resumed_from = resumed_from
        self.outputs_path = outputs_path
        self.vcd_path = vcd_path

    @property
    def cycles_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.cycles / self.seconds

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "cycle": self.cycle,
            "checksum": self.checksum,
            "toggles": dict(self.toggles),
            "seconds": self.seconds,
            "cycles_per_second": self.cycles_per_second,
            "checkpoints": list(self.checkpoints),
            "resumed_from": self.resumed_from,
            "outputs_path": self.outputs_path,
            "vcd_path": self.vcd_path,
        }

    def __repr__(self) -> str:
        return (
            f"ReplayResult(cycles={self.cycles}, "
            f"checksum={self.checksum:#018x}, "
            f"{self.cycles_per_second:.0f} cyc/s)"
        )


def replay_tape(
    sim,
    tape: Tape,
    *,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume_from: "Optional[str | ReplayCheckpoint]" = None,
    chunk_cycles: int = 4096,
    outputs_path: Optional[str] = None,
    vcd_path: Optional[str] = None,
    vcd_nets: Optional[list[str]] = None,
    limit: Optional[int] = None,
    on_chunk: Optional[Callable[[int, int], None]] = None,
) -> ReplayResult:
    """Stream ``tape`` through ``sim`` (a CompiledSequentialSimulator).

    Parameters
    ----------
    checkpoint_every:
        Write a checkpoint after every N-th cycle (0 disables).
        Requires ``checkpoint_dir``; files are named
        ``checkpoint_{cycle:012d}.json``.
    resume_from:
        A checkpoint path (or loaded :class:`ReplayCheckpoint`).  The
        simulator state, cycle count, tape offset and summary
        accumulators all restore from it; the result of resumed
        segments concatenates bit-identically with the pre-checkpoint
        segment.
    chunk_cycles:
        Cycles per ``apply_bits`` call — the memory bound.
    outputs_path:
        Stream per-cycle external outputs here, in tape line format
        (header names the output columns).  A resumed run writes only
        its own segment.
    vcd_path:
        Stream a waveform of per-cycle external outputs here (one VCD
        tick per cycle, incremental — nothing accumulates in memory).
        ``vcd_nets`` restricts the trace to a subset of the external
        outputs.  Checkpoints carry the writer's dedup state, so a
        resumed run *appends* its segment to the same file and the
        result is byte-identical to the uninterrupted run; the closing
        time marker is written only when the replay reaches the end of
        the tape.
    limit:
        Replay at most this many cycles (default: to the end of tape);
        must be >= 0.
    on_chunk:
        Optional ``callback(cycle, total_cycles)`` after each chunk.
    """
    seq = sim.sequential
    if list(tape.inputs) != list(seq.external_inputs):
        raise SimulationError(
            f"tape inputs {tape.inputs[:5]} do not match circuit "
            f"external inputs {list(seq.external_inputs)[:5]}"
        )
    if checkpoint_every < 0:
        raise SimulationError("checkpoint_every must be >= 0")
    if checkpoint_every and not checkpoint_dir:
        raise SimulationError(
            "checkpoint_every requires checkpoint_dir"
        )
    if checkpoint_every:
        os.makedirs(checkpoint_dir, exist_ok=True)
    if chunk_cycles < 1:
        raise SimulationError("chunk_cycles must be >= 1")
    if limit is not None and limit < 0:
        raise SimulationError("limit must be >= 0")

    outputs = list(seq.external_outputs)
    width = len(outputs)
    vcd_columns: Optional[list[str]] = None
    if vcd_path is not None:
        vcd_columns = (
            list(vcd_nets) if vcd_nets is not None else list(outputs)
        )
        unknown = [n for n in vcd_columns if n not in set(outputs)]
        if unknown:
            raise SimulationError(
                "replay waveforms trace external outputs only; "
                f"unknown nets: {unknown[:5]}"
            )
        if not vcd_columns:
            raise SimulationError("vcd_nets must name at least one net")
        vcd_slots = [(o, outputs.index(o)) for o in vcd_columns]
    elif vcd_nets is not None:
        raise SimulationError("vcd_nets requires vcd_path")
    if resume_from is not None:
        cp = (
            resume_from
            if isinstance(resume_from, ReplayCheckpoint)
            else load_checkpoint(resume_from)
        )
        if cp.tape_inputs and cp.tape_inputs != list(tape.inputs):
            raise SimulationError(
                "checkpoint was taken against a tape with different "
                f"inputs ({cp.tape_inputs[:5]} != {tape.inputs[:5]})"
            )
        if cp.cycle > tape.cycles:
            raise SimulationError(
                f"checkpoint cycle {cp.cycle} is beyond the tape "
                f"({tape.cycles} cycles)"
            )
        sim.restore({"state": cp.state, "cycle": cp.cycle})
        checksum = ctypes.c_uint64(cp.checksum)
        toggles = (ctypes.c_int64 * width)(
            *[cp.toggles.get(o, 0) for o in outputs]
        )
        prev = (
            bytes(cp.prev_outputs[o] for o in outputs)
            if cp.prev_outputs else None
        )
        start = cp.cycle
        resumed_from = cp.cycle
        telemetry.counter("seq.restores")
    else:
        sim.reset()
        checksum = ctypes.c_uint64(0)
        toggles = (ctypes.c_int64 * width)()
        prev = None
        start = 0
        resumed_from = None
    # The machine's type picks the fold, as it picks the fault screen:
    # a C machine folds its held output words where the kernel wrote
    # them and narrows them to bytes only for a writer.
    machine = sim.machine
    if isinstance(machine, CMachine):
        run, fold, narrow = sim.run_held, machine.fold_rows, machine.narrow
    else:
        run, fold, narrow = sim.apply_bits, _fold_rows, None

    end = tape.cycles if limit is None else min(start + limit, tape.cycles)
    checkpoints: list[str] = []
    out_stream = None
    vcd_stream = None
    vcd_writer = None
    t0 = time.perf_counter()
    try:
        if outputs_path is not None:
            out_stream = open(outputs_path, "wb")
            out_stream.write(
                f"{TAPE_MAGIC}\n#inputs {','.join(outputs)}\n".encode()
            )
        if vcd_path is not None:
            from repro.waveform import VCDWriter

            if resume_from is not None:
                saved = cp.vcd
                if saved is None:
                    raise SimulationError(
                        "checkpoint carries no waveform writer state; "
                        "the checkpointing run must pass vcd_path too"
                    )
                if saved.get("nets") != vcd_columns:
                    raise SimulationError(
                        "vcd_nets do not match the checkpointed "
                        f"waveform ({saved.get('nets')} != "
                        f"{vcd_columns})"
                    )
                # Append this segment to the existing document.
                vcd_stream = open(vcd_path, "a")
                vcd_writer = VCDWriter(
                    0, vcd_columns, stream=vcd_stream
                )
                vcd_writer.restore_state(saved)
            else:
                vcd_stream = open(vcd_path, "w")
                vcd_writer = VCDWriter(
                    0, vcd_columns, stream=vcd_stream
                )
        with telemetry.span("seq.replay", engine=sim.engine):
            cursor = start
            while cursor < end:
                n = min(chunk_cycles, end - cursor)
                if checkpoint_every:
                    # Land exactly on the next checkpoint boundary.
                    boundary = (
                        (cursor // checkpoint_every) + 1
                    ) * checkpoint_every
                    n = min(n, boundary - cursor)
                out = run(tape.read_bits(cursor, n), n)
                prev = fold(out, n, prev, checksum, toggles)
                if out_stream is not None or vcd_writer is not None:
                    rows = out if narrow is None else narrow(out, n)
                    if out_stream is not None:
                        digits = rows.translate(_DIGIT)
                        # Column j of every line, then the newlines.
                        lines = bytearray(b"\n") * (n * (width + 1))
                        for j in range(width):
                            lines[j::width + 1] = digits[j::width]
                        out_stream.write(lines)
                        del digits, lines
                    if vcd_writer is not None:
                        for row in range(0, n * width, width):
                            vcd_writer.add_vector({
                                o: ((0, rows[row + j]),)
                                for o, j in vcd_slots
                            })
                    del rows
                # prev is a copy: free this chunk before the next runs.
                del out
                cursor += n
                if (
                    checkpoint_every
                    and cursor % checkpoint_every == 0
                ):
                    cp = ReplayCheckpoint(
                        cycle=sim.cycle,
                        state=sim.state,
                        checksum=checksum.value,
                        toggles=dict(zip(outputs, toggles)),
                        prev_outputs=(
                            dict(zip(outputs, prev))
                            if prev is not None else None
                        ),
                        tape_inputs=list(tape.inputs),
                        tape_cycles=tape.cycles,
                        circuit=seq.core.name,
                        engine=sim.engine,
                        vcd=(
                            vcd_writer.state()
                            if vcd_writer is not None else None
                        ),
                    )
                    path = os.path.join(
                        checkpoint_dir,
                        f"checkpoint_{sim.cycle:012d}.json",
                    )
                    checkpoints.append(cp.save(path))
                    telemetry.counter("seq.checkpoints")
                if on_chunk is not None:
                    on_chunk(cursor, end)
        if (
            vcd_writer is not None
            and sim.cycle == tape.cycles
            and sim.cycle > start
            and vcd_writer.num_vectors > 0
        ):
            # End of tape on this segment: close the document.  An
            # interrupted (limit=) segment leaves the file open-ended
            # so a resumed run can append byte-identically.
            vcd_writer.finalize()
    finally:
        if out_stream is not None:
            out_stream.close()
        if vcd_stream is not None:
            vcd_stream.close()
    return ReplayResult(
        cycles=sim.cycle - start,
        cycle=sim.cycle,
        checksum=checksum.value,
        toggles=dict(zip(outputs, toggles)),
        seconds=time.perf_counter() - t0,
        checkpoints=checkpoints,
        resumed_from=resumed_from,
        outputs_path=outputs_path,
        vcd_path=vcd_path,
    )
