"""The replay driver: stream a tape through a clocked simulator.

``replay_tape`` clocks a :class:`CompiledSequentialSimulator` through a
stimulus :class:`Tape` in bounded-memory chunks, optionally writing a
checkpoint every N cycles and/or resuming from one.  Per-cycle work is
incremental: external outputs stream to an output tape (same fixed-width
line format as the stimulus, so runs are compared with a byte compare),
per-output toggle counts accumulate as coverage, and a rolling checksum
folds every output of every cycle — the one-number bit-identity witness
used by the tests.

Chunk boundaries are aligned to checkpoint boundaries, so a checkpoint
always lands *exactly* after its cycle regardless of chunk size — the
restore contract is "cycle C completed, cycle C+1 not started".
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro import telemetry
from repro.errors import SimulationError
from repro.replay.checkpoint import ReplayCheckpoint, load_checkpoint
from repro.replay.tape import TAPE_MAGIC, Tape

__all__ = ["ReplayResult", "replay_tape", "fold_outputs"]

_MASK64 = (1 << 64) - 1


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
        Vectors per ``apply_vectors`` call — the memory bound.
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
        Replay at most this many cycles (default: to the end of tape).
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

    outputs = list(seq.external_outputs)
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
        checksum = cp.checksum
        toggles = {o: cp.toggles.get(o, 0) for o in outputs}
        prev = dict(cp.prev_outputs) if cp.prev_outputs else None
        start = cp.cycle
        resumed_from = cp.cycle
        telemetry.counter("seq.restores")
    else:
        sim.reset()
        checksum = 0
        toggles = {o: 0 for o in outputs}
        prev = None
        start = 0
        resumed_from = None

    end = tape.cycles if limit is None else min(start + limit, tape.cycles)
    checkpoints: list[str] = []
    out_stream = None
    vcd_stream = None
    vcd_writer = None
    t0 = time.perf_counter()
    try:
        if outputs_path is not None:
            out_stream = open(outputs_path, "w")
            out_stream.write(f"{TAPE_MAGIC}\n")
            out_stream.write(f"#inputs {','.join(outputs)}\n")
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
                rows = tape.read(cursor, n)
                for out in sim.apply_vectors(rows):
                    bits = [out[o] for o in outputs]
                    checksum = fold_outputs(checksum, bits)
                    if prev is not None:
                        for o in outputs:
                            if out[o] != prev[o]:
                                toggles[o] += 1
                    prev = out
                    if out_stream is not None:
                        out_stream.write(
                            "".join("1" if b else "0" for b in bits)
                        )
                        out_stream.write("\n")
                    if vcd_writer is not None:
                        vcd_writer.add_vector({
                            o: ((0, out[o]),) for o in vcd_columns
                        })
                cursor += n
                if (
                    checkpoint_every
                    and cursor % checkpoint_every == 0
                ):
                    cp = ReplayCheckpoint(
                        cycle=sim.cycle,
                        state=sim.state,
                        checksum=checksum,
                        toggles=toggles,
                        prev_outputs=prev,
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
        checksum=checksum,
        toggles=toggles,
        seconds=time.perf_counter() - t0,
        checkpoints=checkpoints,
        resumed_from=resumed_from,
        outputs_path=outputs_path,
        vcd_path=vcd_path,
    )
