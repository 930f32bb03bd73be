"""Replay checkpoints: everything needed to resume bit-identically.

A checkpoint is a small JSON document holding the machine state of a
replay in flight: the flip-flop state after the last completed cycle,
the cycle count (= tape offset, since the tape is one line per cycle),
and the running summary accumulators (checksum, per-output toggle
counts, previous output values) so a resumed run's *report* — not just
its per-cycle outputs — matches the uninterrupted run exactly.

The combinational settle is a pure function of state + inputs, so this
is sufficient for every engine: no intra-cycle residue exists at a
cycle boundary (unit-delay engines re-settle from the restored state
on their first cycle, reaching the same steady values).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Mapping, Optional

from repro.errors import SimulationError

__all__ = ["ReplayCheckpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "repro-replay-checkpoint"
CHECKPOINT_VERSION = 1


class ReplayCheckpoint:
    """Serializable mid-replay machine state."""

    __slots__ = (
        "cycle", "state", "checksum", "toggles", "prev_outputs",
        "tape_inputs", "tape_cycles", "circuit", "engine", "vcd",
    )

    def __init__(
        self,
        *,
        cycle: int,
        state: Mapping[str, int],
        checksum: int = 0,
        toggles: Optional[Mapping[str, int]] = None,
        prev_outputs: Optional[Mapping[str, int]] = None,
        tape_inputs: Optional[list[str]] = None,
        tape_cycles: int = 0,
        circuit: str = "",
        engine: str = "",
        vcd: Optional[Mapping] = None,
    ) -> None:
        self.cycle = int(cycle)
        self.state = {q: v & 1 for q, v in state.items()}
        self.checksum = int(checksum)
        self.toggles = dict(toggles) if toggles else {}
        self.prev_outputs = (
            dict(prev_outputs) if prev_outputs is not None else None
        )
        self.tape_inputs = list(tape_inputs) if tape_inputs else []
        self.tape_cycles = int(tape_cycles)
        self.circuit = circuit
        self.engine = engine
        #: :meth:`repro.waveform.VCDWriter.state` snapshot when the
        #: replay was streaming a waveform (``None`` otherwise) — the
        #: resumed run's writer restores it and appends byte-for-byte.
        #: Optional key: checkpoints written before waveform streaming
        #: existed load fine, and old readers ignore it.
        self.vcd = dict(vcd) if vcd is not None else None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "circuit": self.circuit,
            "engine": self.engine,
            "cycle": self.cycle,
            "state": self.state,
            "checksum": self.checksum,
            "toggles": self.toggles,
            "prev_outputs": self.prev_outputs,
            "tape": {
                "inputs": self.tape_inputs,
                "cycles": self.tape_cycles,
            },
            "vcd": self.vcd,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ReplayCheckpoint":
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise SimulationError(
                "not a replay checkpoint "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise SimulationError(
                f"unsupported checkpoint version "
                f"{payload.get('version')!r}"
            )
        tape = payload.get("tape") or {}
        return cls(
            cycle=payload["cycle"],
            state=payload["state"],
            checksum=payload.get("checksum", 0),
            toggles=payload.get("toggles"),
            prev_outputs=payload.get("prev_outputs"),
            tape_inputs=tape.get("inputs"),
            tape_cycles=tape.get("cycles", 0),
            circuit=payload.get("circuit", ""),
            engine=payload.get("engine", ""),
            vcd=payload.get("vcd"),
        )

    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the checkpoint to ``path`` atomically.

        The document goes to a temporary file in the same directory,
        is flushed to disk, and then renamed over ``path``: a crash
        mid-write leaves the previous checkpoint intact.
        """
        fd, temp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)),
            prefix=".checkpoint-", suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.as_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
        return path

    def __repr__(self) -> str:
        return (
            f"ReplayCheckpoint(cycle={self.cycle}, "
            f"{len(self.state)} FFs, checksum={self.checksum:#x})"
        )


def load_checkpoint(path: str) -> ReplayCheckpoint:
    """Read a checkpoint written by :meth:`ReplayCheckpoint.save`."""
    with open(path) as handle:
        return ReplayCheckpoint.from_dict(json.load(handle))
