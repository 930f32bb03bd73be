"""On-disk clocked stimulus tapes.

A tape is the simplest thing that streams: a text file with two header
lines and one fixed-width line of ``0``/``1`` characters per clock
cycle::

    #repro-tape v1
    #inputs EN,D0,D1
    010
    110
    ...

Column ``k`` of every line is the value of the ``k``-th declared input
that cycle.  Fixed-width lines make the format seekable in O(1):
cycle ``c`` starts at byte ``data_start + c * (num_inputs + 1)``, which
is what lets checkpoint/restore resume mid-tape without rescanning,
and lets million-cycle tapes replay in bounded memory.  The same
layout doubles as the *output* stream format (columns = external
outputs), so two replays are bit-compared with a file compare.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import SimulationError

__all__ = ["Tape", "TapeError", "write_tape", "random_tape"]

TAPE_MAGIC = "#repro-tape v1"

#: ``read_bits`` tables: the digits become 0/1, every other byte goes.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_NOT_DIGITS = bytes(sorted(set(range(256)) - set(b"01")))


class TapeError(SimulationError):
    """Malformed tape file or out-of-range access."""


class Tape:
    """A stimulus tape for random-access reading.

    No file stays open: the constructor reads the header and every
    :meth:`read` opens the file for that call only.

    Attributes
    ----------
    inputs:
        Declared input names, in column order.
    cycles:
        Number of stimulus lines (derived from the file size — no scan).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            magic = handle.readline().decode("ascii", "replace")
            if magic.rstrip("\n") != TAPE_MAGIC:
                raise TapeError(
                    f"{path}: not a stimulus tape "
                    f"(expected {TAPE_MAGIC!r} header)"
                )
            names = handle.readline().decode("ascii", "replace")
            if not names.startswith("#inputs"):
                raise TapeError(f"{path}: missing '#inputs' header line")
            declared = names[len("#inputs"):].strip()
            self.inputs = (
                [n for n in declared.split(",") if n] if declared else []
            )
            self._data_start = handle.tell()
        self._line_width = len(self.inputs) + 1  # trailing newline
        size = os.path.getsize(path)
        payload = size - self._data_start
        if payload % self._line_width:
            raise TapeError(
                f"{path}: truncated tape — {payload} data bytes is not "
                f"a multiple of the {self._line_width}-byte line"
            )
        self.cycles = payload // self._line_width

    # ------------------------------------------------------------------
    def read_bits(self, start: int, count: int) -> bytearray:
        """``count`` stimulus vectors starting at cycle ``start``, as bytes.

        One byte per input, vector after vector, each 0 or 1 — the
        block :meth:`~repro.seqsim.CompiledSequentialSimulator.apply_bits`
        clocks.  Every line must hold ``0``/``1`` characters only and
        end in ``\\n`` right after its last column; otherwise
        :class:`TapeError` names the first bad cycle.

        The lines are read into a ``bytearray`` and decoded with
        ``bytearray.translate``, so the block is a ``bytearray``: a C
        machine widens it into its held input words without first
        copying it (a slice store copies any other right-hand side).
        """
        if start < 0 or count < 0 or start + count > self.cycles:
            raise TapeError(
                f"{self.path}: cycles [{start}, {start + count}) out of "
                f"range (tape has {self.cycles})"
            )
        width = len(self.inputs)
        blob = bytearray(count * self._line_width)
        with open(self.path, "rb") as handle:
            handle.seek(self._data_start + start * self._line_width)
            got = handle.readinto(blob)
        # A file cut short since the header was read: check what came.
        del blob[got:]
        # Deleting every byte but the digits leaves count * width of
        # them exactly when the terminator columns hold only newlines
        # and the data columns only digits.
        bits = blob.translate(_DIGITS, _NOT_DIGITS)
        if (
            len(bits) != count * width
            or blob[width::width + 1] != b"\n" * count
        ):
            self._raise_first_bad(blob, start)
        return bits

    def _raise_first_bad(self, blob: bytearray, start: int) -> None:
        width = len(self.inputs)
        for c in range(len(blob) // self._line_width):
            line = blob[c * self._line_width:(c + 1) * self._line_width]
            for ch in line[:width]:
                if ch not in b"01":
                    raise TapeError(
                        f"{self.path}: bad character {chr(ch)!r} at "
                        f"cycle {start + c}"
                    )
            if line[width] != 0x0A:
                raise TapeError(
                    f"{self.path}: cycle {start + c} does not end in a "
                    f"newline at column {width}"
                )
        raise TapeError(
            f"{self.path}: cycles from {start} are shorter than the "
            f"tape's size promises (was the file changed?)"
        )

    def read(self, start: int, count: int) -> list[list[int]]:
        """``count`` stimulus vectors starting at cycle ``start``.

        Each vector is a plain 0/1 list in ``inputs`` column order —
        exactly what ``CompiledSequentialSimulator`` accepts.  Decoded
        and checked by :meth:`read_bits`.
        """
        bits = self.read_bits(start, count)
        width = len(self.inputs)
        return [
            list(bits[c * width:(c + 1) * width]) for c in range(count)
        ]

    def chunks(
        self,
        chunk_cycles: int,
        *,
        start: int = 0,
        end: Optional[int] = None,
    ) -> Iterator[tuple[int, list[list[int]]]]:
        """Yield ``(first_cycle, vectors)`` windows of the tape."""
        stop = self.cycles if end is None else min(end, self.cycles)
        cursor = start
        while cursor < stop:
            n = min(chunk_cycles, stop - cursor)
            yield cursor, self.read(cursor, n)
            cursor += n

    def __repr__(self) -> str:
        return (
            f"Tape({self.path!r}: {len(self.inputs)} inputs, "
            f"{self.cycles} cycles)"
        )


def _row_bits(
    row: "Mapping[str, int] | Sequence[int]",
    inputs: list[str],
    cycle: int,
) -> str:
    if isinstance(row, Mapping):
        try:
            values = [row[n] for n in inputs]
        except KeyError as exc:
            raise TapeError(
                f"cycle {cycle}: vector missing input {exc.args[0]!r}"
            ) from None
    else:
        values = list(row)
        if len(values) != len(inputs):
            raise TapeError(
                f"cycle {cycle}: vector has {len(values)} values for "
                f"{len(inputs)} inputs"
            )
    for v in values:
        if v not in (0, 1):
            raise TapeError(
                f"cycle {cycle}: tape values must be 0 or 1, got {v!r}"
            )
    return "".join("1" if v else "0" for v in values)


def write_tape(
    path: str,
    inputs: Sequence[str],
    rows: Iterable["Mapping[str, int] | Sequence[int]"],
) -> int:
    """Write a stimulus tape; returns the number of cycles written.

    ``rows`` may be any iterable (a generator streams without
    materialising the tape in memory).
    """
    names = list(inputs)
    count = 0
    with open(path, "w") as handle:
        handle.write(f"{TAPE_MAGIC}\n")
        handle.write(f"#inputs {','.join(names)}\n")
        for row in rows:
            handle.write(_row_bits(row, names, count))
            handle.write("\n")
            count += 1
    return count


def random_tape(
    path: str,
    inputs: Sequence[str],
    cycles: int,
    *,
    seed: int = 0,
) -> Tape:
    """A seeded uniform-random stimulus tape (streamed to disk)."""
    rng = random.Random(seed)
    names = list(inputs)
    width = len(names)

    def rows():
        for _ in range(cycles):
            yield [rng.randint(0, 1) for _ in range(width)]

    write_tape(path, names, rows())
    return Tape(path)
