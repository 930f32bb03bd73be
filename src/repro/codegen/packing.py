"""Pattern-lane packing: bit-matrix transposition for compiled passes.

The paper observes (§3) that the generated straight-line code is
"amenable to bit-parallel simulation": every operator the generators
emit except the shifts acts on each bit position independently, so one
pass through the compiled code can evaluate ``word_width`` *different*
input vectors at once if the inputs are transposed — bit ``j`` of input
word ``k`` carries the value of primary input ``k`` in vector ``j``.
This module owns that transposition (packing scalar vectors into lane
words and unpacking lane words back into scalar outputs) and the
eligibility analysis that decides when a program may be driven packed.

Eligibility — the shift-free rule
---------------------------------
Lane independence holds exactly for ``&``, ``|``, ``^`` and ``~``.
Two IR operators cross lanes and disqualify a program:

- shifts (``<<``, ``>>``, ``sar``) — the §3 parallel technique's
  time-shift operations deliberately move history *across* bit
  positions, which is the opposite of keeping lanes independent;
- unary ``-`` (two's-complement negate) — borrow propagation smears
  lane 0 into every higher lane (that is precisely why the parallel
  technique uses it to replicate a bit through the word).

:func:`packing_mode` classifies a program:

``"full"``
    Shift-free *and* memoryless: every variable an expression reads has
    already been written earlier in the same pass.  Packed evaluation
    is bit-identical to a scalar pass in every lane, for every emitted
    output and every state word.  Zero-delay LCC programs are of this
    kind, and so are PC-set programs whose every net settles at a
    single time (a parity tree).
``"none"``
    Everything else.  A shift or negate means one word cannot carry
    several lanes: the §3 parallel technique's *shift programs* run one
    vector per pass.  A read before the write (the PC-set method's
    zero-element moves read the *previous* vector's final values; the
    clocked program reads its flip-flops) threads state from vector to
    vector, which independent lanes cannot reproduce.

One pass carries at most ``word_width`` vectors: every net is one
word.

The byte-level boundary
-----------------------
A packed batch reaches the machine as one byte per value:
:func:`bit_block` joins the rows and decides 0/1 eligibility with a
single ``translate``, and the machine transposes the block into lane
words, runs them and unpacks the scalar-identical words
(:meth:`~repro.codegen.runtime.Machine.run_bit_block`).  Fault grading
and prepared batches take the same transposition
(:meth:`~repro.codegen.runtime.Machine.pack_lanes`).  The C library
transposes in place, crossing the ctypes boundary once each way; the
Python machine runs :func:`pack_patterns` below, the reference the
tests compare the C helpers against.

All packing entry points validate their words against the program's
word width and raise :class:`~repro.errors.SimulationError` on overflow
rather than relying on backend-dependent truncation (ctypes truncates
silently; Python ints do not truncate at all).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro import telemetry
from repro.codegen.program import (
    Assign,
    Bin,
    Emit,
    Expr,
    Program,
    Un,
    Var,
)
from repro.errors import SimulationError

__all__ = [
    "is_shift_free",
    "packing_mode",
    "validate_packed_words",
    "pack_patterns",
    "bit_block",
    "check_integers",
    "packed_apply",
    "packed_bits",
]


# ----------------------------------------------------------------------
# eligibility analysis
# ----------------------------------------------------------------------
def is_shift_free(program: Program) -> bool:
    """True when no operator of ``program`` crosses bit lanes.

    Shifts move bits between lanes by construction; unary negate does
    too (borrow propagation), as do ``+`` (carry propagation) and
    ``popcount`` (collapses the whole word).  Everything else the IR
    can express is lane-wise.
    """
    stats = program.stats()
    return (stats.shifts == 0 and stats.negates == 0
            and stats.adds == 0 and stats.popcounts == 0)


def _reads(expr: Expr):
    if isinstance(expr, Var):
        yield expr.name
    elif isinstance(expr, Bin):
        yield from _reads(expr.a)
        yield from _reads(expr.b)
    elif isinstance(expr, Un):
        yield from _reads(expr.a)


def _reads_state_before_write(program: Program) -> bool:
    """Does any expression read a variable not yet assigned this pass?

    Such a read observes the *previous* vector's value (or the declared
    initial value) — the program carries state between passes.
    """
    written: set[str] = set()
    for stmt in program.statements():
        if isinstance(stmt, (Assign, Emit)):
            for name in _reads(stmt.expr):
                if name not in written:
                    return True
        if isinstance(stmt, Assign):
            written.add(stmt.dest)
    return False


def packing_mode(program: Program) -> str:
    """``"full"`` or ``"none"`` (see module docstring)."""
    if not is_shift_free(program) or _reads_state_before_write(program):
        return "none"
    return "full"


# ----------------------------------------------------------------------
# transposition
# ----------------------------------------------------------------------
def validate_packed_words(
    words: Sequence[int], word_width: int, *, context: str = "packed word"
) -> None:
    """Raise :class:`SimulationError` unless every word is an ``int``
    that fits the width."""
    limit = 1 << word_width
    # Builtins settle the common case; the loop only names the culprit.
    if not words or (
        set(map(type, words)) <= {int, bool}
        and min(words) >= 0 and max(words) < limit
    ):
        return
    for index, word in enumerate(words):
        if not isinstance(word, int):
            raise SimulationError(
                f"{context} {index} = {word!r} is not an integer"
            )
        if not 0 <= word < limit:
            raise SimulationError(
                f"{context} {index} = {word:#x} does not fit "
                f"word_width={word_width}"
            )


def pack_patterns(
    vectors: Sequence[Sequence[int]], word_width: int
) -> tuple[list[list[int]], list[int]]:
    """Transpose scalar 0/1 vectors into per-input lane words.

    Returns ``(groups, lane_counts)``: ``groups[g][k]`` is the packed
    word for input ``k`` of pattern group ``g`` — bit ``j`` holds the
    value of input ``k`` in vector ``g * word_width + j`` — and
    ``lane_counts[g]`` is how many real vectors group ``g`` carries
    (only the last group may be partial; its unused high lanes are
    zero, i.e. they simulate the all-zeros vector).

    Every vector value must be 0 or 1 — a wider value cannot occupy a
    single lane — and every vector must have the same length.
    """
    with telemetry.span("pack"):
        return _pack_patterns(vectors, word_width)


def _pack_patterns(
    vectors: Sequence[Sequence[int]], word_width: int
) -> tuple[list[list[int]], list[int]]:
    groups: list[list[int]] = []
    lane_counts: list[int] = []
    total = len(vectors)
    if total == 0:
        return groups, lane_counts
    num_inputs = len(vectors[0])
    for start in range(0, total, word_width):
        chunk = vectors[start:start + word_width]
        words = [0] * num_inputs
        for j, vector in enumerate(chunk):
            if len(vector) != num_inputs:
                raise SimulationError(
                    f"vector {start + j} has {len(vector)} values, "
                    f"expected {num_inputs}"
                )
            bit = 1 << j
            for k, value in enumerate(vector):
                if value == 1:
                    words[k] |= bit
                elif value != 0:
                    raise SimulationError(
                        f"vector {start + j}, input {k}: pattern value "
                        f"{value!r} is not a single bit (pack one "
                        f"vector per lane, values must be 0/1)"
                    )
        groups.append(words)
        lane_counts.append(len(chunk))
    return groups, lane_counts


def bit_block(
    vectors: Sequence[Sequence[int]], num_inputs: int
) -> Optional[bytearray]:
    """The batch as one byte per value, or ``None`` when it is not 0/1.

    The byte-level boundary of a packed batch
    (:meth:`~repro.codegen.runtime.Machine.run_bit_block`): each row
    becomes ``bytes`` in one call, the rows are joined into one
    ``bytearray``, which the C machine reads in place, and the 0/1
    test is one ``translate`` over the joined block.  Every vector must
    hold ``num_inputs`` values and every value must be an ``int``
    (``bool`` included); either failure raises
    :class:`SimulationError` naming the vector (and the input).  Other
    integers — multi-bit words — make the batch ineligible: ``None``.
    """
    if set(map(len, vectors)) - {num_inputs}:
        for index, vector in enumerate(vectors):
            if len(vector) != num_inputs:
                raise SimulationError(
                    f"vector {index} has {len(vector)} values, "
                    f"expected {num_inputs}"
                )
    try:
        block = bytearray().join(map(bytes, vectors))
    except (TypeError, ValueError):
        # TypeError: a value is not an integer; ValueError: one lies
        # outside 0..255.
        block = None
    # A row exporting a buffer of wider items (an array('H'), say)
    # joins to the wrong length; it takes the per-value path below.
    if block is not None and len(block) == len(vectors) * num_inputs:
        return None if block.translate(None, b"\x00\x01") else block
    check_integers(vectors)
    return None


def check_integers(vectors: Iterable[Sequence[int]]) -> None:
    """Raise :class:`SimulationError` at the first value of ``vectors``
    that is not an ``int``, naming the vector and the input.

    A per-value loop: callers reach it only once a cheaper pass over
    the batch has failed.
    """
    for index, vector in enumerate(vectors):
        for slot, value in enumerate(vector):
            if not isinstance(value, int):
                raise SimulationError(
                    f"vector {index}, input {slot}: value {value!r} is "
                    f"not an integer"
                )


# ----------------------------------------------------------------------
# machine drivers
# ----------------------------------------------------------------------
def packed_bits(
    machine, vectors: Sequence[Sequence[int]], *,
    block: Optional[bytes] = None,
) -> list[list[int]]:
    """Run ``vectors`` pattern-packed; return per-vector output *bits*.

    One compiled pass per ``word_width`` vectors.  Each returned list
    holds the low bit of every emitted output word — the logical values
    a scalar pass would produce in lane 0.  The caller is responsible
    for eligibility (``packing_mode`` full).  ``block`` is the batch's
    :func:`bit_block` when the caller already built it.
    """
    return _packed_rows(machine, vectors, block, fill=False)


def packed_apply(
    machine, vectors: Sequence[Sequence[int]], *,
    block: Optional[bytes] = None,
) -> list[list[int]]:
    """Run ``vectors`` packed; return *scalar-identical* raw output words.

    Requires a ``"full"``-mode program.  A scalar pass on vector ``v``
    feeds input words with bit 0 = the input's value and all higher
    bits 0 — exactly a packed pass over lanes ``[v, 0, 0, ...]``.  So
    the raw word a scalar pass emits is the packed lane-``j`` bit in
    bit 0 plus the all-zeros vector's emitted word in the high bits.
    One extra all-zeros group appended to the batch supplies that fill
    word, making the reconstruction exact for every word width and
    backend.  ``block`` is as for :func:`packed_bits`.
    """
    return _packed_rows(machine, vectors, block, fill=True)


def _packed_rows(machine, vectors, block, *, fill):
    """Shared body of both: one
    :meth:`~repro.codegen.runtime.Machine.run_bit_block` call, whose
    ``fill`` adds the fill group's high bits."""
    if block is None:
        block = bit_block(vectors, machine.num_inputs)
        if block is None:
            raise SimulationError(
                "pattern values must be 0/1 (pack one vector per lane)"
            )
    return machine.run_bit_block(block, len(vectors), fill=fill)
