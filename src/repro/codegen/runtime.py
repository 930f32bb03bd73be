"""Compile and execute generated programs.

Two backends share the :class:`Machine` interface:

- :class:`PythonMachine` — ``compile()``/``exec`` of the generated
  Python coroutine.  Always available; this is what the test suite and
  the default benchmarks use.
- :class:`CMachine` — compiles the generated C with the system C
  compiler into a shared library and calls it through ``ctypes``.
  This restores the genuinely compiled character of the original
  work; use it for absolute performance numbers.

``compile_program(program, backend=...)`` picks one.

Batched execution
-----------------
Both machines expose the same batch entry points, mirroring the
generated ``run_block`` routine each backend compiles in:

- ``run_block(vectors, out=None)`` drives the whole batch from inside
  the generated code (the C library's compiled loop, or the Python
  coroutine's in-frame loop); emitted words are appended flat to the
  caller-supplied list ``out``, or discarded when ``out`` is ``None``.
  It is ``pack_block(vectors)`` (one native word buffer on C, the
  masked rows on Python) followed by ``run_packed(payload, passes)``
  (one ``run_block`` call on C, one opcode-3 send on Python); the
  prepared batches of the timing fast path
  (:meth:`~repro.simbase.CompiledSimulator.prepare_batch`) make the
  two calls apart, and ``run_packed`` runs ``pack_lanes`` rows as
  well.
- ``step_many(vectors)`` returns per-vector output lists, bit-identical
  to an equivalent per-vector ``step()`` loop.
- ``run_packed_block(groups, out=None)`` drives *pattern-packed*
  groups — per-input lane words carrying up to ``word_width`` scalar
  vectors each (see :mod:`repro.codegen.packing`) — through the
  generated packed entry point (Python opcode 4, C
  ``run_packed_block``).  Packed words are validated against the word
  width up front (silent ctypes truncation would corrupt whole lanes,
  not just one vector).
- ``run_bit_block(block, count, fill=...)`` takes a whole batch of
  0/1 vectors as one byte per value and transposes, runs and unpacks
  it: ``pack_lanes``, one ``run_lanes`` batch, and the unpacking (see
  :mod:`repro.codegen.packing`).  The C library unpacks in
  ``unpack_lanes``; the Python machine's loop is the reference.
- ``run_bit_rows(block, count)`` is its scalar counterpart on both
  machines: one vector per ``run_block`` pass, in order, so passes may
  carry state from one vector to the next (a clocked program's
  flip-flops); it returns bit 0 of every emitted word as one byte.
  ``step_bits(block, count)`` runs the same passes and returns every
  vector's full output words, as ``step_many`` would.  On C both cross
  the ctypes boundary through one byte-block path: the block is
  widened into an input buffer the machine holds with one
  extended-slice store, the kernel writes a held output buffer, and
  one slice (bits) or one ``memoryview.cast(...).tolist()`` (words)
  reads it back.  No per-value Python loop runs on either side, and
  a batch allocates no word buffer unless it is the machine's largest
  so far.  The Python machine runs its ``run_block`` loop, the
  reference.
- ``pack_lanes(block, count)`` transposes such a block into the
  machine's lane rows (the library's ``pack_lanes`` on C,
  :func:`~repro.codegen.packing.pack_patterns` on Python), and
  ``run_lanes(lanes, count)`` runs them as one ``run_packed_block``
  batch, returning the packed output words.
- ``screen(lanes, count, goods, start, pins, values)`` is the fault
  screen (:mod:`repro.faults.simulator`): for each pin it resets the
  state to ``start``, writes a pair of state words, runs the lane rows
  in order and returns the first vector whose outputs differ from
  ``goods``.  The C library runs the whole list in one ``screen``
  call; the Python machine's loop, one ``run_packed_block`` per pass
  and one ``load_state`` per pin, is the reference.
  ``CMachine.screen_call`` splits a C screen into its library call,
  which may run on another thread, and its bookkeeping, which may not;
  ``CMachine.sibling`` gives each thread a machine of the one loaded
  library.
- ``CMachine.fold_rows(rows, prev, checksum, toggles)`` folds the
  output bits :meth:`run_bit_rows` returned into a replay's rolling
  checksum and per-output toggle counts inside the library
  (:mod:`repro.replay.harness` holds the Python reference, which
  every other machine and engine runs).

Every batch updates ``machine.counters`` (vectors run, wall time,
vectors/second) so harness and benchmark reports can quote throughput
without re-instrumenting call sites.  Packed batches record the number
of *scalar vectors represented*, not passes, so ``vectors_per_second``
states true pattern throughput.

Program cache
-------------
Repeated harness/benchmark runs rebuild identical programs; the
module-level :class:`ProgramCache` memoizes the expensive compilation
step keyed by ``(sha256 of the generated source, backend, opt_level)``
and nothing else.  Any change to the program changes its source and
misses; probe counters are statements of the source, so a probed
program never aliases its unprobed twin, while two probe requests
that lower to the same statements share one entry.  Python entries
cache the ``compile()``d code object, which each machine ``exec``s
into its own namespace.  C entries are the loaded library itself: the
generated code is reentrant (state is passed by pointer, see
:mod:`repro.codegen.c_emitter`), so every machine of a program shares
one library and owns only its state buffer.  The library is built in
a temporary directory, under fixed file names (a program's name is
free text and never part of a path), that is removed as soon as it is
loaded, so nothing is left on disk.

A miss costs one ``cc`` call, which is most of a cold set-up.  The C
emitter keeps every compiled function short (``step`` runs as parts of
:data:`~repro.codegen.c_emitter.STEP_PART_SIZE` assignments), because
the optimizer's time grows superlinearly with function size, and GCC
builds those parts with only the passes that pay on straight-line code
(:data:`~repro.codegen.c_emitter.STEP_PART_OPTIMIZE`, a pragma in the
source), while the rest of the library takes :attr:`CMachine.OPT_LEVEL`.
Programs past :attr:`CMachine.O0_LINE_THRESHOLD` statements still
build at ``-O0``.  The command line and the cache key are the same
either way: the pragma is part of the source.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.packing import pack_patterns, validate_packed_words
from repro.codegen.program import Comment, Program
from repro.errors import BackendError

__all__ = [
    "Machine",
    "PythonMachine",
    "CMachine",
    "BatchCounters",
    "ProgramCache",
    "program_cache",
    "clear_program_cache",
    "program_fingerprint",
    "compile_program",
    "have_c_compiler",
    "record_run",
]

#: ``bytes.translate`` table keeping bit 0 of every byte.
_BIT0 = bytes(value & 1 for value in range(256))

_C_COMPILER: Optional[str] = None
_C_COMPILER_PROBED = False


def have_c_compiler(force: bool = False) -> Optional[str]:
    """Path of a usable C compiler, or ``None``.

    Checks ``$CC`` then ``cc`` then ``gcc`` then ``clang``; probes once
    and caches.  Pass ``force=True`` to reprobe — needed when ``$CC``
    changes after the first call (test fixtures and CI matrix jobs do
    this), since the cached negative would otherwise stick forever.
    """
    global _C_COMPILER, _C_COMPILER_PROBED
    if _C_COMPILER_PROBED and not force:
        return _C_COMPILER
    _C_COMPILER_PROBED = True
    _C_COMPILER = None
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if path:
            _C_COMPILER = path
            return path
    return None


def program_fingerprint(source: str) -> str:
    """sha256 of a generated source text: the program-cache key core."""
    return hashlib.sha256(source.encode()).hexdigest()


class BatchCounters:
    """Running totals of batched execution on one machine.

    Updated by every ``run_block``/``step_many`` call; benchmark and
    harness reports read ``vectors_per_second`` instead of timing the
    call sites themselves.
    """

    __slots__ = ("batches", "vectors", "seconds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.batches = 0
        self.vectors = 0
        self.seconds = 0.0

    def record(self, vectors: int, seconds: float) -> None:
        self.batches += 1
        self.vectors += vectors
        self.seconds += seconds

    @property
    def vectors_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.vectors / self.seconds

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "vectors": self.vectors,
            "seconds": self.seconds,
            "vectors_per_second": self.vectors_per_second,
        }

    def __repr__(self) -> str:
        return (
            f"BatchCounters({self.vectors} vectors in {self.batches} "
            f"batches, {self.seconds:.4f}s, "
            f"{self.vectors_per_second:.0f} vec/s)"
        )


class ProgramCache:
    """LRU cache of compiled programs keyed by their source.

    Keys are ``(program_fingerprint(source), backend, opt_level)``.
    Python entries are code objects (each machine still ``exec``s its
    own namespace, so machines never share state).  C entries are
    loaded libraries (:class:`ctypes.CDLL`), shared by every machine of
    the program; each machine passes its own state buffer.  Eviction
    does not unload a library: machines may still call it, and ctypes
    never ``dlclose``s.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __len__(self) -> int:
        return len(self._entries)


_PROGRAM_CACHE = ProgramCache()


def program_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _PROGRAM_CACHE


def clear_program_cache() -> None:
    """Drop every cached program (mainly for tests)."""
    _PROGRAM_CACHE.clear()


def record_run(vectors: int, seconds: float, batches: int = 1) -> None:
    """The ``run`` phase and ``run.*`` counters of ``batches`` batches
    that took ``seconds`` of wall time in all, measured by the caller
    (side by side on threads when ``batches`` > 1)."""
    if telemetry.enabled():
        telemetry.record_phase("run", seconds, batches)
        telemetry.counter("run.batches", batches)
        telemetry.counter("run.vectors", vectors)


class Machine:
    """A compiled straight-line simulation program, ready to run.

    ``step(V)`` runs one vector (``V`` is a sequence of input words in
    the program's input order) and returns the emitted output words.
    ``step_many(VS)``/``run_block(VS, out)`` run whole batches with the
    vector loop inside the generated code (see the module docstring).
    ``dump_state()``/``load_state()`` expose the persistent variables in
    declaration order — this is how simulators seed the previous-vector
    steady state.
    """

    program: Program

    #: Vector words per net: always one.  The repository benchmark's
    #: tracer (``benchmarks/suite/trace.py``) reads it to count the
    #: lanes each ``run_packed_block`` pass carries.
    tiles = 1

    def __init__(self, program: Program) -> None:
        self.program = program
        self.interface = program.interface()
        self.counters = BatchCounters()

    def _record_batch(self, vectors: int, seconds: float) -> None:
        """One hook behind every batch: counters + the ``run`` phase."""
        self.counters.record(vectors, seconds)
        record_run(vectors, seconds)

    @property
    def num_inputs(self) -> int:
        return self.interface.num_inputs

    @property
    def num_state(self) -> int:
        return self.interface.num_state

    @property
    def num_outputs(self) -> int:
        return self.interface.num_emits

    def output_labels(self) -> list[tuple]:
        return self.interface.output_labels()

    def step(self, vector: Sequence[int]) -> list[int]:
        raise NotImplementedError

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        """Run a batch inside the generated code.

        Emitted words are appended flat (vector order) to ``out``;
        ``out=None`` discards them — the timing fast path.  ``masked``
        promises the vectors are already word-masked lists of the right
        length (the simulator layer marshals once, outside any timed
        region) and skips re-validation.
        """
        raise NotImplementedError

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        """Run pattern-packed groups inside the generated code.

        Each group is a list of ``num_inputs`` lane words (bit ``j`` of
        word ``k`` = input ``k`` of packed vector ``j``); emitted packed
        words are appended flat to ``out`` in group order.  Every word
        is validated against the word width (:class:`SimulationError`
        on overflow) — an oversized lane word would silently corrupt
        every lane on the C backend.  ``vectors_represented`` is what
        the throughput counters record (default: full groups,
        ``len(groups) * word_width``).
        """
        raise NotImplementedError

    def pack_block(self, vectors: Sequence[Sequence[int]]):
        """Marshal a batch for :meth:`run_packed`, one row per pass.

        Every vector must hold ``num_inputs`` words
        (:class:`BackendError` otherwise); words are cut to the word
        width.
        """
        raise NotImplementedError

    def run_packed(
        self, packed, count: int, out_buffer=None,
        *, vectors_represented: Optional[int] = None,
    ) -> None:
        """Run the ``count`` passes of ``packed`` inside the generated
        ``run_block`` loop.

        ``packed`` comes from :meth:`pack_block` (one vector per pass)
        or :meth:`pack_lanes` (``word_width`` vectors per pass; give
        ``vectors_represented`` so the counters record vectors, not
        passes).  ``out_buffer`` receives the emitted words: a list
        to extend on the Python machine, a word array of at least
        ``count * num_outputs`` words on the C machine; ``None``
        discards them, the timing fast path.
        """
        raise NotImplementedError

    def run_bit_block(
        self, block: bytes, count: int, *, fill: bool
    ) -> list[list[int]]:
        """Run ``count`` 0/1 vectors pattern-packed; return output rows.

        ``block`` holds one byte per input value, vector after vector,
        every byte 0 or 1 (:func:`~repro.codegen.packing.bit_block`
        builds and checks it).  :meth:`pack_lanes` transposes it into
        lane words — plus the all-zeros fill group when ``fill`` — one
        :meth:`run_lanes` batch runs the passes, and each vector's
        output words are unpacked: the lane bit in bit 0 and, with
        ``fill``, the fill group's high bits, exactly the words a
        scalar pass emits (:func:`~repro.codegen.packing.packed_apply`).
        """
        raise NotImplementedError

    def run_bit_rows(self, block: bytes, count: int) -> bytes:
        """Run ``count`` 0/1 vectors one per pass; return output bits.

        ``block`` holds one byte per input value, vector after vector,
        every byte 0 or 1.  The vectors run in order through the
        scalar ``run_block`` kernel, so each pass sees the state the
        previous one left.  The result holds bit 0 of every emitted
        word as one byte, vector after vector (``bytes`` on the Python
        machine, a fresh ``bytearray`` on the C machine).
        """
        raise NotImplementedError

    def step_bits(self, block: bytes, count: int) -> list[list[int]]:
        """Run ``count`` 0/1 vectors one per pass; return output words.

        The full-word sibling of :meth:`run_bit_rows`: the same block
        and the same passes, and every vector's emitted words as one
        list, bit-identical to :meth:`step_many` of the block's rows.
        """
        raise NotImplementedError

    def _bit_vectors(self, block: bytes, count: int) -> list[bytes]:
        """The rows of a bit block, one ``bytes`` per vector.

        A ``bytes`` row indexes to ints, which is all ``V[k]`` needs.
        """
        self._check_bit_block(block, count)
        width = self.num_inputs
        return [block[i * width:(i + 1) * width] for i in range(count)]

    def pack_lanes(self, block: bytes, count: int):
        """``count`` 0/1 vectors of ``block`` as lane rows, one per pass.

        Pass ``g`` carries vectors ``g*W .. g*W+W-1``; the last pass's
        lanes past ``count`` are zero.  The rows are in the form
        :meth:`run_lanes` and :meth:`screen` take.
        """
        raise NotImplementedError

    def run_lanes(self, lanes, count: int):
        """Run every pass of ``lanes`` as one ``run_packed_block`` batch.

        Returns the packed output words, ``num_outputs`` per pass;
        ``count`` is the number of vectors the counters record.
        """
        raise NotImplementedError

    def screen(
        self,
        lanes,
        count: int,
        goods,
        start: Sequence[int],
        pins: Sequence[int],
        values: Sequence[int],
    ) -> list[int]:
        """For each pin, the first vector whose outputs differ from ``goods``.

        ``lanes`` carry ``count`` vectors (:meth:`pack_lanes`) and
        ``goods`` are the words :meth:`run_lanes` returned for them from
        the state ``start``.  Pin ``f`` resets the state to ``start``,
        sets state word ``pins[f]`` to 0 and word ``pins[f] + 1`` to
        ``values[f]``, and runs the passes in order until one emits a
        word that differs from the good one in a lane below ``count``.
        Its entry is that lane's vector index, or -1 when no pass
        differs.  The state is left as the last pin's run left it.
        """
        raise NotImplementedError

    def _check_screen(self, rows, count, goods, start, pins, values) -> None:
        """Sizes and pin bounds of a :meth:`screen` call, checked before
        any word is written: a pin outside the state would write past
        the C state buffer, and a pin without its value would be graded
        against a zero the C call fills in."""
        if len(values) != len(pins):
            raise BackendError(
                f"screen of {len(pins)} pins got {len(values)} values"
            )
        passes = -(-count // self.program.word_width)
        if rows != passes or len(goods) < passes * self.num_outputs:
            raise BackendError(
                f"screen of {count} vectors needs {passes} lane rows and "
                f"their good words, got {rows} rows and {len(goods)} words"
            )
        if len(start) != self.num_state:
            raise BackendError(
                f"state has {self.num_state} words, got {len(start)}"
            )
        if pins and (min(pins) < 0 or max(pins) + 1 >= self.num_state):
            raise BackendError(
                f"pin words {min(pins)}..{max(pins) + 1} lie outside the "
                f"state of {self.num_state} words"
            )

    def _check_bit_block(self, block: bytes, count: int) -> None:
        if len(block) != count * self.num_inputs:
            raise BackendError(
                f"bit block has {len(block)} bytes, expected {count} "
                f"vectors of {self.num_inputs}"
            )

    def _packed_count(
        self,
        groups: Sequence[Sequence[int]],
        vectors_represented: Optional[int],
    ) -> int:
        if vectors_represented is not None:
            return vectors_represented
        return len(groups) * self.program.word_width

    def _validate_group(self, index: int, group: Sequence[int]) -> None:
        if len(group) != self.num_inputs:
            raise BackendError(
                f"packed group {index} has {len(group)} words, expected "
                f"{self.num_inputs}"
            )
        # Name the scalar vectors an overflowing lane word would
        # corrupt, not just the width limit.
        lanes = self.program.word_width
        first = index * lanes
        validate_packed_words(
            group, self.program.word_width,
            context=(
                f"packed group {index} (vectors {first}.."
                f"{first + lanes - 1}), input word"
            ),
        )

    def step_many(
        self,
        vectors: Sequence[Sequence[int]],
        *,
        masked: bool = False,
    ) -> list[list[int]]:
        """Run a batch; return per-vector output lists.

        Bit-identical to ``[self.step(v) for v in vectors]``, minus the
        per-vector dispatch overhead.
        """
        flat: list[int] = []
        self.run_block(vectors, flat, masked=masked)
        n = self.num_outputs
        if n == 0:
            return [[] for _ in vectors]
        return [flat[i:i + n] for i in range(0, len(flat), n)]

    def dump_state(self) -> list[int]:
        raise NotImplementedError

    def load_state(self, values: Sequence[int]) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict[str, int]:
        """Persistent state keyed by variable name."""
        return dict(zip(self.program.state_vars, self.dump_state()))


class PythonMachine(Machine):
    """Generated Python coroutine backend."""

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self.source = program.python_source()
        key = (program_fingerprint(self.source), "python", "")
        code = _PROGRAM_CACHE.get(key)
        if code is None:
            with telemetry.span("cc", backend="python",
                                program=program.name):
                code = compile(self.source, f"<repro:{program.name}>",
                               "exec")
            _PROGRAM_CACHE.put(key, code)
        namespace: dict = {}
        exec(code, namespace)
        self._gen = namespace["machine"]()
        next(self._gen)  # prime

    def _marshal(self, vector: Sequence[int]) -> list[int]:
        # Mask to the word width: Python ints are unbounded, while the
        # C backend's ctypes buffers truncate silently — without this
        # the two backends diverge on oversized inputs.
        if len(vector) != self.num_inputs:
            raise BackendError(
                f"vector has {len(vector)} words, expected "
                f"{self.num_inputs}"
            )
        mask = self.program.word_mask
        return [value & mask for value in vector]

    def step(self, vector: Sequence[int]) -> list[int]:
        return self._gen.send((0, self._marshal(vector)))

    def pack_block(self, vectors: Sequence[Sequence[int]]) -> list[list[int]]:
        """The masked rows."""
        return [self._marshal(vector) for vector in vectors]

    def run_packed(
        self, packed, count: int, out_buffer: Optional[list[int]] = None,
        *, vectors_represented: Optional[int] = None,
    ) -> None:
        """One opcode-3 send: the coroutine's in-frame ``run_block``
        loop over the rows of ``packed``, ``count`` of them."""
        sink = [] if out_buffer is None else out_buffer
        start = time.perf_counter()
        self._gen.send((3, packed, sink))
        self._record_batch(
            count if vectors_represented is None else vectors_represented,
            time.perf_counter() - start,
        )

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        if not masked:
            vectors = self.pack_block(vectors)
        self.run_packed(vectors, len(vectors), out)
        return out

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        for index, group in enumerate(groups):
            self._validate_group(index, group)
        sink = [] if out is None else out
        start = time.perf_counter()
        self._gen.send((4, groups, sink))
        self._record_batch(
            self._packed_count(groups, vectors_represented),
            time.perf_counter() - start,
        )
        return out

    def run_bit_rows(self, block: bytes, count: int) -> bytes:
        words: list[int] = []
        self.run_block(self._bit_vectors(block, count), words, masked=True)
        return bytes([word & 1 for word in words])

    def step_bits(self, block: bytes, count: int) -> list[list[int]]:
        return self.step_many(self._bit_vectors(block, count), masked=True)

    def pack_lanes(self, block: bytes, count: int) -> list[list[int]]:
        rows = self._bit_vectors(block, count)
        return pack_patterns(rows, self.program.word_width)[0]

    def run_lanes(self, lanes, count: int) -> list[int]:
        out: list[int] = []
        self.run_packed_block(lanes, out, vectors_represented=count)
        return out

    def run_bit_block(
        self, block: bytes, count: int, *, fill: bool
    ) -> list[list[int]]:
        """The reference the C library's transposition is held to."""
        lanes = self.pack_lanes(block, count)
        if not lanes:
            return []
        if fill:
            lanes.append([0] * self.num_inputs)  # every lane all-zeros
        flat = self.run_lanes(lanes, count)
        span = self.num_outputs
        words = [flat[g * span:(g + 1) * span] for g in range(len(lanes))]
        high = self.program.word_mask ^ 1
        fills = [word & high for word in words[-1]] if fill else [0] * span
        width = self.program.word_width
        with telemetry.span("unpack"):
            return [
                [((word >> j) & 1) | rest for word, rest in zip(group, fills)]
                for g, group in enumerate(words)
                for j in range(min(width, count - g * width))
            ]

    def screen(self, lanes, count, goods, start, pins, values):
        self._check_screen(len(lanes), count, goods, start, pins, values)
        width = self.program.word_width
        emits = self.num_outputs
        firsts: list[int] = []
        for pin, value in zip(pins, values):
            state = list(start)
            state[pin] = 0
            state[pin + 1] = value
            self.load_state(state)
            first = -1
            for g, group in enumerate(lanes):
                carried = min(width, count - g * width)
                out: list[int] = []
                self.run_packed_block(
                    [group], out, vectors_represented=carried
                )
                diff = 0
                for o in range(emits):
                    diff |= out[o] ^ goods[g * emits + o]
                diff &= (1 << carried) - 1
                if diff:
                    first = g * width + (diff & -diff).bit_length() - 1
                    break
            firsts.append(first)
        return firsts

    def dump_state(self) -> list[int]:
        return self._gen.send((1,))

    def load_state(self, values: Sequence[int]) -> None:
        if len(values) != self.num_state:
            raise BackendError(
                f"state has {self.num_state} words, got {len(values)}"
            )
        mask = self.program.word_mask
        self._gen.send((2, [value & mask for value in values]))


class CMachine(Machine):
    """Generated C + system compiler + ctypes backend.

    The loaded library comes from the program cache and is shared by
    every machine of the program; a machine owns only its state buffer,
    initialised from ``Program.state_init`` and bound as the first
    argument of each kernel in :attr:`_entry`, so the pass entries keep
    the ``(V, OUT)`` and ``(V, n, OUT)`` call shapes (``screen`` takes
    the rest of its C arguments, see :meth:`screen`).  ``dump_state``
    and ``load_state`` read and write that buffer directly.

    Scalar 0/1 batches (:meth:`run_bit_rows`, :meth:`step_bits`) cross
    the ctypes boundary through two more buffers the machine holds: an
    input and an output ``bytearray``, each viewed as words.  Each
    grows, zeroed, only when a batch needs more words than any batch
    before, so it lives as long as the machine and is as large as its
    largest batch: about 1 MB each way for 4096 vectors of 32 inputs
    and 32 words out at 64 bits.  Like the state buffer, the held
    buffers serve one caller at a time: a machine is not shared
    between threads.  Threads share a program through sibling
    machines instead, each with its own state (fault grading's
    ``workers``, see :meth:`screen_call`).
    """

    _CTYPE = {
        8: ctypes.c_uint8,
        16: ctypes.c_uint16,
        32: ctypes.c_uint32,
        64: ctypes.c_uint64,
    }

    #: Native ``memoryview`` format of each word width.
    _FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}

    #: The library's kernel entry points, each taking the state first.
    _KERNELS = ("step", "run_block", "run_packed_block", "screen")

    #: The library's level.  Under GCC the ``step_<i>`` parts build
    #: with :data:`~repro.codegen.c_emitter.STEP_PART_OPTIMIZE`
    #: instead; ``step``, the batch drivers and the helpers' loops keep
    #: this one.
    OPT_LEVEL = "-O1"

    #: Programs beyond this many statements compile at -O0: C
    #: optimizers behave superlinearly on huge straight-line functions
    #: (amusingly, the paper hit a compiler bug on exactly the same two
    #: circuits' cycle-breaking programs).  ``step`` is emitted as parts
    #: of :data:`~repro.codegen.c_emitter.STEP_PART_SIZE` assignments,
    #: which bounds each function, yet the threshold stays: the one
    #: program past it, the PC-set c6288 program (126,670 statements),
    #: took 164 s at -O1 against 30 s at -O0 in parts of 250, and still
    #: 47 s at -O1 against 26 s at -O0 in parts of 50 under the parts'
    #: ``-Og`` pragma (EXPERIMENTS.md, "Step parts at -Og").
    O0_LINE_THRESHOLD = 60_000

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        compiler = have_c_compiler()
        if compiler is None:
            raise BackendError(
                "no C compiler found; use the python backend instead"
            )
        self.source = program.c_source()
        # Stats' source_lines, without walking the expressions.
        lines = sum(not isinstance(stmt, Comment)
                    for stmt in program.statements())
        opt_level = ("-O0" if lines > self.O0_LINE_THRESHOLD
                     else self.OPT_LEVEL)
        #: The level the library was built at (the program cache key's).
        self.opt_level = opt_level
        word = self._CTYPE[program.word_width]
        self._word = word
        key = (program_fingerprint(self.source), "c", opt_level)
        lib = _PROGRAM_CACHE.get(key)
        if lib is None:
            lib = self._build(compiler, opt_level)
            _PROGRAM_CACHE.put(key, lib)
        self._lib = lib
        self._num_outputs = self.interface.num_emits
        self._size = ctypes.sizeof(word)
        # The byte of a word that holds its low 8 bits.
        self._low = 0 if sys.byteorder == "little" else self._size - 1
        self._own_buffers()

    def _own_buffers(self) -> None:
        """What a machine owns: a fresh state and its own buffers."""
        word = self._word
        program = self.program
        self._state = (word * max(1, self.num_state))(*[
            program.state_init[name] for name in program.state_vars
        ])
        self._entry = {
            name: functools.partial(getattr(self._lib, name), self._state)
            for name in self._KERNELS
        }
        self._v_buffer = (word * max(1, self.num_inputs))()
        self._out_buffer = (word * max(1, self._num_outputs))()
        self._in_bytes, self._in_words = self._held_buffer(1)
        self._out_bytes, self._out_words = self._held_buffer(1)

    def sibling(self) -> "CMachine":
        """A machine of the same loaded library with a fresh state and
        its own buffers and counters: no render, hash or cache lookup."""
        twin = copy.copy(self)
        twin.counters = BatchCounters()
        twin._own_buffers()
        return twin

    def _build(self, compiler: str, opt_level: str) -> ctypes.CDLL:
        """Compile and load the library; leave nothing on disk.

        The loader keeps the mapping after the directory is removed.
        The files have fixed names: a program name is free text and
        never becomes part of a path.
        """
        with tempfile.TemporaryDirectory(prefix="repro_c_") as work:
            c_path = os.path.join(work, "program.c")
            so_path = os.path.join(work, "program.so")
            with open(c_path, "w") as handle:
                handle.write(self.source)
            with telemetry.span("cc", backend="c", opt=opt_level,
                                program=self.program.name):
                self._compile(compiler, opt_level, c_path, so_path)
            lib = ctypes.CDLL(so_path)
        word = ctypes.POINTER(self._word)
        count = ctypes.c_long
        # pack_lanes/unpack_lanes are the byte-level boundary of
        # run_bit_block and fault grading, and fold_rows that of
        # replay: helpers, not kernels, so they take no state.
        longs = ctypes.POINTER(count)
        signatures = {
            "step": [word, word, word],
            "run_block": [word, word, count, word],
            "run_packed_block": [word, word, count, word],
            "pack_lanes": [ctypes.c_char_p, count, count, word],
            "unpack_lanes": [word, count, ctypes.c_int, word],
            "screen": [word, word, word, count, word, count, longs, word,
                       longs],
            "fold_rows": [ctypes.c_char_p, count, count, ctypes.c_char_p,
                          ctypes.POINTER(ctypes.c_uint64),
                          ctypes.POINTER(ctypes.c_int64)],
        }
        for symbol, argtypes in signatures.items():
            function = getattr(lib, symbol)
            function.argtypes = argtypes
            function.restype = None
        return lib

    def _compile(
        self, compiler: str, opt_level: str, c_path: str, so_path: str
    ) -> None:
        # -Bsymbolic binds the intra-library run_block -> step call at
        # link time; some sandboxed loaders cannot lazily resolve PLT
        # entries of dlopen'd libraries and would crash otherwise.
        cmd = [
            compiler, *opt_level.split(), "-shared", "-fPIC",
            "-Wl,-Bsymbolic", "-Wl,-z,now",
            c_path, "-o", so_path,
        ]
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            raise BackendError(
                f"C compilation failed ({' '.join(cmd)}):\n{result.stderr}"
            )

    def step(self, vector: Sequence[int]) -> list[int]:
        if len(vector) != self.num_inputs:
            raise BackendError(
                f"vector has {len(vector)} words, expected "
                f"{self.num_inputs}"
            )
        buf = self._v_buffer
        for i, value in enumerate(vector):
            buf[i] = value  # ctypes truncates to the word width
        self._entry["step"](buf, self._out_buffer)
        return list(self._out_buffer[: self._num_outputs])

    def pack_block(self, vectors: Sequence[Sequence[int]]):
        """Marshal a vector batch into one contiguous C buffer.

        Do this once outside the timed region; the generated
        ``run_block`` then drives the whole batch from inside the
        shared library with no per-vector interpreter work — matching
        the paper's timing, whose per-vector loop was compiled too.

        Every vector must have exactly ``num_inputs`` words: a
        mismatched vector would silently overrun into (or underfill)
        the next vector's slot.
        """
        width = self.num_inputs
        count = max(1, len(vectors))
        flat = (self._word * (max(1, width) * count))()
        pos = 0
        for index, vector in enumerate(vectors):
            if len(vector) != width:
                raise BackendError(
                    f"vector {index} has {len(vector)} words, expected "
                    f"{width}"
                )
            for value in vector:
                flat[pos] = value
                pos += 1
        return flat

    def run_packed(
        self, packed, count: int, out_buffer=None,
        *, vectors_represented: Optional[int] = None,
    ) -> None:
        """Run ``count`` marshalled vectors entirely inside the library.

        ``out_buffer`` is an optional ctypes array of at least
        ``count * num_outputs`` words; ``None`` discards outputs.  When
        the buffer holds pattern-packed groups rather than scalar
        vectors, pass ``vectors_represented`` so the throughput
        counters record lanes instead of passes.
        """
        start = time.perf_counter()
        self._entry["run_block"](packed, count, out_buffer)
        self._record_batch(
            count if vectors_represented is None else vectors_represented,
            time.perf_counter() - start,
        )

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        # ``masked`` is accepted for interface symmetry; the ctypes
        # buffer truncates to the word width either way.
        packed = self.pack_block(vectors)
        if out is None:
            self.run_packed(packed, len(vectors))
            return None
        buffer = (self._word * max(1, len(vectors) * self._num_outputs))()
        self.run_packed(packed, len(vectors), buffer)
        out.extend(buffer[: len(vectors) * self._num_outputs])
        return out

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        for index, group in enumerate(groups):
            self._validate_group(index, group)
        buffer = self.pack_block(groups)
        count = self._packed_count(groups, vectors_represented)
        start = time.perf_counter()
        if out is None:
            self._entry["run_packed_block"](buffer, len(groups), None)
            self._record_batch(count, time.perf_counter() - start)
            return None
        out_buffer = (
            self._word * max(1, len(groups) * self._num_outputs)
        )()
        self._entry["run_packed_block"](buffer, len(groups), out_buffer)
        self._record_batch(count, time.perf_counter() - start)
        out.extend(out_buffer[: len(groups) * self._num_outputs])
        return out

    def run_bit_block(
        self, block: bytes, count: int, *, fill: bool
    ) -> list[list[int]]:
        """The batch crosses the ctypes boundary once each way: the
        library's ``pack_lanes`` in, its ``unpack_lanes`` out."""
        if count == 0:
            self._check_bit_block(block, count)
            return []
        out = self.run_lanes(self.pack_lanes(block, count, fill=fill), count)
        emits = self.interface.num_emits
        if emits == 0:
            return [[] for _ in range(count)]
        rows = (self._word * (count * emits))()
        with telemetry.span("unpack"):
            self._lib.unpack_lanes(out, count, int(fill), rows)
            return memoryview(rows).cast("B").cast(
                self._FORMAT[self.program.word_width], (count, emits)
            ).tolist()

    def pack_lanes(self, block: bytes, count: int, *, fill: bool = False):
        """The library's ``pack_lanes``: a word array of pass rows.

        With ``fill`` one all-zeros pass follows the batch's passes.  A
        ``bytearray`` block, which :func:`~repro.codegen.packing.bit_block`
        returns, is read in place (:func:`_chars`).
        """
        # pack_lanes reads count * inputs bytes, no more.
        self._check_bit_block(block, count)
        passes = -(-count // self.program.word_width) + bool(fill)
        lanes = (self._word * (passes * max(1, self.num_inputs)))()
        with telemetry.span("pack"):
            self._lib.pack_lanes(_chars(block), count, passes, lanes)
        return lanes

    def run_lanes(self, lanes, count: int):
        passes = len(lanes) // max(1, self.num_inputs)
        out = (self._word * max(1, passes * self._num_outputs))()
        start = time.perf_counter()
        self._entry["run_packed_block"](lanes, passes, out)
        self._record_batch(count, time.perf_counter() - start)
        return out

    def screen(self, lanes, count, goods, start, pins, values):
        """One library call grades every pin (see :meth:`Machine.screen`).

        The counters record one batch of the vectors the passes carried:
        each pin's passes up to and including its first differing one.
        """
        call, finish = self.screen_call(
            lanes, count, goods, start, pins, values
        )
        seconds = call()
        firsts, vectors = finish(seconds)
        record_run(vectors, seconds)
        return firsts

    def screen_call(self, lanes, count, goods, start, pins, values):
        """:meth:`screen`, checked and marshalled but not yet run.

        Returns ``(call, finish)``.  ``call()`` runs the library's
        ``screen`` and nothing else, and returns its seconds: it writes
        only the arrays built here, and ctypes releases the GIL for the
        call, so sibling machines of one program may run theirs on
        other threads at the same time over shared ``lanes`` and
        ``goods``.  ``finish(seconds)`` records the batch in the
        machine's counters, which are not thread-safe, and returns the
        first detections and the vectors the passes carried; it belongs
        on the calling thread, which records the telemetry
        (:func:`record_run`).
        """
        self._check_screen(
            len(lanes) // max(1, self.num_inputs), count, goods, start,
            pins, values,
        )
        word = self._word
        pinned = len(pins)
        longs = ctypes.c_long * max(1, pinned)
        fresh = (word * max(1, len(start)))(*start)
        pin_words = longs(*pins)
        pin_values = (word * max(1, pinned))(*values)
        found = longs()
        kernel = self._entry["screen"]

        def call() -> float:
            begin = time.perf_counter()
            kernel(
                fresh, lanes, count, goods, pinned, pin_words, pin_values,
                found,
            )
            return time.perf_counter() - begin

        def finish(seconds: float) -> tuple[list[int], int]:
            width = self.program.word_width
            firsts = found[:pinned]
            vectors = sum(
                count if first < 0
                else min(count, (first // width + 1) * width)
                for first in firsts
            )
            self.counters.record(vectors, seconds)
            return firsts, vectors

        return call, finish

    def _held_buffer(self, words: int):
        """A zeroed ``bytearray`` of ``words`` words and its word view."""
        raw = bytearray(words * self._size)
        return raw, (self._word * words).from_buffer(raw)

    def _run_bits(self, block: bytes, count: int) -> bytearray:
        """Run a 0/1 block through the held buffers; return the output.

        One extended-slice store widens ``block`` into the held input
        words: each byte lands in the low byte of its word (which byte
        that is depends on ``sys.byteorder``).  The store reads a
        ``bytearray`` block in place (what ``Tape.read_bits`` and
        :func:`~repro.codegen.packing.bit_block` return) but first
        copies any other, ``bytes`` included, into a temporary
        ``bytearray`` of the block's size.  Nothing else ever
        writes the input buffer, so the other bytes stay zero and it
        is never re-zeroed.  The scalar ``run_block`` kernel then
        writes the held output words; the first ``count *
        num_outputs`` of them are this batch's, and they stay valid
        until the machine's next batch.
        """
        self._check_bit_block(block, count)
        size = self._size
        values = len(block)
        emitted = count * self._num_outputs
        if len(self._in_words) < values:
            self._in_bytes, self._in_words = self._held_buffer(values)
        if len(self._out_words) < emitted:
            self._out_bytes, self._out_words = self._held_buffer(emitted)
        # An empty extended-slice store counts as a resize, which the
        # exported buffer refuses; an empty block has nothing to store.
        with telemetry.span("pack"):
            if values:
                self._in_bytes[self._low:values * size:size] = block
        start = time.perf_counter()
        self._entry["run_block"](self._in_words, count, self._out_words)
        self._record_batch(count, time.perf_counter() - start)
        return self._out_bytes

    def run_bit_rows(self, block: bytes, count: int) -> bytearray:
        """Run through the held buffers; narrow the outputs to bits.

        The low byte of every output word is cut out of the held
        output buffer with one bytearray slice and reduced to bit 0
        with ``translate``.
        """
        out = self._run_bits(block, count)
        size = self._size
        with telemetry.span("unpack"):
            return out[
                self._low:count * self._num_outputs * size:size
            ].translate(_BIT0)

    def step_bits(self, block: bytes, count: int) -> list[list[int]]:
        """Run through the held buffers; return each vector's words."""
        out = self._run_bits(block, count)
        emits = self._num_outputs
        with telemetry.span("unpack"):
            if not count * emits:
                # memoryview.cast refuses a zero in the shape.
                return [[] for _ in range(count)]
            return memoryview(out)[:count * emits * self._size].cast(
                self._FORMAT[self.program.word_width], (count, emits)
            ).tolist()

    def fold_rows(self, rows, prev, checksum, toggles) -> None:
        """Fold output rows into a replay's checksum and toggle counts.

        The library's ``fold_rows`` with the arguments of its Python
        reference, ``repro.replay.harness._fold_rows``: ``rows``
        holds rows of ``len(toggles)`` 0/1 bytes, ``prev`` the row
        before them or ``None``; ``checksum`` (a ``c_uint64``) and
        ``toggles`` (a ``c_int64`` array, one count per column) are
        updated in place.  A ``bytearray``, which :meth:`run_bit_rows`
        returns, is read in place (:func:`_chars`), so no row is copied.
        """
        width = len(toggles)
        count = len(rows) // width if width else 0
        if len(rows) != count * width:
            raise BackendError(
                f"{len(rows)} row bytes are not whole rows of {width}"
            )
        if prev is not None and len(prev) != width:
            raise BackendError(
                f"previous row has {len(prev)} bytes, expected {width}"
            )
        self._lib.fold_rows(
            _chars(rows), count, width, _chars(prev), checksum, toggles
        )

    def dump_state(self) -> list[int]:
        return self._state[: self.num_state]

    def load_state(self, values: Sequence[int]) -> None:
        if len(values) != self.num_state:
            raise BackendError(
                f"state has {self.num_state} words, got {len(values)}"
            )
        mask = self.program.word_mask
        self._state[: self.num_state] = [value & mask for value in values]


def _chars(data):
    """A ``bytearray`` or a ``memoryview`` of one as a ``c_char`` array
    on its own memory, for a ``c_char_p`` argument, which refuses
    both; ``bytes`` and ``None`` pass as they are."""
    if isinstance(data, (bytearray, memoryview)):
        return (ctypes.c_char * len(data)).from_buffer(data)
    return data


def compile_program(program: Program, backend: str = "python") -> Machine:
    """Compile a program with the chosen backend, ``"python"`` or
    ``"c"``; a C program's level follows its size
    (:attr:`CMachine.O0_LINE_THRESHOLD`)."""
    if backend == "python":
        return PythonMachine(program)
    if backend == "c":
        return CMachine(program)
    raise BackendError(f"unknown backend: {backend!r}")
