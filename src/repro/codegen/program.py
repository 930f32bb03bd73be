"""A tiny IR for straight-line word programs.

Every compiled-simulation technique in the paper generates code of the
same restricted shape: a sequence of assignments of bit-wise expressions
over fixed-width unsigned words, "executing in straight-line fashion
without tests or branches" (§1).  This module models exactly that —
variables, constants, unary ``~``/``-``, binary ``&``/``|``/``^`` and
shifts by constant amounts — and nothing more.  Keeping the IR this
small is what lets one program run identically on the Python backend
and on the gcc backend.

A :class:`Program` has three sections, mirroring the paper's code
layout:

``init``
    Executed first for each vector: reads primary-input words from the
    vector ``V`` and re-initializes whatever must carry over from the
    previous vector (§2's zero-element moves, §3's bit-0 shifts).
``body``
    The gate simulations, in levelized order.
``output``
    The output routine: :class:`Emit` statements appending sampled
    values to the output list.  Benchmarks compile programs without
    this section, matching the paper's timing methodology ("none of the
    execution times include ... printing output", §5).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import CodegenError

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Input",
    "Un",
    "Bin",
    "Stmt",
    "Assign",
    "Emit",
    "Comment",
    "Program",
    "ProgramStats",
    "MachineInterface",
    "retarget_expr",
    "retarget_stmt",
    "v",
    "c",
]


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of expression nodes."""

    __slots__ = ()

    # Convenience constructors so generator code reads like the paper's
    # listings: ``(a & b) << 1`` etc.
    def __and__(self, other: "Expr") -> "Bin":
        return Bin("&", self, other)

    def __or__(self, other: "Expr") -> "Bin":
        return Bin("|", self, other)

    def __xor__(self, other: "Expr") -> "Bin":
        return Bin("^", self, other)

    def __lshift__(self, amount: int) -> "Bin":
        return Bin("<<", self, Const(amount))

    def __rshift__(self, amount: int) -> "Bin":
        return Bin(">>", self, Const(amount))

    def __invert__(self) -> "Un":
        return Un("~", self)

    def __neg__(self) -> "Un":
        return Un("-", self)

    def __add__(self, other: "Expr") -> "Bin":
        return Bin("+", self, other)


class Var(Expr):
    """A reference to a state variable or a vector slot (``V[k]``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Const(Expr):
    """An integer literal (always non-negative in well-formed programs)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value})"


class Input(Expr):
    """A read of vector slot ``V[slot]`` (a primary-input word)."""

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def __repr__(self) -> str:
        return f"Input(V[{self.slot}])"


class Un(Expr):
    """Unary ``~`` (NOT), ``-`` (negate) or ``popcount``.

    ``-x`` on a 0/1 word is the "replicate this bit through the whole
    word" idiom used by the parallel technique's initialization code.
    ``popcount`` counts the set bits of a word — the probe-lowering
    pass uses it to charge a whole lane word of transitions to a
    toggle counter in one operation.
    """

    __slots__ = ("op", "a")

    def __init__(self, op: str, a: Expr) -> None:
        if op not in ("~", "-", "popcount"):
            raise CodegenError(f"bad unary operator: {op!r}")
        self.op = op
        self.a = a

    def __repr__(self) -> str:
        return f"Un({self.op}, {self.a!r})"


class Bin(Expr):
    """Binary ``&``, ``|``, ``^``, ``+``, ``<<``, ``>>`` or ``sar``.

    ``+`` is modular word addition — probe counters accumulate with
    it; the emitters mask (or rely on fixed-width wrap) so all
    backends agree at every word width.

    ``sar`` is the arithmetic (sign-replicating) right shift: vacated
    high-order positions replicate the word's top bit.  The paper's
    right shifts "simply replicate from the high-order bit" — on the
    original hardware that is one signed-shift instruction, and the C
    backend emits exactly that; the Python backend synthesizes it.

    Shift amounts must be constants: the generated code is straight-line
    and every shift distance is known at code-generation time.
    """

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr) -> None:
        if op not in ("&", "|", "^", "+", "<<", ">>", "sar"):
            raise CodegenError(f"bad binary operator: {op!r}")
        if op in ("<<", ">>", "sar") and not isinstance(b, Const):
            raise CodegenError("shift amounts must be constant")
        self.op = op
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"Bin({self.op}, {self.a!r}, {self.b!r})"


def v(name: str) -> Var:
    """Shorthand for :class:`Var`."""
    return Var(name)


def c(value: int) -> Const:
    """Shorthand for :class:`Const`."""
    return Const(value)


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Stmt:
    __slots__ = ()


class Assign(Stmt):
    """``dest = expr``."""

    __slots__ = ("dest", "expr")

    def __init__(self, dest: str, expr: Expr) -> None:
        self.dest = dest
        self.expr = expr

    def __repr__(self) -> str:
        return f"Assign({self.dest} = {self.expr!r})"


class Emit(Stmt):
    """Append ``expr`` (masked to the output mask) to the output list.

    ``label`` documents what the value is — typically ``(net, time)``
    or ``(net, word_index)`` — so callers can decode the output list.
    """

    __slots__ = ("expr", "label")

    def __init__(self, expr: Expr, label: tuple) -> None:
        self.expr = expr
        self.label = label

    def __repr__(self) -> str:
        return f"Emit({self.label}: {self.expr!r})"


class Comment(Stmt):
    """A source comment; emitters may render or drop it."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"Comment({self.text!r})"


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
class ProgramStats:
    """Operation counts of a program — the backend-independent cost model.

    ``shifts`` counts ``<<``/``>>`` nodes; ``logic_ops`` counts
    ``&``/``|``/``^``/``~``; ``assignments`` counts assignment
    statements.  Benchmarks report these next to wall-clock times so the
    optimization effects (Figs. 20-24) are visible even where the host's
    constant factors differ from a SUN 3/260's.
    """

    __slots__ = ("assignments", "logic_ops", "shifts", "negates", "adds",
                 "popcounts", "emits", "source_lines")

    def __init__(self) -> None:
        self.assignments = 0
        self.logic_ops = 0
        self.shifts = 0
        self.negates = 0
        self.adds = 0
        self.popcounts = 0
        self.emits = 0
        self.source_lines = 0

    @property
    def total_ops(self) -> int:
        return (self.logic_ops + self.shifts + self.negates + self.adds
                + self.popcounts)

    def as_dict(self) -> dict[str, int]:
        return {
            "assignments": self.assignments,
            "logic_ops": self.logic_ops,
            "shifts": self.shifts,
            "negates": self.negates,
            "adds": self.adds,
            "popcounts": self.popcounts,
            "emits": self.emits,
            "source_lines": self.source_lines,
        }

    def __repr__(self) -> str:
        return (
            f"ProgramStats(assign={self.assignments}, logic={self.logic_ops},"
            f" shifts={self.shifts}, neg={self.negates}, lines="
            f"{self.source_lines})"
        )


class Program:
    """A complete straight-line simulation program.

    Parameters
    ----------
    name:
        Used in generated source and diagnostics.
    word_width:
        Bits per word (the paper's implementation used 32-bit words).
    inputs:
        Labels for the vector slots ``V[0..k-1]``; generators use the
        primary-input net names.
    mask_assignments:
        When true, the Python backend masks every assignment to
        ``word_width`` bits (needed whenever the program shifts left,
        since Python ints are unbounded).  The C backend gets masking
        for free from its fixed-width types.
    output_mask:
        Mask applied to emitted values (1 for single-bit programs, the
        full word mask for bit-field or multi-vector programs).
    state_carry:
        How the persistent state depends on the previous vector.
        ``"opaque"`` (the default) promises nothing.  ``"finals"``
        declares that re-seeding the state with the technique's
        ``_encode_state(settled(previous vector))`` reproduces — bit
        for bit — both the outputs and the full post-pass state of a
        pass run from the true chained state; i.e. cross-vector
        dependence flows only through the previous settled finals.
        This is the eligibility flag for the per-lane packed execution
        of shift programs (see :mod:`repro.codegen.packing`).
    """

    def __init__(
        self,
        name: str,
        *,
        word_width: int = 32,
        inputs: Optional[list[str]] = None,
        mask_assignments: bool = False,
        output_mask: Optional[int] = None,
        state_carry: str = "opaque",
    ) -> None:
        if word_width not in (8, 16, 32, 64):
            raise CodegenError(
                f"word_width must be 8, 16, 32 or 64, got {word_width}"
            )
        if state_carry not in ("opaque", "finals"):
            raise CodegenError(
                f"state_carry must be 'opaque' or 'finals', "
                f"got {state_carry!r}"
            )
        self.name = name
        self.word_width = word_width
        self.inputs: list[str] = list(inputs) if inputs else []
        self.mask_assignments = mask_assignments
        self.state_carry = state_carry
        self.word_mask = (1 << word_width) - 1
        self.output_mask = (
            output_mask if output_mask is not None else self.word_mask
        )
        self.state_vars: list[str] = []
        self._state_set: set[str] = set()
        self.state_init: dict[str, int] = {}
        self.temp_vars: list[str] = []
        self._temp_set: set[str] = set()
        self.init: list[Stmt] = []
        self.body: list[Stmt] = []
        self.output: list[Stmt] = []
        #: Optional semantic content hash.  When set, the runtime keys
        #: the process-wide program cache on it (plus backend/opt/tile
        #: qualifiers) instead of hashing the generated source text —
        #: generators that can fingerprint their *input* (e.g. a fanin
        #: cone of the netlist) get cache hits without paying for
        #: source generation twice, and unchanged cones survive edits
        #: elsewhere in the circuit.  Must uniquely determine the
        #: generated source for every backend.
        self.content_key: Optional[str] = None

    # ------------------------------------------------------------------
    def declare(self, name: str, initial: int = 0) -> str:
        """Declare a persistent state variable; returns its name."""
        if name in self._state_set:
            raise CodegenError(f"duplicate state variable: {name!r}")
        self._state_set.add(name)
        self.state_vars.append(name)
        self.state_init[name] = initial & self.word_mask
        return name

    def declare_temp(self, name: str) -> str:
        """Declare a per-step temporary (not part of persistent state).

        Idempotent: generators reuse a small pool of temp names across
        gates, so re-declaring an existing temp returns it unchanged.
        """
        if name in self._state_set:
            raise CodegenError(f"temp {name!r} clashes with a state var")
        if name not in self._temp_set:
            self._temp_set.add(name)
            self.temp_vars.append(name)
        return name

    def is_state(self, name: str) -> bool:
        return name in self._state_set

    def input_slot(self, label: str) -> int:
        """Index of an input label in the vector ``V``."""
        return self.inputs.index(label)

    # ------------------------------------------------------------------
    def statements(self) -> Iterator[Stmt]:
        yield from self.init
        yield from self.body
        yield from self.output

    def output_labels(self) -> list[tuple]:
        """Labels of the Emit statements, in emission order."""
        return [s.label for s in self.output if isinstance(s, Emit)]

    def stats(self) -> ProgramStats:
        """Count operations across all sections."""
        stats = ProgramStats()
        for stmt in self.statements():
            if isinstance(stmt, Comment):
                continue
            stats.source_lines += 1
            if isinstance(stmt, Assign):
                stats.assignments += 1
                _count(stmt.expr, stats)
            elif isinstance(stmt, Emit):
                stats.emits += 1
                _count(stmt.expr, stats)
        return stats

    def validate(self) -> None:
        """Check that every referenced variable is a state var or input.

        Temporaries must be declared too (generators declare them with
        ``declare``); this catches typos in generated code early, where
        they are cheap to debug.  Input slots must lie inside the
        declared vector width — an out-of-range slot would read past
        the vector buffer on the C backend.
        """
        for stmt in self.statements():
            if isinstance(stmt, (Assign, Emit)):
                for slot in _input_slots(stmt.expr):
                    if not 0 <= slot < max(1, len(self.inputs)):
                        raise CodegenError(
                            f"{self.name}: input slot {slot} outside "
                            f"vector of {len(self.inputs)} inputs"
                        )
        known = set(self.state_vars) | set(self.temp_vars)
        for stmt in self.statements():
            if isinstance(stmt, Assign):
                for ref in _variables(stmt.expr):
                    if ref not in known:
                        raise CodegenError(
                            f"{self.name}: use of undeclared variable "
                            f"{ref!r} in {stmt!r}"
                        )
                if stmt.dest not in known:
                    raise CodegenError(
                        f"{self.name}: assignment to undeclared variable "
                        f"{stmt.dest!r}"
                    )
            elif isinstance(stmt, Emit):
                for ref in _variables(stmt.expr):
                    if ref not in known:
                        raise CodegenError(
                            f"{self.name}: emit of undeclared variable "
                            f"{ref!r}"
                        )

    def without_output(self) -> "Program":
        """A shallow copy with the output section dropped (timing runs)."""
        clone = Program(
            self.name + "_noout",
            word_width=self.word_width,
            inputs=self.inputs,
            mask_assignments=self.mask_assignments,
            output_mask=self.output_mask,
            state_carry=self.state_carry,
        )
        clone.state_vars = self.state_vars
        clone._state_set = self._state_set
        clone.state_init = self.state_init
        clone.temp_vars = self.temp_vars
        clone._temp_set = self._temp_set
        clone.init = self.init
        clone.body = self.body
        clone.output = []
        return clone

    def interface(self, tiles: int = 1) -> "MachineInterface":
        """The per-pass ABI of this program at a given tile count."""
        return MachineInterface(self, tiles)

    # Rendering ---------------------------------------------------------
    def python_source(self, tiles: int = 1) -> str:
        from repro.codegen.python_emitter import emit_python

        return emit_python(self, tiles=tiles)

    def c_source(self, tiles: int = 1) -> str:
        from repro.codegen.c_emitter import emit_c

        return emit_c(self, tiles=tiles)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, W={self.word_width}, "
            f"{len(self.state_vars)} vars, "
            f"{len(self.init)}+{len(self.body)}+{len(self.output)} stmts)"
        )


def _count(expr: Expr, stats: ProgramStats) -> None:
    if isinstance(expr, Bin):
        if expr.op in ("<<", ">>", "sar"):
            stats.shifts += 1
        elif expr.op == "+":
            stats.adds += 1
        else:
            stats.logic_ops += 1
        _count(expr.a, stats)
        _count(expr.b, stats)
    elif isinstance(expr, Un):
        if expr.op == "~":
            stats.logic_ops += 1
        elif expr.op == "popcount":
            stats.popcounts += 1
        else:
            stats.negates += 1
        _count(expr.a, stats)


def _input_slots(expr: Expr) -> Iterator[int]:
    if isinstance(expr, Input):
        yield expr.slot
    elif isinstance(expr, Bin):
        yield from _input_slots(expr.a)
        yield from _input_slots(expr.b)
    elif isinstance(expr, Un):
        yield from _input_slots(expr.a)


def _variables(expr: Expr) -> Iterator[str]:
    if isinstance(expr, Var):
        yield expr.name
    elif isinstance(expr, Bin):
        yield from _variables(expr.a)
        yield from _variables(expr.b)
    elif isinstance(expr, Un):
        yield from _variables(expr.a)


# ----------------------------------------------------------------------
# the machine interface (shared entry-point surface)
# ----------------------------------------------------------------------
#: Request codes of the Python backend's generator protocol.  The C
#: library exports the three pass entries under their names, each
#: taking the machine's state first; its state is a buffer the machine
#: owns, so ``dump_state``/``load_state`` never enter the library.
OPCODES = {
    "step": 0,
    "dump_state": 1,
    "load_state": 2,
    "run_block": 3,
    "run_packed_block": 4,
}


class MachineInterface:
    """The per-pass ABI of a program compiled at a given tile count.

    With ``tiles=K`` every net holds an array of K words, so one pass
    consumes ``len(inputs) * K`` vector words (slot-major: slot ``s``
    tile ``t`` lives at index ``s*K + t``), carries
    ``len(state_vars) * K`` state words, and produces one word per
    (Emit, tile) — again emit-major.  Both emitters and the
    runtime's buffer sizing derive from this one object, which is what
    keeps the tiled layouts bit-compatible across backends.
    """

    __slots__ = ("tiles", "word_width", "num_inputs", "num_state_vars",
                 "num_emits", "vector_words", "state_words",
                 "output_words", "_labels")

    def __init__(self, program: Program, tiles: int = 1) -> None:
        if tiles < 1:
            raise CodegenError(f"tiles must be >= 1, got {tiles}")
        self.tiles = tiles
        self.word_width = program.word_width
        self.num_inputs = len(program.inputs)
        self.num_state_vars = len(program.state_vars)
        self.num_emits = len(program.output_labels())
        self.vector_words = self.num_inputs * tiles
        self.state_words = self.num_state_vars * tiles
        self.output_words = self.num_emits * tiles
        self._labels = program.output_labels()

    def output_labels(self) -> list[tuple]:
        """Emission-order labels; tiled labels gain a tile suffix."""
        if self.tiles == 1:
            return list(self._labels)
        return [
            label + (t,)
            for label in self._labels
            for t in range(self.tiles)
        ]

    def __repr__(self) -> str:
        return (
            f"MachineInterface(K={self.tiles}, V={self.vector_words}, "
            f"S={self.state_words}, O={self.output_words})"
        )


# ----------------------------------------------------------------------
# retargeting (the shared tiled-lowering rewriter)
# ----------------------------------------------------------------------
def retarget_expr(expr, var_ref, input_ref):
    """Rewrite an expression for a different storage layout.

    ``var_ref(name)`` and ``input_ref(slot)`` return replacement
    *names* rendered verbatim by every emitter (e.g. ``"n12[t]"`` for
    the C tile loop, ``"n12__t3"`` for the unrolled Python body).
    Structure is preserved — in particular a ``sar`` operand stays a
    :class:`Var`, so each backend's sign-replication idiom still
    applies.  Called at emit time on validated programs; the rewritten
    nodes are rendered, never re-validated.
    """
    if isinstance(expr, Var):
        return Var(var_ref(expr.name))
    if isinstance(expr, Input):
        return Var(input_ref(expr.slot))
    if isinstance(expr, Un):
        return Un(expr.op, retarget_expr(expr.a, var_ref, input_ref))
    if isinstance(expr, Bin):
        return Bin(
            expr.op,
            retarget_expr(expr.a, var_ref, input_ref),
            retarget_expr(expr.b, var_ref, input_ref),
        )
    return expr


def retarget_stmt(stmt, var_ref, input_ref, label=None):
    """Statement-level counterpart of :func:`retarget_expr`."""
    if isinstance(stmt, Assign):
        return Assign(
            var_ref(stmt.dest),
            retarget_expr(stmt.expr, var_ref, input_ref),
        )
    if isinstance(stmt, Emit):
        return Emit(
            retarget_expr(stmt.expr, var_ref, input_ref),
            stmt.label if label is None else label,
        )
    return stmt
