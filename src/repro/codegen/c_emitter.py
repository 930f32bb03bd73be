"""Render a :class:`~repro.codegen.program.Program` as C source.

The original work generated C and compiled it with the system compiler;
this emitter restores that: the program becomes a shared library with a
``step`` entry point operating on fixed-width unsigned words
(``uint8_t``..``uint64_t`` according to the program's word width),
batch drivers ``run_block`` (one vector per pass) and
``run_packed_block`` (pattern-lane packed: one pass per ``word_width``
vectors, see :mod:`repro.codegen.packing`), the two helpers around
it that transpose a batch of 0/1 bytes into lane words and unpack the
packed outputs (``pack_lanes``/``unpack_lanes``), ``screen``, the
one-call PPSFP fault screen over packed lane rows (see
:mod:`repro.faults.simulator`), and ``fold_rows``, which folds a
replay chunk's output bits into its checksum and toggle counts (see
:mod:`repro.replay.harness`).

The code is reentrant.  The persistent variables are the members of
one ``struct state``, in declaration order, and every entry point
takes ``struct state *restrict S`` first and reads and writes
``S->name``.  The library holds no mutable data of its own, so
one loaded library serves every machine of its program, each passing
its own state.  Masking is free — the C types wrap naturally — so the
emitted expressions match the paper's listings one for one.

Rendering is one walk per statement: a variable is written as
``S->name`` when it is a state variable, as its bare name when it is a
temporary, and an input slot as ``V[k]``.

``step`` is cut into parts.  The ``init`` and ``body`` statements run
as consecutive parts of about :data:`STEP_PART_SIZE` assignments each,
every part a ``static NOINLINE void step_<i>(S, V)`` declaring the
temporaries it uses as its own locals; ``step`` calls the parts in
order and then runs the ``output`` section inline, as the one place
that writes ``OUT``.  A part ends only where no temporary is live (one
written earlier and read later), so a temporary never crosses a call.
The statements and the struct are the same either way — the split
only bounds function size, because GCC's optimizer passes grow
superlinearly with it and one straight-line ``step`` of thousands of
statements spent several seconds in the compiler.  A program of at
most :data:`STEP_PART_SIZE` assignments renders as one ``step``.

The part definitions, and nothing else, sit between ``#pragma GCC
push_options`` / ``#pragma GCC optimize`` (:data:`STEP_PART_OPTIMIZE`)
and ``#pragma GCC pop_options``, guarded so that only an optimizing
GCC build reads them: an ``-O0`` build or another compiler sees plain
functions.  The parts are ``noinline`` leaves, so nothing is inlined
across the option boundary; ``step``, the batch drivers and the
helpers' loops keep the library's level.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Expr,
    Input,
    MachineInterface,
    Program,
    Stmt,
    Un,
    Var,
)
from repro.errors import CodegenError

__all__ = [
    "emit_c",
    "render_expr_c",
    "C_WORD_TYPES",
    "STEP_PART_SIZE",
    "STEP_PART_OPTIMIZE",
]

#: Assignments per ``step`` part.  Measured over the suite's four
#: workload programs (EXPERIMENTS.md, "Bounded step parts"): ``cc -O1``
#: time falls 3.9-4.8x from one ``step`` to parts of 50, 25 ties with
#: 50 at twice the calls, 100 and 250 compile slower, and no size
#: slows a kernel.
STEP_PART_SIZE = 50

#: GCC's ``optimize`` pragma arguments for the ``step_<i>`` parts of an
#: optimized build: ``-Og`` plus dead-store elimination.  On these
#: straight-line leaves the rest of ``-O1`` (points-to, SRA, loop,
#: branch and IPA passes) buys no kernel speed, and dropping it cut
#: ``gcc`` CPU time 31-39% on the four suite workload programs, with
#: kernels and ``.text`` unchanged (EXPERIMENTS.md, "Step parts at
#: -Og").  DSE stays: without it each fault-program pair
#: ``N = ...; N = (N & FM) | FV`` keeps both stores, the fault
#: library's ``.text`` grows by a fifth and ``screen`` runs 11% slower.
STEP_PART_OPTIMIZE = ("Og", "tree-dse")

#: Which compilers read the parts' pragma: GCC, optimizing.  An
#: ``-O0`` build or another compiler preprocesses the bracket away.
_PART_PRAGMA_GUARD = (
    "#if defined(__OPTIMIZE__) && defined(__GNUC__) && !defined(__clang__)"
)

C_WORD_TYPES = {
    8: "uint8_t",
    16: "uint16_t",
    32: "uint32_t",
    64: "uint64_t",
}

#: Signed counterparts, used to render the arithmetic shift ``sar``.
C_SWORD_TYPES = {
    8: "int8_t",
    16: "int16_t",
    32: "int32_t",
    64: "int64_t",
}


def render_expr_c(
    expr: Expr,
    word_type: str,
    state: frozenset = frozenset(),
    temps: Optional[list] = None,
) -> str:
    """C text of ``expr``; a variable named in ``state`` reads ``S->``.

    Any other variable is a temporary; with ``temps`` given, the name
    of each temporary read is appended to it.
    """
    if isinstance(expr, Var):
        name = expr.name
        if name in state:
            return f"S->{name}"
        if temps is not None:
            temps.append(name)
        return name
    if isinstance(expr, Const):
        suffix = "ULL" if word_type == "uint64_t" else "U"
        return f"{expr.value}{suffix}"
    if isinstance(expr, Input):
        return f"V[{expr.slot}]"
    if isinstance(expr, Un):
        child = _child(expr.a, word_type, state, temps)
        if expr.op == "~":
            # Cast back: C integer promotion widens uint8/uint16 to int.
            return f"({word_type})~{child}"
        if expr.op == "popcount":
            return f"popcount_w({child})"
        return f"({word_type})(0 - {child})"
    if isinstance(expr, Bin):
        a = _child(expr.a, word_type, state, temps)
        b = _child(expr.b, word_type, state, temps)
        if expr.op == "sar":
            # One signed-shift instruction: the high-order bit
            # replicates into the vacated positions.
            return f"({word_type})((sword){a} >> {b})"
        if expr.op in ("<<", ">>", "+"):
            # Promotion again: keep sub-int widths honest.
            return f"({word_type})({a} {expr.op} {b})"
        return f"{a} {expr.op} {b}"
    raise CodegenError(f"unknown expression node: {expr!r}")


def _child(
    expr: Expr, word_type: str, state: frozenset, temps: Optional[list]
) -> str:
    text = render_expr_c(expr, word_type, state, temps)
    if isinstance(expr, (Bin, Un)):
        return f"({text})"
    return text


def _statement_lines(
    stmts: list[Stmt],
    state: frozenset,
    word_type: str,
    indent: str,
    uses: Optional[dict] = None,
) -> list[str]:
    """One line per statement.  State variables live behind ``S``;
    temporaries are locals.  With ``uses`` given, each statement ``i``
    that touches a temporary records ``uses[i] = (temporary it assigns
    or None, temporaries it reads)``, collected in the same walk."""
    lines: list[str] = []
    reads = None if uses is None else []
    for index, stmt in enumerate(stmts):
        dest = None
        if isinstance(stmt, Assign):
            rhs = render_expr_c(stmt.expr, word_type, state, reads)
            if stmt.dest in state:
                lines.append(f"{indent}S->{stmt.dest} = {rhs};")
            else:
                dest = stmt.dest
                lines.append(f"{indent}{dest} = {rhs};")
        elif isinstance(stmt, Emit):
            rhs = render_expr_c(stmt.expr, word_type, state, reads)
            lines.append(f"{indent}*OUT++ = ({rhs}) & OUTMASK;")
        elif isinstance(stmt, Comment):
            lines.append(f"{indent}/* {stmt.text} */")
        else:
            raise CodegenError(f"unknown statement: {stmt!r}")
        if reads or dest is not None:
            uses[index] = (dest, reads)
            reads = []
    return lines


def _live_ranges(uses: dict) -> dict[int, int]:
    """Where no cut may fall, as ``{first: last}`` statement indices:
    a read at statement ``r`` of a temporary last written at ``w``
    forbids a cut before any statement ``w < p <= r``."""
    ranges: dict[int, int] = {}
    written: dict[str, int] = {}
    for index, (dest, reads) in uses.items():
        for name in reads:
            first = written.get(name, -1) + 1
            if ranges.get(first, -1) < index:
                ranges[first] = index
        if dest is not None:
            written[dest] = index
    return ranges


def _parts(
    stmts: list[Stmt], ranges: dict[int, int], size: int
) -> tuple[list[tuple[int, int]], int]:
    """Cut ``stmts`` (``init`` + ``body``) into ``step`` parts.

    Returns ``(parts, inline)``: the ``(start, end)`` ranges that
    become ``step_<i>``, and the index from which the statements stay
    inline in ``step``.  A part closes before the first assignment
    past ``size`` that no live range of ``ranges`` covers; the last
    run stays inline when a temporary is live into ``output``, and a
    program that never reaches a cut has no parts at all.
    """
    parts: list[tuple[int, int]] = []
    start = count = 0
    live_to = -1  # the furthest end of a range begun so far
    for index, stmt in enumerate(stmts):
        if ranges:
            live_to = max(live_to, ranges.get(index, -1))
        if isinstance(stmt, Assign):
            if count >= size and live_to < index:
                parts.append((start, index))
                start, count = index, 0
            count += 1
    end = len(stmts)
    if not parts:
        return [], 0
    if max(live_to, ranges.get(end, -1)) >= end:
        return parts, start
    parts.append((start, end))
    return parts, end


def _locals(uses: dict, start: int, end: int) -> list[str]:
    """The temporaries statements ``start .. end - 1`` touch, in order
    of first use."""
    names: dict = {}
    for index in range(start, end):
        if index in uses:
            dest, reads = uses[index]
            names.update(dict.fromkeys(reads))
            if dest is not None:
                names[dest] = None
    return list(names)


def _lane_helper_lines(interface: MachineInterface) -> list[str]:
    """The byte-level packed boundary around ``run_packed_block``.

    ``pack_lanes`` transposes ``n`` vectors of one byte per input (each
    0 or 1) into ``passes`` pass rows: group ``g`` carries vectors
    ``g*W .. g*W+W-1`` in its lanes.  Groups past the batch are written
    all-zeros — the first of them is the fill group
    :func:`~repro.codegen.packing.packed_apply` reconstructs the high
    bits from.  ``unpack_lanes`` writes each vector's scalar-identical
    output words: lane bit ``j`` in bit 0, the fill group's word in the
    high bits (zero when ``fill`` is 0).  Every size is a literal, so
    no macro can collide with a net-derived identifier.
    """
    width = interface.word_width
    inputs = interface.num_inputs
    emits = interface.num_emits
    row = max(1, inputs)
    return [
        "void pack_lanes(const unsigned char *B, long n, long passes,"
        " word *V) {",
        "    long g, base, lanes;",
        "    int s, j;",
        "    word w;",
        "    for (g = 0; g < passes; g++) {",
        f"        base = g * {width};",
        f"        lanes = n - base < {width} ? n - base : {width};",
        f"        for (s = 0; s < {inputs}; s++) {{",
        "            w = 0;",
        "            for (j = 0; j < lanes; j++) {",
        f"                w |= (word)((word)(B[(base + j) * {inputs} + s]"
        " & 1) << j);",
        "            }",
        f"            V[g * {row} + s] = w;",
        "        }",
        "    }",
        "}",
        "",
        "void unpack_lanes(const word *OUT, long n, int fill, word *R) {",
        "    long i;",
        "    int o, j;",
        f"    word high[{max(1, emits)}];",
        "    const word *w;",
        f"    for (o = 0; o < {emits}; o++) high[o] = 0;",
        "    if (fill) {",
        f"        w = OUT + ((n + {width - 1}) / {width}) * {emits};",
        f"        for (o = 0; o < {emits}; o++)"
        " high[o] = w[o] & (word)~(word)1;",
        "    }",
        "    for (i = 0; i < n; i++) {",
        f"        j = (int)(i % {width});",
        f"        w = OUT + (i / {width}) * {emits};",
        f"        for (o = 0; o < {emits}; o++) {{",
        "            *R++ = (word)(((w[o] >> j) & 1) | high[o]);",
        "        }",
        "    }",
        "}",
        "",
    ]


def _screen_lines(interface: MachineInterface) -> list[str]:
    """``screen``: grade ``nf`` state pins over packed lane rows.

    ``LANES`` holds ``ceil(n / W)`` pass rows (``pack_lanes``'s layout)
    and ``GOOD`` the words ``run_packed_block`` emitted for them from
    ``S0``.  For each pin ``f`` the state is reset to ``*S0``, word
    ``PIN[f]`` is cleared and word ``PIN[f] + 1`` set to ``PVAL[f]``
    (the struct is a flat array of words), and the passes run in
    order until an emitted word differs from the good one.  The lowest
    differing lane gives ``FIRST[f]``, the first differing vector, or
    -1 when none does.  The last pass's lanes past ``n`` are masked
    off: they carry no vector.
    """
    width = interface.word_width
    emits = interface.num_emits
    row = max(1, interface.num_inputs)
    return [
        "void screen(struct state *restrict S,"
        " const struct state *restrict S0,",
        "            const word *LANES, long n, const word *GOOD, long nf,",
        "            const long *PIN, const word *PVAL, long *FIRST) {",
        f"    word out[{max(1, emits)}];",
        "    word diff, last;",
        "    long f, g, groups;",
        "    int o;",
        f"    groups = (n + {width - 1}) / {width};",
        f"    last = n % {width} ? (word)(((word)1 << (n % {width})) - 1)"
        " : (word)~(word)0;",
        "    for (f = 0; f < nf; f++) {",
        "        *S = *S0;",
        "        ((word *)S)[PIN[f]] = 0;",
        "        ((word *)S)[PIN[f] + 1] = PVAL[f];",
        "        FIRST[f] = -1;",
        "        for (g = 0; g < groups; g++) {",
        f"            step(S, LANES + g * {row}, out);",
        "            diff = 0;",
        f"            for (o = 0; o < {emits}; o++) {{",
        f"                diff |= out[o] ^ GOOD[g * {emits} + o];",
        "            }",
        "            if (g == groups - 1) diff &= last;",
        "            if (diff) {",
        f"                FIRST[f] = g * {width} + ctz_w(diff);",
        "                break;",
        "            }",
        "        }",
        "    }",
        "}",
        "",
    ]


#: ``fold_rows``: a clocked replay's checksum and toggle counts over
#: ``n`` rows of ``width`` output bits, one byte each (bit 0 counts).
#: The sum is ``fold_outputs`` (:mod:`repro.replay.harness`) applied
#: value by value; ``TOGGLES[j]`` counts the rows whose column ``j``
#: differs from the row before, the first row comparing with ``PREV``
#: unless it is NULL.  It takes no state and no program-specific size,
#: so every library carries the same text.
_FOLD_LINES = [
    "void fold_rows(const unsigned char *B, long n, long width,",
    "               const unsigned char *PREV, uint64_t *SUM,"
    " int64_t *TOGGLES) {",
    "    const unsigned char *last = PREV, *row = B;",
    "    uint64_t sum = *SUM;",
    "    long r, j;",
    "    for (r = 0; r < n; r++, row += width) {",
    "        for (j = 0; j < width; j++) {",
    "            sum = ((sum << 1) | (sum >> 63)) ^ (uint64_t)(row[j] & 1);",
    "        }",
    "        if (last) {",
    "            for (j = 0; j < width; j++) {",
    "                TOGGLES[j] += (row[j] ^ last[j]) & 1;",
    "            }",
    "        }",
    "        last = row;",
    "    }",
    "    *SUM = sum;",
    "}",
    "",
]


def emit_c(program: Program) -> str:
    """Produce the full C source of the shared-library machine."""
    program.validate()
    word_type = C_WORD_TYPES[program.word_width]
    suffix = "ULL" if word_type == "uint64_t" else "U"
    interface = program.interface()
    # A "*/" in the name must not close the header comment early.
    title = repr(program.name).replace("*/", "*\\/")
    lines: list[str] = [
        f"/* generated by repro - program {title} */",
        "#include <stdint.h>",
        "",
        f"#define OUTMASK {program.output_mask}{suffix}",
        f"typedef {word_type} word;",
        f"typedef {C_SWORD_TYPES[program.word_width]} sword;",
        "",
    ]
    # Bit helpers, in every library: probe counters call popcount_w,
    # screen calls ctz_w.  Unused static inlines cost no code.
    # NOINLINE keeps each step part a function of its own: at -O1 GCC
    # inlines parts called once back into step until its growth
    # limits stop it, and compiles 1.2-1.9x slower.  It also keeps the
    # parts' own optimize options (STEP_PART_OPTIMIZE) from meeting
    # step's in one function.
    lines += [
        "#if defined(__GNUC__) || defined(__clang__)",
        "#define NOINLINE __attribute__((noinline))",
        "static inline word popcount_w(word x) {",
        "    return (word)__builtin_popcountll("
        "(unsigned long long)x);",
        "}",
        "static inline int ctz_w(word x) {",
        "    return __builtin_ctzll((unsigned long long)x);",
        "}",
        "#else",
        "#define NOINLINE",
        "static inline word popcount_w(word x) {",
        "    word n = 0;",
        "    while (x) { x &= (word)(x - 1); n++; }",
        "    return n;",
        "}",
        "static inline int ctz_w(word x) {",
        "    int n = 0;",
        "    while (!(x & 1)) { x >>= 1; n++; }",
        "    return n;",
        "}",
        "#endif",
        "",
    ]
    # The caller owns the state: one member per persistent variable,
    # all of type word, so the struct has no padding and its layout is
    # the flat state vector the runtime allocates and initialises.
    lines.append("struct state {")
    for name in program.state_vars:
        lines.append(f"    word {name};")
    if not program.state_vars:
        lines.append("    word unused;")  # C has no empty structs
    lines.append("};")
    lines.append("")
    state = frozenset(program.state_vars)
    split = program.init + program.body
    # Only a program with temporaries needs their uses to place cuts.
    uses: Optional[dict] = {} if program.temp_vars else None
    text = _statement_lines(split + program.output, state, word_type,
                            "    ", uses)
    parts, inline = _parts(split, _live_ranges(uses) if uses else {},
                           STEP_PART_SIZE)
    if parts:
        passes = ", ".join(f'"{name}"' for name in STEP_PART_OPTIMIZE)
        lines += [
            _PART_PRAGMA_GUARD,
            "#pragma GCC push_options",
            f"#pragma GCC optimize ({passes})",
            "#endif",
            "",
        ]
    for index, (start, end) in enumerate(parts):
        lines.append(f"static NOINLINE void step_{index}("
                     "struct state *restrict S, const word *V) {")
        temps = _locals(uses, start, end) if uses else ()
        if temps:
            lines.append(f"    word {', '.join(temps)};")
        lines += text[start:end]
        lines.append("}")
        lines.append("")
    if parts:
        lines += [_PART_PRAGMA_GUARD, "#pragma GCC pop_options", "#endif", ""]
    # restrict on S lets the compiler keep state in registers across
    # stores through OUT.
    lines.append("void step(struct state *restrict S, const word *V,"
                 " word *OUT) {")
    if parts and uses:
        temps = _locals(uses, inline, len(text))
    else:
        temps = program.temp_vars
    if temps:
        lines.append(f"    word {', '.join(temps)};")
    lines.append("    (void)S; (void)V; (void)OUT;")
    lines += [f"    step_{index}(S, V);" for index in range(len(parts))]
    lines += text[inline:]
    lines.append("}")
    lines.append("")
    num_outputs = interface.num_emits
    lines.append(f"#define NUM_INPUTS {max(1, interface.num_inputs)}")
    lines.append(f"#define NUM_OUTPUTS {num_outputs}")
    # The batch driver: the whole vector loop stays inside the shared
    # library.  OUT == NULL discards outputs (the timing fast path);
    # otherwise each vector's emitted words land at OUT + i*NUM_OUTPUTS
    # in the caller-supplied buffer.
    lines += [
        "void run_block(struct state *restrict S, const word *V, long n,"
        " word *OUT) {",
        f"    word sink[{max(1, num_outputs)}];",
        "    long i;",
        "    if (OUT) {",
        "        for (i = 0; i < n; i++) {",
        "            step(S, V + i * NUM_INPUTS, OUT + i * NUM_OUTPUTS);",
        "        }",
        "    } else {",
        "        for (i = 0; i < n; i++) {",
        "            step(S, V + i * NUM_INPUTS, sink);",
        "        }",
        "    }",
        "}",
        "",
    ]
    # Pattern-packed batch entry: each of the n "vectors" is a group of
    # per-input lane words (bit j of word k = input k of packed vector
    # j), so one step evaluates up to a whole word of vectors.  Packing
    # is a data-layout contract — the per-pass code is the same — but
    # the named entry point keeps the ABI explicit and mirrors the
    # Python backend's packed opcode.
    lines += [
        "void run_packed_block(struct state *restrict S, const word *V,"
        " long n, word *OUT) {",
        "    run_block(S, V, n, OUT);",
        "}",
        "",
    ]
    lines += _lane_helper_lines(interface)
    lines += _screen_lines(interface)
    lines += _FOLD_LINES
    return "\n".join(lines)
