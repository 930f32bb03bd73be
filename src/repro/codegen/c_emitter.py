"""Render a :class:`~repro.codegen.program.Program` as C source.

The original work generated C and compiled it with the system compiler;
this emitter restores that: the program becomes a shared library with a
``step`` entry point operating on fixed-width unsigned words
(``uint8_t``..``uint64_t`` according to the program's word width),
batch drivers ``run_block`` (one vector per pass) and
``run_packed_block`` (pattern-lane packed: one pass per ``word_width``
vectors, see :mod:`repro.codegen.packing`), the two helpers around it
that transpose a batch of 0/1 bytes into lane words and unpack the
packed outputs (``pack_lanes``/``unpack_lanes``), plus
``dump_state``/``load_state`` accessors used to seed and inspect the
persistent variables.  Masking is free — the C types wrap naturally —
so the emitted expressions match the paper's listings one for one.
"""

from __future__ import annotations

from repro.codegen.program import (
    ENTRY_POINTS,
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
    retarget_stmt,
)
from repro.errors import CodegenError

__all__ = ["emit_c", "render_expr_c", "C_WORD_TYPES"]

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


def render_expr_c(expr: Expr, word_type: str) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        suffix = "ULL" if word_type == "uint64_t" else "U"
        return f"{expr.value}{suffix}"
    if isinstance(expr, Input):
        return f"V[{expr.slot}]"
    if isinstance(expr, Un):
        child = _child(expr.a, word_type)
        if expr.op == "~":
            # Cast back: C integer promotion widens uint8/uint16 to int.
            return f"({word_type})~{child}"
        if expr.op == "popcount":
            return f"popcount_w({child})"
        return f"({word_type})(0 - {child})"
    if isinstance(expr, Bin):
        a = _child(expr.a, word_type)
        b = _child(expr.b, word_type)
        if expr.op == "sar":
            # One signed-shift instruction: the high-order bit
            # replicates into the vacated positions.
            return f"({word_type})((sword){a} >> {b})"
        if expr.op in ("<<", ">>", "+"):
            # Promotion again: keep sub-int widths honest.
            return f"({word_type})({a} {expr.op} {b})"
        return f"{a} {expr.op} {b}"
    raise CodegenError(f"unknown expression node: {expr!r}")


def _child(expr: Expr, word_type: str) -> str:
    text = render_expr_c(expr, word_type)
    if isinstance(expr, (Bin, Un)):
        return f"({text})"
    return text


def _statement_lines(
    stmts: list[Stmt], program: Program, word_type: str, indent: str
) -> list[str]:
    lines: list[str] = []
    for stmt in stmts:
        if isinstance(stmt, Comment):
            lines.append(f"{indent}/* {stmt.text} */")
        elif isinstance(stmt, Assign):
            rhs = render_expr_c(stmt.expr, word_type)
            lines.append(f"{indent}{stmt.dest} = {rhs};")
        elif isinstance(stmt, Emit):
            rhs = render_expr_c(stmt.expr, word_type)
            lines.append(f"{indent}*OUT++ = ({rhs}) & OUTMASK;")
        else:
            raise CodegenError(f"unknown statement: {stmt!r}")
    return lines


def _tile_index(program: Program) -> str:
    """A loop-index name no program variable shadows."""
    used = set(program.state_vars) | set(program.temp_vars)
    name = "t"
    while name in used:
        name = "_" + name
    return name


def _tiled_statement_lines(
    stmts: list[Stmt], word_type: str, tiles: int, indent: str, idx: str
) -> list[str]:
    """Each statement becomes one tight ``for (t...)`` loop over the tiles.

    All per-net storage is an array of ``tiles`` words and the loops
    are independent per iteration, which is the shape gcc's
    auto-vectorizer turns into SIMD — the super-word scaling the tiled
    path is after.  Vector reads are slot-major (``V[s*K + t]``).
    """
    lines: list[str] = []
    for stmt in stmts:
        if isinstance(stmt, Comment):
            lines.append(f"{indent}/* {stmt.text} */")
            continue
        tiled = retarget_stmt(
            stmt,
            lambda name: f"{name}[{idx}]",
            lambda slot: f"V[{slot * tiles} + {idx}]",
        )
        lines.append(f"{indent}for ({idx} = 0; {idx} < {tiles}; {idx}++) {{")
        if isinstance(tiled, Assign):
            rhs = render_expr_c(tiled.expr, word_type)
            lines.append(f"{indent}    {tiled.dest} = {rhs};")
        elif isinstance(tiled, Emit):
            rhs = render_expr_c(tiled.expr, word_type)
            lines.append(f"{indent}    OUT[{idx}] = ({rhs}) & OUTMASK;")
        else:
            raise CodegenError(f"unknown statement: {stmt!r}")
        lines.append(f"{indent}}}")
        if isinstance(tiled, Emit):
            lines.append(f"{indent}OUT += {tiles};")
    return lines


def _lane_helper_lines(interface: MachineInterface) -> list[str]:
    """The byte-level packed boundary around ``run_packed_block``.

    ``pack_lanes`` transposes ``n`` vectors of one byte per input (each
    0 or 1) into ``passes`` slot-major pass rows: group ``g`` is pass
    ``g / K`` tile ``g % K`` and carries vectors ``g*W .. g*W+W-1`` in
    its lanes.  Groups past the batch are written all-zeros — the first
    of them is the fill group :func:`~repro.codegen.packing\
.packed_apply` reconstructs the high bits from.  ``unpack_lanes``
    writes each vector's scalar-identical output words: lane bit ``j``
    in bit 0, the fill group's word in the high bits (zero when
    ``fill`` is 0).  Every size is a literal, so no macro can collide
    with a net-derived identifier.
    """
    width = interface.word_width
    tiles = interface.tiles
    inputs = interface.num_inputs
    emits = interface.num_emits
    row = max(1, interface.vector_words)
    outs = interface.output_words
    return [
        "void pack_lanes(const unsigned char *B, long n, long passes,"
        " word *V) {",
        "    long g, base, lanes;",
        "    int s, j;",
        "    word w;",
        f"    for (g = 0; g < passes * {tiles}; g++) {{",
        f"        base = g * {width};",
        f"        lanes = n - base < {width} ? n - base : {width};",
        f"        for (s = 0; s < {inputs}; s++) {{",
        "            w = 0;",
        "            for (j = 0; j < lanes; j++) {",
        f"                w |= (word)((word)(B[(base + j) * {inputs} + s]"
        " & 1) << j);",
        "            }",
        f"            V[(g / {tiles}) * {row} + s * {tiles} + g % {tiles}]"
        " = w;",
        "        }",
        "    }",
        "}",
        "",
        "void unpack_lanes(const word *OUT, long n, int fill, word *R) {",
        "    long i, g;",
        "    int o, j;",
        f"    word high[{max(1, emits)}];",
        "    const word *w;",
        f"    for (o = 0; o < {emits}; o++) high[o] = 0;",
        "    if (fill) {",
        f"        g = (n + {width - 1}) / {width};",
        f"        w = OUT + (g / {tiles}) * {outs} + g % {tiles};",
        f"        for (o = 0; o < {emits}; o++)"
        f" high[o] = w[o * {tiles}] & (word)~(word)1;",
        "    }",
        "    for (i = 0; i < n; i++) {",
        f"        g = i / {width};",
        f"        j = (int)(i % {width});",
        f"        w = OUT + (g / {tiles}) * {outs} + g % {tiles};",
        f"        for (o = 0; o < {emits}; o++) {{",
        f"            *R++ = (word)(((w[o * {tiles}] >> j) & 1) | high[o]);",
        "        }",
        "    }",
        "}",
        "",
    ]


def emit_c(program: Program, tiles: int = 1) -> str:
    """Produce the full C source of the shared-library machine.

    ``tiles=K`` turns every net into an array of K words and every
    statement into a K-iteration loop (see
    :func:`_tiled_statement_lines`); ``tiles=1`` is byte-identical to
    the historical single-word emitter output.
    """
    program.validate()
    if tiles < 1:
        raise CodegenError(f"tiles must be >= 1, got {tiles}")
    word_type = C_WORD_TYPES[program.word_width]
    suffix = "ULL" if word_type == "uint64_t" else "U"
    idx = _tile_index(program)
    interface = program.interface(tiles)
    lines: list[str] = [
        f"/* generated by repro - program {program.name!r} */",
        "#include <stdint.h>",
        "",
        f"#define OUTMASK {program.output_mask}{suffix}",
        f"typedef {word_type} word;",
        f"typedef {C_SWORD_TYPES[program.word_width]} sword;",
        "",
    ]
    if program.stats().popcounts:
        lines += [
            "#if defined(__GNUC__) || defined(__clang__)",
            "static inline word popcount_w(word x) {",
            "    return (word)__builtin_popcountll("
            "(unsigned long long)x);",
            "}",
            "#else",
            "static inline word popcount_w(word x) {",
            "    word n = 0;",
            "    while (x) { x &= (word)(x - 1); n++; }",
            "    return n;",
            "}",
            "#endif",
            "",
        ]
    for name in program.state_vars:
        init = f"{program.state_init[name]}{suffix}"
        if tiles == 1:
            lines.append(f"static word {name} = {init};")
        else:
            fill = ", ".join([init] * tiles)
            lines.append(f"static word {name}[{tiles}] = {{{fill}}};")
    lines.append("")
    num_outputs = interface.output_words
    lines.append(f"int num_state(void) {{ return {interface.state_words}; }}")
    lines.append(f"int num_outputs(void) {{ return {num_outputs}; }}")
    lines.append("")
    if tiles == 1:
        lines.append("void step(const word *V, word *OUT) {")
    else:
        # restrict lets the vectorizer assume V/OUT never alias the
        # static state arrays — without it every 8-iteration tile loop
        # gets a runtime overlap check that eats the SIMD win.
        lines.append(
            "void step(const word *restrict V, word *restrict OUT) {"
        )
    if program.temp_vars:
        if tiles == 1:
            decl = ", ".join(program.temp_vars)
        else:
            decl = ", ".join(f"{t}[{tiles}]" for t in program.temp_vars)
        lines.append(f"    word {decl};")
    if tiles > 1:
        lines.append(f"    int {idx};")
    lines.append("    (void)V; (void)OUT;")
    if tiles == 1:
        lines += _statement_lines(program.init, program, word_type, "    ")
        lines += _statement_lines(program.body, program, word_type, "    ")
        lines += _statement_lines(program.output, program, word_type, "    ")
    else:
        for section in (program.init, program.body, program.output):
            lines += _tiled_statement_lines(
                section, word_type, tiles, "    ", idx
            )
    lines.append("}")
    lines.append("")
    num_inputs = max(1, interface.vector_words)
    lines.append(f"#define NUM_INPUTS {num_inputs}")
    symbol = {ep.name: ep.c_symbol for ep in ENTRY_POINTS}
    lines.append(f"#define NUM_OUTPUTS {num_outputs}")
    lines.append(f"static word OUT_SCRATCH[{max(1, num_outputs)}];")
    # The batch driver: the whole vector loop stays inside the shared
    # library.  OUT == NULL discards outputs (the timing fast path);
    # otherwise each vector's emitted words land at OUT + i*NUM_OUTPUTS
    # in the caller-supplied buffer.
    lines.append(f"void {symbol['run_block']}(const word *V, long n,"
                 " word *OUT) {")
    lines.append("    long i;")
    lines.append("    if (OUT) {")
    lines.append("        for (i = 0; i < n; i++) {")
    lines.append("            step(V + i * NUM_INPUTS,"
                 " OUT + i * NUM_OUTPUTS);")
    lines.append("        }")
    lines.append("    } else {")
    lines.append("        for (i = 0; i < n; i++) {")
    lines.append("            step(V + i * NUM_INPUTS, OUT_SCRATCH);")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    # Pattern-packed batch entry: each of the n "vectors" is a group of
    # per-input lane words (bit j of word k = input k of packed vector
    # j), so one step evaluates up to a whole word of vectors.  Packing
    # is a data-layout contract — the per-pass code is the same — but
    # the named entry point keeps the ABI explicit and mirrors the
    # Python backend's packed opcode.
    lines.append(f"void {symbol['run_packed_block']}(const word *V, long n,"
                 " word *OUT) {")
    lines.append(f"    {symbol['run_block']}(V, n, OUT);")
    lines.append("}")
    lines.append("")
    lines += _lane_helper_lines(interface)
    lines.append(f"void {symbol['dump_state']}(word *S) {{")
    if tiles > 1 and program.state_vars:
        lines.append(f"    int {idx};")
    lines.append("    (void)S;")
    for i, name in enumerate(program.state_vars):
        if tiles == 1:
            lines.append(f"    S[{i}] = {name};")
        else:
            lines.append(f"    for ({idx} = 0; {idx} < {tiles}; {idx}++)"
                         f" S[{i * tiles} + {idx}] = {name}[{idx}];")
    lines.append("}")
    lines.append("")
    lines.append(f"void {symbol['load_state']}(const word *S) {{")
    if tiles > 1 and program.state_vars:
        lines.append(f"    int {idx};")
    lines.append("    (void)S;")
    for i, name in enumerate(program.state_vars):
        if tiles == 1:
            lines.append(f"    {name} = S[{i}];")
        else:
            lines.append(f"    for ({idx} = 0; {idx} < {tiles}; {idx}++)"
                         f" {name}[{idx}] = S[{i * tiles} + {idx}];")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
