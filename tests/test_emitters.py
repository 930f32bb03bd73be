"""Tests for the Python and C emitters, including backend parity.

The key property: the same IR program produces bit-identical behaviour
on the Python-exec backend and the gcc backend.  Random straight-line
programs are generated and run on both.
"""

import random
import re
import subprocess

import pytest

from repro.codegen.c_emitter import (
    STEP_PART_OPTIMIZE,
    STEP_PART_SIZE,
    emit_c,
    render_expr_c,
)
from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Input,
    Program,
    Un,
    Var,
)
from repro.codegen.python_emitter import emit_python, render_expr_python
from repro.codegen.runtime import CMachine, compile_program, have_c_compiler
from repro.errors import CodegenError
from repro.faults.simulator import ParallelFaultSimulator
from repro.harness.runner import build_simulator
from repro.logic import GateType
from repro.netlist.circuit import Circuit
from repro.netlist.generators import array_multiplier
from repro.parallel.codegen import generate_parallel_program

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


class TestPythonRendering:
    def test_basic_exprs(self):
        assert render_expr_python(Var("a")) == "a"
        assert render_expr_python(Const(7)) == "7"
        assert render_expr_python(Input(2)) == "V[2]"
        assert render_expr_python(Un("~", Var("a"))) == "~a"
        expr = Bin("|", Var("a"), Bin("<<", Var("b"), Const(1)))
        assert render_expr_python(expr) == "a | (b << 1)"

    def test_masked_unary(self):
        text = render_expr_python(Un("-", Var("a")), masked=True)
        assert text == "(-a) & MASK"

    def test_sar_rendering(self):
        text = render_expr_python(Bin("sar", Var("a"), Const(3)))
        assert text == "((a ^ HBIT) - HBIT) >> 3"

    def test_sar_requires_plain_variable(self):
        with pytest.raises(CodegenError, match="plain variables"):
            render_expr_python(
                Bin("sar", Bin("&", Var("a"), Var("b")), Const(1))
            )

    def test_right_shift_over_lshift_rejected_when_masked(self):
        expr = Bin(">>", Bin("<<", Var("a"), Const(2)), Const(1))
        with pytest.raises(CodegenError, match="leak"):
            render_expr_python(expr, masked=True)
        # Unmasked programs (no left shifts by construction) still render.
        assert render_expr_python(expr) == "(a << 2) >> 1"

    def test_shift_out_of_range_rejected(self):
        p = Program("t", word_width=8)
        p.declare("a")
        p.body.append(Assign("a", Bin("<<", Var("a"), Const(8))))
        with pytest.raises(CodegenError, match="word width"):
            emit_python(p)

    def test_comments_rendered(self):
        p = Program("t")
        p.declare("a")
        p.body.append(Comment("hello"))
        assert "# hello" in emit_python(p)

    @pytest.mark.parametrize("where", ["none", "init", "nested", "emit"])
    def test_popcount_helper_exactly_when_used(self, where):
        p = Program("t", word_width=16, inputs=["A"])
        p.declare("a")
        p.declare("n")
        p.init.append(Assign("a", Input(0)))
        # A name or comment that mentions it is not a use.
        p.body.append(Comment("_popcount(a) is not called here"))
        p.body.append(Assign("n", Bin("+", Var("n"), Var("a"))))
        count = Un("popcount", Var("a"))
        if where == "init":
            p.init.append(Assign("n", count))
        elif where == "nested":
            p.body.append(Assign("n", Bin("+", Var("n"), Bin(
                "&", count, Const(3)
            ))))
        p.output.append(Emit(count if where == "emit" else Var("n"),
                             ("n",)))
        source = emit_python(p)
        helper = "    _popcount = getattr(int, 'bit_count', None)"
        assert (helper in source) == (where != "none")
        # It runs, and agrees with C where there is a compiler.
        machines = [compile_program(p, "python")]
        if have_c_compiler():
            machines.append(compile_program(p, "c"))
        outputs = [m.step_many([[0xF0F1], [3]]) for m in machines]
        assert all(out == outputs[0] for out in outputs)


class TestCRendering:
    def test_basic_exprs(self):
        assert render_expr_c(Var("a"), "uint32_t") == "a"
        assert render_expr_c(Const(7), "uint32_t") == "7U"
        assert render_expr_c(Const(7), "uint64_t") == "7ULL"
        assert render_expr_c(Input(1), "uint32_t") == "V[1]"

    def test_unary_casts(self):
        assert render_expr_c(Un("~", Var("a")), "uint8_t") == "(uint8_t)~a"
        assert (
            render_expr_c(Un("-", Var("a")), "uint32_t")
            == "(uint32_t)(0 - a)"
        )

    def test_sar_uses_signed_type(self):
        text = render_expr_c(Bin("sar", Var("a"), Const(3)), "uint32_t")
        assert text == "(uint32_t)((sword)a >> 3U)"

    def test_emitted_source_structure(self):
        p = Program("t", word_width=32, inputs=["A"])
        p.declare("x", 3)
        p.declare_temp("t0")
        p.init.append(Assign("t0", Input(0)))
        p.body.append(Assign("x", Bin("&", Var("x"), Var("t0"))))
        p.output.append(Emit(Var("x"), ("x",)))
        source = emit_c(p)
        assert "typedef uint32_t word;" in source
        assert "typedef int32_t sword;" in source
        # Reentrant: state is the caller's struct, never a static.
        assert "static word" not in source
        assert "dump_state" not in source and "load_state" not in source
        assert "struct state {\n    word x;\n};" in source
        assert "word t0;" in source
        assert (
            "void step(struct state *restrict S, "
            "const word *V, word *OUT)"
        ) in source


def _random_program(
    seed: int, word_width: int, statements: int = 20
) -> Program:
    """A random valid straight-line program over 6 state vars.

    ``statements`` assignments make up the body.  Temporary ``t0`` is
    written two assignments before each multiple of
    :data:`STEP_PART_SIZE` and read one after it, so it is live across
    every would-be cut; ``t1`` is written near the end and emitted, so
    it is live into the output section.
    """
    rng = random.Random(seed)
    p = Program(f"rand{seed}_{statements}", word_width=word_width,
                inputs=["I0", "I1"], mask_assignments=True)
    names = [f"s{i}" for i in range(6)]
    for i, name in enumerate(names):
        p.declare(name, rng.randrange(1 << word_width))
    t0 = p.declare_temp("t0")
    t1 = p.declare_temp("t1")

    def leaf():
        kind = rng.random()
        if kind < 0.6:
            return Var(rng.choice(names))
        if kind < 0.8:
            return Input(rng.randrange(2))
        return Const(rng.randrange(1 << word_width))

    def expr(depth):
        if depth == 0:
            return leaf()
        op = rng.choice(["&", "|", "^", "<<", ">>", "sar", "~", "-"])
        if op in ("~", "-"):
            return Un(op, expr(depth - 1))
        if op == "sar":
            return Bin("sar", Var(rng.choice(names)),
                       Const(rng.randrange(1, word_width)))
        if op in ("<<", ">>"):
            base = expr(depth - 1) if op == "<<" else leaf()
            return Bin(op, base, Const(rng.randrange(word_width)))
        return Bin(op, expr(depth - 1), expr(depth - 1))

    for index in range(statements):
        dest = rng.choice(names)
        value = expr(rng.randrange(3))
        if (index + 2) % STEP_PART_SIZE == 0 and index + 3 < statements:
            dest = t0
        elif (index - 1) % STEP_PART_SIZE == 0 and index > 1:
            value = Bin("^", value, Var(t0))
        elif index == statements - 3:
            dest = t1
        p.body.append(Assign(dest, value))
    for name in names:
        p.output.append(Emit(Var(name), (name,)))
    if statements >= 3:
        p.output.append(Emit(Var(t1), ("t1",)))
    return p


def _parity_cases():
    """Seed and width, then the body length: below one part (ids
    ``<seed>-<width>``), exactly one part, one assignment past it, and
    several parts (ids ending ``-n<length>``).  The several-part
    programs build at the default level, where the parts take
    :data:`STEP_PART_OPTIMIZE`, and again at ``-O0`` (ids ending
    ``-O0``), where the preprocessor drops that bracket."""
    for statements in (20, STEP_PART_SIZE, STEP_PART_SIZE + 1,
                       4 * STEP_PART_SIZE + 3):
        for seed in range(5):
            for word_width in (8, 32, 64):
                tag = "" if statements == 20 else f"-n{statements}"
                levels = [None]
                if statements > 2 * STEP_PART_SIZE:
                    levels.append("-O0")
                for level in levels:
                    suffix = level or ""
                    yield pytest.param(
                        seed, word_width, statements, level,
                        id=f"{seed}-{word_width}{tag}{suffix}",
                    )


@NEED_CC
@pytest.mark.parametrize("seed,word_width,statements,opt_level",
                         _parity_cases())
def test_backend_parity_on_random_programs(monkeypatch, seed, word_width,
                                           statements, opt_level):
    program = _random_program(seed * 31 + word_width, word_width,
                              statements)
    py = compile_program(program, "python")
    if opt_level == "-O0":
        # The level follows the program's size alone.
        monkeypatch.setattr(CMachine, "O0_LINE_THRESHOLD", 0)
    cc = compile_program(program, "c")
    assert cc.opt_level == (opt_level or CMachine.OPT_LEVEL)
    rng = random.Random(seed + 1)
    for step in range(10):
        vector = [rng.randrange(1 << word_width) for _ in range(2)]
        assert py.step(vector) == cc.step(vector), (seed, step)
    assert py.dump_state() == cc.dump_state()


@NEED_CC
def test_backend_parity_state_roundtrip():
    program = _random_program(99, 32)
    py = compile_program(program, "python")
    cc = compile_program(program, "c")
    state = [0xDEADBEEF % (1 << 32)] * 6
    py.load_state(state)
    cc.load_state(state)
    assert py.dump_state() == cc.dump_state() == [s & 0xFFFFFFFF for s in state]


_PART = re.compile(
    r"static NOINLINE void step_(\d+)\(struct state \*restrict S,"
    r" const word \*V\) \{\n(.*?)\n\}\n",
    re.S,
)
_STEP = re.compile(
    r"void step\(struct state \*restrict S, const word \*V,"
    r" word \*OUT\) \{\n(.*?)\n\}\n",
    re.S,
)
_NAME = re.compile(r"(S->)?\b([A-Za-z_]\w*)")


def _check_parts(source: str) -> int:
    """Assert the part structure of ``source``; return the part count.

    ``step`` calls its parts in order; a part holds at most
    ``STEP_PART_SIZE`` assignments unless a temporary live at the cut
    stretched it; every temporary a part reads was assigned earlier
    in that part; only ``step`` writes ``OUT``.
    """
    parts = _PART.findall(source)
    assert [int(index) for index, _ in parts] == list(range(len(parts)))
    step = _STEP.search(source).group(1)
    calls = re.findall(r"^    step_(\d+)\(S, V\);$", step, re.M)
    assert [int(index) for index in calls] == list(range(len(parts)))
    for index, text in parts:
        lines = text.split("\n")
        temps: set = set()
        if lines[0].startswith("    word "):
            temps = set(lines.pop(0)[len("    word "):-1].split(", "))
        assigns = []  # (dest, temporaries read), in order
        for line in lines:
            assert "OUT" not in line
            if line.lstrip().startswith("/*"):
                continue
            dest, rhs = line.strip().rstrip(";").split(" = ", 1)
            reads = {
                name for prefix, name in _NAME.findall(rhs)
                if not prefix and name in temps
            }
            assigns.append((dest, reads))
        written: set = set()
        for dest, reads in assigns:
            assert reads <= written, (index, reads - written)
            written.add(dest)
        for cut in range(STEP_PART_SIZE, len(assigns)):
            # The part ran past its size: a temporary written before
            # this point is read at or after it.
            before = {dest for dest, _ in assigns[:cut]} & temps
            after = set().union(*(reads for _, reads in assigns[cut:]))
            assert before & after, (index, cut)
    return len(parts)


def test_short_programs_render_one_step():
    for statements in (STEP_PART_SIZE // 2, STEP_PART_SIZE):
        source = emit_c(_random_program(1, 32, statements))
        assert "NOINLINE void step_" not in source
        assert "#pragma" not in source  # no parts, no bracket
        assert "word t0, t1;" in source  # every temporary, in step


_GUARD = (
    "#if defined(__OPTIMIZE__) && defined(__GNUC__) && !defined(__clang__)\n"
)
_PUSH = (
    _GUARD + "#pragma GCC push_options\n#pragma GCC optimize ("
    + ", ".join(f'"{name}"' for name in STEP_PART_OPTIMIZE)
    + ")\n#endif\n\n"
)
_POP = _GUARD + "#pragma GCC pop_options\n#endif\n\n"


def test_parts_bracketed_by_one_optimize_pragma():
    """One guarded push/optimize/pop holds every ``step_<i>``
    definition and nothing else: ``step`` and the loops keep the
    library's level."""
    source = emit_c(_random_program(7, 32, 4 * STEP_PART_SIZE + 3))
    assert source.count("#pragma") == 3
    assert source.count(_PUSH) == source.count(_POP) == 1
    head, rest = source.split(_PUSH)
    inside, tail = rest.split(_POP)
    assert _PART.sub("", inside).strip() == ""
    assert len(_PART.findall(inside)) == len(_PART.findall(source)) >= 3
    assert "step_" not in head
    assert tail.startswith("void step(")


def _is_gcc(compiler: str) -> bool:
    macros = subprocess.run(
        [compiler, "-dM", "-E", "-x", "c", "-"],
        input="", capture_output=True, text=True, check=True,
    ).stdout
    return "#define __GNUC__ " in macros and "__clang__" not in macros


@NEED_CC
@pytest.mark.parametrize("level,kept", [("-O1", True), ("-O0", False)])
def test_part_pragma_only_in_optimized_builds(level, kept):
    compiler = have_c_compiler()
    if not _is_gcc(compiler):
        pytest.skip("the parts' pragma is for GCC only")
    source = emit_c(_random_program(7, 32, 4 * STEP_PART_SIZE + 3))
    preprocessed = subprocess.run(
        [compiler, level, "-E", "-x", "c", "-"],
        input=source, capture_output=True, text=True, check=True,
    ).stdout
    assert ("#pragma GCC optimize" in preprocessed) is kept
    assert ("#pragma GCC pop_options" in preprocessed) is kept


def test_parts_of_random_program():
    program = _random_program(7, 32, 4 * STEP_PART_SIZE + 3)
    source = emit_c(program)
    # At least four runs: the last stays in step, because t1 is live
    # into the output section, and step declares it.
    assert _check_parts(source) >= 3
    step = _STEP.search(source).group(1)
    declared = step.split("\n", 1)[0]
    assert declared.startswith("    word ") and "t1" in declared
    assert "    t1 = " in step


def test_parts_of_generated_program():
    # Eight-bit words split the multiplier's fields, so the body
    # carries the multi-word temporaries ``tmp<j>``.
    program, _ = generate_parallel_program(array_multiplier(4),
                                           word_width=8)
    assert program.temp_vars
    assert _check_parts(emit_c(program)) > 1


#: Names that would break out of a C comment or a Python line.
HOSTILE_NAMES = ("y*/", "g */ int injected; /*", "n\nraise SystemExit(3)",
                 "h\nraise SystemExit(4)")


def _hostile_circuit():
    y, gate_y, n, gate_n = HOSTILE_NAMES
    circuit = Circuit("hostile")
    circuit.add_net("a", is_input=True)
    circuit.add_net("b", is_input=True)
    circuit.add_gate(GateType.AND, y, ["a", "b"], name=gate_y)
    circuit.add_gate(GateType.NOT, n, [y], name=gate_n)
    circuit.add_gate(GateType.OR, "z", [n, "a"])
    circuit.add_net(y, is_output=True)
    circuit.add_net("z", is_output=True)
    circuit.validate()
    return circuit


@pytest.mark.parametrize("technique", [
    "pcset", "pcset-mv", "parallel", "parallel-trim", "parallel-pathtrace",
    "parallel-cyclebreak", "parallel-best", "zero-lcc", "faults",
])
def test_names_never_reach_generated_source(technique):
    # Gate and net names become sanitized identifiers and nothing
    # else: no raw name lands in a comment or a line of either source.
    circuit = _hostile_circuit()
    if technique == "faults":
        program = ParallelFaultSimulator(circuit)._instrumented_program()
    else:
        sim = build_simulator(circuit, technique, word_width=8)
        program = sim.program
        sim.reset([1, 1])
        sim.apply_vectors([[0, 1], [1, 1]])
    sources = program.c_source() + program.python_source()
    for name in HOSTILE_NAMES:
        assert name not in sources
