"""Tests for the Python and C emitters, including backend parity.

The key property: the same IR program produces bit-identical behaviour
on the Python-exec backend and the gcc backend.  Random straight-line
programs are generated and run on both.
"""

import random

import pytest

from repro.codegen.c_emitter import emit_c, render_expr_c
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
from repro.codegen.runtime import compile_program, have_c_compiler
from repro.errors import CodegenError

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


def _random_program(seed: int, word_width: int) -> Program:
    """A random valid straight-line program over 6 state vars."""
    rng = random.Random(seed)
    p = Program(f"rand{seed}", word_width=word_width,
                inputs=["I0", "I1"], mask_assignments=True)
    names = [f"s{i}" for i in range(6)]
    for i, name in enumerate(names):
        p.declare(name, rng.randrange(1 << word_width))

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

    for _ in range(20):
        p.body.append(Assign(rng.choice(names), expr(rng.randrange(3))))
    for name in names:
        p.output.append(Emit(Var(name), (name,)))
    return p


@NEED_CC
@pytest.mark.parametrize("word_width", [8, 32, 64])
@pytest.mark.parametrize("seed", range(5))
def test_backend_parity_on_random_programs(seed, word_width):
    program = _random_program(seed * 31 + word_width, word_width)
    py = compile_program(program, "python")
    cc = compile_program(program, "c")
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
