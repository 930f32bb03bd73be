"""Tests for the straight-line program IR."""

import pytest

from repro.codegen.c_emitter import emit_c
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
    c,
    v,
)
from repro.codegen.python_emitter import emit_python
from repro.errors import CodegenError


class TestExpressions:
    def test_operator_overloads(self):
        expr = (v("a") & v("b")) << 1
        assert isinstance(expr, Bin)
        assert expr.op == "<<"
        assert expr.a.op == "&"
        assert expr.b.value == 1

    def test_all_overloads(self):
        a, b = v("a"), v("b")
        assert (a | b).op == "|"
        assert (a ^ b).op == "^"
        assert (a >> 3).op == ">>"
        assert (~a).op == "~"
        assert (-a).op == "-"

    def test_bad_operators_rejected(self):
        with pytest.raises(CodegenError):
            Bin("*", v("a"), v("b"))
        with pytest.raises(CodegenError):
            Un("!", v("a"))

    def test_probe_operators_accepted(self):
        # The probe-lowering pass accumulates counters with ``+`` and
        # ``popcount``; both are first-class IR operators.
        assert Bin("+", v("a"), v("b")).op == "+"
        assert Un("popcount", v("a")).op == "popcount"

    def test_shift_amount_must_be_constant(self):
        with pytest.raises(CodegenError, match="constant"):
            Bin("<<", v("a"), v("b"))
        with pytest.raises(CodegenError, match="constant"):
            Bin("sar", v("a"), v("b"))

    def test_reprs(self):
        assert "Var(a)" in repr(v("a"))
        assert "Const(3)" in repr(c(3))
        assert "V[2]" in repr(Input(2))
        assert "sar" in repr(Bin("sar", v("a"), c(1)))


class TestProgram:
    def make(self):
        p = Program("t", word_width=32, inputs=["A"])
        p.declare("x", 5)
        p.declare("y")
        p.init.append(Assign("x", Input(0)))
        p.body.append(Assign("y", (v("x") & v("y"))))
        p.output.append(Emit(v("y"), ("y", 0)))
        return p

    def test_declare(self):
        p = self.make()
        assert p.state_vars == ["x", "y"]
        assert p.state_init == {"x": 5, "y": 0}
        with pytest.raises(CodegenError, match="duplicate"):
            p.declare("x")

    def test_declare_temp(self):
        p = self.make()
        assert p.declare_temp("t0") == "t0"
        assert p.declare_temp("t0") == "t0"  # idempotent
        assert p.temp_vars == ["t0"]
        with pytest.raises(CodegenError, match="clashes"):
            p.declare_temp("x")

    def test_word_width_choices(self):
        with pytest.raises(CodegenError):
            Program("t", word_width=12)
        for width in (8, 16, 32, 64):
            assert Program("t", word_width=width).word_mask == (1 << width) - 1

    def test_validate_catches_undeclared(self):
        p = self.make()
        p.body.append(Assign("y", v("ghost")))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_validate_catches_undeclared_dest(self):
        p = self.make()
        p.body.append(Assign("ghost", v("x")))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_validate_catches_undeclared_emit(self):
        p = self.make()
        p.output.append(Emit(v("ghost"), ("g",)))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_validate_catches_undeclared_nested(self):
        # The name sits under a Un inside a Bin inside a Bin.
        p = self.make()
        nested = Bin("&", v("y"), Un("~", v("ghost")))
        p.body.append(Assign("y", Bin("|", v("x"), nested)))
        with pytest.raises(CodegenError,
                           match="use of undeclared variable 'ghost'"):
            p.validate()

    @pytest.mark.parametrize("emitter", [emit_c, emit_python])
    def test_temporary_read_before_written_rejected(self, emitter):
        # x = t ^ V[0]; t = V[0] left C reading an uninitialised local
        # and the Python machine raising UnboundLocalError.
        p = Program("t", word_width=8, inputs=["A"])
        p.declare("x")
        p.declare_temp("t")
        p.body.append(Assign("x", Bin("^", Var("t"), Input(0))))
        p.body.append(Assign("t", Input(0)))
        with pytest.raises(CodegenError, match=(
            r"temporary 't' read before it is written in "
            r"Assign\(x = Bin\(\^, Var\(t\), Input\(V\[0\]\)\)\)"
        )):
            emitter(p)
        # Written earlier in the pass, in init, it is fine; a later
        # section reads what an earlier one wrote.
        p.body.reverse()
        emitter(p)
        q = Program("u", word_width=8, inputs=["A"])
        q.declare("x")
        q.declare_temp("t")
        q.init.append(Assign("t", Input(0)))
        q.body.append(Assign("x", Var("t")))
        q.output.append(Emit(Bin("&", Var("t"), Var("x")), ("x",)))
        emitter(q)
        # An emit may not read one the pass never wrote either.
        q.init.clear()
        q.body.clear()
        with pytest.raises(CodegenError, match=r"read before it is written "
                                               r"in Emit"):
            emitter(q)

    def test_validate_rejects_emit_outside_output(self):
        p = self.make()
        p.body.append(Emit(v("y"), ("y", 1)))
        with pytest.raises(CodegenError,
                           match="outside the output section"):
            p.validate()

    def test_stats_counts(self):
        p = Program("t", word_width=32)
        p.declare("a")
        p.declare("b")
        p.body.append(Assign("a", (v("a") & v("b")) << 1))
        p.body.append(Assign("b", -(v("a") >> 31)))
        p.body.append(Comment("note"))
        p.output.append(Emit(~v("a"), ("a",)))
        stats = p.stats()
        assert stats.assignments == 2
        assert stats.shifts == 2
        assert stats.negates == 1
        assert stats.logic_ops == 2  # & and ~
        assert stats.emits == 1
        assert stats.source_lines == 3  # comments not counted
        assert stats.total_ops == 5
        assert stats.as_dict()["shifts"] == 2
        assert "shifts=2" in repr(stats)

    def test_without_output_shares_sections(self):
        p = self.make()
        clone = p.without_output()
        assert clone.output == []
        assert clone.body is p.body
        assert clone.state_vars is p.state_vars
        assert p.output  # untouched

    def test_output_labels(self):
        p = self.make()
        assert p.output_labels() == [("y", 0)]

    def test_input_slot(self):
        p = Program("t", inputs=["A", "B"])
        assert p.input_slot("B") == 1

    def test_repr(self):
        assert "2 vars" in repr(self.make())


class TestInputSlotValidation:
    def test_out_of_range_slot_rejected(self):
        p = Program("t", inputs=["A"])
        p.declare("x")
        p.body.append(Assign("x", Input(3)))
        with pytest.raises(CodegenError, match="slot 3"):
            p.validate()

    def test_out_of_range_slot_in_emit_rejected(self):
        p = Program("t", inputs=["A", "B"])
        p.declare("x")
        p.output.append(Emit(Bin("^", Var("x"), Un("~", Input(2))), ("x",)))
        with pytest.raises(CodegenError,
                           match="input slot 2 outside vector of 2"):
            p.validate()

    def test_in_range_slot_accepted(self):
        p = Program("t", inputs=["A", "B"])
        p.declare("x")
        p.body.append(Assign("x", Bin("&", Input(0), Input(1))))
        p.validate()
