"""Expression parser, printer and grid evaluation."""

import numpy as np
import pytest

from abreu import (
    DimensionError,
    EvalError,
    FieldSyntaxError,
    eval_field,
    make_grid,
    parse,
    periodicity_defect,
    sup_norm,
)
from abreu.fieldlang import Bin, Call, Const, Num, Neg, Pow, Var
from tests.support import to_string


class TestParse:
    def test_basic_shape(self):
        e = parse("0.01*cos(2*pi*x1)")
        assert isinstance(e, Bin) and e.op == "*"
        assert e.left == Num(0.01)
        assert isinstance(e.right, Call) and e.right.name == "cos"
        inner = e.right.arg
        assert inner == Bin("*", Bin("*", Num(2.0), Const("pi")), Var(1))

    def test_precedence(self):
        assert parse("1+2*3") == Bin("+", Num(1.0), Bin("*", Num(2.0), Num(3.0)))

    def test_left_associativity(self):
        assert parse("1-2-3") == Bin("-", Bin("-", Num(1.0), Num(2.0)), Num(3.0))
        assert parse("8/4/2") == Bin("/", Bin("/", Num(8.0), Num(4.0)), Num(2.0))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x1^2") == Neg(Pow(Var(1), 2))

    def test_negative_exponent(self):
        assert parse("x1^-2") == Pow(Var(1), -2)

    def test_unclosed_paren_reports_offset(self):
        with pytest.raises(FieldSyntaxError) as info:
            parse("cos(2*pi*x3")
        assert info.value.offset == len("cos(2*pi*x3")
        assert ")" in info.value.expected

    def test_unknown_name(self):
        with pytest.raises(FieldSyntaxError) as info:
            parse("2*tan(x1)")
        assert info.value.offset == 2

    def test_fractional_exponent_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse("x1^2.5")

    def test_static_zero_denominator_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse("1/0")

    def test_garbage_character(self):
        with pytest.raises(FieldSyntaxError) as info:
            parse("1 + $")
        assert info.value.offset == 4

    @pytest.mark.parametrize(
        "text, offset", [("x1\u00b2", 2), ("\u00b2", 0), ("\u0663*x1", 0), ("x\u0663", 1)]
    )
    def test_non_ascii_digit_is_a_syntax_error(self, text, offset):
        # superscript two and Arabic-Indic three pass str.isdigit, but the
        # grammar's digits are ASCII: no bare ValueError, no silent 3*x1
        with pytest.raises(FieldSyntaxError) as info:
            parse(text)
        assert info.value.offset == offset

    def test_scientific_literals(self):
        assert parse("1e-3") == Num(0.001)
        assert parse("2.5e2") == Num(250.0)


class TestPrinter:
    def test_round_trip_stability(self):
        samples = [
            "0.01*cos(2*pi*x1)",
            "1+2*3",
            "-(x1+x2)*sin(pi*x1)^2",
            "exp(-x1^2)/(1+x2^2)",
            "1-2-3",
            "x1^-3",
            "(1+2)*3",
        ]
        for text in samples:
            e = parse(text)
            assert parse(to_string(e)) == e

    def test_parenthesizes_only_when_needed(self):
        assert to_string(parse("1+2*3")) == "1.0+2.0*3.0"
        assert to_string(parse("(1+2)*3")) == "(1.0+2.0)*3.0"


class TestEvalField:
    def test_zero_expression(self):
        g = make_grid(2, [8, 8])
        assert sup_norm(eval_field(parse("0"), g)) == 0.0

    def test_two_mode_sum(self):
        g = make_grid(2, [16, 16])
        x, y = g.coordinate_arrays()
        f = eval_field(parse("cos(2*pi*x1)+cos(2*pi*x2)"), g)
        expected = np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)
        assert np.array_equal(f.values, expected)

    def test_pointwise_exact_sawtooth(self):
        g = make_grid(1, [16])
        f = eval_field(parse("x1"), g)
        assert np.array_equal(f.values, np.arange(16) / 16)

    def test_dimension_error(self):
        g = make_grid(2, [8, 8])
        with pytest.raises(DimensionError):
            eval_field(parse("x3"), g)

    def test_division_by_zero_at_node(self):
        g = make_grid(1, [8])
        with pytest.raises(EvalError):
            eval_field(parse("1/x1"), g)  # x1 = 0 at the first node

    def test_integer_power_total_on_negative_base(self):
        g = make_grid(1, [8])
        f = eval_field(parse("(x1-0.5)^3"), g)
        x = g.axis_coordinates(0)
        assert np.array_equal(f.values, (x - 0.5) ** 3)


class TestPeriodicityDefect:
    def test_constant_and_single_mode_are_periodic(self):
        g = make_grid(1, [32])
        assert periodicity_defect(eval_field(parse("3"), g)) == 0.0
        assert periodicity_defect(eval_field(parse("cos(2*pi*x1)"), g)) < 1e-12

    def test_sawtooth_flagged(self):
        g = make_grid(1, [32])
        assert periodicity_defect(eval_field(parse("x1"), g)) > 1e-8
