"""Expression AST: calculus closure, jets, serialization."""

import math
from fractions import Fraction

import pytest

from genuslift.expressions import Expression, UnboundParameterError
from genuslift.scalars import EXACT, FloatContext
from oracles import derivatives, expression_to_json, series_value


def cp1_like_potential():
    # t0^2 t1 / 2 + e^{t1}
    return Expression.term(2, Fraction(1, 2), mono=(2, 1)) + Expression.term(
        2, 1, expo=(0, 1)
    )


class TestDerivativesAtPoint:
    def test_third_derivatives_exponential_model(self):
        f = cp1_like_potential()
        d = derivatives(f, (0, 0), 3, EXACT)
        assert d[(2, 1)] == 1  # F_001 with two 0-legs and one 1-leg
        assert d[(0, 3)] == 1  # F_111
        assert d[(3, 0)] == 0  # F_000
        assert d[(0, 0)] == 1  # value e^0

    def test_cubic_second_and_third(self):
        f = Expression.term(1, Fraction(1, 6), mono=(3,))
        a = Fraction(5, 7)
        d = derivatives(f, (a,), 3, EXACT)
        assert d[(3,)] == 1
        assert d[(2,)] == a

    def test_parameter_binding(self):
        f = Expression.from_json(
            [{"coeff": {"param": "q"}, "mono": [0], "exp": ["1"]}], 1, {"q": Fraction(1, 4)}
        )
        d = derivatives(f, (0,), 2, EXACT)
        assert d[(0,)] == Fraction(1, 4)
        assert d[(1,)] == Fraction(1, 4)
        assert d[(2,)] == Fraction(1, 4)

    def test_unbound_parameter_raises(self):
        with pytest.raises(UnboundParameterError):
            Expression.from_json([{"coeff": {"param": "q"}, "mono": [2]}], 1, {"p": 1})


class TestCalculusClosure:
    def test_diff_product_rule_on_exp_term(self):
        # d/dt (t^2 e^{3t}) = 2 t e^{3t} + 3 t^2 e^{3t}
        f = Expression.term(1, 1, mono=(2,), expo=(3,))
        g = f.diff(0)
        assert g.terms[((1,), (Fraction(3),))] == 2
        assert g.terms[((2,), (Fraction(3),))] == 3

    def test_antidiff_inverts_diff(self):
        f = Expression.term(2, Fraction(2, 3), mono=(2, 4), expo=(0, Fraction(1, 2)))
        assert (f.diff(1).antidiff(1) - f).terms == {}
        assert (f.diff(0).antidiff(0) - f).terms == {}

    def test_antidiff_exponential_times_power(self):
        # integral of t e^{2t} = (t/2 - 1/4) e^{2t}
        f = Expression.term(1, 1, mono=(1,), expo=(2,))
        g = f.antidiff(0)
        assert g.terms[((1,), (Fraction(2),))] == Fraction(1, 2)
        assert g.terms[((0,), (Fraction(2),))] == Fraction(-1, 4)

    def test_antidiff_logarithm_raises(self):
        f = Expression.term(1, 1, mono=(-1,))
        with pytest.raises(ArithmeticError):
            f.antidiff(0)

    def test_antidiff_negative_power_with_exponential_raises(self):
        f = Expression.term(1, 1, mono=(-2,), expo=(1,))
        with pytest.raises(ArithmeticError):
            f.antidiff(0)

    def test_laurent_diff(self):
        f = Expression.term(1, 1, mono=(-3,))
        g = f.diff(0)
        assert g.terms[((-4,), (Fraction(0),))] == -3


class TestJets:
    def test_jet_matches_float_evaluation(self):
        ctx = FloatContext(192)
        f = cp1_like_potential()
        jet = f.jet((Fraction(1, 3), Fraction(-1, 2)), 4, ctx)
        # compare f(p + h) against the jet sum at a small displacement
        with ctx.guard():
            h0, h1 = ctx.num("1e-9"), ctx.num("-2e-9")
            direct = f.evaluate((ctx.num(Fraction(1, 3)) + h0, ctx.num(Fraction(-1, 2)) + h1), ctx)
            via_jet = series_value(jet, {"t0": h0, "t1": h1}, ctx)
            err = abs(direct - via_jet)
        # order-4 jet leaves an O(h^5) tail
        assert err < ctx.num("1e-42")

    def test_exact_jet_of_laurent_term(self):
        f = Expression.term(1, Fraction(3), mono=(-2,))
        jet = f.jet((Fraction(1, 2),), 3, EXACT)
        # 3 (1/2 + d)^-2 = 12 - 48 d + 144 d^2 - 384 d^3 + ...
        assert jet.scalar_coeff((0,)) == 12
        assert jet.scalar_coeff((1,)) == -48
        assert jet.scalar_coeff((2,)) == 144
        assert jet.scalar_coeff((3,)) == -384

    def test_exact_jet_exponential_at_zero(self):
        f = Expression.term(1, 1, expo=(Fraction(5),))
        jet = f.jet((0,), 4, EXACT)
        for j in range(5):
            assert jet.scalar_coeff((j,)) == Fraction(5**j, math.factorial(j))

    def test_exact_jet_transcendental_point_raises(self):
        f = Expression.term(1, 1, expo=(1,))
        with pytest.raises(ArithmeticError):
            f.jet((1,), 2, EXACT)


def evaluate_converting_every_call(f, point, ctx):
    """The value of ``f`` with every coefficient and exponential rate passed
    through ``ctx.num`` afresh, in the order Expression.evaluate sums."""
    with ctx.guard():
        pt = [ctx.num(x) for x in point]
        total = ctx.num(0)
        for (mono, expo), c in f.terms.items():
            term = ctx.num(c)
            for x, m in zip(pt, mono):
                if m:
                    term = term * x**m
            arg = ctx.num(0)
            for lam, x in zip(expo, pt):
                if lam:
                    arg = arg + ctx.num(lam) * x
            if arg != 0:
                term = term * ctx.exp(arg)
            total = total + term
        return total


class TestEvaluate:
    def test_terms_converted_once_per_precision_are_bit_identical(self):
        f = cp1_like_potential() + Expression.term(
            2, Fraction(-3, 7), mono=(1, -2), expo=(Fraction(2, 5), Fraction(-1, 3))
        )
        point = (Fraction(1, 3), Fraction(-5, 7))
        # revisit each precision, so a conversion kept from another one shows
        for bits in (256, 113, 256, 64, 113):
            ctx = FloatContext(bits)
            assert f.evaluate(point, ctx) == evaluate_converting_every_call(f, point, ctx)

    def test_exact_and_float_evaluations_do_not_mix(self):
        # 2/3 t0^2 t1 - 1/5 t1^3 at (1/3, -5/7)
        f = Expression.term(2, Fraction(2, 3), mono=(2, 1)) + Expression.term(
            2, Fraction(-1, 5), mono=(0, 3)
        )
        point = (Fraction(1, 3), Fraction(-5, 7))
        exact = Fraction(2, 27) * Fraction(-5, 7) + Fraction(1, 5) * Fraction(125, 343)
        ctx = FloatContext(256)
        assert f.evaluate(point, ctx) == evaluate_converting_every_call(f, point, ctx)
        value = f.evaluate(point, EXACT)
        assert isinstance(value, Fraction) and value == exact
        assert f.evaluate(point, ctx) == evaluate_converting_every_call(f, point, ctx)


class TestSerialization:
    def test_roundtrip(self):
        f = cp1_like_potential() + Expression.term(2, Fraction(-7, 3), mono=(0, -2))
        data = expression_to_json(f)
        g = Expression.from_json(data)
        assert g.terms == f.terms

    def test_schema_shape(self):
        f = Expression.term(2, Fraction(1, 2), mono=(2, 1))
        item = expression_to_json(f)[0]
        assert item["coeff"] == "1/2"
        assert item["mono"] == [2, 1]
        assert item["exp"] == ["0", "0"]

    def test_param_coeff_shape(self):
        # a parameter coefficient is bound on read and written as its value
        data = [{"coeff": {"param": "q", "times": "2/3"}, "mono": [0], "exp": ["1"]}]
        item = expression_to_json(Expression.from_json(data, 1, {"q": Fraction(9, 2)}))[0]
        assert item["coeff"] == "3"
