"""Series engine: caps, arithmetic, series functions, singular quotient."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslift.frame import _entry
from genuslift.rmatrix import _divide
from genuslift.scalars import FloatContext
from genuslift.series import Caps, TruncatedSeries
from oracles import close, singular_quotient


def geom(caps, name, order):
    """1 - x + x^2 - ... up to order."""
    s = TruncatedSeries.zero(caps)
    for k in range(order + 1):
        s = s + TruncatedSeries.var(caps, name, k, Fraction((-1) ** k))
    return s


class TestZeroTest:
    """Numbers and series answer one zero test, ``x or x != 0``: an empty
    series equals 0, so the division by z + w and R's entries drop exact
    zeros whichever ring they run on."""

    def test_empty_series_equals_zero(self):
        caps = Caps.total(("x",), 2)
        empty, x = TruncatedSeries(caps), TruncatedSeries.var(caps, "x")
        assert empty == 0 and not (empty or empty != 0)
        assert x != 0 and x == x and x - x == 0
        assert TruncatedSeries.const(caps, Fraction(3)) == 3 != x
        assert _entry(empty) == 0 and type(_entry(empty)) is int

    def test_divide_drops_exact_zero_series(self):
        # (E(z) E(w) - 1) / (z + w) for E = 1 + x z: N_pq = e_p e_q with
        # e = (1, x, 0), so Q_00 = N_01 = x, Q_01 = N_02 = 0 and
        # Q_10 = N_11 - Q_01 = x^2 (entered with the sign (-1)^(k+l))
        caps = Caps.total(("x",), 4)
        e = [TruncatedSeries.const(caps, Fraction(1)), TruncatedSeries.var(caps, "x"),
             TruncatedSeries(caps)]
        coefficients = [[[x]] for x in e]
        table, remainders = _divide(coefficients, coefficients, 2, 1, [[1]])
        assert sorted(table) == [(0, 0, 0, 0), (0, 0, 1, 0)]
        assert table[0, 0, 0, 0] == e[1] and table[0, 0, 1, 0] == -(e[1] * e[1])
        # the remainder E(z) E(-z) - 1 = -x^2 z^2
        assert remainders[1][0][0] == 0 and remainders[2][0][0] == -(e[1] * e[1])


class TestArithmetic:
    def test_geometric_inverse(self):
        caps = Caps.total(("z",), 9)
        one_plus = TruncatedSeries.const(caps, 1) + TruncatedSeries.var(caps, "z")
        prod = one_plus * geom(caps, "z", 9)
        assert prod.c == {(0,): Fraction(1)}

    def test_inverse_matches_geometric(self):
        caps = Caps.total(("z",), 9)
        one_plus = TruncatedSeries.const(caps, 1) + TruncatedSeries.var(caps, "z")
        assert (one_plus.inverse() - geom(caps, "z", 9)).c == {}

    def test_exp_log_roundtrip(self):
        caps = Caps.total(("z",), 6)
        one_plus = TruncatedSeries.const(caps, 1) + TruncatedSeries.var(caps, "z")
        back = one_plus.log().exp()
        assert (back - one_plus).c == {}

    def test_random_ring_axioms(self):
        rng = random.Random(11)
        caps = Caps.total(("x", "y"), 5)

        def rand_series():
            s = TruncatedSeries.zero(caps)
            for _ in range(6):
                kx, ky = rng.randint(0, 3), rng.randint(0, 3)
                s = s + TruncatedSeries(caps, {(kx, ky): Fraction(rng.randint(-9, 9))})
            return s

        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert ((a * b) * c - a * (b * c)).c == {}
            assert (a * b - b * a).c == {}
            assert (a * (b + c) - (a * b + a * c)).c == {}

    def test_division_roundtrip_random(self):
        rng = random.Random(7)
        caps = Caps.total(("x",), 8)
        for _ in range(20):
            a = TruncatedSeries(
                caps, {(k,): Fraction(rng.randint(-5, 5)) for k in range(9)}
            )
            b = TruncatedSeries(
                caps, {(k,): Fraction(rng.randint(-5, 5)) for k in range(1, 9)}
            ) + TruncatedSeries.const(caps, Fraction(rng.choice([1, 2, -1, 3])))
            assert ((a * b) / b - a).c == {}

    def test_caps_prune_products(self):
        caps = Caps.total(("x",), 3)
        x = TruncatedSeries.var(caps, "x")
        assert (x ** 4).c == {}
        assert all(caps.keep(k) for k in (x ** 2 * x).c)


class TestLaurentAndWeighted:
    def test_negative_exponents(self):
        caps = Caps.box(("h", "q"), maxs={"h": 2, "q": 6}, mins={"h": -3})
        s = TruncatedSeries.var(caps, "h", -1) * TruncatedSeries.var(caps, "q", 3)
        assert s.scalar_coeff((-1, 3)) == 1
        cube = s * s * s
        assert cube.c == {} or all(k[0] >= -3 for k in cube.c)

    def test_weighted_cap_terminates_exp(self):
        # grading deg(h)=2, deg(q)=1 makes h^-1 q^3 have weight 1
        caps = Caps.box(
            ("h", "q"),
            maxs={"h": 1, "q": 12},
            mins={"h": -4},
            weighted=[({"h": 2, "q": 1}, 4)],
        )
        n = TruncatedSeries(caps, {(-1, 3): Fraction(1, 6)})
        e = n.exp()
        # exp contains n^k for k <= 4 by the weighted cap
        assert e.scalar_coeff((0, 0)) == 1
        assert e.scalar_coeff((-1, 3)) == Fraction(1, 6)
        assert e.scalar_coeff((-2, 6)) == Fraction(1, 72)
        assert e.scalar_coeff((-4, 12)) == Fraction(1, 31104)
        assert all(2 * k[0] + k[1] <= 4 for k in e.c)

    def test_derivative_below_floor_raises(self):
        caps = Caps.box(("h",), maxs={"h": 2}, mins={"h": -1})
        s = TruncatedSeries.var(caps, "h", -1)
        with pytest.raises(ArithmeticError):
            s.partial("h")


class TestSeriesFunctions:
    def test_sqrt_float_backend(self):
        ctx = FloatContext(192)
        caps = Caps.total(("z",), 6)
        with ctx.guard():
            s = TruncatedSeries.const(caps, ctx.num(9)) + TruncatedSeries.var(
                caps, "z", 1, ctx.num("0.5")
            )
            r = s.sqrt(ctx)
            resid = ctx.max_abs((r * r - s).c.values())
        assert resid < ctx.tol
        assert close(ctx, r.constant_term(), 3)

    def test_exact_sqrt_perfect_square(self):
        caps = Caps.total(("z",), 5)
        s = TruncatedSeries.const(caps, Fraction(9, 4)) + TruncatedSeries.var(caps, "z")
        r = s.sqrt()
        assert r.constant_term() == Fraction(3, 2)
        assert (r * r - s).c == {}


class TestSingularQuotient:
    def test_difference_of_squares(self):
        caps = Caps.total(("z", "w"), 4)
        num = TruncatedSeries(caps, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
        q, rem = singular_quotient(num, "z", "w")
        assert rem.c == {}
        assert q.c == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}

    def test_exponential_kernel(self):
        # (e^{a(z+w)} - 1) / (z+w) = a + a^2 (z+w)/2 + a^3 (z+w)^2/6 + ...
        a = Fraction(3)
        order = 6
        caps = Caps.total(("z", "w"), order)
        zw = TruncatedSeries.var(caps, "z") + TruncatedSeries.var(caps, "w")
        num = zw.scale(a).exp() - 1
        q, rem = singular_quotient(num, "z", "w")
        assert rem.c == {}
        import math

        expected = TruncatedSeries.zero(caps)
        for j in range(order):
            expected = expected + (zw ** j).scale(a ** (j + 1) * Fraction(1, math.factorial(j + 1)))
        # quotient trustworthy to total degree order-1
        for key, v in expected.c.items():
            if key[0] + key[1] <= order - 1:
                assert q.scalar_coeff(key) == v, key

    def test_zero_numerator(self):
        caps = Caps.total(("z", "w"), 3)
        q, rem = singular_quotient(TruncatedSeries.zero(caps), "z", "w")
        assert q.c == {} and rem.c == {}

    def test_random_exact_multiples(self):
        rng = random.Random(3)
        caps = Caps.total(("z", "w"), 6)
        zw = TruncatedSeries.var(caps, "z") + TruncatedSeries.var(caps, "w")
        for _ in range(15):
            x = TruncatedSeries(
                caps,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-7, 7))
                    for _ in range(5)
                },
            )
            q, rem = singular_quotient(x * zw, "z", "w")
            assert rem.c == {}
            # x has degree <= 4, x*zw degree <= 5 < cap, so recovery is exact
            assert (q - x).c == {}

    def test_nonvanishing_numerator_leaves_remainder(self):
        caps = Caps.total(("z", "w"), 3)
        num = TruncatedSeries.const(caps, Fraction(5)) + TruncatedSeries(
            caps, {(1, 1): Fraction(2)}
        )
        q, rem = singular_quotient(num, "z", "w")
        assert rem.scalar_coeff((0, 0)) == 5
        assert any(v != 0 for v in rem.c.values())


class TestJetCalculus:
    def test_partial_and_integrate_roundtrip(self):
        caps = Caps.total(("x", "y"), 5)
        s = TruncatedSeries(
            caps, {(2, 1): Fraction(3), (0, 4): Fraction(-2), (1, 0): Fraction(7)}
        )
        ds = s.partial("x")
        assert ds.scalar_coeff((1, 1)) == 6


@st.composite
def capped_operands(draw):
    """Caps with negative or open mins, mixed-sign weights and zero to two
    weighted bounds, plus two operands whose keys may lie outside them."""
    n = draw(st.integers(1, 3))
    names = ("x", "y", "z")[:n]
    mins = tuple(draw(st.one_of(st.none(), st.integers(-3, 0))) for _ in range(n))
    maxs = tuple(draw(st.one_of(st.none(), st.integers(0, 4))) for _ in range(n))
    weighted = tuple(
        (tuple(draw(st.integers(-2, 3)) for _ in range(n)), draw(st.integers(-2, 6)))
        for _ in range(draw(st.integers(0, 2)))
    )
    caps = Caps(names, mins, maxs, weighted)
    keys = st.tuples(*[st.integers(-3, 4)] * n)
    values = st.fractions(-5, 5, max_denominator=7).filter(bool)

    def operand():
        s = TruncatedSeries(caps)
        s.c = draw(st.dictionaries(keys, values, max_size=12))
        return s

    return caps, operand(), operand()


class TestProductKernel:
    @settings(max_examples=100, deadline=None, database=None)
    @given(capped_operands())
    def test_matches_all_pairs_product(self, case):
        caps, a, b = case
        naive = {}
        for ka, va in a.c.items():
            for kb, vb in b.c.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                naive[k] = naive.get(k, 0) + va * vb
        naive = {k: v for k, v in naive.items() if v != 0 and caps.keep(k)}
        assert (a * b).c == naive
        assert (b * a).c == naive


CTX = FloatContext(256)
_NONZERO = st.fractions(-50, 50, max_denominator=99).filter(bool)


@st.composite
def mixed_coefficients(draw):
    """Coefficients over one variable, each a Fraction, an mpf or an mpc
    with a full 256-bit mantissa."""
    coeffs = {}
    for k in draw(st.lists(st.integers(0, 6), unique=True, max_size=8)):
        kind = draw(st.sampled_from(("fraction", "mpf", "mpc")))
        a = draw(_NONZERO)
        with CTX.guard():
            if kind == "fraction":
                coeffs[(k,)] = a
            elif kind == "mpf":
                coeffs[(k,)] = CTX.num(a) / 7
            else:
                coeffs[(k,)] = mpmath.mpc(CTX.num(a) / 7, CTX.num(draw(_NONZERO)) / 3)
    return coeffs


def bits(v):
    """A value with its exact representation: the rational itself, or the
    mantissa/exponent tuples of an mpmath number."""
    return type(v), getattr(v, "_mpc_", getattr(v, "_mpf_", v))


def difference(v, w):
    try:
        return v - w
    except TypeError:  # mpmath defines no Fraction - mpf
        return v + -w


def series_of(coeffs):
    s = TruncatedSeries(Caps.box(("x",)))
    s.c = dict(coeffs)
    return s


class TestLinearKernels:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        mixed_coefficients(),
        st.one_of(_NONZERO, st.integers(-1000, 1000).filter(bool), st.integers(2**256, 2**300)),
    )
    def test_scale_matches_per_coefficient_product(self, coeffs, drawn):
        s = series_of(coeffs)
        for a in (drawn, 2**257 + 3, Fraction(-(2**300) - 1, 7)):
            with CTX.guard():
                expected = {k: bits(a * v) for k, v in coeffs.items()}
                assert {k: bits(v) for k, v in s.scale(a).c.items()} == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(mixed_coefficients(), mixed_coefficients())
    def test_sum_and_difference_match_per_coefficient(self, first, second):
        keys = set(first) | set(second)
        with CTX.guard():
            plus = {k: first.get(k, 0) + second.get(k, 0) for k in keys}
            minus = {k: difference(first.get(k, 0), second.get(k, 0)) for k in keys}
            got_plus = (series_of(first) + series_of(second)).c
            got_minus = (series_of(first) - series_of(second)).c
        assert {k: bits(v) for k, v in got_plus.items()} == {
            k: bits(v) for k, v in plus.items() if v != 0
        }
        assert {k: bits(v) for k, v in got_minus.items()} == {
            k: bits(v) for k, v in minus.items() if v != 0
        }
