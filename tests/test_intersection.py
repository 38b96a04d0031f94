"""Psi-class intersection numbers and the tail-dressed vertex correlator.

Low cases are checked against hand derivations (string/dilaton chains from
the two seeds) and against three independent closed forms: the genus-0
multinomial (n-3)!/prod(d_i!), the one-point tower <tau_{3g-2}>_g =
1/(24^g g!), and the published two-point genus-3 values.  The correlator's
memoized tail terms are checked against the direct sum over tail legs.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from genuslift.intersection import (
    _DEFAULT_TABLE,
    IntersectionTable,
    _ascending_tuples,
    psi_intersection,
    vertex_correlator,
)
from genuslift.scalars import FloatContext
from oracles import direct_vertex_correlator

CTX = FloatContext()


@pytest.fixture(scope="module")
def table():
    return IntersectionTable()


class TestKnownValues:
    @pytest.mark.parametrize(
        "g, ks, want",
        [
            (0, (0, 0, 0), Fraction(1)),
            (0, (0, 0, 0, 1), Fraction(1)),
            (0, (0, 0, 0, 1, 1), Fraction(2)),
            (0, (2, 0, 0, 0, 0), Fraction(1)),
            (1, (1,), Fraction(1, 24)),
            (1, (0, 2), Fraction(1, 24)),
            (1, (1, 1), Fraction(1, 24)),
            (1, (1, 1, 1), Fraction(1, 12)),
            (2, (4,), Fraction(1, 1152)),
            (2, (0, 5), Fraction(1, 1152)),
            (2, (2, 3), Fraction(29, 5760)),
            (2, (2, 2, 2), Fraction(7, 240)),
            (3, (7,), Fraction(1, 82944)),
            (3, (7, 1), Fraction(5, 82944)),
            (3, (6, 2), Fraction(77, 414720)),
            (3, (5, 3), Fraction(503, 1451520)),
            (3, (4, 4), Fraction(607, 1451520)),
        ],
    )
    def test_value(self, table, g, ks, want):
        assert table.value(g, ks) == want

    def test_one_point_tower(self, table):
        for g in range(1, 6):
            want = Fraction(1, 24 ** g * math.factorial(g))
            assert table.value(g, (3 * g - 2,)) == want

    def test_genus_zero_multinomial(self, table):
        rng = random.Random(20260818)
        for _ in range(25):
            n = rng.randint(3, 9)
            ds = [0] * n
            for _ in range(n - 3):
                ds[rng.randrange(n)] += 1
            want = Fraction(math.factorial(n - 3))
            for d in ds:
                want /= math.factorial(d)
            assert table.value(0, ds) == want

    def test_dimension_mismatch_is_zero(self, table):
        assert table.value(0, (0, 0, 1)) == 0
        assert table.value(1, (2,)) == 0
        assert table.value(2, (1, 1, 1)) == 0

    def test_order_invariance(self, table):
        assert table.value(3, (2, 6)) == table.value(3, (6, 2))
        assert table.value(2, [4, 0, 1]) == table.value(2, (4, 1, 0)) == table.value(2, (0, 1, 4))
        # only sorted keys are stored, so an unsorted one never hits wrongly
        assert all(ks == tuple(sorted(ks)) for _, ks in table._cache)

    def test_starved_keys_still_checked(self, table):
        # dimension-starved, but negative or unstable: an error, not 0
        with pytest.raises(ValueError):
            table.value(1, (-1, 5))
        with pytest.raises(ValueError):
            table.value(0, (1, 1))
        with pytest.raises(ValueError):
            table.tail_terms(2, (-1,))

    def test_unstable_raises(self, table):
        with pytest.raises(ValueError):
            table.value(0, (0, 0))
        with pytest.raises(ValueError):
            table.value(1, ())
        with pytest.raises(ValueError):
            table.value(0, ())

    def test_negative_index_raises(self, table):
        with pytest.raises(ValueError):
            table.value(1, (-1, 2))

    def test_default_table_wrapper(self):
        assert psi_intersection(2, (4,)) == Fraction(1, 1152)

    def test_string_dilaton_hold_on_every_entry(self, table):
        # exercise some deeper entries first so the sweep has material
        table.value(4, (5, 5))
        table.value(3, (2, 2, 3, 2))
        assert table.identity_failures() == []


class TestVertexCorrelator:
    def test_unstable_returns_zero(self):
        assert vertex_correlator(2, (), {}, Fraction(5)) == 0
        assert vertex_correlator(0, (0,), {2: Fraction(1)}, Fraction(1)) == 0
        assert vertex_correlator(0, (0, 0), {2: Fraction(1)}, Fraction(1)) == 0
        assert vertex_correlator(1, (), {2: Fraction(1)}, Fraction(1)) == 0

    def test_single_tail(self):
        got = vertex_correlator(1, (0,), {2: Fraction(3)}, Fraction(9))
        assert got == Fraction(3, 24)

    def test_genus_zero_prefactor(self):
        assert vertex_correlator(0, (0, 0, 0), {}, Fraction(1)) == 1
        assert vertex_correlator(0, (0, 0, 0), {}, Fraction(3)) == Fraction(1, 3)

    def test_tail_multiplicities(self, table):
        t2, t3, t4 = Fraction(2), Fraction(5), Fraction(7)
        got = vertex_correlator(2, (), {2: t2, 3: t3, 4: t4}, Fraction(1))
        want = (
            t4 * table.value(2, (4,))
            + t2 * t3 * table.value(2, (2, 3))
            + t2 ** 3 * table.value(2, (2, 2, 2)) / 6
        )
        assert got == want

    def test_edge_and_tail_mix(self, table):
        # genus 1, one edge with psi^1: budget allows no tails at all
        assert vertex_correlator(1, (1,), {2: Fraction(1)}, Fraction(2)) == Fraction(1, 24) * 2 ** 0
        # genus 1, edge psi^0 and tails up to one leg
        got = vertex_correlator(1, (0,), {2: Fraction(1, 2), 3: Fraction(9)}, Fraction(4))
        assert got == Fraction(1, 2) * table.value(1, (0, 2))

    def test_float_backend(self):
        with CTX.guard():
            tails = {2: CTX.num(Fraction(1, 2))}
            got = vertex_correlator(1, (0,), tails, CTX.num(3))
            want = CTX.num(Fraction(1, 48))
            assert mpmath.fabs(got - want) <= mpmath.mpf("1e-70")

    def test_genus_zero_with_tails(self, table):
        # four psi^0 edge ends, one tail leg of weight 2
        got = vertex_correlator(0, (0, 0, 0, 0), {2: Fraction(3)}, Fraction(1))
        assert got == Fraction(3) * table.value(0, (0, 0, 0, 0, 2))
        assert table.value(0, (0, 0, 0, 0, 2)) == Fraction(1)


def _tail_cases(rng):
    """(g, sorted edge powers) for every vertex a genus <= 4 graph can
    carry, with tails T_2 .. T_10 of which some are missing and some 0."""
    for g in range(5):
        for m in range(7):
            if 2 * g - 2 + m <= 0:
                continue
            cap = 3 * g - 3 + m
            for ks in _ascending_tuples(m, rng.randint(0, max(cap, 0)), 0):
                keep = rng.sample(range(2, 11), rng.randint(0, 9))
                tails = {
                    a: rng.choice([Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
                    for a in keep
                }
                yield g, ks, tails


class TestTailTerms:
    """The correlator over a table's memoized tail terms, against the
    direct sum over tail legs it replaced (``oracles.direct_vertex_correlator``)."""

    def test_exact_on_rationals(self):
        rng = random.Random(20261019)
        # the terms fill the process table, the direct sum reads its own
        fresh, reference = _DEFAULT_TABLE, IntersectionTable()
        cases = list(_tail_cases(rng))
        assert len(cases) > 100
        for g, ks, tails in cases:
            hbar_delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            got = vertex_correlator(g, ks, tails, hbar_delta)
            want = direct_vertex_correlator(g, ks, tails, hbar_delta, table=reference)
            assert got == want
        assert fresh.identity_failures() == []

    def test_bit_identical_on_kernel_scalars(self):
        rng = random.Random(1019)
        for g, ks, tails in _tail_cases(rng):
            with CTX.guard():
                # rotate each tail by a random eighth of a turn
                values = [
                    CTX.num(x) * mpmath.expjpi(mpmath.mpf(rng.randint(0, 7)) / 4)
                    for x in tails.values()
                ]
            hbar_delta, *scalars = CTX.to_kernel([mpmath.mpc(3, -1) / 7, *values])
            kernel = dict(zip(tails, scalars))
            got = vertex_correlator(g, ks, kernel, hbar_delta)
            want = direct_vertex_correlator(g, ks, kernel, hbar_delta)
            assert type(got) is type(want)
            assert (got.re, got.im) == (want.re, want.im)

    def test_fresh_table_fills_its_own_terms(self):
        table = IntersectionTable()
        # powers past 3g - 3 + m, or an unstable vertex, leave no leg
        assert table.tail_terms(2, (5,)) == table.tail_terms(0, (0, 0)) == ()
        terms = table.tail_terms(2, ())
        assert table.tail_terms(2, ()) is terms
        assert [legs for legs, _ in terms] == [(4,), (2, 3), (2, 2, 2)]
        assert [weight for _, weight in terms] == [
            table.value(2, (4,)), table.value(2, (2, 3)), table.value(2, (2, 2, 2)) / 6
        ]
        # each table keeps its own terms
        other = IntersectionTable()
        assert other.tail_terms(2, ()) == terms and other.tail_terms(2, ()) is not terms
        assert table.identity_failures() == []
