"""Descendent potentials pinned to the one-dimensional model and to identities.

The one-dimensional model is solvable by hand: the calibration is
S_k = t^k/k!, the criticality condition is f(t) = sum_k t_k t^k/k! - t = 0,
the genus-0 potential closes to F0(t_0, t_1) = t_0^3 / (6 (1 - t_1)), and
the bold data is D^{-1/2} = -f'(t*), T_k = f^(k)(t*) sqrt(D).  Its
descendent potential is checked against the raw intersection-number sum
sum_n (1/n!) <tau_{k_1} ... tau_{k_n}>_g prod t_{k_i}, which is finite and
exact when t_0 = t_1 = 0 and converges geometrically for small couplings,
and against its Itzykson-Zuber resummation, which is finite for any
couplings and is itself pinned to the direct sum in both regimes.

For two-dimensional models the anchors are structural: string, dilaton, and
topological recursion hold numerically, and exactly in the graded formal
regime; two curve-space points sharing a critical point share every
two-point table; trivial couplings reduce every bold quantity to its
primary counterpart through the same code path; and the two genus-1
differentials (idempotent-frame one-form versus the pullback of dF^1 plus
the Jacobian determinant term) agree to stencil accuracy.

WDVV enters twice: the calibration's path-independence check is exactly
associativity (a deliberately non-associative 3d potential must be caught
at S_2), and the inverse Jacobian of the critical-point map is quantum
multiplication by a bracket vector, with eigenvalues sqrt(Delta_i / D_i).
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslift.expressions import Expression
from genuslift.frame import canonical_frame
from genuslift.frobenius import FrobeniusModel, point_model, two_primary_model
from genuslift.genus import genus_potential
from genuslift.descendent import (
    CurvePoint,
    bold_quantities,
    compute_calibration,
    critical_point,
    descendent_frame,
    descendent_potential,
    point_descendent_resummed,
)
from genuslift.linalg import mat_mul
from genuslift.rmatrix import compute_R, edge_tail_data
from genuslift.scalars import EXACT, FloatContext, from_kernel
from genuslift.series import TruncatedSeries
from oracles import (
    calibration_unitarity_residual,
    critical_inverse_jacobian,
    critical_point_formal,
    critical_point_reference,
    eigenvalues_float,
    genus0_descendents,
    genus0_formal,
    genus1_descendent_routes,
    mpmath_data,
    point_descendent_reference,
    shifted,
    t_entry,
)

CTX = FloatContext()
TIGHT = mpmath.mpf("1e-60")
REDUCE = mpmath.mpf("1e-70")
STENCIL = ((1, Fraction(45)), (-1, Fraction(-45)), (2, Fraction(-9)),
           (-2, Fraction(9)), (3, Fraction(1)), (-3, Fraction(-1)))
STEP = Fraction(1, 10**6)

POINT = point_model()
POINT_CAL = compute_calibration(POINT, order=9)
QUINTIC = two_primary_model(Fraction(1, 2))
QUINTIC_CAL = compute_calibration(QUINTIC, order=7)

# dyadic couplings keep the fixed-point arithmetic exact at trivial tau
QUINTIC_TAU = CurvePoint((
    (Fraction(1, 8), Fraction(3, 16)),
    (Fraction(1, 32), Fraction(1, 16)),
    (Fraction(1, 64), Fraction(1, 128)),
))


def fd(sample):
    """Sixth-order central difference of ``sample(shift)`` in units of STEP."""
    with CTX.guard():
        acc = CTX.num(0)
        for shift, coeff in STENCIL:
            acc = acc + CTX.num(coeff) * sample(shift)
        return acc / (60 * CTX.num(STEP))


class TestCalibration:
    def test_point_model_powers(self):
        for k in range(1, 10):
            entry = POINT_CAL.s[k - 1][0][0]
            val = entry.evaluate((Fraction(3, 7),), EXACT)
            assert val == Fraction(3, 7) ** k / math.factorial(k)

    def test_first_order_is_shifted_hessian(self):
        # d_a S_1 = C_a integrates to g^{-1} Hess(F), zeroed at the origin
        model = QUINTIC
        cal = QUINTIC_CAL
        pt = (Fraction(2, 7), Fraction(3, 5))
        ginv = model.metric_inverse
        pot = model.potential
        for i in range(2):
            for j in range(2):
                expect = Fraction(0)
                for m in range(2):
                    if ginv[m][i]:
                        hess = pot.diff(j).diff(m)
                        expect += ginv[m][i] * (
                            hess.evaluate(pt, EXACT) - hess.evaluate((0, 0), EXACT)
                        )
                assert cal.s[0][i][j].evaluate(pt, EXACT) == expect

    def test_unitarity_at_random_points(self):
        rng = random.Random(11)
        for _ in range(3):
            pt = (Fraction(rng.randint(-8, 8), 16), Fraction(rng.randint(1, 12), 16))
            assert calibration_unitarity_residual(QUINTIC_CAL, pt, CTX) < CTX.tol

    def test_unitarity_exponential_model(self):
        model = two_primary_model(Fraction(1))
        cal = compute_calibration(model, order=5)
        assert calibration_unitarity_residual(cal, (Fraction(1, 3), Fraction(2, 5)), CTX) < CTX.tol

    def test_every_s_k_vanishes_at_the_origin(self):
        cal = compute_calibration(QUINTIC, order=3)
        for k in range(1, 4):
            for row in cal.s[k - 1]:
                for entry in row:
                    assert entry.evaluate((0, 0), EXACT) == 0

    def test_wdvv_violation_detected(self):
        # [C_1, C_2] != 0 for F = t1^2 t2^2 / 4; the S_1 step is still a
        # closed form (it always is), so the failure surfaces at S_2
        bad = FrobeniusModel(
            dimension=3,
            metric=[[Fraction(int(i == j)) for j in range(3)] for i in range(3)],
            potential=Expression.term(3, Fraction(1, 4), mono=(0, 2, 2)),
            name="non-associative",
        )
        with pytest.raises(ArithmeticError, match="WDVV"):
            compute_calibration(bad, order=2)

    def test_laurent_potential_rejected(self):
        # negative powers have no origin-based antiderivative path
        with pytest.raises(ArithmeticError):
            compute_calibration(two_primary_model(Fraction(3, 2)), order=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_calibration(POINT, order=0)
        with pytest.raises(ValueError):
            POINT_CAL.s_values((Fraction(1, 2),), None, order=10)


class TestCurvePoint:
    def test_shape_and_padding(self):
        tau = QUINTIC_TAU
        assert tau.kmax == 2 and tau.dimension == 2
        assert tau.coupling(5) == (0, 0)
        bumped = tau.bumped(4, 1, Fraction(1, 2))
        assert bumped.kmax == 4
        assert bumped.coupling(4) == (0, Fraction(1, 2))
        assert bumped.coupling(2) == tau.coupling(2)

    def test_shifted(self):
        direction = CurvePoint(((1, 0), (0, Fraction(1, 2))))
        out = shifted(QUINTIC_TAU, direction, Fraction(1, 4))
        assert out.coupling(0) == (Fraction(3, 8), Fraction(3, 16))
        assert out.coupling(1)[1] == Fraction(1, 16) + Fraction(1, 8)
        assert out.coupling(2) == QUINTIC_TAU.coupling(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CurvePoint(())
        with pytest.raises(ValueError):
            CurvePoint(((1, 2), (1,)))
        with pytest.raises(ValueError):
            shifted(QUINTIC_TAU, CurvePoint(((1,),)), 1)


class TestCriticalPoint:
    def test_trivial_couplings_exact(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(3, 16)),))
        t = critical_point(QUINTIC, QUINTIC_CAL, tau, CTX)
        with CTX.guard():
            assert t[0] == CTX.num(Fraction(1, 8))
            assert t[1] == CTX.num(Fraction(3, 16))

    def test_point_model_closed_form(self):
        # t = t_0 + t_1 t solves to t_0 / (1 - t_1)
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),)))
        t = critical_point(POINT, POINT_CAL, tau, CTX)
        with CTX.guard():
            expect = CTX.num(Fraction(1, 5)) / (1 - CTX.num(Fraction(1, 7)))
            assert mpmath.fabs(t[0] - expect) < TIGHT

    def test_point_model_against_bisection(self):
        # f(t) = t_0 + t_2 t^2/2 - t has a bracketed root on [0, 1]
        t0, t2 = Fraction(1, 5), Fraction(1, 7)
        tau = CurvePoint(((t0,), (0,), (t2,)))
        t = critical_point(POINT, POINT_CAL, tau, CTX)
        with CTX.guard():
            def f(x):
                return CTX.num(t0) + CTX.num(t2) * x * x / 2 - x

            lo, hi = CTX.num(0), CTX.num(1)
            for _ in range(CTX.prec_bits):
                mid = (lo + hi) / 2
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert mpmath.fabs(t[0] - lo) < mpmath.mpf(2) ** (8 - CTX.prec_bits)

    def test_residual_is_small(self):
        t = critical_point(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            sv = QUINTIC_CAL.s_values(t, CTX, order=2)
            res = [CTX.num(0), CTX.num(0)]
            for a in range(2):
                res[a] = t[a] - CTX.num(QUINTIC_TAU.coupling(0)[a])
                for m in (1, 2):
                    for b in range(2):
                        res[a] -= sv[m][a][b] * CTX.num(QUINTIC_TAU.coupling(m)[b])
            assert CTX.max_abs(res) < mpmath.mpf(2) ** (40 - CTX.prec_bits)

    def test_no_real_solution_reported(self):
        # 50 t^2 - t + 1 = 0 has no real root; Newton must give up loudly
        tau = CurvePoint(((Fraction(1),), (0,), (Fraction(100),)))
        with pytest.raises(ArithmeticError, match="residual"):
            critical_point(POINT, POINT_CAL, tau, CTX)

    def test_coupling_order_guard(self):
        cal = compute_calibration(QUINTIC, order=1)
        with pytest.raises(ValueError):
            critical_point(QUINTIC, cal, QUINTIC_TAU, CTX)


REFERENCE = FloatContext(2 * CTX.prec_bits)
# two-primary models with a calibration at the origin; at d = 3/2 and 5/3
# the potential has its pole there (see test_laurent_models_have_no_origin_calibration)
TWO_PRIMARY_CALS = {
    d: (QUINTIC, QUINTIC_CAL) if d == Fraction(1, 2)
    else (two_primary_model(d), compute_calibration(two_primary_model(d), order=2))
    for d in (Fraction(1, 2), Fraction(1, 3), Fraction(1))
}


def couplings(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=63)


@st.composite
def point_cases(draw):
    """t_0 .. t_5 in [-1/10, 1/10], as in the benchmark's point ops."""
    rows = [(draw(couplings(Fraction(-1, 10), Fraction(1, 10))),) for _ in range(6)]
    return POINT, POINT_CAL, CurvePoint(tuple(rows))


@st.composite
def two_primary_cases(draw):
    """t_0 at a semisimple point, t_1 and t_2 small, as in the benchmark's
    two-primary ops."""
    model, cal = TWO_PRIMARY_CALS[draw(st.sampled_from(sorted(TWO_PRIMARY_CALS)))]
    small = couplings(Fraction(-1, 16), Fraction(1, 16))
    rows = [(draw(couplings(Fraction(-1, 8), Fraction(1, 8))),
             draw(couplings(Fraction(1, 8), Fraction(1, 4))))]
    rows += [(draw(small), draw(small)) for _ in range(2)]
    return model, cal, CurvePoint(tuple(rows))


class TestKernelCriticalPoint:
    """The Newton solve on kernel scalars lands within 2^(16 - bits) of the
    mpmath route run at twice the precision, relative to max(1, |t*|)."""

    @staticmethod
    def assert_near_reference(model, cal, tau):
        t = critical_point(model, cal, tau, CTX)
        ref = critical_point_reference(model, cal, tau, REFERENCE)
        with REFERENCE.guard():
            bound = mpmath.ldexp(1, 16 - CTX.prec_bits) * max(1, max(abs(x) for x in ref))
            assert all(isinstance(x, mpmath.mpf) for x in t)
            assert max(abs(REFERENCE.num(a) - b) for a, b in zip(t, ref)) <= bound

    @settings(max_examples=25, deadline=None, database=None)
    @given(point_cases())
    def test_point_model(self, case):
        self.assert_near_reference(*case)

    @settings(max_examples=25, deadline=None, database=None)
    @given(two_primary_cases())
    def test_two_primary(self, case):
        # d = 1 evaluates its exponential at working precision and converts it
        self.assert_near_reference(*case)

    def test_runaway_exponential_reports_a_stall(self):
        # on d = 1 these couplings send t^1 to where e^{t^1} outgrows the
        # kernel scale; the solve stops there with the stall message
        model = TWO_PRIMARY_CALS[Fraction(1)][0]
        cal = compute_calibration(model, order=3)
        rows = ((-272, 508), (229, -45), (-213, 71), (75, -275))
        tau = CurvePoint(tuple(tuple(Fraction(x, 997) for x in row) for row in rows))
        with pytest.raises(ArithmeticError, match="stalled after") as stall:
            critical_point(model, cal, tau, CTX)
        assert not isinstance(stall.value, OverflowError)
        steps = int(str(stall.value).split("after ")[1].split()[0])
        assert steps < 60 and "; residual " in str(stall.value)
        with pytest.raises(ArithmeticError, match="stalled after 60 iterations; residual"):
            critical_point_reference(model, cal, tau, CTX)

    def test_laurent_models_have_no_origin_calibration(self):
        for d in (Fraction(3, 2), Fraction(5, 3)):
            with pytest.raises(ZeroDivisionError):
                compute_calibration(two_primary_model(d), order=1)


class TestGenus0:
    def test_point_model_closed_form(self):
        a, b = Fraction(1, 5), Fraction(1, 7)
        g0 = genus0_descendents(POINT, POINT_CAL, CurvePoint(((a,), (b,))), CTX)
        with CTX.guard():
            one_minus = 1 - CTX.num(b)
            assert mpmath.fabs(g0.value - CTX.num(a) ** 3 / (6 * one_minus)) < TIGHT
            assert mpmath.fabs(g0.one_point[0][0] - CTX.num(a) ** 2 / (2 * one_minus)) < TIGHT
            assert mpmath.fabs(g0.one_point[1][0] - CTX.num(a) ** 3 / (6 * one_minus ** 2)) < TIGHT

    def test_trivial_couplings_give_primary_value(self):
        a = Fraction(1, 5)
        g0 = genus0_descendents(POINT, POINT_CAL, CurvePoint(((a,),)), CTX)
        with CTX.guard():
            assert mpmath.fabs(g0.value - CTX.num(a) ** 3 / 6) < TIGHT

    def test_string_equation(self):
        for model, cal, tau in (
            (QUINTIC, QUINTIC_CAL, QUINTIC_TAU),
            (two_primary_model(Fraction(1)), compute_calibration(two_primary_model(Fraction(1)), order=5),
             CurvePoint(((Fraction(1, 8), Fraction(1, 4)), (Fraction(1, 32), Fraction(1, 16)),
                         (Fraction(1, 64), Fraction(0))))),
        ):
            g0 = genus0_descendents(model, cal, tau, CTX)
            n, u = model.dimension, model.unit_index
            with CTX.guard():
                rhs = CTX.num(0)
                t0 = [CTX.num(x) for x in tau.coupling(0)]
                for a in range(n):
                    for b in range(n):
                        if model.metric[a][b]:
                            rhs += CTX.num(model.metric[a][b]) * t0[a] * t0[b] / 2
                for m in range(tau.kmax):
                    for a in range(n):
                        rhs += CTX.num(tau.coupling(m + 1)[a]) * g0.one_point[m][a]
                assert mpmath.fabs(g0.one_point[0][u] - rhs) < mpmath.mpf("1e-25")

    def test_dilaton_equation(self):
        g0 = genus0_descendents(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            rhs = -2 * g0.value
            for m in range(QUINTIC_TAU.kmax + 1):
                for a in range(2):
                    rhs += CTX.num(QUINTIC_TAU.coupling(m)[a]) * g0.one_point[m][a]
            assert mpmath.fabs(g0.one_point[1][QUINTIC.unit_index] - rhs) < mpmath.mpf("1e-25")

    def test_topological_recursion(self):
        # d_{(m+1,a)} W_{(l,k)} = W_{(m,0)} g^{-1} d_{(0,.)} W_{(l,k)}
        mdeg, alpha = 1, 0
        l, k, beta, gamma = 1, 0, 1, 1

        def w_fd(bump_m, bump_a):
            def sample(shift):
                g0 = genus0_descendents(
                    QUINTIC, QUINTIC_CAL,
                    QUINTIC_TAU.bumped(bump_m, bump_a, shift * STEP), CTX,
                )
                return g0.two_point[(l, k)][beta][gamma]

            return fd(sample)

        g0 = genus0_descendents(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            lhs = w_fd(mdeg + 1, alpha)
            rhs = CTX.num(0)
            ginv = QUINTIC.metric_inverse
            for mu in range(2):
                for nu in range(2):
                    if ginv[mu][nu]:
                        rhs += (
                            g0.two_point[(mdeg, 0)][alpha][mu]
                            * CTX.num(ginv[mu][nu]) * w_fd(0, nu)
                        )
            assert mpmath.fabs(lhs - rhs) < mpmath.mpf("1e-25")

    def test_one_point_rows_are_derivatives(self):
        # FD of the value against the stored one-point table
        mdeg, alpha = 2, 1

        def sample(shift):
            return genus0_descendents(
                QUINTIC, QUINTIC_CAL, QUINTIC_TAU.bumped(mdeg, alpha, shift * STEP), CTX
            ).value

        g0 = genus0_descendents(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            assert mpmath.fabs(fd(sample) - g0.one_point[mdeg][alpha]) < mpmath.mpf("1e-25")

    def test_two_point_symmetry(self):
        g0 = genus0_descendents(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            for (m, l), mat in g0.two_point.items():
                other = g0.two_point[(l, m)]
                for a in range(2):
                    for b in range(2):
                        assert mpmath.fabs(mat[a][b] - other[b][a]) < TIGHT

    def test_tables_depend_only_on_critical_point(self):
        t_star = critical_point(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            sv = QUINTIC_CAL.s_values(t_star, CTX, order=2)
            other_m1 = (Fraction(1, 128), Fraction(1, 256))
            other_m2 = (Fraction(1, 512), Fraction(1, 100))
            t0p = list(t_star)
            for a in range(2):
                for b in range(2):
                    t0p[a] -= sv[1][a][b] * CTX.num(other_m1[b])
                    t0p[a] -= sv[2][a][b] * CTX.num(other_m2[b])
            tau2 = CurvePoint((tuple(t0p), other_m1, other_m2))
            t_star2 = critical_point(QUINTIC, QUINTIC_CAL, tau2, CTX)
            assert max(mpmath.fabs(t_star2[a] - t_star[a]) for a in range(2)) < TIGHT
            g0a = genus0_descendents(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
            g0b = genus0_descendents(QUINTIC, QUINTIC_CAL, tau2, CTX)
            worst = CTX.num(0)
            for key, mat in g0a.two_point.items():
                for r1, r2 in zip(mat, g0b.two_point[key]):
                    for x, y in zip(r1, r2):
                        worst = max(worst, mpmath.fabs(x - y))
            assert worst < TIGHT

    def test_calibration_order_guard(self):
        short = compute_calibration(QUINTIC, order=3)
        with pytest.raises(ValueError, match="order"):
            genus0_descendents(QUINTIC, short, QUINTIC_TAU, CTX)


class TestFormalRegime:
    def test_trivial_couplings_exact(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(3, 16)),))
        crit = critical_point_formal(QUINTIC, QUINTIC_CAL, tau, order=4)
        assert crit[0].c == {(0,): Fraction(1, 8)}
        assert crit[1].c == {(0,): Fraction(3, 16)}

    def test_point_model_coefficients(self):
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),)))
        crit = critical_point_formal(POINT, POINT_CAL, tau, order=6)
        # t* = a / (1 - eps b) = a sum (eps b)^k
        a, b = Fraction(1, 5), Fraction(1, 7)
        for k in range(7):
            assert crit[0].c.get((k,), 0) == a * b ** k

    def test_string_equation_exact(self):
        for model, cal, tau, order in (
            (POINT, POINT_CAL,
             CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),), (Fraction(1, 11),), (Fraction(1, 13),))), 7),
            (QUINTIC, QUINTIC_CAL,
             CurvePoint(((Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 3), Fraction(1, 2)),
                         (Fraction(2, 5), Fraction(1, 7)))), 6),
        ):
            g0 = genus0_formal(model, cal, tau, order)
            caps = g0.value.caps
            eps = TruncatedSeries.var(caps, "e")
            n, u = model.dimension, model.unit_index
            acc = TruncatedSeries.zero(caps)
            t0 = tau.coupling(0)
            for a in range(n):
                for b in range(n):
                    if model.metric[a][b]:
                        acc = acc + TruncatedSeries.const(
                            caps, Fraction(model.metric[a][b]) * Fraction(t0[a]) * Fraction(t0[b]) / 2
                        )
            for m in range(tau.kmax):
                for a in range(n):
                    c = Fraction(tau.coupling(m + 1)[a])
                    if c:
                        acc = acc + TruncatedSeries.const(caps, c) * eps * g0.one_point[m][a]
            assert not (g0.one_point[0][u] - acc).c

    def test_dilaton_equation_exact(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(3, 16)),
                          (Fraction(1, 3), Fraction(1, 2)),
                          (Fraction(2, 5), Fraction(1, 7))))
        g0 = genus0_formal(QUINTIC, QUINTIC_CAL, tau, order=6)
        caps = g0.value.caps
        eps = TruncatedSeries.var(caps, "e")
        acc = g0.value * (-2)
        for m in range(tau.kmax + 1):
            for a in range(2):
                c = Fraction(tau.coupling(m)[a])
                if c:
                    term = TruncatedSeries.const(caps, c) * g0.one_point[m][a]
                    if m >= 1:
                        term = term * eps
                    acc = acc + term
        assert not (g0.one_point[1][QUINTIC.unit_index] - acc).c

    def test_matches_numeric_diagonal(self):
        # summing the eps expansion at eps = 1 reproduces the numeric value
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 50),), (Fraction(1, 40),)))
        g0f = genus0_formal(POINT, POINT_CAL, tau, order=24)
        g0n = genus0_descendents(POINT, POINT_CAL, tau, CTX)
        with CTX.guard():
            total = CTX.num(0)
            for _, coeff in sorted(g0f.value.c.items()):
                total += CTX.num(coeff)
            assert mpmath.fabs(total - g0n.value) < mpmath.mpf("1e-30")

    def test_exponential_direction_rejected_exactly(self):
        # exact jets at a base that switches on the exponential must raise
        model = two_primary_model(Fraction(1))
        cal = compute_calibration(model, order=3)
        tau = CurvePoint(((Fraction(0), Fraction(1, 4)), (Fraction(1, 8), Fraction(0))))
        with pytest.raises(ArithmeticError, match="transcendental"):
            critical_point_formal(model, cal, tau, order=3)


class TestBoldQuantities:
    def test_point_model_formulas(self):
        # D^{-1/2} = -f'(t*), T_k = f^(k)(t*) sqrt(D) for f = tau(t) - t
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),), (Fraction(1, 11),),
                          (Fraction(1, 13),), (Fraction(1, 17),)))
        frame, bold = descendent_frame(POINT, POINT_CAL, tau, CTX, order=4)
        with CTX.guard():
            ts = frame.point[0]

            def fder(p):
                acc = -CTX.num(1) if p == 1 else CTX.num(0)
                for k in range(p, 5):
                    acc += CTX.num(tau.coupling(k)[0]) * ts ** (k - p) / math.factorial(k - p)
                return acc

            sqrt_d = CTX.num(bold.sqrt_delta[0])
            assert mpmath.fabs(1 / sqrt_d + fder(1)) < TIGHT
            for k in range(2, 6):
                assert mpmath.fabs(CTX.num(bold.t[0][k]) - fder(k) * sqrt_d) < TIGHT

    def test_reduction_to_primary_data(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(3, 16)),))
        t_star = critical_point(QUINTIC, QUINTIC_CAL, tau, CTX)
        frame = canonical_frame(QUINTIC, t_star, CTX, order=3)
        r = compute_R(frame, 3)
        bold = bold_quantities(QUINTIC, QUINTIC_CAL, frame, r, tau)
        primary = edge_tail_data(r)
        with CTX.guard():
            for i in range(2):
                assert mpmath.fabs(CTX.num(bold.delta[i]) - CTX.num(primary.delta[i])) < REDUCE
                assert mpmath.fabs(
                    CTX.num(bold.sqrt_delta[i]) - CTX.num(primary.sqrt_delta[i])
                ) < REDUCE
                for k, v in primary.t[i].items():
                    assert mpmath.fabs(CTX.num(bold.t[i][k]) - CTX.num(v)) < REDUCE
            # one V table for both, each at the scale of its own data
            for key, v in primary.v.items():
                assert from_kernel(bold.v[key]) == from_kernel(v)
        assert bold.t_cutoff == primary.t_cutoff
        assert bold.v_cutoff == primary.v_cutoff

    def test_criticality_residual_enforced(self):
        # a frame at the wrong point leaves a visible z^0 coefficient
        wrong = (Fraction(1, 4), Fraction(1, 3))
        frame = canonical_frame(QUINTIC, wrong, CTX, order=2)
        r = compute_R(frame, 2)
        with pytest.raises(ArithmeticError, match="criticality"):
            bold_quantities(QUINTIC, QUINTIC_CAL, frame, r, QUINTIC_TAU)

    def test_branch_consistency(self):
        # flipping a sqrt branch flips sqrt(D) with the frame; D is invariant
        _, a = descendent_frame(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX, order=2)
        _, b = descendent_frame(
            QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX, order=2, sign_flips=(-1, 1)
        )
        a, b = mpmath_data(a), mpmath_data(b)
        with CTX.guard():
            assert mpmath.fabs(a.delta[0] - b.delta[0]) < TIGHT
            assert mpmath.fabs(a.sqrt_delta[0] + b.sqrt_delta[0]) < TIGHT
            assert mpmath.fabs(a.sqrt_delta[1] - b.sqrt_delta[1]) < TIGHT
            for k, v in a.t[0].items():
                assert mpmath.fabs(b.t[0][k] - v) < TIGHT

    def test_edge_data_shape(self):
        _, data = descendent_frame(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX, order=3)
        assert data.dimension == 2
        assert data.t_cutoff == 4 and data.v_cutoff == 2
        assert "criticality" in data.residuals
        assert t_entry(data, 0, 1) == 0 and t_entry(data, 0, 2) == data.t[0][2]


class TestJacobianIdentity:
    def test_inverse_of_finite_difference(self):
        A = critical_inverse_jacobian(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX)
        with CTX.guard():
            jac = [[CTX.num(0)] * 2 for _ in range(2)]
            for b in range(2):
                def sample_col(shift, b=b):
                    return critical_point(
                        QUINTIC, QUINTIC_CAL,
                        QUINTIC_TAU.bumped(0, b, shift * STEP), CTX,
                    )

                cols = {shift: sample_col(shift) for shift, _ in STENCIL}
                for a in range(2):
                    jac[a][b] = fd(lambda shift, a=a: cols[shift][a])
            prod = mat_mul(A, jac)
            for i in range(2):
                for j in range(2):
                    target = 1 if i == j else 0
                    assert mpmath.fabs(prod[i][j] - target) < mpmath.mpf("1e-25")

    def test_eigenvalues_are_delta_ratios(self):
        frame, bold = descendent_frame(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX, order=1)
        A = critical_inverse_jacobian(
            QUINTIC, QUINTIC_CAL, QUINTIC_TAU, CTX, critical=frame.point
        )
        with CTX.guard():
            eig = sorted(eigenvalues_float(A, CTX), key=lambda z: (mpmath.re(z), mpmath.im(z)))
            targets = sorted(
                (mpmath.sqrt(frame.delta_values()[i] / CTX.num(bold.delta[i]))
                 for i in range(2)),
                key=lambda z: (mpmath.re(z), mpmath.im(z)),
            )
            assert max(mpmath.fabs(x - y) for x, y in zip(eig, targets)) < mpmath.mpf("1e-30")


class TestDescendentPotential:
    @pytest.mark.parametrize("g", [2, 3])
    def test_point_model_exact_sum(self, g):
        # t_0 = t_1 = 0 caps the direct sum at 3g - 3 insertions
        tau = CurvePoint(((0,), (0,), (Fraction(1, 3),), (Fraction(1, 5),), (Fraction(2, 7),)))
        rep = descendent_potential(POINT, POINT_CAL, tau, g, CTX)
        ref = point_descendent_reference(tau, g, CTX)
        with CTX.guard():
            assert mpmath.fabs(rep.value - ref) < REDUCE
        exact = point_descendent_reference(tau, g, EXACT)
        with CTX.guard():
            assert mpmath.fabs(rep.value - CTX.num(exact)) < REDUCE
        # here u_0 = 0 and I_k = t_k, so the resummed form is the same finite sum
        assert point_descendent_resummed(tau, g, EXACT) == exact
        with CTX.guard():
            assert mpmath.fabs(point_descendent_resummed(tau, g, CTX) - CTX.num(exact)) < REDUCE

    def test_point_model_truncated_sum(self):
        # nonzero t_0, t_1: the truncated sum converges onto the graph value
        tau = CurvePoint(((Fraction(1, 50),), (Fraction(1, 40),),
                          (Fraction(1, 30),), (Fraction(1, 20),)))
        rep = descendent_potential(POINT, POINT_CAL, tau, 2, CTX)
        with CTX.guard():
            errs = []
            for mp in (8, 14, 20):
                ref = point_descendent_reference(tau, 2, CTX, max_points=mp)
                errs.append(mpmath.fabs(rep.value - ref))
            assert errs[1] < errs[0] and errs[2] < errs[1]
            assert errs[2] < mpmath.mpf("1e-24")

    def test_truncated_sum_converges_onto_resummed(self):
        tau = CurvePoint(((Fraction(1, 50),), (Fraction(1, 40),),
                          (Fraction(1, 30),), (Fraction(1, 20),)))
        resummed = point_descendent_resummed(tau, 2, CTX)
        rep = descendent_potential(POINT, POINT_CAL, tau, 2, CTX)
        with CTX.guard():
            assert mpmath.fabs(rep.value - resummed) < TIGHT
            gaps = [
                mpmath.fabs(point_descendent_reference(tau, 2, CTX, max_points=mp) - resummed)
                for mp in (8, 14, 20, 26)
            ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < mpmath.mpf("1e-30")

    def test_resummed_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            point_descendent_resummed(CurvePoint(((1, 2),)), 2, CTX)
        with pytest.raises(ValueError, match="genus 2"):
            point_descendent_resummed(CurvePoint(((0,), (0,))), 1, CTX)
        with pytest.raises(ValueError, match="t_0 = 0"):
            point_descendent_resummed(CurvePoint(((Fraction(1, 2),),)), 2, EXACT)

    def test_resummed_failures_reported(self):
        # u = 1 + 50 u^2 has no real root; Newton must give up loudly
        stalled = CurvePoint(((Fraction(1),), (0,), (Fraction(100),)))
        with pytest.raises(ArithmeticError, match="stalled"):
            point_descendent_resummed(stalled, 2, CTX)
        # t_0 = 0, t_1 = 1: u_0 = 0 and 1 - I_1(u_0) = 0
        singular = CurvePoint(((0,), (1,), (Fraction(1, 3),)))
        for ctx in (CTX, EXACT):
            with pytest.raises(ArithmeticError, match="vanishes"):
                point_descendent_resummed(singular, 2, ctx)

    def test_trivial_couplings_reduce_to_primary(self):
        point = (Fraction(1, 8), Fraction(3, 16))
        rep_d = descendent_potential(QUINTIC, QUINTIC_CAL, CurvePoint((point,)), 2, CTX)
        rep_p = genus_potential(QUINTIC, point, 2, CTX)
        with CTX.guard():
            rel = mpmath.fabs(rep_d.value - rep_p.value) / mpmath.fabs(rep_p.value)
            assert rel < mpmath.mpf("1e-70")

    def test_frame_choice_invariance(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 32), Fraction(1, 16))))
        base = descendent_potential(QUINTIC, QUINTIC_CAL, tau, 2, CTX)
        other = descendent_potential(
            QUINTIC, QUINTIC_CAL, tau, 2, CTX, permutation=(1, 0), sign_flips=(-1, 1)
        )
        with CTX.guard():
            rel = mpmath.fabs(base.value - other.value) / mpmath.fabs(base.value)
            assert rel < TIGHT

    def test_report_structure(self):
        rep = descendent_potential(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, 2, CTX)
        assert rep.genus == 2 and rep.frame is not None
        with CTX.guard():
            total = CTX.num(0)
            for _, val in rep.contributions:
                total = total + val
            assert mpmath.fabs(total - rep.value) == 0
        assert "criticality" in rep.data.residuals

    def test_validation(self):
        with pytest.raises(ValueError, match="genus"):
            descendent_potential(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, 1, CTX)
        with pytest.raises(ValueError):
            point_descendent_reference(CurvePoint(((1, 2),)), 2, CTX)
        with pytest.raises(ValueError):
            point_descendent_reference(CurvePoint(((0,), (0,))), 1, CTX)
        with pytest.raises(ValueError, match="max_points"):
            point_descendent_reference(CurvePoint(((Fraction(1, 2),),)), 2, CTX)


class TestGenus1Routes:
    def test_two_primary_agreement(self):
        direction = CurvePoint(((Fraction(1), Fraction(1, 2)),
                                (Fraction(1, 4), Fraction(1, 8)),
                                (0, Fraction(1, 3))))
        routes = genus1_descendent_routes(QUINTIC, QUINTIC_CAL, QUINTIC_TAU, direction, CTX)
        with CTX.guard():
            assert mpmath.fabs(routes.difference) < mpmath.mpf("1e-20")
            assert mpmath.fabs(routes.curve) > mpmath.mpf("1e-4")

    def test_point_model_agreement(self):
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),), (Fraction(1, 11),)))
        direction = CurvePoint(((Fraction(1),), (Fraction(1, 2),), (Fraction(1, 3),)))
        routes = genus1_descendent_routes(POINT, POINT_CAL, tau, direction, CTX)
        with CTX.guard():
            assert mpmath.fabs(routes.difference) < mpmath.mpf("1e-20")

    def test_zero_step_rejected(self):
        tau = CurvePoint(((Fraction(1, 5),), (Fraction(1, 7),)))
        with pytest.raises(ValueError, match="step must be nonzero"):
            genus1_descendent_routes(POINT, POINT_CAL, tau, tau, CTX, step=Fraction(0))
