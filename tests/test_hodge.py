"""Hodge deformation of the tau function: flows, closed form and graph sum.

The deformed family lambda(hbar; Q; s) is produced two independent
ways: by integrating the Bernoulli-weighted flows

    d lambda / d s_m = B_{2m}/(2m)! (hbar D_m + L_m) lambda

term by term from the tau function, and by the product formula
[exp(hbar P) tau](Qtilde) with the propagator v and coupling change
Qtilde generated by exp{sum a_k z^{2k-1}}.  Everything is exact
rational arithmetic, so the two routes must agree coefficient by
coefficient, not merely to tolerance.

The flows also meet the R-matrix pipeline.  On the point model twisted by
a_m = B_{2m} s_m/(2m)! (``twist_R`` of R = 1), the edge coefficients V
and tails T are v and the constants of Qtilde, checked against a
reference formed here on Fractions.  The graph sum and the Wick oracle of
that twisted point give F_g = [hbar^{g-1} Q^0] log lambda at the same s
(``TestTwistedPointGate``); the two sides share only the psi-intersection
table.  Twisted by three characters that sum to 0 (the Calabi-Yau vertex),
F_g is a triple Hodge integral of lambda_{g-1}^3, known in closed form
(``TestCalabiYauVertex``).
"""

from fractions import Fraction
from math import factorial

import mpmath
import pytest

from genuslift.genus import frame_and_R, genus_potential, wick_oracle
from genuslift.frobenius import point_model
from genuslift.hodge import (
    HodgeParameters,
    HodgeTruncation,
    hodge_lambda,
    hodge_lemma_residual,
)
from genuslift.rmatrix import bernoulli_constants, compute_T, compute_V, edge_tail_data
from genuslift.scalars import FloatContext
from genuslift.series import Caps, TruncatedSeries
from oracles import singular_quotient

CTX = FloatContext()
POINT = (Fraction(1, 3),)
# a_m / s_m = B_{2m}/(2m)! for m = 1, 2: B_2 = 1/6, B_4 = -1/30
COUPLING_FACTORS = (Fraction(1, 12), Fraction(-1, 720))


def _tau_key(truncation, h, qexp):
    exps = [0] * (truncation.resolved_index + 1)
    for k, e in qexp.items():
        exps[k] = e
    return (h,) + tuple(exps)


def _lam_key(truncation, h, qexp, sexp):
    return _tau_key(truncation, h, qexp) + tuple(sexp)


def _log_tau(truncation):
    """log tau over ("h", "Q0", .., "QK"): log lambda with no couplings."""
    return hodge_lambda(HodgeParameters(()), truncation)


def _twisted_point(a, order):
    """R_0 .. R_order of the point model twisted by a_1, a_2, ..: the 1 x 1
    R(z) = E(z) = exp{sum a_k z^{2k-1}}."""
    return frame_and_R(point_model(), POINT, CTX, order, gauge=[a])[1]


def _assert_close(pairs, name):
    """Each (got, want) within 2^(16 - prec) of the largest |want|."""
    with CTX.guard():
        size = max(mpmath.fabs(CTX.num(want)) for _, want in pairs)
        gap = max(mpmath.fabs(CTX.num(got) - CTX.num(want)) for got, want in pairs)
        assert gap <= mpmath.ldexp(size, 16 - CTX.prec_bits), (name, gap, size)


class TestTauSeries:
    def test_low_genus_anchors(self):
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        lt = _log_tau(tr)
        assert lt.c[_tau_key(tr, -1, {0: 3})] == Fraction(1, 6)
        assert lt.c[_tau_key(tr, 0, {1: 1})] == Fraction(1, 24)
        assert lt.c[_tau_key(tr, 1, {4: 1})] == Fraction(1, 1152)
        assert lt.c[_tau_key(tr, -1, {0: 3, 1: 1})] == Fraction(1, 6)

    def test_dimension_rule_on_every_key(self):
        # sum k*m_k = 3g-3+n transported to the ring reads 3h + degree
        tr = HodgeTruncation(genus_max=3, q_degree=5)
        lt = _log_tau(tr)
        assert lt.c
        for key in lt.c:
            h, qexps = key[0], key[1:]
            assert sum(k * e for k, e in enumerate(qexps)) == 3 * h + sum(qexps)

    def test_default_index_is_dimension_bound(self):
        assert HodgeTruncation(2, 4).resolved_index == 7
        assert HodgeTruncation(0, 3).resolved_index == 0
        assert HodgeTruncation(2, 4, q_index=5).resolved_index == 5


class TestHodgeLambda:
    def test_genus_one_coupling_anchor(self):
        # coefficient of h^0 s_1 Q_0: the degree-one Hodge class on the
        # space of one-pointed elliptic curves integrates to 1/24
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        ll = hodge_lambda(s, tr)
        assert ll.c[_lam_key(tr, 0, {0: 1}, (1, 0))] == Fraction(1, 24)

    def test_genus_two_coupling_anchor(self):
        # [h^1 s_2] of log lambda by hand: B_4/4! times the Q-free part
        # of (hbar D_2 + L_2) tau / tau, which collects
        #   <tau_4>_2 + <tau_0 tau_2>_1 - (1/2)<tau_1 tau_1>_1 - (1/2)<tau_1>_1^2
        #   = 1/1152 + 1/24 - 1/48 - 1/1152 = 1/48,
        # so the coefficient is (-1/720)(1/48) = -1/34560
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        ll = hodge_lambda(s, tr)
        assert ll.c[_lam_key(tr, 1, {}, (0, 1))] == Fraction(-1, 34560)

    def test_coupling_free_slice_is_tau(self):
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        ll = hodge_lambda(s, tr)
        slice_ = {k[:-2]: v for k, v in ll.c.items() if k[-2:] == (0, 0)}
        assert slice_ == _log_tau(tr).c

    def test_degree_zero_coupling_is_inert(self):
        s = HodgeParameters((0,))
        tr = HodgeTruncation(genus_max=2, q_degree=3)
        ll = hodge_lambda(s, tr)
        assert all(k[-1] == 0 for k in ll.c)
        assert {k[:-1]: v for k, v in ll.c.items()} == _log_tau(tr).c


class TestLemmaComponents:
    """The lemma's propagator v_kl, read from ``compute_V`` of the twisted
    point as V^{00}_{kl}."""

    def test_single_coupling_hand_expansion(self):
        # (e^{a(z+w)} - 1)/(z+w) = sum a^n (z+w)^{n-1}/n! with the
        # alternating (-z)^k(-w)^l sign convention
        a = Fraction(3, 7)
        table, _ = compute_V(_twisted_point([a], 4))
        _assert_close([
            (table[(0, 0, 0, 0)], a),
            (table[(0, 0, 1, 0)], -a * a / 2),
            (table[(0, 0, 0, 1)], -a * a / 2),
            (table[(0, 0, 2, 0)], a ** 3 / 6),
            (table[(0, 0, 0, 2)], a ** 3 / 6),
            (table[(0, 0, 1, 1)], a ** 3 / 3),
        ], "v")

    def test_propagator_symmetry(self):
        table, _ = compute_V(_twisted_point([Fraction(1, 2), Fraction(2, 5)], 7))
        assert table
        _assert_close([(val, table[(0, 0, l, k)]) for (_, _, k, l), val in table.items()], "v")


class TestRMatrixConventions:
    """The lemma's conventions against the R-matrix pipeline on the point
    model: ``twist_R`` of R = 1 by a is the 1 x 1 R(z) = E(z), so V of
    ``compute_V`` is the propagator v = (-1)^{k+l} [z^k w^l]
    (E(z)E(w) - 1)/(z + w) and the tails T_k of ``compute_T`` are the
    constants (-1)^k e_{k-1} of Qtilde_k for k >= 2, with the same signs.
    The reference divides on Fractions by ``oracles.singular_quotient``
    and shares no code with ``compute_V``."""

    def test_v_and_tails_match_twisted_point(self):
        a = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260)]
        order = 7
        r = _twisted_point(a, order)
        table, _ = compute_V(r)
        tails = compute_T(r)[0]

        caps = Caps.total(("z", "w"), order)

        def exponential(x):
            exponent = TruncatedSeries.zero(caps)
            for k, ak in enumerate(a, start=1):
                exponent = exponent + TruncatedSeries.var(caps, x, 2 * k - 1, ak)
            return exponent.exp()

        e_z = exponential("z")
        quotient, _ = singular_quotient(e_z * exponential("w") - 1, "z", "w")
        v = {
            (k, l): (-1) ** (k + l) * val
            for (k, l), val in quotient.c.items() if k + l <= order - 1
        }
        e = [e_z.c.get((p, 0), Fraction(0)) for p in range(order + 1)]

        pairs = [
            (table.get((0, 0, k, l), 0), v.get((k, l), 0))
            for k in range(order)
            for l in range(order - k)
        ]
        assert len(v) == sum(1 for x, _ in pairs if x)
        _assert_close(pairs, "V")
        _assert_close([(tails[k], (-1) ** k * e[k - 1]) for k in range(2, order + 2)], "T")


def _flows_value(g, s, window):
    """[hbar^{g-1} Q^0] log lambda at the rational couplings s, over the
    window of retained s-degrees."""
    ll = hodge_lambda(HodgeParameters(window), HodgeTruncation(g, 0))
    total = Fraction(0)
    for key, c in ll.c.items():
        if key[0] == g - 1:
            for sm, e in zip(s, key[-len(window):]):
                c *= sm ** e
            total += c
    return total


class TestTwistedPointGate:
    """F_g of the point model twisted by a_m = B_{2m} s_m/(2m)! is the
    Hodge integral [hbar^{g-1} Q^0] log lambda at the same s.

    The class exp(sum s_m ch_{2m-1}) has its degree-(3g - 3) part in the
    monomials of weighted degree 3g - 3, s_m of weight 2m - 1, so each
    window holds every such monomial in the nonzero s; a window that
    leaves one out is off by O(1) (s_2^2 at g = 3 under a (3, 1) window).
    Both sides are exact up to the pipeline's rounding, and they share
    only the psi-intersection table, so the bound is 1e-70 relative."""

    @pytest.mark.parametrize(
        "g, s, window, value, routes",
        [
            (2, (Fraction(1, 3), Fraction(-2, 5)), (3, 1), Fraction(1, 72900), ("graph", "wick")),
            (3, (Fraction(1, 3),), (6,), Fraction(1, 47617113600), ("graph",)),
            (3, (0, Fraction(-2, 5)), (0, 2), Fraction(-1, 326592000), ("graph",)),
            (4, (0, Fraction(-2, 5)), (0, 3), Fraction(1, 293932800000), ("graph", "wick")),
            # no skeletons at genus 5
            (5, (0, Fraction(-2, 5)), (0, 4), Fraction(-1, 145496736000000), ("wick",)),
        ],
    )
    def test_pipeline_equals_flows(self, g, s, window, value, routes):
        want = _flows_value(g, s, window)
        assert want == value
        gauge = [f * x for f, x in zip(COUPLING_FACTORS, s)]
        got = []
        if "graph" in routes:
            report = genus_potential(point_model(), POINT, g, CTX, gauge=[gauge])
            got.append(report.value)
            data = report.data
        else:
            data = edge_tail_data(_twisted_point(gauge, 3 * g - 3))
        if "wick" in routes:
            got.append(wick_oracle(data, g))
        with CTX.guard():
            for x in got:
                assert mpmath.fabs(x - CTX.num(want)) <= mpmath.mpf("1e-70") * abs(CTX.num(want))

    @pytest.mark.parametrize(
        "g, integral",
        [(2, Fraction(1, 2880)), (3, Fraction(1, 90720)), (4, Fraction(1, 113400)),
         (5, Fraction(31, 680400))],
    )
    def test_lambda_one_powers(self, g, integral):
        # s_1 = 1 gives exp(lambda_1), whose degree-(3g - 3) part is
        # lambda_1^{3g-3}/(3g-3)!; the integrals are Faber's
        r = _twisted_point([COUPLING_FACTORS[0]], 3 * g - 3)
        value = wick_oracle(edge_tail_data(r), g)
        want = integral / factorial(3 * g - 3)
        with CTX.guard():
            assert mpmath.fabs(value - CTX.num(want)) <= mpmath.mpf("1e-70") * CTX.num(want)


def _lambda_top_cubed(g: int) -> Fraction:
    """The triple Hodge integral of lambda_{g-1}^3 over M_g,
    |B_{2g}| |B_{2g-2}| / (2g (2g - 2) (2g - 2)!) (Faber-Pandharipande),
    from mpmath's exact Bernoulli numbers."""
    b2g, b2g2 = (abs(Fraction(*mpmath.bernfrac(n))) for n in (2 * g, 2 * g - 2))
    return b2g * b2g2 / (2 * g * (2 * g - 2) * factorial(2 * g - 2))


def _calabi_yau_value(chars, g: int) -> Fraction:
    """(-1)^g int lambda_{g-1}^3 / (2 e_3^{g-1}) with e_3 the product of
    the three characters."""
    e3 = Fraction(chars[0]) * chars[1] * chars[2]
    return (-1) ** g * _lambda_top_cubed(g) / (2 * e3 ** (g - 1))


class TestCalabiYauVertex:
    """F_g of the point model twisted by three characters chi_j with
    chi_1 + chi_2 + chi_3 = 0 is a triple Hodge integral.

    The twist is the class prod_j c_top(E^v (x) chi_j) / chi_j^g.  Its
    logarithm is -sum_k (k - 1)! ch_k(E) sum_j chi_j^{-k}, and ch_{2m}(E) =
    0 for m >= 1, so it is exp(sum_m s_m ch_{2m-1}(E)) with s_m = -(2m -
    2)! sum_j chi_j^{1 - 2m}: the gauge a_m = B_{2m} s_m / (2m)! is
    ``rmatrix.bernoulli_constants([chi], m_max)``.  The factor of chi_j
    is sum_i (-1)^i lambda_i chi_j^{-i}.  Mumford's relation c(E) c(E^v) =
    1 gives lambda_g^2 = 0 and lambda_{g-1}^2 = 2 lambda_g lambda_{g-2},
    so in degree 3g - 3 only lambda_{g-1}^3, with coefficient (-1)^{g-1}
    e_3^{1-g}, and lambda_g lambda_{g-1} lambda_{g-2}, with (-1)^{g-1}
    e_3^{-g} sum_{j != k} chi_j chi_k^2 = (-1)^g 3 e_3^{1-g} (as e_1 = 0),
    survive.  The second monomial is half the first, so

        F_g = (-1)^g int lambda_{g-1}^3 / (2 e_3^{g-1}).

    The control (1, 2, -2) is not Calabi-Yau.  It pairs 2 with -2, and
    c(E^v (x) chi) c(E^v (x) -chi) = (-1)^g chi^{2g} by the same relation,
    so its class is the total lambda class c(E^v), which has no part of
    degree 3g - 3 > g: its F_g vanishes and does not match the formula.
    Both routes run on kernel data through the recorded vertex sums, on
    the real lane alone, since the point model's data are real; the bound
    is 1e-70 relative, on (1, 1, -2) and on (1, 2, -3)."""

    @staticmethod
    def data(chars, g):
        gauge = bernoulli_constants([chars], (3 * g - 2) // 2 + 1)
        return frame_and_R(point_model(), POINT, CTX, 3 * g - 3, gauge=gauge)[1], gauge

    @pytest.mark.parametrize(
        "chars, g",
        [pytest.param((1, 1, -2), g, id=str(g)) for g in (2, 3, 4, 5)]
        + [pytest.param((1, 2, -3), g, id=f"1,2,-3-{g}") for g in (2, 3, 4, 5)],
    )
    def test_wick_and_graph_sum(self, chars, g):
        want = _calabi_yau_value(chars, g)
        r, gauge = self.data(chars, g)
        got = [wick_oracle(edge_tail_data(r), g)]
        # no skeletons at genus 5
        if g <= 4:
            got.append(genus_potential(point_model(), POINT, g, CTX, gauge=gauge).value)
        with CTX.guard():
            for x in got:
                assert mpmath.fabs(x - CTX.num(want)) <= mpmath.mpf("1e-70") * abs(CTX.num(want))

    def test_lambda_integral_at_genus_two(self):
        assert _lambda_top_cubed(2) == Fraction(1, 2880)
        assert _calabi_yau_value((1, 1, -2), 3) == Fraction(-1, 5806080)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_control_is_not_calabi_yau(self, g):
        chars = (1, 2, -2)
        formula = CTX.num(_calabi_yau_value(chars, g))
        value = wick_oracle(edge_tail_data(self.data(chars, g)[0]), g)
        with CTX.guard():
            assert mpmath.fabs(value) <= mpmath.mpf("1e-70") * abs(formula)


class TestLemmaIdentity:
    def test_window_identity_exact(self):
        # genus <= 2, Q-degree <= 4, both couplings linear: the flowed
        # family and the product formula agree coefficient by coefficient
        res = hodge_lemma_residual(HodgeParameters((1, 1)), HodgeTruncation(2, 4))
        assert res.c == {}

    def test_quadratic_coupling_identity(self):
        res = hodge_lemma_residual(HodgeParameters((2,)), HodgeTruncation(2, 4))
        assert res.c == {}

    def test_three_couplings_identity(self):
        res = hodge_lemma_residual(HodgeParameters((1, 1, 1)), HodgeTruncation(1, 3))
        assert res.c == {}


class TestValidation:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            HodgeParameters((1, -1))

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            HodgeTruncation(-1, 3)
        with pytest.raises(ValueError):
            HodgeTruncation(2, 3, q_index=-2)
