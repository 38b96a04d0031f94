"""Hodge deformation of the tau function: flows versus closed form.

The deformed family lambda(hbar; Q; s) is produced two independent
ways: by integrating the Bernoulli-weighted flows

    d lambda / d s_m = B_{2m}/(2m)! (hbar D_m + L_m) lambda

term by term from the tau function, and by the product formula
[exp(hbar P) tau](Qtilde) with the propagator v and coupling change
Qtilde generated by exp{sum a_k z^{2k-1}}.  Everything is exact
rational arithmetic, so the two routes must agree coefficient by
coefficient, not merely to tolerance.  The closed form also meets the
R-matrix pipeline: on the point model twisted by a, the edge coefficients
V and tails T are v and the constants of Qtilde.
"""

from fractions import Fraction

import mpmath
import pytest

from genuslift.frame import canonical_frame
from genuslift.frobenius import point_model
from genuslift.hodge import (
    HodgeParameters,
    HodgeTruncation,
    hodge_lambda,
    hodge_lemma_residual,
    lemma_components,
    tau_series,
)
from genuslift.rmatrix import compute_T, compute_V, homogeneous_R, twist_R
from genuslift.scalars import FloatContext, from_kernel


def _tau_key(truncation, h, qexp):
    exps = [0] * (truncation.resolved_index + 1)
    for k, e in qexp.items():
        exps[k] = e
    return (h,) + tuple(exps)


def _lam_key(truncation, h, qexp, sexp):
    return _tau_key(truncation, h, qexp) + tuple(sexp)


class TestTauSeries:
    def test_low_genus_anchors(self):
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        lt = tau_series(tr)
        assert lt.c[_tau_key(tr, -1, {0: 3})] == Fraction(1, 6)
        assert lt.c[_tau_key(tr, 0, {1: 1})] == Fraction(1, 24)
        assert lt.c[_tau_key(tr, 1, {4: 1})] == Fraction(1, 1152)
        assert lt.c[_tau_key(tr, -1, {0: 3, 1: 1})] == Fraction(1, 6)

    def test_dimension_rule_on_every_key(self):
        # sum k*m_k = 3g-3+n transported to the ring reads 3h + degree
        tr = HodgeTruncation(genus_max=3, q_degree=5)
        lt = tau_series(tr)
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

    def test_no_couplings_reduces_to_tau(self):
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        assert hodge_lambda(HodgeParameters(()), tr).c == tau_series(tr).c

    def test_coupling_free_slice_is_tau(self):
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(genus_max=2, q_degree=4)
        ll = hodge_lambda(s, tr)
        slice_ = {k[:-2]: v for k, v in ll.c.items() if k[-2:] == (0, 0)}
        assert slice_ == tau_series(tr).c

    def test_flow_order_is_immaterial(self):
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(genus_max=2, q_degree=3)
        forward = hodge_lambda(s, tr, flow_order=(1, 2))
        backward = hodge_lambda(s, tr, flow_order=(2, 1))
        assert forward.c == backward.c

    def test_degree_zero_coupling_is_inert(self):
        s = HodgeParameters((0,))
        tr = HodgeTruncation(genus_max=2, q_degree=3)
        ll = hodge_lambda(s, tr)
        assert all(k[-1] == 0 for k in ll.c)
        assert {k[:-1]: v for k, v in ll.c.items()} == tau_series(tr).c


class TestLemmaComponents:
    def test_zero_couplings_are_trivial(self):
        v, forms = lemma_components([], q_index=3, v_total=2)
        assert v == {}
        for k, form in enumerate(forms):
            assert form.constant == 0
            assert len(form.coeffs) == k + 1
            assert form.coeffs[k] == 1
            assert all(c == 0 for c in form.coeffs[:k])

    def test_single_coupling_hand_expansion(self):
        # (e^{a(z+w)} - 1)/(z+w) = sum a^n (z+w)^{n-1}/n! with the
        # alternating (-z)^k(-w)^l sign convention
        a = Fraction(3, 7)
        v, forms = lemma_components([a], q_index=2, v_total=3)
        assert v[(0, 0)] == a
        assert v[(1, 0)] == v[(0, 1)] == -a * a / 2
        assert v[(2, 0)] == v[(0, 2)] == a ** 3 / 6
        assert v[(1, 1)] == a ** 3 / 3

    def test_constant_coupling_preserved(self):
        v, forms = lemma_components([Fraction(5, 2), Fraction(-1, 3)], q_index=4, v_total=2)
        assert forms[0].constant == 0
        assert forms[0].coeffs == (1,)

    def test_dilaton_bookkeeping(self):
        a = Fraction(3, 7)
        _, forms = lemma_components([a], q_index=2, v_total=1)
        assert forms[1].constant == 0
        assert forms[1].coeffs == (-a, 1)
        # the shift of the linear coupling leaks a constant into Qtilde_2
        assert forms[2].constant == a
        assert forms[2].coeffs == (a * a / 2, -a, 1)

    def test_propagator_symmetry(self):
        v, _ = lemma_components([Fraction(1, 2), Fraction(2, 5)], q_index=0, v_total=6)
        for (k, l), val in v.items():
            assert v[(l, k)] == val


class TestRMatrixConventions:
    """The closed form against the R-matrix pipeline on the point model:
    ``twist_R`` of R = 1 by a is the 1 x 1 R(z) = E(z), so V of
    ``compute_V`` is the propagator v and the tails T_k of ``compute_T``
    are the constants of Qtilde_k for k >= 2, with the same signs."""

    def test_v_and_tails_match_twisted_point(self):
        ctx = FloatContext()
        a = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260)]
        order = 7
        frame = canonical_frame(point_model(), (Fraction(1, 3),), ctx, order=0)
        r = twist_R(homogeneous_R(frame, order), [a])
        table, _ = compute_V(r)
        tails = compute_T(r)[0]
        v, forms = lemma_components(a, q_index=order + 1, v_total=order - 1)
        pairs = [
            (table.get((0, 0, k, l), 0), v.get((k, l), 0))
            for k in range(order)
            for l in range(order - k)
        ]
        assert len(v) == sum(1 for x, _ in pairs if x)
        tail_pairs = [(tails[k], forms[k].constant) for k in range(2, order + 2)]
        with ctx.guard():
            for name, rows in (("V", pairs), ("T", tail_pairs)):
                size = max(mpmath.fabs(ctx.num(want)) for _, want in rows)
                gap = max(mpmath.fabs(from_kernel(got) - ctx.num(want)) for got, want in rows)
                assert gap <= mpmath.ldexp(size, 16 - ctx.prec_bits), (name, gap, size)


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

    def test_internal_override_below_minimum(self):
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(2, 4)
        with pytest.raises(ValueError, match="truncation too small"):
            hodge_lambda(s, tr, internal=HodgeTruncation(2, 5))

    def test_flow_order_must_be_permutation(self):
        s = HodgeParameters((1, 1))
        tr = HodgeTruncation(2, 3)
        with pytest.raises(ValueError):
            hodge_lambda(s, tr, flow_order=(1, 1))
