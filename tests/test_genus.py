"""Higher-genus graph sums checked three independent ways.

The same F^g is computed by (a) the stable-graph sum, (b) the operator
exponential (Wick) expansion, which shares only the V/T/Delta tables with
(a), and (c) closed forms where they exist.  On synthetic rational tables
(a) and (b) must agree exactly; on the two-primary conformal family both
must match

    F^2 = d (3d-1) (d-1)^2 (3d-5) (d-2) / 2880 * Delta_0 / (u_1 - u_0)^3,

hand-integrable to F^2(0, t1) = -7/(1843200 t1^5) for d = 1/2, c = 1.

Two structural vanishing checks ride along.  The quartic-cusp threefold has
monomial degrees too small to saturate the genus >= 2 dimension count, so
its primary F^g vanish identically even though individual graphs contribute
O(1): the observed 70-digit cancellation exercises every V/T entry and every
symmetry factor at once.  And a direct sum of models must give the sum of
their potentials, since cross-block edge coefficients vanish; we check this
on two-primary + point in shared-unit flat coordinates.

Genus 1 enters as a one-form: d F^1 = sum_i [V^{ii}_{00}/2 du^i +
dDelta_i/(48 Delta_i)].  For the exponential two-primary model (d = 1) the
components are exactly (0, -1/24), which also pins the quadrature helper;
on QH(P^2) and QH(P^3) at t0 1 + t1 H they are -dt1/8 and -dt1/4, and on
the r-spin models A_2 and A_3 they vanish.  At genus 2 and 3, QH(P^3) at
t0 1 + t1 H gives the nonzero Hodge-integral constants -1/288 and 1/72576.
"""

import gc
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, factorial
from operator import mul, truediv

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslift.descendent import CurvePoint, compute_calibration, descendent_frame
from genuslift.expressions import Expression
from genuslift.frame import canonical_frame
from genuslift.frobenius import (
    EulerData,
    FrobeniusModel,
    point_model,
    threefold_cusp_model,
    two_primary_model,
)
from genuslift import genus as genus_module
from genuslift import rmatrix
from genuslift.genus import (
    _exp_by_index,
    _graded_exp,
    _log_tau_layers,
    _plan,
    frame_and_R,
    gaussian_moment,
    genus_potential,
    genus1_closedness_residual,
    genus1_one_form,
    graph_sum,
    graph_sum_program,
    skeleton_values,
    vertex_program,
    walk_plan,
    wick_moments,
    wick_oracle,
    wick_program,
)
from genuslift.graphs import skeletons
from genuslift.intersection import _DEFAULT_TABLE
from genuslift.io import format_value
from genuslift.rmatrix import EdgeTailData, edge_tail_data
from genuslift.scalars import FloatContext, GaussianFixed, from_kernel
from genuslift.series import Caps, TruncatedSeries
import oracles
from oracles import (
    decorated_sum,
    decorations,
    edge_plan,
    enumerate_graphs,
    evaluate_graph,
    evaluate_graph_ordered,
    genus1_descendent_routes,
    genus1_difference_quadrature,
    mpc_edge_tail_data,
    mpc_homogeneous_R,
    two_primary_genus2_reference,
    vertex_correlator,
    wick_oracle_layers,
)

CTX = FloatContext()
TIGHT = mpmath.mpf("1e-60")
POINT = point_model()
POINT_CAL = compute_calibration(POINT, order=9)


def synthetic_data(n, g, seed):
    """Random small-Fraction tables with the V-symmetry and Delta = sd^2
    built in; exact inputs for both evaluation pipelines."""
    rng = random.Random(seed)
    v_cutoff = 3 * g - 3
    t_cutoff = 3 * g - 2

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    sd = [frac() or Fraction(1, 3) for _ in range(n)]
    delta = [s * s for s in sd]
    v = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(v_cutoff + 1):
                for l in range(v_cutoff + 1 - k):
                    if i == j and l < k:
                        continue
                    val = frac()
                    v[(i, j, k, l)] = val
                    v[(j, i, l, k)] = val
    t = [{k: frac() for k in range(2, t_cutoff + 1)} for _ in range(n)]
    return EdgeTailData(
        dimension=n, delta=delta, sqrt_delta=sd, v=v, t=t,
        v_cutoff=v_cutoff, t_cutoff=t_cutoff,
    )


def direct_sum_model():
    """two_primary(1/2) + point in flat coordinates (s0, t1, x) with a
    shared unit: the factor coordinates are t0A = s0, t0B = s0 + x."""
    pot = (
        Expression.term(3, Fraction(1, 2), mono=(2, 1, 0))
        + Expression.term(3, Fraction(1), mono=(0, 5, 0))
        + Expression.term(3, Fraction(1, 6), mono=(3, 0, 0))
        + Expression.term(3, Fraction(1, 2), mono=(2, 0, 1))
        + Expression.term(3, Fraction(1, 2), mono=(1, 0, 2))
        + Expression.term(3, Fraction(1, 6), mono=(0, 0, 3))
    )
    metric = [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    return FrobeniusModel(
        dimension=3, metric=metric, potential=pot, euler=None,
        name="two-primary + point",
    )


def projective_space(n):
    """QH(P^n) for n = 2 or 3, truncated at degree 1, in the basis 1, H, ..,
    H^n with eta_ab = delta_{a+b,n} and q = e^{t1}:

        P^2: F = t0^2 t2/2 + t0 t1^2/2 + q t2^2/2,
        P^3: F = t0^2 t3/2 + t0 t1 t2 + t1^3/6 + q (t2^4/12 + t2^2 t3/2 + t3^2/2),

    with E = t0 d0 + (n+1) d1 + sum_{a>=2} (1-a) t_a d_a and D = n.  The
    degree-1 terms are N_1 = 1 line through two points of P^2 and the lines
    of P^3 through <H^2, H^2, H^2, H^2> = 2, <pt, H^2, H^2> = 1 and <pt, pt> = 1.
    At t_a = 0 for a >= 2 the degree-d terms, t2^{3d-1} q^d on P^2 and
    t2^i t3^j q^d with i + 2j = 4d on P^3, vanish to third order for d >= 2,
    so the structure constants, the order-0 frame and R_1 there are those of
    the untruncated potential."""
    def term(coeff, mono, expo=0):
        return Expression.term(n + 1, Fraction(coeff), mono=mono, expo=(0, expo) + (0,) * (n - 1))

    if n == 2:
        pot = (term(Fraction(1, 2), (2, 0, 1)) + term(Fraction(1, 2), (1, 2, 0))
               + term(Fraction(1, 2), (0, 0, 2), 1))
    else:
        pot = (term(Fraction(1, 2), (2, 0, 0, 1)) + term(1, (1, 1, 1, 0))
               + term(Fraction(1, 6), (0, 3, 0, 0)) + term(Fraction(1, 12), (0, 0, 4, 0), 1)
               + term(Fraction(1, 2), (0, 0, 2, 1), 1) + term(Fraction(1, 2), (0, 0, 0, 2), 1))
    metric = [[Fraction(int(a + b == n)) for b in range(n + 1)] for a in range(n + 1)]
    euler = EulerData(
        [[Fraction(int(a == b) * (1 - a)) for b in range(n + 1)] for a in range(n + 1)],
        [Fraction(n + 1 if a == 1 else 0) for a in range(n + 1)],
        Fraction(n),
    )
    return FrobeniusModel(dimension=n + 1, metric=metric, potential=pot, euler=euler,
                          name=f"QH(P^{n}) degree <= 1")


def rel_err(value, reference):
    with CTX.guard():
        return mpmath.fabs(value - reference) / mpmath.fabs(reference)


def numeric_layers(data, g):
    """``_log_tau_layers`` on the vertex correlators of ``data``, formed by
    their operators (``oracles.vertex_correlator``)."""

    def vertex(key):
        g_v, i, ks = key
        value = vertex_correlator(g_v, ks, data.t[i], data.delta[i])
        return value if value else None

    return _log_tau_layers(vertex, data.dimension, g)


def summed_layers(per_index):
    """The layers of every index of ``_log_tau_layers`` added into one
    list: the degree parts of the whole log tau."""
    layers = [{} for _ in per_index[0]]
    for own in per_index:
        for layer, part in zip(layers, own):
            for mono, c in part.items():
                layer[mono] = layer[mono] + c if mono in layer else c
    return layers


class TestTwoPrimaryClosedForm:
    def test_quintic_frozen_value(self):
        # F^2(0, t1) = -7/(1843200 t1^5) for d = 1/2, c = 1
        model = two_primary_model(Fraction(1, 2))
        t1 = Fraction(3, 5)
        rep = genus_potential(model, (Fraction(0), t1), 2, CTX)
        with CTX.guard():
            expect = CTX.num(Fraction(-7, 1843200) / t1 ** 5)
        assert rel_err(rep.value, expect) < TIGHT

    def test_quintic_generic_point(self):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 2, CTX)
        ref = two_primary_genus2_reference(rep.frame)
        assert rel_err(rep.value, ref) < TIGHT

    def test_laurent_family_member(self):
        # d = 3/2 gives a Laurent potential t1^{-3}; still conformal
        model = two_primary_model(Fraction(3, 2))
        rep = genus_potential(model, (Fraction(1, 2), Fraction(2, 3)), 2, CTX)
        ref = two_primary_genus2_reference(rep.frame)
        with CTX.guard():
            assert mpmath.fabs(ref) > 0
        assert rel_err(rep.value, ref) < TIGHT

    def test_exponential_model_vanishes(self):
        # the degree polynomial has a root at d = 1
        model = two_primary_model(Fraction(1))
        rep = genus_potential(model, (Fraction(1, 3), Fraction(2, 5)), 2, CTX)
        with CTX.guard():
            u = rep.frame.u_values()
            scale = rep.frame.delta_values()[0] / (u[1] - u[0]) ** 3
            assert mpmath.fabs(rep.value / scale) < TIGHT

    def test_reference_requires_euler(self):
        frame = canonical_frame(
            direct_sum_model(), (Fraction(2, 7), Fraction(3, 5), Fraction(1, 3)), CTX
        )
        with pytest.raises(ValueError):
            two_primary_genus2_reference(frame)


class TestHomogeneityScaling:
    """On two-primary d = 1/2, F_g depends on t1 alone (string equation)
    and is homogeneous of degree (3 - d)(1 - g) with t1 of weight 1/2, so
    F_g = c_g t1^{-5(g-1)}: moving t1 from 3/5 to 2/5 scales F_g by
    (3/2)^{5(g-1)}, whatever t0.  No oracle enters below genus 5; genus 5
    is read through the Wick oracle, whose expansion needs no (5, 2)
    graph-sum program."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_ratio_is_a_power_of_t1(self, g):
        model = two_primary_model(Fraction(1, 2))
        near, far = (
            self.f_g(model, point, g)
            for point in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-2, 7), Fraction(3, 5)))
        )
        with CTX.guard():
            expect = CTX.num(Fraction(3, 2) ** (5 * (g - 1)))
            assert mpmath.fabs(far) > mpmath.mpf("1e-8")
            assert rel_err(near / far, expect) < mpmath.mpf("1e-70")

    @staticmethod
    def f_g(model, point, g):
        if g < 5:
            return genus_potential(model, point, g, CTX).value
        _, r = frame_and_R(model, point, CTX, 3 * g - 3)
        return wick_oracle(edge_tail_data(r), g)


class TestOracleAgreement:
    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_synthetic(self, g, n):
        data = synthetic_data(n, g, seed=100 * g + n)
        total = 0
        for graph in enumerate_graphs(g, n):
            total = total + evaluate_graph(graph, data)
        assert isinstance(total, Fraction)
        assert total == wick_oracle(data, g)
        assert graph_sum(data, g).value == total

    def test_exact_synthetic_genus4(self):
        data = synthetic_data(1, 4, seed=401)
        report = graph_sum(data, 4)
        assert len(report.contributions) == 379
        assert isinstance(report.value, Fraction)
        assert report.value == wick_oracle(data, 4)

    @pytest.mark.parametrize("g", [2, 3])
    def test_float_two_primary(self, g):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), g, CTX)
        w = wick_oracle(rep.data, g)
        assert rel_err(w, rep.value) < TIGHT

    @pytest.mark.parametrize("g", [2, 3])
    def test_float_direct_sum(self, g):
        # cross-block V entries vanish, so the N=3 sum must reproduce the
        # N=2 factor value (the point factor contributes nothing)
        summed = genus_potential(
            direct_sum_model(), (Fraction(2, 7), Fraction(3, 5), Fraction(1, 3)), g, CTX
        )
        factor = genus_potential(
            two_primary_model(Fraction(1, 2)),
            (Fraction(2, 7), Fraction(3, 5)),
            g,
            CTX,
            mode="constants",
        )
        assert rel_err(summed.value, factor.value) < TIGHT
        w = wick_oracle(summed.data, g)
        assert rel_err(w, summed.value) < TIGHT

    def test_cusp_primary_selection_rule(self):
        # individual graphs contribute O(1) yet the total cancels to the
        # noise floor: the quartic cusp cannot saturate the genus-2
        # dimension count with primaries alone
        rep = genus_potential(
            threefold_cusp_model(), (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)), 2, CTX
        )
        with CTX.guard():
            largest = max(mpmath.fabs(v) for _, v in rep.contributions)
            assert largest > mpmath.mpf("0.1")
            assert mpmath.fabs(rep.value) < TIGHT
            w = wick_oracle(rep.data, 2)
            assert mpmath.fabs(w - rep.value) < TIGHT


@cache
def ordered_contributions(g, n):
    """Synthetic data for (g, n) and every decorated graph with its
    contribution by the plain leaf-by-leaf descent."""
    data = synthetic_data(n, g, seed=700 + 10 * g + n)
    return data, [(graph, evaluate_graph_ordered(graph, data)) for graph in enumerate_graphs(g, n)]


class TestEdgeOrderSum:
    """The edge-by-edge decorated-graph oracle against the plain descent."""

    @pytest.mark.parametrize(
        "g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)]
    )
    def test_matches_ordered_descent_exactly(self, g, n):
        data, ordered = ordered_contributions(g, n)
        want = dict(ordered)
        for graph, val in decorated_sum(data, g):
            assert val == want[graph]

    def test_matches_ordered_descent_two_primary(self):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        decorated = decorated_sum(rep.data, 3, ctx=CTX)
        with CTX.guard():
            largest = max(mpmath.fabs(v) for _, v in decorated)
            for graph, val in decorated:
                ordered = evaluate_graph_ordered(graph, rep.data)
                assert mpmath.fabs(val - ordered) < mpmath.mpf("1e-70") * largest

    @pytest.mark.parametrize("g, n", [(3, 2), (4, 1)])
    def test_plan_closes_every_vertex_once(self, g, n):
        for graph in enumerate_graphs(g, n):
            plan = edge_plan(graph)
            assert plan is edge_plan(graph)
            assert len(plan.edges) == graph.num_edges()
            if not plan.edges:
                assert graph.num_vertices() == 1
                continue
            closed = [x for group in plan.closes for x in group]
            assert sorted(closed) == list(range(graph.num_vertices()))
            for e, (v, w) in enumerate(plan.edges):
                later = {x for pair in plan.edges[e + 1:] for x in pair}
                earlier = {x for pair in plan.edges[: e + 1] for x in pair}
                assert set(plan.closes[e]) == {v, w} - later
                assert set(plan.still_open[e]) == earlier & later


def relabel(data, perm):
    """``data`` with canonical index i renamed perm.index(i): index i of the
    result carries the Delta, sqrt(Delta), T and V entries of perm[i]."""
    return EdgeTailData(
        dimension=data.dimension,
        delta=[data.delta[p] for p in perm],
        sqrt_delta=[data.sqrt_delta[p] for p in perm],
        v={(i, j, k, l): data.v[perm[i], perm[j], k, l] for i, j, k, l in data.v},
        t=[data.t[p] for p in perm],
        v_cutoff=data.v_cutoff,
        t_cutoff=data.t_cutoff,
    )


@st.composite
def relabeled_data(draw):
    """Random synthetic tables for g = 2, 3 and N = 1..3, and the same
    tables under a random permutation of the canonical indices."""
    g = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    data = synthetic_data(n, g, draw(st.integers(0, 10 ** 6)))
    return g, data, relabel(data, draw(st.permutations(range(n))))


class TestSkeletonSum:
    """Each skeleton summed over all labelings at once, against the sum of
    its decorated graphs."""

    @pytest.mark.parametrize(
        "g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)]
    )
    def test_each_skeleton_is_the_sum_of_its_decorations(self, g, n):
        data, ordered = ordered_contributions(g, n)
        by_graph = dict(ordered)
        report = graph_sum(data, g)
        assert [sk for sk, _ in report.contributions] == list(skeletons(g))
        seen = 0
        for sk, val in report.contributions:
            graphs = decorations(sk, n)
            seen += len(graphs)
            assert isinstance(val, (int, Fraction))
            assert val == sum(by_graph[graph] for graph in graphs)
        assert seen == len(ordered)
        assert report.value == wick_oracle(data, g)

    def test_matches_decorated_sum_two_primary(self):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        by_graph = dict(decorated_sum(rep.data, 3, ctx=CTX))
        with CTX.guard():
            largest = max(mpmath.fabs(v) for v in by_graph.values())
            for sk, val in rep.contributions:
                want = sum(by_graph[graph] for graph in decorations(sk, 2))
                assert mpmath.fabs(val - want) < mpmath.mpf("1e-70") * largest

    def test_sum_leaves_no_cyclic_garbage(self):
        # each skeleton's recursive walk is freed by reference counting, so
        # its memo does not wait for the cyclic collector
        data = synthetic_data(2, 3, seed=5)
        graph_sum(data, 3)
        gc.collect()
        gc.disable()
        try:
            graph_sum(data, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=30, deadline=None, database=None)
    @given(relabeled_data())
    def test_relabeling_leaves_every_skeleton_unchanged(self, problem):
        g, data, permuted = problem
        base, other = graph_sum(data, g), graph_sum(permuted, g)
        assert other.value == base.value
        assert other.contributions == base.contributions

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_largest_reach_is_a_loop_at_genus_g_minus_one(self, g):
        # the order both routes demand of V: the largest joint budget k + l
        # of an edge, where a loop draws both from one shared budget
        reaches = []
        for sk in skeletons(g):
            plan = walk_plan(sk)
            caps = plan.caps
            reaches += [caps[v] if v == w else caps[v] + caps[w] for v, w in plan.edges]
        assert max(reaches) == 3 * g - 4

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_walk_opens_and_closes_every_vertex_once(self, g):
        for sk in skeletons(g):
            plan = walk_plan(sk)
            assert plan is walk_plan(sk)
            n = len(sk.genera)
            # every edge once, however the walk orients it
            assert sorted(tuple(sorted(e)) for e in plan.edges) == [
                (v, w) for v, w, m in sk.edge_list() for _ in range(m)
            ]
            if not plan.edges:
                assert n == 1
                continue
            opened = [x for group in plan.opens for x in group]
            closed = [x for group in plan.closes for x in group]
            assert sorted(opened) == sorted(closed) == list(range(n))
            for e, (v, w) in enumerate(plan.edges):
                later = {x for pair in plan.edges[e + 1:] for x in pair}
                earlier = {x for pair in plan.edges[:e] for x in pair}
                assert set(plan.opens[e]) == {v, w} - earlier
                assert set(plan.closes[e]) == {v, w} - later
                assert set(plan.still_open[e]) == (earlier | {v, w}) & later


class TestWalkPlan:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_vertices_placed_by_cap_then_edges_then_number(self, g):
        for sk in skeletons(g):
            order = sorted(
                range(len(sk.genera)),
                key=lambda v: (sk.psi_cap(v), sum(sk.adjacency[v]), v),
            )
            assert walk_plan(sk) == _plan(sk, order)


class TestSkeletonProgram:
    """The shared program of one genus replayed on the numbers, against the
    numeric walk of each skeleton it was recorded from
    (``oracles.walk_skeleton_sum``): the same products and sums in the
    same order, so the values agree bit for bit on kernel data and exactly
    on rationals."""

    @staticmethod
    def bits(x):
        """A number with everything that fixes it: a kernel scalar's scale
        and parts, any other number's type and value."""
        if isinstance(x, GaussianFixed):
            return type(x).shift, type(x).prec, x.re, x.im
        return type(x), x

    def assert_replays_walk(self, data, g):
        walked = {}
        replayed = skeleton_values(data, g)
        reference = oracles.walk_skeleton_values(data, g, walked)
        assert [sk for sk, _ in replayed] == [sk for sk, _ in reference] == list(skeletons(g))
        for (_, got), (_, want) in zip(replayed, reference):
            if want == 0:
                # the walk drops a vanishing term, the replay multiplies it
                # in as the exact 0 it is
                assert got == 0
            else:
                assert self.bits(got) == self.bits(want)
        return data.vertices, walked

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d", [Fraction(1, 2), Fraction(1, 3)])
    def test_two_primary_kernel_data(self, d, g):
        _, r = frame_and_R(two_primary_model(d), (Fraction(2, 7), Fraction(3, 5)), CTX, 3 * g - 3)
        data = edge_tail_data(r)
        # one sqrt(Delta_i) is imaginary here, so half of V is complex
        assert any(x.im for x in data.v.values())
        cache, walked = self.assert_replays_walk(data, g)
        # the same vertex correlators, vanishing ones marked alike
        assert cache.keys() == walked.keys()
        for key, value in cache.items():
            assert (value is None) == (walked[key] is None)

    def test_cusp_kernel_data(self):
        # F^2 of the cusp vanishes, so a wrong N = 3 sum would hide in the
        # total; compare every skeleton instead
        _, r = frame_and_R(
            threefold_cusp_model(), (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)), CTX, 3
        )
        self.assert_replays_walk(edge_tail_data(r), 2)

    @pytest.mark.parametrize("g", [2, 3])
    def test_point_model_bold_data(self, g):
        tau = CurvePoint(((Fraction(1, 50),), (Fraction(1, 40),), (Fraction(1, 30),)))
        _, bold = descendent_frame(POINT, POINT_CAL, tau, CTX, order=3 * g - 3)
        self.assert_replays_walk(bold, g)

    @pytest.mark.parametrize("g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_exact_on_rationals(self, g, n):
        data = synthetic_data(n, g, seed=900 + 10 * g + n)
        for (_, got), (_, want) in zip(
            skeleton_values(data, g), oracles.walk_skeleton_values(data, g)
        ):
            assert isinstance(got, (int, Fraction))
            assert got == want

    @staticmethod
    def with_zeros(data, zero):
        """``data`` with exact zeros planted: V^{ij}_{00} for all i, j, and
        T_2 and T_4 at index 0."""
        v = {key: zero if key[2] == key[3] == 0 else x for key, x in data.v.items()}
        t = [dict(tails) for tails in data.t]
        t[0][2] = t[0][4] = zero
        return replace(data, v=v, t=t)

    @pytest.mark.parametrize("zeros_first", [False, True])
    def test_programs_do_not_depend_on_data_zeros(self, zeros_first):
        # the program records only structure: recorded on generic data it
        # replays data with planted zeros exactly, and the reverse
        rational = synthetic_data(2, 3, seed=17)
        point = (Fraction(2, 7), Fraction(3, 5))
        _, r = frame_and_R(two_primary_model(Fraction(1, 2)), point, CTX, 6)
        kernel = edge_tail_data(r)
        zero = type(kernel.delta[0])(0, 0)
        for generic, planted in ((rational, self.with_zeros(rational, Fraction(0))),
                                 (kernel, self.with_zeros(kernel, zero))):
            graph_sum_program.cache_clear()
            for data in (planted, generic) if zeros_first else (generic, planted):
                self.assert_replays_walk(data, 3)
            # the planted zeros vanish some skeletons, not all
            vanished = [val == 0 for _, val in oracles.walk_skeleton_values(planted, 3)]
            assert any(vanished) and not all(vanished)

    def test_vanishing_skeleton_renders_zero(self):
        point = (Fraction(2, 7), Fraction(3, 5))
        _, r = frame_and_R(two_primary_model(Fraction(1, 2)), point, CTX, 3)
        data = edge_tail_data(r)
        # without edge coefficients only the edge-free skeleton survives
        data = replace(data, v={key: type(x)(0, 0) for key, x in data.v.items()})
        report = graph_sum(data, 2)
        cache = {}
        walked = oracles.walk_skeleton_values(data, 2, cache)
        # like the walk, the sum reads no vertex of a skeleton with edges
        assert report.data.vertices.keys() == cache.keys()
        for (sk, got), (_, want) in zip(report.contributions, walked):
            rendered = format_value(CTX.chop(got), CTX)
            assert rendered == format_value(CTX.chop(from_kernel(want)), CTX)
            assert (rendered == "0.0") == (sk.adjacency != ((0,),))

    @pytest.mark.parametrize(
        "recorder, g, n",
        [
            pytest.param(graph_sum_program, 2, 3, id="2-3"),
            pytest.param(graph_sum_program, 3, 2, id="3-2"),
            pytest.param(wick_program, 2, 3, id="wick-2-3"),
            pytest.param(wick_program, 3, 2, id="wick-3-2"),
        ],
    )
    def test_program_is_recorded_once(self, recorder, g, n):
        program = recorder(g, n)
        assert recorder(g, n) is program
        # every register an operand reads exists before it is read, and a
        # division reads its divisor from a constant register
        registers = len(program.constants) + sum(len(keys) for _, keys in program.inputs)
        for op, left, right, counts in program.steps:
            assert op in (mul, truediv, None)
            assert max(left) < registers
            if op is None:
                assert right is None and counts is not None
            else:
                assert len(right) == len(left) and max(right) < registers
            if op is truediv:
                assert counts is None and max(right) < len(program.constants)
            if counts is None:
                registers += len(left)
            else:
                assert sum(counts) == len(left)
                registers += len(counts)
        outputs = len(skeletons(g)) if recorder is graph_sum_program else g - 1
        assert len(program.outputs) == outputs
        assert all(out is None or out < registers for out in program.outputs)

    @pytest.mark.parametrize(
        "g, n, products, sums",
        [(2, 3, 189, 16), (3, 1, 571, 110), (3, 2, 2040, 400), (4, 1, 7387, 1424)],
    )
    def test_each_product_and_sum_is_formed_once(self, g, n, products, sums):
        steps = graph_sum_program(g, n).steps
        # products alone, and sums of registers read as they are
        assert {(op, counts is None) for op, _, _, counts in steps} == {(mul, True), (None, False)}
        assert sum(len(left) for op, left, _, _ in steps if op is mul) == products
        assert sum(len(counts) for op, _, _, counts in steps if op is None) == sums
        pairs = [pair for op, left, right, _ in steps if op is mul for pair in zip(left, right)]
        assert len(pairs) == len(set(pairs))
        terms = []
        for op, left, _, counts in steps:
            if op is None:
                it = iter(left)
                terms += [tuple(islice(it, c)) for c in counts]
        assert len(terms) == len(set(terms)) and all(len(t) > 1 for t in terms)

    def test_vanishing_weights_build_no_edge_program(self):
        program = graph_sum_program(3, 2, False)
        skeleton_list = skeletons(3)
        assert [out is not None for out in program.outputs] == [
            not walk_plan(sk).edges for sk in skeleton_list
        ]
        assert program.inputs == (
            ("edge_weights", ()), ("vertices", ((3, 0, ()), (3, 1, ())))
        )


class TestExactZeros:
    """F^3 and F^4 vanish on QH(P^1) (d = 1) and on A_2 (d = 1/3): the
    primary dimension count allows no invariant of genus >= 2, so the
    genus-3 graph sum must cancel down to rounding noise against its
    largest decorated graph, and the genus-4 graph sum and Wick expansion
    against F^4 of d = 1/2."""

    @pytest.mark.parametrize(
        "point", [(Fraction(2, 7), Fraction(3, 5)), (Fraction(-1, 3), Fraction(7, 9))]
    )
    @pytest.mark.parametrize("d", [Fraction(1), Fraction(1, 3)])
    def test_genus3_cancels(self, d, point):
        assert self.ratio(d, point) < mpmath.mpf("1e-60")

    def test_control_does_not_cancel(self):
        ratio = self.ratio(Fraction(1, 2), (Fraction(2, 7), Fraction(3, 5)))
        assert mpmath.mpf("0.02") < ratio < mpmath.mpf("0.03")

    @staticmethod
    def ratio(d, point):
        rep = genus_potential(two_primary_model(d), point, 3, CTX)
        # the scale is the largest decorated graph, not the largest skeleton
        decorated = decorated_sum(rep.data, 3, ctx=CTX, vertex_cache=rep.data.vertices)
        with CTX.guard():
            largest = max(mpmath.fabs(v) for _, v in decorated)
            return mpmath.fabs(rep.value) / largest

    @pytest.mark.parametrize(
        "point", [(Fraction(2, 7), Fraction(3, 5)), (Fraction(-1, 3), Fraction(7, 9))]
    )
    @pytest.mark.parametrize("d", [Fraction(1), Fraction(1, 3)])
    def test_genus4_wick_cancels(self, d, point):
        # no graph enumeration: frame, R, V/T and the Wick expansion alone,
        # measured against F^4 of the d = 1/2 model at the same point
        with CTX.guard():
            control = self.wick_genus4(Fraction(1, 2), point)
            assert control > mpmath.mpf("1e-8")
            assert self.wick_genus4(d, point) < mpmath.mpf("1e-60") * control

    @pytest.mark.parametrize(
        "point", [(Fraction(2, 7), Fraction(3, 5)), (Fraction(-1, 3), Fraction(7, 9))]
    )
    @pytest.mark.parametrize("d", [Fraction(1), Fraction(1, 3)])
    def test_genus4_graph_sum_cancels(self, d, point):
        # the whole chain through the graph sum, against the same gate
        with CTX.guard():
            control = self.wick_genus4(Fraction(1, 2), point)
            value = mpmath.fabs(graph_sum(self.data_genus4(d, point), 4).value)
            assert value < mpmath.mpf("1e-60") * control

    @staticmethod
    @cache
    def data_genus4(d, point):
        _, r = frame_and_R(two_primary_model(d), point, CTX, 9)
        return edge_tail_data(r)

    @classmethod
    @cache
    def wick_genus4(cls, d, point):
        with CTX.guard():
            return mpmath.fabs(wick_oracle(cls.data_genus4(d, point), 4))


class TestGenusOneZeros:
    """dF^1 vanishes on A_2 (two-primary d = 1/3, r = 3) and on A_3 (the
    cusp, r = 4).  Givental's formula at those points gives Witten's r-spin
    class (Faber-Shadrin-Zvonkine, Ann. Sci. ENS 2010).  A primary r-spin
    correlator <e_{a_1} .. e_{a_n}>_g, 0 <= a_i <= r - 2, integrates a class
    of degree ((r - 2)(g - 1) + sum a_i)/r over M_{g,n}, of dimension
    3g - 3 + n, so it vanishes unless the two agree.  At g = 1 the degree is
    sum a_i / r <= n (r - 2)/r < n: every genus-1 primary correlator with
    n >= 1 insertions vanishes, and so does each component of dF^1.  The
    control d = 1/2 is not an r-spin model and reads -5/96 at t1 = 2/5."""

    @pytest.mark.parametrize(
        "model, point",
        [
            (two_primary_model(Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 5))),
            (threefold_cusp_model(), (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))),
        ],
    )
    def test_vanishes(self, model, point):
        with CTX.guard():
            assert CTX.max_abs(genus1_one_form(model, point, CTX)) <= mpmath.mpf("1e-70")

    def test_control_does_not_vanish(self):
        comps = genus1_one_form(two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5)), CTX)
        with CTX.guard():
            assert mpmath.fabs(comps[0]) <= mpmath.mpf("1e-70")
            assert mpmath.fabs(comps[1] - CTX.num(Fraction(-5, 96))) <= mpmath.mpf("1e-70")


class TestKernelRepresentation:
    """On kernel data the graph sum and the Wick oracle run on Gaussian
    fixed-point scalars; the same functions run straight on the mpmath data,
    at the caller's precision, are the reference.  Each must agree with it
    to 2**-(prec - 16) of the largest skeleton contribution."""

    @pytest.mark.parametrize(
        "model, point, g",
        [
            (two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), 3),
            (two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), 4),
            (threefold_cusp_model(), (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)), 2),
        ],
    )
    def test_fixed_point_matches_mpmath_kernels(self, model, point, g):
        frame, r = frame_and_R(model, point, CTX, 3 * g - 3)
        # the pipeline hands its data over in kernel form already
        pipeline = edge_tail_data(r)
        assert pipeline.in_kernel(CTX) is pipeline
        # R, V and T on mpmath numbers, and the same tables in kernel form
        data = mpc_edge_tail_data(frame, mpc_homogeneous_R(frame, 3 * g - 3))
        kernel = data.in_kernel(CTX)
        rep = graph_sum(kernel, g)
        # the sums run on the data as they are given
        assert rep.data is kernel
        with CTX.guard():
            reference = graph_sum(data, g).contributions
            gate = mpmath.ldexp(max(mpmath.fabs(v) for _, v in reference), 16 - CTX.prec_bits)
            assert [sk for sk, _ in rep.contributions] == [sk for sk, _ in reference]
            for (_, got), (_, want) in zip(rep.contributions, reference):
                assert mpmath.fabs(got - want) < gate
            assert mpmath.fabs(rep.value - sum(v for _, v in reference)) < gate
            wick = wick_oracle(rep.data, g)
            assert mpmath.fabs(wick - wick_oracle(data, g)) < gate

    def test_kernel_data_runs_at_its_own_precision(self):
        # called outside any guard, at mpmath's 53 bits, the sum and the
        # oracle still take their precision from the pipeline's data
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        with mpmath.workprec(53):
            summed = graph_sum(rep.data, 3).value
            wick = wick_oracle(rep.data, 3)
        with CTX.guard():
            largest = max(mpmath.fabs(v) for _, v in rep.contributions)
            gate = mpmath.ldexp(largest, 16 - CTX.prec_bits)
            assert mpmath.fabs(summed - rep.value) < gate
            assert mpmath.fabs(wick - rep.value) < gate

    def test_exact_data_is_its_own_kernel_form(self):
        data = synthetic_data(2, 3, seed=731)
        report = graph_sum(data, 3)
        assert report.data is data
        assert isinstance(report.value, Fraction)


def spy_vertex_programs(monkeypatch) -> list:
    """Every tuple of slots ``genus.replay`` asks a vertex program for, in
    order: each is replayed once, on the data the memo lacks them on."""
    asked = []

    def spy(slots, _real=genus_module.vertex_program):
        asked.append(slots)
        return _real(slots)

    monkeypatch.setattr(genus_module, "vertex_program", spy)
    return asked


class TestSharedVertexCache:
    def test_each_vertex_evaluated_once(self, monkeypatch):
        asked = spy_vertex_programs(monkeypatch)
        calls = []

        def counting(g_v, ks, tails, delta, _real=oracles.vertex_correlator):
            calls.append((g_v, tuple(ks), id(tails)))
            return _real(g_v, ks, tails, delta)

        monkeypatch.setattr(oracles, "vertex_correlator", counting)
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        # one replay of one slot per distinct (g_v, i_v, edge powers) over
        # all 42 skeletons
        [slots] = asked
        assert len(slots) == len(set(slots)) == 114
        decorated = decorated_sum(rep.data, 3, ctx=CTX, vertex_cache=dict(rep.data.vertices))
        # the 271 decorated graphs reach no vertex the skeletons did not
        assert calls == [] and len(asked) == 1
        with CTX.guard():
            for graph, val in decorated:
                assert evaluate_graph(graph, rep.data) == val
        # a cache per graph evaluates the same vertices over and over
        assert len(calls) == 1206
        w = wick_oracle(rep.data, 3)
        assert rel_err(w, rep.value) < TIGHT

    def test_each_edge_weight_evaluated_once(self, monkeypatch):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        calls = []
        original = EdgeTailData.v_entry

        def counting(self, i, j, k, l):
            calls.append((i, j, k, l))
            return original(self, i, j, k, l)

        monkeypatch.setattr(EdgeTailData, "v_entry", counting)
        again = graph_sum(replace(rep.data), 3)
        # one table entry per (i, j) and k + l <= v_cutoff = 5, shared by
        # all 42 skeletons
        assert len(calls) == len(set(calls)) == 4 * 21
        assert again.value == rep.value

    def test_data_keep_their_tables(self, monkeypatch):
        # the vertex memo and the edge weights live on the data: a second
        # graph sum and a second Wick oracle on it form neither again
        model = two_primary_model(Fraction(1, 2))
        _, r = frame_and_R(model, (Fraction(2, 7), Fraction(3, 5)), CTX, 6)
        data = edge_tail_data(r)
        first = graph_sum(data, 3)
        wick = wick_oracle(data, 3)
        assert len(data.vertices) == 116

        def forbidden(*args):
            raise AssertionError("formed again")

        monkeypatch.setattr(genus_module, "vertex_program", forbidden)
        monkeypatch.setattr(EdgeTailData, "v_entry", forbidden)
        assert graph_sum(data, 3).value == first.value
        assert wick_oracle(data, 3) == wick
        # new data start without either table
        fresh = replace(data)
        assert fresh.vertices == {} and "edge_weights" not in vars(fresh)
        with pytest.raises(AssertionError, match="formed again"):
            graph_sum(fresh, 3)


@st.composite
def vertex_problems(draw):
    """Distinct stable slots (g_v <= 4, i < 2, sorted edge powers) whose
    tail terms are not empty, and two-index Fraction data: nonzero Delta
    and tails T_2 .. T_16, some of them 0 and some missing."""
    slots = []
    for _ in range(draw(st.integers(1, 8))):
        g_v = draw(st.integers(0, 4))
        m = draw(st.integers(max(0, 3 - 2 * g_v), 5))
        ks = tuple(sorted(draw(st.lists(st.integers(0, 3 * g_v - 3 + m), min_size=m, max_size=m))))
        key = (g_v, draw(st.integers(0, 1)), ks)
        if _DEFAULT_TABLE.tail_terms(g_v, ks) and key not in slots:
            slots.append(key)
    values = st.fractions(-9, 9, max_denominator=7)
    delta = [draw(values.filter(bool)) for _ in range(2)]
    t = [
        {a: draw(values) for a in range(2, 17) if draw(st.booleans()) or a % 5}
        for _ in range(2)
    ]
    data = EdgeTailData(dimension=2, delta=delta, sqrt_delta=[None, None], v={}, t=t,
                        v_cutoff=0, t_cutoff=16)
    return tuple(slots), data


class TestVertexProgram:
    """The vertex correlators of a tuple of slots recorded once as a
    program (``genus.vertex_program``) and replayed on the data's tail
    values and Delta powers, against the correlators their operators form
    term by term (``oracles.vertex_correlator``)."""

    @pytest.mark.parametrize(
        "model, point, g, slots, complex_slots",
        [
            pytest.param(two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), 3,
                         116, 0, id="two-primary-1/2"),
            pytest.param(two_primary_model(Fraction(3, 2)), (Fraction(2, 7), Fraction(3, 5)), 3,
                         116, 94, id="two-primary-3/2"),
            pytest.param(threefold_cusp_model(), (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)),
                         2, 30, 18, id="cusp"),
        ],
    )
    def test_pipeline_slots_bit_for_bit(self, model, point, g, slots, complex_slots):
        _, r = frame_and_R(model, point, CTX, 3 * g - 3)
        data = edge_tail_data(r)
        graph_sum(data, g)
        wick_oracle(data, g)
        assert len(data.vertices) == slots
        for (g_v, i, ks), value in data.vertices.items():
            want = vertex_correlator(g_v, ks, data.t[i], data.delta[i])
            if value is None:
                assert want == 0
            else:
                assert TestSkeletonProgram.bits(value) == TestSkeletonProgram.bits(want)
        # a complex Delta_i gives complex lanes
        assert sum(bool(x and x.im) for x in data.vertices.values()) == complex_slots

    @settings(max_examples=60, deadline=None, database=None)
    @given(vertex_problems())
    def test_exact_on_rationals(self, problem):
        slots, data = problem
        program = vertex_program(slots)
        got = genus_module.replay(program, data)
        want = [vertex_correlator(g_v, ks, data.t[i], data.delta[i]) for g_v, i, ks in slots]
        assert all(isinstance(x, Fraction) for x in got)
        assert got == want
        assert oracles.replay_by_operators(program, data) == want

    def test_point_descendent_replays_one_slot(self, monkeypatch):
        asked = spy_vertex_programs(monkeypatch)
        tau = CurvePoint(((Fraction(1, 50),), (Fraction(1, 40),), (Fraction(1, 30),)))
        _, bold = descendent_frame(POINT, POINT_CAL, tau, CTX, order=6)
        skeleton_values(bold, 3)
        assert asked == [((3, 0, ()),)]

    def test_leaves_out_exact_identities(self):
        slots = ((1, 0, (1,)), (0, 0, (0, 0, 0)), (2, 0, ()))
        program = vertex_program(slots)
        # recorded once per tuple of slots, so new data replay it
        assert vertex_program(slots) is program
        # (2, ()) reads T_2, T_3, T_4 and Delta, (0, (0, 0, 0)) Delta^-1,
        # and (1, (1,)) no power at all
        assert program.inputs == (("t", ((0, 2), (0, 3), (0, 4))), ("delta", ((0, -1), (0, 1))))
        # <tau_0^3>_0 = 1 times Delta^-1 is the input register itself
        assert program.outputs[1] == len(program.constants) + 3
        # <tau_1>_1 = 1/24 is the constant 1 divided by 24; the weights
        # 1/1152, 29/5760 and 7/1440 of (2, ()) divide once each, and only
        # 29 and 7 multiply
        constants = program.constants
        divisors = [constants[r] for op, _, right, _ in program.steps if op is truediv for r in right]
        assert sorted(divisors) == [24, 1152, 1440, 5760]
        numerators = [
            constants[r] for op, _, right, c in program.steps if op is mul and c is None
            for r in right if r < len(constants)
        ]
        assert sorted(numerators) == [7, 29]


class TestSeriesProductPruning:
    def test_wick_oracle_forms_few_over_cap_products(self, monkeypatch):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        verdicts = []
        original = Caps.keep

        def counting(self, key):
            kept = original(self, key)
            verdicts.append(kept)
            return kept

        monkeypatch.setattr(Caps, "keep", counting)
        w = wick_oracle_layers(rep.data, 3, ctx=CTX)
        # the weighted bound stops each inner loop of a product before the
        # pairs it would reject, so almost every formed pair is kept
        assert verdicts.count(False) == 5
        assert verdicts.count(True) == 2400
        assert rel_err(w, rep.value) < TIGHT


def _perfect_matchings(factors):
    """Every way to split the list ``factors`` into unordered pairs."""
    if not factors:
        yield []
        return
    first, rest = factors[0], factors[1:]
    for p, partner in enumerate(rest):
        for tail in _perfect_matchings(rest[:p] + rest[p + 1:]):
            yield [(first, partner)] + tail


def _matching_sum(mono, cov):
    """Isserlis's theorem term by term: the covariance product of every
    perfect matching of the factors of ``mono``, summed."""
    total = Fraction(0)
    for matching in _perfect_matchings(list(mono)):
        term = Fraction(1)
        for u, v in matching:
            term *= cov.get(min(u, v), {}).get(max(u, v), 0)
        total += term
    return total


@st.composite
def moment_problems(draw):
    """A symmetric Fraction covariance on up to four slots, as its upper
    triangle with zeros left out, and a sorted monomial of degree at most 8
    in those slots."""
    n = draw(st.integers(1, 4))
    entries = st.fractions(-5, 5, max_denominator=7)
    cov = {}
    for u in range(n):
        for v in range(u, n):
            c = draw(entries)
            if c:
                cov.setdefault(u, {})[v] = c
    mono = tuple(sorted(draw(st.lists(st.integers(0, n - 1), max_size=8))))
    return cov, mono


class TestWickExpansion:
    """The Wick oracle as a graded exponential and an Isserlis contraction,
    against the layer-by-layer propagator expansion it replaced."""

    @pytest.mark.parametrize(
        "g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)]
    )
    def test_matches_layered_expansion_exactly(self, g, n):
        data = synthetic_data(n, g, seed=800 + 10 * g + n)
        value = wick_oracle(data, g)
        assert isinstance(value, Fraction)
        assert value == wick_oracle_layers(data, g)

    @pytest.mark.parametrize("g", [3, 4])
    @pytest.mark.parametrize("d", [Fraction(1, 2), Fraction(3, 2)])
    def test_matches_layered_expansion_two_primary(self, d, g):
        _, r = frame_and_R(two_primary_model(d), (Fraction(2, 7), Fraction(3, 5)), CTX, 3 * g - 3)
        data = edge_tail_data(r)
        value = wick_oracle(data, g)
        assert rel_err(value, wick_oracle_layers(data, g, ctx=CTX)) < mpmath.mpf("1e-70")

    def test_counts_with_and_without_the_graph_sum_table(self, monkeypatch):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 3, CTX)
        wick_program.cache_clear()
        memos = []
        moment = genus_module.gaussian_moment

        def spying(mono, cov, memo):
            if not any(m is memo for m in memos):
                memos.append(memo)
            return moment(mono, cov, memo)

        asked = spy_vertex_programs(monkeypatch)
        monkeypatch.setattr(genus_module, "gaussian_moment", spying)
        assert len(rep.data.vertices) == 114
        shared = wick_oracle(rep.data, 3)
        # the graph sum already holds 114 of the oracle's 116 correlators
        assert [len(slots) for slots in asked] == [2]
        assert len(rep.data.vertices) == 116
        asked.clear()
        alone = wick_oracle(replace(rep.data), 3)
        [slots] = asked
        assert len(slots) == len(set(slots)) == 116
        # one recording, whose memo holds every even monomial reached; the
        # second call replays it
        assert [len(m) for m in memos] == [251]
        assert shared == alone
        assert rel_err(shared, rep.value) < TIGHT

    @settings(max_examples=200, deadline=None, database=None)
    @given(moment_problems())
    def test_contraction_is_the_sum_over_perfect_matchings(self, problem):
        cov, mono = problem
        memo = {}
        got = gaussian_moment(mono, cov, memo)
        assert got == _matching_sum(mono, cov)
        if len(mono) % 2:
            assert got == 0 and not memo
        # every memoized moment is a moment of its own monomial
        for sub, value in memo.items():
            assert sub and len(sub) % 2 == 0
            assert value == _matching_sum(sub, cov)

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
        st.integers(0, 10 ** 6),
    )
    def test_graded_exp_is_the_series_exp(self, shape, seed):
        g, n = shape
        layers = summed_layers(numeric_layers(synthetic_data(n, g, seed), g))
        slots = n * (3 * g - 3)
        names = ("h",) + tuple(f"q{s}" for s in range(slots))
        grading = dict.fromkeys(names, 1)
        grading["h"] = 2
        caps = Caps.box(
            names, mins={"h": -(2 * g - 2)}, maxs={"h": g - 1}, weighted=[(grading, 2 * g - 2)]
        )

        def exponents(d, mono):
            key = [(d - len(mono)) // 2] + [0] * slots
            for s in mono:
                key[1 + s] += 1
            return tuple(key)

        def as_series(parts):
            return {exponents(d, m): c for d, part in enumerate(parts) for m, c in part.items()}

        log_tau = TruncatedSeries(caps, as_series(layers))
        assert len(log_tau.c) == sum(1 for part in layers for c in part.values() if c)
        assert as_series(_graded_exp(layers)) == log_tau.exp().c

    @pytest.mark.parametrize("g, n", [(2, 1), (2, 3), (3, 2)])
    def test_exp_by_index_is_the_exp_of_the_sum(self, g, n):
        per_index = numeric_layers(synthetic_data(n, g, seed=700 + 10 * g + n), g)
        # every index has a genus-2 vertex without edges on the empty tuple:
        # from two indices on, two degree splits meet on that tuple
        assert all(layers[2].get(()) for layers in per_index)
        full = _graded_exp(summed_layers(per_index))
        product = _exp_by_index(per_index)
        assert sorted(product) == list(range(2, 2 * g - 1, 2))
        for d, part in product.items():
            assert all(isinstance(c, Fraction) for c in part.values())
            assert part == full[d]

    def test_routes_share_no_engine(self, monkeypatch):
        data = synthetic_data(2, 3, seed=321)
        # the oracle records its expansion on its first call for a key
        wick_program.cache_clear()
        calls = []
        for name in ("replay", "graph_sum_program", "wick_program", "_graded_exp",
                     "gaussian_moment"):
            def spy(*args, _name=name, _real=getattr(genus_module, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(genus_module, name, spy)
        # each route records with its own recorder; both run the recording
        # with the one replay
        wick_oracle(data, 3)
        assert {"wick_program", "_graded_exp", "gaussian_moment"} <= set(calls)
        assert "graph_sum_program" not in calls
        calls.clear()
        graph_sum(data, 3)
        assert set(calls) == {"replay", "graph_sum_program"}

    def test_shared_table_is_sound(self):
        data = synthetic_data(2, 3, seed=321)
        report = graph_sum(data, 3)
        shared = wick_oracle(data, 3)
        assert shared == wick_oracle(replace(data), 3)
        assert shared == report.value
        for (g_v, i, ks), value in data.vertices.items():
            fresh = vertex_correlator(g_v, ks, data.t[i], data.delta[i])
            assert (0 if value is None else value) == fresh
            assert (value is None) == (fresh == 0)


def zeroed_data(n, g, seed):
    """``synthetic_data`` with exact zeros planted: V^{00}_{00} and
    V^{0,n-1}_{01} (with their transposes), T^0_3, and T^0_{3g-2} chosen
    so that the genus-g vertex without edges at index 0 vanishes, though
    its tail terms do not.  That correlator is affine in T_{3g-2}: only the
    one-leg tail term reaches it."""
    data = synthetic_data(n, g, seed)
    v = dict(data.v)
    for i, j, k, l in ((0, 0, 0, 0), (0, n - 1, 0, 1)):
        v[(i, j, k, l)] = v[(j, i, l, k)] = Fraction(0)
    t = [dict(tails) for tails in data.t]
    t[0][3] = Fraction(0)
    top = 3 * g - 2
    t[0][top] = Fraction(0)
    base = vertex_correlator(g, (), t[0], data.delta[0])
    t[0][top] = Fraction(1)
    slope = vertex_correlator(g, (), t[0], data.delta[0]) - base
    t[0][top] = -base / slope
    return replace(data, v=v, t=t)


def expanded_moments(data, g):
    """The moments of ``wick_moments`` from the expansion run straight on
    the numbers of ``data``, skipping the terms that vanish on them: the
    reference its replay must match bit for bit."""
    kq = 3 * g - 4
    powers = _exp_by_index(numeric_layers(data, g))
    slots = [(i, k) for i in range(data.dimension) for k in range(kq + 1)]
    cov = {}
    for u, (i, k) in enumerate(slots):
        for v in range(u, len(slots)):
            j, l = slots[v]
            if k + l <= data.v_cutoff and data.edge_weights[(i, j, k, l)] != 0:
                cov.setdefault(u, {})[v] = data.edge_weights[(i, j, k, l)]
    memo, moments = {}, {}
    for b in range(1, g):
        z = 0
        for mono, coef in powers[2 * b].items():
            moment = gaussian_moment(mono, cov, memo)
            if moment:
                z = z + coef * moment
        if z:
            moments[b] = z
    return moments


# the two routes to F^g, each replaying its own recorded program
ROUTES = (skeleton_values, wick_moments)


class TestWickProgram:
    """The Wick oracle replays an expansion recorded once per (g, N) on
    stand-ins for the data's numbers.  The lane tests hold the graph sum's
    replay to its operators as well."""

    @pytest.mark.parametrize("d", [Fraction(1, 2), Fraction(3, 2)])
    @pytest.mark.parametrize(
        "point", [(Fraction(2, 7), Fraction(3, 5)), (Fraction(-1, 3), Fraction(7, 9))]
    )
    def test_replay_is_the_expansion_bit_for_bit(self, d, point):
        _, r = frame_and_R(two_primary_model(d), point, CTX, 6)
        data = edge_tail_data(r)
        got, want = wick_moments(data, 3), expanded_moments(data, 3)
        assert list(got) == list(want) == [1, 2]
        for b, z in got.items():
            assert isinstance(z, GaussianFixed)
            assert (z.__class__, z.re, z.im) == (want[b].__class__, want[b].re, want[b].im)

    @pytest.mark.parametrize("g, n", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_planted_zeros_enter_exactly(self, g, n):
        data = zeroed_data(n, g, seed=900 + 10 * g + n)
        # the vanishing vertex and weights are registers of the program
        assert _DEFAULT_TABLE.tail_terms(g, ())
        assert vertex_correlator(g, (), data.t[0], data.delta[0]) == 0
        inputs = dict(wick_program(g, n).inputs)
        assert (g, 0, ()) in inputs["vertices"]
        assert {(0, 0, 0, 0), (0, n - 1, 0, 1)} <= set(inputs["edge_weights"])
        value = wick_oracle(data, g)
        assert isinstance(value, Fraction)
        assert value == wick_oracle_layers(data, g)
        assert data.vertices[(g, 0, ())] is None

    @staticmethod
    def assert_lanes_are_the_operators(data, g, route, lanes, vertex_lanes=None):
        """``route`` (``skeleton_values`` or ``wick_moments``) on kernel
        data, whose ``replay`` runs on integer lanes, against each program
        it replays run by the kernel scalars' operators on the same data:
        the vertex program of the slots the data's memo lacks, if any, then
        the route's own, whose vertex correlators the operators form again
        by the vertex program.  Every output bit for bit, the vanishing
        ones included.  The route's program runs on ``lanes`` lanes, the
        vertex program on ``vertex_lanes`` (default ``lanes``): one where
        every register it loads is real, two otherwise.  Returns the number
        of vertex programs replayed."""
        assert isinstance(data.delta[0], GaussianFixed)
        replays, counts = [], []

        def spy(program, data, _real=genus_module.replay):
            replays.append((program, _real(program, data)))
            return replays[-1][1]

        def count(values, kind, _real=genus_module.to_lanes):
            loaded = _real(values, kind)
            counts.append(len(loaded))
            return loaded

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genus_module, "replay", spy)
            patch.setattr(genus_module, "to_lanes", count)
            route(data, g)
        *vertices, _ = replays
        assert len(vertices) <= 1
        assert all(dict(program.inputs).keys() == {"t", "delta"} for program, _ in vertices)
        # a nested vertex replay loads its lanes and returns before the
        # route's replay loads its own, so the counts come in replay order
        vertex_lanes = lanes if vertex_lanes is None else vertex_lanes
        assert counts == [vertex_lanes] * len(vertices) + [lanes]
        for program, got in replays:
            want = oracles.replay_by_operators(program, data)
            assert len(got) == len(want) == len(program.outputs)
            for out, z, w in zip(program.outputs, got, want):
                assert out is None or isinstance(w, GaussianFixed)
                assert TestSkeletonProgram.bits(z) == TestSkeletonProgram.bits(w)
        return len(vertices)

    @pytest.mark.parametrize("g", [3, 4])
    @pytest.mark.parametrize("d", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)])
    def test_lanes_match_the_operators_two_primary(self, d, g):
        point = (Fraction(2, 7), Fraction(3, 5))
        _, r = frame_and_R(two_primary_model(d), point, CTX, 3 * g - 3)
        # at this point every Delta_i is positive for d = 1/2 and 1/3, and
        # the data are real; at d = 3/2 one is negative
        lanes = 2 if d == Fraction(3, 2) else 1
        for route in ROUTES:
            # fresh data: the route replays the vertex program of its slots
            assert self.assert_lanes_are_the_operators(edge_tail_data(r), g, route, lanes) == 1

    def test_lanes_match_the_operators_cusp(self):
        _, r = frame_and_R(
            threefold_cusp_model(), (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)), CTX, 3
        )
        for route in ROUTES:
            assert self.assert_lanes_are_the_operators(edge_tail_data(r), 2, route, 2) == 1

    @pytest.mark.parametrize("g", [2, 3])
    def test_lanes_match_the_operators_point_model_bold_data(self, g):
        tau = CurvePoint(((Fraction(1, 50),), (Fraction(1, 40),), (Fraction(1, 30),)))
        _, bold = descendent_frame(POINT, POINT_CAL, tau, CTX, order=3 * g - 3)
        for route in ROUTES:
            self.assert_lanes_are_the_operators(bold, g, route, 1)

    @pytest.mark.parametrize("g, n", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_lanes_match_the_operators_on_planted_zeros(self, g, n):
        data = zeroed_data(n, g, seed=900 + 10 * g + n).in_kernel(CTX)
        # the planted zeros of V and T are kernel zeros of the data's one
        # scale; the cancelling vertex is not, as T_{3g-2} was rounded
        kind = type(data.delta[0])
        zeros = [data.edge_weights[(0, 0, 0, 0)], data.edge_weights[(0, n - 1, 0, 1)], data.t[0][3]]
        assert all(type(z) is kind and z == 0 for z in zeros)
        for route in ROUTES:
            self.assert_lanes_are_the_operators(data, g, route, 1)
        # with every tail at index 0 a kernel zero, the vertices there that
        # need a tail vanish and enter the registers as zeros
        data = replace(data, t=[{a: kind(0, 0) for a in data.t[0]}, *data.t[1:]])
        for route in ROUTES:
            self.assert_lanes_are_the_operators(data, g, route, 1)
        assert None in data.vertices.values()

    @pytest.mark.parametrize("at", [0, -1])
    def test_one_complex_edge_weight_takes_both_lanes(self, at):
        """Real two-primary data with i/8 added to one edge weight, the
        first or the last the route's program loads: the route replays on
        two lanes, the vertex program, which reads no edge weight, on one,
        and every output is still the operators' own.  Realness judged
        from any part of the registers that leaves the planted weight out
        would drop its imaginary part."""
        _, r = frame_and_R(two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), CTX, 6)
        for route, program in ((skeleton_values, graph_sum_program(3, 2)),
                               (wick_moments, wick_program(3, 2))):
            data = edge_tail_data(r)
            kind = type(data.delta[0])
            key = dict(program.inputs)["edge_weights"][at]
            data.edge_weights = {**data.edge_weights}
            data.edge_weights[key] += kind(0, 1 << kind.shift - 3)
            assert self.assert_lanes_are_the_operators(data, 3, route, 2, vertex_lanes=1) == 1
            values = route(data, 3)
            values = [z for _, z in values] if route is skeleton_values else values.values()
            assert any(z and z.im for z in values)

    @pytest.mark.parametrize(
        "g, n, products, sums, terms, divisions, registers",
        [
            (2, 3, 81, 33, 122, 39, 219),
            (3, 2, 349, 317, 1269, 206, 1049),
            (4, 1, 276, 359, 2565, 455, 1375),
        ],
    )
    def test_program_size(self, g, n, products, sums, terms, divisions, registers):
        program = wick_program(g, n)
        steps = program.steps
        assert sum(len(left) for op, left, _, c in steps if op is mul and c is None) == products
        assert sum(len(c) for op, _, _, c in steps if op is mul and c is not None) == sums
        assert sum(sum(c) for op, _, _, c in steps if op is mul and c is not None) == terms
        assert sum(len(left) for op, left, _, _ in steps if op is truediv) == divisions
        inputs = len(program.constants) + sum(len(keys) for _, keys in program.inputs)
        assert inputs + products + sums + divisions == registers

    def test_second_call_of_a_key_records_nothing(self):
        first, second = synthetic_data(2, 3, seed=61), synthetic_data(2, 3, seed=62)
        wick_oracle(first, 3)
        before = wick_program.cache_info()
        value = wick_oracle(second, 3)
        after = wick_program.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits + 1, before.misses, before.currsize
        )
        assert value == wick_oracle_layers(second, 3)

    @pytest.mark.parametrize("g, n", [(2, 3), (3, 2), (4, 1)])
    def test_longer_cutoff_reads_the_same_program(self, g, n):
        # no term reads V past joint order 3g - 4; the reference reads the
        # data's V to its own cutoff, here 2(3g - 4), where random weights
        # stand
        wide = synthetic_data(n, g, seed=64)
        rng = random.Random(65)
        v = dict(wide.v)
        for i in range(n):
            for j in range(n):
                for k in range(3 * g - 3):
                    for l in range(3 * g - 3):
                        if 3 * g - 4 < k + l and (i, j, k, l) not in v:
                            v[(i, j, k, l)] = v[(j, i, l, k)] = Fraction(rng.randint(1, 9))
        wide = replace(wide, v=v, v_cutoff=6 * g - 8)
        narrow = replace(wide, v={k: x for k, x in v.items() if k[2] + k[3] <= 3 * g - 4},
                         v_cutoff=3 * g - 4)
        value = wick_oracle(narrow, g)
        before = wick_program.cache_info()
        assert wick_oracle(wide, g) == value == wick_oracle_layers(wide, g)
        assert wick_program.cache_info().misses == before.misses
        assert max(k + l for _, _, k, l in dict(wick_program(g, n).inputs)["edge_weights"]) == 3 * g - 4


class TestGenusReport:
    def test_report_structure(self):
        model = two_primary_model(Fraction(1, 2))
        rep = genus_potential(model, (Fraction(2, 7), Fraction(3, 5)), 2, CTX)
        assert rep.genus == 2
        assert [sk for sk, _ in rep.contributions] == list(skeletons(2))
        with CTX.guard():
            total = CTX.num(0)
            for _, val in rep.contributions:
                total = total + val
            assert mpmath.fabs(total - rep.value) == 0
        names = rep.contribution_map()
        assert len(names) == len(rep.contributions)
        assert rep.frame is not None and rep.data.dimension == 2

    def test_zero_gauge_twist_is_identity(self):
        model = two_primary_model(Fraction(1, 2))
        pt = (Fraction(2, 7), Fraction(3, 5))
        plain = genus_potential(model, pt, 2, CTX, mode="constants")
        twisted = genus_potential(
            model, pt, 2, CTX, mode="constants", gauge=[[0, 0], [0, 0]]
        )
        assert rel_err(twisted.value, plain.value) < TIGHT


class TestRRoute:
    def test_frame_and_R_takes_each_route(self, monkeypatch):
        calls = []
        solve, homogeneous = rmatrix.compute_R, rmatrix.homogeneous_R

        def spy_solve(frame, order, mode=None):
            calls.append(("compute_R", frame.order, mode))
            return solve(frame, order, mode)

        def spy_homogeneous(frame, order):
            calls.append(("homogeneous", frame.order))
            return homogeneous(frame, order)

        monkeypatch.setattr(rmatrix, "compute_R", spy_solve)
        monkeypatch.setattr(rmatrix, "homogeneous_R", spy_homogeneous)
        quintic = two_primary_model(Fraction(1, 2))
        pt = (Fraction(1, 5), Fraction(2, 3))
        cases = (
            (threefold_cusp_model(), (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)),
             None, [("compute_R", 0, None), ("homogeneous", 0)]),
            (quintic, pt, "constants", [("compute_R", 3, "constants")]),
            (FrobeniusModel(dimension=2, metric=quintic.metric, potential=quintic.potential),
             pt, None, [("compute_R", 3, None)]),
        )
        for model, point, mode, route in cases:
            calls.clear()
            frame, r = frame_and_R(model, point, CTX, 3, mode=mode)
            assert calls == route
            assert r.order == 3 and r.frame is frame and r.gauge is None
        gauge = [[Fraction(1, 3)], [Fraction(1, 5)]]
        _, twisted = frame_and_R(quintic, pt, CTX, 3, mode="constants", gauge=gauge)
        assert twisted.gauge == gauge


class TestValidation:
    def test_genus_below_two_rejected(self):
        model = two_primary_model(Fraction(1, 2))
        with pytest.raises(ValueError):
            genus_potential(model, (Fraction(0), Fraction(1, 2)), 1, CTX)
        data = synthetic_data(2, 2, seed=5)
        with pytest.raises(ValueError):
            wick_oracle(data, 1)

    def test_insufficient_edge_order_rejected(self):
        # a genus-1 loop needs joint order 2; cutoff 1 cannot serve it
        data = synthetic_data(1, 2, seed=6)
        starved = EdgeTailData(
            dimension=1,
            delta=data.delta,
            sqrt_delta=data.sqrt_delta,
            v={k: v for k, v in data.v.items() if k[2] + k[3] <= 1},
            t=data.t,
            v_cutoff=1,
            t_cutoff=data.t_cutoff,
        )
        # the genus-1 loop skeleton stops the sum
        with pytest.raises(ValueError, match="known to order 1, need 2"):
            graph_sum(starved, 2)

    @pytest.mark.parametrize("route", [graph_sum, wick_oracle])
    def test_short_data_rejected_by_both_routes(self, route):
        # R of order 3 serves genus 2; at genus 3 its V and T stop short,
        # and read as zeros they give F^3 = -0.0169 where it is 0.000825
        model = two_primary_model(Fraction(1, 2))
        point = (Fraction(1, 3), Fraction(2, 5))
        _, r = frame_and_R(model, point, CTX, 3)
        with pytest.raises(ValueError, match="edge coefficients known to order 2, need 5"):
            route(edge_tail_data(r), 3)
        # V in full, T one order short
        _, r = frame_and_R(model, point, CTX, 6)
        data = edge_tail_data(r)
        short = replace(data, t=[{k: x for k, x in t.items() if k < 7} for t in data.t], t_cutoff=6)
        with pytest.raises(ValueError, match="tail coefficients known to order 6, need 7"):
            route(short, 3)
        # the data in full passes
        assert route(data, 3)


class TestGenusOne:
    def test_exponential_model_anchor(self):
        # d F^1 = (0, -1/24) everywhere for the d = 1 model
        model = two_primary_model(Fraction(1))
        comps = genus1_one_form(model, (Fraction(0), Fraction(0)), CTX)
        with CTX.guard():
            assert mpmath.fabs(comps[0]) < TIGHT
            assert mpmath.fabs(comps[1] + CTX.num(Fraction(1, 24))) < TIGHT

    @settings(max_examples=12, deadline=None, database=None)
    @given(
        d=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2),
                           Fraction(5, 3), None, "sum"]),
        t0=st.integers(-21, 21),
        t1=st.integers(8, 24),
        sign=st.sampled_from([1, -1]),
        t2=st.integers(7, 21),
        draw=st.data(),
    )
    def test_one_form_matches_jet_recursion(self, d, t0, t1, sign, t2, draw):
        # d = None draws the cusp, in the box the benchmark draws from, and
        # "sum" the direct sum, whose R_1 comes from the jet recursion on
        # both sides; the oracle differentiates Delta on the jets of a frame
        # with its branches drawn in another order and with other signs
        point = (Fraction(t0, 21), sign * Fraction(t1, 24))
        if d is None:
            model, point = threefold_cusp_model(), point + (-Fraction(t2, 21),)
        elif d == "sum":
            model, point = direct_sum_model(), point + (Fraction(t2, 21),)
        else:
            model = two_primary_model(d)
        n = model.dimension
        frame = canonical_frame(
            model, point, CTX, order=1,
            permutation=draw.draw(st.permutations(range(n))),
            sign_flips=draw.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)),
        )
        r = rmatrix.compute_R(frame, 1) if d == "sum" else oracles.jet_R_conformal(frame, 1)
        reference = oracles.genus1_differential_jets(frame, edge_tail_data(r))
        comps = genus1_one_form(model, point, CTX)
        with CTX.guard():
            for got, want in zip(comps, reference):
                assert mpmath.fabs(got - want) <= mpmath.mpf("1e-70") * max(1, mpmath.fabs(want))

    def test_point_model_vanishes(self):
        comps = genus1_one_form(point_model(), (Fraction(1, 5),), CTX)
        assert comps[0] == 0

    def test_closed_two_primary(self):
        model = two_primary_model(Fraction(1, 2))
        res = genus1_closedness_residual(model, (Fraction(1, 3), Fraction(2, 5)), CTX)
        assert res < mpmath.mpf("1e-40")

    def test_closed_cusp(self):
        res = genus1_closedness_residual(
            threefold_cusp_model(), (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)), CTX
        )
        assert res < mpmath.mpf("1e-40")

    def test_quadrature_difference(self):
        model = two_primary_model(Fraction(1))
        a = (Fraction(1, 3), Fraction(2, 5))
        b = (Fraction(1, 3), Fraction(1, 2))
        q = genus1_difference_quadrature(model, a, b, CTX)
        with CTX.guard():
            expect = -(CTX.num(b[1]) - CTX.num(a[1])) / 24
            assert mpmath.fabs(q - expect) < mpmath.mpf("1e-12")


class TestProjectiveSpaceGenusOne:
    """dF^1 of QH(P^2) and QH(P^3) at t = t0 1 + t1 H, exactly: the first
    checks of the off-diagonal R_1 sum at N >= 3 with a nonzero answer."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t0, t1", [(Fraction(1, 3), Fraction(-2, 5)), (0, Fraction(1, 7))])
    def test_degree_zero_value(self, n, t0, t1):
        # dF^1/dt_a = sum_d q^d <H^a, H, .., H>_{1,d}.  With m insertions of
        # H the virtual dimension of M_{1,m+1}(P^n, d) is (n+1)d + m + 1 and
        # the insertions have degree a + m, so only d = 0 with a = 1
        # survives.  There the divisor equation removes the H's, and
        # <H>_{1,0} = -(1/24) int H c_{n-1}(P^n), where c(P^n) = (1 + H)^{n+1}
        # gives c_{n-1} = binom(n+1, n-1) H^{n-1}: -3/24 on P^2, -6/24 on P^3.
        want = [0] * (n + 1)
        want[1] = -Fraction(comb(n + 1, n - 1), 24)
        comps = genus1_one_form(projective_space(n), (t0, t1) + (0,) * (n - 1), CTX)
        with CTX.guard():
            for got, value in zip(comps, want):
                assert mpmath.fabs(got - CTX.num(value)) <= mpmath.mpf("1e-70")

class TestProjectiveSpaceHigherGenus:
    """F^2 and F^3 of QH(P^3) at t = t0 1 + t1 H through the graph sum: the
    first nonzero exact gates at N = 4.  On H^0 + H^2 only degree 0
    contributes, so F_g is the constant (-1)^g/2 int_X (c_3 - c_1 c_2)
    int_{M_g} lambda_{g-1}^3 (Getzler-Pandharipande 1998; Faber-Pandharipande,
    Invent. Math. 2000), with int lambda_{g-1}^3 = |B_2g| |B_{2g-2}| /
    (2g (2g - 2) (2g - 2)!)."""

    @staticmethod
    def degree_zero_value(g):
        # c(P^3) = (1 + H)^4, so int (c_3 - c_1 c_2) = 4 - 4 * 6 = -20
        c = [comb(4, k) for k in range(4)]
        chern = c[3] - c[1] * c[2]
        b = rmatrix.bernoulli_numbers(2 * g)
        hodge = abs(b[2 * g]) * abs(b[2 * g - 2]) / (2 * g * (2 * g - 2) * factorial(2 * g - 2))
        return Fraction((-1) ** g, 2) * chern * hodge

    def test_values(self):
        assert self.degree_zero_value(2) == Fraction(-1, 288)
        assert self.degree_zero_value(3) == Fraction(1, 72576)

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("t0, t1", [(Fraction(1, 3), Fraction(-2, 5)), (0, Fraction(1, 7))])
    def test_degree_zero_value(self, g, t0, t1):
        rep = genus_potential(projective_space(3), (t0, t1, 0, 0), g, CTX)
        want = self.degree_zero_value(g)
        assert rel_err(rep.value, CTX.num(want)) <= mpmath.mpf("1e-70")


class TestGenusOneFrames:
    """Genus 1 builds its frames through ``frame_and_R`` (the
    ``genus.canonical_frame`` binding), which decides the frame order R
    needs: order 0 on conformal models, jets only where R_1 comes from the
    jet recursion."""

    @pytest.fixture
    def orders(self, monkeypatch):
        seen = []
        build = genus_module.canonical_frame

        def spy(model, point, ctx, order=0, **options):
            seen.append(order)
            return build(model, point, ctx, order=order, **options)

        monkeypatch.setattr(genus_module, "canonical_frame", spy)
        return seen

    @pytest.mark.parametrize("model, point, tau, direction", [
        (two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5)),
         ((Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 32), Fraction(1, 16))),
         ((Fraction(1, 16), Fraction(-1, 8)), (Fraction(1, 64), Fraction(1, 32)))),
        (threefold_cusp_model(), (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)),
         ((Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)), (Fraction(1, 16), 0, Fraction(1, 32))),
         ((1, Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 8), 0))),
    ])
    def test_conformal_models_build_order_zero_frames(self, orders, model, point, tau, direction):
        calibration = compute_calibration(model, order=3)
        for run in (
            lambda: genus1_one_form(model, point, CTX),
            lambda: genus1_closedness_residual(model, point, CTX),
            lambda: genus1_descendent_routes(
                model, calibration, CurvePoint(tau), CurvePoint(direction), CTX
            ),
        ):
            orders.clear()
            run()
            assert orders and set(orders) == {0}

    def test_direct_sum_builds_jets(self, orders):
        genus1_one_form(direct_sum_model(), (Fraction(2, 7), Fraction(3, 5), Fraction(1, 3)), CTX)
        assert orders == [1]

class TestFrameChoiceInvariance:
    @pytest.mark.parametrize("permutation", [(1, 0)])
    @pytest.mark.parametrize("flips", [(-1, 1), (1, -1), (-1, -1)])
    def test_genus2_two_primary(self, permutation, flips):
        model = two_primary_model(Fraction(1, 2))
        pt = (Fraction(2, 7), Fraction(3, 5))
        base = genus_potential(model, pt, 2, CTX)
        other = genus_potential(
            model, pt, 2, CTX, permutation=permutation, sign_flips=flips
        )
        assert rel_err(other.value, base.value) < TIGHT

    def test_genus3_flip(self):
        model = two_primary_model(Fraction(1, 2))
        pt = (Fraction(2, 7), Fraction(3, 5))
        base = genus_potential(model, pt, 3, CTX)
        other = genus_potential(model, pt, 3, CTX, sign_flips=(-1, 1))
        assert rel_err(other.value, base.value) < TIGHT
