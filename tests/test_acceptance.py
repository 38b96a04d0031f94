"""Acceptance battery: the library's headline guarantees, one test each.

Every criterion gets exactly one test function, numbered in order, so a
verbose run shows one pass/fail line per criterion; each test also prints
a "criterion N: PASS" line with the measured margin when it succeeds.

1. genus-2 closed form on the two-primary conformal family, five sample
   points for each d in {1/3, 1/2, 1, 3/2, 5/3}, relative 1e-25;
2. d = 1/3 vanishing and the d <-> 2-d symmetry of the scaled F^2;
3. string and dilaton identities exact on the psi-intersection table for
   g <= 3, n <= 8, plus spot values;
4. R-matrix unitarity and cross-direction consistency through order 7 at
   ten random semisimple points;
5. stable-graph sum against the operator-exponential (Wick) oracle, exact
   on rational synthetic tables and 1e-28 on the float pipeline;
6. Hodge flow/closed-form identity, exact coefficients on the window;
7. closedness of the genus-1 one-form, and its vanishing on the
   one-dimensional model;
8. descendents: graph formula vs the resummed (Itzykson-Zuber)
   intersection sum on the one-dimensional model, itself pinned to the
   exact rational direct sum at t_0 = t_1 = 0; the two genus-1
   differential routes; and the genus-0 string/dilaton/topological-recursion
   properties;
9. invariance of F^g and the descendent potential under branch
   relabeling and sign flips, and the twist/untwist round trip.
"""

import random
import time
from fractions import Fraction

import mpmath

from genuslift.descendent import (
    CurvePoint,
    compute_calibration,
    descendent_potential,
    point_descendent_resummed,
)
from genuslift.expressions import Expression
from genuslift.frame import canonical_frame
from genuslift.frobenius import FrobeniusModel, point_model, threefold_cusp_model, two_primary_model
from genuslift.genus import (
    genus1_closedness_residual,
    genus1_one_form,
    genus_potential,
    wick_oracle,
)
from genuslift.hodge import HodgeParameters, HodgeTruncation, hodge_lambda, hodge_lemma_residual
from genuslift.intersection import IntersectionTable, psi_intersection
from genuslift.rmatrix import EdgeTailData, compute_R, twist_R, unitarity_residual
from genuslift.scalars import EXACT, FloatContext, from_kernel
from oracles import (
    enumerate_graphs,
    evaluate_graph,
    genus0_descendents,
    genus1_descendent_routes,
    point_descendent_reference,
    two_primary_genus2_reference,
)

CTX = FloatContext(256)

TOL_CLOSED_FORM = mpmath.mpf("1e-25")      # criteria 1, 2, 8a, 8c
TOL_UNITARITY = mpmath.mpf("1e-30")        # criterion 4
TOL_ORACLE = mpmath.mpf("1e-28")           # criteria 5, 9
TOL_ONE_FORM = mpmath.mpf("1e-20")         # criteria 7, 8b

FAMILY = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 3)]

SAMPLE_POINTS = [
    (Fraction(0), Fraction(1)),
    (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(-1, 3), Fraction(3, 2)),
    (Fraction(1, 2), Fraction(2)),
    (Fraction(1), Fraction(3)),
]


def rel_err(value, reference):
    with CTX.guard():
        return mpmath.fabs(value - reference) / mpmath.fabs(reference)


def scaled_f2(d, point):
    """F^2 * (u_1 - u_0)^3 / Delta_0: point-independent on the family."""
    rep = genus_potential(two_primary_model(d), point, 2, CTX)
    u = rep.frame.u_values()
    delta = rep.frame.delta_values()
    with CTX.guard():
        return rep.value * (u[1] - u[0]) ** 3 / delta[0]


def test_criterion_01_genus2_closed_form():
    worst = mpmath.mpf(0)
    slowest = 0.0
    for d in FAMILY:
        model = two_primary_model(d)
        for point in SAMPLE_POINTS:
            start = time.perf_counter()
            rep = genus_potential(model, point, 2, CTX)
            reference = two_primary_genus2_reference(rep.frame)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            assert elapsed < 60.0
            with CTX.guard():
                if mpmath.fabs(reference) == 0:
                    err = mpmath.fabs(rep.value)
                else:
                    err = rel_err(rep.value, reference)
                worst = max(worst, err)
            assert err < TOL_CLOSED_FORM, f"d={d} point={point}: {err}"
    print(f"criterion 1: PASS - genus-2 closed form at 25 points, "
          f"worst error {mpmath.nstr(worst, 3)}, slowest point {slowest:.2f}s")


def test_criterion_02_vanishing_and_degree_symmetry():
    points = SAMPLE_POINTS[:3]
    with CTX.guard():
        worst = mpmath.mpf(0)
        for point in points:
            worst = max(worst, mpmath.fabs(scaled_f2(Fraction(1, 3), point)))
        assert worst < TOL_CLOSED_FORM
        for d in (Fraction(1, 3), Fraction(1, 2)):
            mirror = 2 - d
            for point in points:
                gap = mpmath.fabs(scaled_f2(d, point) - scaled_f2(mirror, point))
                worst = max(worst, gap)
                assert gap < TOL_CLOSED_FORM, f"d={d} vs {mirror} at {point}: {gap}"
    print(f"criterion 2: PASS - d=1/3 vanishing and d <-> 2-d symmetry, "
          f"worst residual {mpmath.nstr(worst, 3)}")


def _stable(g, n):
    return n >= 3 if g == 0 else n >= 1


def test_criterion_03_intersection_table_identities():
    assert psi_intersection(0, (0, 0, 0)) == 1
    assert psi_intersection(1, (1,)) == Fraction(1, 24)
    assert psi_intersection(2, (4,)) == Fraction(1, 1152)

    def ascending(count, total, minimum=0):
        if count == 0:
            if total == 0:
                yield ()
            return
        for first in range(minimum, total + 1):
            if first * count > total:
                break
            for rest in ascending(count - 1, total - first, first):
                yield (first,) + rest

    string_checks = dilaton_checks = 0
    for g in range(4):
        for n in range(1, 9):
            if not _stable(g, n):
                continue
            total = 3 * g - 3 + n
            if total < 0:
                continue
            for ks in ascending(n, total):
                value = psi_intersection(g, ks)
                if ks[0] == 0 and _stable(g, n - 1):
                    rest = ks[1:]
                    expect = sum(
                        (psi_intersection(g, tuple(sorted(rest[:j] + (rest[j] - 1,) + rest[j + 1:])))
                         for j in range(len(rest)) if rest[j] >= 1),
                        Fraction(0),
                    )
                    assert value == expect, f"string fails at g={g}, {ks}"
                    string_checks += 1
                if 1 in ks and _stable(g, n - 1):
                    rest = list(ks)
                    rest.remove(1)
                    expect = (2 * g - 2 + len(rest)) * psi_intersection(g, tuple(rest))
                    assert value == expect, f"dilaton fails at g={g}, {ks}"
                    dilaton_checks += 1
    assert string_checks > 200 and dilaton_checks > 200
    print(f"criterion 3: PASS - string ({string_checks} entries) and dilaton "
          f"({dilaton_checks} entries) exact for g <= 3, n <= 8; spot values exact")


def test_criterion_04_r_matrix_unitarity():
    rng = random.Random(1789)
    worst_unit = worst_cross = mpmath.mpf(0)
    for _ in range(10):
        d = rng.choice(FAMILY)
        point = (Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(1, 24), 8))
        frame = canonical_frame(two_primary_model(d), point, CTX, order=7)
        r = compute_R(frame, 7)
        jets = compute_R(frame, 7, mode="constants")
        with CTX.guard():
            worst_unit = max(worst_unit, mpmath.fabs(unitarity_residual(r)))
            worst_cross = max(worst_cross, mpmath.fabs(jets.cross_residual))
    assert worst_unit < TOL_UNITARITY
    assert worst_cross < TOL_UNITARITY
    print(f"criterion 4: PASS - unitarity {mpmath.nstr(worst_unit, 3)} and "
          f"cross-direction {mpmath.nstr(worst_cross, 3)} through order 7 at 10 points")


def _synthetic_data(n, g, seed):
    rng = random.Random(seed)
    v_cutoff = 3 * g - 3
    t_cutoff = 3 * g - 2

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    sd = [frac() or Fraction(1, 3) for _ in range(n)]
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
        dimension=n, delta=[s * s for s in sd], sqrt_delta=sd, v=v, t=t,
        v_cutoff=v_cutoff, t_cutoff=t_cutoff,
    )


def _direct_sum_model():
    """two-primary(1/2) + point with a shared unit in flat coordinates."""
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
    return FrobeniusModel(dimension=3, metric=metric, potential=pot)


def test_criterion_05_graph_sum_vs_wick_oracle():
    for g in (2, 3):
        for n in (1, 2, 3):
            data = _synthetic_data(n, g, seed=59 * g + n)
            total = 0
            for graph in enumerate_graphs(g, n):
                total = total + evaluate_graph(graph, data)
            assert isinstance(total, Fraction)
            assert total == wick_oracle(data, g), f"exact mismatch at g={g}, N={n}"

    worst = mpmath.mpf(0)
    with CTX.guard():
        for g in (2, 3):
            rep = genus_potential(
                two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), g, CTX
            )
            worst = max(worst, rel_err(wick_oracle(rep.data, g), rep.value))
            summed = genus_potential(
                _direct_sum_model(), (Fraction(2, 7), Fraction(3, 5), Fraction(1, 3)), g, CTX
            )
            worst = max(worst, rel_err(wick_oracle(summed.data, g), summed.value))
        cusp = genus_potential(
            threefold_cusp_model(), (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)), 2, CTX
        )
        worst = max(worst, mpmath.fabs(wick_oracle(cusp.data, 2) - cusp.value))
    assert worst < TOL_ORACLE
    print(f"criterion 5: PASS - graph sum equals Wick oracle exactly on rational "
          f"tables (g=2,3, N<=3) and to {mpmath.nstr(worst, 3)} on the float pipeline")


def test_criterion_06_hodge_lemma():
    s = HodgeParameters((1, 1))
    truncation = HodgeTruncation(genus_max=2, q_degree=4)
    residual = hodge_lemma_residual(s, truncation)
    assert not residual.c, f"{len(residual.c)} nonzero residual coefficients"
    ll = hodge_lambda(s, truncation)
    q_exps = [0] * (truncation.resolved_index + 1)
    q_exps[0] = 1
    key = (0,) + tuple(q_exps) + (1, 0)
    assert ll.c[key] == Fraction(1, 24)
    print("criterion 6: PASS - Hodge flow and closed form agree exactly on the "
          "genus <= 2, Q-degree <= 4 window; [h^0 s_1 Q_0] = 1/24")


def test_criterion_07_genus1_one_form():
    worst = mpmath.mpf(0)
    for d, point in (
        (Fraction(1, 2), (Fraction(1, 4), Fraction(2, 3))),
        (Fraction(1), (Fraction(0), Fraction(1, 4))),
    ):
        residual = genus1_closedness_residual(
            two_primary_model(d), point, CTX, step=Fraction(1, 10**6)
        )
        with CTX.guard():
            worst = max(worst, mpmath.fabs(residual))
        assert residual < TOL_ONE_FORM, f"d={d}: curl {residual}"
    components = genus1_one_form(point_model(), (Fraction(1, 3),), CTX)
    with CTX.guard():
        trivial = CTX.max_abs(components)
    assert trivial < mpmath.mpf("1e-70")
    print(f"criterion 7: PASS - one-form curl {mpmath.nstr(worst, 3)} on the "
          f"two-primary family; one-dimensional model gives {mpmath.nstr(trivial, 3)}")


def test_criterion_08_descendents():
    # (a) graph formula vs the resummed intersection sum, 20 random curve points
    rng = random.Random(2710)
    table = IntersectionTable()
    # the resummed reference is exact: at t_0 = t_1 = 0 it meets the finite
    # rational direct sum
    exact_tau = CurvePoint(((0,), (0,), (Fraction(102, 1024),), (Fraction(-77, 1024),),
                            (Fraction(51, 1024),), (Fraction(-26, 1024),)))
    exact = point_descendent_reference(exact_tau, 2, EXACT, table=table)
    with CTX.guard():
        exact_gap = mpmath.fabs(
            point_descendent_resummed(exact_tau, 2, CTX) - CTX.num(exact)
        )
    assert exact_gap < mpmath.mpf("1e-70")
    model = point_model()
    calibration = compute_calibration(model, order=11)
    worst_a = mpmath.mpf(0)
    for _ in range(20):
        tau = CurvePoint(
            tuple((Fraction(rng.randint(-102, 102), 1024),) for _ in range(6))
        )
        rep = descendent_potential(model, calibration, tau, 2, CTX)
        resummed = point_descendent_resummed(tau, 2, CTX)
        with CTX.guard():
            gap = mpmath.fabs(rep.value - resummed)
            worst_a = max(worst_a, gap)
        assert gap < TOL_CLOSED_FORM, f"tau={tau.times}: {gap}"

    # (b) the two genus-1 differential routes agree along random directions
    worst_b = mpmath.mpf(0)
    for d, tau_rows, dir_rows in (
        (Fraction(1, 2),
         ((Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 32), Fraction(1, 16)),
          (Fraction(1, 64), Fraction(1, 128))),
         ((Fraction(1, 16), Fraction(-1, 8)), (Fraction(1, 64), Fraction(1, 32)),
          (Fraction(-1, 128), Fraction(1, 256)))),
        (Fraction(1, 3),
         ((Fraction(1, 16), Fraction(1, 8)), (Fraction(1, 64), Fraction(1, 32))),
         ((Fraction(-1, 32), Fraction(1, 16)), (Fraction(1, 128), Fraction(-1, 64)))),
    ):
        family = two_primary_model(d)
        routes = genus1_descendent_routes(
            family, compute_calibration(family, order=7),
            CurvePoint(tau_rows), CurvePoint(dir_rows), CTX,
        )
        with CTX.guard():
            assert mpmath.fabs(routes.curve) > mpmath.mpf("1e-6")  # non-degenerate sample
            worst_b = max(worst_b, mpmath.fabs(routes.difference))
        assert worst_b < TOL_ONE_FORM

    # (c) genus-0 string, dilaton, and topological recursion
    quintic = two_primary_model(Fraction(1, 2))
    quintic_cal = compute_calibration(quintic, order=7)
    quintic_tau = CurvePoint((
        (Fraction(1, 8), Fraction(3, 16)),
        (Fraction(1, 32), Fraction(1, 16)),
        (Fraction(1, 64), Fraction(1, 128)),
    ))
    exp_model = two_primary_model(Fraction(1))
    worst_c = mpmath.mpf(0)
    for m, cal, tau in (
        (quintic, quintic_cal, quintic_tau),
        (exp_model, compute_calibration(exp_model, order=5),
         CurvePoint(((Fraction(1, 8), Fraction(1, 4)), (Fraction(1, 32), Fraction(1, 16)),
                     (Fraction(1, 64), Fraction(0))))),
    ):
        g0 = genus0_descendents(m, cal, tau, CTX)
        n, u = m.dimension, m.unit_index
        with CTX.guard():
            rhs = CTX.num(0)
            t0 = [CTX.num(x) for x in tau.coupling(0)]
            for a in range(n):
                for b in range(n):
                    if m.metric[a][b]:
                        rhs += CTX.num(m.metric[a][b]) * t0[a] * t0[b] / 2
            for k in range(tau.kmax):
                for a in range(n):
                    rhs += CTX.num(tau.coupling(k + 1)[a]) * g0.one_point[k][a]
            worst_c = max(worst_c, mpmath.fabs(g0.one_point[0][u] - rhs))

    g0 = genus0_descendents(quintic, quintic_cal, quintic_tau, CTX)
    with CTX.guard():
        rhs = -2 * g0.value
        for k in range(quintic_tau.kmax + 1):
            for a in range(2):
                rhs += CTX.num(quintic_tau.coupling(k)[a]) * g0.one_point[k][a]
        worst_c = max(worst_c, mpmath.fabs(g0.one_point[1][quintic.unit_index] - rhs))

    stencil = ((1, Fraction(45)), (-1, Fraction(-45)), (2, Fraction(-9)),
               (-2, Fraction(9)), (3, Fraction(1)), (-3, Fraction(-1)))
    step = Fraction(1, 10**6)

    def w_fd(bump_m, bump_a):
        with CTX.guard():
            acc = CTX.num(0)
            for shift, coeff in stencil:
                sample = genus0_descendents(
                    quintic, quintic_cal, quintic_tau.bumped(bump_m, bump_a, shift * step), CTX
                ).two_point[(1, 0)][1][1]
                acc = acc + CTX.num(coeff) * sample
            return acc / (60 * CTX.num(step))

    with CTX.guard():
        lhs = w_fd(2, 0)
        rhs = CTX.num(0)
        ginv = quintic.metric_inverse
        for mu in range(2):
            for nu in range(2):
                if ginv[mu][nu]:
                    rhs += g0.two_point[(1, 0)][0][mu] * CTX.num(ginv[mu][nu]) * w_fd(0, nu)
        worst_c = max(worst_c, mpmath.fabs(lhs - rhs))
    assert worst_c < TOL_CLOSED_FORM

    print(f"criterion 8: PASS - (a) resummed intersection sum vs graph formula "
          f"{mpmath.nstr(worst_a, 3)} over 20 curve points (vs exact direct sum "
          f"{mpmath.nstr(exact_gap, 3)}); (b) genus-1 routes {mpmath.nstr(worst_b, 3)}; "
          f"(c) string/dilaton/recursion {mpmath.nstr(worst_c, 3)}")


def test_criterion_09_invariance():
    worst = mpmath.mpf(0)
    base = genus_potential(
        two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), 2, CTX
    )
    relabeled = genus_potential(
        two_primary_model(Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), 2, CTX,
        permutation=(1, 0), sign_flips=(-1, 1),
    )
    with CTX.guard():
        worst = max(worst, rel_err(relabeled.value, base.value))

    cusp_point = (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3))
    cusp = genus_potential(threefold_cusp_model(), cusp_point, 2, CTX)
    shuffled = genus_potential(
        threefold_cusp_model(), cusp_point, 2, CTX,
        permutation=(2, 0, 1), sign_flips=(-1, 1, -1),
    )
    with CTX.guard():
        worst = max(worst, mpmath.fabs(shuffled.value - cusp.value))

    quintic = two_primary_model(Fraction(1, 2))
    calibration = compute_calibration(quintic, order=7)
    tau = CurvePoint((
        (Fraction(1, 8), Fraction(3, 16)),
        (Fraction(1, 32), Fraction(1, 16)),
        (Fraction(1, 64), Fraction(1, 128)),
    ))
    dbase = descendent_potential(quintic, calibration, tau, 2, CTX)
    dflip = descendent_potential(
        quintic, calibration, tau, 2, CTX, permutation=(1, 0), sign_flips=(-1, 1)
    )
    with CTX.guard():
        worst = max(worst, rel_err(dflip.value, dbase.value))
    assert worst < TOL_ORACLE

    frame = canonical_frame(quintic, (Fraction(2, 7), Fraction(3, 5)), CTX, order=5)
    r = compute_R(frame, 5, mode="constants")
    gauge = ((Fraction(1, 7), Fraction(-1, 3), Fraction(1, 11)),
             (Fraction(-2, 5), Fraction(1, 9), Fraction(0)))
    negated = tuple(tuple(-a for a in row) for row in gauge)
    round_trip = twist_R(twist_R(r, gauge), negated)
    with CTX.guard():
        twist_gap = mpmath.mpf(0)
        for k in range(r.order + 1):
            for i in range(r.dimension):
                for j in range(r.dimension):
                    diff = round_trip.mats[k][i][j] - r.mats[k][i][j]
                    twist_gap = max(twist_gap, mpmath.fabs(from_kernel(diff)))
    assert twist_gap < mpmath.mpf("1e-70")
    print(f"criterion 9: PASS - relabeling/sign-flip invariance {mpmath.nstr(worst, 3)}; "
          f"twist round trip {mpmath.nstr(twist_gap, 3)}")
