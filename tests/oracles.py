"""Reference implementations that the tests compare the library against.

None of these is on the pipeline's path; each recomputes a quantity the
library produces by another route:

* ``genus0_descendents``: the genus-0 descendent potential
  F0(tau) = (1/2) <tau(c) - c, tau(c) - c>'(t(tau)) with its one- and
  two-point tables at the library's critical point; the two-point
  functions W_{ml} are the quotient of ``rmatrix._divide`` on
  N_ab = S_a^T g S_b.  The library's descendent potential starts at
  genus 2;
* ``calibration_unitarity_residual``: the remainder of that division,
  the unitarity residual of the calibration S*(-1/z) S(1/z) = 1, which
  the library does not compute;
* the formal regime: the critical point and genus-0 descendents with the
  couplings t_m (m >= 1) graded by a nilpotent bookkeeping variable, by
  nilpotent iteration, which is exact on polynomial potentials;
* ``point_descendent_reference``: F^g of the one-dimensional model summed
  straight from the intersection table;
* ``genus1_descendent_routes``: the two genus-1 differentials on the
  curve space along a direction, by sixth-order central differences over
  the library's bold data: the one-form sum_i (V^{ii}_{00}/2 du^i +
  dD_i/(48 D_i)) and the pullback d{F^1(t(tau)) + (1/24) ln det
  [dt/dt_0]}, where [dt/dt_0]^{-1} (``critical_inverse_jacobian``) is
  quantum multiplication by minus the second bracket vector, with
  eigenvalues sqrt(Delta_i / D_i).  The Jacobian evaluates the brackets
  again rather than reading the bold data, so the two routes share no D_i;
* ``genus1_differential_jets``: the genus-1 one-form with dDelta_i read
  off the frame's order-1 jets; the library forms dDelta_i/Delta_i from R_1
  and the frame's values at the point;
* ``genus1_difference_quadrature``: F^1(b) - F^1(a) by quadrature of the
  genus-1 one-form;
* ``two_primary_genus2_reference``: the closed form of F^2 on the
  two-primary conformal family;
* ``skeletons_by_fillings``: the skeletons of genus g by filling every
  labeled adjacency matrix of every vertex-type sequence, with a canonical
  form and automorphisms found by trying every vertex order that keeps the
  colour cells (``least_form_by_orders``); the library generates them by
  one-edge degenerations and searches the orders row by row;
* decorated graphs: ``enumerate_graphs`` lists the stable graphs with a
  canonical index on every vertex, one labeling per automorphism orbit of
  each skeleton, and ``evaluate_graph`` sums one of them edge by edge with
  memoized suffix sums; ``decorated_sum`` gives every graph's contribution.
  The library sums each skeleton over all labelings at once instead;
* ``walk_skeleton_sum``: one skeleton summed over all labelings by a
  numeric walk over its edges with memoized suffix sums, multiplying as it
  goes; the library records the walks of all skeletons of one genus once
  as one program, each product and sum formed once, and replays it on the
  numbers;
* ``vertex_correlator``: a vertex correlator as the operators of its
  numbers form it from the table's memoized tail terms, term by term; the
  library records those sums once as a program and replays it;
* ``direct_vertex_correlator``: a vertex correlator summed over its tail
  legs straight from the intersection table; the library reads the legs
  and their weights from the table's memoized tail terms;
* ``SubsetIntersectionTable``: the psi-intersection table with the KdV
  step summed over every ordered split of the other insertions; the
  library groups the splits by multiplicity;
* ``mpmath_data``: kernel data taken back to mpmath numbers;
* ``evaluate_graph_ordered``: one decorated graph's contribution by a plain
  descent over its half-edge powers, with no sharing between assignments;
* ``wick_oracle_layers``: the Wick expansion of F^g as a capped series
  exponential followed by one propagator layer per order, each scaled by
  1/n!;
* ``replay_by_operators``: a recorded program, of the graph sum, the
  Wick oracle or the vertex correlators, replayed by the operators of the
  data's numbers; the library replays kernel data on integer lanes;
* ``jet_R_conformal``: R of a conformal model by the jet recursion on
  frame jets, its diagonal constants fixed by Euler homogeneity; the
  library solves the conformal R from the order-0 frame alone;
* ``mpc_homogeneous_R`` and ``mpc_edge_tail_data``: R of a conformal
  model by Euler homogeneity, and V, T, Delta and sqrt(Delta) from it, on
  mpmath numbers at working precision; the library runs the same steps on
  fixed-point kernel scalars;
* ``singular_quotient``: a two-variable series divided by z + w as a
  polynomial in w; the library divides by z + w only on tables of
  coefficients (``rmatrix._divide``);
* ``compute_V_series``: the edge coefficients V^{ij}_{kl} by building the
  numerator sum_s R(z)^i_s R(w)^j_s - delta_ij as a two-variable series and
  dividing it by z + w with ``singular_quotient``; its remainder is reported
  as ``"divisibility"``;
* ``frame_invariant_residuals``: the defining identities of a canonical
  frame, checked as jets;
* ``eigenvalues_float``: the eigenvalues of a scalar matrix, as roots of its
  characteristic polynomial;
* ``projector_frame``: the order-0 frame of a conformal model from unseeded
  roots and full Lagrange projector matrices P_i, with du^i_a =
  trace(C_a P_i); the library applies the projectors to the unit vector
  only and reads du from the metric.
* helpers the tests call and the library does not: ``shifted`` (a
  curve-space point moved along a direction), ``series_value`` (a
  truncated series at given displacements), ``t_entry`` (a tail value,
  zero below k = 2), ``derivatives`` (an expression's partial derivatives
  from its jet), ``close`` (a comparison at a context's tolerance),
  ``det`` (a cofactor determinant), and the writers of the documents the
  library reads (``tau_to_json``, ``expression_to_json``,
  ``model_to_json``).

Test modules import it from their own directory (``from oracles import
...``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, islice, permutations, product
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import mpmath

from genuslift.descendent import (
    _NEWTON_STEPS,
    Calibration,
    CurvePoint,
    _brackets,
    _x_vectors,
    critical_point,
    descendent_frame,
)
from genuslift.frame import CanonicalFrame
from genuslift.frobenius import FrobeniusModel
from genuslift.expressions import Expression, _bounded, _multi_indices, t_names
from genuslift.genus import (
    _STENCIL,
    genus1_differential,
    genus1_one_form,
    vertex_program,
    walk_plan,
)
from genuslift.graphs import Skeleton, _cells, _edge_aut, _refined_colors, _rows, skeletons
from genuslift.intersection import (
    _DEFAULT_TABLE,
    IntersectionTable,
    _ascending_tuples,
    _stable,
    psi_intersection,
)
from genuslift.linalg import (
    Matrix,
    charpoly,
    identity,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_vec,
    trace,
    transpose,
)
from genuslift.rmatrix import EdgeTailData, RSeries, _divide, unitarity_residual
from genuslift.scalars import EXACT, Context, FloatContext, format_rational, from_kernel
from genuslift.series import Caps, Key, TruncatedSeries

_EPS = "e"


# -- the calibration's unitarity -------------------------------------------------


def calibration_unitarity_residual(calibration: Calibration, point, ctx: FloatContext):
    """max_k |coefficient of z^{-k} in S*(-1/z) S(1/z) - 1| at a point,
    S* = g^{-1} S^T g.  That coefficient is (-1)^k g^{-1} times the z^k
    remainder of the division of N(x, y) - g by x + y, N_ab = S_a^T g S_b
    = S_a^T (S_b^T g)^T (``rmatrix._divide``), in x = 1/z and y = 1/w."""
    model = calibration.model
    with ctx.guard():
        svals = calibration.s_values(point, ctx)
        g = [[ctx.num(x) for x in row] for row in model.metric]
        ginv = [[ctx.num(x) for x in row] for row in model.metric_inverse]
        left = [transpose(s) for s in svals]
        right = [transpose(mat_mul(g, s)) for s in svals]
        _, remainders = _divide(left, right, calibration.order, -1, g)
        return ctx.max_abs(x for rem in remainders for row in mat_mul(ginv, rem) for x in row)


# -- genus-0 descendents -------------------------------------------------------


def _two_point_tables(svals, gmat, kmax: int) -> Dict[Tuple[int, int], list]:
    """W_{ml} for m, l <= ``kmax``: the coefficient of z^{-m-1} w^{-l-1} in
    [S^T(1/z) g S(1/w) - g]/(z + w).  In x = 1/z, y = 1/w that is
    x y [N(x, y) - g]/(x + y) with N_ab = S_a^T g S_b, so W_{ml} is the
    quotient entry Q_{ml} of :func:`rmatrix._divide`, which returns it
    times (-1)^{m+l}.

    Ring-generic: entries may be floats or truncated series."""
    order = 2 * kmax + 1
    # N_ab = S_a^T g S_b = S_a^T (S_b^T g)^T
    left = [transpose(s) for s in svals[: order + 1]]
    right = [transpose(mat_mul(gmat, s)) for s in svals[: order + 1]]
    quotient, _ = _divide(left, right, order, 2 * kmax, gmat)
    n = len(gmat)
    tables = {}
    for m in range(kmax + 1):
        for l in range(kmax + 1):
            mat = [[quotient.get((i, j, m, l), 0) for j in range(n)] for i in range(n)]
            tables[(m, l)] = mat if (m + l) % 2 == 0 else mat_scale(mat, -1)
    return tables


def _genus0_assembly(tables, xvecs, kmax: int, half):
    """(value, one-point list) from the two-point tables; ``half`` is 1/2 in
    the working ring."""
    n = len(xvecs[0])
    one_point = []
    for m in range(kmax + 1):
        comp = []
        for alpha in range(n):
            acc = None
            for l in range(kmax + 1):
                row = tables[(m, l)][alpha]
                for beta in range(n):
                    term = row[beta] * xvecs[l][beta]
                    acc = term if acc is None else acc + term
            comp.append(acc)
        one_point.append(comp)
    value = None
    for m in range(kmax + 1):
        for alpha in range(n):
            term = xvecs[m][alpha] * one_point[m][alpha]
            value = term if value is None else value + term
    return value * half, one_point


@dataclass
class Genus0Descendents:
    """F0 with its derivative tables at the critical point.

    ``one_point[m][alpha]`` is dF0/dt_m^alpha and ``two_point[(m, l)]`` the
    matrix of second derivatives; per the two-point reconstruction both
    depend on tau only through the critical point."""

    critical: tuple
    value: object
    one_point: List[list]
    two_point: Dict[Tuple[int, int], list]


def genus0_descendents(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    ctx: FloatContext,
    *,
    critical=None,
) -> Genus0Descendents:
    """Genus-0 descendent potential and correlator tables at t(tau).

    Needs the calibration through order 2 max(Kmax, 1) + 1: the two-point
    expansion pairs z- and w-coefficients across the full coupling window,
    and the -c of tau(c) - c occupies level 1 even with no couplings."""
    kk = max(tau.kmax, 1)
    if calibration.order < 2 * kk + 1:
        raise ValueError(
            f"two-point tables need calibration order {2 * kk + 1}, have {calibration.order}"
        )
    if critical is None:
        critical = critical_point(model, calibration, tau, ctx)
    with ctx.guard():
        svals = calibration.s_values(critical, ctx, order=2 * kk + 1)
        gmat = [[ctx.num(x) for x in row] for row in model.metric]
        xvecs = _x_vectors(tau, model.unit_index, ctx.num)
        tables = _two_point_tables(svals, gmat, kk)
        value, one_point = _genus0_assembly(tables, xvecs, kk, ctx.num(Fraction(1, 2)))
    return Genus0Descendents(
        critical=tuple(critical), value=value, one_point=one_point, two_point=tables
    )


# -- the formal regime ---------------------------------------------------------


def _formal_caps(order: int) -> Caps:
    return Caps.total((_EPS,), order)


def _entry_series(jets, devs, caps: Caps) -> TruncatedSeries:
    """Compose a cached t-jet with deviation series of positive valuation."""
    out = TruncatedSeries.zero(caps)
    powers = [{0: TruncatedSeries.const(caps, Fraction(1))} for _ in devs]

    def power(a, k):
        if k not in powers[a]:
            powers[a][k] = power(a, k - 1) * devs[a]
        return powers[a][k]

    for key, coeff in jets.items():
        term = TruncatedSeries.const(caps, coeff)
        for a, k in enumerate(key):
            if k:
                term = term * power(a, k)
        out = out + term
    return out


class _FormalEvaluator:
    """Evaluates calibration matrices at a series-valued point by composing
    exact t-jets taken at the rational center."""

    def __init__(self, calibration: Calibration, center, order: int):
        self.n = calibration.dimension
        self.center = tuple(Fraction(x) for x in center)
        self.order = order
        self.caps = _formal_caps(order)
        self.calibration = calibration
        self._jets: Dict[Tuple[int, int, int], Dict] = {}

    def _jet(self, k: int, i: int, j: int) -> Dict:
        key = (k, i, j)
        if key not in self._jets:
            series = self.calibration.s[k - 1][i][j].jet(self.center, self.order, EXACT)
            self._jets[key] = dict(series.c)
        return self._jets[key]

    def matrices(self, point_series, order: int) -> list:
        devs = [p - TruncatedSeries.const(self.caps, c) for p, c in zip(point_series, self.center)]
        one = TruncatedSeries.const(self.caps, Fraction(1))
        zero = TruncatedSeries.zero(self.caps)
        out = [identity(self.n, one, zero)]
        for k in range(1, order + 1):
            out.append(
                [
                    [_entry_series(self._jet(k, i, j), devs, self.caps) for j in range(self.n)]
                    for i in range(self.n)
                ]
            )
        return out


def critical_point_formal(
    model: FrobeniusModel, calibration: Calibration, tau: CurvePoint, order: int
) -> tuple:
    """Critical point with couplings t_m (m >= 1) graded by a nilpotent
    bookkeeping variable, as a tuple of truncated series.

    The fixed-point map gains one order of valuation per pass, so ``order``
    iterations land on the exact solution in the truncated ring.  Exact
    arithmetic throughout; restricted to polynomial potentials with rational
    data (a transcendental jet raises)."""
    n = model.dimension
    kmax = tau.kmax
    if kmax > calibration.order:
        raise ValueError(
            f"calibration order {calibration.order} too small for couplings up to c^{kmax}"
        )
    caps = _formal_caps(order)
    t0 = tuple(Fraction(x) for x in tau.coupling(0))
    eps = TruncatedSeries.var(caps, _EPS)
    couplings = [
        [TruncatedSeries.const(caps, Fraction(x)) * eps for x in tau.coupling(m)]
        for m in range(kmax + 1)
    ]
    live = [m for m in range(1, kmax + 1) if any(tau.coupling(m))]
    evaluator = _FormalEvaluator(calibration, t0, order)
    t = [TruncatedSeries.const(caps, c) for c in t0]
    for _ in range(order):
        svals = evaluator.matrices(t, kmax) if live else None
        nxt = [TruncatedSeries.const(caps, c) for c in t0]
        for m in live:
            sm = svals[m]
            for a in range(n):
                for b in range(n):
                    nxt[a] = nxt[a] + sm[a][b] * couplings[m][b]
        t = nxt
    if live:
        svals = evaluator.matrices(t, kmax)
        for a in range(n):
            check = TruncatedSeries.const(caps, t0[a]) - t[a]
            for m in live:
                for b in range(n):
                    check = check + svals[m][a][b] * couplings[m][b]
            if check.c:
                raise ArithmeticError("formal fixed point failed to stabilize")
    return tuple(t)


def critical_point_reference(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    ctx: FloatContext,
) -> tuple:
    """Newton solve of t = t_0 + sum_{m>=1} S_m(t) t_m, seeded at t_0, until
    the residual is at most 2^(40 - bits), on mpmath numbers at working
    precision; it returns the iterate whose residual passed the test.

    The Jacobian is 1 - (quantum multiplication by sum_m S_{m-1}(t) t_m), so
    each step costs one calibration evaluation and one N x N solve.  With
    all higher couplings zero the seed is already exact."""
    n = model.dimension
    if tau.dimension != n:
        raise ValueError("curve-space point dimension mismatch")
    kmax = tau.kmax
    if kmax > calibration.order:
        raise ValueError(
            f"calibration order {calibration.order} too small for couplings up to c^{kmax}"
        )
    with ctx.guard():
        tol = ctx.noise_floor(40)
        t0 = [ctx.num(x) for x in tau.coupling(0)]
        couplings = [[ctx.num(x) for x in tau.coupling(m)] for m in range(kmax + 1)]
        live = [m for m in range(1, kmax + 1) if any(x != 0 for x in couplings[m])]
        t = list(t0)
        rmax = None
        for _ in range(_NEWTON_STEPS):
            svals = calibration.s_values(t, ctx, order=kmax) if live else None
            res = list(t)
            for a in range(n):
                res[a] = res[a] - t0[a]
            for m in live:
                sm = svals[m]
                for a in range(n):
                    acc = res[a]
                    for b in range(n):
                        acc = acc - sm[a][b] * couplings[m][b]
                    res[a] = acc
            rmax = ctx.max_abs(res)
            if rmax <= tol:
                return tuple(t)
            w = [ctx.num(0)] * n
            for m in live:
                sm = svals[m - 1]
                for a in range(n):
                    acc = w[a]
                    for b in range(n):
                        acc = acc + sm[a][b] * couplings[m][b]
                    w[a] = acc
            cmats = model.structure_constants(t, ctx)
            jac = [
                [
                    (1 if i == j else 0) - sum(w[mu] * cmats[mu][i][j] for mu in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            step = mat_vec(mat_inv(jac, ctx), res)
            t = [t[a] - step[a] for a in range(n)]
        raise ArithmeticError(
            f"critical point Newton stalled after {_NEWTON_STEPS} iterations; "
            f"residual {mpmath.nstr(rmax, 8)}"
        )


def genus0_formal(
    model: FrobeniusModel, calibration: Calibration, tau: CurvePoint, order: int
) -> Genus0Descendents:
    """Exact epsilon-graded genus-0 descendents; same assembly as the
    numeric path, run over the truncated series ring."""
    kk = max(tau.kmax, 1)
    if calibration.order < 2 * kk + 1:
        raise ValueError(
            f"two-point tables need calibration order {2 * kk + 1}, have {calibration.order}"
        )
    critical = critical_point_formal(model, calibration, tau, order)
    caps = _formal_caps(order)
    eps = TruncatedSeries.var(caps, _EPS)
    evaluator = _FormalEvaluator(calibration, tau.coupling(0), order)
    svals = evaluator.matrices(list(critical), 2 * kk + 1)
    gmat = [
        [TruncatedSeries.const(caps, Fraction(x)) for x in row] for row in model.metric
    ]
    one = TruncatedSeries.const(caps, Fraction(1))
    xvecs = []
    for m in range(kk + 1):
        row = [TruncatedSeries.const(caps, Fraction(x)) for x in tau.coupling(m)]
        if m >= 1:
            row = [x * eps for x in row]
        if m == 1:
            row[model.unit_index] = row[model.unit_index] - one
        xvecs.append(row)
    tables = _two_point_tables(svals, gmat, kk)
    value, one_point = _genus0_assembly(tables, xvecs, kk, Fraction(1, 2))
    return Genus0Descendents(
        critical=critical, value=value, one_point=one_point, two_point=tables
    )


# -- one-dimensional reference ---------------------------------------------------


def point_descendent_reference(
    tau: CurvePoint,
    g: int,
    ctx: Context,
    *,
    table: Optional[IntersectionTable] = None,
    max_points: Optional[int] = None,
):
    """F^g(tau) for the one-dimensional model summed straight from the
    intersection table: sum over n of (1/n!) <tau_{k_1}...tau_{k_n}>_g
    prod t_{k_i}.

    With t_0 = t_1 = 0 the dimension constraint caps n at 3g - 3 and the
    sum is finite and exact (``EXACT`` keeps rationals).  Otherwise pass
    ``max_points``: the series is infinite and its truncation error is not
    bounded -- it shrinks only for small couplings, and slowly (at
    |t_k| ~ 0.1 a 28-insertion sum is still ~1e-24 off while costing
    seconds).  For nonzero t_0 or t_1 use the finite resummed form
    ``genuslift.descendent.point_descendent_resummed``."""
    if tau.dimension != 1:
        raise ValueError("the direct sum is for the one-dimensional model")
    if g < 2:
        raise ValueError("the direct reference starts at genus 2")
    times = [row[0] for row in tau.times]
    if max_points is None:
        if len(times) > 0 and times[0] != 0 or len(times) > 1 and times[1] != 0:
            raise ValueError(
                "nonzero t_0 or t_1 makes the sum infinite; pass max_points"
            )
        max_points = 3 * g - 3
    times = [ctx.num(x) for x in times]
    one = ctx.num(1)
    total = one * 0
    live = [k for k, x in enumerate(times) if x != 0]
    if not live:
        return total
    top = max(live)
    # a table of the caller's own, or the process table
    value = psi_intersection if table is None else table.value
    ks: list = []

    def descend(pos, remaining, minimum, weight):
        nonlocal total
        if pos == 0:
            if remaining == 0:
                total = total + weight * value(g, tuple(ks))
            return
        for k in live:
            if k < minimum or k > remaining or remaining - k > (pos - 1) * top:
                continue
            ks.append(k)
            descend(pos - 1, remaining - k, k, weight * times[k] / ks.count(k))
            ks.pop()

    with ctx.guard():
        for n in range(1, max_points + 1):
            descend(n, 3 * g - 3 + n, 0, one)
    return total


# -- the genus-1 descendent routes --------------------------------------------------


def det(a: Matrix):
    """Determinant by cofactor expansion along the first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def critical_inverse_jacobian(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    ctx: FloatContext,
    *,
    critical=None,
) -> list:
    """[dt/dt_0]^{-1} at the critical point.

    Differentiating the criticality condition shows this is quantum
    multiplication by -b_1, so its eigenvalues in the idempotent frame are
    sqrt(Delta_i / D_i) and its determinant is their product."""
    n = model.dimension
    if critical is None:
        critical = critical_point(model, calibration, tau, ctx)
    with ctx.guard():
        b1 = _brackets(model, calibration, critical, tau, ctx)[1]
        cmats = model.structure_constants(critical, ctx)
        return [
            [-sum(b1[mu] * cmats[mu][i][j] for mu in range(n)) for j in range(n)]
            for i in range(n)
        ]


@dataclass
class Genus1Routes:
    """The two faces of dF^1 on the curve space, as directional derivatives.

    ``curve`` sums V^{ii}_{00}/2 du^i + dD_i/(48 D_i) over the idempotent
    directions; ``pullback`` differentiates F^1(t(tau)) + (1/24) ln det
    [dt/dt_0] through the critical point.  Agreement is the genus-1 content
    of the descendent proposal."""

    curve: object
    pullback: object

    @property
    def difference(self):
        return self.curve - self.pullback


def genus1_descendent_routes(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    direction: CurvePoint,
    ctx: FloatContext,
    *,
    step: Fraction = Fraction(1, 10**6),
) -> Genus1Routes:
    """Both genus-1 differentials along ``direction``, by sixth-order
    central differences in the curve-space parameter.

    Rational tau, direction, and step keep every sample's inputs exact; the
    stencil error is O(step^6) against values computed at working
    precision."""
    n = model.dimension
    if step == 0:
        raise ValueError(f"finite-difference step must be nonzero, not {step}")

    center_frame, center = descendent_frame(model, calibration, tau, ctx, order=1)
    with ctx.guard():
        denom = 60 * ctx.num(step)
        samples = {}
        for shift, _ in _STENCIL:
            curve = shifted(tau, direction, shift * step)
            frame, bold = descendent_frame(model, calibration, curve, ctx, order=1)
            jacobian_det = det(
                critical_inverse_jacobian(model, calibration, curve, ctx, critical=frame.point)
            )
            samples[shift] = (
                frame.u_values(),
                [ctx.num(x) for x in bold.delta],
                mpmath.log(jacobian_det),
                frame.point,
            )

        def fd(pick):
            acc = ctx.num(0)
            for shift, coeff in _STENCIL:
                acc = acc + ctx.num(coeff) * pick(samples[shift])
            return acc / denom

        curve_form = ctx.num(0)
        for i in range(n):
            du_i = fd(lambda s, i=i: s[0][i])
            dd_i = fd(lambda s, i=i: s[1][i])
            v00 = ctx.num(center.v_entry(i, i, 0, 0))
            delta_i = ctx.num(center.delta[i])
            curve_form = curve_form + v00 * du_i / 2 + dd_i / (48 * delta_i)

        one_form = genus1_differential(center_frame, center)
        pullback = ctx.num(0)
        for a in range(n):
            dt_a = fd(lambda s, a=a: s[3][a])
            pullback = pullback + one_form[a] * dt_a
        # ln det[dt/dt_0] = -ln det of the inverse Jacobian
        pullback = pullback - fd(lambda s: s[2]) / 24
    return Genus1Routes(curve=curve_form, pullback=pullback)


# -- genus 1 and genus 2 ------------------------------------------------------------


def genus1_differential_jets(frame: CanonicalFrame, data: EdgeTailData) -> list:
    """Components of dF^1 along the flat coordinates dt^alpha, with
    dDelta_i differentiated on the frame's order-1 jets."""
    if frame.order < 1:
        raise ValueError("genus-1 one-form needs frame jets of order >= 1")
    ctx = frame.ctx
    n = frame.dimension
    names = t_names(n)
    with ctx.guard():
        comps = []
        for a in range(n):
            acc = ctx.num(0)
            for i in range(n):
                du_a = frame.du[i][a].constant_term()
                v00 = ctx.num(data.v_entry(i, i, 0, 0))
                delta_const = frame.delta[i].constant_term()
                ddelta_a = frame.delta[i].partial(names[a]).constant_term()
                acc = acc + v00 * du_a / 2 + ddelta_a / (48 * delta_const)
            comps.append(acc)
        return comps


def genus1_difference_quadrature(
    model: FrobeniusModel,
    start,
    end,
    ctx: FloatContext,
) -> object:
    """F^1(end) - F^1(start) by numerical quadrature of dF^1 along the
    straight segment.  Display helper: accuracy is whatever mpmath.quad
    delivers on the sampled one-form, not the library's exact pipeline."""
    n = model.dimension
    with ctx.guard():
        s0 = [ctx.num(x) for x in start]
        s1 = [ctx.num(x) for x in end]
        direction = [b - a for a, b in zip(s0, s1)]

        def integrand(s):
            pt = tuple(a + s * d for a, d in zip(s0, direction))
            comps = genus1_one_form(model, pt, ctx)
            total = ctx.num(0)
            for c, d in zip(comps, direction):
                total = total + c * d
            return total

        return mpmath.quad(integrand, [0, 1])


def two_primary_genus2_reference(frame: CanonicalFrame):
    """Closed form for F^2 on the two-primary conformal family:

        d(3d-1)(d-1)^2(3d-5)(d-2)/2880 * Delta_0 / (u_1 - u_0)^3,

    invariant under branch relabeling (both factors flip sign together)."""
    if frame.model.euler is None:
        raise ValueError("the closed form needs the conformal dimension")
    d = Fraction(frame.model.euler.conformal_dimension)
    poly = d * (3 * d - 1) * (d - 1) ** 2 * (3 * d - 5) * (d - 2)
    ctx = frame.ctx
    with ctx.guard():
        u = frame.u_values()
        delta = frame.delta_values()
        return ctx.num(poly / 2880) * delta[0] / (u[1] - u[0]) ** 3


# -- decorated graphs -----------------------------------------------------------


# -- skeletons by fillings ----------------------------------------------------
#
# The skeleton enumerator the library used before it generated skeletons by
# degeneration: for every sorted sequence of vertex types it fills every
# labeled adjacency matrix with those valences and keeps one per canonical
# form, searched over every vertex order that keeps the colour cells.  It
# shares only the colour refinement with the library.


def _vertex_types(g: int, nv: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Sorted (genus, valence) sequences whose excesses 2 g_v - 2 + val_v
    are >= 1 and add up to 2g - 2."""
    types = sorted(
        (gv, e + 2 - 2 * gv)
        for e in range(1, 2 * g - 1)
        for gv in range(e // 2 + 2)
        if e + 2 - 2 * gv >= (1 if nv > 1 else 0)
    )
    return [
        seq
        for seq in combinations_with_replacement(types, nv)
        if sum(2 * gv - 2 + val for gv, val in seq) == 2 * g - 2
    ]


def _fillings(valences: Sequence[int]) -> Iterator[List[List[int]]]:
    """Symmetric multiplicity matrices with the given valences (a loop
    counts twice); every yielded matrix is the same live object."""
    n = len(valences)
    rem = list(valences)
    adj = [[0] * n for _ in range(n)]

    def row(v):
        if v == n:
            yield adj
            return
        for loops in range(rem[v] // 2 + 1):
            left = rem[v] - 2 * loops
            adj[v][v] = loops
            for part in _bounded(left, rem[v + 1:]):
                for w, m in enumerate(part, v + 1):
                    adj[v][w] = adj[w][v] = m
                    rem[w] -= m
                yield from row(v + 1)
                for w, m in enumerate(part, v + 1):
                    rem[w] += m

    yield from row(0)


def _connected(adj, n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adj[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _orders(cells) -> Iterator[Tuple[int, ...]]:
    """Every vertex order that keeps the cells in place."""
    for parts in product(*(permutations(c) for c in cells)):
        yield sum(parts, ())


def least_form_by_orders(adj, cells):
    """Row-major least adjacency over the vertex orders that keep cells,
    flattened, by trying every such order."""
    return min(
        tuple([adj[a][b] for a in order for b in order]) for order in _orders(cells)
    )


@cache
def skeletons_by_fillings(g: int) -> Tuple[Skeleton, ...]:
    found = {}
    for nv in range(1, 2 * g - 1):
        for types in _vertex_types(g, nv):
            genera = [gv for gv, _ in types]
            for adj in _fillings([val for _, val in types]):
                if not _connected(adj, nv):
                    continue
                colors = _refined_colors(
                    [(genera[v], types[v][1], adj[v][v]) for v in range(nv)], adj, nv
                )
                cells = _cells(colors)
                key = (tuple(genera[v] for v in sum(cells, [])), least_form_by_orders(adj, cells))
                if key not in found:
                    found[key] = _skeleton_by_orders(*key, sorted(colors))
    return tuple(found[k] for k in sorted(found, key=lambda k: (len(k[0]), k)))


def _skeleton_by_orders(genera: Tuple[int, ...], form: Tuple[int, ...], colors) -> Skeleton:
    """The skeleton in canonical vertex order.  ``colors`` are its refined
    vertex colours in that order: ascending, so every cell is a run of
    consecutive vertices, and every automorphism maps each cell to itself."""
    n = len(genera)
    adj = _rows(form, n)
    autos = tuple(
        p
        for p in _orders(_cells(colors))
        if all(adj[p[a]][p[b]] == adj[a][b] for a in range(n) for b in range(a, n))
    )
    return Skeleton(genera=genera, adjacency=adj, automorphisms=autos, edge_aut=_edge_aut(adj, n))


Vertex = Tuple[int, int]  # (genus, canonical index)


@dataclass(frozen=True)
class StableGraph:
    """A connected stable graph with a canonical index on every vertex."""

    genus: int
    vertices: Tuple[Vertex, ...]
    adjacency: Tuple[Tuple[int, ...], ...]  # symmetric multiplicity matrix
    aut: int
    b1: int

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        n = len(self.vertices)
        return sum(self.adjacency[v][w] for v in range(n) for w in range(v, n))

    def valence(self, v: int) -> int:
        row = self.adjacency[v]
        return sum(row) + row[v]

    def edge_list(self) -> List[Tuple[int, int, int]]:
        """(v, w, multiplicity) with v <= w and multiplicity >= 1."""
        n = len(self.vertices)
        return [
            (v, w, self.adjacency[v][w])
            for v in range(n)
            for w in range(v, n)
            if self.adjacency[v][w]
        ]

    def psi_cap(self, v: int) -> int:
        """Largest total psi-power the vertex correlator can absorb."""
        g_v = self.vertices[v][0]
        return 3 * g_v - 3 + self.valence(v)

    def describe(self) -> str:
        verts = " ".join(f"g{g}@{i}" for g, i in self.vertices)
        edges = " ".join(
            (f"{v}-{w}" if v != w else f"loop{v}") + (f"x{m}" if m > 1 else "")
            for v, w, m in self.edge_list()
        )
        return f"[{verts}] {edges or 'no edges'} |Aut|={self.aut}"


def enumerate_graphs(g: int, n_indices: int) -> List[StableGraph]:
    """All isomorphism classes of connected stable graphs of total genus g
    with canonical indices drawn from {0..n_indices-1}, in a deterministic
    order: by vertex count, then sorted (genus, index) vertices, then
    row-major adjacency.

    Built from the memoized skeletons of genus g, one labeling per orbit of
    each skeleton's vertex automorphisms; the decorated tuple is memoized
    per (g, n_indices), and every call returns a fresh list."""
    if g < 2:
        raise ValueError("the graph expansion starts at genus 2")
    if n_indices < 1:
        raise ValueError("need at least one canonical index")
    return list(_decorated(g, n_indices))


def decorations(sk: Skeleton, n_indices: int) -> List[StableGraph]:
    """The decorated graphs with skeleton ``sk``: one labeling per orbit of
    its vertex automorphisms, each stored in the canonical form of
    :func:`enumerate_graphs`.  Their automorphism group is the orbit's
    stabilizer times the edge automorphisms of ``sk``."""
    n = len(sk.genera)
    adj = sk.adjacency
    b1 = sum(adj[v][w] for v in range(n) for w in range(v, n)) - n + 1
    found = []
    for labels in product(range(n_indices), repeat=n):
        images = [tuple(labels[p[v]] for v in range(n)) for p in sk.automorphisms]
        if min(images) != labels:
            continue  # not the least labeling of its orbit
        stab = sum(1 for im in images if im == labels)
        verts = [(sk.genera[v], labels[v]) for v in range(n)]
        cells = _cells(verts)
        found.append(
            StableGraph(
                genus=sum(sk.genera) + b1,
                vertices=tuple(verts[v] for v in sum(cells, [])),
                adjacency=_rows(least_form_by_orders(adj, cells), n),
                aut=stab * sk.edge_aut,
                b1=b1,
            )
        )
    return found


@cache
def _decorated(g: int, n_indices: int) -> Tuple[StableGraph, ...]:
    found = [gr for sk in skeletons(g) for gr in decorations(sk, n_indices)]
    found.sort(key=lambda gr: (len(gr.vertices), gr.vertices, gr.adjacency))
    return tuple(found)


class EdgePlan(NamedTuple):
    """The order in which :func:`evaluate_graph` assigns a graph's edges.

    ``edges`` lists (v, w) once per parallel edge in ``edge_list()`` order;
    ``closes[e]`` are the vertices whose last half-edge is edge e and
    ``still_open[e]`` those with a half-edge at or before e and one after
    it.  ``caps`` are the psi caps and ``reach`` the largest joint budget
    k + l any edge can ask of V."""

    edges: Tuple[Tuple[int, int], ...]
    closes: Tuple[Tuple[int, ...], ...]
    still_open: Tuple[Tuple[int, ...], ...]
    caps: Tuple[int, ...]
    reach: int


@cache
def edge_plan(graph: StableGraph) -> EdgePlan:
    """The :class:`EdgePlan` of ``graph``, built once per graph."""
    edges = tuple((v, w) for v, w, mult in graph.edge_list() for _ in range(mult))
    first, last = {}, {}
    for e, (v, w) in enumerate(edges):
        for x in (v, w):
            first.setdefault(x, e)
            last[x] = e
    caps = tuple(graph.psi_cap(v) for v in range(graph.num_vertices()))
    return EdgePlan(
        edges=edges,
        closes=tuple(
            tuple(x for x in sorted({v, w}) if last[x] == e) for e, (v, w) in enumerate(edges)
        ),
        still_open=tuple(
            tuple(x for x in sorted(last) if first[x] <= e < last[x]) for e in range(len(edges))
        ),
        caps=caps,
        # a loop draws both half-edges from one shared budget
        reach=max((caps[v] if v == w else caps[v] + caps[w] for v, w in edges), default=0),
    )


def evaluate_graph(
    graph: StableGraph,
    data: EdgeTailData,
    ctx: Context = EXACT,
    vertex_cache: Optional[dict] = None,
    edge_weights: Optional[dict] = None,
):
    """Contribution of one decorated graph: the half-edge power sum divided
    by |Aut|.

    The powers are assigned edge by edge in the order of :func:`edge_plan`.
    A vertex is multiplied in as soon as its last half-edge has a power, so
    a vanishing vertex drops every assignment of the later edges; the sum
    over the later edges depends only on the edge reached and the powers
    already at each still-open vertex, and is computed once per such state.

    ``vertex_cache`` maps (g_v, i_v, sorted edge powers) to the vertex
    correlator on ``data``, or to None where it vanishes; ``edge_weights``
    is :func:`edge_weight_rows` of ``data``.  A sum over many graphs passes
    one of each to all of them, so each distinct vertex and edge weight is
    evaluated once; either is built here when not given.  The sum runs on
    the numbers ``data`` holds, so it shares a report's vertex cache with
    the report's data; the result comes back through ``from_kernel``."""
    plan = edge_plan(graph)
    if plan.reach > data.v_cutoff:
        raise ValueError(
            f"edge coefficients known to order {data.v_cutoff}, need {plan.reach}"
        )
    if vertex_cache is None:
        vertex_cache = {}
    edges, closes, still_open = plan.edges, plan.closes, plan.still_open
    n_edges = len(edges)
    index = [i_v for _, i_v in graph.vertices]

    def vertex_value(v, ks):
        g_v, i_v = graph.vertices[v]
        key = (g_v, i_v, tuple(sorted(ks)))
        if key not in vertex_cache:
            val = vertex_correlator(g_v, key[2], data.t[i_v], data.delta[i_v])
            vertex_cache[key] = None if val == 0 else val
        return vertex_cache[key]

    ks_at: List[List[int]] = [[] for _ in index]
    budget = list(plan.caps)
    rests: dict = {}

    def rest(e):
        # sum over the powers of edges e.. of their weights times the
        # vertices they close; None when no term survives
        v, w = edges[e]
        rows = edge_weights[index[v], index[w]]
        closing = closes[e]
        opened = still_open[e] if e + 1 < n_edges else None
        acc = None
        for k in range(budget[v] + 1):
            budget[v] -= k
            ks_at[v].append(k)
            for l, term in rows[k]:
                if l > budget[w]:
                    break
                budget[w] -= l
                ks_at[w].append(l)
                for x in closing:
                    val = vertex_value(x, ks_at[x])
                    if val is None:
                        term = None
                        break
                    term = term * val
                if term is not None and opened is not None:
                    key = (e,) + tuple(tuple(sorted(ks_at[x])) for x in opened)
                    if key in rests:
                        sub = rests[key]
                    else:
                        sub = rests[key] = rest(e + 1)
                    term = None if sub is None else term * sub
                if term is not None:
                    acc = term if acc is None else acc + term
                ks_at[w].pop()
                budget[w] += l
            ks_at[v].pop()
            budget[v] += k
        return acc

    with ctx.guard():
        if edge_weights is None:
            edge_weights = edge_weight_rows(data)
        # a connected graph without edges is a single vertex
        total = rest(0) if n_edges else vertex_value(0, ())
        if total is None:
            return 0
        return from_kernel(total / graph.aut if total else total)


def decorated_sum(
    data: EdgeTailData,
    g: int,
    ctx: Context = EXACT,
    vertex_cache: Optional[dict] = None,
) -> List[Tuple[StableGraph, object]]:
    """Every decorated graph of genus g over ``data.dimension`` indices with
    its :func:`evaluate_graph` contribution, one vertex cache and one edge
    weight table shared by all of them."""
    if vertex_cache is None:
        vertex_cache = {}
    with ctx.guard():
        edge_weights = edge_weight_rows(data)
        return [
            (graph, evaluate_graph(
                graph, data, vertex_cache=vertex_cache, edge_weights=edge_weights
            ))
            for graph in enumerate_graphs(g, data.dimension)
        ]


# -- one skeleton by the numeric walk ----------------------------------------------


def walk_skeleton_sum(
    sk: Skeleton,
    data: EdgeTailData,
    vertex_cache: dict,
    edge_weights: dict,
):
    """Contribution of one skeleton: the sum over every labeling of its
    vertices by the ``data.dimension`` canonical indices and every half-edge
    power assignment, divided by |Aut(skeleton)|.

    By orbit-stabilizer this is the sum of the decorated graphs with this
    skeleton, each over its own |Aut|.  The walk follows
    :func:`walk_plan`: a vertex gets its index when the walk first reaches
    it and is multiplied in once its last half-edge has a power, so a
    vanishing vertex drops every later assignment.  The sum over the later
    edges depends only on the edge reached and the (index, powers) of each
    still-open vertex, and is computed once per such state; labelings that
    differ only at closed vertices share it.

    ``vertex_cache`` maps (g_v, i_v, sorted edge powers) to the vertex
    correlator on ``data``, or to None where it vanishes, and is extended
    here; ``edge_weights`` is :func:`edge_weight_rows` of ``data``."""
    plan = walk_plan(sk)
    caps = plan.caps
    # a loop draws both half-edges from one shared budget
    reach = max((caps[v] if v == w else caps[v] + caps[w] for v, w in plan.edges), default=0)
    if reach > data.v_cutoff:
        raise ValueError(f"edge coefficients known to order {data.v_cutoff}, need {reach}")
    genera = sk.genera
    edges, opens, closes, still_open = plan.edges, plan.opens, plan.closes, plan.still_open
    n_edges = len(edges)
    labels = range(data.dimension)
    index = [0] * len(genera)

    def vertex_value(x, ks):
        i_v = index[x]
        key = (genera[x], i_v, tuple(sorted(ks)))
        if key not in vertex_cache:
            val = vertex_correlator(genera[x], key[2], data.t[i_v], data.delta[i_v])
            vertex_cache[key] = None if val == 0 else val
        return vertex_cache[key]

    ks_at: List[List[int]] = [[] for _ in genera]
    budget = list(plan.caps)
    rests: dict = {}

    def rest(e):
        # sum over the indices first reached at edge e and the powers of
        # edges e.. of their weights times the vertices they close; None
        # when no term survives
        v, w = edges[e]
        fresh = opens[e]
        closing = closes[e]
        opened = still_open[e] if e + 1 < n_edges else None
        acc = None
        for chosen in product(labels, repeat=len(fresh)):
            for x, i in zip(fresh, chosen):
                index[x] = i
            rows = edge_weights[index[v], index[w]]
            for k in range(budget[v] + 1):
                budget[v] -= k
                ks_at[v].append(k)
                for l, term in rows[k]:
                    if l > budget[w]:
                        break
                    budget[w] -= l
                    ks_at[w].append(l)
                    for x in closing:
                        val = vertex_value(x, ks_at[x])
                        if val is None:
                            term = None
                            break
                        term = term * val
                    if term is not None and opened is not None:
                        key = (e,) + tuple((index[x], tuple(sorted(ks_at[x]))) for x in opened)
                        if key in rests:
                            sub = rests[key]
                        else:
                            sub = rests[key] = rest(e + 1)
                        term = None if sub is None else term * sub
                    if term is not None:
                        acc = term if acc is None else acc + term
                    ks_at[w].pop()
                    budget[w] += l
                ks_at[v].pop()
                budget[v] += k
        return acc

    if n_edges:
        total = rest(0)
    else:
        # a connected skeleton without edges is a single vertex
        total = None
        for i in labels:
            index[0] = i
            val = vertex_value(0, ())
            if val is not None:
                total = val if total is None else total + val
    # rest refers to itself: dropping the name frees its memo now, not at
    # the next cyclic collection
    del rest
    if total is None:
        return 0
    return total / sk.aut if total else total


def edge_weight_rows(data: EdgeTailData) -> dict:
    """Edge weights V^{ij}_{kl} sqrt(Delta_i) sqrt(Delta_j) for k + l <=
    ``data.v_cutoff``: (i, j) maps to one row per k of (l, weight) pairs in
    ascending l, with vanishing entries left out."""
    n, cutoff, sd = data.dimension, data.v_cutoff, data.sqrt_delta
    weights = {}
    for i in range(n):
        for j in range(n):
            rows = []
            for k in range(cutoff + 1):
                row = []
                for l in range(cutoff + 1 - k):
                    v = data.v_entry(i, j, k, l)
                    if v != 0:
                        row.append((l, v * sd[i] * sd[j]))
                rows.append(row)
            weights[i, j] = rows
    return weights


def walk_skeleton_values(
    data: EdgeTailData,
    g: int,
    vertex_cache: Optional[dict] = None,
) -> List[Tuple[Skeleton, object]]:
    """Every skeleton of genus g with its :func:`walk_skeleton_sum` on
    ``data``, one vertex cache and one edge weight table shared by all of
    them, in the numbers ``data`` holds."""
    if vertex_cache is None:
        vertex_cache = {}
    edge_weights = edge_weight_rows(data)
    return [
        (sk, walk_skeleton_sum(sk, data, vertex_cache, edge_weights))
        for sk in skeletons(g)
    ]


# -- the vertex correlator by its tail terms and by its direct sum ----------------


def vertex_correlator(g: int, edge_ks: Sequence[int], tails, hbar_delta):
    """Correlator of a single graph vertex: edge insertions tau_{k} plus the
    tail sum, times (hbar*Delta)^(g-1), by the operators of the numbers.

    ``tails`` maps index a >= 2 to the tail value T_a (anything else is
    treated as zero).  Unstable or dimension-starved configurations return
    0 rather than raising, so callers can sum blindly over graphs.  The sum
    runs over ``IntersectionTable.tail_terms`` of the process table in
    their order, skipping a term with a vanishing tail value.  The tails
    and ``hbar_delta`` may be any scalars that add and multiply with
    Fractions: rationals, the kernel scalars of ``scalars``, or mpmath
    numbers, which are summed at the caller's working precision (call it
    inside the context's guard).  The library records these sums once as
    ``genus.vertex_program`` and replays them on the tail values."""
    if isinstance(hbar_delta, int):
        hbar_delta = Fraction(hbar_delta)
    total = Fraction(0)
    for assignment, coeff in _DEFAULT_TABLE.tail_terms(g, tuple(sorted(int(k) for k in edge_ks))):
        tvals = [tails.get(a, 0) for a in assignment]
        if any(v == 0 for v in tvals):
            continue
        for v in tvals:
            coeff = v * coeff
        total = total + coeff
    return total * hbar_delta ** (g - 1)


class SubsetIntersectionTable(IntersectionTable):
    """The psi-intersection table with the KdV step summed over all 2^n
    ordered splits S_1 + S_2 of the other insertions, one subset at a
    time; the library's table groups the splits by multiplicity."""

    @staticmethod
    def _splits(others: Tuple[int, ...]) -> list:
        return [
            (
                tuple(x for t, x in enumerate(others) if mask >> t & 1),
                tuple(x for t, x in enumerate(others) if not mask >> t & 1),
                1,
            )
            for mask in range(1 << len(others))
        ]


def direct_vertex_correlator(
    g: int,
    edge_ks: Sequence[int],
    tails,
    hbar_delta,
    table: Optional[IntersectionTable] = None,
):
    """Correlator of a single graph vertex: edge insertions tau_{k} plus the
    tail sum, times (hbar*Delta)^(g-1).

    ``tails`` maps index a >= 2 to the tail value T_a (anything else is
    treated as zero).  Unstable or dimension-starved configurations return
    0 rather than raising, so callers can sum blindly over graphs.  The
    tails and ``hbar_delta`` may be any scalars that add and multiply with
    Fractions: rationals, the kernel scalars of ``scalars``, or mpmath
    numbers, which are summed at the caller's working precision (call it
    inside the context's guard).
    """
    table = _DEFAULT_TABLE if table is None else table
    edge_ks = tuple(int(k) for k in edge_ks)
    m = len(edge_ks)
    budget = 3 * g - 3 + m - sum(edge_ks)
    if isinstance(hbar_delta, int):
        hbar_delta = Fraction(hbar_delta)
    total = Fraction(0)
    for n in range(0, max(budget, 0) + 1):
        if not _stable(g, m + n):
            continue
        legs = 3 * g - 3 + m + n - sum(edge_ks)
        if legs < 2 * n:
            continue
        for assignment in _ascending_tuples(n, legs, 2):
            tvals = [tails.get(a, 0) for a in assignment]
            if any(v == 0 for v in tvals):
                continue
            corr = table.value(g, edge_ks + assignment)
            if corr == 0:
                continue
            # ascending tuples stand for unordered leg sets: the 1/n! of the
            # exponential collapses to 1/prod(multiplicities!)
            coeff = corr
            seen = {}
            for a in assignment:
                seen[a] = seen.get(a, 0) + 1
            for c in seen.values():
                coeff /= factorial(c)
            for v in tvals:
                coeff = v * coeff
            total = total + coeff
    return total * hbar_delta ** (g - 1)


# -- kernel data on mpmath numbers ---------------------------------------------


def mpmath_data(data: EdgeTailData) -> EdgeTailData:
    """``data`` with every kernel scalar taken back to working precision by
    ``from_kernel``; mpmath and exact data come back unchanged in value."""
    return replace(
        data,
        delta=[from_kernel(x) for x in data.delta],
        sqrt_delta=[from_kernel(x) for x in data.sqrt_delta],
        v={key: from_kernel(x) for key, x in data.v.items()},
        t=[{k: from_kernel(x) for k, x in tails.items()} for tails in data.t],
    )


# -- one graph, leaf by leaf ------------------------------------------------------


def evaluate_graph_ordered(
    graph: StableGraph,
    data: EdgeTailData,
    ctx: Context = EXACT,
    vertex_cache: Optional[dict] = None,
    edge_weights: Optional[dict] = None,
):
    """Contribution of one graph: the half-edge power sum divided by |Aut|,
    summed leaf by leaf with every vertex multiplied in at each leaf.

    ``vertex_cache`` maps (g_v, i_v, sorted edge powers) to the vertex
    correlator on ``data``, or to None where it vanishes; ``edge_weights``
    is :func:`edge_weight_rows` of ``data``.  A sum over many graphs passes
    one of each to all of them, so each distinct vertex and edge weight is
    evaluated once; either is built here when not given."""
    nv = graph.num_vertices()
    edges = []
    for v, w, mult in graph.edge_list():
        edges.extend([(v, w)] * mult)
    budget = [graph.psi_cap(v) for v in range(nv)]
    for v, w in edges:
        # a loop draws both half-edges from one shared budget
        joint = budget[v] if v == w else budget[v] + budget[w]
        if joint > data.v_cutoff:
            raise ValueError(
                f"edge coefficients known to order {data.v_cutoff}, need {joint}"
            )

    if vertex_cache is None:
        vertex_cache = {}

    def vertex_value(v, ks):
        g_v, i_v = graph.vertices[v]
        key = (g_v, i_v, tuple(sorted(ks)))
        if key not in vertex_cache:
            val = vertex_correlator(g_v, key[2], data.t[i_v], data.delta[i_v])
            vertex_cache[key] = None if val == 0 else val
        return vertex_cache[key]

    ks_at: List[List[int]] = [[] for _ in range(nv)]
    total = 0

    def descend(e_idx, weight):
        nonlocal total
        if e_idx == len(edges):
            prod = weight
            for v in range(nv):
                val = vertex_value(v, ks_at[v])
                if val is None:
                    return
                prod = prod * val
            total = total + prod
            return
        v, w = edges[e_idx]
        rows = edge_weights[graph.vertices[v][1], graph.vertices[w][1]]
        for k in range(budget[v] + 1):
            budget[v] -= k
            ks_at[v].append(k)
            for l, weight_kl in rows[k]:
                if l > budget[w]:
                    break
                budget[w] -= l
                ks_at[w].append(l)
                descend(e_idx + 1, weight * weight_kl)
                ks_at[w].pop()
                budget[w] += l
            ks_at[v].pop()
            budget[v] += k

    with ctx.guard():
        if edge_weights is None:
            edge_weights = edge_weight_rows(data)
        descend(0, 1)
        return from_kernel(total / graph.aut if total else total)


# -- the Wick expansion, layer by layer ---------------------------------------


def _qname(i: int, k: int) -> str:
    return f"q{i}_{k}"


def wick_oracle_layers(
    data: EdgeTailData,
    g: int,
    ctx: Context = EXACT,
):
    """F^g from the same edge/tail data by expanding the operator exponential
    directly; graph-free, hence an independent check of the graph sum.
    Kernel data is taken back to working precision first
    (:func:`mpmath_data`), so the series run on mpmath numbers."""
    if g < 2:
        raise ValueError("the expansion is normalized for genus >= 2")
    data = mpmath_data(data)
    with ctx.guard():
        n = data.dimension
        kq = 3 * g - 4  # largest psi-power any vertex can absorb
        names = ("h",) + tuple(_qname(i, k) for i in range(n) for k in range(kq + 1))
        grading = {"h": 2}
        for nm in names[1:]:
            grading[nm] = 1
        caps = Caps.box(
            names,
            mins={"h": -(2 * g - 2)},
            maxs={"h": g - 1},
            weighted=[(grading, 2 * g - 2)],
        )
        qpos = {(i, k): 1 + i * (kq + 1) + k for i in range(n) for k in range(kq + 1)}

        # each vertex generating function, expanded around Q = T
        log_vertices = TruncatedSeries.zero(caps)
        for i in range(n):
            tails = data.t[i]
            delta = data.delta[i]
            for g_v in range(0, g + 1):
                m_cap = 2 * g - 2 - 2 * (g_v - 1)
                for m in range(0, m_cap + 1):
                    if g_v == 0 and m < 3:
                        continue
                    if g_v == 1 and m == 0:
                        continue
                    sum_cap = 3 * g_v - 3 + m
                    for s in range(0, sum_cap + 1):
                        for ks in _ascending_tuples(m, s, 0):
                            if ks and ks[-1] > kq:
                                continue
                            coeff = vertex_correlator(g_v, ks, tails, delta)
                            if coeff == 0:
                                continue
                            mult = Fraction(1)
                            seen = {}
                            for k in ks:
                                seen[k] = seen.get(k, 0) + 1
                            for c in seen.values():
                                mult /= factorial(c)
                            key = [0] * len(names)
                            key[0] = g_v - 1
                            for k in ks:
                                key[qpos[(i, k)]] += 1
                            term = TruncatedSeries(caps, {tuple(key): coeff * mult})
                            log_vertices = log_vertices + term

        state = log_vertices.exp(ctx)

        # propagator weights between variable slots
        weights = {}
        for (i, k), u in qpos.items():
            for (j, l), v in qpos.items():
                if u > v or k + l > data.v_cutoff:
                    continue
                w = data.v_entry(i, j, k, l) * data.sqrt_delta[i] * data.sqrt_delta[j]
                if w == 0:
                    continue
                weights[(u, v)] = w

        def propagate(series):
            out = {}
            for key, coef in series.c.items():
                positions = [p for p, e in enumerate(key) if p > 0 and e > 0]
                for a_idx, u in enumerate(positions):
                    for v in positions[a_idx:]:
                        w = weights.get((u, v))
                        if w is None:
                            continue
                        if u == v:
                            if key[u] < 2:
                                continue
                            factor = key[u] * (key[u] - 1) // 2
                        else:
                            factor = key[u] * key[v]
                        nk = list(key)
                        nk[0] += 1
                        nk[u] -= 1
                        nk[v] -= 1
                        nk = tuple(nk)
                        add = coef * factor * w
                        out[nk] = out.get(nk, 0) + add
            return TruncatedSeries(caps, out)

        order = 1
        layer = state
        while True:
            layer = propagate(layer).scale(Fraction(1, order))
            if not layer.c:
                break
            state = state + layer
            order += 1

        collapsed = {}
        for key, coef in state.c.items():
            if any(e != 0 for e in key[1:]):
                continue
            collapsed[(key[0],)] = coef
        hcaps = Caps.box(("h",), mins={"h": -(2 * g - 2)}, maxs={"h": g - 1})
        connected = TruncatedSeries(hcaps, collapsed)

        c0 = connected.constant_term()
        if isinstance(c0, (int, Fraction)):
            logged = connected.scale(Fraction(1, 1) / c0).log()
        else:
            logged = connected.log(ctx)
        return logged.scalar_coeff((g - 1,))


def replay_by_operators(program, data: EdgeTailData) -> list:
    """Every output of a ``genus.Program`` (``graph_sum_program``,
    ``wick_program`` or ``vertex_program``), vanishing ones included and
    the int 0 for an output None, replayed by the operators of the numbers
    ``data`` holds, so kernel scalars multiply, divide and add as objects.
    The constants are numbers of the data's kind, and the vertex
    correlators a program reads are the outputs of their
    ``vertex_program`` replayed here, not the memo ``data.vertices``.  The
    library replays kernel data on integer lanes instead, and must match
    this bit for bit."""
    zero = Fraction(0) * data.delta[0]
    registers = [zero + c for c in program.constants]
    for table, keys in program.inputs:
        if table == "edge_weights":
            registers += map(data.edge_weights.__getitem__, keys)
        elif table == "t":
            registers += [data.t[i].get(a, zero) for i, a in keys]
        elif table == "delta":
            registers += [data.delta[i] ** p for i, p in keys]
        else:
            registers += replay_by_operators(vertex_program(keys), data)
    read = registers.__getitem__
    for op, left, right, counts in program.steps:
        values = map(read, left) if op is None else map(op, map(read, left), map(read, right))
        if counts is None:
            registers += values
        else:
            registers += [sum(islice(values, c - 1), next(values)) for c in counts]
    return [0 if out is None else registers[out] for out in program.outputs]


# -- the R-matrix route on mpmath numbers ------------------------------------------


def mpc_homogeneous_R(frame: CanonicalFrame, order: int) -> list:
    """R_0 .. R_order of a conformal model by the Euler homogeneity
    recursion of ``rmatrix.homogeneous_R``, run on the frame's mpmath values
    at working precision: V = Psi mu Psi^{-1} with Psi^{-1} = g^{-1} Psi^T,
    then (R_{k+1})_ij = (R_k V - k R_k)_ij / (u_j - u_i) off the diagonal
    and (R_{k+1})_ii = sum_{j != i} (R_{k+1})_ij V_ji / (k + 1)."""
    ctx = frame.ctx
    n = frame.dimension
    euler = frame.model.euler
    with ctx.guard():
        u = frame.u_values()
        psi = frame.psi_values()
        ginv = [[ctx.num(x) for x in row] for row in frame.model.metric_inverse]
        shift = 1 - Fraction(euler.conformal_dimension) / 2
        mu = [
            [ctx.num((shift if a == b else 0) - euler.matrix[a][b]) for b in range(n)]
            for a in range(n)
        ]
        v = mat_mul(psi, mat_mul(mu, mat_mul(ginv, transpose(psi))))
        mats = [[[ctx.num(int(i == j)) for j in range(n)] for i in range(n)]]
        for k in range(order):
            rv = mat_mul(mats[k], v)
            nxt = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        nxt[i][j] = (rv[i][j] - k * mats[k][i][j]) / (u[j] - u[i])
            for i in range(n):
                acc = ctx.num(0)
                for j in range(n):
                    if j != i:
                        acc = acc + nxt[i][j] * v[j][i]
                nxt[i][i] = acc / (k + 1)
            mats.append(nxt)
        return mats


def jet_R_conformal(frame: CanonicalFrame, order: int) -> RSeries:
    """R_1 .. R_order of a conformal model by the jet recursion on the
    frame's jets, with the diagonal constants fixed by Euler homogeneity.

    With W_a = (d_a Psi) Psi^{-1} and D_a = diag(d_a u), the off-diagonal
    (R_k)_ij solve R_k D_a - D_a R_k = d_a R_{k-1} + R_{k-1} W_a along the
    direction a that separates u^i and u^j most; the jets of (R_k)_ii
    integrate d_a (R_k)_ii = -(R_k^{off} W_a)_ii, and their constants are
    (R_k)_ii = -(1/k) sum_a E^a d_a (R_k)_ii at the point.  R_k is kept to
    t-order order - k.  The library solves the conformal R from the order-0
    frame alone (``rmatrix.homogeneous_R``)."""
    if frame.order < order:
        raise ValueError(f"frame jets of order {frame.order} cannot support R through z^{order}")
    ctx = frame.ctx
    n = frame.dimension
    names = t_names(n)
    with ctx.guard():
        evec = frame.model.euler.components(frame.point, ctx)
        w = frame.rotation_jets()
        du = frame.du
        solve = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    gaps = [du[j][a] - du[i][a] for a in range(n)]
                    a = max(range(n), key=lambda b: mpmath.fabs(gaps[b].constant_term()))
                    solve[i, j] = (a, gaps[a].inverse())
        caps = frame.u[0].caps
        one = TruncatedSeries.const(caps, ctx.num(1))
        zero = TruncatedSeries.zero(caps)
        jets = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
        for k in range(1, order + 1):
            content = order - k
            caps_k = Caps.total(names, content)
            prev = jets[-1]
            prev_k = [[e.repruned(caps_k) for e in row] for row in prev]
            w_k = [[[e.repruned(caps_k) for e in row] for row in w[a]] for a in range(n)]
            rk = [[TruncatedSeries.zero(caps_k) for _ in range(n)] for _ in range(n)]
            for (i, j), (a, inv) in solve.items():
                source = prev[i][j].partial(names[a]).repruned(caps_k)
                for m in range(n):
                    source = source + prev_k[i][m] * w_k[a][m][j]
                rk[i][j] = source * inv.repruned(caps_k)
            ddiag = [[-mat_mul(rk, w_k[a])[i][i] for i in range(n)] for a in range(n)]
            for i in range(n):
                coeffs = {}
                for key in _multi_indices(n, content):
                    if sum(key):
                        a = next(b for b, e in enumerate(key) if e)
                        down = key[:a] + (key[a] - 1,) + key[a + 1:]
                        coeffs[key] = ddiag[a][i].scalar_coeff(down) / key[a]
                const = -sum(evec[a] * ddiag[a][i].constant_term() for a in range(n)) / k
                coeffs[(0,) * n] = const
                rk[i][i] = TruncatedSeries(caps_k, coeffs)
            jets.append(rk)
        mats = [[frame.kernel.at_scale(e.constant_term() for e in row) for row in rk] for rk in jets]
    return RSeries(frame=frame, order=order, mats=mats, mode="conformal")


def mpc_edge_tail_data(frame: CanonicalFrame, mats: list) -> EdgeTailData:
    """V, T, Delta and sqrt(Delta) from the matrices ``mats`` of R (numbers
    of any backend), by the closed-form z + w quotient and the tail formula
    of ``rmatrix`` run on mpmath values at working precision, with the
    default cutoffs.  The residuals are the V symmetry and the unitarity of
    R, each the largest |entry|."""
    ctx = frame.ctx
    n = frame.dimension
    order = len(mats) - 1
    with ctx.guard():
        mats = [[[ctx.num(x) for x in row] for row in mat] for mat in mats]
        products = {
            (p, q): mat_mul(mats[p], transpose(mats[q]))
            for p in range(order + 1)
            for q in range(order + 1 - p)
        }
        table = {}
        for i in range(n):
            for j in range(n):
                for m in range(1, order + 1):
                    quot = 0
                    for k in range(m):
                        entry = products[(k, m - k)][i][j]
                        quot = entry - quot if quot else entry
                        if quot:
                            table[(i, j, k, m - 1 - k)] = quot if m % 2 else -quot
        worst = {"v_symmetry": mpmath.mpf(0), "unitarity": mpmath.mpf(0)}
        for (i, j, k, l), v in table.items():
            gap = mpmath.fabs(v - table.get((j, i, l, k), 0))
            worst["v_symmetry"] = max(worst["v_symmetry"], gap)
        for m in range(order + 1):
            for i in range(n):
                for j in range(n):
                    acc = -1 if (m == 0 and i == j) else 0
                    for p in range(m + 1):
                        acc = acc + (-1) ** (m - p) * products[(p, m - p)][i][j]
                    worst["unitarity"] = max(worst["unitarity"], mpmath.fabs(acc))
        sd = frame.sqrt_delta_values()
        tails = [
            {k: (-1) ** k * sd[i] * sum(mats[k - 1][i][j] / sd[j] for j in range(n))
             for k in range(2, order + 2)}
            for i in range(n)
        ]
    return EdgeTailData(
        dimension=n,
        delta=frame.delta_values(),
        sqrt_delta=sd,
        v=table,
        t=tails,
        v_cutoff=order - 1,
        t_cutoff=order + 1,
        residuals=worst,
    )


# -- edge coefficients by series division ----------------------------------------


def singular_quotient(
    num: TruncatedSeries, zname: str, wname: str
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Divide ``num`` by ``(z + w)``, treating it as a polynomial in ``w``.

    Returns ``(quotient, remainder)`` with ``num = (z+w) * quotient +
    remainder`` and the remainder independent of ``w``.  The remainder is
    the numerator on the antidiagonal ``w = -z``; when the numerator
    vanishes there it is zero up to the working truncation.

    If the numerator is trusted to total degree ``K`` in ``(z, w)``, the
    quotient's coefficients are trustworthy to total degree ``K - 1``.
    """
    zi = num.caps.index(zname)
    wi = num.caps.index(wname)
    if not num.c:
        return TruncatedSeries.zero(num.caps), TruncatedSeries.zero(num.caps)
    wmax = max(k[wi] for k in num.c)
    if min(k[wi] for k in num.c) < 0 or min((k[zi] for k in num.c), default=0) < 0:
        raise ValueError("singular_quotient needs nonnegative exponents in z and w")

    def wslice(m: int) -> Dict[Key, object]:
        return {k[:wi] + (0,) + k[wi + 1 :]: v for k, v in num.c.items() if k[wi] == m}

    def zshift(d: Dict[Key, object]) -> Dict[Key, object]:
        return {k[:zi] + (k[zi] + 1,) + k[zi + 1 :]: v for k, v in d.items()}

    def wlift(d: Dict[Key, object], m: int) -> Dict[Key, object]:
        return {k[:wi] + (m,) + k[wi + 1 :]: v for k, v in d.items()}

    def dsub(a: Dict[Key, object], b: Dict[Key, object]) -> Dict[Key, object]:
        out = dict(a)
        for k, v in b.items():
            w = out.get(k, 0) - v
            if w or w != 0:
                out[k] = w
            elif k in out:
                del out[k]
        return out

    q_parts: Dict[Key, object] = {}
    qm: Dict[Key, object] = {}
    for m in range(wmax, 0, -1):
        qm = dsub(wslice(m), zshift(qm)) if m < wmax else wslice(m)
        q_parts.update(wlift(qm, m - 1))
    remainder_terms = dsub(wslice(0), zshift(qm))
    quotient = TruncatedSeries(num.caps, q_parts)
    remainder = TruncatedSeries(num.caps, remainder_terms)
    return quotient, remainder


def compute_V_series(r: RSeries) -> Tuple[Dict, dict]:
    """Edge coefficients V^{ij}_{kl} for k+l <= order-1, from the matrices
    of R.  Returns (table, residuals): the divisibility of the numerator by
    z + w, the symmetry of V, the cross-direction residual of R when it has
    one, and the unitarity of R."""
    ctx = r.frame.ctx
    n = r.dimension
    cutoff = r.order - 1
    with ctx.guard():
        products = {
            (p, q): mat_mul(r.mats[p], transpose(r.mats[q]))
            for p in range(r.order + 1)
            for q in range(r.order + 1 - p)
        }
        caps = Caps.total(("z", "w"), r.order)
        table: Dict[Tuple[int, int, int, int], object] = {}
        div_resid = ctx.num(0)
        for i in range(n):
            for j in range(n):
                num = TruncatedSeries.zero(caps)
                for (p, q), prod in products.items():
                    s = prod[i][j]
                    if i == j and p == 0 and q == 0:
                        s = s - 1
                    if s or s != 0:
                        num = num + TruncatedSeries(caps, {(p, q): s})
                quot, rem = singular_quotient(num, "z", "w")
                div_resid = max(div_resid, ctx.max_abs(rem.c.values()))
                for (k, l), v in quot.c.items():
                    if k + l <= cutoff:
                        table[(i, j, k, l)] = v * (-1) ** (k + l)
        sym_resid = ctx.max_abs(v - table.get((j, i, l, k), 0) for (i, j, k, l), v in table.items())
        residuals = {"divisibility": div_resid, "v_symmetry": sym_resid}
        if r.cross_residual is not None:
            residuals["cross_direction"] = r.cross_residual
        residuals["unitarity"] = unitarity_residual(r)
        return table, residuals


def frame_invariant_residuals(frame: CanonicalFrame) -> dict:
    """Numerical residuals of the defining identities of a canonical frame.

    Checks, as jets to the frame order (derivative identities one lower):
      * Psi g^{-1} Psi^T = 1
      * sum_i (idempotent_i) = unit vector
      * Psi C_a Psi^{-1} = diag(d_a u)
      * W_a antisymmetric with zero diagonal
    """
    ctx = frame.ctx
    model = frame.model
    n = frame.dimension
    with ctx.guard():
        out = {}
        psi_inv = frame.psi_inverse_jets()
        prod = mat_mul(frame.psi, psi_inv)
        eye = identity(
            n,
            TruncatedSeries.const(frame.psi[0][0].caps, ctx.num(1)),
            TruncatedSeries.zero(frame.psi[0][0].caps),
        )
        out["orthonormality"] = max(
            ctx.max_abs((prod[i][j] - eye[i][j]).c.values()) for i in range(n) for j in range(n)
        )

        unit_resid = ctx.num(0)
        for a in range(n):
            acc = frame.idempotents[0][a]
            for i in range(1, n):
                acc = acc + frame.idempotents[i][a]
            target = 1 if a == model.unit_index else 0
            unit_resid = max(unit_resid, ctx.max_abs((acc - target).c.values()))
        out["unit_decomposition"] = unit_resid

        cjets = model.structure_constant_jets(frame.point, frame.order, ctx)
        diag_resid = ctx.num(0)
        for a in range(n):
            m = mat_mul(frame.psi, mat_mul(cjets[a], psi_inv))
            for i in range(n):
                for j in range(n):
                    expect = frame.du[i][a] if i == j else None
                    diff = m[i][j] - expect if expect is not None else m[i][j]
                    diag_resid = max(diag_resid, ctx.max_abs(diff.c.values()))
        out["diagonalization"] = diag_resid

        w = frame.rotation_jets()
        w_resid = ctx.num(0)
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    s = w[a][i][j] + w[a][j][i]
                    for key, v in s.c.items():
                        if sum(key) <= frame.order - 1:
                            w_resid = max(w_resid, mpmath.fabs(v))
        out["rotation_antisymmetry"] = w_resid
        out["du_consistency"] = frame.residual
        return out


def eigenvalues_float(a, ctx: FloatContext) -> list:
    """Roots of the characteristic polynomial, as mpc numbers."""
    with ctx.guard():
        num = [[ctx.num(x) for x in row] for row in a]
        one = ctx.num(1)
        coeffs = charpoly(num, one, lambda x, k: x / k)
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=ctx.prec_bits)
        return list(roots)


def projector_frame(model: FrobeniusModel, point, ctx: FloatContext, permutation=None,
                    sign_flips=None) -> dict:
    """u, the idempotents, du, Delta, sqrt(Delta) and Psi at ``point`` from
    the Lagrange projectors P_i = prod_{j != i} (A - u_j) / (u_i - u_j) of
    the Euler multiplication A, as full matrices: e_i is the unit's column
    of P_i and du^i_a = trace(C_a P_i).  Roots and branches are ordered as
    :func:`canonical_frame` orders them."""
    n = model.dimension
    with ctx.guard():
        point = [ctx.num(x) for x in point]
        cmats = model.structure_constants(point, ctx)
        euler = model.euler.components(point, ctx)
        gen = [
            [sum(euler[a] * cmats[a][r][c] for a in range(n)) for c in range(n)]
            for r in range(n)
        ]
        coeffs = charpoly(gen, ctx.num(1), lambda x, k: x / k)
        roots = [
            mpmath.mpc(r)
            for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=ctx.prec_bits)
        ]
        roots.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
        if permutation is not None:
            roots = [roots[p] for p in permutation]
        one, zero = ctx.num(1), ctx.num(0)
        projectors = []
        for i in range(n):
            proj = identity(n, one, zero)
            for j in range(n):
                if j != i:
                    shifted = [
                        [(gen[r][c] - (roots[j] if r == c else 0)) / (roots[i] - roots[j])
                         for c in range(n)]
                        for r in range(n)
                    ]
                    proj = mat_mul(proj, shifted)
            projectors.append(proj)
        idem = [[p[a][model.unit_index] for a in range(n)] for p in projectors]
        du = [[trace(mat_mul(c, p)) for c in cmats] for p in projectors]
        flips = sign_flips or [1] * n
        delta, sqrt_delta, psi = [], [], []
        for i in range(n):
            eta = sum(
                model.metric[a][b] * idem[i][a] * idem[i][b] for a in range(n) for b in range(n)
            )
            delta.append(1 / eta)
            sqrt_delta.append(ctx.sqrt(delta[i]) * flips[i])
            psi.append([x / sqrt_delta[i] for x in du[i]])
        return {
            "u": roots, "idempotents": idem, "du": du, "delta": delta,
            "sqrt_delta": sqrt_delta, "psi": psi,
        }


# -- helpers of the tests ------------------------------------------------------------


def shifted(tau: CurvePoint, direction: CurvePoint, h) -> CurvePoint:
    """tau + h * direction, padding the shorter coupling list with zeros."""
    if direction.dimension != tau.dimension:
        raise ValueError("direction dimension mismatch")
    kmax = max(tau.kmax, direction.kmax)
    rows = []
    for m in range(kmax + 1):
        rows.append(
            tuple(a + h * b for a, b in zip(tau.coupling(m), direction.coupling(m)))
        )
    return CurvePoint(tuple(rows))


def series_value(series: TruncatedSeries, assignment: Dict[str, object], ctx: Context):
    """The series summed at the displacements ``assignment`` (one value per
    variable name)."""
    vals = [assignment[name] for name in series.caps.names]
    total = ctx.num(0)
    for key, v in series.c.items():
        term = v
        for x, k in zip(vals, key):
            if k:
                term = term * ctx.num(x) ** k
        total = total + term
    return total


def t_entry(data: EdgeTailData, i, k):
    if k < 2:
        return 0
    return data.t[i].get(k, 0)


def derivatives(expr: Expression, point: Sequence, order: int, ctx: Context):
    """Dict of all partial derivatives up to total order: {multi-index: value}."""
    jet = expr.jet(point, order, ctx)
    out = {}
    import math

    for key in _multi_indices(expr.nvars, order):
        c = jet.scalar_coeff(key)
        fact = 1
        for m in key:
            fact *= math.factorial(m)
        out[key] = c * fact
    return out


def close(ctx: FloatContext, a, b, tol=None, scale=1) -> bool:
    tol = ctx.tol if tol is None else ctx.num(tol)
    with ctx.guard():
        d = mpmath.fabs(ctx.num(a) - ctx.num(b))
        s = max(mpmath.mpf(1), mpmath.fabs(ctx.num(scale)))
        return d <= tol * s


def tau_to_json(tau: CurvePoint) -> dict:
    return {
        "Kmax": tau.kmax,
        "t": [[format_rational(x) for x in row] for row in tau.times],
    }


def expression_to_json(expr: Expression) -> list:
    items = []
    for (mono, expo), c in sorted(expr.terms.items()):
        items.append(
            {
                "coeff": format_rational(c),
                "mono": list(mono),
                "exp": [format_rational(e) for e in expo],
            }
        )
    return items


def model_to_json(model: FrobeniusModel) -> dict:
    doc = {
        "dimension": model.dimension,
        "metric": [[format_rational(x) for x in row] for row in model.metric],
        "potential": expression_to_json(model.potential),
        "unit_index": model.unit_index,
    }
    if model.euler is not None:
        doc["euler"] = {
            "matrix": [[format_rational(x) for x in row] for row in model.euler.matrix],
            "shift": [format_rational(x) for x in model.euler.shift],
            "conformal_dimension": format_rational(model.euler.conformal_dimension),
        }
    if model.parameters:
        doc["parameters"] = {k: format_rational(v) for k, v in model.parameters.items()}
    if model.name:
        doc["name"] = model.name
    return doc
