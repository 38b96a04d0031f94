"""Gravitational descendents of a semisimple Frobenius manifold.

The calibration is the 1/z fundamental solution S(z) = 1 + S_1/z + S_2/z^2
+ ... of the flat pencil, built order by order from

    d_a S_k = C_a S_{k-1},        S_k(0) = 0  (k >= 1),

by symbolic antidifferentiation along coordinate paths from the origin;
closedness of each step's gradient is exactly the flatness of the pencil
(WDVV), so the result is path-independent and the construction
double-checks itself by re-integrating along a permuted coordinate order.
The C_a come from ``FrobeniusModel.multiplication``, and the path
integrals run on ``Expression.restrict`` and ``antidiff``.  The entries of
S_k are one-point descendent correlators.  The normalization at the origin
is the one the criticality condition below assumes: its unit brackets are
normalized at t = 0, so there is no other base to choose.  The unitarity
S*(-1/z) S(1/z) = 1 and the genus-0 two-point functions W_{ml} both come
from dividing N(x, y) - g by x + y, N_{ab} = S_a^T g S_b
(``rmatrix._divide``); only the tests' references compute them
(``tests/oracles.py``).

A curve-space point tau = t_0 + t_1 c + ... + t_K c^K maps to the manifold
through the critical point t(tau) of (t_0, t) + <tau(c) - c, 1>', solved
here from the fixed-point form

    t = t_0 + sum_{m>=1} S_m(t) t_m

by Newton iteration on kernel scalars (``scalars.GaussianFixed``) of one
scale: S_m and C_a are evaluated at the kernel point, each step is solved
by ``linalg.mat_inv`` in the kernel, and t(tau) goes back to working
precision once.

Higher genus reuses the stable-graph sum with bold edge and tail data: V is
simply evaluated at t(tau), while D_i and T^i_k are extracted by matching
z-coefficients in

    e^{u_i/z} D_i^{-1/2} (z + sum_k T^i_k (-z)^k)
        = sum_mu S^i_mu(z) g^{mu nu} { <phi_nu, 1, tau(c)-c>
            + (-z) <phi_nu, 1, 1, tau(c)-c> + ... },

where the brackets are unit-direction derivatives of the criticality
residual: the z^0 coefficient vanishes at the critical point (a checked
invariant), z^1 gives D_i^{-1/2}, and z^k for k >= 2 give the tails.  At
t_1 = t_2 = ... = 0 the data degenerates to (Delta, T, V) and the
descendent potential to F^g(t_0).  The bold data are an ``EdgeTailData``
like the primary data: :func:`descendent_frame` returns them with the
canonical frame at t(tau), whose ``point`` is the critical point, and the
report of :func:`descendent_potential` keeps both.  The graph sum starts
at genus 2.  The genus-0 potential with its one- and two-point tables,
and the two genus-1 differentials on the curve space, are references in
``tests/oracles.py`` built on the critical point and the calibration
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import mpmath

from .expressions import Expression
from .frame import CanonicalFrame
from .frobenius import FrobeniusModel
from .genus import GenusReport, frame_and_R, graph_sum
from .intersection import _ascending_tuples, psi_intersection
from .linalg import identity, mat_inv, mat_mul, mat_vec
from .rmatrix import EdgeTailData, RSeries, compute_V
from .scalars import EXACT, Context, FloatContext, from_kernel


# -- expression plumbing ---------------------------------------------------------


def _path_integral(grad: List[Expression], path) -> Expression:
    """Integrate the closed form sum_a grad[a] dt^a from the origin along
    the coordinate staircase visiting directions in ``path`` order."""
    n = grad[0].nvars
    total = Expression.zero(n)
    path = list(path)
    for pos, a in enumerate(path):
        piece = grad[a]
        for later in path[pos + 1 :]:
            piece = piece.restrict(later)
        anti = piece.antidiff(a)
        total = total + anti - anti.restrict(a)
    return total


# -- the calibration -------------------------------------------------------------


@dataclass
class Calibration:
    """1/z fundamental solution with the gauge S_k(0) = 0.

    ``s[k-1]`` holds S_k as an N x N matrix of expressions; S_0 is the
    identity and is supplied on the fly by :meth:`s_values`."""

    model: FrobeniusModel
    order: int
    s: List[List[List[Expression]]]

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def s_values(self, point, ctx: Context, order: Optional[int] = None) -> list:
        """[S_0, S_1(point), ..., S_order(point)] as scalar matrices.

        With ``EXACT`` the values are rationals (polynomial potentials
        only)."""
        n = self.dimension
        if order is None:
            order = self.order
        if order > self.order:
            raise ValueError(f"calibration order {self.order} < requested {order}")
        out = [identity(n, ctx.num(1), ctx.num(0))]
        pt = tuple(point)
        for k in range(1, order + 1):
            mat = self.s[k - 1]
            out.append([[mat[i][j].evaluate(pt, ctx) for j in range(n)] for i in range(n)])
        return out


def compute_calibration(model: FrobeniusModel, order: int = 6) -> Calibration:
    """Solve d_a S_k = C_a S_{k-1} by antidifferentiation, fixing constants
    by S_k(0) = 0.

    Each S_k is integrated twice, along the coordinate staircase and along
    the reversed one; any discrepancy means the step's gradient was not
    closed, i.e. WDVV fails, and is raised rather than averaged away."""
    n = model.dimension
    if order < 1:
        raise ValueError("calibration order must be at least 1")
    ops = model.multiplication
    forward = list(range(n))
    backward = forward[::-1]
    prev = [
        [Expression.term(n, 1) if i == j else Expression.zero(n) for j in range(n)]
        for i in range(n)
    ]
    mats = []
    for k in range(1, order + 1):
        grads = [mat_mul(ops[a], prev) for a in range(n)]
        cur = []
        for i in range(n):
            row = []
            for j in range(n):
                grad_ij = [grads[a][i][j] for a in range(n)]
                entry = _path_integral(grad_ij, forward)
                check = _path_integral(grad_ij, backward)
                resid = (entry - check).coeff_norm()
                if resid != 0:
                    raise ArithmeticError(
                        f"path-dependence residual {resid} in S_{k}[{i}][{j}]: WDVV violation"
                    )
                row.append(entry)
            cur.append(row)
        mats.append(cur)
        prev = cur
    return Calibration(model=model, order=order, s=mats)


# -- curve-space points ----------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """tau = t_0 + t_1 c + ... + t_K c^K; ``times[m]`` is the vector t_m."""

    times: Tuple[Tuple[object, ...], ...]

    def __post_init__(self):
        if not self.times:
            raise ValueError("a curve-space point needs at least t_0")
        n = len(self.times[0])
        times = tuple(tuple(row) for row in self.times)
        if any(len(row) != n for row in times):
            raise ValueError("coupling vectors must share the dimension of t_0")
        object.__setattr__(self, "times", times)

    @property
    def kmax(self) -> int:
        return len(self.times) - 1

    @property
    def dimension(self) -> int:
        return len(self.times[0])

    def coupling(self, m: int) -> tuple:
        if 0 <= m <= self.kmax:
            return self.times[m]
        return (0,) * self.dimension

    def bumped(self, m: int, alpha: int, h) -> "CurvePoint":
        rows = [list(row) for row in self.times]
        while len(rows) <= m:
            rows.append([0] * self.dimension)
        rows[m][alpha] = rows[m][alpha] + h
        return CurvePoint(tuple(tuple(r) for r in rows))


def _x_vectors(tau: CurvePoint, unit: int, num) -> list:
    """Coefficients of tau(c) - c: X_m = t_m - delta_{m1} e_unit, converted
    into the working ring by ``num``."""
    out = []
    for m in range(max(tau.kmax, 1) + 1):
        row = [num(x) for x in tau.coupling(m)]
        if m == 1:
            row[unit] = row[unit] - num(1)
        out.append(row)
    return out


# -- the critical point ----------------------------------------------------------

_NEWTON_STEPS = 60


def critical_point(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    ctx: FloatContext,
) -> tuple:
    """t* at working precision: the Newton solve of t = t_0 + sum_{m>=1}
    S_m(t) t_m, seeded at t_0, until the residual is at most 2^(40 - bits),
    and one more step with the last Jacobian, which takes t to working
    precision.

    The Jacobian is 1 - (quantum multiplication by sum_m S_{m-1}(t) t_m), so
    each step costs one calibration evaluation and one N x N solve.  Both
    run on kernel scalars of one scale, picked by ``ctx.to_kernel`` from the
    seed, the couplings and S_0 .. S_K at the seed, which the first step
    reads; every step ends by evaluating S_0 .. S_K at the new kernel point.
    C_a are evaluated there too, the solve is :func:`linalg.mat_inv` in the
    kernel, and t* is converted back once.  With all higher couplings zero
    the seed is already exact.  After 60 steps, or once an iterate's
    exponential outgrows the kernel, the solve stops as stalled."""
    n = model.dimension
    if tau.dimension != n:
        raise ValueError("curve-space point dimension mismatch")
    kmax = tau.kmax
    if kmax > calibration.order:
        raise ValueError(
            f"calibration order {calibration.order} too small for couplings up to c^{kmax}"
        )
    seed = tau.coupling(0)
    live = [m for m in range(1, kmax + 1) if any(x != 0 for x in tau.coupling(m))]
    if not live:
        return tuple(ctx.num(x) for x in seed)
    s_seed = calibration.s_values(seed, EXACT if model.rational_at(seed) else ctx, order=kmax)
    flat = ctx.to_kernel([
        *seed,
        *(x for m in live for x in tau.coupling(m)),
        *(x for mat in s_seed for row in mat for x in row),
    ])
    it = iter(flat)
    t0 = t = [next(it) for _ in range(n)]
    couplings = {m: [next(it) for _ in range(n)] for m in live}
    # S_0 .. S_kmax at the current iterate, the seed's for the first step
    svals = [[[next(it) for _ in range(n)] for _ in range(n)] for _ in range(kmax + 1)]
    bound = t0[0].convert(ctx.noise_floor(40)).norm()
    inverse = None
    for steps in range(1, _NEWTON_STEPS + 1):
        res = [t[a] - t0[a] for a in range(n)]
        for m in live:
            sm = svals[m]
            for a in range(n):
                acc = res[a]
                for b in range(n):
                    acc = acc - sm[a][b] * couplings[m][b]
                res[a] = acc
        if max(x.norm() for x in res) <= bound:
            if inverse is not None:
                # one more step with the last Jacobian polishes t
                t = [x - y for x, y in zip(t, mat_vec(inverse, res))]
            return tuple(from_kernel(x) for x in t)
        w = [0] * n
        for m in live:
            sm = svals[m - 1]
            for a in range(n):
                acc = w[a]
                for b in range(n):
                    acc = acc + couplings[m][b] * sm[a][b]
                w[a] = acc
        cmats = model.structure_constants(t, EXACT)
        jac = [
            [
                (1 if i == j else 0) - sum(w[mu] * cmats[mu][i][j] for mu in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        inverse = mat_inv(jac, ctx)
        step = mat_vec(inverse, res)
        t = [t[a] - step[a] for a in range(n)]
        try:
            # EXACT keeps S_0 = 1 and the coefficients rational at a kernel point
            svals = calibration.s_values(t, EXACT, order=kmax)
        except OverflowError:
            # an exponential outgrew the kernel: the iterates ran away
            break
    raise ArithmeticError(
        f"critical point Newton stalled after {steps} iterations; "
        f"residual {mpmath.nstr(ctx.max_abs(res), 8)}"
    )


# -- bold quantities ---------------------------------------------------------------


def _brackets(model, calibration, t_star, tau, ctx) -> list:
    """b_p = sum_{m>=p} S_{m-p}(t*) X_m; the unit brackets are g b_p."""
    n = model.dimension
    kmax = max(tau.kmax, 1)
    svals = calibration.s_values(t_star, ctx, order=min(kmax, calibration.order))
    xvecs = _x_vectors(tau, model.unit_index, ctx.num)
    out = []
    for p in range(kmax + 1):
        vec = [ctx.num(0)] * n
        for m in range(p, kmax + 1):
            sm = svals[m - p]
            for a in range(n):
                acc = vec[a]
                for b in range(n):
                    acc = acc + sm[a][b] * xvecs[m][b]
                vec[a] = acc
        out.append(vec)
    return out


def bold_quantities(
    model: FrobeniusModel,
    calibration: Calibration,
    frame: CanonicalFrame,
    r: RSeries,
    tau: CurvePoint,
) -> EdgeTailData:
    """Extract the bold data (D, T, V) from the z-expansion of the
    one-point correlator.

    The data drop into the stable-graph sum exactly where the primary
    (Delta, T, V) data go, with D in place of Delta; their ``sqrt_delta``
    follows the square-root branches of ``frame``, and flipping one flips
    the matching V rows, so the graph sum is branch-invariant.  Their
    residuals include the criticality residual.

    ``frame`` and ``r`` must live at the critical point of ``tau``, which
    is ``frame.point``.  With G_k the z^k coefficient of sum (-z)^p R_q
    Psi b_p: G_0 is the criticality residual (raised above ``ctx.tol``),
    G_1 = D^{-1/2} (an exact zero raises ArithmeticError), and T_k =
    (-1)^k G_k / G_1 for k >= 2.  V is evaluated at the critical point, which is definition
    (not extraction): the two-point functions factor through it.  G, D,
    T and V are kernel scalars: the brackets b_p enter at R's scale, and
    ``EdgeTailData.in_kernel`` lifts the data to the scale its numbers
    need, the form the graph sum runs on."""
    ctx = frame.ctx
    n = frame.dimension
    if tau.kmax > calibration.order:
        raise ValueError(
            f"calibration order {calibration.order} too small for couplings up to c^{tau.kmax}"
        )
    with ctx.guard():
        bvecs = _brackets(model, calibration, frame.point, tau, ctx)
    kernel = r.frame.kernel
    cvecs = [mat_vec(kernel.psi, kernel.at_scale(b)) for b in bvecs]
    t_cutoff = r.order + 1
    gvals = []
    for k in range(t_cutoff + 1):
        vec = [0] * n
        for p in range(min(k, len(cvecs) - 1) + 1):
            q = k - p
            if q > r.order:
                continue
            sign = -1 if p % 2 else 1
            rq = r.mats[q]
            for i in range(n):
                acc = vec[i]
                for j in range(n):
                    acc = acc + sign * rq[i][j] * cvecs[p][j]
                vec[i] = acc
        gvals.append(vec)
    crit = ctx.max_abs(gvals[0])
    if crit > ctx.tol:
        raise ArithmeticError(
            f"criticality residual {mpmath.nstr(crit, 8)} exceeds {mpmath.nstr(ctx.tol, 8)}"
        )
    for i in range(n):
        if not gvals[1][i]:
            raise ArithmeticError(f"G_1 = D^(-1/2) vanishes at canonical index {i}")
    sqrt_d = [1 / gvals[1][i] for i in range(n)]
    tails: List[Dict[int, object]] = [dict() for _ in range(n)]
    for k in range(2, t_cutoff + 1):
        sign = 1 if k % 2 == 0 else -1
        for i in range(n):
            tails[i][k] = sign * gvals[k][i] * sqrt_d[i]
    v, residuals = compute_V(r)
    residuals["criticality"] = crit
    return EdgeTailData(
        dimension=n,
        delta=[x * x for x in sqrt_d],
        sqrt_delta=sqrt_d,
        v=v,
        t=tails,
        v_cutoff=r.order - 1,
        t_cutoff=t_cutoff,
        residuals=residuals,
    ).in_kernel(ctx)


def descendent_frame(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    ctx: FloatContext,
    *,
    order: int,
    gauge=None,
    permutation=None,
    sign_flips=None,
) -> Tuple[CanonicalFrame, EdgeTailData]:
    """Critical point, canonical frame, R-matrix, and bold extraction in one
    call: the frame at the critical point (its ``point``) and the bold data
    of :func:`bold_quantities`.  The frame and R come from
    :func:`genus.frame_and_R`, as in the primary genus pipeline."""
    t_star = critical_point(model, calibration, tau, ctx)
    frame, r = frame_and_R(
        model, t_star, ctx, order, gauge=gauge,
        permutation=permutation, sign_flips=sign_flips,
    )
    return frame, bold_quantities(model, calibration, frame, r, tau)


def descendent_potential(
    model: FrobeniusModel,
    calibration: Calibration,
    tau: CurvePoint,
    g: int,
    ctx: FloatContext,
    *,
    order: Optional[int] = None,
    gauge=None,
    permutation=None,
    sign_flips=None,
) -> GenusReport:
    """F^g(tau) by the stable-graph sum over the bold data.

    Same combinatorics and default orders as the primary potential; at
    t_1 = t_2 = ... = 0 the bold data degenerates to the primary data and
    this reproduces F^g(t_0) through the identical code path.  The report's
    ``frame`` sits at the critical point t(tau) (``frame.point``), and its
    ``data`` are the bold data with their residuals."""
    if g < 2:
        raise ValueError("the graph sum starts at genus 2; genus 1 is a one-form")
    if order is None:
        order = 3 * g - 3
    frame, data = descendent_frame(
        model, calibration, tau, ctx, order=order, gauge=gauge,
        permutation=permutation, sign_flips=sign_flips,
    )
    return graph_sum(data, g, frame=frame)


# -- one-dimensional reference ------------------------------------------------------


def _coupling_series(times, k: int, u):
    """I_k(u) = sum_n t_{n+k} u^n / n!."""
    total = times[0] * 0
    term = 1
    for n, x in enumerate(times[k:]):
        if n:
            term = term * u / n
        total = total + x * term
    return total


def point_descendent_resummed(
    tau: CurvePoint,
    g: int,
    ctx: Context,
):
    """F^g(tau) for the one-dimensional model in the Itzykson-Zuber form

        F_g = sum <prod tau_k^{l_k}>_g prod I_k^{l_k} / l_k!
              * (1 - I_1)^{-(2g - 2 + sum l_k)},

    summed over k >= 2 with sum (k - 1) l_k = 3g - 3, where
    I_k = sum_n t_{n+k} u_0^n / n! and u_0 solves u_0 = I_0(u_0) (Newton
    from 0).  Unlike the direct sum over insertions, this sum is finite
    for any couplings, and it reads nothing but the intersection table.

    ``EXACT`` keeps rationals, which needs t_0 = 0 (then u_0 = 0).
    A stalled Newton solve, or 1 - I_1(u_0) = 0, raises ArithmeticError."""
    if tau.dimension != 1:
        raise ValueError("the resummed reference is for the one-dimensional model")
    if g < 2:
        raise ValueError("the resummed reference starts at genus 2")
    times = [row[0] for row in tau.times]
    # with t_0 != 0, rational Newton steps never reach a zero residual
    if ctx is EXACT and times[0] != 0:
        raise ValueError("exact arithmetic needs t_0 = 0; pass a FloatContext")
    with ctx.guard():
        times = [ctx.num(x) for x in times]
        tol = ctx.noise_floor(40)
        u = ctx.num(0)
        for _ in range(60):
            res = _coupling_series(times, 0, u) - u
            slope = 1 - _coupling_series(times, 1, u)
            converged = ctx.abs(res) <= tol
            if slope != 0:
                # once converged, this step polishes u_0 to working precision
                u = u + res / slope
            if converged:
                return _resummed_sum(times, g, u, tol)
            if slope == 0:
                break
        raise ArithmeticError(
            f"u_0 = I_0(u_0) Newton stalled; residual {mpmath.nstr(mpmath.fabs(res), 8)}"
        )


def _resummed_sum(times, g: int, u, tol):
    couplings = [_coupling_series(times, k, u) for k in range(len(times))]
    couplings += [couplings[0] * 0] * (3 * g - 1 - len(couplings))
    denominator = 1 - couplings[1]
    if abs(denominator) <= tol:
        raise ArithmeticError("1 - I_1(u_0) vanishes; the genus expansion is singular")
    total = couplings[0] * 0
    top = 3 * g - 3
    for n in range(1, top + 1):
        for parts in _ascending_tuples(n, top, 1):
            ks = tuple(p + 1 for p in parts)
            weight = psi_intersection(g, ks)
            for k in ks:
                weight = weight * couplings[k]
            for k in set(ks):
                weight = weight / math.factorial(ks.count(k))
            total = total + weight / denominator ** (2 * g - 2 + n)
    return total
