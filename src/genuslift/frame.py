"""Canonical coordinates and normalized frames at a semisimple point.

Given a model and a point where the multiplication has pairwise distinct
eigenvalues, this module produces jets (Taylor expansions in the flat
coordinates, truncated at a requested order) of:

* the canonical coordinates u^i, in which the multiplication is diagonal;
* the idempotent vector fields and the normalizing factors Delta_i
  (inverse squared lengths of the idempotents);
* the normalized frame matrix Psi, with rows Psi^i_b = Delta_i^{-1/2} d_b u^i;
* the rotation coefficients W_a = (d_a Psi) Psi^{-1}, antisymmetric with
  zero diagonal.

The eigenvalue jets are obtained by Newton iteration on the characteristic
polynomial of a multiplication operator (the Euler multiplication for
conformal models, a fixed generic combination otherwise), starting from
high-precision roots of the order-zero polynomial.  Projectors onto the
eigenlines are Lagrange interpolation polynomials in the operator, which
keeps every step a ring operation on jets.

Everything here is float-backend only: eigenvalues and square roots leave
the rationals even for rational models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import mpmath

from .expressions import t_names
from .frobenius import FrobeniusModel
from .linalg import charpoly, identity, mat_add, mat_mul, mat_scale, poly_eval, trace
from .scalars import FloatContext
from .series import Caps, TruncatedSeries


class NonSemisimpleError(ArithmeticError):
    """The multiplication operator has (numerically) repeated eigenvalues."""


class DegenerateFrameError(ArithmeticError):
    """An idempotent has (numerically) zero squared length."""


@dataclass
class CanonicalFrame:
    model: FrobeniusModel
    point: tuple
    ctx: FloatContext
    order: int
    u: List[TruncatedSeries]
    du: List[List[TruncatedSeries]]
    delta: List[TruncatedSeries]
    sqrt_delta: List[TruncatedSeries]
    psi: List[List[TruncatedSeries]]
    idempotents: List[List[TruncatedSeries]]
    conformal: bool
    residual: object = None

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def u_values(self) -> list:
        return [s.constant_term() for s in self.u]

    def delta_values(self) -> list:
        return [s.constant_term() for s in self.delta]

    def sqrt_delta_values(self) -> list:
        return [s.constant_term() for s in self.sqrt_delta]

    def psi_values(self) -> list:
        return [[e.constant_term() for e in row] for row in self.psi]

    def psi_inverse_jets(self) -> List[List[TruncatedSeries]]:
        """Psi^{-1} = g^{-1} Psi^T, exact consequence of orthonormality."""
        ginv = self.model.metric_inverse
        n = self.dimension
        out = []
        for a in range(n):
            row = []
            for i in range(n):
                acc = None
                for b in range(n):
                    if ginv[a][b] == 0:
                        continue
                    term = self.psi[i][b].scale(ginv[a][b])
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return out

    def rotation_jets(self) -> List[List[List[TruncatedSeries]]]:
        """W_a = (d_a Psi) Psi^{-1}; jets one order below the frame order."""
        with self.ctx.guard():
            psi_inv = self.psi_inverse_jets()
            names = t_names(self.dimension)
            out = []
            for a in range(self.dimension):
                dpsi = [[e.partial(names[a]) for e in row] for row in self.psi]
                out.append(mat_mul(dpsi, psi_inv))
            return out


def canonical_frame(
    model: FrobeniusModel,
    point: Sequence,
    ctx: FloatContext,
    order: int = 0,
    permutation: Optional[Sequence[int]] = None,
    sign_flips: Optional[Sequence[int]] = None,
    anchors: Optional[Sequence] = None,
    generator_weights: Optional[Sequence] = None,
) -> CanonicalFrame:
    """Build the canonical frame jets at ``point`` to the given order.

    ``permutation`` reorders the default (ascending by real part, then
    imaginary part) branch ordering; ``sign_flips`` holds one sign (1 or -1)
    per branch and multiplies sqrt(Delta_i) by it; ``anchors`` holds the N
    integration constants of u for non-conformal models.
    """
    n = model.dimension
    if order < 0:
        raise ValueError(f"frame order must be nonnegative, not {order}")
    if sign_flips is not None and (
        len(sign_flips) != n or any(s not in (1, -1) for s in sign_flips)
    ):
        raise ValueError(f"sign flips must be {n} entries, each 1 or -1")
    if anchors is not None and len(anchors) != n:
        raise ValueError(f"anchors must have {n} entries")
    with ctx.guard():
        return _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors, generator_weights)


def _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors, generator_weights):
    n = model.dimension
    point = tuple(ctx.num(x) for x in point)
    names = t_names(n)
    caps = Caps.total(names, order)
    cjets = model.structure_constant_jets(point, order, ctx)

    conformal = model.euler is not None and generator_weights is None
    if conformal:
        gen = _euler_multiplication_jet(model, point, ctx, cjets, caps)
    else:
        weights = generator_weights or _default_weights(n)
        gen = None
        for a in range(n):
            term = mat_scale(cjets[a], ctx.num(weights[a]))
            gen = term if gen is None else mat_add(gen, term)

    one = TruncatedSeries.const(caps, ctx.num(1))
    chi = charpoly(gen, one, lambda s, k: s.scale(Fraction(1, k)))
    chi0 = [c.constant_term() for c in chi]
    try:
        roots = mpmath.polyroots(
            [mpmath.mpc(c) for c in chi0], maxsteps=200, extraprec=ctx.prec_bits
        )
    except mpmath.libmp.NoConvergence as exc:
        # root refinement stalls exactly when roots collide
        raise NonSemisimpleError(
            "eigenvalue refinement did not converge; multiplication is likely non-semisimple here"
        ) from exc
    roots = [mpmath.mpc(r) for r in roots]

    scale = max(mpmath.mpf(1), max(mpmath.fabs(r) for r in roots))
    # root-finder jitter on a collided (double) root is ~2^(-prec/2), well
    # above ctx.tol; the separation test must sit above that jitter
    sep = max(ctx.tol, mpmath.mpf(2) ** (16 - ctx.prec_bits // 2))
    for i in range(n):
        for j in range(i + 1, n):
            if mpmath.fabs(roots[i] - roots[j]) <= sep * scale:
                raise NonSemisimpleError(
                    f"multiplication eigenvalues {i} and {j} coincide within tolerance"
                )

    roots.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
    if permutation is not None:
        if sorted(permutation) != list(range(n)):
            raise ValueError("permutation must reorder 0..N-1")
        roots = [roots[p] for p in permutation]

    lam = [_hensel_lift(chi, r0, caps, ctx, order) for r0 in roots]

    projectors = _lagrange_projectors(gen, lam, caps, ctx)
    idem = [[projectors[i][a][model.unit_index] for a in range(n)] for i in range(n)]

    du = []
    for i in range(n):
        row = []
        for a in range(n):
            row.append(trace(mat_mul(cjets[a], projectors[i])))
        du.append(row)

    if conformal:
        u = [l.copy() for l in lam]
        resid = _du_consistency(u, du, names, ctx, order)
    else:
        anchors = anchors or [0] * n
        u = [_integrate_gradient(du[i], names, caps, order, ctx.num(anchors[i])) for i in range(n)]
        resid = _du_consistency(u, du, names, ctx, order)

    g = model.metric
    delta, sqrt_delta = [], []
    flips = list(sign_flips) if sign_flips is not None else [1] * n
    for i in range(n):
        eta = None
        for a in range(n):
            for b in range(n):
                if g[a][b] == 0:
                    continue
                term = (idem[i][a] * idem[i][b]).scale(g[a][b])
                eta = term if eta is None else eta + term
        c0 = eta.constant_term()
        if mpmath.fabs(c0) <= ctx.tol:
            raise DegenerateFrameError(f"idempotent {i} has zero squared length")
        dlt = eta.inverse()
        delta.append(dlt)
        sqrt_delta.append(dlt.sqrt(ctx).scale(ctx.num(flips[i])))

    psi = []
    for i in range(n):
        inv_sqrt = sqrt_delta[i].inverse()
        psi.append([inv_sqrt * du[i][a] for a in range(n)])

    return CanonicalFrame(
        model=model,
        point=point,
        ctx=ctx,
        order=order,
        u=u,
        du=du,
        delta=delta,
        sqrt_delta=sqrt_delta,
        psi=psi,
        idempotents=idem,
        conformal=conformal,
        residual=resid,
    )


def _default_weights(n: int) -> list:
    # fixed, deterministic, and generic for every model in the test family
    return [Fraction(2 * a + 1, 1) for a in range(n)]


def _euler_multiplication_jet(model, point, ctx, cjets, caps):
    n = model.dimension
    e = model.euler
    evals = e.components(point, ctx)
    gen = None
    for a in range(n):
        ejet = TruncatedSeries.const(caps, evals[a])
        for b in range(n):
            if e.matrix[a][b]:
                ejet = ejet + TruncatedSeries.var(caps, f"t{b}", 1, ctx.num(e.matrix[a][b]))
        term = mat_scale(cjets[a], ejet)
        gen = term if gen is None else mat_add(gen, term)
    return gen


def _hensel_lift(chi, root0, caps, ctx, order):
    """Newton-lift a simple root of a jet-coefficient polynomial."""
    n = len(chi) - 1
    dchi = [chi[k].scale(n - k) for k in range(n)]
    lam = TruncatedSeries.const(caps, root0)
    steps = 1
    while (1 << steps) < order + 1:
        steps += 1
    for _ in range(steps + 1):
        p = poly_eval(chi, lam)
        dp = poly_eval(dchi, lam)
        lam = lam - p * dp.inverse()
    return lam


def _lagrange_projectors(gen, lam, caps, ctx):
    n = len(lam)
    size = len(gen)
    projectors = []
    for i in range(n):
        mat = identity(size, TruncatedSeries.const(caps, ctx.num(1)), TruncatedSeries.zero(caps))
        for j in range(n):
            if j == i:
                continue
            shifted = [
                [gen[r][c] - lam[j] if r == c else gen[r][c] for c in range(size)]
                for r in range(size)
            ]
            denom_inv = (lam[i] - lam[j]).inverse()
            shifted = [[e * denom_inv for e in row] for row in shifted]
            mat = mat_mul(mat, shifted)
        projectors.append(mat)
    return projectors


def _du_consistency(u, du, names, ctx, order):
    """Max mismatch between the stored du jets and derivatives of u."""
    worst = ctx.num(0)
    for i, ujet in enumerate(u):
        for a, nm in enumerate(names):
            diff = ujet.partial(nm) - du[i][a]
            # derivative content is only valid to order-1
            for key, v in diff.c.items():
                if sum(key) <= order - 1:
                    worst = max(worst, mpmath.fabs(v))
    return worst


def _integrate_gradient(grad, names, caps, order, anchor):
    """Rebuild a jet from its gradient jets plus a constant."""
    out = TruncatedSeries.const(caps, anchor)
    seen = {}
    for a, nm in enumerate(names):
        ia = a
        for key, v in grad[a].c.items():
            nk = list(key)
            nk[ia] += 1
            nk = tuple(nk)
            if sum(nk) > order:
                continue
            c = v / nk[ia]
            if nk in seen:
                continue
            seen[nk] = c
    for k, v in seen.items():
        out = out + TruncatedSeries(caps, {k: v})
    return out


def frame_invariant_residuals(frame: CanonicalFrame) -> dict:
    """Numerical residuals of the defining identities, for tests and reports.

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
            (prod[i][j] - eye[i][j]).max_abs(ctx) for i in range(n) for j in range(n)
        )

        unit_resid = ctx.num(0)
        for a in range(n):
            acc = frame.idempotents[0][a]
            for i in range(1, n):
                acc = acc + frame.idempotents[i][a]
            target = 1 if a == model.unit_index else 0
            unit_resid = max(unit_resid, (acc - target).max_abs(ctx))
        out["unit_decomposition"] = unit_resid

        cjets = model.structure_constant_jets(frame.point, frame.order, ctx)
        diag_resid = ctx.num(0)
        for a in range(n):
            m = mat_mul(frame.psi, mat_mul(cjets[a], psi_inv))
            for i in range(n):
                for j in range(n):
                    expect = frame.du[i][a] if i == j else None
                    diff = m[i][j] - expect if expect is not None else m[i][j]
                    diag_resid = max(diag_resid, diff.max_abs(ctx))
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
