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

The eigenvalues at the point are the roots of chi_0, the order-zero
characteristic polynomial of a multiplication operator A (the Euler
multiplication for conformal models, a fixed generic combination otherwise).
``mpmath.polyroots`` refines them at twice the working precision from seeds
that Aberth's iteration finds in complex doubles; a separation test then
refuses roots whose gaps the working precision cannot resolve to the
tolerance.  For order >= 1, Newton iteration on the characteristic
polynomial of the jets lifts them to eigenvalue jets.  The idempotent e_i is
the Lagrange polynomial prod_{j != i} (A - u_j) / (u_i - u_j) applied to the
unit vector, N - 1 matrix-vector products; since eta(d_a, e_i) =
d_a u^i eta(e_i, e_i), the metric then gives d_a u^i = Delta_i eta(d_a, e_i)
and Psi^i_a = Delta_i^{1/2} eta(d_a, e_i).  So every step is a ring
operation, an inverse or a square root.  The same steps run on jets for
order >= 1 and, at order 0, on mpmath values at the point, which become
one-term series only in the returned :class:`CanonicalFrame`.

Everything here is float-backend only: eigenvalues and square roots leave
the rationals even for rational models.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import mpmath

from .expressions import t_names
from .frobenius import FrobeniusModel
from .linalg import charpoly, mat_add, mat_mul, mat_scale, poly_eval, sum_entries
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


class _Jets:
    """The frame's ring, jets of total degree <= order: beyond +, - and *,
    the frame steps call only these methods."""

    def __init__(self, names, order: int, ctx: FloatContext):
        self.names, self.order, self.ctx = names, order, ctx
        self.caps = Caps.total(names, order)

    def multiplication(self, model: FrobeniusModel, point):
        return model.structure_constant_jets(point, self.order, self.ctx)

    def const(self, x):
        return TruncatedSeries.const(self.caps, x)

    def var(self, name: str, coeff):
        """``coeff`` times the displacement of coordinate ``name``."""
        return TruncatedSeries.var(self.caps, name, 1, coeff)

    def inverse(self, x):
        return x.inverse()

    def sqrt(self, x):
        return x.sqrt(self.ctx)

    def value(self, x):
        """The value at the point (the constant term)."""
        return x.constant_term()

    def series(self, x) -> TruncatedSeries:
        return x

    def integrate(self, grad, anchor):
        """Rebuild a jet from its gradient jets plus a constant."""
        seen = {}
        for a in range(len(self.names)):
            for key, v in grad[a].c.items():
                nk = key[:a] + (key[a] + 1,) + key[a + 1 :]
                if nk not in seen:
                    seen[nk] = v / nk[a]
        # the caps drop the keys above the order
        return self.const(anchor) + TruncatedSeries(self.caps, seen)

    def du_consistency(self, u, du):
        """Max mismatch between the stored du jets and derivatives of u."""
        worst = self.ctx.num(0)
        for i, ujet in enumerate(u):
            for a, nm in enumerate(self.names):
                diff = ujet.partial(nm) - du[i][a]
                # derivative content is only valid to order-1
                for key, v in diff.c.items():
                    if sum(key) <= self.order - 1:
                        worst = max(worst, mpmath.fabs(v))
        return worst


class _Values:
    """The same methods on values at the point (order 0), where every
    displacement is zero and no derivative is left to integrate or check."""

    def __init__(self, names, ctx: FloatContext):
        self.ctx = ctx
        self.caps = Caps.total(names, 0)

    def multiplication(self, model: FrobeniusModel, point):
        return model.structure_constants(point, self.ctx)

    def const(self, x):
        return x

    def var(self, name: str, coeff):
        return 0

    def inverse(self, x):
        return 1 / x

    def sqrt(self, x):
        return self.ctx.sqrt(x)

    def value(self, x):
        return x

    def series(self, x) -> TruncatedSeries:
        return TruncatedSeries.const(self.caps, x)

    def integrate(self, grad, anchor):
        return anchor

    def du_consistency(self, u, du):
        return self.ctx.num(0)


def _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors, generator_weights):
    n = model.dimension
    point = tuple(ctx.num(x) for x in point)
    names = t_names(n)
    ring = _Jets(names, order, ctx) if order else _Values(names, ctx)
    cmats = ring.multiplication(model, point)

    conformal = model.euler is not None and generator_weights is None
    if conformal:
        gen = _euler_multiplication(model, point, ctx, cmats, ring)
    else:
        weights = generator_weights or _default_weights(n)
        gen = None
        for a in range(n):
            term = mat_scale(cmats[a], ctx.num(weights[a]))
            gen = term if gen is None else mat_add(gen, term)

    chi = charpoly(gen, ring.const(ctx.num(1)), lambda s, k: s * Fraction(1, k))
    chi0 = [mpmath.mpc(ring.value(c)) for c in chi]
    try:
        roots = mpmath.polyroots(
            chi0, maxsteps=200, extraprec=ctx.prec_bits, roots_init=_root_seeds(chi0)
        )
    except mpmath.libmp.NoConvergence as exc:
        # root refinement stalls exactly when roots collide
        raise NonSemisimpleError(
            "eigenvalue refinement did not converge; multiplication is likely non-semisimple here"
        ) from exc
    roots = [mpmath.mpc(r) for r in roots]
    _check_separation(roots, ctx)

    roots.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
    if permutation is not None:
        if sorted(permutation) != list(range(n)):
            raise ValueError("permutation must reorder 0..N-1")
        roots = [roots[p] for p in permutation]

    # polyroots already refines at twice the working precision; only jets
    # need the Newton lift
    lam = [_hensel_lift(chi, r0, ring, order) for r0 in roots] if order else roots
    idem = _idempotents(gen, lam, model.unit_index, ring, ctx)

    # eta(d_a, e_i) = du^i_a eta(e_i, e_i): with the lowered idempotent
    # w_a = sum_b eta_ab e_i^b, du^i_a = Delta_i w_a and Psi^i_a = sqrt(Delta_i) w_a
    g = [[ctx.num(x) if x else None for x in row] for row in model.metric]
    flips = list(sign_flips) if sign_flips is not None else [1] * n
    delta, sqrt_delta, du, psi = [], [], [], []
    for i in range(n):
        low = [
            sum_entries([idem[i][b] * g[a][b] for b in range(n) if g[a][b] is not None])
            for a in range(n)
        ]
        eta = sum_entries([idem[i][a] * low[a] for a in range(n)])
        if mpmath.fabs(ring.value(eta)) <= ctx.tol:
            raise DegenerateFrameError(f"idempotent {i} has zero squared length")
        dlt = ring.inverse(eta)
        root = ring.sqrt(dlt) * ctx.num(flips[i])
        delta.append(dlt)
        sqrt_delta.append(root)
        du.append([dlt * w for w in low])
        psi.append([root * w for w in low])

    if conformal:
        u = lam
    else:
        anchors = anchors or [0] * n
        u = [ring.integrate(du[i], ctx.num(anchors[i])) for i in range(n)]
    resid = ring.du_consistency(u, du)

    def rows(table):
        return [[ring.series(x) for x in row] for row in table]

    return CanonicalFrame(
        model=model,
        point=point,
        ctx=ctx,
        order=order,
        u=[ring.series(x) for x in u],
        du=rows(du),
        delta=[ring.series(x) for x in delta],
        sqrt_delta=[ring.series(x) for x in sqrt_delta],
        psi=rows(psi),
        idempotents=rows(idem),
        conformal=conformal,
        residual=resid,
    )


def _default_weights(n: int) -> list:
    # fixed, deterministic, and generic for every model in the test family
    return [Fraction(2 * a + 1, 1) for a in range(n)]


def _euler_multiplication(model, point, ctx, cmats, ring):
    """sum_a E^a C_a, with E^a an element of the ring."""
    n = model.dimension
    e = model.euler
    evals = e.components(point, ctx)
    gen = None
    for a in range(n):
        ejet = ring.const(evals[a])
        for b in range(n):
            if e.matrix[a][b]:
                ejet = ejet + ring.var(f"t{b}", ctx.num(e.matrix[a][b]))
        term = mat_scale(cmats[a], ejet)
        gen = term if gen is None else mat_add(gen, term)
    return gen


def _root_seeds(coeffs) -> list:
    """Starting points for polyroots: Aberth's iteration (Math. Comp. 27,
    1973) in complex doubles on the monic ``coeffs``, after the substitution
    x = 2^s y that brings every coefficient to modulus <= 1, so none
    overflows or loses its exponent in a double."""
    n = len(coeffs) - 1
    # |c_k| <= 2^(s k) bounds every root by 2 * 2^s (Fujiwara)
    s = max((-(-mpmath.mag(c) // k) for k, c in enumerate(coeffs) if k and c), default=0)
    a = [complex(c * mpmath.ldexp(1, -s * k)) for k, c in enumerate(coeffs)]
    da = [c * (n - k) for k, c in enumerate(a[:-1])]
    z = [cmath.rect(1, 0.4 + 2 * math.pi * k / n) - a[1] / n for k in range(n)]
    for _ in range(50):
        worst = 0.0
        for i, zi in enumerate(z):
            p = dp = 0j
            for c in a:
                p = p * zi + c
            for c in da:
                dp = dp * zi + c
            if p == 0 or dp == 0:
                continue
            ratio = p / dp
            pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i and zj != zi)
            step = ratio / (1 - ratio * pull) if ratio * pull != 1 else ratio
            z[i] = zi - step
            worst = max(worst, abs(step))
        if worst < 1e-14:
            break
    if not all(cmath.isfinite(x) for x in z):
        return None
    return [mpmath.mpc(x) * mpmath.ldexp(1, s) for x in z]


def _check_separation(roots, ctx: FloatContext) -> None:
    """Refuse eigenvalues whose separation the working precision cannot
    resolve to ``ctx.tol``.

    The coefficients c_k of chi_0 carry relative rounding errors eps =
    2^-prec on terms of size up to binom(N, k) s^k, with s = max(1, |lam|).
    To first order that moves the simple root lam_i by
        err_i = eps ((s + |lam_i|)^N - |lam_i|^N) / |chi_0'(lam_i)|,
    chi_0'(lam_i) = prod_{j != i} (lam_i - lam_j), and the separation
    |lam_i - lam_j| by err_i + err_j.  polyroots works at twice the
    precision and adds nothing comparable.  A collided root shows as a
    separation of about 2^(-prec/2) s, where the relative error reaches 1."""
    n = len(roots)
    # the gaps at working precision, the error estimate in a few digits
    gaps = {}
    for i in range(n):
        for j in range(i + 1, n):
            gaps[i, j] = gaps[j, i] = mpmath.fabs(roots[i] - roots[j])
    with mpmath.workprec(53):
        mods = [mpmath.fabs(r) for r in roots]
        size = max([mpmath.mpf(1)] + mods)
        err = []
        for i in range(n):
            slope = mpmath.fprod(gaps[i, j] for j in range(n) if j != i)
            growth = (size + mods[i]) ** n - mods[i] ** n
            err.append(mpmath.ldexp(growth / slope, -ctx.prec_bits) if slope else mpmath.inf)
        for (i, j), gap in gaps.items():
            rel = (err[i] + err[j]) / gap if gap else mpmath.inf
            if i < j and rel > ctx.tol:
                raise NonSemisimpleError(
                    f"multiplication eigenvalues {i} and {j} coincide within tolerance: "
                    f"their separation {mpmath.nstr(gap, 3)} is known only to "
                    f"{mpmath.nstr(rel, 3)} relative at {ctx.prec_bits} bits, above the "
                    f"tolerance {mpmath.nstr(ctx.tol, 3)}"
                )


def _hensel_lift(chi, root0, ring, order):
    """Newton-lift a simple root of a polynomial with coefficients in the ring."""
    n = len(chi) - 1
    dchi = [chi[k] * (n - k) for k in range(n)]
    lam = ring.const(root0)
    # each step doubles the number of correct orders: 2^steps >= order + 1
    for _ in range(max(1, order.bit_length()) + 1):
        p = poly_eval(chi, lam)
        dp = poly_eval(dchi, lam)
        lam = lam - p * ring.inverse(dp)
    return lam


def _idempotents(gen, lam, unit, ring, ctx):
    """e_i = prod_{j != i} (A - lam_j) / (lam_i - lam_j) applied to the unit
    vector: N - 1 matrix-vector products and one inverse per idempotent."""
    n = len(lam)
    size = len(gen)
    out = []
    for i in range(n):
        vec = denom = None
        for j in range(n):
            if j == i:
                continue
            if vec is None:
                # (A - lam_j) times the unit vector is a column of A
                vec = [gen[r][unit] for r in range(size)]
                vec[unit] = vec[unit] - lam[j]
                denom = lam[i] - lam[j]
                continue
            vec = [
                sum_entries([gen[r][c] * vec[c] for c in range(size)]) - lam[j] * vec[r]
                for r in range(size)
            ]
            denom = denom * (lam[i] - lam[j])
        if vec is None:
            vec = [ring.const(ctx.num(int(r == unit))) for r in range(size)]
        else:
            scale = ring.inverse(denom)
            vec = [x * scale for x in vec]
        out.append(vec)
    return out
