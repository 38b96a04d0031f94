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
characteristic polynomial of a multiplication operator A: the Euler
multiplication when the model has Euler data (a conformal frame), else the
fixed combination sum_a (2a + 1) C_a, whose u are integrated from anchors.
Aberth's iteration in complex doubles seeds them on chi_0 shifted to the
mean of its roots, and Newton's iteration refines the seeds on kernel
scalars (``scalars.GaussianFixed``), with a step count fixed by the
precision.  An exact chi_0 with a repeated root is refused before any step,
and a separation test refuses roots whose gaps the working precision cannot
resolve to the tolerance.  For order >= 1, Newton iteration on the
characteristic polynomial of the jets lifts them to eigenvalue jets.  The
idempotent e_i is the Lagrange polynomial prod_{j != i} (A - u_j) / (u_i -
u_j) applied to the unit vector, N - 1 matrix-vector products; since
eta(d_a, e_i) = d_a u^i eta(e_i, e_i), the metric then gives d_a u^i =
Delta_i eta(d_a, e_i) and Psi^i_a = Delta_i^{1/2} eta(d_a, e_i).  So every
step is a ring operation, an inverse or a square root.

The same steps run on jets for order >= 1 and, at order 0, on kernel
scalars at the point.  There C_a and the Euler field are evaluated once:
exactly when the potential has no exponential and the point is rational, at
working precision otherwise, and converted to kernel scalars at once.  No
mpmath arithmetic follows.  The returned :class:`CanonicalFrame` holds the
values at working precision as series (of one term at order 0).

On either ring the frame is the one producer of R's starting data: its
``kernel`` (:class:`FrameKernel`) holds Delta, sqrt(Delta), Psi and, on a
conformal frame, the gaps u_j - u_i at the point as kernel scalars of one
scale, the scale of R.  R, V and T start from it and convert none of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

import mpmath

from .expressions import t_names
from .frobenius import FrobeniusModel
from .linalg import charpoly, mat_add, mat_mul, mat_scale, poly_eval, sum_entries
from .scalars import (
    EXACT,
    FloatContext,
    GaussianFixed,
    _exponent,
    _fixed_type,
    _kernel_shift,
    from_kernel,
)
from .series import Caps, TruncatedSeries


class NonSemisimpleError(ArithmeticError):
    """The multiplication operator has (numerically) repeated eigenvalues."""


class DegenerateFrameError(ArithmeticError):
    """An idempotent has (numerically) zero squared length."""


def _entry(x):
    """``x`` as an entry of R: the int 0 when it vanishes, so an exact zero
    reads and prints the same on every route."""
    return x if x or x != 0 else 0


class FrameKernel(NamedTuple):
    """The frame's values at the point as kernel scalars of one scale, the
    scale of R (:func:`_one_scale`).

    ``kind`` is the :class:`scalars.GaussianFixed` type of that scale.
    ``gaps`` maps (i, j), i < j, to u_j - u_i on a conformal frame and is
    empty otherwise."""

    kind: type
    delta: list
    sqrt_delta: list
    psi: list
    gaps: dict

    def at_scale(self, values) -> list:
        """``values`` (numbers of any backend) as kernel scalars of this
        scale; an exact zero stays the int 0."""
        return [_entry(self.kind.convert(x)) for x in values]


def _one_scale(ctx: FloatContext, u, delta, sqrt_delta, psi, conformal: bool) -> FrameKernel:
    """The values at the point at one scale: the
    :func:`scalars._kernel_shift` of Delta, sqrt(Delta), Psi and, on a
    conformal frame, the gaps u_j - u_i.  So the reciprocals R and T take,
    1/(u_j - u_i) and 1/sqrt(Delta_i), keep the working precision, and the
    products of Psi that form V = Psi mu Psi^{-1} stay exact to the scale
    of their largest factor.  Jets hand in their constant terms, whose gaps
    are formed at working precision (the order-0 ring settles its kernel
    scalars itself, ``_Kernel.settle``).  A frame that is not conformal has
    no gaps: its u are integrated from anchors, not eigenvalues."""
    n = len(u)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if conformal else []
    gaps = [u[j] - u[i] for i, j in pairs]
    flat = ctx.to_kernel([*gaps, *delta, *sqrt_delta, *(x for row in psi for x in row)])
    it = iter(flat)
    return FrameKernel(
        kind=flat[0].__class__,
        gaps={pair: next(it) for pair in pairs},
        delta=[next(it) for _ in range(n)],
        sqrt_delta=[next(it) for _ in range(n)],
        psi=[[next(it) for _ in range(n)] for _ in range(n)],
    )


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
    kernel: FrameKernel
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
    if permutation is not None and sorted(permutation) != list(range(n)):
        raise ValueError("permutation must reorder 0..N-1")
    with ctx.guard():
        return _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors)


class _Jets:
    """The frame's ring, jets of total degree <= order: beyond +, - and *,
    the frame steps call only these methods."""

    def __init__(self, names, order: int, ctx: FloatContext):
        self.names, self.order, self.ctx = names, order, ctx
        self.caps = Caps.total(names, order)

    def point_data(self, model: FrobeniusModel, point, where):
        """The C_a and the Euler field's components (None without Euler
        data) as jets and values at the point ``where`` (working
        precision; ``point`` as given)."""
        evals = model.euler.components(where, self.ctx) if model.euler is not None else None
        return model.structure_constant_jets(where, self.order, self.ctx), evals

    def number(self, x):
        """The rational constant ``x`` as a coefficient."""
        return self.ctx.num(x)

    def const(self, x):
        return TruncatedSeries.const(self.caps, x)

    def var(self, name: str, coeff):
        """``coeff`` times the displacement of coordinate ``name``."""
        return TruncatedSeries.var(self.caps, name, 1, coeff)

    def eigenvalues(self, gen, chi, roots):
        """The generator and the eigenvalue jets, Newton-lifted from the
        roots at the point."""
        lam = [_hensel_lift(chi, mpmath.mpc(self.ctx.num(r)), self, self.order) for r in roots]
        return gen, lam

    def inverse(self, x):
        return x.inverse()

    def sqrt(self, x):
        return x.sqrt(self.ctx)

    def value(self, x):
        """The value at the point (the constant term)."""
        return x.constant_term()

    least_shift = 0

    def settle(self, u, delta, sqrt_delta, psi, conformal) -> FrameKernel:
        """The constant terms at one scale (:func:`_one_scale`)."""
        return _one_scale(
            self.ctx,
            [x.constant_term() for x in u],
            [x.constant_term() for x in delta],
            [x.constant_term() for x in sqrt_delta],
            [[x.constant_term() for x in row] for row in psi],
            conformal,
        )

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
        return self.const(self.ctx.num(anchor)) + TruncatedSeries(self.caps, seen)

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


class _Kernel:
    """The same methods on kernel scalars at the point (order 0), where
    every displacement is zero and no derivative is left to integrate or
    check.  C_a, E and chi_0 are exact rationals or kernel scalars; from
    the roots on, every value is a kernel scalar at the roots' scale."""

    def __init__(self, names, ctx: FloatContext, least_shift: int):
        self.ctx = ctx
        self.caps = Caps.total(names, 0)
        self.least_shift = least_shift
        self.kind = None

    def point_data(self, model: FrobeniusModel, point, where):
        """C_a and E at the point: exact when the potential has no
        exponential and ``point`` is rational, else at ``where`` at working
        precision and converted to kernel scalars of one scale."""
        exact = model.rational_at(point)
        ctx, point = (EXACT, point) if exact else (self.ctx, where)
        cmats = model.structure_constants(point, ctx)
        evals = model.euler.components(point, ctx) if model.euler is not None else None
        if exact:
            return cmats, evals
        n = model.dimension
        flat = [x for mat in cmats for row in mat for x in row] + (evals or [])
        flat = iter(self.ctx.to_kernel(flat))
        cmats = [[[next(flat) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return cmats, evals and list(flat)

    def number(self, x):
        """Exact before the roots, a kernel scalar at their scale after."""
        return self.kind.convert(x) if self.kind else Fraction(x)

    def const(self, x):
        return x

    def var(self, name: str, coeff):
        return 0

    def eigenvalues(self, gen, chi, roots):
        """The generator at the roots' scale, and the roots."""
        self.kind = roots[0].__class__
        return [[self.kind.convert(x) for x in row] for row in gen], roots

    def inverse(self, x):
        return 1 / x

    def sqrt(self, x):
        return x.sqrt()

    def value(self, x):
        return x

    def settle(self, u, delta, sqrt_delta, psi, conformal) -> Optional[FrameKernel]:
        """The values at one scale, the ``_kernel_shift`` of the gaps u_j -
        u_i (conformal frames), Delta, sqrt(Delta) and Psi, as
        :func:`_one_scale` picks it for jets; the gaps are formed again from
        the converted u, exactly.  When that scale is finer than the one
        they were computed at, and they were not computed at a least scale
        already, it becomes ``least_shift``, the least scale of one rerun,
        and nothing is returned."""
        n = len(u)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if conformal else []
        gaps = [u[j] - u[i] for i, j in pairs]
        values = [*gaps, *delta, *sqrt_delta, *(x for row in psi for x in row)]
        shift = _kernel_shift(self.ctx.prec_bits, values)
        if shift > self.kind.shift and not self.least_shift:
            self.least_shift = shift
            return None
        kind = _fixed_type(shift, self.ctx.prec_bits)
        out = kind.convert
        u = [out(x) for x in u]
        return FrameKernel(
            kind=kind,
            gaps={(i, j): u[j] - u[i] for i, j in pairs},
            delta=[out(x) for x in delta],
            sqrt_delta=[out(x) for x in sqrt_delta],
            psi=[[out(x) for x in row] for row in psi],
        )

    def series(self, x) -> TruncatedSeries:
        return TruncatedSeries.const(self.caps, from_kernel(x))

    def integrate(self, grad, anchor):
        return self.kind.convert(anchor)

    def du_consistency(self, u, du):
        return self.ctx.num(0)


def _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors, least_shift=0):
    n = model.dimension
    names = t_names(n)
    where = tuple(ctx.num(x) for x in point)
    ring = _Jets(names, order, ctx) if order else _Kernel(names, ctx, least_shift)
    cmats, evals = ring.point_data(model, point, where)

    conformal = model.euler is not None
    if conformal:
        gen = _euler_multiplication(model, cmats, evals, ring)
    else:
        weights = _default_weights(n)
        gen = None
        for a in range(n):
            term = mat_scale(cmats[a], ring.number(weights[a]))
            gen = term if gen is None else mat_add(gen, term)

    chi = charpoly(gen, ring.const(ring.number(1)), lambda s, k: s * Fraction(1, k))
    roots = _roots([ring.value(c) for c in chi], ctx, least_shift)
    roots.sort(key=lambda z: (z.re, z.im))
    if permutation is not None:
        roots = [roots[p] for p in permutation]
    gen, lam = ring.eigenvalues(gen, chi, roots)
    idem = _idempotents(gen, lam, model.unit_index, ring)

    # eta(d_a, e_i) = du^i_a eta(e_i, e_i): with the lowered idempotent
    # w_a = sum_b eta_ab e_i^b, du^i_a = Delta_i w_a and Psi^i_a = sqrt(Delta_i) w_a
    g = [[ring.number(x) if x else None for x in row] for row in model.metric]
    flips = list(sign_flips) if sign_flips is not None else [1] * n
    delta, sqrt_delta, du, psi = [], [], [], []
    for i in range(n):
        low = [
            sum_entries([idem[i][b] * g[a][b] for b in range(n) if g[a][b] is not None])
            for a in range(n)
        ]
        eta = sum_entries([idem[i][a] * low[a] for a in range(n)])
        if _negligible(ring.value(eta), ctx):
            raise DegenerateFrameError(f"idempotent {i} has zero squared length")
        dlt = ring.inverse(eta)
        root = ring.sqrt(dlt) * flips[i]
        delta.append(dlt)
        sqrt_delta.append(root)
        du.append([dlt * w for w in low])
        psi.append([root * w for w in low])

    if conformal:
        u = lam
    else:
        anchors = anchors or [0] * n
        u = [ring.integrate(du[i], anchors[i]) for i in range(n)]
    resid = ring.du_consistency(u, du)
    kernel = ring.settle(u, delta, sqrt_delta, psi, conformal)
    if ring.least_shift > least_shift:
        return _frame_impl(model, point, ctx, order, permutation, sign_flips, anchors,
                           ring.least_shift)

    def rows(matrix):
        return [[ring.series(x) for x in row] for row in matrix]

    return CanonicalFrame(
        model=model,
        point=where,
        ctx=ctx,
        order=order,
        u=[ring.series(x) for x in u],
        du=rows(du),
        delta=[ring.series(x) for x in delta],
        sqrt_delta=[ring.series(x) for x in sqrt_delta],
        psi=rows(psi),
        idempotents=rows(idem),
        residual=resid,
        kernel=kernel,
    )


def _default_weights(n: int) -> list:
    # fixed, deterministic, and generic for every model in the test family
    return [Fraction(2 * a + 1, 1) for a in range(n)]


def _euler_multiplication(model, cmats, evals, ring):
    """sum_a E^a C_a, with E^a an element of the ring."""
    n = model.dimension
    e = model.euler
    gen = None
    for a in range(n):
        ejet = ring.const(evals[a])
        for b in range(n):
            if e.matrix[a][b]:
                ejet = ejet + ring.var(f"t{b}", ring.number(e.matrix[a][b]))
        term = mat_scale(cmats[a], ejet)
        gen = term if gen is None else mat_add(gen, term)
    return gen


def _negligible(x, ctx: FloatContext) -> bool:
    """|x| <= ctx.tol, for a kernel scalar by its integer norm."""
    if isinstance(x, GaussianFixed):
        tol = x.convert(ctx.tol).re
        return x.re * x.re + x.im * x.im <= tol * tol
    return mpmath.fabs(x) <= ctx.tol


SEED_BITS = 24
"""Correct bits a seed is taken to carry; Newton's iteration doubles them."""

HEADROOM_BITS = 8
"""Bits the roots' scale carries beyond the ``_kernel_shift`` of chi_0, the
seeds and their gaps, for Delta and Psi, whose exponents reach a few bits
further; a frame whose values need more runs again at their scale."""


def _roots(chi0, ctx: FloatContext, least_shift: int = 0) -> list:
    """The roots of the monic chi_0 (exact, mpmath or kernel-scalar
    coefficients, leading first) as kernel scalars of one scale.

    Exact coefficients with a repeated root raise NonSemisimpleError first.
    Aberth's iteration seeds the roots in complex doubles on chi_0 shifted
    to their mean, so a close pair shows its gap to double precision.
    Newton's iteration refines each seed at the ``_kernel_shift`` of chi_0,
    the seeds and their gaps, plus HEADROOM_BITS (at least
    ``least_shift``).  Each step doubles the SEED_BITS of a seed, which
    fixes the step count by the scale, and one step more gives the size
    that certifies convergence to :func:`_check_separation`.  A real chi_0 gets real roots exactly real
    and complex roots in exactly conjugate pairs, so their order and the
    branch of sqrt(Delta) do not hang on rounding."""
    n = len(chi0) - 1
    if all(isinstance(c, (int, Fraction)) for c in chi0) and _repeated_root(chi0):
        raise NonSemisimpleError(
            "multiplication eigenvalues coincide: the characteristic polynomial has a "
            "repeated root (its discriminant is exactly 0)"
        )
    coeffs = ctx.to_kernel(list(chi0))
    center = coeffs[1] * Fraction(-1, n)
    seeds = _root_seeds(_taylor_shift(coeffs, center))
    mid = complex(_double(center.re, -center.shift), _double(center.im, -center.shift))
    spots = [mid + y for y in seeds]
    spots += [y - z for k, y in enumerate(seeds) for z in seeds[k + 1 :]]
    reach = _kernel_shift(ctx.prec_bits, spots) + HEADROOM_BITS
    shift = max(coeffs[0].shift, least_shift, reach)
    kind = _fixed_type(shift, ctx.prec_bits)
    coeffs = [kind.convert(c) for c in coeffs]
    center = kind.convert(center)
    dcoeffs = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    # SEED_BITS 2^(count - 1) >= shift: the last step is at the noise
    count = (-(-shift // SEED_BITS) - 1).bit_length() + 1

    def refine(y):
        z = center + kind.convert(y)
        try:
            for _ in range(count):
                step = poly_eval(coeffs, z) / poly_eval(dcoeffs, z)
                z = z - step
        except ZeroDivisionError:
            raise NonSemisimpleError(
                "eigenvalue refinement met a critical point; multiplication is likely "
                "non-semisimple here"
            ) from None
        return z, step

    split = _conjugate_split(seeds) if not any(c.im for c in coeffs) else None
    if split is None:
        refined = [refine(y) for y in seeds]
    else:
        reals, uppers = split
        refined = [refine(y) for y in reals]
        for z, step in map(refine, uppers):
            refined += [(z, step), (kind(z.re, -z.im), kind(step.re, -step.im))]
    roots = [z for z, _ in refined]
    _check_separation(roots, ctx, [step for _, step in refined])
    return roots


def _repeated_root(coeffs) -> bool:
    """Whether the exact monic polynomial ``coeffs`` has a repeated root:
    its gcd with its derivative, by Euclid's algorithm, is not constant."""
    n = len(coeffs) - 1
    a, b = list(coeffs), _stripped([c * (n - k) for k, c in enumerate(coeffs[:-1])])
    while b:
        while len(a) >= len(b):
            f = a[0] / b[0]
            pad = b[1:] + [0] * (len(a) - len(b))
            a = _stripped([x - f * y for x, y in zip(a[1:], pad)])
        a, b = b, a
    return len(a) > 1


def _stripped(p: list) -> list:
    """``p`` without its leading zero coefficients."""
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return p[k:]


def _taylor_shift(coeffs, c) -> list:
    """The coefficients of p(y + c) for p = ``coeffs`` (leading first), by
    repeated synthetic division."""
    out = list(coeffs)
    n = len(out) - 1
    for i in range(n):
        for j in range(1, n + 1 - i):
            out[j] = out[j] + c * out[j - 1]
    return out


def _double(m: int, e: int) -> float:
    """m 2**e as a double, from the top bits of m (0.0 below the range)."""
    drop = max(m.bit_length() - 64, 0)
    return math.ldexp(m >> drop, e + drop)


def _conjugate_split(seeds) -> Optional[tuple]:
    """The seeds of a real polynomial as (real parts of the real roots,
    roots in the upper half plane): a seed is real when no other seed lies
    nearer to its mirror image than itself.  None when the others do not
    pair up across the real axis."""
    reals, uppers, lowers = [], [], 0
    for i, y in enumerate(seeds):
        mirror = y.conjugate()
        if min(range(len(seeds)), key=lambda j: abs(seeds[j] - mirror)) == i:
            reals.append(y.real)
        elif y.imag > 0:
            uppers.append(y)
        else:
            lowers += 1
    return (reals, uppers) if lowers == len(uppers) else None


def _root_seeds(coeffs) -> list:
    """Starting points for Newton's iteration: Aberth's iteration (Math.
    Comp. 27, 1973) in complex doubles on the monic kernel-scalar
    ``coeffs``, after the substitution x = 2^s y that brings every
    coefficient to modulus <= 1, so none overflows or loses its exponent in
    a double.  A seed that leaves the doubles raises ``ArithmeticError``
    where it enters the kernel scale."""
    n = len(coeffs) - 1
    # |c_k| <= 2^(s k) bounds every root by 2 * 2^s (Fujiwara)
    tops = [(k, _exponent(c)) for k, c in enumerate(coeffs)]
    s = max((-(-e // k) for k, e in tops if k and e is not None), default=0)
    a = [
        complex(_double(c.re, -c.shift - s * k), _double(c.im, -c.shift - s * k))
        for k, c in enumerate(coeffs)
    ]
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
    return [complex(math.ldexp(x.real, s), math.ldexp(x.imag, s)) for x in z]


def _log2_abs(x: GaussianFixed) -> float:
    """log2 |x| from the integer norm, -inf for 0."""
    norm = x.re * x.re + x.im * x.im
    return math.log2(norm) / 2 - x.shift if norm else -math.inf


def _check_separation(roots, ctx: FloatContext, steps) -> None:
    """Refuse eigenvalues whose separation the working precision cannot
    resolve to ``ctx.tol``, and roots whose last Newton step ``steps``
    exceeds that error.

    The coefficients c_k of chi_0 carry relative rounding errors eps =
    2^-prec on terms of size up to binom(N, k) s^k, with s = max(1, |lam|).
    To first order that moves the simple root lam_i by
        err_i = eps ((s + |lam_i|)^N - |lam_i|^N) / |chi_0'(lam_i)|,
    chi_0'(lam_i) = prod_{j != i} (lam_i - lam_j), and the separation
    |lam_i - lam_j| by err_i + err_j.  Newton's iteration runs at least
    ``scalars.GUARD_BITS`` finer than eps and adds nothing comparable.  A collided root shows as
    a separation of about 2^(-prec/2) s, where the relative error reaches
    1.  The estimate is formed on log2 of the sizes, in doubles."""
    n = len(roots)
    gaps = {}
    for i in range(n):
        for j in range(i + 1, n):
            gaps[i, j] = gaps[j, i] = _log2_abs(roots[i] - roots[j])
    mods = [_log2_abs(r) for r in roots]
    size = max([0.0] + mods)
    err = []
    for i in range(n):
        slope = sum(gaps[i, j] for j in range(n) if j != i)
        # log2 of (s + |lam_i|)^N - |lam_i|^N, with |lam_i| / s in [0, 1]
        ratio = 2.0 ** (mods[i] - size)
        growth = n * size + math.log2((1 + ratio) ** n - ratio**n)
        err.append(math.inf if slope == -math.inf else growth - slope - ctx.prec_bits)
    _, man, exp, _ = ctx.tol._mpf_
    tol = math.log2(man) + exp if man else -math.inf
    for i in range(n):
        for j in range(i + 1, n):
            hi, lo = max(err[i], err[j]), min(err[i], err[j])
            gap = gaps[i, j]
            if hi == math.inf or gap == -math.inf:
                rel = math.inf
            else:
                rel = hi + math.log2(1 + 2.0 ** (lo - hi)) - gap
            if rel > tol:
                with mpmath.workprec(53):
                    gap = mpmath.fabs(from_kernel(roots[i] - roots[j]))
                    raise NonSemisimpleError(
                        f"multiplication eigenvalues {i} and {j} coincide within tolerance: "
                        f"their separation {mpmath.nstr(gap, 3)} is "
                        f"known only to {mpmath.nstr(mpmath.mpf(2) ** rel, 3)} relative at "
                        f"{ctx.prec_bits} bits, above the tolerance {mpmath.nstr(ctx.tol, 3)}"
                    )
    for i, step in enumerate(steps):
        if _log2_abs(step) > err[i]:
            raise NonSemisimpleError(
                "eigenvalue refinement did not converge; multiplication is likely non-semisimple here"
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


def _idempotents(gen, lam, unit, ring):
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
            vec = [ring.const(ring.number(int(r == unit))) for r in range(size)]
        else:
            scale = ring.inverse(denom)
            vec = [x * scale for x in vec]
        out.append(vec)
    return out
