"""The asymptotic solution R(z) = 1 + R_1 z + R_2 z^2 + ... at a semisimple
point, and the edge/tail data extracted from it.

For a conformal model Euler homogeneity fixes R pointwise.  With
U = diag(u), the canonical coordinates being the eigenvalues of E, and

    V = Psi mu Psi^{-1},    mu = (1 - D/2) - grad E,    Psi^{-1} = g^{-1} Psi^T,

homogeneity of R combined with flatness reads [R_{k+1}, U] = R_k V - k R_k.
Its off-diagonal part gives (R_{k+1})_{ij} = (R_k V - k R_k)_{ij} / (u_j - u_i),
and its diagonal one order up gives
(R_{k+1})_{ii} = sum_{j != i} (R_{k+1})_{ij} V_{ji} / (k + 1).
:func:`homogeneous_R` runs this from R_0 = 1 on the order-0 frame values,
in O(order N^3) arithmetic and without jets.

There is one solver per normalization, :func:`compute_R`.  The conformal
normalization, the default on a frame built from the Euler multiplication,
runs :func:`homogeneous_R`, which needs no jets at any frame order.  The
unitarity ("constants") normalization runs the jet recursion below.
``genus.frame_and_R`` builds the frame for ``genus_potential``, the
genus-1 one-forms, ``descendent_frame`` and the CLI's R commands: order 0
in the conformal normalization, jets to the R order otherwise.  The
genus-1 one-forms read R_1 and the frame's values at the point only.  A
gauge twist applies to either result.

Every route hands R over in one format: ``RSeries.mats[k]`` is the matrix
R_k of kernel scalars (``scalars.GaussianFixed``) at the point, all at the
one scale of ``frame.kernel`` (``frame.FrameKernel``), the frame's values
at the point as kernel scalars.  The frame is their one producer, on either
of its rings; nothing here converts them.  :func:`homogeneous_R` runs on
them; the jet recursion converts its values at the point to their scale
when it is done, and :func:`twist_R` its gauge exponentials.  The graph sum
reads R(z) only through these coefficients (V through R(z) R(w)^T / (z +
w), T through R_m and Delta), so the jet recursion keeps its jets to
itself, and :func:`compute_V`, :func:`compute_T` and
``descendent.bold_quantities`` run on the kernel scalars as well.  Their
tables are lifted once to the scale their numbers need
(:meth:`EdgeTailData.in_kernel`, the one scale this module picks) and
reach the graph sum and the Wick oracle in the form those run on: the
consumers convert nothing.  The tables derived from them, the edge weights
and the memo of vertex correlators, live on the same :class:`EdgeTailData`,
so every sum over one point's data shares them.

The jet recursion works for any semisimple point.  In the canonical frame
the flatness equations determine R recursively.  Writing
W_a = (d_a Psi) Psi^{-1} and D_a = diag(d_a u), the order-z^k part of the
horizontality condition reads

    R_k D_a - D_a R_k = d_a R_{k-1} + R_{k-1} W_a,

which fixes the off-diagonal entries of R_k ((d_a u^j - d_a u^i) is
invertible for some direction a whenever the point is semisimple); where
several directions separate a pair, their disagreement is the
cross-direction residual.  The same equation one order up forces the
diagonal derivative rule d_a (R_k)_{ii} = -(R_k^{off} W_a)_{ii}, leaving
only integration constants.  The unitarity normalization fixes them by
R(z) R(-z)^T = 1 with vanishing odd diagonal constants; remaining gauge
freedom is an exponential of odd powers of z acting diagonally, applied via
:func:`twist_R`.  That is how the conformal R and the unitarity-normalized
one differ.

Edge coefficients V and tail values T come from R by

    sum_s R(z)^i_s R(w)^j_s  = delta_ij + (z+w) * sum_kl (-1)^{k+l} V^{ij}_{kl} z^k w^l
    T^i_{m+1} = (-1)^{m+1} sqrt(Delta_i) sum_j Delta_j^{-1/2} (R_m)^i_j,

with T_0 = T_1 = 0.  The pure exponential prefactor e^{u/z + u/w} is never
folded into V.  :func:`compute_V` divides by z + w in closed form: with
N_pq = R_p R_q^T, the quotient Q = sum Q_kl z^k w^l obeys
Q_{k,l} = N_{k,l+1} - Q_{k-1,l+1} (Q_{-1,.} = 0) and V^{ij}_{kl} =
(-1)^{k+l} Q^{ij}_{kl}.  The remainder of the division is
N(z, -z) - delta = sum_m z^m (sum_{p+q=m} (-1)^q N_pq - delta_{m,0}),
which is exactly the unitarity residual, so one table of N_pq feeds both.

That division, :func:`_divide`, is the package's one division by z + w,
and the one place its table is formed.  It takes two sequences of
matrices over any ring, forms N_pq = left[p] right[q]^T (a factor that is
the identity, such as R_0 = 1, enters no product), subtracts the unit, and
serves:

* V and the unitarity of R (left = right = R_k, unit 1);
* the tests' references for the calibration S (``tests/oracles.py``:
  N_pq = S_p^T g S_q in 1/z and 1/w, from left = S_p^T and right =
  S_q^T g, unit g), whose remainder is the unitarity of S and whose
  quotient gives the genus-0 two-point descendents W;
* the propagator v of the Hodge-twisted point (``hodge``: left = right =
  the coefficients e_p of E(z) = exp sum a_k z^{2k-1} as 1 x 1 matrices,
  unit 1).  That is V of R(z) = E(z), and its tails T are the constants of
  Qtilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath

from .expressions import _multi_indices, t_names
from .frame import CanonicalFrame, DegenerateFrameError, _entry
from .linalg import identity, mat_add, mat_mul, transpose
from .scalars import FloatContext
from .series import Caps, TruncatedSeries


@dataclass
class RSeries:
    """R(z) = sum_k mats[k] z^k at the frame's point, for k = 0 .. order.

    Each ``mats[k]`` is an N x N matrix of kernel scalars at the scale of
    ``frame.kernel``, whatever route computed it; an entry that vanishes
    exactly is the int 0.  ``gauge`` is the twist applied by
    :func:`twist_R`, None when untwisted.
    """

    frame: CanonicalFrame
    order: int
    mats: List[List[list]]
    mode: str
    cross_residual: object = None
    gauge: Optional[list] = None

    @property
    def dimension(self):
        return len(self.mats[0])


def compute_R(frame: CanonicalFrame, order: int, mode: str | None = None) -> RSeries:
    """R_1 .. R_order at the frame's point, one route per normalization.

    ``mode`` "conformal" fixes R by Euler homogeneity (:func:`homogeneous_R`
    on the frame's order-0 values; the frame must be built from the Euler
    multiplication, at any order).  "constants" runs the jet recursion with
    the unitarity normalization (odd diagonal constants zero), which needs
    frame jets of order ``order`` and reports the cross-direction residual.
    Default: conformal when the model has Euler data (its frame is built
    from the Euler multiplication), else constants.
    """
    if mode is None:
        mode = "conformal" if frame.model.euler is not None else "constants"
    if mode == "conformal":
        return homogeneous_R(frame, order)
    if mode != "constants":
        raise ValueError(f"normalization must be conformal or constants, not {mode!r}")
    if frame.order < order:
        raise ValueError(f"frame jets of order {frame.order} cannot support R through z^{order}")
    with frame.ctx.guard():
        return _compute_r_impl(frame, order)


def _compute_r_impl(frame: CanonicalFrame, order: int) -> RSeries:
    ctx = frame.ctx
    n = frame.dimension
    names = t_names(n)
    caps = frame.u[0].caps
    # R_k is trustworthy only to t-order (order - k): taper the jet caps as
    # k climbs so the series products stay small
    ladder = [Caps.total(names, c) for c in range(order + 1)]
    w = frame.rotation_jets()
    du = frame.du

    # denominators (d_a u^j - d_a u^i) and the usable directions per pair
    sep_floor = max(ctx.tol, mpmath.mpf(2) ** (16 - ctx.prec_bits // 2))
    du_scale = max(
        mpmath.mpf(1),
        ctx.max_abs([du[i][a].constant_term() for i in range(n) for a in range(n)]),
    )
    denom_inv: Dict[Tuple[int, int], List[Tuple[int, TruncatedSeries]]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            usable = []
            for a in range(n):
                d = du[j][a] - du[i][a]
                if mpmath.fabs(d.constant_term()) > sep_floor * du_scale:
                    usable.append((a, d.inverse()))
            if not usable:
                raise DegenerateFrameError(
                    f"no coordinate direction separates branches {i} and {j}"
                )
            denom_inv[(i, j)] = usable

    zero = TruncatedSeries.zero(caps)
    one = TruncatedSeries.const(caps, ctx.num(1))
    jets = [[[one.copy() if i == j else zero.copy() for j in range(n)] for i in range(n)]]
    cross = ctx.num(0)

    for k in range(1, order + 1):
        content = order - k
        caps_k = ladder[content]
        zero_k = TruncatedSeries.zero(caps_k)
        prev = jets[k - 1]
        prev_k = [[e.repruned(caps_k) for e in row] for row in prev]
        w_k = [[[e.repruned(caps_k) for e in row] for row in w[a]] for a in range(n)]
        sources = []
        for a in range(n):
            dprev = [[e.partial(names[a]).repruned(caps_k) for e in row] for row in prev]
            sources.append(mat_add(dprev, mat_mul(prev_k, w_k[a])))

        rk = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                candidates = []
                for a, dinv in denom_inv[(i, j)]:
                    candidates.append(sources[a][i][j] * dinv.repruned(caps_k))
                rk[i][j] = candidates[0]
                for other in candidates[1:]:
                    diff = rk[i][j] - other
                    for key, v in diff.c.items():
                        if sum(key) <= content:
                            cross = max(cross, mpmath.fabs(v))

        # diagonal: derivative rule gives all non-constant jet coefficients
        off = [[rk[i][j] if i != j else zero_k for j in range(n)] for i in range(n)]
        ddiag = []
        for a in range(n):
            m = mat_mul(off, w_k[a])
            ddiag.append([-m[i][i] for i in range(n)])
        for i in range(n):
            diag = TruncatedSeries.zero(caps_k)
            for key in _multi_indices(n, content):
                total = sum(key)
                if total == 0 or total > content:
                    continue
                a = next(ai for ai, e in enumerate(key) if e > 0)
                src = ddiag[a][i]
                down = key[:a] + (key[a] - 1,) + key[a + 1 :]
                v = src.scalar_coeff(down)
                if v or v != 0:
                    diag = diag + TruncatedSeries(caps_k, {key: v / key[a]})
            rk[i][i] = diag + _unitarity_constant(k, i, jets, ctx, n)
        jets.append(rk)

    kernel = frame.kernel
    mats = [[kernel.at_scale(e.constant_term() for e in row) for row in rk] for rk in jets]
    return RSeries(frame=frame, order=order, mats=mats, mode="constants", cross_residual=cross)


def _unitarity_constant(k, i, jets, ctx, n):
    # odd coefficients vanish, even ones come from unitarity (diagonal of
    # sum_{p+q=k} (-1)^q R_p R_q^T with the p,q in {0,k} terms isolated:
    # 2 (R_k)_{ii} = -sum_{p,q>=1})
    if k % 2 == 1:
        return ctx.num(0)
    total = ctx.num(0)
    for p in range(1, k):
        q = k - p
        sign = (-1) ** q
        entry = ctx.num(0)
        for j in range(n):
            entry = entry + jets[p][i][j].constant_term() * jets[q][i][j].constant_term()
        total = total + sign * entry
    return -total / 2


def homogeneous_R(frame: CanonicalFrame, order: int) -> RSeries:
    """Solve for R_1 .. R_order of a conformal model from the frame's
    order-0 values alone, by Euler homogeneity.

    With V = Psi mu Psi^{-1}, mu = (1 - D/2) - grad E, and U = diag(u):

        (R_{k+1})_{ij} = (R_k V - k R_k)_{ij} / (u_j - u_i)      (i != j),
        (R_{k+1})_{ii} = sum_{j != i} (R_{k+1})_{ij} V_{ji} / (k + 1).

    No jets enter, so the frame may be built at order 0.  The recursion
    runs on the frame's kernel scalars (``frame.kernel``), with
    Psi^{-1} = g^{-1} Psi^T, so V = Psi (mu g^{-1}) Psi^T takes exact
    rational factors.  This is :func:`compute_R`'s conformal normalization;
    on a frame with jets it gives what the jet recursion gives with the
    diagonal constants fixed by homogeneity along E.  There is no
    cross-direction residual (``cross_residual`` is None).
    """
    if frame.model.euler is None:
        raise ValueError(
            "conformal normalization requires Euler data: homogeneity needs u "
            "from the Euler multiplication"
        )
    n = frame.dimension
    euler = frame.model.euler
    kernel = frame.kernel
    shift = 1 - Fraction(euler.conformal_dimension) / 2
    mu = [[(shift if a == b else 0) - euler.matrix[a][b] for b in range(n)] for a in range(n)]
    ginv = frame.model.metric_inverse
    # the rational factor mu g^{-1} is sparse: only its nonzero entries enter
    m = [
        [sum(mu[a][c] * ginv[c][b] for c in range(n) if mu[a][c] and ginv[c][b]) for b in range(n)]
        for a in range(n)
    ]
    psi = kernel.psi
    w = [[sum(psi[j][b] * m[a][b] for b in range(n) if m[a][b]) for j in range(n)] for a in range(n)]
    v = mat_mul(psi, w)
    gap_inv = {}
    for (i, j), gap in kernel.gaps.items():
        gap_inv[i, j] = 1 / gap
        gap_inv[j, i] = -gap_inv[i, j]

    (one,) = kernel.at_scale([1])
    mats = [[[one if i == j else 0 for j in range(n)] for i in range(n)]]
    for k in range(order):
        rv = mat_mul(mats[k], v) if k else v
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    nxt[i][j] = _entry((rv[i][j] - k * mats[k][i][j]) * gap_inv[i, j])
        for i in range(n):
            acc = 0
            for j in range(n):
                if j != i:
                    acc = acc + nxt[i][j] * v[j][i]
            nxt[i][i] = _entry(acc / (k + 1))
        mats.append(nxt)
    return RSeries(frame=frame, order=order, mats=mats, mode="conformal")


def unitarity_residual(r: RSeries, remainders: list | None = None) -> object:
    """Max |entry| of sum_{p+q=m} (-1)^q R_p R_q^T - delta_{m,0} over
    m <= order: the remainder of the division of :func:`compute_V`, which
    passes its ``remainders`` (:func:`_divide`)."""
    if remainders is None:
        remainders = _divide(r.mats, r.mats, r.order, -1, identity(r.dimension, 1, 0))[1]
    return r.frame.ctx.max_abs([x for mat in remainders for row in mat for x in row])


def twist_R(r: RSeries, gauge: Sequence[Sequence]) -> RSeries:
    """Apply the diagonal gauge R(z) -> diag_i exp(sum_m a^i_m z^{2m-1}) R(z).

    ``gauge[i]`` lists the odd coefficients (a^i_1, a^i_2, ...) for canonical
    index i; the exponential scales row i.  Left multiplication is the
    residual freedom of the recursion: for two solutions, C = R' R^{-1}
    satisfies dC = (1/z)[C, diag(du)], which forces C diagonal and constant.
    Unitarity is preserved because the exponent is odd in z.  The diagonal
    exponentials commute, so twists compose by adding their coefficients,
    and the result records that sum as its ``gauge``.
    """
    ctx = r.frame.ctx
    n = r.dimension
    if len(gauge) != n:
        raise ValueError(f"gauge needs {n} rows, one per canonical index, not {len(gauge)}")
    kernel = r.frame.kernel
    with ctx.guard():
        zcaps = Caps.total(("z",), r.order)
        # dcoef[i][m]: the z^m coefficient of row i's exponential, at R's scale
        dcoef = []
        for i in range(n):
            expo = TruncatedSeries.zero(zcaps)
            for m, am in enumerate(gauge[i], start=1):
                if 2 * m - 1 > r.order:
                    break
                expo = expo + TruncatedSeries.var(zcaps, "z", 2 * m - 1, ctx.num(am))
            exp = expo.exp(ctx)
            dcoef.append(kernel.at_scale(exp.scalar_coeff((m,)) for m in range(r.order + 1)))
        mats = [
            [
                [
                    _entry(sum(dcoef[i][k - p] * r.mats[p][i][j] for p in range(k + 1)))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for k in range(r.order + 1)
        ]
        total = [list(row) for row in gauge]
        if r.gauge is not None:
            total = [
                [x + y for x, y in zip_longest(old, new, fillvalue=0)]
                for old, new in zip(r.gauge, total)
            ]
        return replace(r, mats=mats, gauge=total)


def bernoulli_numbers(nmax: int) -> List[Fraction]:
    """B_0 .. B_nmax with B_1 = -1/2."""
    out = [Fraction(1)]
    for m in range(1, nmax + 1):
        s = Fraction(0)
        for j in range(m):
            s += _binom_int(m + 1, j) * out[j]
        out.append(-s / _binom_int(m + 1, m))
    return out


def _binom_int(n: int, k: int) -> Fraction:
    from math import comb

    return Fraction(comb(n, k))


def bernoulli_constants(chars: Sequence[Sequence], kmax: int) -> List[List[Fraction]]:
    """Gauge constants a^i_m = -N_{2m-1}(1/chi^i) B_{2m} / ((2m-1) 2m) for
    m = 1..kmax, where N_p is the p-th power sum of the reciprocals of the
    entries of chi^i."""
    bern = bernoulli_numbers(2 * kmax)
    out = []
    for chi in chars:
        inv = [Fraction(1) / Fraction(x) for x in chi]
        row = []
        for m in range(1, kmax + 1):
            power_sum = sum(x ** (2 * m - 1) for x in inv)
            row.append(-power_sum * bern[2 * m] / ((2 * m - 1) * (2 * m)))
        out.append(row)
    return out


# -- edge and tail data -----------------------------------------------------------


@dataclass
class EdgeTailData:
    """Everything a graph sum needs: per-index normalizations and the V/T
    tables.  Decoupled from frames so synthetic rational instances can drive
    the exact pipeline.

    The tables derived from them live here too, so every graph sum and Wick
    oracle on this data shares them: ``vertices`` memoizes the vertex
    correlators, (g_v, i, sorted edge powers) mapping to the correlator of
    (T^i, Delta_i), or to None where it vanishes (``genus.replay`` fills
    the slots a program reads, by one replay of their
    ``genus.vertex_program``), and :attr:`edge_weights` is formed on first
    use.  New data,
    from ``dataclasses.replace`` or :meth:`in_kernel`, starts without
    either."""

    dimension: int
    delta: list
    sqrt_delta: list
    v: Dict[Tuple[int, int, int, int], object]
    t: List[Dict[int, object]]
    v_cutoff: int
    t_cutoff: int
    residuals: dict = field(default_factory=dict)
    vertices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def v_entry(self, i, j, k, l):
        key = (i, j, k, l)
        if key in self.v:
            return self.v[key]
        return self.v.get((j, i, l, k), 0)

    @cached_property
    def edge_weights(self) -> dict:
        """Edge weights V^{ij}_{kl} sqrt(Delta_i) sqrt(Delta_j) for k + l <=
        ``v_cutoff``, keyed by (i, j, k, l); vanishing entries are kept as
        the zeros they are."""
        n, sd = self.dimension, self.sqrt_delta
        return {
            (i, j, k, l): self.v_entry(i, j, k, l) * sd[i] * sd[j]
            for i in range(n)
            for j in range(n)
            for k in range(self.v_cutoff + 1)
            for l in range(self.v_cutoff + 1 - k)
        }

    def in_kernel(self, ctx: FloatContext) -> "EdgeTailData":
        """The producers' lift: this data as kernel scalars of ``ctx`` at the
        one :meth:`FloatContext.to_kernel` scale of all its numbers, which
        small entries of V and T need; the residuals stay as they are.  Data
        already at that scale comes back as it is."""
        flat = [*self.delta, *self.sqrt_delta, *self.v.values()]
        for tails in self.t:
            flat.extend(tails.values())
        kernel = ctx.to_kernel(flat)
        if kernel is flat:
            return self
        it = iter(kernel)
        return replace(
            self,
            delta=[next(it) for _ in self.delta],
            sqrt_delta=[next(it) for _ in self.sqrt_delta],
            v={key: next(it) for key in self.v},
            t=[{k: next(it) for k in tails} for tails in self.t],
        )


def compute_V(r: RSeries) -> Tuple[Dict, dict]:
    """Edge coefficients V^{ij}_{kl} for k+l <= order-1, all that R_1 ..
    R_order determine, from the matrices of R.  Returns (table,
    residuals): the symmetry of V, the cross-direction residual of R when
    it has one, and the unitarity of R.

    With N_pq = R_p R_q^T, comparing coefficients in
    sum N_pq z^p w^q - delta = (z + w) sum Q_kl z^k w^l gives

        Q_{k,l} = N_{k,l+1} - Q_{k-1,l+1},    Q_{-1,.} = 0,

    and V^{ij}_{kl} = (-1)^{k+l} Q^{ij}_{kl}.  The remainder of this
    division is N(z, -z) - delta, the unitarity residual, so one table of
    products feeds both.  Only nonzero entries are stored.
    """
    table, remainders = _divide(r.mats, r.mats, r.order, r.order - 1, identity(r.dimension, 1, 0))
    asymmetry = [v - table.get((j, i, l, k), 0) for (i, j, k, l), v in table.items()]
    residuals = {"v_symmetry": r.frame.ctx.max_abs(asymmetry)}
    if r.cross_residual is not None:
        residuals["cross_direction"] = r.cross_residual
    residuals["unitarity"] = unitarity_residual(r, remainders)
    return table, residuals


def _divide(
    left: Sequence, right: Sequence, order: int, cutoff: int, unit
) -> Tuple[Dict, list]:
    """Divide sum N_pq z^p w^q - ``unit`` by z + w through total degree
    ``order``, where N_pq = left[p] right[q]^T (p + q <= order) for
    matrices over any ring.  A factor ``left[0]`` or ``right[0]`` that is
    the identity (R_0 = 1, S_0 = 1) enters no product.  Returns the entries
    (-1)^{k+l} Q^{ij}_{kl} of the quotient with k + l <= ``cutoff`` (the
    nonzero ones, keyed (i, j, k, l)), from Q_{k,l} = N_{k,l+1} -
    Q_{k-1,l+1}, and the remainder N(z, -z) - ``unit`` as one matrix per
    power of z, whose z^m entry is N_{m,0} - Q_{m-1,0}."""
    n = len(unit)
    left_one, right_one = (
        all(x == (1 if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))
        for m in (left[0], right[0])
    )
    products = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            if q == 0 and right_one:
                products[p, q] = left[p]
            elif p == 0 and left_one:
                products[p, q] = transpose(right[q])
            else:
                products[p, q] = mat_mul(left[p], transpose(right[q]))
    table: Dict[Tuple[int, int, int, int], object] = {}
    remainders = [[[None] * n for _ in range(n)] for _ in range(order + 1)]
    for i in range(n):
        for j in range(n):
            remainders[0][i][j] = products[0, 0][i][j] - unit[i][j]
            for m in range(1, order + 1):
                quot = 0  # Q_{k-1,l+1}, zero at k = 0
                for k in range(m):
                    entry = products[(k, m - k)][i][j]
                    quot = entry - quot if quot or quot != 0 else entry
                    if m <= cutoff + 1 and (quot or quot != 0):
                        table[(i, j, k, m - 1 - k)] = quot if m % 2 else -quot
                remainders[m][i][j] = products[m, 0][i][j] - quot
    return table, remainders


def compute_T(r: RSeries) -> List[Dict[int, object]]:
    """Tail values T^i_k for 2 <= k <= order + 1, all that R_1 .. R_order
    determine."""
    n = r.dimension
    sd = r.frame.kernel.sqrt_delta
    inv_sd = [1 / x for x in sd]
    out = [dict() for _ in range(n)]
    for k in range(2, r.order + 2):
        rm = r.mats[k - 1]
        for i in range(n):
            s = 0
            for j in range(n):
                s = s + inv_sd[j] * rm[i][j]
            out[i][k] = (-1) ** k * sd[i] * s
    return out


def edge_tail_data(r: RSeries) -> EdgeTailData:
    """V, T, Delta and sqrt(Delta) of ``r``: kernel scalars computed at R's
    scale and lifted to the scale their numbers need
    (:meth:`EdgeTailData.in_kernel`), the form the graph sum and the Wick
    oracle run on."""
    v, resid = compute_V(r)
    t = compute_T(r)
    return EdgeTailData(
        dimension=r.dimension,
        delta=r.frame.kernel.delta,
        sqrt_delta=r.frame.kernel.sqrt_delta,
        v=v,
        t=t,
        v_cutoff=r.order - 1,
        t_cutoff=r.order + 1,
        residuals=resid,
    ).in_kernel(r.frame.ctx)
