"""Hodge-bundle deformation of the Witten-Kontsevich tau function.

The logarithm of the tau function over the descendent couplings
Q_0, Q_1, ... is

    log tau = sum_{g,n} hbar^{g-1}/n! <tau_{k_1}..tau_{k_n}>_g Q_{k_1}..Q_{k_n},

a finite sum inside any truncation window because the correlator
vanishes unless sum k_i = 3g-3+n.  Inserting the exponential of the odd
Chern characters of the Hodge bundle, one coupling s_m per character,
deforms tau to a family lambda(hbar; Q; s) obeying the pairwise
commuting flows

    d lambda / d s_m = B_{2m}/(2m)! (hbar D_m + L_m) lambda,
    D_m = (1/2) sum_{k+l=2m-2} (-1)^k d_{Q_k} d_{Q_l},
    L_m = d_{Q_{2m}} - sum_{k>=0} Q_k d_{Q_{k+2m-1}},

with B_{2m} the Bernoulli numbers and lambda|_{s=0} = tau.
``hodge_lambda`` applies the truncated exponential of the flows to the
tau series and returns log lambda.

The same flows integrate in closed form.  Writing a_k = B_{2k} s_k/(2k)!
and Q(z) = sum Q_k z^k, define a symmetric propagator v and a triangular
change of couplings Q -> Qtilde by

    1/(z+w) + sum v_kl (-z)^k (-w)^l
        = exp{sum a_k (z^{2k-1} + w^{2k-1})} / (z+w),
    z + Qtilde(-z) = [z + Q(-z)] exp{sum a_k z^{2k-1}}.

Then with P = (1/2) sum v_kl d_{Q_k} d_{Q_l},

    lambda(hbar; Q; s) = [exp(hbar P) tau](Qtilde).

``hodge_lemma_residual`` checks the identity coefficient by coefficient
as an equality of truncated series, with v and Qtilde kept symbolic in s.

The quotient is the division of ``rmatrix._divide`` on the coefficients
e_p of E(z) = exp{sum a_k z^{2k-1}} as 1 x 1 matrices, whose products
N_pq = e_p e_q it forms; it returns (-1)^{k+l} Q_kl, the sign v carries.
So v and Qtilde are the edge and tail data of the one-dimensional
R(z) = E(z): on the point model, ``twist_R`` of R = 1 by a gives
V^{00}_{kl} = v_kl, and its tails T_k = (-1)^k e_{k-1} are the constants
of Qtilde_k for k >= 2.  The graph sum of that twisted point is then
[hbar^{g-1} Q^0] log lambda at the same s, which ``tests/test_hodge.py``
holds against ``hodge_lambda`` through genus 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .intersection import _ascending_tuples, psi_intersection
from .rmatrix import _divide, bernoulli_numbers
from .series import Caps, TruncatedSeries

__all__ = [
    "HodgeParameters",
    "HodgeTruncation",
    "hodge_lambda",
    "hodge_lemma_residual",
]


@dataclass(frozen=True)
class HodgeParameters:
    """Retained degrees of the deformation couplings s_1 .. s_M.

    ``degrees[m-1]`` caps the power of s_m kept in the output.  A
    coupling of degree zero is carried as a variable but never flowed.
    """

    degrees: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.degrees):
            raise ValueError("coupling degrees must be nonnegative")

    @property
    def count(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def index_shift(self) -> int:
        # largest upward coupling-index shift the flows can perform:
        # each power of s_m moves an index by 2m-1
        return sum(d * (2 * m - 1) for m, d in enumerate(self.degrees, start=1))


@dataclass(frozen=True)
class HodgeTruncation:
    """Output window: maximal genus, total Q-degree, largest index.

    Genus g terms carry hbar^{g-1}.  ``q_index`` bounds the couplings
    Q_0 .. Q_{q_index}; left unset it defaults to the dimension bound
    3*genus_max - 3 + q_degree, past which every correlator in the
    window vanishes.
    """

    genus_max: int
    q_degree: int
    q_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.genus_max < 0 or self.q_degree < 0:
            raise ValueError("truncation orders must be nonnegative")
        if self.q_index is not None and self.q_index < 0:
            raise ValueError("truncation orders must be nonnegative")

    @property
    def resolved_index(self) -> int:
        if self.q_index is not None:
            return self.q_index
        return max(3 * self.genus_max - 3 + self.q_degree, 0)


# -- rings ------------------------------------------------------------------


def _q_names(q_index: int) -> Tuple[str, ...]:
    return tuple(f"Q{k}" for k in range(q_index + 1))


def _s_names(count: int) -> Tuple[str, ...]:
    return tuple(f"s{m}" for m in range(1, count + 1))


def _ring(genus_max: int, q_degree: int, q_index: int,
          s_degrees: Sequence[int], h_floor: int = -1) -> Caps:
    qn = _q_names(q_index)
    sn = _s_names(len(s_degrees))
    maxs: Dict[str, Optional[int]] = {"h": genus_max - 1}
    maxs.update({nm: d for nm, d in zip(sn, s_degrees)})
    return Caps.box(
        ("h",) + qn + sn,
        maxs=maxs,
        mins={"h": h_floor},
        weighted=[({nm: 1 for nm in qn}, q_degree)],
    )


def _coupling_factors(count: int) -> List[Fraction]:
    """a_m / s_m = B_{2m}/(2m)! for m = 1 .. count."""
    bern = bernoulli_numbers(2 * count)
    return [bern[2 * m] / Fraction(math.factorial(2 * m)) for m in range(1, count + 1)]


# -- tau --------------------------------------------------------------------


def _log_tau(caps: Caps, genus_max: int, q_degree: int, q_index: int) -> TruncatedSeries:
    n_s = len(caps.names) - q_index - 2
    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    for g in range(genus_max + 1):
        for n in range(1, q_degree + 1):
            total = 3 * g - 3 + n
            if total < 0:
                continue
            for ks in _ascending_tuples(n, total, 0):
                if ks[-1] > q_index:
                    continue
                val = psi_intersection(g, ks)
                if not val:
                    continue
                # an ascending tuple stands for n!/prod(mult!) orderings
                run = 1
                for i in range(1, n):
                    run = run + 1 if ks[i] == ks[i - 1] else 1
                    val /= run
                exps = [0] * (q_index + 1)
                for k in ks:
                    exps[k] += 1
                key = (g - 1,) + tuple(exps) + (0,) * n_s
                coeffs[key] = coeffs.get(key, Fraction(0)) + val
    return TruncatedSeries(caps, coeffs)


# -- the flows ---------------------------------------------------------------


def _flow(series: TruncatedSeries, m: int) -> TruncatedSeries:
    """(hbar D_m + L_m) applied over the ring of ``series``."""
    caps = series.caps
    # the internal truncation keeps Q_0 .. Q_{2m} for every flowed m
    q_index = sum(1 for nm in caps.names if nm[0] == "Q") - 1
    hvar = TruncatedSeries.var(caps, "h")
    out = TruncatedSeries.zero(caps)
    for k in range(2 * m - 1):
        term = series.partial(f"Q{k}").partial(f"Q{2 * m - 2 - k}")
        if term:
            out = out + (hvar * term).scale(Fraction(1 if k % 2 == 0 else -1, 2))
    out = out + series.partial(f"Q{2 * m}")
    for k in range(q_index - 2 * m + 2):
        term = series.partial(f"Q{k + 2 * m - 1}")
        if term:
            out = out - TruncatedSeries.var(caps, f"Q{k}") * term
    return out


def _fold_flows(tau: TruncatedSeries, s: HodgeParameters) -> TruncatedSeries:
    """The truncated exponential of each flow in turn, m = 1 .. M; the
    flows commute, so the order is immaterial."""
    factors = _coupling_factors(s.count)
    lam = tau
    for m in range(1, s.count + 1):
        svar = TruncatedSeries.var(tau.caps, f"s{m}", coeff=factors[m - 1])
        term = lam
        for j in range(1, s.degrees[m - 1] + 1):
            term = (svar * _flow(term, m)).scale(Fraction(1, j))
            if not term:
                break
            lam = lam + term
    return lam


def _internal_truncation(s: HodgeParameters, truncation: HodgeTruncation) -> HodgeTruncation:
    # each flow application lowers Q-degree by at most two and reads
    # indices at most 2m-1 above the window, so enlarging by the total
    # coupling budget makes every window coefficient exact
    idx = max(truncation.resolved_index + s.index_shift, 2 * s.count)
    return HodgeTruncation(truncation.genus_max, truncation.q_degree + 2 * s.total, idx)


def _window(series: TruncatedSeries, s: HodgeParameters,
            truncation: HodgeTruncation) -> TruncatedSeries:
    caps = _ring(truncation.genus_max, truncation.q_degree, truncation.resolved_index,
                 s.degrees)
    pos = {nm: i for i, nm in enumerate(series.caps.names)}
    sel = [pos[nm] for nm in caps.names]
    drop = [i for i, nm in enumerate(series.caps.names) if nm not in set(caps.names)]
    kept = {}
    for key, v in series.c.items():
        if any(key[i] for i in drop):
            continue
        kept[tuple(key[i] for i in sel)] = v
    return TruncatedSeries(caps, kept)


def _internal_tau(s: HodgeParameters, truncation: HodgeTruncation):
    """The internal truncation and tau = exp(log tau) over its ring."""
    internal = _internal_truncation(s, truncation)
    caps = _ring(internal.genus_max, internal.q_degree, internal.resolved_index,
                 s.degrees, h_floor=-1 - s.total)
    tau = _log_tau(caps, internal.genus_max, internal.q_degree, internal.resolved_index).exp()
    return internal, tau


def hodge_lambda(s: HodgeParameters, truncation: HodgeTruncation) -> TruncatedSeries:
    """log lambda over ("h", "Q0", .., "QK", "s1", .., "sM").

    Genus g enters as h^(g-1).  The flows are integrated at an internally
    enlarged truncation so that every coefficient inside the requested
    window is exact.  With no couplings this is log tau.
    """
    _, tau = _internal_tau(s, truncation)
    return _window(_fold_flows(tau, s), s, truncation).log()


# -- closed form -------------------------------------------------------------


def _closed_form(s: HodgeParameters, q_index: int):
    """v and Qtilde with the couplings a_k = B_{2k} s_k/(2k)! kept symbolic.

    Inside the s-window E(z) = exp{sum a_k z^{2k-1}} is an exact polynomial
    of degree ``s.index_shift`` in z.  Its coefficients e_p, series in s,
    give the coupling change, and as 1 x 1 matrices they give v through the
    division (E(z)E(w) - 1)/(z + w) of ``rmatrix._divide``, which forms the
    products N_pq = e_p e_q and leaves no remainder.  Entries come back as
    dicts over s-exponent keys: v[(k, l)] is v_kl, and
    Qtilde_k = consts[k] + sum_j matrix[k][j] Q_j for k <= q_index.
    """
    factors = _coupling_factors(s.count)
    names = _s_names(s.count)
    zcap = s.index_shift
    ring = Caps.box(("z",) + names, maxs={"z": zcap, **dict(zip(names, s.degrees))})
    exponent = {
        (2 * m - 1,) + tuple(int(j == m - 1) for j in range(s.count)): factors[m - 1]
        for m in range(1, s.count + 1)
    }
    e_z = TruncatedSeries(ring, exponent).exp()
    order = 2 * zcap
    sring = Caps.box(names, maxs=dict(zip(names, s.degrees)))
    e = [TruncatedSeries(sring) for _ in range(order + 1)]
    for key, val in e_z.c.items():
        e[key[0]].c[key[1:]] = val
    coefficients = [[[x]] for x in e]
    quotient, _ = _divide(coefficients, coefficients, order, order - 1, [[1]])
    # the quotient already carries the sign of v: (-1)^{k+l} Q_kl
    v = {(k, l): entry.c for (_, _, k, l), entry in quotient.items()}

    # z + Qtilde(-z) = [z + Q(-z)] E(z): the constants are the e_{k-1} of
    # z E(z) - z, in which e_0 = 1 cancels the dilaton shift at k = 1
    consts: List[Dict[Tuple[int, ...], Fraction]] = []
    matrix: List[List[Dict[Tuple[int, ...], Fraction]]] = []
    for k in range(q_index + 1):
        sk = 1 if k % 2 == 0 else -1
        const = {}
        if 2 <= k <= zcap + 1:
            const = {sq: sk * val for sq, val in e[k - 1].c.items()}
        row = []
        for j in range(k + 1):
            sj = sk * (1 if j % 2 == 0 else -1)
            row.append({sq: sj * val for sq, val in e[k - j].c.items()} if k - j <= zcap else {})
        consts.append(const)
        matrix.append(row)
    return v, consts, matrix


def _lift(caps: Caps, sdict: Dict[Tuple[int, ...], Fraction],
          n_q: int, extra_q: Optional[int] = None) -> TruncatedSeries:
    """Embed an s-exponent dict into the big ring, optionally times Q_k."""
    coeffs = {}
    for skey, val in sdict.items():
        q_part = [0] * n_q
        if extra_q is not None:
            q_part[extra_q] = 1
        coeffs[(0,) + tuple(q_part) + skey] = val
    return TruncatedSeries(caps, coeffs)


def _product_side(tau: TruncatedSeries, s: HodgeParameters, q_index: int) -> TruncatedSeries:
    """[exp(hbar P) tau](Qtilde) over the ring of ``tau``."""
    caps = tau.caps
    n_q = q_index + 1
    v, consts, matrix = _closed_form(s, q_index)
    hvar = TruncatedSeries.var(caps, "h")
    acc = tau
    layer = tau
    j = 0
    while layer:
        j += 1
        nxt = TruncatedSeries.zero(caps)
        for (k, l), sdict in v.items():
            if k > q_index or l > q_index:
                continue
            term = layer.partial(f"Q{k}").partial(f"Q{l}")
            if term:
                nxt = nxt + term * _lift(caps, sdict, n_q)
        layer = (hvar * nxt).scale(Fraction(1, 2 * j))
        acc = acc + layer
    forms = []
    for k in range(n_q):
        form = _lift(caps, consts[k], n_q)
        for jq in range(k + 1):
            form = form + _lift(caps, matrix[k][jq], n_q, extra_q=jq)
        forms.append(form)
    return _substitute_q(acc, forms, n_q)


def _substitute_q(series: TruncatedSeries, forms: List[TruncatedSeries],
                  n_q: int) -> TruncatedSeries:
    """Replace Q_k -> forms[k]; the h and s exponents ride along.

    The generic substitution would invert h on the negative powers of
    the genus grading, so the carried variables are handled as monomial
    prefactors instead.
    """
    caps = series.caps
    cache: List[Dict[int, TruncatedSeries]] = [dict() for _ in range(n_q)]

    def power(k: int, j: int) -> TruncatedSeries:
        got = cache[k].get(j)
        if got is None:
            got = forms[k] ** j
            cache[k][j] = got
        return got

    out: Dict[Tuple[int, ...], object] = {}

    def add(key, val):
        if caps.keep(key):
            w = out.get(key, 0) + val
            if w or w != 0:
                out[key] = w
            elif key in out:
                del out[key]

    for key, val in series.c.items():
        prefix = (key[0],) + (0,) * n_q + key[1 + n_q:]
        prod = None
        for k in range(n_q):
            e = key[1 + k]
            if e:
                p = power(k, e)
                prod = p if prod is None else prod * p
        if prod is None:
            add(prefix, val)
            continue
        for pkey, pval in prod.c.items():
            add(tuple(a + b for a, b in zip(prefix, pkey)), val * pval)
    return TruncatedSeries(caps, out)


def hodge_lemma_residual(s: HodgeParameters, truncation: HodgeTruncation) -> TruncatedSeries:
    """Flowed lambda minus its closed-form reconstruction, on the window.

    Identically zero: both sides solve the same flow equations with the
    same initial condition.  Computed with exact rational arithmetic, so
    the residual series has an empty coefficient dict when the identity
    holds.
    """
    internal, tau = _internal_tau(s, truncation)
    lhs = _window(_fold_flows(tau, s), s, truncation)
    rhs = _window(_product_side(tau, s, internal.resolved_index), s, truncation)
    return lhs - rhs
