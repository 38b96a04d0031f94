"""Intersection numbers of psi-classes on moduli of stable curves.

``IntersectionTable`` memoizes the correlators

    <tau_{k_1} ... tau_{k_n}>_g = integral of psi_1^{k_1} ... psi_n^{k_n}
                                  over the genus-g, n-pointed moduli space,

exact rationals throughout.  The value is zero unless sum(k) = 3g - 3 + n.
Evaluation order: the string equation removes tau_0 insertions, the dilaton
equation removes tau_1 insertions, and when every index is >= 2 the KdV
(Virasoro) recursion applies with n = k_max - 1:

  (2n+3)!! <tau_{n+1} prod_S tau_d>_g =
      sum_j (2d_j+1)(2d_j+3)...(2d_j+2n+1) <tau_{d_j+n} prod_{S-j}>_g
    + 1/2 sum_{a+b=n-1} (2a+1)!!(2b+1)!! [ <tau_a tau_b prod_S>_{g-1}
        + sum <tau_a S_1>_{g_1} <tau_b S_2>_{g_2} ]

where the inner sum runs over ordered stable splittings g_1+g_2 = g,
S_1 + S_2 = S.  Seeds: <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  Every
reduction lowers (g, n) lexicographically, so the recursion terminates.

``vertex_correlator`` dresses a correlator with tail insertions: the sum
over extra tau_a legs, each weighted by a tail value T_a with T_0 = T_1 = 0,
truncates because a_j >= 2 forces at most 3g - 3 + m - sum(edge ks) legs.
Which legs can enter and with what rational weight depends only on the
genus and the edge powers, never on the tail values: the process table
memoizes that list as :meth:`IntersectionTable.tail_terms`, and the
correlator multiplies the tail values into it.  An empty list means the
correlator vanishes for every choice of tails; the graph sum prunes such
vertices before it sees any data.

The numbers are exact constants, so one table serves the whole process:
``psi_intersection`` and ``vertex_correlator`` read it, and so does the
graph sum's pruning.  Code that wants a table of its own (an entry count
that must not depend on what ran before) builds an ``IntersectionTable``
and calls its :meth:`~IntersectionTable.value` and
:meth:`~IntersectionTable.tail_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Iterator, Sequence, Tuple

IntersectionKey = Tuple[int, Tuple[int, ...]]
TailTerms = Tuple[Tuple[Tuple[int, ...], Fraction], ...]

# the value of every dimension-starved correlator, shared
_ZERO = Fraction(0)


def _odd_double_factorial(m: int) -> int:
    # (-1)!! = 1!! = 1
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


def _check(g: int, ks: Tuple[int, ...]) -> None:
    if g < 0 or (ks and min(ks) < 0):
        raise ValueError("psi powers and genus must be nonnegative")


class IntersectionTable:
    """Shared memo table.  Fill it single-threaded before any parallel use;
    lookups never mutate existing entries."""

    def __init__(self) -> None:
        self._cache: Dict[IntersectionKey, Fraction] = {
            (0, (0, 0, 0)): Fraction(1),
            (1, (1,)): Fraction(1, 24),
        }
        self._tails: Dict[IntersectionKey, TailTerms] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def value(self, g: int, ks: Sequence[int]) -> Fraction:
        g = int(g)
        ks = tuple(int(k) for k in ks)
        _check(g, ks)
        if not _stable(g, len(ks)):
            raise ValueError(f"unstable moduli space: genus {g} with {len(ks)} points")
        return self._value(g, ks)

    def _value(self, g: int, ks: Tuple[int, ...]) -> Fraction:
        """:meth:`value` of a stable key of nonnegative ints, the only
        kind the recursion builds: zero when dimension-starved, before any
        sorting; then the tuple as it stands, which hits whenever it is
        already sorted; then its sorted form, computed on a miss."""
        if sum(ks) != 3 * g - 3 + len(ks):
            return _ZERO
        hit = self._cache.get((g, ks))
        if hit is None:
            key = (g, tuple(sorted(ks)))
            hit = self._cache.get(key)
            if hit is None:
                hit = self._compute(*key)
                self._cache[key] = hit
        return hit

    def _compute(self, g: int, ks: Tuple[int, ...]) -> Fraction:
        if ks[0] == 0:
            rest = ks[1:]
            total = Fraction(0)
            for j, d in enumerate(rest):
                if d == 0:
                    continue
                total += self._value(g, rest[:j] + (d - 1,) + rest[j + 1:])
            return total
        if ks[0] == 1:
            return (2 * g - 2 + len(ks) - 1) * self._value(g, ks[1:])

        kmax = ks[-1]
        others = ks[:-1]
        nop = kmax - 1
        total = Fraction(0)
        for j, d in enumerate(others):
            coeff = 1
            for t in range(d, d + nop + 1):
                coeff *= 2 * t + 1
            total += coeff * self._value(g, others[:j] + (d + nop,) + others[j + 1:])
        # the ordered splits S_1 + S_2 of the other insertions, shared by
        # every (a, g1) below
        splits = [
            (
                tuple(x for t, x in enumerate(others) if mask >> t & 1),
                tuple(x for t, x in enumerate(others) if not mask >> t & 1),
            )
            for mask in range(1 << len(others))
        ]
        half = Fraction(0)
        for a in range(nop):
            b = nop - 1 - a
            weight = _odd_double_factorial(2 * a + 1) * _odd_double_factorial(2 * b + 1)
            if g >= 1 and _stable(g - 1, len(others) + 2):
                half += weight * self._value(g - 1, others + (a, b))
            for g1 in range(g + 1):
                g2 = g - g1
                for s1, s2 in splits:
                    if not (_stable(g1, len(s1) + 1) and _stable(g2, len(s2) + 1)):
                        continue
                    # both factors fill the table; a product with a
                    # vanishing factor adds nothing
                    left = self._value(g1, (a,) + s1)
                    right = self._value(g2, (b,) + s2)
                    if left and right:
                        half += weight * left * right
        total += half / 2
        return total / _odd_double_factorial(2 * kmax + 1)

    def tail_terms(self, g: int, edge_ks: Tuple[int, ...]) -> TailTerms:
        """The tail sum of a genus-g vertex with edge powers ``edge_ks``,
        before any tail value enters: one (assignment, weight) pair per
        ascending tuple of tail legs a_j >= 2 whose correlator is nonzero,
        with weight <tau_{edge_ks} tau_{assignment}>_g / prod(mult!), by
        leg count and then ascending assignment.  Memoized per (g,
        edge_ks); empty when no tail sum can make the vertex nonzero."""
        key = (g, edge_ks)
        if key in self._tails:
            return self._tails[key]
        _check(g, edge_ks)
        terms = []
        m = len(edge_ks)
        budget = 3 * g - 3 + m - sum(edge_ks)
        for n in range(0, max(budget, 0) + 1):
            if not _stable(g, m + n):
                continue
            legs = 3 * g - 3 + m + n - sum(edge_ks)
            if legs < 2 * n:
                continue
            for assignment in _ascending_tuples(n, legs, 2):
                corr = self._value(g, edge_ks + assignment)
                if corr == 0:
                    continue
                # ascending tuples stand for unordered leg sets: the 1/n! of
                # the exponential collapses to 1/prod(multiplicities!)
                seen = {}
                for a in assignment:
                    seen[a] = seen.get(a, 0) + 1
                for c in seen.values():
                    corr /= factorial(c)
                terms.append((assignment, corr))
        self._tails[key] = tuple(terms)
        return self._tails[key]

    def identity_failures(self) -> list:
        """Check the string and dilaton equations against every cached entry;
        returns a list of (kind, g, ks) triples that fail (expected empty)."""
        bad = []
        for (g, ks) in list(self._cache.keys()):
            n = len(ks)
            lowered = Fraction(0)
            for j, d in enumerate(ks):
                if d == 0:
                    continue
                lowered += self.value(g, ks[:j] + (d - 1,) + ks[j + 1:])
            if self.value(g, (0,) + ks) != lowered:
                bad.append(("string", g, ks))
            if self.value(g, (1,) + ks) != (2 * g - 2 + n + 1 - 1) * self.value(g, ks):
                bad.append(("dilaton", g, ks))
        return bad


_DEFAULT_TABLE = IntersectionTable()


def psi_intersection(g: int, ks: Sequence[int]) -> Fraction:
    return _DEFAULT_TABLE.value(g, ks)


def _ascending_tuples(count: int, total: int, minimum: int) -> Iterator[Tuple[int, ...]]:
    if count == 0:
        if total == 0:
            yield ()
        return
    # last entry is at least the average, so the prefix stays ascending
    for first in range(minimum, total - minimum * (count - 1) + 1):
        for rest in _ascending_tuples(count - 1, total - first, first):
            yield (first,) + rest


def vertex_correlator(g: int, edge_ks: Sequence[int], tails, hbar_delta):
    """Correlator of a single graph vertex: edge insertions tau_{k} plus the
    tail sum, times (hbar*Delta)^(g-1).

    ``tails`` maps index a >= 2 to the tail value T_a (anything else is
    treated as zero).  Unstable or dimension-starved configurations return
    0 rather than raising, so callers can sum blindly over graphs.  The sum
    runs over :meth:`IntersectionTable.tail_terms` of the process table in
    their order, skipping a term with a vanishing tail value.  The
    tails and ``hbar_delta`` may be any scalars that add and multiply with
    Fractions: rationals, the kernel scalars of ``scalars``, or mpmath
    numbers, which are summed at the caller's working precision (call it
    inside the context's guard).
    """
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
