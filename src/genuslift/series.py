"""Truncated multivariate Laurent series.

A :class:`TruncatedSeries` is a finite dict ``{exponent tuple: coefficient}``
over a fixed tuple of variable names, together with a :class:`Caps` object
describing which exponent tuples are retained.  Exponents are integers and
may be negative (per-variable lower bounds are part of the caps).  All
arithmetic prunes to the caps, so products and exponentials of capped series
stay finite.

Coefficients are either exact (``Fraction``/``int``) or mpmath floats; the
two backends must not be mixed within one computation.  The series
functions that leave the ring (exp, log, sqrt of a non-unit constant term)
take the backend's context and run at its precision.

Caps support per-variable exponent ranges plus any number of weighted total
bounds ``sum(w_i * k_i) <= b``.  Weighted bounds with mixed-sign weights are
what make exponentials of Laurent series terminate (e.g. a grading in which
every retained monomial has positive weight).

Division by z + w is not a series operation here: ``rmatrix._divide``
divides tables of coefficients, whose entries may be truncated series.

Products prune pairs before forming them: a weighted degree is linear, so
the degree of a product key is the sum of its factors' degrees, and
:meth:`TruncatedSeries.__mul__` walks the inner operand in ascending degree
under the first weighted bound, stopping once that bound is passed.  Every
pair that is formed is still checked against all the caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from operator import add, itemgetter, mul
from typing import Dict, Iterable, Mapping, Optional, Tuple

import mpmath

from .scalars import EXACT, Context, GaussianFixed

Key = Tuple[int, ...]


@dataclass(frozen=True)
class Caps:
    """Retention rule for exponent tuples."""

    names: Tuple[str, ...]
    mins: Tuple[Optional[int], ...]
    maxs: Tuple[Optional[int], ...]
    weighted: Tuple[Tuple[Tuple[int, ...], int], ...] = ()

    @staticmethod
    def total(names: Iterable[str], order: int) -> "Caps":
        """Ordinary jet caps: exponents >= 0, total degree <= order."""
        names = tuple(names)
        n = len(names)
        return Caps(names, (0,) * n, (None,) * n, (((1,) * n, order),))

    @staticmethod
    def box(
        names: Iterable[str],
        maxs: Mapping[str, Optional[int]] | None = None,
        mins: Mapping[str, int] | None = None,
        weighted: Iterable[Tuple[Mapping[str, int], int]] = (),
    ) -> "Caps":
        names = tuple(names)
        maxs = dict(maxs or {})
        mins = dict(mins or {})
        wlist = []
        for wmap, bound in weighted:
            wlist.append((tuple(int(wmap.get(nm, 0)) for nm in names), int(bound)))
        return Caps(
            names,
            tuple(mins.get(nm, 0) for nm in names),
            tuple(maxs.get(nm, None) for nm in names),
            tuple(wlist),
        )

    def index(self, name: str) -> int:
        return self.names.index(name)

    def keep(self, key: Key) -> bool:
        for k, lo, hi in zip(key, self.mins, self.maxs):
            if lo is not None and k < lo:
                return False
            if hi is not None and k > hi:
                return False
        for weights, bound in self.weighted:
            if sum(w * k for w, k in zip(weights, key)) > bound:
                return False
        return True


class TruncatedSeries:
    __slots__ = ("caps", "c")

    def __init__(self, caps: Caps, coeffs: Dict[Key, object] | None = None):
        self.caps = caps
        self.c: Dict[Key, object] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v or v != 0:
                    if caps.keep(k):
                        self.c[k] = v

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(caps: Caps) -> "TruncatedSeries":
        return TruncatedSeries(caps)

    @staticmethod
    def const(caps: Caps, value) -> "TruncatedSeries":
        s = TruncatedSeries(caps)
        key = (0,) * len(caps.names)
        if (value or value != 0) and caps.keep(key):
            s.c[key] = value
        return s

    @staticmethod
    def var(caps: Caps, name: str, exponent: int = 1, coeff=1) -> "TruncatedSeries":
        key = tuple(exponent if nm == name else 0 for nm in caps.names)
        s = TruncatedSeries(caps)
        if caps.keep(key):
            s.c[key] = coeff
        return s

    def copy(self) -> "TruncatedSeries":
        s = TruncatedSeries(self.caps)
        s.c = dict(self.c)
        return s

    # -- inspection -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other):
        """Equal to a series with the same terms, and to a number as the
        constant series.  So an empty series == 0, and the zero test
        ``x or x != 0`` that numbers answer drops exact-zero series too."""
        if isinstance(other, (TruncatedSeries, Number, GaussianFixed)):
            return not (self - other).c
        return NotImplemented

    __hash__ = None

    def terms(self):
        return self.c.items()

    def scalar_coeff(self, key: Key):
        return self.c.get(tuple(key), 0)

    def constant_term(self):
        return self.c.get((0,) * len(self.caps.names), 0)

    def repruned(self, caps: Caps) -> "TruncatedSeries":
        """Same terms under new caps (names must match)."""
        if caps.names != self.caps.names:
            raise ValueError("reprune requires identical variable names")
        return TruncatedSeries(caps, self.c)

    # -- ring operations ---------------------------------------------------

    def _binary(self, other, sign) -> "TruncatedSeries":
        out = self.copy()
        c = out.c
        for k, v in other.c.items():
            if sign < 0:
                v = -v
            w = c[k] + v if k in c else v
            if w or w != 0:
                c[k] = w
            elif k in c:
                del c[k]
        return out

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._binary(TruncatedSeries.const(self.caps, other), 1)
        return self._binary(other, 1)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._binary(TruncatedSeries.const(self.caps, other), -1)
        return self._binary(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        out = TruncatedSeries(self.caps)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def scale(self, a) -> "TruncatedSeries":
        if not a and a == 0:
            return TruncatedSeries(self.caps)
        out = TruncatedSeries(self.caps)
        if isinstance(a, Fraction):
            # mpmath rounds a Fraction to the working precision before every
            # product with a float; rounding it once here gives the same bits
            f = mpmath.mpmathify(a)
            out.c = {
                k: a * v if isinstance(v, (int, Fraction)) else f * v for k, v in self.c.items()
            }
        else:
            out.c = {k: a * v for k, v in self.c.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        keep = self.caps.keep
        # with no weighted bound every degree is 0 and nothing is cut
        weights, bound = self.caps.weighted[0] if self.caps.weighted else ((), 0)
        acc: Dict[Key, object] = {}
        # iterate the smaller operand outside
        a, b = (self.c, other.c) if len(self.c) <= len(other.c) else (other.c, self.c)
        inner = sorted(
            ((sum(map(mul, weights, kb)), kb, vb) for kb, vb in b.items()),
            key=itemgetter(0),
        )
        for ka, va in a.items():
            room = bound - sum(map(mul, weights, ka))
            for db, kb, vb in inner:
                if db > room:
                    break
                k = tuple(map(add, ka, kb))
                if keep(k):
                    if k in acc:
                        acc[k] = acc[k] + va * vb
                    else:
                        acc[k] = va * vb
        out = TruncatedSeries(self.caps)
        out.c = {k: v for k, v in acc.items() if v or v != 0}
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncatedSeries.const(self.caps, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- series functions ---------------------------------------------------

    _ITER_LIMIT = 2000

    def _nilpotent_part(self):
        c0 = self.constant_term()
        n = self - c0
        return c0, n

    def _powers_of_nilpotent(self, n):
        """Yield (j, n**j) for j = 1, 2, ... until n**j vanishes."""
        p = n
        j = 1
        while p:
            yield j, p
            if j > self._ITER_LIMIT:
                raise ArithmeticError("series iteration does not terminate under these caps")
            p = p * n
            j += 1

    def inverse(self) -> "TruncatedSeries":
        c0, n = self._nilpotent_part()
        if not c0 and c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        inv0 = Fraction(1, 1) / c0 if isinstance(c0, (int, Fraction)) else 1 / c0
        m = n.scale(-inv0)
        out = TruncatedSeries.const(self.caps, 1)
        for _, p in self._powers_of_nilpotent(m):
            out = out + p
        return out.scale(inv0)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        if isinstance(other, int):
            return self.scale(Fraction(1, other))
        return self.scale(1 / other)

    def exp(self, ctx: Context = EXACT) -> "TruncatedSeries":
        c0, n = self._nilpotent_part()
        with ctx.guard():
            pref = ctx.exp(c0) if c0 or c0 != 0 else 1
            out = TruncatedSeries.const(self.caps, 1)
            fact = 1
            for j, p in self._powers_of_nilpotent(n):
                fact = fact * j
                out = out + p.scale(Fraction(1, fact))
            return out.scale(pref) if pref != 1 else out

    def log(self, ctx: Context = EXACT) -> "TruncatedSeries":
        c0, n = self._nilpotent_part()
        if not c0 and c0 == 0:
            raise ZeroDivisionError("log of series with zero constant term")
        with ctx.guard():
            extra = ctx.log(c0) if c0 != 1 else 0
            m = n.scale(Fraction(1, 1) / c0 if isinstance(c0, (int, Fraction)) else 1 / c0)
            out = TruncatedSeries.zero(self.caps)
            sign = 1
            for j, p in self._powers_of_nilpotent(m):
                out = out + p.scale(Fraction(sign, j))
                sign = -sign
            if extra or extra != 0:
                out = out + extra
            return out

    def sqrt(self, ctx: Context = EXACT) -> "TruncatedSeries":
        """Square root with the principal branch on the constant term."""
        c0, n = self._nilpotent_part()
        if not c0 and c0 == 0:
            raise ZeroDivisionError("series sqrt requires nonzero constant term")
        with ctx.guard():
            root = ctx.sqrt(c0)
            m = n.scale(1 / ctx.num(c0))
            out = TruncatedSeries.const(self.caps, 1)
            binom = Fraction(1)
            for j, p in self._powers_of_nilpotent(m):
                binom = binom * (Fraction(1, 2) - (j - 1)) / j
                out = out + p.scale(binom)
            return out.scale(root)

    # -- calculus -----------------------------------------------------------

    def partial(self, name: str) -> "TruncatedSeries":
        i = self.caps.index(name)
        out = TruncatedSeries(self.caps)
        lo = self.caps.mins[i]
        for key, v in self.c.items():
            k = key[i]
            if k == 0:
                continue
            nk = key[:i] + (k - 1,) + key[i + 1 :]
            if lo is not None and nk[i] < lo and (v or v != 0):
                raise ArithmeticError(f"derivative in {name} falls below the exponent floor")
            if self.caps.keep(nk):
                out.c[nk] = out.c.get(nk, 0) + k * v
        out.c = {k: v for k, v in out.c.items() if v or v != 0}
        return out
