"""Symbolic potentials: finite sums of monomials times exponentials.

An :class:`Expression` in flat coordinates ``t^0 .. t^{N-1}`` is a finite sum
of terms

    c * prod_a (t^a)**m_a * exp(sum_a lam_a t^a)

with rational ``lam_a``, integer ``m_a`` (negative exponents allowed), and
coefficient ``c`` a rational, optionally times one named parameter.  This
class is closed under differentiation, and under antidifferentiation except
for the genuinely non-elementary cases (``1/t`` without an exponential, or a
negative power against a nonzero exponential), which raise.

Jets evaluate each term as a product of one-variable Taylor expansions, so a
full order-``J`` jet costs about ``terms * N * J`` coefficient operations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

import mpmath

from .scalars import FloatContext, format_rational, parse_rational
from .series import Caps, TruncatedSeries

TermKey = Tuple[Tuple[int, ...], Tuple[Fraction, ...]]
Coeff = Tuple[Fraction, Optional[str]]


def t_names(n: int) -> Tuple[str, ...]:
    return tuple(f"t{i}" for i in range(n))


class Expression:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[TermKey, Coeff] | None = None):
        self.nvars = nvars
        self.terms: Dict[TermKey, Coeff] = {}
        if terms:
            for k, (c, p) in terms.items():
                if c != 0:
                    self.terms[k] = (Fraction(c), p)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Expression":
        return Expression(nvars)

    @staticmethod
    def term(
        nvars: int,
        coeff,
        mono: Sequence[int] | None = None,
        expo: Sequence | None = None,
        param: str | None = None,
    ) -> "Expression":
        mono = tuple(int(m) for m in (mono or (0,) * nvars))
        expo = tuple(Fraction(e) for e in (expo or (0,) * nvars))
        if len(mono) != nvars or len(expo) != nvars:
            raise ValueError("term length mismatch")
        return Expression(nvars, {(mono, expo): (Fraction(coeff), param)})

    # -- algebra ----------------------------------------------------------

    def _merged(self, key: TermKey, c: Fraction, p: Optional[str], acc: Dict[TermKey, Coeff]):
        if key in acc:
            c0, p0 = acc[key]
            if p0 == p:
                s = c0 + c
                if s == 0:
                    del acc[key]
                else:
                    acc[key] = (s, p)
                return
            # same monomial, different parameter: keep separate via a twin key
            # (cannot happen through the public constructors, which fold params)
            raise ArithmeticError("conflicting parameters on one monomial")
        if c != 0:
            acc[key] = (c, p)

    def __add__(self, other: "Expression") -> "Expression":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc = dict(self.terms)
        out = Expression(self.nvars)
        out.terms = acc
        for k, (c, p) in other.terms.items():
            self._merged(k, c, p, acc)
        return out

    def __neg__(self) -> "Expression":
        out = Expression(self.nvars)
        out.terms = {k: (-c, p) for k, (c, p) in self.terms.items()}
        return out

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def scale(self, a) -> "Expression":
        a = Fraction(a)
        out = Expression(self.nvars)
        if a != 0:
            out.terms = {k: (a * c, p) for k, (c, p) in self.terms.items()}
        return out

    def __mul__(self, other: "Expression") -> "Expression":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc: Dict[TermKey, Coeff] = {}
        out = Expression(self.nvars)
        out.terms = acc
        for (m1, e1), (c1, p1) in self.terms.items():
            for (m2, e2), (c2, p2) in other.terms.items():
                if p1 is not None and p2 is not None:
                    raise ArithmeticError("nonlinear use of parameters")
                key = (
                    tuple(a + b for a, b in zip(m1, m2)),
                    tuple(a + b for a, b in zip(e1, e2)),
                )
                self._merged(key, c1 * c2, p1 or p2, acc)
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "Expression":
        acc: Dict[TermKey, Coeff] = {}
        out = Expression(self.nvars)
        out.terms = acc
        for (mono, expo), (c, p) in self.terms.items():
            m = mono[i]
            if m != 0:
                key = (mono[:i] + (m - 1,) + mono[i + 1 :], expo)
                self._merged(key, c * m, p, acc)
            lam = expo[i]
            if lam != 0:
                self._merged((mono, expo), c * lam, p, acc)
        return out

    def antidiff(self, i: int) -> "Expression":
        out = Expression(self.nvars)
        acc: Dict[TermKey, Coeff] = {}
        out.terms = acc
        for (mono, expo), (c, p) in self.terms.items():
            m = mono[i]
            lam = expo[i]
            if lam == 0:
                if m == -1:
                    raise ArithmeticError("antiderivative hits a logarithm (exponent -1)")
                key = (mono[:i] + (m + 1,) + mono[i + 1 :], expo)
                self._merged(key, c / (m + 1), p, acc)
            else:
                if m < 0:
                    raise ArithmeticError(
                        "antiderivative of negative power times exponential is not elementary"
                    )
                # repeated integration by parts, descending powers of t^i
                coef = c / lam
                for j in range(m, -1, -1):
                    key = (mono[:i] + (j,) + mono[i + 1 :], expo)
                    self._merged(key, coef, p, acc)
                    if j > 0:
                        coef = -coef * j / lam
        return out

    # -- parameter handling -------------------------------------------------

    def parameters(self) -> set:
        return {p for (_, p) in self.terms.values() if p is not None}

    def bind(self, params: Mapping[str, object] | None) -> "Expression":
        """Substitute rational parameter values, leaving a parameter-free sum."""
        params = params or {}
        acc: Dict[TermKey, Coeff] = {}
        out = Expression(self.nvars)
        out.terms = acc
        for key, (c, p) in self.terms.items():
            if p is None:
                self._merged(key, c, None, acc)
            else:
                if p not in params:
                    raise KeyError(f"parameter {p!r} has no bound value")
                self._merged(key, c * Fraction(params[p]), None, acc)
        return out

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence, ctx: FloatContext | None, params=None):
        expr = self.bind(params) if (params or self.parameters()) else self
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        if ctx is None:
            pt = [Fraction(x) for x in point]
            total = Fraction(0)
            for (mono, expo), (c, _) in expr.terms.items():
                arg = sum((lam * x for lam, x in zip(expo, pt)), Fraction(0))
                if arg != 0:
                    raise ArithmeticError("exact evaluation hits a transcendental exponential")
                term = c
                for x, m in zip(pt, mono):
                    if m:
                        term *= x**m
                total += term
            return total
        with ctx.guard():
            pt = [ctx.num(x) for x in point]
            total = ctx.num(0)
            for (mono, expo), (c, _) in expr.terms.items():
                term = ctx.num(c)
                for x, m in zip(pt, mono):
                    if m:
                        term = term * x**m
                arg = ctx.num(0)
                for lam, x in zip(expo, pt):
                    if lam:
                        arg = arg + ctx.num(lam) * x
                if arg != 0:
                    term = term * mpmath.exp(arg)
                total = total + term
            return total

    def jet(self, point: Sequence, order: int, ctx: FloatContext | None, params=None) -> TruncatedSeries:
        """Taylor expansion around ``point`` as a series in t0..t{N-1},
        truncated at total degree ``order``.  Coefficients are Taylor
        coefficients (derivative / m!)."""
        expr = self.bind(params) if (params or self.parameters()) else self
        if ctx is None:
            return expr._jet_impl(point, order, None)
        # every Fraction-to-mpf conversion must happen at full precision
        with ctx.guard():
            return expr._jet_impl(point, order, ctx)

    def _jet_impl(self, point: Sequence, order: int, ctx) -> TruncatedSeries:
        caps = Caps.total(t_names(self.nvars), order)
        out = TruncatedSeries.zero(caps)
        if ctx is None:
            pt = [Fraction(x) for x in point]
        else:
            pt = [ctx.num(x) for x in point]
        names = t_names(self.nvars)
        for (mono, expo), (c, _) in self.terms.items():
            term = TruncatedSeries.const(caps, Fraction(c) if ctx is None else ctx.num(c))
            for i, m in enumerate(mono):
                if m or expo[i]:
                    term = term * _onevar_jet(caps, names[i], pt[i], m, expo[i], order, ctx)
                if not term:
                    break
            out = out + term
        return out

    def derivatives(self, point: Sequence, order: int, ctx: FloatContext | None, params=None):
        """Dict of all partial derivatives up to total order: {multi-index: value}."""
        jet = self.jet(point, order, ctx, params)
        out = {}
        import math

        for key in _multi_indices(self.nvars, order):
            c = jet.scalar_coeff(key)
            fact = 1
            for m in key:
                fact *= math.factorial(m)
            out[key] = c * fact
        return out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list:
        items = []
        for (mono, expo), (c, p) in sorted(self.terms.items()):
            if p is None:
                coeff = format_rational(c)
            elif c == 1:
                coeff = {"param": p}
            else:
                coeff = {"param": p, "times": format_rational(c)}
            items.append(
                {
                    "coeff": coeff,
                    "mono": list(mono),
                    "exp": [format_rational(e) for e in expo],
                }
            )
        return items

    @staticmethod
    def from_json(data, nvars: int | None = None) -> "Expression":
        if isinstance(data, str):
            data = json.loads(data)
        if nvars is None:
            if not data:
                raise ValueError("cannot infer variable count from an empty term list")
            nvars = len(data[0]["mono"])
        out = Expression(nvars)
        acc: Dict[TermKey, Coeff] = {}
        out.terms = acc
        for item in data:
            coeff = item["coeff"]
            if isinstance(coeff, dict):
                p = coeff["param"]
                c = parse_rational(coeff.get("times", "1"))
            else:
                p = None
                c = parse_rational(coeff)
            mono = tuple(int(m) for m in item["mono"])
            expo = tuple(parse_rational(str(e)) for e in item.get("exp", [0] * nvars))
            if len(mono) != nvars or len(expo) != nvars:
                raise ValueError("term length mismatch")
            out._merged((mono, expo), c, p, acc)
        return out

    def __repr__(self):
        bits = []
        names = t_names(self.nvars)
        for (mono, expo), (c, p) in sorted(self.terms.items()):
            factors = [format_rational(c)] if (c != 1 or (not any(mono) and not any(expo))) else []
            if p:
                factors.append(p)
            for nm, m in zip(names, mono):
                if m == 1:
                    factors.append(nm)
                elif m:
                    factors.append(f"{nm}^{m}")
            lin = "+".join(
                f"{format_rational(lam)}*{nm}" if lam != 1 else nm
                for nm, lam in zip(names, expo)
                if lam
            )
            if lin:
                factors.append(f"exp({lin})")
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits) if bits else "0"


def _onevar_jet(caps: Caps, name: str, p, m: int, lam: Fraction, order: int, ctx) -> TruncatedSeries:
    """Jet of t^m * exp(lam t) at t = p, in the shift variable."""
    out = TruncatedSeries.zero(caps)
    # (p + d)^m as sum_j binom(m, j) p^(m-j) d^j
    powpart: list = []
    if m >= 0:
        for j in range(min(m, order) + 1):
            powpart.append((j, _binom(m, j) * _power(p, m - j, ctx)))
    else:
        if p == 0:
            raise ZeroDivisionError("negative power expanded at zero")
        for j in range(order + 1):
            powpart.append((j, _binom(m, j) * _power(p, m - j, ctx)))
    if lam == 0:
        for j, c in powpart:
            if c != 0:
                out = out + TruncatedSeries.var(caps, name, j, c)
        return out
    # exp(lam p) * exp(lam d)
    if ctx is None:
        if lam * Fraction(p) != 0:
            raise ArithmeticError("exact jet hits a transcendental exponential")
        pref = Fraction(1)
    else:
        with ctx.guard():
            pref = mpmath.exp(ctx.num(lam) * p)
    exp_coeffs = []
    fact = Fraction(1)
    for j in range(order + 1):
        exp_coeffs.append(pref * fact)
        fact = fact * lam / (j + 1)
    total = TruncatedSeries.zero(caps)
    for j1, c1 in powpart:
        for j2 in range(order + 1 - j1):
            c2 = exp_coeffs[j2]
            v = c1 * c2
            if v != 0:
                total = total + TruncatedSeries.var(caps, name, j1 + j2, v)
    return total


def _binom(m: int, j: int) -> Fraction:
    out = Fraction(1)
    for r in range(j):
        out = out * Fraction(m - r, r + 1)
    return out


def _power(p, k: int, ctx):
    if k == 0:
        return Fraction(1) if ctx is None else ctx.num(1)
    if ctx is None:
        return Fraction(p) ** k
    with ctx.guard():
        return ctx.num(p) ** k


def _multi_indices(n: int, order: int):
    if n == 0:
        yield ()
        return
    for total in range(order + 1):
        yield from _fixed_total(n, total)


def _fixed_total(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _fixed_total(n - 1, total - first):
            yield (first,) + rest
