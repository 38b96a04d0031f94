"""Symbolic potentials: finite sums of monomials times exponentials.

An :class:`Expression` in flat coordinates ``t^0 .. t^{N-1}`` is a finite sum
of terms

    c * prod_a (t^a)**m_a * exp(sum_a lam_a t^a)

with rational ``lam_a``, integer ``m_a`` (negative exponents allowed), and
a rational coefficient ``c``.  A document may name a coefficient by a
parameter; :meth:`Expression.from_json` substitutes the document's value, so
no parameter outlives the read.  This class is closed under differentiation,
and under antidifferentiation except for the genuinely non-elementary cases
(``1/t`` without an exponential, or a negative power against a nonzero
exponential), which raise.  Outside this module only the term-list writer
of the tests (``tests/oracles.py``) reads the term table.

Jets evaluate each term as a product of one-variable Taylor expansions, so a
full order-``J`` jet costs about ``terms * N * J`` coefficient operations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .scalars import (
    EXACT,
    Context,
    GaussianFixed,
    _context_of,
    _exponent,
    format_rational,
    from_kernel,
    parse_rational,
)
from .series import Caps, TruncatedSeries

TermKey = Tuple[Tuple[int, ...], Tuple[Fraction, ...]]


def t_names(n: int) -> Tuple[str, ...]:
    return tuple(f"t{i}" for i in range(n))


class UnboundParameterError(LookupError):
    """A potential names parameters its document gives no value."""


class Expression:
    __slots__ = ("nvars", "terms", "_numeric")

    def __init__(self, nvars: int, terms: Dict[TermKey, Fraction] | None = None):
        self.nvars = nvars
        self.terms: Dict[TermKey, Fraction] = {}
        # evaluate's converted terms, one list per context precision
        self._numeric: Dict[object, list] = {}
        if terms:
            for k, c in terms.items():
                if c != 0:
                    self.terms[k] = Fraction(c)

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
    ) -> "Expression":
        mono = tuple(int(m) for m in (mono or (0,) * nvars))
        expo = tuple(Fraction(e) for e in (expo or (0,) * nvars))
        if len(mono) != nvars or len(expo) != nvars:
            raise ValueError("term length mismatch")
        return Expression(nvars, {(mono, expo): Fraction(coeff)})

    # -- algebra ----------------------------------------------------------

    def _merged(self, key: TermKey, c: Fraction, acc: Dict[TermKey, Fraction]):
        if key in acc:
            s = acc[key] + c
            if s == 0:
                del acc[key]
            else:
                acc[key] = s
        elif c != 0:
            acc[key] = c

    def __add__(self, other: "Expression") -> "Expression":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc = dict(self.terms)
        out = Expression(self.nvars)
        out.terms = acc
        for k, c in other.terms.items():
            self._merged(k, c, acc)
        return out

    def __neg__(self) -> "Expression":
        out = Expression(self.nvars)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def scale(self, a) -> "Expression":
        a = Fraction(a)
        out = Expression(self.nvars)
        if a != 0:
            out.terms = {k: a * c for k, c in self.terms.items()}
        return out

    def __mul__(self, other: "Expression") -> "Expression":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc: Dict[TermKey, Fraction] = {}
        out = Expression(self.nvars)
        out.terms = acc
        for (m1, e1), c1 in self.terms.items():
            for (m2, e2), c2 in other.terms.items():
                key = (
                    tuple(a + b for a, b in zip(m1, m2)),
                    tuple(a + b for a, b in zip(e1, e2)),
                )
                self._merged(key, c1 * c2, acc)
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "Expression":
        acc: Dict[TermKey, Fraction] = {}
        out = Expression(self.nvars)
        out.terms = acc
        for (mono, expo), c in self.terms.items():
            m = mono[i]
            if m != 0:
                key = (mono[:i] + (m - 1,) + mono[i + 1 :], expo)
                self._merged(key, c * m, acc)
            lam = expo[i]
            if lam != 0:
                self._merged((mono, expo), c * lam, acc)
        return out

    def antidiff(self, i: int) -> "Expression":
        out = Expression(self.nvars)
        acc: Dict[TermKey, Fraction] = {}
        out.terms = acc
        for (mono, expo), c in self.terms.items():
            m = mono[i]
            lam = expo[i]
            if lam == 0:
                if m == -1:
                    raise ArithmeticError("antiderivative hits a logarithm (exponent -1)")
                key = (mono[:i] + (m + 1,) + mono[i + 1 :], expo)
                self._merged(key, c / (m + 1), acc)
            else:
                if m < 0:
                    raise ArithmeticError(
                        "antiderivative of negative power times exponential is not elementary"
                    )
                # repeated integration by parts, descending powers of t^i
                coef = c / lam
                for j in range(m, -1, -1):
                    key = (mono[:i] + (j,) + mono[i + 1 :], expo)
                    self._merged(key, coef, acc)
                    if j > 0:
                        coef = -coef * j / lam
        return out

    def restrict(self, i: int) -> "Expression":
        """Set coordinate ``i`` to zero: an exponential in that direction
        becomes 1, and a positive power drops its term."""
        out = Expression(self.nvars)
        acc: Dict[TermKey, Fraction] = {}
        out.terms = acc
        for (mono, expo), c in self.terms.items():
            m = mono[i]
            if m < 0:
                raise ZeroDivisionError("negative power restricted to zero")
            if m > 0:
                continue
            key = (mono, expo[:i] + (Fraction(0),) + expo[i + 1 :])
            self._merged(key, c, acc)
        return out

    def is_laurent(self) -> bool:
        """Whether no term carries an exponential, so the value at a
        rational point is rational."""
        return not any(any(expo) for _, expo in self.terms)

    def coeff_norm(self) -> Fraction:
        """Largest |coefficient|; zero exactly when the expression is."""
        m = Fraction(0)
        for c in self.terms.values():
            m = max(m, abs(c))
        return m

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence, ctx: Context):
        """The value at ``point`` in the context's arithmetic.

        At a point of kernel scalars (:class:`scalars.GaussianFixed`, one
        scale) the value is a kernel scalar of that scale, whatever ``ctx``:
        the rational coefficients and rates multiply in as Fractions, and
        an exponential factor is formed at the precision the scalars carry
        and converted, as the order-0 frame converts C_a."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        kernel = isinstance(point[0], GaussianFixed) if point else False
        ring = EXACT if kernel else ctx
        with ctx.guard():
            if kernel:
                pt, exp, zero = point, _kernel_exp, point[0].convert(0)
            else:
                pt, exp, zero = [ctx.num(x) for x in point], ctx.exp, ctx.num(0)
            total = zero
            # coefficients and rates go through ring.num once per precision
            terms = self._numeric.get(ring.prec_bits)
            if terms is None:
                terms = self._numeric[ring.prec_bits] = [
                    (ring.num(c), mono, [(a, ring.num(lam)) for a, lam in enumerate(expo) if lam])
                    for (mono, expo), c in self.terms.items()
                ]
            for c, mono, rates in terms:
                term = c
                for x, m in zip(pt, mono):
                    if m:
                        term = (x if m == 1 else x**m) * term
                if rates:
                    arg = zero
                    for a, lam in rates:
                        arg = arg + lam * pt[a]
                    if arg != 0:
                        term = term * exp(arg)
                total = total + term
            return total

    def jet(self, point: Sequence, order: int, ctx: Context) -> TruncatedSeries:
        """Taylor expansion around ``point`` as a series in t0..t{N-1},
        truncated at total degree ``order``.  Coefficients are Taylor
        coefficients (derivative / m!)."""
        # every Fraction-to-mpf conversion must happen at full precision
        with ctx.guard():
            return self._jet_impl(point, order, ctx)

    def _jet_impl(self, point: Sequence, order: int, ctx) -> TruncatedSeries:
        caps = Caps.total(t_names(self.nvars), order)
        out = TruncatedSeries.zero(caps)
        pt = [ctx.num(x) for x in point]
        names = t_names(self.nvars)
        for (mono, expo), c in self.terms.items():
            term = TruncatedSeries.const(caps, ctx.num(c))
            for i, m in enumerate(mono):
                if m or expo[i]:
                    term = term * _onevar_jet(caps, names[i], pt[i], m, expo[i], order, ctx)
                if not term:
                    break
            out = out + term
        return out

    # -- serialization --------------------------------------------------------

    @staticmethod
    def from_json(
        data, nvars: int | None = None, parameters: Mapping | None = None
    ) -> "Expression":
        """Read a term list.  A ``{"param": p, "times": c}`` coefficient is
        c times ``parameters[p]``; naming a parameter without a value raises
        :class:`UnboundParameterError` once the whole list has parsed."""
        if isinstance(data, str):
            data = json.loads(data)
        if nvars is None:
            if not data:
                raise ValueError("cannot infer variable count from an empty term list")
            nvars = len(data[0]["mono"])
        parameters = parameters or {}
        out = Expression(nvars)
        acc: Dict[TermKey, Fraction] = {}
        out.terms = acc
        unbound = set()
        for item in data:
            coeff = item["coeff"]
            if isinstance(coeff, dict):
                p = coeff["param"]
                c = parse_rational(coeff.get("times", "1"))
                if p in parameters:
                    c = c * Fraction(parameters[p])
                else:
                    unbound.add(p)
            else:
                c = parse_rational(coeff)
            mono = tuple(int(m) for m in item["mono"])
            expo = tuple(parse_rational(str(e)) for e in item.get("exp", [0] * nvars))
            if len(mono) != nvars or len(expo) != nvars:
                raise ValueError("term length mismatch")
            out._merged((mono, expo), c, acc)
        if unbound:
            raise UnboundParameterError(sorted(unbound))
        return out

    def __repr__(self):
        bits = []
        names = t_names(self.nvars)
        for (mono, expo), c in sorted(self.terms.items()):
            factors = [format_rational(c)] if (c != 1 or (not any(mono) and not any(expo))) else []
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


def _kernel_exp(x):
    """exp of a kernel scalar, formed at the precision it carries and
    converted to its scale.  A value of 2**shift or more raises
    ``OverflowError``: its fixed-point form would outgrow every other
    number of the scale by more bits than the scale carries."""
    value = _context_of(x).exp(x)
    top = _exponent(value)
    if top is not None and top > x.shift:
        raise OverflowError(f"exp of {from_kernel(x)} is too large for a fixed-point kernel")
    return x.convert(value)


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
    pref = ctx.exp(ctx.num(lam) * p)
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


def _power(p, k: int, ctx: Context):
    if k == 0:
        return ctx.num(1)
    with ctx.guard():
        return ctx.num(p) ** k


def _bounded(total: int, caps: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Tuples with entries 0 <= x_k <= caps[k] that add up to total."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(total, caps[0]) + 1):
        for tail in _bounded(total - first, caps[1:]):
            yield (first,) + tail


def _multi_indices(n: int, order: int):
    """Exponent tuples of length n by total degree up to ``order``."""
    for total in range(order + 1):
        yield from _bounded(total, (total,) * n)
