"""Scalar backends: exact rationals and guarded arbitrary-precision floats.

Every quantity in this package is computed over one of two coefficient
backends, each driven through a context object with the same methods:

* :data:`EXACT`, the one :class:`ExactContext` -- ``fractions.Fraction``;
  used whenever the input data is rational.  Square roots of perfect
  squares, exp(0) and log(1) stay rational; any other square root,
  exponential or logarithm raises ``ArithmeticError``.
* :class:`FloatContext` -- mpmath ``mpf``/``mpc`` at a fixed binary
  precision; used for canonical frames, which involve eigenvalues and
  square roots.  mpmath's global precision is mutable state, so every
  operation runs inside a ``workprec`` guard, and the context carries the
  default tolerance used by internal consistency checks.

Arithmetic code takes a context and calls it; which backend runs is
decided here alone.  ``EXACT`` is the default wherever a context is
optional.
"""

from __future__ import annotations

import fractions
from math import isqrt
from typing import Iterable, Union

import mpmath

Rational = fractions.Fraction

Scalar = Union[Rational, int, mpmath.mpf, mpmath.mpc]


def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction."""
    return Rational(text.strip())


def format_rational(x: Rational) -> str:
    x = Rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class FloatContext:
    """Fixed-precision mpmath arithmetic with a default comparison tolerance.

    ``prec_bits`` is the binary mantissa size.  ``tol`` is the tolerance used
    by :meth:`close` and internal residual checks (relative to the ``scale``
    argument); the default pairs 256-bit arithmetic with 1e-40, leaving wide
    headroom between rounding noise and genuine signal.
    """

    def __init__(self, prec_bits: int = 256, tol=None):
        if prec_bits < 53:
            raise ValueError("prec_bits must be at least 53")
        self.prec_bits = int(prec_bits)
        with self.guard():
            self.tol = mpmath.mpf("1e-40") if tol is None else mpmath.mpf(tol)
        # decimal digits carried by format(); matches the mantissa size
        self.digits = max(5, int(self.prec_bits * 0.30103))

    def guard(self):
        return mpmath.workprec(self.prec_bits)

    # -- conversions ----------------------------------------------------

    def num(self, x):
        """Convert int/Fraction/float/str/mpf/mpc to mpf or mpc at full precision."""
        if mpmath.mp.prec != self.prec_bits:
            with self.guard():
                return self.num(x)
        if isinstance(x, Rational):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        if isinstance(x, complex):
            return mpmath.mpc(x.real, x.imag)
        return mpmath.mpmathify(x)

    def parse(self, text: str):
        with self.guard():
            if "/" in text and "j" not in text and "(" not in text:
                q = Rational(text)
                return self.num(q)
            return mpmath.mpmathify(text)

    def format(self, x) -> str:
        with self.guard():
            x = self.num(x)
            return mpmath.nstr(x, self.digits, strip_zeros=False)

    # -- arithmetic helpers ---------------------------------------------

    def sqrt(self, x):
        """Principal square root: nonnegative real part; on the branch cut
        (negative reals) the root with positive imaginary part."""
        with self.guard():
            x = self.num(x)
            if isinstance(x, mpmath.mpf):
                if x >= 0:
                    return mpmath.sqrt(x)
                return mpmath.mpc(0, mpmath.sqrt(-x))
            return mpmath.sqrt(x)

    def exp(self, x):
        with self.guard():
            return mpmath.exp(self.num(x))

    def log(self, x):
        with self.guard():
            return mpmath.log(self.num(x))

    def noise_floor(self, headroom_bits: int):
        """2**headroom_bits units in the last place: a residual at or below
        it is rounding noise."""
        return mpmath.mpf(2) ** (headroom_bits - self.prec_bits)

    def abs(self, x):
        with self.guard():
            return mpmath.fabs(self.num(x))

    def re(self, x):
        with self.guard():
            return mpmath.re(self.num(x))

    def im(self, x):
        with self.guard():
            return mpmath.im(self.num(x))

    def chop(self, x, tol=None):
        """Drop an imaginary part that is below tolerance (relative to |x|)."""
        tol = self.tol if tol is None else self.num(tol)
        with self.guard():
            x = self.num(x)
            if isinstance(x, mpmath.mpc):
                scale = max(mpmath.mpf(1), mpmath.fabs(x))
                if mpmath.fabs(mpmath.im(x)) <= tol * scale:
                    return mpmath.re(x)
            return x

    def close(self, a, b, tol=None, scale=1) -> bool:
        tol = self.tol if tol is None else self.num(tol)
        with self.guard():
            d = mpmath.fabs(self.num(a) - self.num(b))
            s = max(mpmath.mpf(1), mpmath.fabs(self.num(scale)))
            return d <= tol * s

    def max_abs(self, xs: Iterable) -> mpmath.mpf:
        with self.guard():
            m = mpmath.mpf(0)
            for x in xs:
                m = max(m, mpmath.fabs(self.num(x)))
            return m


class ExactContext:
    """Exact rational arithmetic behind the :class:`FloatContext` calls the
    arithmetic layers make.  A result that is not rational raises
    ``ArithmeticError`` instead of being rounded."""

    tol = Rational(0)
    prec_bits = None

    def guard(self) -> "ExactContext":
        """No precision to pin: the context is its own do-nothing guard."""
        return self

    def __enter__(self) -> "ExactContext":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def num(self, x) -> Rational:
        return Rational(x)

    def parse(self, text: str) -> Rational:
        return parse_rational(text)

    def format(self, x) -> str:
        return format_rational(self.num(x))

    def sqrt(self, x) -> Rational:
        q = self.num(x)
        if q >= 0:
            root = Rational(isqrt(q.numerator), isqrt(q.denominator))
            if root * root == q:
                return root
        raise ArithmeticError(f"sqrt({format_rational(q)}) is not rational")

    def exp(self, x) -> Rational:
        if x != 0:
            raise ArithmeticError(f"exp({format_rational(self.num(x))}) is transcendental")
        return Rational(1)

    def log(self, x) -> Rational:
        if x != 1:
            raise ArithmeticError(f"log({format_rational(self.num(x))}) is transcendental")
        return Rational(0)

    def noise_floor(self, headroom_bits: int) -> Rational:
        return Rational(0)

    def abs(self, x) -> Rational:
        return abs(self.num(x))

    def max_abs(self, xs: Iterable) -> Rational:
        return max((abs(self.num(x)) for x in xs), default=Rational(0))


EXACT = ExactContext()

Context = Union[FloatContext, ExactContext]
