"""Scalar backends: exact rationals, guarded arbitrary-precision floats, and
the fixed-point scalars the graph-sum kernels run on.

Every quantity in this package is computed over one of two coefficient
backends, each driven through a context object with the same methods:

* :data:`EXACT`, the one :class:`ExactContext` -- ``fractions.Fraction``;
  used whenever the input data is rational.  Square roots of perfect
  squares, exp(0) and log(1) stay rational; any other square root,
  exponential or logarithm raises ``ArithmeticError``.
* :class:`FloatContext` -- mpmath ``mpf``/``mpc`` at a fixed binary
  precision; used where values leave the rationals (exponentials in the
  potential, frame jets, the frame at an irrational point such as a
  descendent critical point), and to pick the scale of kernel scalars and
  convert to and from them.  mpmath's global precision is mutable state,
  so every operation runs inside a guard (:meth:`FloatContext.guard`):
  a ``workprec`` one, or a do-nothing one when mpmath already runs at the
  context's precision, so a caller that opens one guard around many calls
  crosses into ``workprec`` once.  The context carries the default
  tolerance used by internal consistency checks.

Everything from the eigenvalues of the order-0 canonical frame to F_g --
the frame's roots, idempotents, Delta and Psi, R, its edge and tail tables
V and T, the graph sum and the Wick oracle -- only adds, multiplies,
divides, raises to integer powers and takes square roots, and so does the
Newton solve for a descendent critical point.  They run on *kernel
scalars*: a :class:`GaussianFixed`, a Gaussian fixed-point number
(re + i im) / 2**shift on two Python ints, whose products cost a fifth of
an ``mpc`` product at 256 bits.  Data is converted where it is made and
nowhere else: the producers (the canonical frame, the one producer of R's
starting data ``frame.kernel``, the lift of the edge/tail tables, and the
critical point's Newton solve) call :meth:`FloatContext.to_kernel` or
:func:`_kernel_shift`, the one rule that picks a table's scale, and
:meth:`GaussianFixed.convert` brings a number to a scale already picked.
The consumers run on the numbers the data holds, at the precision those
carry (:func:`_context_of`), and :func:`from_kernel` converts each result
back.  Rational data needs no conversion: a ``Fraction`` is its own kernel
scalar, and sums over it stay exact.

``genus.replay`` runs the recorded programs of the graph sum, the Wick
oracle and the vertex correlators on kernel data without kernel scalar
objects: :func:`to_lanes` splits their input registers once into *lanes*,
lists of the scaled integer parts, re and im, or re alone where every
imaginary part is 0, and :func:`lane_products` forms the products of a
step on as many lanes as there are, floored as
:meth:`GaussianFixed.__mul__` floors; sums of parts are exact, and a
division by an int floors each part as ``/`` does.  On one lane every
imaginary term two lanes would form is an exact 0, so it gives the same
bits for fewer products.  Only their outputs become kernel scalars again.

Arithmetic code takes a context and calls it; which backend runs is
decided here alone.  ``EXACT`` is the default wherever a context is
optional.
"""

from __future__ import annotations

import fractions
import math
from functools import cache
from itertools import repeat
from math import isqrt
from operator import mul, rshift
from typing import Iterable, Union

import mpmath
from mpmath.libmp import from_man_exp, round_nearest

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


class _Held:
    """The do-nothing guard: no precision to pin, or the one to pin holds."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_HELD = _Held()


class FloatContext:
    """Fixed-precision mpmath arithmetic with a default comparison tolerance.

    ``prec_bits`` is the binary mantissa size.  ``tol`` is the tolerance of
    the residual checks and of :meth:`chop`; the default pairs 256-bit
    arithmetic with 1e-40, leaving wide headroom between rounding noise and
    genuine signal.
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
        """Pin mpmath at ``prec_bits`` for a ``with`` block: a ``workprec``
        guard, or, when mpmath already runs at ``prec_bits``, the do-nothing
        guard :meth:`ExactContext.guard` returns.  Calls made inside a
        guard of this precision then pay no ``workprec`` round trip."""
        if mpmath.mp.prec == self.prec_bits:
            return _HELD
        return mpmath.workprec(self.prec_bits)

    # -- conversions ----------------------------------------------------

    def num(self, x):
        """Convert int/Fraction/float/str/mpf/mpc, or a kernel scalar
        (:func:`from_kernel`), to mpf or mpc at full precision."""
        with self.guard():
            if isinstance(x, Rational):
                return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            if isinstance(x, complex):
                return mpmath.mpc(x.real, x.imag)
            return mpmath.mpmathify(from_kernel(x))

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
        return mpmath.ldexp(1, headroom_bits - self.prec_bits)

    def abs(self, x):
        with self.guard():
            return mpmath.fabs(self.num(x))

    def chop(self, x):
        """Drop an imaginary part that is below tolerance (relative to |x|).
        One at most the tolerance itself goes without forming |x|, since
        tol * max(1, |x|) >= tol."""
        with self.guard():
            x = self.num(x)
            if isinstance(x, mpmath.mpc):
                im = mpmath.fabs(mpmath.im(x))
                if im <= self.tol or im <= self.tol * max(mpmath.mpf(1), mpmath.fabs(x)):
                    return mpmath.re(x)
            return x

    def max_abs(self, xs: Iterable) -> mpmath.mpf:
        """The largest |x|.  Kernel scalars are compared by the integer norm
        re^2 + im^2 within their scale, and only the largest of each scale is
        converted."""
        with self.guard():
            m = mpmath.mpf(0)
            tops = {}
            for x in xs:
                if isinstance(x, GaussianFixed):
                    norm = x.norm()
                    if norm > tops.get(x.__class__, (0, None))[0]:
                        tops[x.__class__] = (norm, x)
                else:
                    m = max(m, mpmath.fabs(self.num(x)))
            for _, x in tops.values():
                m = max(m, mpmath.fabs(self.num(x)))
            return m

    def to_kernel(self, values: list) -> list:
        """``values`` (numbers of any backend) as :class:`GaussianFixed`
        scalars of this precision at one scale: the :func:`_kernel_shift` of
        their numbers, but never below the largest scale among the kernel
        scalars they hold, so none loses a bit.  Each converts by
        :meth:`GaussianFixed.convert`; a list already at its scale comes
        back as the same list, so converting twice changes nothing.
        Infinities and NaNs raise ``ArithmeticError``."""
        held = [x.shift for x in values if isinstance(x, GaussianFixed)]
        kind = _fixed_type(max([_kernel_shift(self.prec_bits, values), *held]), self.prec_bits)
        if all(x.__class__ is kind for x in values):
            return values
        return [kind.convert(x) for x in values]


class ExactContext:
    """Exact rational arithmetic behind the :class:`FloatContext` calls the
    arithmetic layers make.  A result that is not rational raises
    ``ArithmeticError`` instead of being rounded."""

    tol = Rational(0)
    prec_bits = None

    def guard(self) -> _Held:
        """No precision to pin: the do-nothing guard."""
        return _HELD

    def num(self, x) -> Rational:
        return x if x.__class__ is Rational else Rational(x)

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


# -- fixed-point kernel scalars -------------------------------------------------

GUARD_BITS = 32
"""Bits a kernel scale carries beyond the working precision: room for the
rounding of the thousands of operations of one graph sum."""

_ZERO_PART = mpmath.mpf(0)._mpf_
_make_mpf, _make_mpc = mpmath.mp.make_mpf, mpmath.mp.make_mpc


def _exponent(x) -> int | None:
    """The e with 2**(e - 1) <= max(|re x|, |im x|) < 2**e for a nonzero
    number ``x`` of any backend, None for 0.  Infinities and NaNs raise
    ``ArithmeticError``."""
    if isinstance(x, GaussianFixed):
        # the bit length of |re| | |im| is that of max(|re|, |im|)
        top = (abs(x.re) | abs(x.im)).bit_length()
        return top - x.shift if top else None
    if isinstance(x, (int, Rational)):
        # at this scale floor(|x| 2**k) >= 1 keeps the top bit of |x|
        k = x.denominator.bit_length()
        top = ((abs(x.numerator) << k) // x.denominator).bit_length()
        return top - k if top else None
    if isinstance(x, (float, complex)):
        parts = [_finite(p) for p in (x.real, x.imag) if p]
        return max(math.frexp(p)[1] for p in parts) if parts else None
    tops = [exp + bc for _, man, exp, bc in _parts(x) if man]
    return max(tops) if tops else None


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ArithmeticError(f"{x} cannot enter a fixed-point kernel")
    return x


def _parts(x) -> tuple:
    """The raw (re, im) ``_mpf_`` tuples of an mpmath number (or a float,
    complex or string mpmath reads), checked finite."""
    z = mpmath.mpmathify(x)
    if not mpmath.isfinite(z):
        raise ArithmeticError(f"{z} cannot enter a fixed-point kernel")
    return z._mpc_ if isinstance(z, mpmath.mpc) else (z._mpf_, _ZERO_PART)


def _kernel_shift(prec_bits: int, values: list) -> int:
    """The binary scale of a kernel table of ``values``: ``prec_bits +
    GUARD_BITS`` plus the largest |e| of :func:`_exponent` over its nonzero
    numbers.  Every nonzero number and its reciprocal then keep at least
    ``prec_bits`` significant bits.  On the benchmark's workloads the
    frame's numbers, the gaps u_j - u_i included, lie between 2**-4 and
    2**9, and the edge and tail tables built from them between 2**-39 and
    2**9, so the shift is at most prec_bits + 71."""
    reach = max((abs(e) for e in map(_exponent, values) if e is not None), default=0)
    return prec_bits + GUARD_BITS + reach


def _scaled(part: tuple, shift: int) -> int:
    """floor(x * 2**shift) for the mpf whose raw tuple is ``part``."""
    sign, man, exp, _ = part
    man = -man if sign else man
    exp += shift
    return man << exp if exp >= 0 else man >> -exp


class GaussianFixed:
    """A Gaussian fixed-point number (re + i im) / 2**shift, with re and im
    Python ints: the kernel scalar of a :class:`FloatContext`.

    ``shift`` and the working precision ``prec`` are class attributes: each
    scale has its own subclass (:func:`_fixed_type`), and arithmetic takes
    operands of the same subclass, ints and Fractions, so numbers of two
    scales never meet unnoticed.  Supported: ``+``, ``-`` (binary and
    unary), ``*`` by a kernel scalar, an int or a Fraction, ``/`` by a
    kernel scalar, an int or a Fraction, an int or a Fraction divided by a
    kernel scalar (``1 / x``), ``**`` by any int (a negative power inverts
    first), the principal :meth:`sqrt`, ``==`` against a kernel scalar or
    a rational, and truth, which is False exactly for 0.  Dividing by 0
    raises ``ZeroDivisionError``.

    Rounding: every result is floored, toward -inf in each part: the right
    shift after a product, the integer division by a Fraction's
    denominator, a divisor or a squared modulus, the division of an
    inverse, and both parts of a square root.  Sums and products by ints
    are exact."""

    __slots__ = ("re", "im")
    shift = 0
    prec = 0

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.re}, {self.im})"

    @classmethod
    def convert(cls, x) -> "GaussianFixed":
        """A number of any backend at this class's scale: a kernel scalar
        of this class as it is, one of a coarser scale shifted left exactly
        and one of a finer scale floored, an int, a Fraction or a double
        floored exactly, an mpmath number floored from its raw parts.
        Infinities and NaNs raise ``ArithmeticError``."""
        if x.__class__ is cls:
            return x
        shift = cls.shift
        if isinstance(x, GaussianFixed):
            up = shift - x.shift
            if up < 0:
                return cls(x.re >> -up, x.im >> -up)
            return cls(x.re << up, x.im << up)
        if isinstance(x, (int, Rational)):
            return cls((x.numerator << shift) // x.denominator, 0)
        if isinstance(x, (float, complex)):
            re, im = (_finite(p).as_integer_ratio() for p in (x.real, x.imag))
            return cls((re[0] << shift) // re[1], (im[0] << shift) // im[1])
        re, im = _parts(x)
        return cls(_scaled(re, shift), _scaled(im, shift))

    def __add__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return cls(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Rational)):
            return self + self.convert(other) if other else self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return cls(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Rational)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self.__class__(-self.re, -self.im)

    def __mul__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            a, b, c, d = self.re, self.im, other.re, other.im
            shift = cls.shift
            return cls((a * c - b * d) >> shift, (a * d + b * c) >> shift)
        if isinstance(other, int):
            return cls(self.re * other, self.im * other)
        if isinstance(other, Rational):
            p, q = other.numerator, other.denominator
            return cls(self.re * p // q, self.im * p // q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            # x / y = 2**shift x conj(y) / |y|^2 on the scaled parts
            a, b, c, d = self.re, self.im, other.re, other.im
            norm = c * c + d * d
            if not norm:
                raise ZeroDivisionError("division by the kernel scalar 0")
            shift = cls.shift
            return cls(((a * c + b * d) << shift) // norm, ((b * c - a * d) << shift) // norm)
        if isinstance(other, int):
            return cls(self.re // other, self.im // other)
        if isinstance(other, Rational):
            return self * Rational(other.denominator, other.numerator)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Rational)):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self) -> "GaussianFixed":
        a, b = self.re, self.im
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("the kernel scalar 0 has no inverse")
        # 1/x = 2**shift (a - ib) / (a^2 + b^2), scaled by 2**shift
        twice = 2 * self.shift
        return self.__class__((a << twice) // norm, (-b << twice) // norm)

    def sqrt(self) -> "GaussianFixed":
        """The principal square root, as ``mpmath.sqrt`` takes it: the real
        part is nonnegative, and on the negative real axis (imaginary part
        exactly 0) the imaginary part is positive.  The larger part is an
        integer square root of the scaled parts, the other one follows as
        im / (2 re); both are floored."""
        a, b, shift = self.re, self.im, self.shift
        # |x| 2**shift, then sqrt((|x| +- re x) / 2) 2**shift without cancellation
        mod = isqrt(a * a + b * b)
        if a >= 0:
            re = isqrt((mod + a) << (shift - 1))
            im = (b << shift) // (2 * re) if re else 0
        else:
            root = isqrt((mod - a) << (shift - 1))
            im = root if b >= 0 else -root
            re = (abs(b) << shift) // (2 * root)
        return self.__class__(re, im)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base, n = self._reciprocal(), -n
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.convert(1) if out is None else out

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Rational)):
            if not other:
                return not (self.re or self.im)
            return not self.im and Rational(other) * (1 << self.shift) == self.re
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def norm(self) -> int:
        """re^2 + im^2: |x|^2 times 4**shift, the integer that orders
        kernel scalars of one scale by modulus."""
        return self.re * self.re + self.im * self.im


@cache
def _fixed_type(shift: int, prec: int) -> type:
    """The :class:`GaussianFixed` subclass of one scale and precision."""
    return type(
        f"GaussianFixed{shift}",
        (GaussianFixed,),
        {"__slots__": (), "shift": shift, "prec": prec, "__module__": __name__},
    )


def to_lanes(values: Iterable, kind: type) -> tuple:
    """The *lanes* of ``values``: their scaled integer parts at the scale of
    the :class:`GaussianFixed` subclass ``kind``, as a tuple of lists, (re,
    im), or (re,) alone when every imaginary part is 0.  A kernel scalar of
    ``kind`` gives its parts and an int n those of ``kind.convert(n)``, (n
    2**shift, 0).  Any other number raises ``TypeError``, so numbers of two
    scales never meet unnoticed here either."""
    shift = kind.shift
    re, im = [], []
    for x in values:
        if x.__class__ is kind:
            re.append(x.re)
            im.append(x.im)
        elif x.__class__ is int:
            re.append(x << shift)
            im.append(0)
        else:
            raise TypeError(f"{type(x).__name__} is not a kernel scalar of {kind.__name__}")
    return (re, im) if any(im) else (re,)


def lane_products(lanes: tuple, left, right, shift: int) -> tuple:
    """The products of the registers left[t] and right[t] of ``lanes``
    (:func:`to_lanes`) at scale ``shift``, as new lanes, as many as given.
    Each is floored as :meth:`GaussianFixed.__mul__` floors it, so the
    parts are those of the product of the kernel scalars, bit for bit.  On
    one lane a product is (a c) >> shift: every imaginary term the two
    lanes would form is an exact 0."""
    if len(lanes) == 1:
        read = lanes[0].__getitem__
        return (list(map(rshift, map(mul, map(read, left), map(read, right)), repeat(shift))),)
    re, im = lanes
    out_re, out_im = [], []
    for x, y in zip(left, right):
        a, b, c, d = re[x], im[x], re[y], im[y]
        out_re.append((a * c - b * d) >> shift)
        out_im.append((a * d + b * c) >> shift)
    return out_re, out_im


def from_kernel(x):
    """A kernel scalar back at working precision: a :class:`GaussianFixed`
    becomes an mpf when its imaginary part is 0 and an mpc otherwise, each
    part rounded to nearest at the precision it was converted from.  Any
    other number is returned as it is."""
    if not isinstance(x, GaussianFixed):
        return x
    re = from_man_exp(x.re, -x.shift, x.prec, round_nearest)
    if not x.im:
        return _make_mpf(re)
    return _make_mpc((re, from_man_exp(x.im, -x.shift, x.prec, round_nearest)))


_float_context = cache(FloatContext)


def _context_of(x) -> Context:
    """The context results made from the number ``x`` are formed in: a
    :class:`FloatContext` at the precision of a kernel scalar, else
    :data:`EXACT`, whose guard pins nothing, so rationals stay exact and
    mpmath numbers run at the caller's precision."""
    return _float_context(x.prec) if isinstance(x, GaussianFixed) else EXACT
