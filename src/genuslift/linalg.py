"""Dense matrix helpers over generic coefficient rings.

Matrices are plain lists of row lists.  Entries may be exact scalars, mpmath
numbers, kernel scalars, or :class:`TruncatedSeries` jets; the helpers only
use ring operations (+, -, *), plus explicit division hooks where inversion
is required.  Dimensions here are tiny (the Frobenius manifolds of interest
have N <= 4), so everything is straightforward O(N^3).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence

from .scalars import Context, GaussianFixed

Matrix = List[list]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            s = a[i][0] * b[0][j]
            for k in range(1, m):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Sequence) -> list:
    return [sum_entries([a[i][k] * v[k] for k in range(len(v))]) for i in range(len(a))]


def sum_entries(xs: Sequence):
    s = xs[0]
    for x in xs[1:]:
        s = s + x
    return s


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def trace(a: Matrix):
    return sum_entries([a[i][i] for i in range(len(a))])


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def charpoly(a: Matrix, one, divk: Callable[[object, int], object]) -> list:
    """Faddeev-LeVerrier: coefficients [1, c_1, ..., c_n] of
    det(x I - A) = x^n + c_1 x^{n-1} + ... + c_n.

    ``one`` is the ring unit; ``divk(x, k)`` divides a ring element by a
    positive integer (exact in every ring we use, which all contain Q).
    """
    n = len(a)
    zero = one - one
    coeffs = [one]
    m = a
    for k in range(1, n + 1):
        if k > 1:
            # M_k = A (M_{k-1} + c_{k-1} I)
            c = coeffs[-1]
            m = mat_mul(a, [[x + c if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(m)])
        coeffs.append(zero - divk(trace(m), k))
    return coeffs


def poly_eval(coeffs: Sequence, x):
    """Evaluate sum coeffs[i] * x^(n-i) (coeffs[0] is the leading term)."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def mat_inv(a: Matrix, ctx: Context) -> Matrix:
    """Gauss-Jordan with partial pivoting, in the context's arithmetic.

    A matrix of kernel scalars (:class:`scalars.GaussianFixed`, one scale)
    stays in the kernel, at that scale, and pivots by the integer norm
    re^2 + im^2, as :meth:`FloatContext.max_abs` compares kernel scalars."""
    kind = next((x.__class__ for row in a for x in row if isinstance(x, GaussianFixed)), None)
    num, size = (kind.convert, kind.norm) if kind else (ctx.num, ctx.abs)
    with ctx.guard():
        n = len(a)
        m = [[num(x) for x in row] + [num(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
        for col in range(n):
            piv = max(range(col, n), key=lambda r: size(m[r][col]))
            if size(m[piv][col]) == 0:
                raise ZeroDivisionError("singular matrix")
            m[col], m[piv] = m[piv], m[col]
            pv = m[col][col]
            m[col] = [x / pv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return [row[n:] for row in m]

