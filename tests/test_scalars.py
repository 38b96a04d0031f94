"""The two scalar backends behind one interface.

Every arithmetic layer takes a context and calls it, so the same code runs
on ``EXACT`` and on a ``FloatContext``.  On rational inputs of polynomial
models the two must agree to the float precision; where the exact result
is not rational, ``EXACT`` raises instead of rounding.
"""

from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import genuslift
from genuslift.frobenius import threefold_cusp_model, two_primary_model
from genuslift.linalg import det, mat_inv
from genuslift.scalars import EXACT, FloatContext

CTX = FloatContext(256)
AGREE = "1e-70"
MODELS = (threefold_cusp_model(), two_primary_model(Fraction(1, 3)), two_primary_model(Fraction(1, 2)))

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=60)


@st.composite
def model_points(draw):
    model = draw(st.sampled_from(MODELS))
    point = tuple(draw(rationals) for _ in range(model.dimension))
    return model, point


def agree(exact, approx) -> bool:
    return CTX.close(exact, approx, tol=AGREE, scale=exact)


def agree_all(exact, approx) -> bool:
    return all(agree(a, b) for a, b in zip(exact, approx, strict=True))


def flat(matrices):
    return [x for mat in matrices for row in mat for x in row]


def agree_series(exact, approx) -> bool:
    keys = set(exact.c) | set(approx.c)
    return all(agree(exact.scalar_coeff(k), approx.scalar_coeff(k)) for k in keys)


class TestBackendsAgree:
    @settings(max_examples=25, deadline=None, database=None)
    @given(model_points())
    def test_structure_constants(self, case):
        model, point = case
        exact = model.structure_constants(point, EXACT)
        assert all(isinstance(x, Fraction) for x in flat(exact))
        assert agree_all(flat(exact), flat(model.structure_constants(point, CTX)))

    @settings(max_examples=25, deadline=None, database=None)
    @given(model_points())
    def test_euler_components_and_potential(self, case):
        model, point = case
        assert agree_all(model.euler.components(point, EXACT), model.euler.components(point, CTX))
        assert agree(model.potential.evaluate(point, EXACT), model.potential.evaluate(point, CTX))

    @settings(max_examples=25, deadline=None, database=None)
    @given(model_points())
    def test_mat_inv(self, case):
        model, point = case
        emul = model.euler_multiplication(point, EXACT)
        assume(det(emul) != 0)
        exact = mat_inv(emul, EXACT)
        assert all(isinstance(x, Fraction) for row in exact for x in row)
        assert agree_all(flat([exact]), flat([mat_inv(emul, CTX)]))

    @settings(max_examples=25, deadline=None, database=None)
    @given(model_points(), st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9))
    def test_series_functions(self, case, root):
        model, point = case
        jet = model.potential.jet(point, 3, EXACT)
        nil = jet - jet.constant_term()
        for series, fn in ((nil, "exp"), (nil + 1, "log"), (nil + root * root, "sqrt")):
            exact = getattr(series, fn)(EXACT)
            approx = getattr(series, fn)(CTX)
            assert all(isinstance(v, (int, Fraction)) for v in exact.c.values())
            assert agree_series(exact, approx)
        assert nil.exp(EXACT).c == nil.exp().c


class TestExactContext:
    def test_rational_results(self):
        assert EXACT.exp(0) == 1 and EXACT.log(1) == 0
        assert EXACT.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert EXACT.sqrt(0) == 0
        assert EXACT.abs(Fraction(-2, 3)) == Fraction(2, 3)
        assert EXACT.max_abs([]) == 0 and EXACT.max_abs([1, Fraction(-5, 2)]) == Fraction(5, 2)
        assert EXACT.tol == 0 and EXACT.noise_floor(40) == 0
        with EXACT.guard():
            assert isinstance(EXACT.num(3), Fraction)

    @pytest.mark.parametrize("x", [Fraction(1, 2), -1, 2])
    def test_exp_log_of_transcendental_raise(self, x):
        with pytest.raises(ArithmeticError, match="transcendental"):
            EXACT.exp(x)
        with pytest.raises(ArithmeticError, match="transcendental"):
            EXACT.log(x)

    @pytest.mark.parametrize("x", [2, Fraction(2, 9), Fraction(9, 2), -4])
    def test_sqrt_of_non_square_raises(self, x):
        with pytest.raises(ArithmeticError, match="not rational"):
            EXACT.sqrt(x)


class TestFloatConversion:
    def test_num_inside_guard_opens_no_workprec(self, monkeypatch):
        outside = CTX.num(Fraction(1, 3))
        entered = []
        workprec = mpmath.workprec

        def counting(n):
            entered.append(n)
            return workprec(n)

        with CTX.guard():
            monkeypatch.setattr(mpmath, "workprec", counting)
            inside = CTX.num(Fraction(1, 3))
        assert entered == []
        assert inside._mpf_ == outside._mpf_

    def test_num_outside_guard_keeps_all_bits(self):
        assert mpmath.mp.prec == 53
        x = CTX.num(Fraction(1, 3))
        with mpmath.workprec(256):
            third = mpmath.mpf(1) / 3
        assert x._mpf_ == third._mpf_
        assert x._mpf_[3] > 250


def test_no_backend_branches_in_src():
    """The choice between the backends lives in the context objects."""
    offenders = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(word in line for word in ("ctx is None", "ctx is not None", "nullcontext")):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
