"""The two scalar backends behind one interface.

Every arithmetic layer takes a context and calls it, so the same code runs
on ``EXACT`` and on a ``FloatContext``.  On rational inputs of polynomial
models the two must agree to the float precision; where the exact result
is not rational, ``EXACT`` raises instead of rounding.
"""

import ast
import importlib
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import genuslift
from genuslift.descendent import CurvePoint, compute_calibration, critical_point
from genuslift.frame import canonical_frame
from genuslift.frobenius import (
    EulerData,
    FrobeniusModel,
    point_model,
    threefold_cusp_model,
    two_primary_model,
)
from genuslift.linalg import mat_inv
from genuslift.scalars import EXACT, FloatContext, _fixed_type, from_kernel, lane_products, to_lanes
from oracles import close, critical_point_reference, det

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
    return close(CTX, exact, approx, tol=AGREE, scale=exact)


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
        # multiplication by the Euler field: sum_a E^a C_a
        cmats = model.structure_constants(point, EXACT)
        evec = model.euler.components(point, EXACT)
        n = model.dimension
        emul = [[sum(e * c[i][j] for e, c in zip(evec, cmats)) for j in range(n)] for i in range(n)]
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


def _bits(x):
    """The raw parts of an mpmath number, a string as it is."""
    if isinstance(x, mpmath.mpc):
        return x._mpc_
    return x._mpf_ if isinstance(x, mpmath.mpf) else x


def _guarded_calls() -> list:
    """(method, argument) pairs covering every guarding FloatContext
    method on rationals, kernel scalars and mpmath numbers, made at the
    context's precision."""
    prec = CTX.prec_bits
    kind = _fixed_type(prec + 40, prec)
    with mpmath.workprec(prec):
        real = kind.convert(mpmath.mpf(2) / 7)
        plane = kind.convert(mpmath.mpc(-3, 5) / 11)
        # an imaginary part below the tolerance, which chop drops
        nearly_real = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf("1e-50"))
    return [
        ("num", Fraction(1, 3)),
        ("num", plane),
        ("abs", Fraction(-2, 7)),
        ("abs", plane),
        ("chop", nearly_real),
        ("chop", plane),
        ("format", Fraction(1, 3)),
        ("format", plane),
        ("sqrt", Fraction(-2, 3)),
        ("sqrt", plane),
        ("exp", Fraction(1, 3)),
        ("exp", plane),
        ("log", Fraction(-1, 3)),
        ("log", real),
        ("max_abs", [real, Fraction(-1, 5), plane, 0]),
        ("max_abs", [Fraction(7, 3), plane]),
    ]


class TestGuards:
    """Every guarding method gives the same bits whatever precision mpmath
    runs at when it is called, and leaves that precision as it found it."""

    @pytest.mark.parametrize(
        "name, arg", _guarded_calls(), ids=[f"{n}-{i}" for i, (n, _) in enumerate(_guarded_calls())]
    )
    def test_same_bits_outside_inside_and_under_another_precision(self, name, arg):
        method = getattr(CTX, name)
        assert mpmath.mp.prec == 53
        outside = _bits(method(arg))
        assert mpmath.mp.prec == 53
        with CTX.guard():
            inside = _bits(method(arg))
            assert mpmath.mp.prec == PREC
        with FloatContext(128).guard():
            under_128 = _bits(method(arg))
            assert mpmath.mp.prec == 128
        assert mpmath.mp.prec == 53
        assert inside == outside and under_128 == outside

    def test_guards_of_two_precisions_restore_in_order(self):
        low = FloatContext(128)
        assert mpmath.mp.prec == 53
        with CTX.guard():
            assert mpmath.mp.prec == PREC
            with low.guard():
                assert mpmath.mp.prec == 128
                with CTX.guard():
                    assert mpmath.mp.prec == PREC
                    # at its own precision a guard pins nothing
                    with CTX.guard():
                        assert mpmath.mp.prec == PREC
                    assert mpmath.mp.prec == PREC
                assert mpmath.mp.prec == 128
            assert mpmath.mp.prec == PREC
        assert mpmath.mp.prec == 53
        with pytest.raises(ZeroDivisionError):
            with CTX.guard(), low.guard(), CTX.guard():
                Fraction(1, 0)
        assert mpmath.mp.prec == 53

    def test_guard_at_the_working_precision_opens_no_workprec(self, monkeypatch):
        calls, low = _guarded_calls(), FloatContext(128)
        entered = []
        workprec = mpmath.workprec

        def counting(n):
            entered.append(n)
            return workprec(n)

        monkeypatch.setattr(mpmath, "workprec", counting)
        with CTX.guard():
            for name, arg in calls:
                getattr(CTX, name)(arg)
            with low.guard():
                CTX.abs(Fraction(1, 3))
        assert entered == [PREC, 128, PREC]


PREC = CTX.prec_bits


@st.composite
def complexes(draw):
    """An mpc of magnitude between 2**-60 and 2**60: one part has a
    full-width mantissa, the other any mantissa up to that width, zero
    included."""
    e = draw(st.integers(-59, 60))
    lead = draw(st.integers(2 ** (PREC - 1), 2 ** PREC - 1)) * draw(st.sampled_from((1, -1)))
    other = draw(st.integers(-(2 ** PREC) + 1, 2 ** PREC - 1))
    parts = (lead, other) if draw(st.booleans()) else (other, lead)
    with CTX.guard():
        return mpmath.mpc(*(mpmath.ldexp(mpmath.mpf(p), e - PREC) for p in parts))


def slack(reference, shift, floors=8):
    """Bound on |kernel - reference| for one operation on converted values.

    Relative part, 2**(3 - PREC): the reference rounds each part once per
    operation (at most 3 products for x**-3), the way back rounds to
    nearest, and by the choice of the shift every converted operand is off
    by less than 2**-(PREC + 30) of itself.  Absolute part: each result of
    the kernel is floored, an error below sqrt(2) 2**-shift, and an
    operation takes at most ``floors`` of them."""
    return mpmath.ldexp(mpmath.fabs(reference), 3 - PREC) + floors * mpmath.ldexp(1, 1 - shift)


class TestKernelScalars:
    """The fixed-point kernel scalar against mpc arithmetic at PREC bits."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(complexes())
    def test_round_trip(self, z):
        (k,) = CTX.to_kernel([z])
        with CTX.guard():
            back = from_kernel(k)
            assert mpmath.fabs(back - z) <= slack(z, k.shift, floors=1)
        assert CTX.to_kernel([k])[0] is k

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        complexes(),
        complexes(),
        st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6).filter(bool),
        st.integers(1, 3),
    )
    def test_operations(self, x, y, q, n):
        kx, ky = CTX.to_kernel([x, y])
        shift = kx.shift
        assert PREC + 32 <= shift <= PREC + 32 + 61
        with CTX.guard():
            qf = CTX.num(q)
            # x + q can cancel: the reference adds q itself, not its rounding qf
            with mpmath.workprec(4 * PREC):
                x_plus_q = x + mpmath.mpf(q.numerator) / q.denominator
            cases = [
                (kx + ky, x + y),
                (kx - ky, x - y),
                (-kx, -x),
                (kx * ky, x * y),
                (kx * q, x * qf),
                (q * kx, x * qf),
                (kx / q, x / qf),
                (kx * 3, x * 3),
                (kx / 3, x / 3),
                (kx ** n, x ** n),
                (kx ** -n, x ** -n),
                (kx + q, x_plus_q),
                (kx / ky, x / y),
                (1 / kx, 1 / x),
            ]
            for got, want in cases:
                assert mpmath.fabs(from_kernel(got) - want) <= slack(want, shift)

    @settings(max_examples=60, deadline=None, database=None)
    @given(complexes())
    def test_square_root(self, x):
        (k,) = CTX.to_kernel([x])
        with CTX.guard():
            want = mpmath.sqrt(x)
            assert mpmath.fabs(from_kernel(k.sqrt()) - want) <= slack(want, k.shift)

    def test_square_root_on_the_negative_real_axis(self):
        # flooring can leave the imaginary part of a negative real number at
        # 0 or push it to -1 unit: the root follows mpmath's principal branch
        # for the number the kernel scalar holds, +i sqrt(10.33) on the axis
        # and -i sqrt(10.33) just below it
        with CTX.guard():
            (k,) = CTX.to_kernel([mpmath.mpf("-10.33")])
            for im, sign in ((0, 1), (-1, -1), (1, 1)):
                x = type(k)(k.re, im)
                got, want = from_kernel(x.sqrt()), mpmath.sqrt(mpmath.mpc(from_kernel(x)))
                assert mpmath.fabs(got - want) <= slack(want, k.shift)
                assert mpmath.re(got) >= 0 and mpmath.sign(mpmath.im(got)) == sign
            assert x.sqrt().re >= 0 and type(k)(k.re, 0).sqrt().re == 0

    def test_zero_stays_zero(self):
        with CTX.guard():
            zero, one, x = CTX.to_kernel([mpmath.mpc(0, 0), 1, mpmath.mpc("0.3", "-1e-11")])
        assert zero == 0 and not zero and zero.re == zero.im == 0
        for z in (zero * x, x * zero, zero * Fraction(7, 3), zero / 5, zero + zero, -zero,
                  x - x, zero ** 2, Fraction(0) + zero, 0 * x):
            assert z == 0 and not z
            assert from_kernel(z) == 0
        assert x != 0 and x and one == 1 and one ** -3 == 1 and x ** 0 == one
        assert zero / x == 0 and not zero / x
        for divide in (lambda: zero ** -1, lambda: x / zero, lambda: 1 / zero):
            with pytest.raises(ZeroDivisionError):
                divide()

    def test_table_of_one_scale_keeps_its_entries(self):
        with CTX.guard():
            kx, ky = CTX.to_kernel([mpmath.mpf(2) / 3, mpmath.mpc(-1, 5) / 7])
        # exact ints and Fractions join the kernel scalars at their scale
        table = [kx, 0, ky, Fraction(1, 2)]
        out = CTX.to_kernel(table)
        assert out[0] is kx and out[2] is ky
        assert type(out[1]) is type(kx) and out[1] == 0
        assert type(out[3]) is type(kx) and out[3] == Fraction(1, 2)
        assert CTX.to_kernel(out) is out
        # a scale too fine for the largest number is lifted exactly
        big = kx * (1 << 80)
        lifted = CTX.to_kernel([kx, big])
        assert type(lifted[0]).shift == PREC + 32 + 80 > kx.shift
        assert from_kernel(lifted[0]) == from_kernel(kx)
        assert from_kernel(lifted[1]) == from_kernel(big)
        # a scale given: convert brings any number to it, and a coarser
        # kernel scalar up to it exactly
        kind = type(lifted[0])
        assert kind.convert(lifted[0]) is lifted[0]
        assert kind.convert(kx).re == kx.re << 80 and kind.convert(kx).im == kx.im << 80
        assert kind.convert(Fraction(-1, 3)).re == (-1 << kind.shift) // 3
        with CTX.guard():
            third = mpmath.mpf(1) / 3
            # a 256-bit mantissa times 2**shift is an integer
            assert kind.convert(third).re == int(mpmath.ldexp(third, kind.shift))
        assert type(kind.convert(third)) is kind

    def test_computed_value_joins_a_mixed_table_exactly(self):
        # a computed kernel value carries guard bits beyond any 256-bit mpf;
        # beside an mpmath number it is shifted left, not rounded
        kx, ky = CTX.to_kernel([Fraction(1, 3), Fraction(5, 7)])
        w = kx * ky / kx + ky * ky
        with CTX.guard():
            big = mpmath.mpf(1000) / 3
        out = CTX.to_kernel([w, big])
        up = out[0].shift - w.shift
        assert up == 8
        assert out[0].re == w.re << up and out[0].im == w.im << up
        assert from_kernel(out[1]) == big
        assert CTX.to_kernel(out) is out

    def test_max_abs_picks_the_largest_norm(self):
        with CTX.guard():
            values = [mpmath.mpc(3, -4) / 11, mpmath.mpc("-0.45", "0.01"), mpmath.mpf(-5) / 11]
            kernel = CTX.to_kernel(values)
            want = max(mpmath.fabs(from_kernel(x)) for x in kernel)
        assert CTX.max_abs(kernel) == want
        assert CTX.max_abs(kernel + [mpmath.mpf(1)]) == 1
        assert CTX.max_abs([0, kernel[0] - kernel[0]]) == 0

    def test_one_representation_per_table(self):
        a = CTX.to_kernel([Fraction(1, 3), mpmath.mpf(2)])
        b = CTX.to_kernel([mpmath.mpf("1e-20")])
        assert a[0].shift != b[0].shift
        with pytest.raises(TypeError):
            a[0] * b[0]
        with pytest.raises(TypeError):
            a[0] + mpmath.mpf(1)
        assert from_kernel(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(ArithmeticError):
            CTX.to_kernel([mpmath.mpf("inf")])


parts = st.integers(min_value=-(1 << 600), max_value=1 << 600)
imaginary_parts = st.one_of(st.just(0), parts)


class TestLanes:
    """The graph sum and the Wick oracle replay kernel data on lanes, lists
    of scaled integer parts: re and im, or re alone when every imaginary
    part is 0.  A product there is floored as a kernel product, a sum adds
    ints and a division by an int floors each part.  Each must give the
    parts the kernel scalar's own operator gives."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(parts, imaginary_parts, parts, imaginary_parts,
           st.sampled_from([0, 1, 300, 568]),
           st.integers(min_value=-(1 << 70), max_value=1 << 70).filter(bool))
    def test_lane_arithmetic_is_the_kernel_arithmetic(self, a, b, c, d, shift, n):
        kind = _fixed_type(shift, PREC)
        x, y = kind(a, b), kind(c, d)
        lanes = to_lanes([x, y, n, 0], kind)
        re = [a, c, n << shift, 0]
        assert lanes == ((re, [b, d, 0, 0]) if b or d else (re,))
        # register pairs: x y, y x, x x, x by the int n, the int n by y, x by 0
        left, right = [0, 1, 0, 0, 2, 0], [1, 0, 0, 2, 1, 3]
        want = [x * y, y * x, x * x, x * n, n * y, x * 0]
        got = lane_products(lanes, left, right, shift)
        assert got == ([z.re for z in want], [z.im for z in want])[:len(lanes)]
        if not (b or d):
            # one lane: the kernel product is real, and its part is the
            # product of the parts floored toward -inf
            assert all(z.im == 0 for z in want)
            assert got[0] == [math.floor(Fraction(re[s] * re[t], 1 << shift))
                              for s, t in zip(left, right)]
        total = x + y
        assert [lane[0] + lane[1] for lane in lanes] == [total.re, total.im][:len(lanes)]
        quotient = x / n
        assert [lane[0] // n for lane in lanes] == [quotient.re, quotient.im][:len(lanes)]

    def test_lanes_take_one_scale(self):
        kind = _fixed_type(300, PREC)
        assert to_lanes([], kind) == ([],)
        assert to_lanes([kind(1, 0), 2], kind) == ([1, 2 << 300],)
        assert to_lanes([kind(1, 0), kind(0, -1)], kind) == ([1, 0], [0, -1])
        for stranger in (_fixed_type(301, PREC)(1, 0), Fraction(1, 2), mpmath.mpf(1)):
            with pytest.raises(TypeError):
                to_lanes([kind(1, 2), stranger], kind)


def test_no_backend_branches_in_src():
    """The choice between the backends lives in the context objects, and
    only the modules that make kernel data convert to it.  The scale rules
    ``_kernel_shift`` and ``_fixed_type`` are called in ``scalars`` and in
    the frame, the one producer of R's starting data, alone; ``rmatrix``
    converts only in ``EdgeTailData.in_kernel``."""
    producers = {"scalars.py", "frame.py", "rmatrix.py", "descendent.py"}
    src = Path(genuslift.__file__).parent
    lift = next(
        node
        for node in ast.walk(ast.parse((src / "rmatrix.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "in_kernel"
    )
    offenders = []
    for path in sorted(src.glob("*.py")):
        words = ["ctx is None", "ctx is not None", "nullcontext"]
        if path.name not in producers:
            words += ["to_kernel(", "in_kernel("]
        if path.name not in ("scalars.py", "frame.py"):
            words += ["_kernel_shift(", "_fixed_type("]
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            outside_lift = not lift.lineno <= lineno <= lift.end_lineno
            stray = path.name == "rmatrix.py" and outside_lift and "to_kernel(" in line
            if stray or any(word in line for word in words):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []


def test_euler_field_read_at_a_point_only_by_frame_and_model():
    """The Euler field at a point (``EulerData.components``) is read by the
    frame, which anchors u by the Euler multiplication, and by the model
    itself, nowhere else: the conformal R comes from homogeneity on the
    order-0 frame, with no Euler vector taken at the point."""
    offenders = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        if path.name in ("frame.py", "frobenius.py"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if ".components(" in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []



def test_canonical_frame_built_only_by_frame_and_R_and_the_frame_command():
    """Every pipeline that needs R at a point, genus 1 included, builds its
    canonical frame through ``genus.frame_and_R``, which picks the frame
    order R needs; only the CLI's ``frame`` command builds one of its own."""
    calls = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        scope = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first: an inner definition overrides its outer one
                scope.update({id(inner): node.name for inner in ast.walk(node)})
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "canonical_frame":
                    calls.append(f"{path.name}:{scope.get(id(node), '<module>')}")
    assert sorted(calls) == ["cli.py:_cmd_frame", "genus.py:frame_and_R"]


def test_one_division_by_z_plus_w_in_src():
    """V, the genus-0 two-point tables, the unitarity of R and S and the
    Hodge propagator all divide by z + w through ``rmatrix._divide``: no
    other module defines a quotient routine or builds the two-variable
    (z, w) series such a division would run on."""
    offenders = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        if path.name == "rmatrix.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name.lower()
                if "quotient" in name or "divid" in name:
                    offenders.append(f"{path.name}:{node.lineno}: def {node.name}")
            elif isinstance(node, ast.Tuple):
                words = {elt.value for elt in node.elts if isinstance(elt, ast.Constant)}
                if {"z", "w"} <= words:
                    offenders.append(f"{path.name}:{node.lineno}: a (z, w) ring")
    assert offenders == []


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__")


@pytest.fixture
def mpmath_calls(monkeypatch):
    """A Counter of the mpf and mpc arithmetic dunders run from here on."""
    calls = Counter()
    for cls in (mpmath.mpf, mpmath.mpc):
        for name in ARITHMETIC:
            original = getattr(cls, name)

            def counted(*args, _original=original, _name=f"{cls.__name__}.{name}"):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
    return calls


def test_order_zero_frame_runs_no_mpmath_arithmetic(monkeypatch, mpmath_calls):
    """The order-0 frame takes its roots by Newton's iteration on kernel
    scalars: ``polyroots`` appears nowhere in ``src/``, and once C_a and
    the Euler field are evaluated, no mpmath number is added, multiplied,
    divided, raised, negated or taken in modulus, on either route to C_a
    (exact rationals, or working precision for an exponential potential or
    an irrational point)."""
    offenders = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "polyroots" in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []

    calls = mpmath_calls

    def resetting(original):
        def evaluate(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.clear()
            return out

        return evaluate

    for cls, name in ((FrobeniusModel, "structure_constants"), (EulerData, "components")):
        monkeypatch.setattr(cls, name, resetting(getattr(cls, name)))
    with CTX.guard():
        irrational = (CTX.num(Fraction(1, 3)), mpmath.sqrt(2) / 5)
    cases = [
        (threefold_cusp_model(), (Fraction(11, 13), Fraction(-17, 19), Fraction(-20, 21))),
        (two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5))),
        (two_primary_model(Fraction(1)), (Fraction(1, 3), Fraction(-2, 7))),
        (two_primary_model(Fraction(1, 2)), irrational),
    ]
    for model, point in cases:
        canonical_frame(model, point, CTX, order=0)
        assert sum(calls.values()) == 0, (model.name, dict(calls))
    # the counter sees the jets' mpmath arithmetic
    canonical_frame(two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5)), CTX, order=1)
    assert sum(calls.values()) > 0


def test_critical_point_runs_no_mpmath_arithmetic(mpmath_calls):
    """The descendent critical point is solved on kernel scalars: with
    rational couplings on the point model and on two-primary d = 1/2, no
    mpmath number is added, multiplied, divided, raised, negated or taken
    in modulus inside ``critical_point``, which converts t* back once.  The
    mpmath route it replaced is seen by the counter."""
    point = point_model()
    quintic = two_primary_model(Fraction(1, 2))
    cases = [
        (point, ((Fraction(3, 37),), (Fraction(-2, 29),), (Fraction(1, 8),), (Fraction(-1, 19),))),
        (point, tuple((Fraction((-1) ** m * (m + 2), 71),) for m in range(6))),
        (quintic, ((Fraction(1, 9), Fraction(3, 16)), (Fraction(1, 33), Fraction(-1, 17)),
                   (Fraction(-1, 23), Fraction(1, 41)))),
    ]
    for model, rows in cases:
        tau = CurvePoint(rows)
        calibration = compute_calibration(model, order=tau.kmax)
        mpmath_calls.clear()
        t = critical_point(model, calibration, tau, CTX)
        assert sum(mpmath_calls.values()) == 0, (model.name, dict(mpmath_calls))
        assert all(isinstance(x, mpmath.mpf) for x in t)
    critical_point_reference(model, calibration, tau, CTX)
    assert sum(mpmath_calls.values()) > 0


# every definition in src/ that nothing in src/ reaches, with the reason it stays
UNREFERENCED_ALLOWED = {
    "io.parse_value": "the benchmark's report checker reads every number through it",
    "descendent.CurvePoint.bumped": "the planned N > 1 descendent string, dilaton and "
    "homogeneity gates step the couplings with it (ROADMAP item 3)",
    "rmatrix.bernoulli_constants": "the planned twisted point theories and equivariant "
    "QH(P^1) read it (ROADMAP items 4 and 20)",
    "hodge.hodge_lambda": "the independent reference of the twisted-point gate "
    "(tests/test_hodge.py::TestTwistedPointGate) and of acceptance criterion 6",
    "cli._Parser.error": "argparse calls it on a usage mistake",
    "series.TruncatedSeries.terms": "the benchmark's frame counter calls it on every "
    "traced frame",
}

# defaulted parameters of src/ definitions that no src/ call sets, with the
# reason each stays
UNSET_ALLOWED = {
    "io.parse_value(ctx)": "the benchmark's report checker passes its context",
}


class _Source(NamedTuple):
    """One module of ``src/``: its file name, syntax tree, the names it
    binds to modules and the ids of the nodes it calls."""

    filename: str
    tree: ast.Module
    modules: set
    called: set


def _src_modules() -> list:
    out = []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        name = "genuslift" if path.stem == "__init__" else f"genuslift.{path.stem}"
        bound = vars(importlib.import_module(name)).items()
        tree = ast.parse(path.read_text())
        out.append(_Source(
            path.name,
            tree,
            {key for key, value in bound if isinstance(value, ModuleType)},
            {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)},
        ))
    return out


def _definitions(tree, prefix):
    """(qualified name, node, whether a method) of every function, class
    and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node, isinstance(tree, ast.ClassDef)
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, name)


def _data_attributes(sources) -> set:
    """Every slot, class-level field and ``self.x =`` target in ``src/``."""
    names = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        names.add(item.target.id)
                    elif isinstance(item, ast.Assign) and any(
                        getattr(target, "id", None) == "__slots__" for target in item.targets
                    ):
                        names |= set(ast.literal_eval(item.value))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    names |= {
                        sub.attr for sub in ast.walk(target)
                        if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "self"
                    }
    return names


def _is_property(node) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
        for d in getattr(node, "decorator_list", [])
    )


def _reaches(ref, source, name: str, method: bool, call_only: bool) -> bool:
    """Whether the node ``ref`` of ``source`` names the definition ``name``:
    a bare name reaches a function or class, and an attribute whose base is
    not an imported module reaches a method (only as a call when
    ``call_only``).  An attribute of a module reaches what the module
    defines."""
    if isinstance(ref, ast.Name):
        return not method and ref.id == name
    if not isinstance(ref, ast.Attribute) or ref.attr != name:
        return False
    on_module = isinstance(ref.value, ast.Name) and ref.value.id in source.modules
    if not method:
        return on_module
    return not on_module and (not call_only or id(ref) in source.called)


def test_src_defines_only_what_src_reaches():
    """Every function, class and method in ``src/`` is reached in ``src/``
    outside its own definition, exported by ``genuslift.__all__``, or
    allowed above with its reason.  An import is not a reference, and
    dunder methods are called by Python.  A bare name reaches only a
    function or class; a method is reached only through an attribute whose
    base is not an imported module (so ``mpmath.re`` reaches no method
    ``re``), and, where its name is also a data attribute (a slot, a field
    or a ``self.x =`` target), only by a call.  Routes only tests call live in ``tests/oracles.py``."""
    exported = set(genuslift.__all__)
    sources = _src_modules()
    data = _data_attributes(sources)
    refs = [
        (node, source) for source in sources for node in ast.walk(source.tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unreached, defined = [], set()
    for home in sources:
        for qualified, node, method in _definitions(home.tree, home.filename[:-3]):
            defined.add(qualified)
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported or qualified in UNREFERENCED_ALLOWED:
                continue
            call_only = method and name in data and not _is_property(node)
            if not any(
                _reaches(ref, source, name, method, call_only)
                and not (source is home and node.lineno <= ref.lineno <= node.end_lineno)
                for ref, source in refs
            ):
                unreached.append(qualified)
    assert unreached == []
    # an entry for a definition that is gone would outlive its reason
    assert sorted(set(UNREFERENCED_ALLOWED) - defined) == []


def _defaulted(node, method: bool) -> list:
    """(name, position in a call or None) of each defaulted parameter; a
    method's position does not count ``self`` or ``cls``."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = 1 if method and not any(getattr(d, "id", None) == "staticmethod"
                                    for d in node.decorator_list) else 0
    out = [(arg.arg, index - bound) for index, arg in enumerate(positional)
           if index >= len(positional) - len(args.defaults)]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def test_src_sets_every_defaulted_parameter():
    """Every defaulted parameter of a function or method in ``src/`` that
    ``genuslift.__all__`` does not export (with its class) is passed by
    some call in ``src/``, by keyword or by position, or allowed above with
    its reason: a default no caller overrides is a constant dressed as a
    knob.  ``Class(...)`` calls ``Class.__init__``; a call reaches a
    definition as a reference does in
    :func:`test_src_defines_only_what_src_reaches`."""
    exported = set(genuslift.__all__)
    sources = _src_modules()
    calls = [
        (node, source) for source in sources for node in ast.walk(source.tree)
        if isinstance(node, ast.Call)
    ]
    unset, defined = [], set()
    for home in sources:
        stem = home.filename[:-3]
        for qualified, node, method in _definitions(home.tree, stem):
            if isinstance(node, ast.ClassDef) or qualified.split(".")[1] in exported:
                continue
            name, method_call = node.name, method
            if name == "__init__":
                # Class(...) is the call of Class.__init__
                name, method_call = qualified.split(".")[-2], False
            elif name.startswith("__"):
                continue
            sites = [call for call, source in calls
                     if _reaches(call.func, source, name, method_call, False)]
            for param, position in _defaulted(node, method):
                defined.add(f"{qualified}({param})")
                if not any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (position is not None and len(call.args) > position)
                    for call in sites
                ):
                    unset.append(f"{qualified}({param})")
    assert [entry for entry in unset if entry not in UNSET_ALLOWED] == []
    # an entry for a parameter that is gone would outlive its reason
    assert sorted(set(UNSET_ALLOWED) - defined) == []


def test_every_import_is_read():
    """Every name a top-level import binds in ``src/`` or ``tests/`` is
    read in its module, or exported through that module's ``__all__``:
    an unread import misleads a reader about what the module uses."""
    tests = Path(__file__).parent
    paths = [*sorted(Path(genuslift.__file__).parent.glob("*.py")), *sorted(tests.glob("*.py"))]
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{name}")
    assert unread == []


def test_one_intersection_table_in_src():
    """Intersection numbers are exact constants: no function in ``src/``
    takes an ``IntersectionTable``, and only ``intersection`` (the process
    table) and the selftest, whose entry count is part of its report,
    construct one."""
    takers, builders = [], []
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        scope = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first: an inner definition overrides its outer one
                scope.update({id(inner): node.name for inner in ast.walk(node)})
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    hint = "" if arg.annotation is None else ast.unparse(arg.annotation)
                    if "IntersectionTable" in hint or (arg.arg == "table" and not hint):
                        takers.append(f"{path.name}:{node.name}({arg.arg})")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "IntersectionTable":
                    builders.append(f"{path.name}:{scope.get(id(node), '<module>')}")
    assert takers == []
    assert sorted(builders) == ["cli.py:_selftest_checks", "intersection.py:<module>"]


def _forms_products(node) -> bool:
    """Whether ``node`` multiplies: a ``*`` or a ``mat_mul`` call."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult):
            return True
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "mat_mul":
            return True
    return False


def test_derived_tables_live_with_their_data():
    """The vertex correlators and edge weights of a graph sum live on its
    ``EdgeTailData``, and the bold data and their frame travel as a pair:
    no function in ``src/`` takes a ``vertex_cache``, ``edge_weights`` or
    ``frame_data``.  The table N_pq = left[p] right[q]^T that a division by
    z + w divides is formed by ``rmatrix._divide`` alone: no other function
    multiplies by a transpose or fills a table keyed by pairs (p, q) with
    products."""
    takers, builders = [], set()
    for path in sorted(Path(genuslift.__file__).parent.glob("*.py")):
        scope = {}
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{scope.get(id(node), '<module>')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first: an inner definition overrides its outer one
                scope.update({id(inner): node.name for inner in ast.walk(node)})
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("vertex_cache", "edge_weights", "frame_data"):
                        takers.append(f"{path.name}:{node.name}({arg.arg})")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "mat_mul":
                if any(getattr(arg, "func", None) is not None
                       and getattr(arg.func, "id", None) == "transpose" for arg in node.args):
                    builders.add(where)
            elif isinstance(node, ast.DictComp):
                if (isinstance(node.key, ast.Tuple) and len(node.key.elts) == 2
                        and _forms_products(node.value)):
                    builders.add(where)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Tuple)
                            and len(target.slice.elts) == 2 and _forms_products(node.value)):
                        builders.add(where)
    assert takers == []
    assert sorted(builders) == ["rmatrix.py:_divide"]
