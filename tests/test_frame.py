"""Canonical frames: hand-checked values, invariants, jets, options."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genuslift.frame as frame_module
from genuslift.cli import run_command
from genuslift.frame import FrameKernel, NonSemisimpleError, canonical_frame
from genuslift.frobenius import threefold_cusp_model, two_primary_model
from genuslift.scalars import FloatContext
from genuslift.series import TruncatedSeries
from oracles import (
    frame_invariant_residuals,
    projector_frame,
    series_value,
    two_primary_genus2_reference,
)

CTX = FloatContext(256)


def close(a, b, tol="1e-70"):
    with CTX.guard():
        return mpmath.fabs(mpmath.mpc(a) - mpmath.mpc(b)) < mpmath.mpf(tol)


@pytest.fixture(scope="module")
def frame():
    return canonical_frame(two_primary_model(Fraction(1)), (0, 0), CTX, order=3)


class TestHandCheckedExponentialModel:
    """The d=1 exponential model at the origin, fully computed by hand:
    u = -+2, Delta = (-2, 2), sqrt(Delta_-) = i sqrt(2), and the rotation
    coefficient (W_1)_{+-} = -i/4."""

    def test_canonical_coordinates(self, frame):
        u = frame.u_values()
        assert close(u[0], -2) and close(u[1], 2)

    def test_delta(self, frame):
        d = frame.delta_values()
        assert close(d[0], -2) and close(d[1], 2)

    def test_sqrt_delta_branch(self, frame):
        with CTX.guard():
            s2 = mpmath.sqrt(mpmath.mpf(2))
            sd = frame.sqrt_delta_values()
            assert close(sd[0], mpmath.mpc(0, s2))
            assert close(sd[1], s2)

    def test_psi_matrix(self, frame):
        with CTX.guard():
            r = 1 / mpmath.sqrt(mpmath.mpf(2))
            psi = frame.psi_values()
            assert close(psi[0][0], mpmath.mpc(0, -r))
            assert close(psi[0][1], mpmath.mpc(0, r))
            assert close(psi[1][0], r)
            assert close(psi[1][1], r)

    def test_rotation_coefficient(self, frame):
        w = frame.rotation_jets()
        with CTX.guard():
            quarter_i = mpmath.mpc(0, 1) / 4
            assert close(w[1][1][0].constant_term(), -quarter_i)
            assert close(w[1][0][1].constant_term(), quarter_i)
            # d_0 direction: u shifts uniformly, frame does not rotate
            assert close(w[0][0][1].constant_term(), 0)


class TestInvariants:
    POINTS_QUINTIC = [(0, Fraction(3, 7)), (Fraction(1, 5), Fraction(1, 2))]
    POINTS_CUSP = [
        (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
        (Fraction(-1, 2), Fraction(1, 9), Fraction(3, 4)),
    ]

    def test_quintic_model(self):
        m = two_primary_model(Fraction(1, 2))
        for pt in self.POINTS_QUINTIC:
            fr = canonical_frame(m, pt, CTX, order=3)
            res = frame_invariant_residuals(fr)
            assert all(v < mpmath.mpf("1e-70") for v in res.values()), res

    def test_cusp_model(self):
        m = threefold_cusp_model()
        for pt in self.POINTS_CUSP:
            fr = canonical_frame(m, pt, CTX, order=4)
            res = frame_invariant_residuals(fr)
            assert all(v < mpmath.mpf("1e-68") for v in res.values()), res

    def test_laurent_model(self):
        m = two_primary_model(Fraction(3, 2))
        fr = canonical_frame(m, (Fraction(1, 4), Fraction(2, 3)), CTX, order=3)
        res = frame_invariant_residuals(fr)
        assert all(v < mpmath.mpf("1e-70") for v in res.values()), res


class TestJetAccuracy:
    def test_u_jets_predict_displacement(self):
        m = two_primary_model(Fraction(1, 2))
        base = (Fraction(1, 9), Fraction(4, 9))
        fr = canonical_frame(m, base, CTX, order=3)
        with CTX.guard():
            h = (mpmath.mpf("1e-8"), mpmath.mpf("-2e-8"))
            shifted = tuple(CTX.num(b) + hh for b, hh in zip(base, h))
            fr2 = canonical_frame(m, shifted, CTX, order=0)
            for i in range(2):
                predicted = series_value(fr.u[i], {"t0": h[0], "t1": h[1]}, CTX)
                actual = fr2.u_values()[i]
                assert mpmath.fabs(predicted - actual) < mpmath.mpf("1e-29")

    def test_delta_jets_predict_displacement(self):
        m = threefold_cusp_model()
        base = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7))
        fr = canonical_frame(m, base, CTX, order=3)
        with CTX.guard():
            h = (mpmath.mpf("1e-9"), mpmath.mpf("3e-9"), mpmath.mpf("-1e-9"))
            shifted = tuple(CTX.num(b) + hh for b, hh in zip(base, h))
            fr2 = canonical_frame(m, shifted, CTX, order=0)
            for i in range(3):
                predicted = series_value(fr.delta[i], dict(zip(("t0", "t1", "t2"), h)), CTX)
                actual = fr2.delta_values()[i]
                scale = max(mpmath.mpf(1), mpmath.fabs(actual))
                assert mpmath.fabs(predicted - actual) < mpmath.mpf("1e-30") * scale


class TestOptions:
    def test_permutation_reorders(self):
        m = two_primary_model(Fraction(1, 2))
        fr = canonical_frame(m, (0, Fraction(3, 7)), CTX, order=1)
        fr2 = canonical_frame(m, (0, Fraction(3, 7)), CTX, order=1, permutation=(1, 0))
        assert close(fr.u_values()[0], fr2.u_values()[1])
        assert close(fr.u_values()[1], fr2.u_values()[0])

    def test_sign_flip(self):
        m = two_primary_model(Fraction(1, 2))
        fr = canonical_frame(m, (0, Fraction(3, 7)), CTX, order=1)
        fr2 = canonical_frame(m, (0, Fraction(3, 7)), CTX, order=1, sign_flips=(-1, 1))
        with CTX.guard():
            flipped = -CTX.num(fr2.sqrt_delta_values()[0])
        assert close(fr.sqrt_delta_values()[0], flipped)
        assert close(fr.sqrt_delta_values()[1], fr2.sqrt_delta_values()[1])

    def test_generic_generator_matches_conformal_frame(self):
        m = two_primary_model(Fraction(1, 2))
        pt = (0, Fraction(3, 7))
        fr = canonical_frame(m, pt, CTX, order=2)
        # without Euler data the frame runs the generic generator t0 + 3 t1
        fr2 = canonical_frame(replace(m, euler=None), pt, CTX, order=2)
        # same branches up to ordering; compare Delta multisets and du
        with CTX.guard():
            d1 = sorted(fr.delta_values(), key=lambda z: (mpmath.re(z), mpmath.im(z)))
            d2 = sorted(fr2.delta_values(), key=lambda z: (mpmath.re(z), mpmath.im(z)))
            for a, b in zip(d1, d2):
                assert close(a, b)
        for i in range(2):
            assert close(fr2.du[i][0].constant_term(), 1)

    def test_bad_permutation_rejected(self):
        m = two_primary_model(Fraction(1, 2))
        with pytest.raises(ValueError):
            canonical_frame(m, (0, Fraction(3, 7)), CTX, order=0, permutation=(0, 0))


class TestErrorPaths:
    def test_cusp_origin_not_semisimple(self):
        with pytest.raises(NonSemisimpleError):
            canonical_frame(threefold_cusp_model(), (0, 0, 0), CTX, order=0)

    def test_quintic_t1_zero_not_semisimple(self):
        # h''' = 60 c t1^2 vanishes at t1 = 0: the algebra degenerates
        with pytest.raises(NonSemisimpleError):
            canonical_frame(two_primary_model(Fraction(1, 2)), (Fraction(1, 3), 0), CTX, order=0)


FRAME_FIELDS = ("u", "du", "delta", "sqrt_delta", "psi", "idempotents")


def assert_same_values(values, jets, tol="1e-70"):
    """Every field of the order-0 frame ``values`` equals the constant term
    of the same field of ``jets``, relative to max(1, |entry|)."""
    with CTX.guard():
        for name in FRAME_FIELDS:
            a, b = getattr(values, name), getattr(jets, name)
            if name in ("u", "delta", "sqrt_delta"):
                a, b = [a], [b]
            for row_a, row_b in zip(a, b):
                for x, y in zip(row_a, row_b):
                    x, y = mpmath.mpc(x.constant_term()), mpmath.mpc(y.constant_term())
                    scale = max(mpmath.mpf(1), mpmath.fabs(y))
                    assert mpmath.fabs(x - y) <= mpmath.mpf(tol) * scale, (name, x, y)


def odd_rationals(nonzero=False):
    if nonzero:
        num = st.integers(1, 9).flatmap(lambda k: st.sampled_from([k, -k]))
    else:
        num = st.integers(-9, 9)
    return st.builds(Fraction, num, st.sampled_from([1, 3, 5, 7, 9]))


TWO_PRIMARY_D = st.sampled_from([Fraction(d) for d in ("1/2", "1/3", "1", "3/2", "5/3")])
# t1 = 0 is on the discriminant (or the pole) for every d != 1
NONZERO_T1 = odd_rationals(nonzero=True)
PERMUTATIONS_2 = st.permutations([0, 1])
FLIPS_2 = st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2)
# the benchmark's cusp box: t0 in [-1, 1], |t1| in [1/4, 1], t2 in [-1, -1/3]
CUSP_BOX = st.tuples(
    st.integers(-9, 9).map(lambda k: Fraction(k, 9)),
    st.integers(3, 9).flatmap(lambda k: st.sampled_from([Fraction(k, 9), Fraction(-k, 9)])),
    st.integers(3, 9).map(lambda k: Fraction(-k, 9)),
)


class TestOrderZeroValues:
    """The order-0 frame runs the frame steps on values at the point; they
    must equal the constant terms of the jet frame."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(TWO_PRIMARY_D, odd_rationals(), NONZERO_T1, PERMUTATIONS_2, FLIPS_2)
    # Delta_0 = -10.33 is real and negative here: sqrt(Delta_0) = +3.2137i
    # only while both routes keep real roots exactly real
    @example(
        d=Fraction(1, 2), t0=Fraction(-3), t1=Fraction(2, 3), permutation=[0, 1], flips=[1, 1]
    )
    def test_two_primary(self, d, t0, t1, permutation, flips):
        m = two_primary_model(d)
        options = dict(permutation=permutation, sign_flips=flips)
        values = canonical_frame(m, (t0, t1), CTX, order=0, **options)
        jets = canonical_frame(m, (t0, t1), CTX, order=2, **options)
        assert values.order == 0 and values.residual == 0
        assert_same_values(values, jets)

    @pytest.mark.parametrize(
        "point",
        [
            (Fraction(11, 13), Fraction(-17, 19), Fraction(-20, 21)),
            (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
            (Fraction(-1, 2), Fraction(1, 9), Fraction(3, 4)),
        ],
    )
    def test_cusp(self, point):
        m = threefold_cusp_model()
        options = dict(permutation=(2, 0, 1), sign_flips=(1, -1, 1))
        values = canonical_frame(m, point, CTX, order=0, **options)
        jets = canonical_frame(m, point, CTX, order=2, **options)
        assert_same_values(values, jets)

    def test_no_series_arithmetic_at_order_zero(self, monkeypatch):
        calls = Counter()

        def count(name):
            original = getattr(TruncatedSeries, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(TruncatedSeries, name, counted)

        for name in ("__init__", "__mul__", "inverse", "sqrt"):
            count(name)
        cases = [
            (threefold_cusp_model(), (Fraction(11, 13), Fraction(-17, 19), Fraction(-20, 21))),
            (two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5))),
        ]
        for m, point in cases:
            calls.clear()
            canonical_frame(m, point, CTX, order=0)
            n = m.dimension
            assert calls["__mul__"] == calls["inverse"] == calls["sqrt"] == 0, calls
            # one series per entry of the returned frame, made when it is built
            assert calls["__init__"] == 3 * n + 3 * n * n, calls
            calls.clear()
            canonical_frame(m, point, CTX, order=1)
            assert calls["__mul__"] > 0 and calls["inverse"] > 0, calls


class TestProjectorRoute:
    """The frame applies the Lagrange projectors to the unit vector and reads
    du from the metric, from roots that Newton's iteration refines from
    seeds; the oracle builds every projector matrix, takes du =
    trace(C_a P_i) and starts polyroots from its generic points."""

    HIGH = FloatContext(1024)

    def assert_matches(self, m, point, permutation, flips):
        options = dict(permutation=permutation, sign_flips=flips)
        frame = canonical_frame(m, point, CTX, order=0, **options)
        want = projector_frame(m, point, CTX, **options)
        with CTX.guard():
            for name, rows in want.items():
                got = getattr(frame, name)
                if name in ("u", "delta", "sqrt_delta"):
                    got, rows = [got], [rows]
                for row_got, row_want in zip(got, rows):
                    for x, y in zip(row_got, row_want):
                        x, y = mpmath.mpc(x.constant_term()), mpmath.mpc(y)
                        scale = max(mpmath.mpf(1), mpmath.fabs(y))
                        assert mpmath.fabs(x - y) <= mpmath.mpf("1e-70") * scale, (name, x, y)
        return frame, want

    @settings(max_examples=25, deadline=None, database=None)
    @given(TWO_PRIMARY_D, odd_rationals(), NONZERO_T1, PERMUTATIONS_2, FLIPS_2)
    def test_two_primary(self, d, t0, t1, permutation, flips):
        self.assert_matches(two_primary_model(d), (t0, t1), permutation, flips)

    @settings(max_examples=15, deadline=None, database=None)
    @given(CUSP_BOX, st.permutations([0, 1, 2]))
    def test_cusp_box(self, point, permutation):
        self.assert_matches(threefold_cusp_model(), point, permutation, [1, -1, 1])

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.one_of(
        st.tuples(TWO_PRIMARY_D.map(two_primary_model), st.tuples(odd_rationals(), NONZERO_T1)),
        st.tuples(st.just(threefold_cusp_model()), CUSP_BOX),
    ))
    @example((threefold_cusp_model(), (Fraction(1), Fraction(1, 3), Fraction(-1, 3))))
    def test_seeded_roots_equal_unseeded(self, case):
        # u of a conformal model is the eigenvalues themselves.  Both routes
        # are held to the roots at 1024 bits, within what each root's
        # conditioning allows at the working precision: relative errors eps
        # = 2^-prec on the terms of the characteristic polynomial, of size up
        # to binom(N, k) s^k, move the simple root u_i by up to
        #     eps ((s + |u_i|)^N - |u_i|^N) / prod_{j != i} |u_i - u_j|
        # (the frame's separation test uses the same estimate), rounding u_i
        # adds eps max(1, |u_i|), and the factor 4 allows a few roundings
        # per coefficient; at the example point that is about 400 units in
        # the last place
        frame, want = self.assert_matches(*case, None, None)
        exact = projector_frame(*case, self.HIGH)["u"]
        with self.HIGH.guard():
            eps = mpmath.ldexp(1, -CTX.prec_bits)
            mods = [mpmath.fabs(u) for u in exact]
            size = max([mpmath.mpf(1)] + mods)
            n = len(exact)
            for i, (u, mod) in enumerate(zip(exact, mods)):
                slope = mpmath.fprod(mpmath.fabs(u - exact[j]) for j in range(n) if j != i)
                bound = 4 * eps * (((size + mod) ** n - mod ** n) / slope + max(1, mod))
                for got in (frame.u_values()[i], want["u"][i]):
                    assert mpmath.fabs(got - u) <= bound, (i, got, u, bound)


class TestKernelFrame:
    """The order-0 frame runs on kernel scalars from the roots on; its
    values match the mpmath projector oracle to 2^-(prec - 16) of the
    largest entry of each field, on either evaluation of C_a: exact
    rationals (cusp, two-primary d != 1) or working precision (d = 1).
    The oracle runs at twice the precision: at the working precision its
    own error reaches half that bound (two-primary d = 1 at (-9, -9))."""

    FIELDS = ("u", "delta", "sqrt_delta", "psi", "idempotents")
    REFERENCE = FloatContext(2 * CTX.prec_bits)

    def assert_matches(self, m, point, permutation, flips):
        options = dict(permutation=permutation, sign_flips=flips)
        frame = canonical_frame(m, point, CTX, order=0, **options)
        want = projector_frame(m, point, self.REFERENCE, **options)
        with self.REFERENCE.guard():
            bound = mpmath.ldexp(1, 16 - CTX.prec_bits)
            for name in self.FIELDS:
                got, rows = getattr(frame, name), want[name]
                if name in ("u", "delta", "sqrt_delta"):
                    got, rows = [got], [rows]
                pairs = [
                    (mpmath.mpc(x.constant_term()), mpmath.mpc(y))
                    for row_got, row_want in zip(got, rows)
                    for x, y in zip(row_got, row_want, strict=True)
                ]
                top = max(mpmath.fabs(y) for _, y in pairs)
                worst = max(mpmath.fabs(x - y) for x, y in pairs)
                assert worst <= bound * top, (name, worst, top)
        assert isinstance(frame.kernel, FrameKernel)
        return frame

    @settings(max_examples=30, deadline=None, database=None)
    @given(TWO_PRIMARY_D, odd_rationals(), NONZERO_T1, PERMUTATIONS_2, FLIPS_2)
    @example(
        d=Fraction(1, 2), t0=Fraction(-3), t1=Fraction(2, 3), permutation=[0, 1], flips=[1, 1]
    )
    @example(d=Fraction(1), t0=Fraction(-9), t1=Fraction(-9), permutation=[1, 0], flips=[-1, 1])
    def test_two_primary(self, d, t0, t1, permutation, flips):
        self.assert_matches(two_primary_model(d), (t0, t1), permutation, flips)

    @settings(max_examples=20, deadline=None, database=None)
    @given(CUSP_BOX, st.permutations([0, 1, 2]), st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    def test_cusp_box(self, point, permutation, flips):
        self.assert_matches(threefold_cusp_model(), point, permutation, flips)

    def test_values_finer_than_the_roots_run_once_more(self, monkeypatch):
        # Psi^1_2 vanishes here, and its rounding noise (2^-280 at the roots'
        # scale) needs a finer scale than the roots ran at: the frame runs
        # once more at that scale
        calls = []
        impl = frame_module._frame_impl

        def counted(*args):
            calls.append(args[7:])
            return impl(*args)

        monkeypatch.setattr(frame_module, "_frame_impl", counted)
        point = (Fraction(-7, 9), Fraction(-1), Fraction(1))
        frame = self.assert_matches(threefold_cusp_model(), point, None, None)
        assert len(calls) == 2 and calls[1][0] > 0
        assert type(frame.kernel.delta[0]).shift == calls[1][0]

    @pytest.mark.parametrize(
        "model, point",
        [
            (two_primary_model(Fraction(1, 2)), (Fraction(1, 3), 0)),
            (two_primary_model(Fraction(1, 3)), (Fraction(-2, 5), 0)),
            (threefold_cusp_model(), (0, 0, 0)),
        ],
    )
    def test_exact_guard_refuses_the_discriminant(self, model, point, monkeypatch):
        # a rational point on the discriminant: chi_0 on exact rationals has
        # a repeated root, refused before any seed or Newton step
        def no_seeds(coeffs):
            raise AssertionError("seeded a characteristic polynomial with a repeated root")

        monkeypatch.setattr(frame_module, "_root_seeds", no_seeds)
        with pytest.raises(NonSemisimpleError, match="discriminant is exactly 0"):
            canonical_frame(model, point, CTX, order=0)


class TestJetFrameKernel:
    """A frame with jets hands R its constant terms as kernel scalars: the
    gaps u_j - u_i formed at working precision, Delta, sqrt(Delta) and Psi,
    at one ``FloatContext.to_kernel`` scale.  A frame not built from the
    Euler multiplication has no gaps."""

    # ``weights``: the generic generator sum_a w_a C_a of a model without
    # Euler data, None on a conformal frame
    @pytest.mark.parametrize(
        "model, point, weights",
        [
            (two_primary_model(Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5)), None),
            (threefold_cusp_model(), (Fraction(1, 3), Fraction(-2, 5), Fraction(-3, 7)), None),
            (replace(two_primary_model(Fraction(1, 2)), euler=None),
             (Fraction(1, 3), Fraction(2, 5)), [1, 3]),
        ],
    )
    @pytest.mark.parametrize("order", [1, 3])
    def test_constant_terms_at_one_scale(self, model, point, weights, order):
        frame = canonical_frame(model, point, CTX, order=order)
        assert (frame.model.euler is None) == (weights is not None)
        assert weights is None or frame_module._default_weights(model.dimension) == weights
        n, u = frame.dimension, frame.u_values()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if weights is None else []
        with CTX.guard():
            gaps = [u[j] - u[i] for i, j in pairs]
        psi = sum(frame.psi_values(), [])
        want = CTX.to_kernel([*gaps, *frame.delta_values(), *frame.sqrt_delta_values(), *psi])
        kernel = frame.kernel
        assert isinstance(kernel, FrameKernel) and kernel.kind is type(want[0])
        assert list(kernel.gaps) == pairs
        got = [*kernel.gaps.values(), *kernel.delta, *kernel.sqrt_delta, *sum(kernel.psi, [])]
        assert got == want


class TestDiscriminantWalk:
    """Two-primary d = 1/2 at t0 = 1/3 has u = t0 +- O(t1^2): walking
    t1 = 10^-k toward 0, the separation of the eigenvalues loses relative
    accuracy like 2^-prec / |u_1 - u_0|^2, and at one step its estimated
    error passes the tolerance, for the order-0 and the jet route alike."""

    MODEL = two_primary_model(Fraction(1, 2))
    # the closed form from a frame whose separation is exact to far below 1e-30
    HIGH = FloatContext(1024)

    def first_stop(self, order):
        for k in range(1, 31):
            try:
                canonical_frame(self.MODEL, (Fraction(1, 3), Fraction(1, 10**k)), CTX, order=order)
            except NonSemisimpleError:
                return k
        return None

    def frame_command(self, point, order, *options):
        return run_command(
            ["frame", "--model", "two-primary:d=1/2", "--point", point, "--order", str(order),
             *options]
        )

    def test_routes_stop_at_the_same_step(self):
        stop = self.first_stop(0)
        assert stop is not None and stop == self.first_stop(2)
        # the command at the library context's tolerance stops there too
        tol = ("--tolerance", "1e-40")
        code, text = self.frame_command(f"1/3,1/{10**stop}", 0, *tol)
        assert code == 2 and "coincide" in text
        code, text = self.frame_command(f"1/3,1/{10**(stop - 1)}", 0, *tol)
        assert code == 0, text

    def test_command_stops_at_the_same_step_for_both_routes(self):
        stops = {}
        for order in (0, 2):
            for k in range(1, 31):
                code, text = self.frame_command(f"1/3,1/{10**k}", order)
                if code != 0:
                    assert code == 2 and "coincide" in text, text
                    stops[order] = k
                    break
        assert len(stops) == 2 and stops[0] == stops[2], stops
        for point in ("1/3,1/100000000000000000000", "1/3,0"):
            code, text = self.frame_command(point, 0)
            assert code == 2 and "coincide" in text, text

    def assert_stops_with_the_frame(self, command):
        """Every F^2 that ``command(k)`` prints with exit 0 is the closed form
        to the command's tolerance 1e-30; where `frame` stops, it stops with
        "coincide"."""
        # near the discriminant R_k grows like |u_1 - u_0|^-k, and with it
        # the fixed-point integers of the graph sum
        stop = next(
            k for k in range(1, 31) if self.frame_command(f"1/3,1/{10**k}", 0)[0] != 0
        )
        quiet = []
        for k in range(1, stop + 1):
            code, text = command(k)
            if k == stop:
                assert code == 2 and "coincide" in text, text
            elif code == 0:
                quiet.append(k)
                point = (Fraction(1, 3), Fraction(1, 10**k))
                frame = canonical_frame(self.MODEL, point, self.HIGH, order=0)
                with self.HIGH.guard():
                    want = two_primary_genus2_reference(frame)
                    got = self.HIGH.parse(json.loads(text)["F_g"])
                    assert mpmath.fabs(got - want) <= mpmath.mpf("1e-30") * mpmath.fabs(want), k
            else:
                assert code == 2, text
        return quiet, stop

    def test_genus_stops_with_the_frame_and_prints_no_quiet_number(self):
        quiet, stop = self.assert_stops_with_the_frame(
            lambda k: run_command([
                "genus", "--model", "two-primary:d=1/2", "--point", f"1/3,1/{10**k}",
                "--g", "2", "--format", "json",
            ])
        )
        # the oracle gate is relative to the largest skeleton, so a large
        # F^2 that is right passes up to the step where the frame stops
        assert quiet == list(range(1, stop)), quiet

    def test_descendent_stops_with_the_frame_and_prints_no_quiet_number(self):
        # with t_0 alone the descendent potential is the primary F^2 at t_0
        quiet, stop = self.assert_stops_with_the_frame(
            lambda k: run_command([
                "descendent", "--model", "two-primary:d=1/2",
                "--tau", json.dumps({"t": [["1/3", f"1/{10**k}"]]}),
                "--g", "2", "--format", "json",
            ])
        )
        assert quiet == list(range(1, stop)), quiet

    def test_cusp_origin_exits_numerical(self):
        code, text = run_command(
            ["frame", "--model", "threefold-cusp", "--point", "0,0,0", "--order", "0"]
        )
        assert code == 2 and "numerical failure" in text
