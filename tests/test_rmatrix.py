"""R-matrix recursion against hand-integrated values, plus gauge and edge-data behavior.

The exponential two-primary model at the origin is small enough to run the
recursion by hand.  With branches ordered ascending (u = -2, +2) and
s = exp(t^1/2), the rotation coefficient W_1 is constant and the first two
orders come out as

    R_1 = (1/s)   [[ 1/16,    i/8  ], [ i/8,    -1/16  ]]
    R_2 = (1/s^2) [[-3/512, -3i/128], [ 3i/128, -3/512 ]]

which pins down the tails T_2 = (-1/16, 1/16), T_3 = (-9/512, -9/512) and
the low V-table.  The remaining tests are structural: unitarity of R(z),
agreement of the off-diagonal solve across coordinate directions, the
diagonal-twist relation between the two normalization modes, Bernoulli
gauge constants, and accessor semantics of the edge/tail container.  The
conformal R, which ``compute_R`` solves by homogeneity without jets, is
checked against the jet recursion anchored by homogeneity
(``oracles.jet_R_conformal``); the cross-direction residual is read from the
jet recursion of the unitarity normalization.  The closed-form z + w
quotient of ``compute_V`` is checked against series division.
"""

import dataclasses
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslift.frame import canonical_frame
from genuslift.frobenius import threefold_cusp_model, two_primary_model
from genuslift.genus import frame_and_R
from genuslift.rmatrix import (
    EdgeTailData,
    bernoulli_constants,
    bernoulli_numbers,
    compute_R,
    compute_V,
    edge_tail_data,
    homogeneous_R,
    twist_R,
    unitarity_residual,
)
from genuslift.scalars import FloatContext, GaussianFixed, from_kernel
from oracles import (
    compute_V_series,
    jet_R_conformal,
    mpc_edge_tail_data,
    mpc_homogeneous_R,
    t_entry,
)

CTX = FloatContext()
TIGHT = mpmath.mpf("1e-70")

CUSP_POINT = (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3))


def rat(p, q=1):
    return CTX.num(Fraction(p, q))


def imag(p, q=1):
    with CTX.guard():
        return mpmath.mpc(0, 1) * CTX.num(Fraction(p, q))


def assert_close(a, b, tol=TIGHT):
    with CTX.guard():
        assert mpmath.fabs(CTX.num(a) - CTX.num(b)) <= tol, f"{a} != {b}"


@pytest.fixture(scope="module")
def exp_r():
    model = two_primary_model(Fraction(1))
    frame = canonical_frame(model, (Fraction(0), Fraction(0)), CTX, order=4)
    return compute_R(frame, 4)


@pytest.fixture(scope="module")
def exp_edge(exp_r):
    return edge_tail_data(exp_r)


class TestHandValues:
    def test_r0_is_identity(self, exp_r):
        r0 = exp_r.mats[0]
        for i in range(2):
            for j in range(2):
                assert r0[i][j] == (1 if i == j else 0)

    def test_r1(self, exp_r):
        expected = [[rat(1, 16), imag(1, 8)], [imag(1, 8), rat(-1, 16)]]
        r1 = exp_r.mats[1]
        for i in range(2):
            for j in range(2):
                assert_close(r1[i][j], expected[i][j])

    def test_r2(self, exp_r):
        expected = [[rat(-3, 512), imag(-3, 128)], [imag(3, 128), rat(-3, 512)]]
        r2 = exp_r.mats[2]
        for i in range(2):
            for j in range(2):
                assert_close(r2[i][j], expected[i][j])

    def test_tails(self, exp_edge):
        for i in range(2):
            assert t_entry(exp_edge, i, 0) == 0
            assert t_entry(exp_edge, i, 1) == 0
        assert_close(t_entry(exp_edge, 0, 2), rat(-1, 16))
        assert_close(t_entry(exp_edge, 1, 2), rat(1, 16))
        assert_close(t_entry(exp_edge, 0, 3), rat(-9, 512))
        assert_close(t_entry(exp_edge, 1, 3), rat(-9, 512))

    def test_v00_equals_r1(self, exp_r, exp_edge):
        r1 = exp_r.mats[1]
        for i in range(2):
            for j in range(2):
                assert_close(exp_edge.v_entry(i, j, 0, 0), r1[i][j])

    def test_v_order_one(self, exp_edge):
        # V_{10} = -R_2 and V_{01} = -(R_1 R_1^T - R_2); here R_1 R_1^T = -3/256 I
        assert_close(exp_edge.v_entry(0, 0, 1, 0), rat(3, 512))
        assert_close(exp_edge.v_entry(0, 1, 1, 0), imag(3, 128))
        assert_close(exp_edge.v_entry(1, 0, 1, 0), imag(-3, 128))
        assert_close(exp_edge.v_entry(0, 0, 0, 1), rat(3, 512))
        assert_close(exp_edge.v_entry(0, 1, 0, 1), imag(-3, 128))

    def test_residuals(self, exp_r, exp_edge):
        jets = edge_tail_data(compute_R(exp_r.frame, exp_r.order, mode="constants"))
        assert set(jets.residuals) == {"v_symmetry", "cross_direction", "unitarity"}
        assert set(exp_edge.residuals) == {"v_symmetry", "unitarity"}
        for data in (jets, exp_edge):
            for name in data.residuals:
                with CTX.guard():
                    assert mpmath.fabs(data.residuals[name]) <= TIGHT


def _hankel(k, nu):
    """a_k(nu) = prod_{j=1..k} (4 nu^2 - (2j - 1)^2) / (k! 8^k), the k-th
    coefficient of the asymptotic expansion of the Bessel function K_nu."""
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= Fraction(4 * nu * nu - (2 * j - 1) ** 2, 8 * j)
    return out


class TestQuantumCohomologyP1:
    """R of QH(P^1) (``two_primary_model(1)``, q = e^{t1}) in closed form:
    with c_k = a_k(0) / ((2k - 1) (2 sqrt q)^k) and
    e_k = 2k a_k(1) / ((2k + 1) (2 sqrt q)^k),

        (R_k)_00 = -c_k,    (R_k)_11 = (-1)^{k+1} c_k,
        (R_k)_01 = i e_k,   (R_k)_10 = (-1)^{k+1} i e_k,

    the stationary-phase expansion of the mirror integrals of
    W = x + q/x, whose Hankel coefficients are those of K_0 and K_1.  At
    k = 1, q = 1 this is the hand value R_1 of ``TestHandValues``."""

    @pytest.mark.parametrize("t1", [Fraction(0), Fraction(1, 3), Fraction(-2)], ids=str)
    def test_closed_form_through_order_12(self, t1):
        _, r = frame_and_R(two_primary_model(Fraction(1)), (Fraction(1, 5), t1), CTX, 12)
        with CTX.guard():
            two_root_q = 2 * mpmath.exp(CTX.num(t1) / 2)
            for k in range(1, 13):
                scale = two_root_q ** k
                c = CTX.num(_hankel(k, 0) / (2 * k - 1)) / scale
                e = CTX.num(2 * k * _hankel(k, 1) / (2 * k + 1)) / scale
                sign = (-1) ** (k + 1)
                expected = [[-c, 1j * e], [sign * 1j * e, sign * c]]
                for i in range(2):
                    for j in range(2):
                        got = from_kernel(r.mats[k][i][j])
                        want = expected[i][j]
                        assert mpmath.fabs(got - want) <= TIGHT * mpmath.fabs(want), (k, i, j)


class TestStructure:
    def test_quintic_deep_orders(self):
        model = two_primary_model(Fraction(1, 2))
        frame = canonical_frame(model, (Fraction(2, 7), Fraction(3, 5)), CTX, order=7)
        r = compute_R(frame, 7)
        jets = compute_R(frame, 7, mode="constants")
        loose = mpmath.mpf("1e-60")
        with CTX.guard():
            assert unitarity_residual(r) <= loose
            assert mpmath.fabs(jets.cross_residual) <= loose

    def test_laurent_family(self):
        model = two_primary_model(Fraction(3, 2))
        frame = canonical_frame(model, (Fraction(1, 2), Fraction(2, 3)), CTX, order=5)
        r = compute_R(frame, 5)
        with CTX.guard():
            assert unitarity_residual(r) <= mpmath.mpf("1e-60")

    def test_cusp_cross_directions(self):
        # N = 3: several coordinate directions separate each branch pair, so
        # the off-diagonal solve is genuinely overdetermined here.
        frame = canonical_frame(threefold_cusp_model(), CUSP_POINT, CTX, order=4)
        r = compute_R(frame, 4)
        jets = compute_R(frame, 4, mode="constants")
        loose = mpmath.mpf("1e-55")
        with CTX.guard():
            assert mpmath.fabs(jets.cross_residual) <= loose
            assert unitarity_residual(r) <= loose

    def test_constants_mode_without_euler_frame(self):
        stripped = dataclasses.replace(threefold_cusp_model(), euler=None)
        frame = canonical_frame(stripped, CUSP_POINT, CTX, order=4)
        assert frame.model.euler is None
        r = compute_R(frame, 4)
        assert r.mode == "constants"
        r1 = r.mats[1]
        r3 = r.mats[3]
        for i in range(3):
            assert r1[i][i] == 0
            assert r3[i][i] == 0
        with CTX.guard():
            assert unitarity_residual(r) <= mpmath.mpf("1e-55")

    def test_conformal_mode_requires_euler(self):
        model = two_primary_model(Fraction(1))
        stripped = dataclasses.replace(model, euler=None)
        frame = canonical_frame(stripped, (Fraction(0), Fraction(0)), CTX, order=2)
        with pytest.raises(ValueError):
            compute_R(frame, 2, mode="conformal")

    def test_conformal_mode_requires_euler_frame(self):
        # no Euler data, so u comes from a generic combination: homogeneity has no U
        stripped = dataclasses.replace(threefold_cusp_model(), euler=None)
        frame = canonical_frame(stripped, CUSP_POINT, CTX, order=2)
        with pytest.raises(ValueError, match="Euler multiplication"):
            compute_R(frame, 2, mode="conformal")
        with pytest.raises(ValueError, match="normalization"):
            compute_R(frame, 2, mode="unitary")

    def test_frame_order_too_small(self):
        model = two_primary_model(Fraction(1))
        frame = canonical_frame(model, (Fraction(0), Fraction(0)), CTX, order=2)
        with pytest.raises(ValueError):
            compute_R(frame, 3, mode="constants")


class TestTwist:
    def test_preserves_unitarity(self):
        model = two_primary_model(Fraction(1, 2))
        frame = canonical_frame(model, (Fraction(2, 7), Fraction(3, 5)), CTX, order=5)
        r = compute_R(frame, 5)
        gauge = [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(1, 5), Fraction(4, 9)]]
        twisted = twist_R(r, gauge)
        with CTX.guard():
            assert unitarity_residual(twisted) <= mpmath.mpf("1e-60")

    def test_roundtrip(self, exp_r):
        gauge = [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(1, 5), Fraction(4, 9)]]
        back = twist_R(twist_R(exp_r, gauge), [[-a for a in row] for row in gauge])
        assert back.gauge == [[0, 0], [0, 0]]
        for k in range(exp_r.order + 1):
            orig, again = exp_r.mats[k], back.mats[k]
            for i in range(2):
                for j in range(2):
                    assert_close(orig[i][j], again[i][j])

    def test_shifts_first_diagonal(self, exp_r):
        gauge = [[Fraction(1, 3)], [Fraction(1, 5)]]
        twisted = twist_R(exp_r, gauge)
        r1, t1 = exp_r.mats[1], twisted.mats[1]
        assert_close(t1[0][0], r1[0][0] + Fraction(1, 3))
        assert_close(t1[1][1], r1[1][1] + Fraction(1, 5))
        assert_close(t1[0][1], r1[0][1])

    def test_modes_differ_by_diagonal_twist(self, exp_r):
        # The Euler-anchored and unitarity-normalized solutions must agree
        # after some diagonal exp(a_1 z + a_2 z^3 + ...); solve for it order
        # by order and demand agreement of every matrix entry.
        rc = compute_R(exp_r.frame, exp_r.order, mode="constants")
        gauge = [[CTX.num(0), CTX.num(0)] for _ in range(2)]
        with CTX.guard():
            for m in (1, 2):
                twisted = twist_R(rc, gauge)
                for i in range(2):
                    gap = CTX.num(exp_r.mats[2 * m - 1][i][i] - twisted.mats[2 * m - 1][i][i])
                    gauge[i][m - 1] = gauge[i][m - 1] + gap
        final = twist_R(rc, gauge)
        for k in range(exp_r.order + 1):
            a, b = exp_r.mats[k], final.mats[k]
            for i in range(2):
                for j in range(2):
                    assert_close(a[i][j], b[i][j], tol=mpmath.mpf("1e-68"))


class TestBernoulli:
    def test_numbers(self):
        b = bernoulli_numbers(8)
        assert b == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
            Fraction(-1, 30),
        ]

    def test_single_character(self):
        consts = bernoulli_constants(((1,),), 2)
        assert consts == [[Fraction(-1, 12), Fraction(1, 360)]]

    def test_two_entry_character(self):
        # N_1(1/chi) = 3/2, N_3(1/chi) = 9/8 for chi = (1, 2)
        consts = bernoulli_constants(((1, 2),), 2)
        assert consts == [[Fraction(-1, 8), Fraction(1, 320)]]


class TestEdgeData:
    def test_accessors(self):
        data = EdgeTailData(
            dimension=2,
            delta=[2, 3],
            sqrt_delta=[1, 1],
            v={(0, 1, 1, 0): 5},
            t=[{2: 7}, {}],
            v_cutoff=1,
            t_cutoff=2,
        )
        assert data.v_entry(0, 1, 1, 0) == 5
        assert data.v_entry(1, 0, 0, 1) == 5  # mirror of the stored key
        assert data.v_entry(0, 1, 0, 1) == 0
        assert t_entry(data, 0, 2) == 7
        assert t_entry(data, 0, 1) == 0
        assert t_entry(data, 1, 5) == 0


class TestBranchChoices:
    def test_sign_flips_leave_weights_invariant(self, exp_r, exp_edge):
        model = exp_r.frame.model
        flipped_frame = canonical_frame(
            model, (Fraction(0), Fraction(0)), CTX, order=4, sign_flips=(-1, 1)
        )
        flipped = edge_tail_data(compute_R(flipped_frame, 4))
        with CTX.guard():
            for (i, j, k, l) in exp_edge.v:
                a = exp_edge.v_entry(i, j, k, l) * exp_edge.sqrt_delta[i] * exp_edge.sqrt_delta[j]
                b = flipped.v_entry(i, j, k, l) * flipped.sqrt_delta[i] * flipped.sqrt_delta[j]
                assert_close(a, b)
            for i in range(2):
                for k in (2, 3, 4):
                    assert_close(t_entry(exp_edge, i, k), t_entry(flipped, i, k))

    def test_permutation_relabels_everything(self, exp_edge):
        model = two_primary_model(Fraction(1))
        swapped_frame = canonical_frame(
            model, (Fraction(0), Fraction(0)), CTX, order=4, permutation=(1, 0)
        )
        swapped = edge_tail_data(compute_R(swapped_frame, 4))
        for i in range(2):
            assert_close(swapped.delta[i], exp_edge.delta[1 - i])
            for k in (2, 3, 4):
                assert_close(t_entry(swapped, i, k), t_entry(exp_edge, 1 - i, k))
        for (i, j, k, l) in exp_edge.v:
            assert_close(swapped.v_entry(1 - i, 1 - j, k, l), exp_edge.v_entry(i, j, k, l))


class TestFormat:
    """Every route hands R over as matrices of kernel scalars of one scale,
    never of series."""

    def test_entries_are_scalars(self, exp_r):
        model = two_primary_model(Fraction(1, 2))
        point = (Fraction(2, 7), Fraction(3, 5))
        jets = canonical_frame(model, point, CTX, order=3)
        routes = {
            "homogeneous": homogeneous_R(canonical_frame(model, point, CTX, order=0), 3),
            "conformal": jet_R_conformal(jets, 3),
            "constants": compute_R(jets, 3, mode="constants"),
            "twisted": twist_R(exp_r, [[Fraction(1, 3)], [Fraction(1, 5)]]),
        }
        for name, r in routes.items():
            assert len(r.mats) == r.order + 1
            assert issubclass(r.frame.kernel.kind, GaussianFixed)
            for mat in r.mats:
                for x in (x for row in mat for x in row):
                    # the int 0 or a kernel scalar of the one scale of this R
                    assert type(x) is r.frame.kernel.kind or (type(x) is int and x == 0), (name, x)
        # an exact zero stays the int 0 on the jet route
        assert all(type(routes["constants"].mats[1][i][i]) is int for i in range(2))


def _max_gap(a, b):
    with CTX.guard():
        return max(
            mpmath.fabs(from_kernel(x) - from_kernel(y))
            for k in range(a.order + 1)
            for row_a, row_b in zip(a.mats[k], b.mats[k])
            for x, y in zip(row_a, row_b)
        )


class TestHomogeneous:
    """The jet-free route against the jet recursion anchored by homogeneity
    (``oracles.jet_R_conformal``) on the same point."""

    @settings(max_examples=6, deadline=None, database=None)
    @given(
        d=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2),
                           Fraction(5, 3)]),
        t0=st.integers(-24, 24),
        t1=st.integers(8, 36),
        sign=st.sampled_from([1, -1]),
    )
    def test_matches_jet_recursion_two_primary(self, d, t0, t1, sign):
        model = two_primary_model(d)
        point = (Fraction(t0, 24), sign * Fraction(t1, 24))
        jets = jet_R_conformal(canonical_frame(model, point, CTX, order=4), 4)
        frame = canonical_frame(model, point, CTX, order=0)
        r = homogeneous_R(frame, 4)
        assert r.mode == "conformal" and r.cross_residual is None
        assert _max_gap(r, jets) < mpmath.mpf("1e-60")
        with CTX.guard():
            assert unitarity_residual(r) < mpmath.mpf("1e-60")

    def test_matches_jet_recursion_cusp(self):
        model = threefold_cusp_model()
        jets = jet_R_conformal(canonical_frame(model, CUSP_POINT, CTX, order=4), 4)
        r = homogeneous_R(canonical_frame(model, CUSP_POINT, CTX, order=0), 4)
        assert _max_gap(r, jets) < mpmath.mpf("1e-60")
        with CTX.guard():
            assert unitarity_residual(r) < mpmath.mpf("1e-60")

    def test_edge_data_leaves_out_cross_direction(self):
        model = two_primary_model(Fraction(1, 2))
        frame = canonical_frame(model, (Fraction(2, 7), Fraction(3, 5)), CTX, order=0)
        data = edge_tail_data(homogeneous_R(frame, 3))
        assert "cross_direction" not in data.residuals
        with CTX.guard():
            for name in ("v_symmetry", "unitarity"):
                assert mpmath.fabs(data.residuals[name]) <= TIGHT

    def test_requires_euler_data(self):
        model = two_primary_model(Fraction(1))
        stripped = dataclasses.replace(model, euler=None)
        frame = canonical_frame(stripped, (Fraction(0), Fraction(0)), CTX, order=0)
        with pytest.raises(ValueError):
            homogeneous_R(frame, 2)


def _assert_same_edge_table(r):
    table, residuals = compute_V(r)
    reference, ref_residuals = compute_V_series(r)
    assert table == reference
    assert residuals == {k: v for k, v in ref_residuals.items() if k != "divisibility"}


def _wrong_r2(r):
    """``r`` with (R_2)_00 moved off its value by 1/10."""
    r.mats[2][0][0] = r.mats[2][0][0] + Fraction(1, 10)
    return r


class TestClosedFormQuotient:
    """``compute_V`` against the series division it replaced, entry for entry."""

    @settings(max_examples=8, deadline=None, database=None)
    @given(
        d=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2),
                           Fraction(5, 3)]),
        t0=st.integers(-24, 24),
        t1=st.integers(8, 36),
        sign=st.sampled_from([1, -1]),
        order=st.integers(1, 6),
    )
    def test_matches_series_division_two_primary(self, d, t0, t1, sign, order):
        point = (Fraction(t0, 24), sign * Fraction(t1, 24))
        r = homogeneous_R(canonical_frame(two_primary_model(d), point, CTX, order=0), order)
        _assert_same_edge_table(r)

    def test_matches_series_division_cusp(self):
        model = threefold_cusp_model()
        _assert_same_edge_table(homogeneous_R(canonical_frame(model, CUSP_POINT, CTX), 5))
        _assert_same_edge_table(
            compute_R(canonical_frame(model, CUSP_POINT, CTX, order=4), 4, mode="constants")
        )

    def test_matches_series_division_twisted_constants_mode(self):
        model = two_primary_model(Fraction(1, 2))
        frame = canonical_frame(model, (Fraction(2, 7), Fraction(3, 5)), CTX, order=5)
        r = compute_R(frame, 5, mode="constants")
        gauge = [[Fraction(1, 3), Fraction(-2, 7), Fraction(1, 11)],
                 [Fraction(1, 5), Fraction(4, 9), Fraction(0)]]
        _assert_same_edge_table(twist_R(r, gauge))

    def test_wrong_r_breaches_unitarity_and_symmetry(self):
        frame = canonical_frame(threefold_cusp_model(), CUSP_POINT, CTX)
        _, good = compute_V(homogeneous_R(frame, 3))
        wrong = _wrong_r2(homogeneous_R(frame, 3))
        _, bad = compute_V(wrong)
        assert set(bad) == {"v_symmetry", "unitarity"}
        with CTX.guard():
            assert max(good.values()) <= TIGHT
            assert bad["unitarity"] > CTX.tol
            assert bad["v_symmetry"] > CTX.tol
            # the remainder of the series division is the unitarity residual
            _, division = compute_V_series(wrong)
            assert mpmath.fabs(division["divisibility"] - bad["unitarity"]) <= TIGHT


@st.composite
def conformal_cases(draw):
    """A two-primary model at a point of the family's tests, or the cusp in
    the box the benchmark draws from: |t0| <= 1, 1/4 <= |t1| <= 1 and
    -1 <= t2 <= -1/3."""
    if draw(st.booleans()):
        d = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2),
                                  Fraction(5, 3)]))
        t0 = Fraction(draw(st.integers(-24, 24)), 24)
        t1 = draw(st.sampled_from([1, -1])) * Fraction(draw(st.integers(8, 36)), 24)
        return two_primary_model(d), (t0, t1)
    t0 = Fraction(draw(st.integers(-21, 21)), 21)
    t1 = draw(st.sampled_from([1, -1])) * Fraction(draw(st.integers(6, 24)), 24)
    t2 = -Fraction(draw(st.integers(7, 21)), 21)
    return threefold_cusp_model(), (t0, t1, t2)


def _assert_matches(got, want, what):
    """Every entry of ``got`` within 2**-(prec - 16) of the largest entry of
    ``want``."""
    with CTX.guard():
        size = CTX.max_abs(want)
        gap = max(mpmath.fabs(CTX.num(x) - CTX.num(y)) for x, y in zip(got, want))
        assert gap <= mpmath.ldexp(size, 16 - CTX.prec_bits), (what, gap, size)


class TestKernelRoute:
    """R, V and T on kernel scalars against the same steps on mpmath
    numbers (``oracles.mpc_homogeneous_R`` and ``mpc_edge_tail_data``)."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(case=conformal_cases(), order=st.integers(1, 6))
    def test_matches_mpmath_route(self, case, order):
        model, point = case
        frame = canonical_frame(model, point, CTX)
        r = homogeneous_R(frame, order)
        data = edge_tail_data(r)
        assert data.in_kernel(CTX) is data
        reference = mpc_homogeneous_R(frame, order)
        ref = mpc_edge_tail_data(frame, reference)
        keys = sorted(set(data.v) | set(ref.v))
        _assert_matches(
            [x for mat in r.mats for row in mat for x in row],
            [x for mat in reference for row in mat for x in row],
            "R",
        )
        _assert_matches([data.v_entry(*key) for key in keys], [ref.v_entry(*key) for key in keys], "V")
        _assert_matches(
            [t_entry(data, i, k) for i in range(r.dimension) for k in range(2, order + 2)],
            [t_entry(ref, i, k) for i in range(r.dimension) for k in range(2, order + 2)],
            "T",
        )
        _assert_matches(data.delta, ref.delta, "Delta")
        _assert_matches(data.sqrt_delta, ref.sqrt_delta, "sqrt(Delta)")
        with CTX.guard():
            for name in ("v_symmetry", "unitarity"):
                assert data.residuals[name] <= TIGHT

    def test_skewed_residuals_match_mpmath_route(self):
        # the residuals report the largest |entry|, as the mpmath route does
        frame = canonical_frame(threefold_cusp_model(), CUSP_POINT, CTX)
        wrong = _wrong_r2(homogeneous_R(frame, 3))
        _, bad = compute_V(wrong)
        ref = mpc_edge_tail_data(frame, wrong.mats).residuals
        with CTX.guard():
            for name in ("v_symmetry", "unitarity"):
                assert bad[name] > CTX.tol
                assert mpmath.fabs(bad[name] - ref[name]) <= mpmath.ldexp(ref[name], 16 - CTX.prec_bits)
