"""Model layer: structure constants, axiom residuals, serialization."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslift.frobenius import (
    FrobeniusModel,
    point_model,
    threefold_cusp_model,
    two_primary_model,
)
from genuslift.expressions import Expression, t_names
from genuslift.io import parse_model
from genuslift.scalars import EXACT, FloatContext
from genuslift.series import Caps, TruncatedSeries
from oracles import close, model_to_json


class TestStructureConstants:
    def test_point_model_unit_algebra(self):
        m = point_model()
        for t in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            cs = m.structure_constants((t,), EXACT)
            assert cs == [[[Fraction(1)]]]

    def test_exponential_model_at_origin(self):
        m = two_primary_model(Fraction(1))
        ctx = FloatContext(128)
        cs = m.structure_constants((0, 0), ctx)
        assert close(ctx, cs[1][0][1], 1)
        assert close(ctx, cs[1][1][0], 1)
        assert close(ctx, cs[1][0][0], 0)
        assert close(ctx, cs[1][1][1], 0)
        assert all(close(ctx, cs[0][i][j], int(i == j)) for i in range(2) for j in range(2))

    def test_quintic_model_structure(self):
        m = two_primary_model(Fraction(1, 2))
        b = Fraction(3, 7)
        cs = m.structure_constants((Fraction(1, 5), b), EXACT)
        assert cs[1][0][1] == 60 * b**2
        assert cs[1][1][0] == 1
        assert cs[1][0][0] == 0

    def test_unit_is_identity(self):
        m = threefold_cusp_model()
        cs = m.structure_constants((Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)), EXACT)
        assert cs[0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestAxioms:
    POINTS = [
        (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
        (Fraction(-1, 2), Fraction(1, 9), Fraction(3, 4)),
        (Fraction(2), Fraction(-1, 3), Fraction(1, 6)),
    ]

    def test_cusp_model_axioms_exact(self):
        m = threefold_cusp_model()
        for pt in self.POINTS:
            assert m.wdvv_residual(pt, EXACT) == 0
            assert m.unit_residual(pt, EXACT) == 0
            assert m.euler_residual(pt, EXACT) == 0

    def test_two_primary_axioms(self):
        for d in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)):
            m = two_primary_model(d)
            assert m.wdvv_residual((Fraction(1, 5), Fraction(3, 7)), EXACT) == 0
            assert m.euler_residual((Fraction(1, 5), Fraction(3, 7)), EXACT) == 0

    def test_exponential_family_axioms_float(self):
        ctx = FloatContext(192)
        m = two_primary_model(Fraction(1))
        assert m.euler_residual((Fraction(1, 5), Fraction(3, 7)), ctx) < ctx.tol

    def test_broken_potential_fails_unit_axiom(self):
        bad = FrobeniusModel(
            dimension=2,
            metric=[[0, 1], [1, 0]],
            potential=Expression.term(2, Fraction(1, 3), mono=(3, 0)),
        )
        assert bad.unit_residual((Fraction(1), Fraction(1)), EXACT) != 0


class TestWorkingPrecision:
    """Float residuals and structure constants called outside any precision
    guard must still carry the context's 256 bits, not double precision."""

    CTX = FloatContext(256)
    CUSP_POINT = (Fraction(1, 3), Fraction(-2, 5), Fraction(-3, 7))
    QUINTIC_POINT = (Fraction(2, 7), Fraction(3, 5))
    BOUND = mpmath.mpf("1e-70")

    def cases(self):
        return [
            (threefold_cusp_model(), self.CUSP_POINT),
            (two_primary_model(Fraction(1, 2)), self.QUINTIC_POINT),
        ]

    def test_cusp_wdvv_and_unit(self):
        m = threefold_cusp_model()
        assert m.wdvv_residual(self.CUSP_POINT, self.CTX) < self.BOUND
        assert m.unit_residual(self.CUSP_POINT, self.CTX) < self.BOUND

    def test_euler_residual(self):
        for m, pt in self.cases():
            assert m.euler_residual(pt, self.CTX) < self.BOUND

    def test_structure_constants_match_exact(self):
        for m, pt in self.cases():
            floats = m.structure_constants(pt, self.CTX)
            exact = m.structure_constants(pt, EXACT)
            with self.CTX.guard():
                gap = max(
                    abs(x - self.CTX.num(y))
                    for fm, em in zip(floats, exact)
                    for fr, er in zip(fm, em)
                    for x, y in zip(fr, er)
                )
            assert gap < self.BOUND


def _jet_route(model, point, order):
    """C_a jets by the potential's jet to order + 3, differentiated three
    times and contracted with g^{-1}."""
    n = model.dimension
    names = t_names(n)
    jet = model.potential.jet(point, order + 3, EXACT)
    honest = Caps.total(names, order)
    ginv = model.metric_inverse
    out = []
    for a in range(n):
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = TruncatedSeries.zero(honest)
                for m in range(n):
                    if ginv[m][i]:
                        third = jet.partial(names[a]).partial(names[j]).partial(names[m])
                        acc = acc + third.repruned(honest).scale(ginv[m][i])
                row.append(acc)
            mat.append(row)
        out.append(mat)
    return out


_PROPERTY_MODELS = {
    "cusp": threefold_cusp_model(),
    "d=1/3": two_primary_model(Fraction(1, 3)),
    "d=1/2": two_primary_model(Fraction(1, 2)),
}

_coordinates = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def _model_points(draw):
    name = draw(st.sampled_from(sorted(_PROPERTY_MODELS)))
    model = _PROPERTY_MODELS[name]
    point = tuple(draw(_coordinates) for _ in range(model.dimension))
    return model, point


class TestSingleDerivation:
    @settings(max_examples=40, deadline=None, database=None)
    @given(_model_points(), st.integers(min_value=0, max_value=2))
    def test_jets_match_jet_route(self, model_point, order):
        model, point = model_point
        new = model.structure_constant_jets(point, order, EXACT)
        old = _jet_route(model, point, order)
        n = model.dimension
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    diff = new[a][i][j] - old[a][i][j]
                    assert all(v == 0 for v in diff.c.values())

    @settings(max_examples=40, deadline=None, database=None)
    @given(_model_points())
    def test_multiplication_commutes_with_unit(self, model_point):
        model, point = model_point
        n = model.dimension
        cs = model.structure_constants(point, EXACT)
        for a in range(n):
            for b in range(n):
                for i in range(n):
                    for j in range(n):
                        ab = sum(cs[a][i][k] * cs[b][k][j] for k in range(n))
                        ba = sum(cs[b][i][k] * cs[a][k][j] for k in range(n))
                        assert ab == ba
        unit = cs[model.unit_index]
        assert unit == [[int(i == j) for j in range(n)] for i in range(n)]


class TestModelConstruction:
    def test_non_symmetric_metric_rejected(self):
        with pytest.raises(ValueError):
            FrobeniusModel(
                dimension=2,
                metric=[[0, 1], [2, 0]],
                potential=Expression.zero(2),
            )

    def test_singular_metric_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FrobeniusModel(
                dimension=2,
                metric=[[1, 1], [1, 1]],
                potential=Expression.zero(2),
            )

    def test_two_primary_exponent_table(self):
        cases = {
            Fraction(1, 3): 4,
            Fraction(1, 2): 5,
            Fraction(3, 2): -3,
            Fraction(5, 3): -2,
        }
        for d, k in cases.items():
            m = two_primary_model(d)
            monos = [mono for (mono, _expo) in m.potential.terms]
            assert (0, k) in monos

    def test_two_primary_rejects_fractional_exponent(self):
        with pytest.raises(ValueError):
            two_primary_model(Fraction(1, 4))

    def test_two_primary_rejects_degenerate_exponent(self):
        # d = 3 would give k = 0
        with pytest.raises(ValueError):
            two_primary_model(Fraction(3))

    def test_json_roundtrip(self):
        m = two_primary_model(Fraction(3, 2), coefficient=Fraction(2, 7))
        doc = model_to_json(m)
        m2 = parse_model(doc)
        assert m2.dimension == m.dimension
        assert m2.metric == m.metric
        assert m2.potential.terms == m.potential.terms
        assert m2.euler.conformal_dimension == m.euler.conformal_dimension
        pt = (Fraction(1, 5), Fraction(3, 7))
        assert m2.wdvv_residual(pt, EXACT) == m.wdvv_residual(pt, EXACT) == 0
