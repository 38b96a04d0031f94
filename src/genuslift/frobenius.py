"""Frobenius manifold models: metric, potential, multiplication, axioms.

A model is a constant flat metric ``g`` plus a potential ``F`` whose third
partial derivatives are the structure constants of a commutative associative
multiplication,

    (C_a)^c_b = F_{abm} g^{mc},

with the unit coordinate direction acting as identity.  Optionally the model
carries an affine Euler field ``E = (a t + b) d/dt`` and a conformal
dimension ``D``; conformal models get their canonical coordinates anchored
by eigenvalues of the Euler multiplication instead of by integration
constants.

The model owns the potential's symbolic form.  It differentiates F once, at
construction, into the expressions F_abc (a <= b <= c) and C_a; jets and
point values of the multiplication, the axiom residuals, and the descendent
calibration all read those.  A model read from a document has its
parameters already substituted; ``parameters`` keeps the values read.

All axioms (WDVV, unit, Euler homogeneity) are checked pointwise through
residual functions rather than assumed; with a float context every residual
is computed at its working precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .expressions import Expression, t_names
from .linalg import mat_inv, mat_mul, mat_sub
from .scalars import EXACT, Context


@dataclass
class EulerData:
    """E^a = sum_b matrix[a][b] t^b + shift[a], with conformal dimension D."""

    matrix: List[List[Fraction]]
    shift: List[Fraction]
    conformal_dimension: Fraction

    def components(self, point: Sequence, ctx: Context) -> list:
        n = len(self.shift)
        with ctx.guard():
            pt = [ctx.num(x) for x in point]
            out = []
            for a in range(n):
                s = ctx.num(self.shift[a])
                for b in range(n):
                    if self.matrix[a][b]:
                        s = s + ctx.num(self.matrix[a][b]) * pt[b]
                out.append(s)
            return out


@dataclass
class FrobeniusModel:
    dimension: int
    metric: List[List[Fraction]]
    potential: Expression
    unit_index: int = 0
    euler: Optional[EulerData] = None
    parameters: Dict[str, Fraction] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        n = self.dimension
        self.metric = [[Fraction(x) for x in row] for row in self.metric]
        if len(self.metric) != n or any(len(r) != n for r in self.metric):
            raise ValueError("metric shape mismatch")
        for a in range(n):
            for b in range(a + 1, n):
                if self.metric[a][b] != self.metric[b][a]:
                    raise ValueError(f"metric is not symmetric at ({a},{b})")
        self.metric_inverse = ginv = mat_inv(self.metric, EXACT)
        self.third_derivatives: Dict[tuple, Expression] = {}
        for a in range(n):
            fa = self.potential.diff(a)
            for b in range(a, n):
                fab = fa.diff(b)
                for c in range(b, n):
                    self.third_derivatives[(a, b, c)] = fab.diff(c)

        def entry(a, i, j):
            acc = Expression.zero(n)
            for m in range(n):
                if ginv[m][i]:
                    acc = acc + self._third(a, j, m).scale(ginv[m][i])
            return acc

        self.multiplication = [
            [[entry(a, i, j) for j in range(n)] for i in range(n)] for a in range(n)
        ]

    def _third(self, a: int, b: int, c: int) -> Expression:
        return self.third_derivatives[tuple(sorted((a, b, c)))]

    # -- multiplication ----------------------------------------------------

    def structure_constant_jets(self, point: Sequence, order: int, ctx: Context):
        """List of N matrices of jets: (C_a)[i][j] = F_{a j m} g^{m i}."""
        return [
            [[e.jet(point, order, ctx) for e in row] for row in mat] for mat in self.multiplication
        ]

    def rational_at(self, point: Sequence) -> bool:
        """Whether values at ``point`` are rational: the potential has no
        exponential and every coordinate is an int or a Fraction."""
        return self.potential.is_laurent() and all(isinstance(x, (int, Fraction)) for x in point)

    def structure_constants(self, point: Sequence, ctx: Context):
        """Scalar matrices C_a at the point."""
        return [
            [[e.evaluate(point, ctx) for e in row] for row in mat] for mat in self.multiplication
        ]

    # -- axiom residuals -----------------------------------------------------

    def unit_residual(self, point: Sequence, ctx: Context):
        """Max |F_{u,b,c} - g_{bc}|; raises off the potential's domain (the
        pole of a Laurent potential), like every evaluation of F there."""
        n = self.dimension
        u = self.unit_index
        self.potential.evaluate(point, ctx)
        with ctx.guard():
            worst = ctx.num(0)
            for b in range(n):
                for c in range(n):
                    v = self._third(u, b, c).evaluate(point, ctx) - self.metric[b][c]
                    worst = max(worst, ctx.abs(v))
            return worst

    def wdvv_residual(self, point: Sequence, ctx: Context):
        """Max deviation of C_a C_b - C_b C_a over all pairs (equivalent to
        the four-index associativity identity given commutativity of the
        algebra and symmetry of F_{abc})."""
        with ctx.guard():
            cs = self.structure_constants(point, ctx)
            worst = ctx.num(0)
            for a in range(self.dimension):
                for b in range(a + 1, self.dimension):
                    comm = mat_sub(mat_mul(cs[a], cs[b]), mat_mul(cs[b], cs[a]))
                    worst = max(worst, ctx.max_abs([x for row in comm for x in row]))
            return worst

    def euler_residual(self, point: Sequence, ctx: Context):
        """Pointwise residual of the three Euler axioms: homogeneity of the
        third derivatives, metric scaling, and unit scaling."""
        if self.euler is None:
            raise ValueError("model has no Euler data")
        e = self.euler
        n = self.dimension
        factor = Fraction(3) - e.conformal_dimension
        names = t_names(n)
        with ctx.guard():
            d3 = {key: f.jet(point, 1, ctx) for key, f in self.third_derivatives.items()}

            def f3(*idx):
                return d3[tuple(sorted(idx))]

            evec = e.components(point, ctx)
            worst = ctx.num(0)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        jet = f3(a, b, c)
                        acc = jet.constant_term() * (-factor)
                        for m in range(n):
                            acc = acc + evec[m] * jet.partial(names[m]).constant_term()
                            acc = acc + e.matrix[m][a] * f3(m, b, c).constant_term()
                            acc = acc + e.matrix[m][b] * f3(a, m, c).constant_term()
                            acc = acc + e.matrix[m][c] * f3(a, b, m).constant_term()
                        worst = max(worst, ctx.abs(acc))
            # L_E g = (2 - D) g
            for a in range(n):
                for b in range(n):
                    acc = -(Fraction(2) - e.conformal_dimension) * self.metric[a][b]
                    for m in range(n):
                        acc = acc + e.matrix[m][a] * self.metric[m][b] + e.matrix[m][b] * self.metric[a][m]
                    worst = max(worst, ctx.abs(acc))
            # unit direction is an eigenvector of weight 1: a^m_unit = delta
            for m in range(n):
                expect = Fraction(1) if m == self.unit_index else Fraction(0)
                worst = max(worst, ctx.abs(e.matrix[m][self.unit_index] - expect))
            return worst


# -- built-in models ------------------------------------------------------------


def point_model() -> FrobeniusModel:
    """One-dimensional model: F = t^3/6, g = (1)."""
    return FrobeniusModel(
        dimension=1,
        metric=[[Fraction(1)]],
        potential=Expression.term(1, Fraction(1, 6), mono=(3,)),
        euler=EulerData([[Fraction(1)]], [Fraction(0)], Fraction(0)),
        name="point",
    )


def two_primary_model(d, coefficient=Fraction(1)) -> FrobeniusModel:
    """The conformal family with two flat coordinates and antidiagonal metric.

    For conformal dimension d != 1 the potential is

        F = t0^2 t1 / 2 + c * t1^k,   k = (3 - d) / (1 - d),

    which requires k to be an integer (negative values give Laurent
    potentials, defined away from t1 = 0).  At d = 1 the power degenerates
    to an exponential: F = t0^2 t1 / 2 + c * e^{t1}.
    """
    d = Fraction(d)
    c = Fraction(coefficient)
    if c == 0:
        raise ValueError("coefficient must be nonzero")
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    lead = Expression.term(2, Fraction(1, 2), mono=(2, 1))
    if d == 1:
        pot = lead + Expression.term(2, c, expo=(0, 1))
        euler = EulerData(
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
            [Fraction(0), Fraction(2)],
            Fraction(1),
        )
    else:
        k = (3 - d) / (1 - d)
        if k.denominator != 1:
            raise ValueError(f"dimension d={d} gives non-integer exponent {k}")
        k = int(k)
        if k in (0, 1, 2):
            raise ValueError(f"exponent k={k} gives a degenerate cubic term")
        pot = lead + Expression.term(2, c, mono=(0, k))
        euler = EulerData(
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1) - d]],
            [Fraction(0), Fraction(0)],
            d,
        )
    return FrobeniusModel(
        dimension=2,
        metric=metric,
        potential=pot,
        euler=euler,
        name=f"two-primary d={d}",
    )


def threefold_cusp_model() -> FrobeniusModel:
    """Three-dimensional conformal model (unfolding of a fourfold critical
    point): F = t0^2 t2 / 2 + t0 t1^2 / 2 + t1^2 t2^2 / 4 + t2^5 / 60.

    Semisimple away from the discriminant; at the origin the multiplication
    is nilpotent, which makes this the standard error-path fixture.
    """
    pot = (
        Expression.term(3, Fraction(1, 2), mono=(2, 0, 1))
        + Expression.term(3, Fraction(1, 2), mono=(1, 2, 0))
        + Expression.term(3, Fraction(1, 4), mono=(0, 2, 2))
        + Expression.term(3, Fraction(1, 60), mono=(0, 0, 5))
    )
    metric = [
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
    ]
    euler = EulerData(
        [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(3, 4), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1, 2)],
        ],
        [Fraction(0)] * 3,
        Fraction(1, 2),
    )
    return FrobeniusModel(
        dimension=3, metric=metric, potential=pot, euler=euler, name="threefold-cusp"
    )
