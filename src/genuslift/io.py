"""Documents, run configuration, and machine-readable reports.

JSON schemas for the objects that cross the package boundary:

* model documents (dimension, metric, potential AST, optional Euler data
  and parameters), validated on the way in: symmetric invertible metric,
  parseable AST, and a unit-axiom spot check at the origin.  Parameters are
  bound when the document is read: every ``{"param": p, "times": c}``
  coefficient becomes the rational c * p, and the model keeps the values
  only to report them;
* curve-space points ``{"Kmax": K, "t": [[..], ..]}`` for descendent runs;
* frame, R-matrix, and edge/tail dumps on the way out.

Serialization rules, chosen so documents round-trip losslessly: rationals
print as ``"p/q"`` (bare ``"p"`` for integers); floats print as decimal
strings carrying ``digits = floor(bits * log10(2))`` places next to an
explicit precision annotation; complex values use mpmath's ``(re + imj)``
form.  Every table is keyed by comma-joined index strings and every dict is
emitted with sorted keys, so a report is byte-stable across runs at a fixed
configuration.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .descendent import CurvePoint
from .expressions import Expression, UnboundParameterError
from .frame import CanonicalFrame
from .frobenius import EulerData, FrobeniusModel
from .rmatrix import EdgeTailData, RSeries
from .scalars import EXACT, Context, FloatContext, Rational, format_rational, parse_rational
from .series import TruncatedSeries


class SchemaError(ValueError):
    """A document does not match its schema."""


class UnitAxiomWarning(UserWarning):
    """The unit-axiom spot check at the origin exceeded tolerance."""


class TruncationWarning(UserWarning):
    """A truncation was raised to the minimum a genus-g run needs."""


# -- run configuration --------------------------------------------------------


@dataclass
class RunConfig:
    """Settings shared by every computation behind the command line.

    ``truncation`` counts the deepest tail index: a run keeps T_2 .. T_K,
    which requires the R-matrix through z^(K-1).  A genus-g graph sum
    consumes tails up to T_{3g-2}, so K below that floor is raised with a
    warning rather than silently producing a wrong sum.  ``gauge`` holds the
    odd exponents of a diagonal R-matrix twist, one row per canonical index;
    ``anchors`` fixes the integration constants of u on non-conformal
    models.  All reductions downstream are sequential left folds in a fixed
    order, so a report depends only on this configuration.
    """

    precision_bits: int = 256
    tolerance: Rational = Rational(1, 10**30)
    truncation: Optional[int] = None
    genus: Optional[int] = None
    gauge: Optional[tuple] = None
    anchors: Optional[tuple] = None
    output: str = "text"

    def __post_init__(self):
        self.precision_bits = int(self.precision_bits)
        if self.precision_bits < 53:
            raise ValueError("precision must be at least 53 bits")
        self.tolerance = Rational(self.tolerance)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.output not in ("json", "text"):
            raise ValueError(f"output format must be json or text, not {self.output!r}")
        if self.genus is not None:
            self.genus = int(self.genus)
            if self.genus < 0:
                raise ValueError("genus must be nonnegative")
        if self.truncation is not None:
            self.truncation = int(self.truncation)
            if self.truncation < 2:
                raise ValueError("truncation must keep at least the first tail T_2")
        if self.genus is not None and self.genus >= 2:
            floor_k = 3 * self.genus - 2
            if self.truncation is None:
                self.truncation = floor_k
            elif self.truncation < floor_k:
                warnings.warn(
                    f"truncation {self.truncation} raised to {floor_k}: "
                    f"a genus-{self.genus} sum consumes tails through T_{floor_k}",
                    TruncationWarning,
                    # past __post_init__ and the generated __init__ to the caller
                    stacklevel=3,
                )
                self.truncation = floor_k

    @property
    def r_order(self) -> Optional[int]:
        """z-order of the R-matrix implied by the tail truncation."""
        return None if self.truncation is None else self.truncation - 1

    def context(self) -> FloatContext:
        ctx = FloatContext(self.precision_bits)
        with ctx.guard():
            ctx.tol = mpmath.mpf(self.tolerance.numerator) / self.tolerance.denominator
        return ctx


# -- scalar and series formatting ----------------------------------------------


def format_value(x, ctx: Context = EXACT) -> str:
    """Rational -> "p/q"; float/complex -> decimal string at ctx precision
    (``EXACT`` raises TypeError on them)."""
    if isinstance(x, (int, Rational)):
        return format_rational(Rational(x))
    return ctx.format(x)


def parse_value(text: str, ctx: Context = EXACT):
    text = text.strip()
    if "/" in text and "j" not in text and "(" not in text:
        return parse_rational(text)
    return ctx.parse(text)


def precision_annotation(ctx: FloatContext) -> dict:
    return {"bits": ctx.prec_bits, "digits": ctx.digits}


def series_to_json(series: TruncatedSeries, ctx: Context = EXACT) -> dict:
    coeffs = {}
    for key in sorted(series.c):
        coeffs[",".join(str(e) for e in key)] = format_value(series.c[key], ctx)
    return {"names": list(series.caps.names), "coefficients": coeffs}


def _key_string(key) -> str:
    return ",".join(str(k) for k in key)


# -- curve-space points ---------------------------------------------------------


def _load(document) -> dict:
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError(f"expected a JSON object, got {type(document).__name__}")
    return document


def _is_integer(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_tau(document) -> CurvePoint:
    """``{"Kmax": K, "t": [[..], ..]}`` with rational entries -> CurvePoint.

    ``t[m]`` is the coupling vector t_m; the list must have K + 1 rows of a
    common dimension.
    """
    doc = _load(document)
    if "t" not in doc:
        raise SchemaError("curve point document needs a \"t\" array")
    rows = doc["t"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SchemaError("\"t\" must be a nonempty array of coupling vectors")
    times = tuple(tuple(_rational(x, "coupling entries") for x in row) for row in rows)
    kmax = doc.get("Kmax", len(times) - 1)
    if not _is_integer(kmax):
        raise SchemaError(f"Kmax must be an integer, not {kmax!r}")
    if kmax != len(times) - 1:
        raise SchemaError(
            f"Kmax={doc['Kmax']} disagrees with {len(times)} coupling vectors"
        )
    try:
        return CurvePoint(times)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# -- model documents ------------------------------------------------------------


def _rational(value, what: str) -> Rational:
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what} must be rational: {exc}") from None


def _rational_matrix(rows, n: int, what: str) -> list:
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(f"{what} must be a {n}x{n} array")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{what} must be a {n}x{n} array")
        out.append([_rational(x, f"{what} entries") for x in row])
    return out


def parse_model(document, *, tolerance: Rational = Rational(1, 10**30)) -> FrobeniusModel:
    """Validate a model document and build the FrobeniusModel.

    Checks, in order: required keys and shapes; rational parameter values;
    potential AST parse, with a bound value for every named parameter; unit
    index; Euler block shapes and rational entries.  The model is built
    from the checked pieces, and building it checks metric symmetry and
    invertibility (exact), once.  Finally the unit axiom
    F_{u,b,c}(0) = g_{bc} is spot-checked at the origin with exact
    arithmetic; a violation above ``tolerance`` emits a UnitAxiomWarning
    rather than an error, since the axiom is pointwise and the origin may
    simply be outside the caller's working domain (Laurent potentials skip
    the check entirely).
    """
    doc = _load(document)
    for key in ("dimension", "metric", "potential"):
        if key not in doc:
            raise SchemaError(f"model document needs \"{key}\"")
    known = {"dimension", "metric", "potential", "unit_index", "euler", "parameters", "name"}
    extra = set(doc) - known
    if extra:
        raise SchemaError(f"unknown model keys: {sorted(extra)}")
    n = doc["dimension"]
    if not _is_integer(n):
        raise SchemaError(f"dimension must be an integer, not {n!r}")
    if n < 1:
        raise SchemaError("dimension must be positive")

    metric = _rational_matrix(doc["metric"], n, "metric")

    params_doc = doc.get("parameters", {})
    if not isinstance(params_doc, dict):
        raise SchemaError("parameters must map names to rationals")
    params = {str(k): _rational(v, "parameter values") for k, v in params_doc.items()}
    try:
        potential = Expression.from_json(doc["potential"], n, params)
    except UnboundParameterError as exc:
        raise SchemaError(f"potential uses unbound parameters: {exc.args[0]}") from None
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise SchemaError(f"potential AST: {exc}") from None

    unit_index = doc.get("unit_index", 0)
    if not _is_integer(unit_index):
        raise SchemaError(f"unit_index must be an integer, not {unit_index!r}")
    if not 0 <= unit_index < n:
        raise SchemaError(f"unit_index {unit_index} out of range for dimension {n}")

    euler = None
    if doc.get("euler"):
        ed = doc["euler"]
        if not isinstance(ed, dict):
            raise SchemaError("euler must be an object")
        for key in ("matrix", "shift", "conformal_dimension"):
            if key not in ed:
                raise SchemaError(f"euler block needs \"{key}\"")
        matrix = _rational_matrix(ed["matrix"], n, "euler matrix")
        if not isinstance(ed["shift"], list) or len(ed["shift"]) != n:
            raise SchemaError(f"euler shift must have {n} entries")
        euler = EulerData(
            matrix,
            [_rational(x, "euler shift entries") for x in ed["shift"]],
            _rational(ed["conformal_dimension"], "euler conformal_dimension"),
        )

    # the model checks its metric once, while inverting it
    try:
        model = FrobeniusModel(
            dimension=n,
            metric=metric,
            potential=potential,
            unit_index=unit_index,
            euler=euler,
            parameters=params,
            name=doc.get("name", ""),
        )
    except ZeroDivisionError:
        raise SchemaError("metric is singular") from None
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    origin = (Fraction(0),) * n
    try:
        residual = model.unit_residual(origin, EXACT)
    except (ArithmeticError, ValueError):
        residual = None  # origin outside the potential's domain
    if residual is not None and residual > tolerance:
        warnings.warn(
            f"unit axiom fails at the origin: residual {residual}",
            UnitAxiomWarning,
            stacklevel=2,
        )
    return model


# -- output documents -----------------------------------------------------------


def frame_to_json(frame: CanonicalFrame) -> dict:
    """Canonical-frame dump: u, Delta, sqrt(Delta), Psi, and their jets."""
    ctx = frame.ctx
    doc = {
        "precision": precision_annotation(ctx),
        "point": [format_value(x, ctx) for x in frame.point],
        "order": frame.order,
        "conformal": frame.model.euler is not None,
        "u": [format_value(x, ctx) for x in frame.u_values()],
        "delta": [format_value(x, ctx) for x in frame.delta_values()],
        "sqrt_delta": [format_value(x, ctx) for x in frame.sqrt_delta_values()],
        "psi": [[format_value(x, ctx) for x in row] for row in frame.psi_values()],
    }
    if frame.order > 0:
        doc["jets"] = {
            "u": [series_to_json(s, ctx) for s in frame.u],
            "delta": [series_to_json(s, ctx) for s in frame.delta],
            "psi": [[series_to_json(s, ctx) for s in row] for row in frame.psi],
        }
    return doc


def rseries_to_json(r: RSeries, ctx: FloatContext) -> dict:
    """R-matrix entries keyed "k,i,j" for k = 1 .. order."""
    table = {}
    for k in range(1, r.order + 1):
        for i in range(r.dimension):
            for j in range(r.dimension):
                table[_key_string((k, i, j))] = format_value(r.mats[k][i][j], ctx)
    doc = {
        "precision": precision_annotation(ctx),
        "order": r.order,
        "mode": r.mode,
        "r": table,
    }
    if r.gauge is not None:
        doc["gauge"] = [[format_rational(Rational(a)) for a in row] for row in r.gauge]
    if r.cross_residual is not None:
        doc["cross_residual"] = format_value(r.cross_residual, ctx)
    return doc


def edge_data_to_json(data: EdgeTailData, ctx: Context) -> dict:
    """Edge and tail tables: V keyed "i,j,k,l", T keyed "i,k"."""
    vdoc = {}
    for key in sorted(data.v):
        vdoc[_key_string(key)] = format_value(data.v[key], ctx)
    tdoc = {}
    for i, row in enumerate(data.t):
        for k in sorted(row):
            tdoc[_key_string((i, k))] = format_value(row[k], ctx)
    doc = {
        "dimension": data.dimension,
        "v_cutoff": data.v_cutoff,
        "t_cutoff": data.t_cutoff,
        "delta": [format_value(x, ctx) for x in data.delta],
        "sqrt_delta": [format_value(x, ctx) for x in data.sqrt_delta],
        "v": vdoc,
        "t": tdoc,
        "residuals": {k: format_value(v, ctx) for k, v in sorted(data.residuals.items())},
    }
    if ctx is not EXACT:
        doc["precision"] = precision_annotation(ctx)
    return doc


# -- report rendering -----------------------------------------------------------


def _flatten(value, prefix: str, lines: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), lines)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix} = {value}")


def render_report(doc: dict, output: str) -> str:
    """Byte-stable rendering: sorted-key JSON, or flattened key = value text."""
    if output == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines: list = []
    _flatten(doc, "", lines)
    return "\n".join(lines) + "\n"
