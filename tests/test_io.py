"""Document schemas and run configuration.

Round-trips are exact by construction: rationals print as "p/q" and parse
back to the same Fraction, floats carry floor(bits * log10 2) decimal
digits next to a precision annotation, and every emitted table is keyed by
sorted comma-joined index strings so a report is a pure function of the
configuration.
"""

import json
import math
import warnings
from fractions import Fraction

import mpmath
import pytest

import genuslift.frobenius as frobenius_module
from genuslift.descendent import CurvePoint
from genuslift.frame import canonical_frame
from genuslift.frobenius import point_model, two_primary_model
from genuslift.io import (
    RunConfig,
    SchemaError,
    TruncationWarning,
    UnitAxiomWarning,
    edge_data_to_json,
    format_value,
    frame_to_json,
    parse_model,
    parse_tau,
    parse_value,
    precision_annotation,
    render_report,
    rseries_to_json,
    series_to_json,
)
from genuslift.rmatrix import compute_R, edge_tail_data
from genuslift.scalars import EXACT, FloatContext
from genuslift.series import Caps, TruncatedSeries
from oracles import model_to_json, mpmath_data, tau_to_json

CTX = FloatContext(256)

QUINTIC_DOC = {
    "dimension": 2,
    "metric": [["0", "1"], ["1", "0"]],
    "potential": [
        {"coeff": "1/2", "mono": [2, 1]},
        {"coeff": {"param": "c"}, "mono": [0, 5]},
    ],
    "unit_index": 0,
    "euler": {
        "matrix": [["1", "0"], ["0", "1/2"]],
        "shift": ["0", "0"],
        "conformal_dimension": "1/2",
    },
    "parameters": {"c": "1"},
}


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.precision_bits == 256
        assert config.truncation is None
        assert config.output == "text"

    def test_tolerance_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=0)
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=Fraction(-1, 10))

    def test_precision_floor(self):
        with pytest.raises(ValueError, match="precision"):
            RunConfig(precision_bits=32)

    def test_output_values(self):
        with pytest.raises(ValueError, match="output"):
            RunConfig(output="yaml")

    def test_truncation_auto_raised(self):
        with pytest.warns(TruncationWarning):
            config = RunConfig(truncation=3, genus=2)
        assert config.truncation == 4
        assert config.r_order == 3

    def test_truncation_warning_names_the_caller(self):
        with pytest.warns(TruncationWarning) as record:
            RunConfig(genus=3, truncation=2)
        assert [w.filename for w in record] == [__file__]

    def test_truncation_defaulted_for_genus(self):
        config = RunConfig(genus=3)
        assert config.truncation == 7
        assert config.r_order == 6

    def test_sufficient_truncation_untouched(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = RunConfig(truncation=9, genus=2)
        assert config.truncation == 9

    def test_context_carries_tolerance(self):
        config = RunConfig(precision_bits=128, tolerance=Fraction(1, 10**15))
        ctx = config.context()
        assert ctx.prec_bits == 128
        with ctx.guard():
            assert mpmath.fabs(ctx.tol - mpmath.mpf("1e-15")) < mpmath.mpf("1e-25")


class TestScalarFormatting:
    def test_rational_forms(self):
        assert format_value(Fraction(3, 4)) == "3/4"
        assert format_value(Fraction(-5)) == "-5"
        assert format_value(7) == "7"

    def test_float_needs_context(self):
        with pytest.raises(TypeError):
            format_value(CTX.num("1.5"))

    @pytest.mark.parametrize("bits", [53, 128, 256, 1024])
    def test_digit_count(self, bits):
        ctx = FloatContext(bits)
        assert ctx.digits == max(5, math.floor(bits * math.log10(2)))
        annotation = precision_annotation(ctx)
        assert annotation == {"bits": bits, "digits": ctx.digits}

    def test_float_round_trip(self):
        ctx = FloatContext(256)
        with ctx.guard():
            x = mpmath.sqrt(mpmath.mpf(2)) / 3
            text = format_value(x, ctx)
            back = parse_value(text, ctx)
            assert mpmath.fabs(back - x) < mpmath.mpf(2) ** (20 - 256)

    def test_complex_round_trip(self):
        ctx = FloatContext(128)
        with ctx.guard():
            z = mpmath.mpc(1, -2) / 7
            back = parse_value(format_value(z, ctx), ctx)
            assert mpmath.fabs(back - z) < mpmath.mpf(2) ** (20 - 128)

    def test_rational_text_parses_exactly(self):
        assert parse_value("22/7") == Fraction(22, 7)
        assert parse_value("22/7", CTX) == Fraction(22, 7)


class TestModelDocuments:
    def test_point_document(self):
        model = parse_model(model_to_json(point_model()))
        assert model.dimension == 1
        assert model.euler is not None

    def test_two_primary_document(self):
        model = parse_model(QUINTIC_DOC)
        assert model.dimension == 2
        assert model.euler is not None
        assert model.euler.conformal_dimension == Fraction(1, 2)
        assert model.parameters == {"c": Fraction(1)}
        reference = two_primary_model(Fraction(1, 2))
        origin = (Fraction(0), Fraction(0))
        assert model.potential.evaluate(
            (Fraction(1), Fraction(2)), EXACT
        ) == reference.potential.evaluate((Fraction(1), Fraction(2)), EXACT)
        assert model.unit_residual(origin, EXACT) == 0

    def test_json_string_accepted(self):
        model = parse_model(json.dumps(QUINTIC_DOC))
        assert model.dimension == 2

    def test_round_trip(self):
        model = two_primary_model(Fraction(1, 3), Fraction(2, 7))
        again = parse_model(model_to_json(model))
        assert again.metric == model.metric
        assert again.euler.conformal_dimension == model.euler.conformal_dimension
        pt = (Fraction(1, 5), Fraction(3, 2))
        assert again.potential.evaluate(pt, EXACT) == model.potential.evaluate(pt, EXACT)

    def test_missing_key(self):
        doc = dict(QUINTIC_DOC)
        del doc["metric"]
        with pytest.raises(SchemaError, match="metric"):
            parse_model(doc)

    def test_unknown_key(self):
        doc = dict(QUINTIC_DOC)
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            parse_model(doc)

    def test_non_symmetric_metric(self):
        doc = dict(QUINTIC_DOC)
        doc["metric"] = [["0", "1"], ["2", "0"]]
        with pytest.raises(SchemaError, match=r"metric is not symmetric at \(0,1\)"):
            parse_model(doc)

    def test_singular_metric(self):
        doc = dict(QUINTIC_DOC)
        doc["metric"] = [["1", "1"], ["1", "1"]]
        with pytest.raises(SchemaError, match="singular"):
            parse_model(doc)

    def test_metric_checked_once(self, monkeypatch):
        calls = []
        original = frobenius_module.mat_inv

        def counting(m, ctx):
            calls.append(m)
            return original(m, ctx)

        monkeypatch.setattr(frobenius_module, "mat_inv", counting)
        parse_model(QUINTIC_DOC)
        assert len(calls) == 1

    def test_ragged_metric(self):
        doc = dict(QUINTIC_DOC)
        doc["metric"] = [["0", "1"], ["1"]]
        with pytest.raises(SchemaError, match="2x2"):
            parse_model(doc)

    def test_malformed_ast(self):
        doc = dict(QUINTIC_DOC)
        doc["potential"] = [{"mono": [2, 1]}]
        with pytest.raises(SchemaError, match="AST"):
            parse_model(doc)

    def test_unbound_parameter(self):
        doc = dict(QUINTIC_DOC)
        doc = json.loads(json.dumps(doc))
        doc["parameters"] = {}
        with pytest.raises(SchemaError, match="unbound"):
            parse_model(doc)

    def test_unit_index_range(self):
        doc = dict(QUINTIC_DOC)
        doc["unit_index"] = 2
        with pytest.raises(SchemaError, match="unit_index"):
            parse_model(doc)

    def test_euler_shapes(self):
        doc = json.loads(json.dumps(QUINTIC_DOC))
        del doc["euler"]["shift"]
        with pytest.raises(SchemaError, match="shift"):
            parse_model(doc)

    def test_euler_entries_must_be_rational(self):
        for field, value in (("shift", ["x", "0"]), ("conformal_dimension", "x")):
            doc = json.loads(json.dumps(QUINTIC_DOC))
            doc["euler"][field] = value
            with pytest.raises(SchemaError, match=f"euler {field}"):
                parse_model(doc)

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_model("{this is not json")

    def test_unit_axiom_warning(self):
        doc = {
            "dimension": 1,
            "metric": [["1"]],
            "potential": [{"coeff": "1/3", "mono": [3]}],
        }
        with pytest.warns(UnitAxiomWarning):
            parse_model(doc)

    def test_laurent_skips_spot_check(self):
        model = two_primary_model(Fraction(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = parse_model(model_to_json(model))
        assert again.dimension == 2


class TestTauDocuments:
    def test_round_trip(self):
        tau = CurvePoint(((Fraction(1, 8), Fraction(0)), (Fraction(0), Fraction(1, 16))))
        doc = tau_to_json(tau)
        assert doc["Kmax"] == 1
        assert parse_tau(doc).times == tau.times
        assert parse_tau(json.dumps(doc)).times == tau.times

    def test_kmax_mismatch(self):
        with pytest.raises(SchemaError, match="Kmax"):
            parse_tau({"Kmax": 3, "t": [["0"], ["1"]]})

    def test_ragged_rows(self):
        with pytest.raises(SchemaError, match="dimension"):
            parse_tau({"t": [["0", "0"], ["1"]]})

    def test_requires_rows(self):
        with pytest.raises(SchemaError, match="\"t\""):
            parse_tau({"Kmax": 0})
        with pytest.raises(SchemaError, match="nonempty"):
            parse_tau({"t": []})

    def test_non_rational_entry(self):
        with pytest.raises(SchemaError, match="rational"):
            parse_tau({"t": [["0.5e"]]})


class TestOutputDocuments:
    def test_series_dump_sorted(self):
        caps = Caps.total(("x", "y"), 2)
        s = (
            TruncatedSeries.var(caps, "y", coeff=Fraction(2))
            + TruncatedSeries.var(caps, "x", coeff=Fraction(-1, 3))
            + TruncatedSeries.const(caps, Fraction(5))
        )
        doc = series_to_json(s)
        assert doc["names"] == ["x", "y"]
        assert doc["coefficients"] == {"0,0": "5", "0,1": "2", "1,0": "-1/3"}

    def test_frame_dump(self):
        model = two_primary_model(Fraction(1, 3))
        frame = canonical_frame(model, (Fraction(0), Fraction(1)), CTX, order=1)
        doc = frame_to_json(frame)
        assert doc["precision"] == {"bits": 256, "digits": 77}
        assert [parse_value(x, CTX) for x in doc["point"]] == [0, 1]
        assert len(doc["u"]) == 2 and len(doc["psi"]) == 2
        assert set(doc["jets"]) == {"u", "delta", "psi"}
        with CTX.guard():
            u0 = parse_value(doc["u"][0], CTX)
            assert mpmath.fabs(u0 - frame.u_values()[0]) < mpmath.mpf("1e-70")

    def test_table_dumps(self):
        model = two_primary_model(Fraction(1, 3))
        frame = canonical_frame(model, (Fraction(0), Fraction(1)), CTX, order=3)
        r = compute_R(frame, 3)
        rdoc = rseries_to_json(r, CTX)
        assert rdoc["order"] == 3 and rdoc["mode"] == "conformal"
        assert all(len(key.split(",")) == 3 for key in rdoc["r"])
        assert "1,0,0" in rdoc["r"]
        data = edge_tail_data(r)
        edoc = edge_data_to_json(data, CTX)
        assert all(len(key.split(",")) == 4 for key in edoc["v"])
        assert all(len(key.split(",")) == 2 for key in edoc["t"])
        assert set(edoc["residuals"]) == set(data.residuals)
        # the data are fixed-point kernel scalars; their mpmath values
        # render to the same tables
        mdoc = edge_data_to_json(mpmath_data(data), CTX)
        assert mdoc.keys() == edoc.keys() and mdoc["v"].keys() == edoc["v"].keys()
        with CTX.guard():
            for key, text in edoc["v"].items():
                assert mpmath.fabs(parse_value(mdoc["v"][key], CTX) - parse_value(text, CTX)) < (
                    mpmath.mpf("1e-70")
                )

    def test_render_json_sorted_and_stable(self):
        doc = {"b": [1, 2], "a": {"y": "2", "x": "1"}}
        out = render_report(doc, "json")
        assert out == render_report(doc, "json")
        assert out.index('"a"') < out.index('"b"')
        assert json.loads(out) == doc

    def test_render_text_flattens(self):
        out = render_report({"a": {"x": "1"}, "b": ["p", "q"]}, "text")
        assert out.splitlines() == ["a.x = 1", "b[0] = p", "b[1] = q"]
