"""Command-line surface: exit codes, report shapes, byte stability.

Exit code contract: 0 success, 1 validation failure (bad flags or
documents, out-of-domain requests), 2 numerical failure (non-convergence
or a residual above tolerance).  Every command is exercised through
run_command, which is exactly what the console script wraps.
"""

import json
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from genuslift import (
    FloatContext,
    RunConfig,
    compute_calibration,
    descendent_potential,
    genus_potential,
    parse_tau,
    point_model,
    render_report,
    threefold_cusp_model,
    two_primary_model,
    wick_oracle,
)
from genuslift import cli, rmatrix
from genuslift.cli import run_command
from genuslift.descendent import point_descendent_resummed
from genuslift.genus import skeleton_values
from genuslift.graphs import skeletons
from genuslift.io import format_value
from genuslift.scalars import from_kernel
from oracles import model_to_json

CTX = FloatContext(256)

POINT_TAU = {"Kmax": 2, "t": [["0"], ["0"], ["1/8"]]}
# nonzero t_0 and t_1: the direct intersection sum would be infinite here
SHIFTED_POINT_TAU = {"t": [["3/37"], ["-2/29"], ["1/8"], ["-1/19"]]}


def run_json(argv):
    code, text = run_command(list(argv) + ["--format", "json"])
    return code, json.loads(text)


class TestExitCodes:
    def test_missing_model_file(self):
        code, text = run_command(["validate", "--model", "no-such-file.json"])
        assert code == 1 and "error" in text

    def test_unknown_subcommand(self):
        code, text = run_command(["frobnicate"])
        assert code == 1

    def test_missing_required_flag(self):
        code, text = run_command(["frame", "--model", "point"])
        assert code == 1

    def test_point_dimension_mismatch(self):
        code, text = run_command(["frame", "--model", "point", "--point", "0,1"])
        assert code == 1 and "dimension" in text

    def test_genus_below_two(self):
        code, text = run_command(
            ["genus", "--model", "point", "--point", "1", "--g", "1"]
        )
        assert code == 1 and "genus1-diff" in text

    def test_non_semisimple_point_is_numerical(self):
        code, text = run_command(
            ["genus", "--model", "two-primary:d=1/3", "--point", "0,0", "--g", "2"]
        )
        assert code == 2 and "numerical failure" in text

    def test_nilpotent_origin_is_numerical(self):
        code, text = run_command(
            ["frame", "--model", "threefold-cusp", "--point", "0,0,0"]
        )
        assert code == 2

    def test_residual_breach_is_numerical(self):
        # the graph-sum/oracle residual sits near 1e-81 at 256 bits; an
        # absurd tolerance must trip the breach path, not the success path
        code, _ = run_command(
            ["genus", "--model", "two-primary:d=1/3", "--point", "0,1", "--g", "2",
             "--tolerance", "1/10**200"]
        )
        assert code == 1  # 1/10**200 is not a rational literal
        code, _ = run_command(
            ["genus", "--model", "two-primary:d=1/3", "--point", "0,1", "--g", "2",
             "--tolerance", "1e-200"]
        )
        assert code == 2

    def test_genus_data_residual_breach_is_numerical(self, monkeypatch):
        argv = ["genus", "--model", "two-primary:d=1/2", "--point", "0,1", "--g", "2"]
        code, doc = run_json(argv)
        assert code == 0
        assert set(doc["residuals"]) == {"unitarity", "v_symmetry"}
        monkeypatch.setattr(rmatrix, "unitarity_residual", lambda r, products=None: CTX.num(1))
        code, doc = run_json(argv)
        assert code == 2
        with CTX.guard():
            assert mpmath.mpf(doc["residuals"]["unitarity"]) == 1

    def test_genus_wrong_r_matrix_is_numerical(self, monkeypatch):
        solve = rmatrix.compute_R

        def wrong_r2(frame, order, mode=None):
            r = solve(frame, order, mode)
            r.mats[2][0][0] = r.mats[2][0][0] + 1
            return r

        monkeypatch.setattr(rmatrix, "compute_R", wrong_r2)
        code, doc = run_json(
            ["genus", "--model", "two-primary:d=1/2", "--point", "0,1", "--g", "2"]
        )
        assert code == 2
        with CTX.guard():
            assert mpmath.mpf(doc["residuals"]["unitarity"]) > mpmath.mpf("0.1")
            assert mpmath.mpf(doc["residuals"]["v_symmetry"]) > mpmath.mpf("0.1")

    def test_frame_negative_order(self):
        code, text = run_command(["frame", "--model", "point", "--point", "1", "--order", "-1"])
        assert code == 1 and text.startswith("error:") and "order" in text

    def test_descendent_vanishing_g1_is_numerical(self):
        # t_1 = 1 cancels the dilaton shift of the point model: G_1 = 0
        code, text = run_command(
            ["descendent", "--model", "point", "--tau", '{"t":[["0"],["1"]]}', "--g", "2"]
        )
        assert code == 2 and "G_1" in text and "canonical index 0" in text

    def test_descendent_oracle_gap_is_numerical(self, monkeypatch):
        reference = cli.point_descendent_resummed
        monkeypatch.setattr(
            cli, "point_descendent_resummed", lambda tau, g, ctx: reference(tau, g, ctx) + 1
        )
        code, doc = run_json(
            ["descendent", "--model", "point", "--tau", json.dumps(SHIFTED_POINT_TAU),
             "--g", "2"]
        )
        assert code == 2
        with CTX.guard():
            assert mpmath.mpf(doc["residual"]) > mpmath.mpf("0.5")

    @pytest.mark.parametrize("point", ["0,1", "1/3,1/100000000000"])
    def test_genus_oracle_mismatch_is_numerical(self, monkeypatch, point):
        # the oracle gate is relative to the largest skeleton; at both points
        # (F^2 about -3.8e-6 and -3.8e49) a relative mismatch of 1e-20 fails it
        argv = ["genus", "--model", "two-primary:d=1/2", "--point", point, "--g", "2"]
        code, _ = run_json(argv)
        assert code == 0
        oracle = cli.wick_oracle

        def skewed(*args, **kwargs):
            with CTX.guard():
                return oracle(*args, **kwargs) * (1 + mpmath.mpf("1e-20"))

        monkeypatch.setattr(cli, "wick_oracle", skewed)
        code, doc = run_json(argv)
        assert code == 2
        with CTX.guard():
            relative = mpmath.mpf(doc["residual"]) / mpmath.fabs(mpmath.mpf(doc["F_g"]))
            assert mpmath.mpf("0.9e-20") < relative < mpmath.mpf("1.1e-20")

    @pytest.mark.parametrize("kmax", [[1], None, 1.5])
    def test_non_integer_kmax(self, kmax):
        tau = {"Kmax": kmax, "t": [["0"], ["1/8"]]}
        code, text = run_command(
            ["descendent", "--model", "point", "--tau", json.dumps(tau), "--g", "2"]
        )
        assert code == 1 and text.startswith("error:") and "Kmax" in text

    @pytest.mark.parametrize("key, value", [("unit_index", [0]), ("dimension", 1.5)])
    def test_non_integer_model_field(self, tmp_path, key, value):
        doc = model_to_json(point_model())
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, text = run_command(["validate", "--model", str(path)])
        assert code == 1 and text.startswith("error:") and key in text

    def test_sign_flips_must_be_signs(self):
        # 2 would double sqrt(Delta_0) instead of picking a branch
        code, text = run_command(
            ["frame", "--model", "two-primary:d=1/2", "--point", "1/5,2/3",
             "--sign-flips=2,1"]
        )
        assert code == 1 and text.startswith("error:") and "sign flips" in text

    def test_sign_flips_and_anchors_need_one_entry_per_branch(self, tmp_path):
        code, text = run_command(
            ["frame", "--model", "two-primary:d=1/2", "--point", "1/5,2/3",
             "--sign-flips=1"]
        )
        assert code == 1 and text.startswith("error:") and "sign flips" in text
        doc = model_to_json(two_primary_model(Fraction(1, 2)))
        del doc["euler"]
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        code, text = run_command(
            ["frame", "--model", str(path), "--point", "1/5,2/3", "--anchors=1"]
        )
        assert code == 1 and text.startswith("error:") and "anchors" in text

    def test_non_rational_euler_entry_names_the_field(self, tmp_path):
        doc = model_to_json(two_primary_model(Fraction(1, 2)))
        doc["euler"]["conformal_dimension"] = "x"
        path = tmp_path / "bad-euler.json"
        path.write_text(json.dumps(doc))
        code, text = run_command(["validate", "--model", str(path)])
        assert code == 1 and text.startswith("error:") and "conformal_dimension" in text

    def test_gauge_needs_one_row_per_branch(self):
        code, text = run_command(
            ["genus", "--model", "two-primary:d=1/2", "--point", "1/5,2/3", "--g", "2",
             "--mode", "constants", "--gauge", "[[1]]"]
        )
        assert code == 1 and text.startswith("error:") and "gauge" in text

    @pytest.mark.parametrize("d", ["3/2", "5/3"])
    def test_laurent_descendent_is_out_of_domain(self, d):
        # the calibration is based at the origin, where these potentials
        # have their pole: an out-of-domain request, not a numerical failure
        tau = json.dumps({"t": [["1/3", "1/2"], ["0", "1/16"]]})
        code, text = run_command(
            ["descendent", "--model", f"two-primary:d={d}", "--tau", tau, "--g", "2"]
        )
        assert code == 1
        assert text == (
            f"error: the potential of two-primary d={d} has a pole at the origin t = 0, "
            "where the descendent calibration S_k(0) = 0 is based\n"
        )

    def test_bad_precision_env(self, monkeypatch):
        monkeypatch.setenv("GENUSLIFT_PRECISION", "lots")
        code, text = run_command(["wk", "--g", "0", "--indices", "0,0,0"])
        assert code == 1 and "GENUSLIFT_PRECISION" in text


class TestParser:
    def test_parser_built_once_per_process(self):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert run_command(["wk", "--g", "1", "--indices", "1"]) == (0, "1/24\n")
        assert cli._build_parser.cache_info().misses == 1
        # a usage error after a good call still maps onto exit code 1
        code, text = run_command(["wk", "--g", "1", "--no-such-flag"])
        assert code == 1 and text.startswith("error:")
        assert run_command(["wk", "--g", "1", "--indices", "1"]) == (0, "1/24\n")
        assert cli._build_parser.cache_info().misses == 1
        # another command builds its own parser once, and only its own
        for _ in range(2):
            assert run_command(["selftest"])[0] == 0
        assert cli._build_parser.cache_info().misses == 2
        assert cli._build_parser("selftest").format_usage() == (
            "usage: genuslift [-h] {selftest} ...\n"
        )

    @staticmethod
    def parse(parser, argv, capsys):
        """(exit status or None, printed help, error message) of one parse."""
        try:
            parser.parse_args(cli._attach_negative_values(argv))
            status, error = None, None
        except SystemExit as exc:
            status, error = exc.code, None
        except cli._UsageError as exc:
            status, error = 1, str(exc)
        return status, capsys.readouterr().out, error

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_one_command_parser_reads_like_the_full_one(self, name, capsys):
        full, own = cli._build_parser(None), cli._build_parser(name)
        for tail in (["--help"], [], ["--no-such-flag"], ["--format", "yaml"], ["--g", "x"],
                     ["extra", "--precision", "7"]):
            want = self.parse(full, [name] + tail, capsys)
            assert self.parse(own, [name] + tail, capsys) == want

    def test_help_and_unknown_commands_list_every_command(self, capsys):
        names = ",".join(cli._COMMANDS)
        assert cli.main(["--help"]) == 0
        assert "{" + names + "}" in capsys.readouterr().out
        code, text = run_command(["frobnicate"])
        assert code == 1 and "'frobnicate'" in text and "'hodge-lemma'" in text
        assert run_command([]) == (1, "error: the following arguments are required: command\n")


class TestWk:
    def test_single_correlator_text(self):
        code, text = run_command(["wk", "--g", "1", "--indices", "1"])
        assert code == 0
        assert text == "1/24\n"

    def test_single_correlator_json(self):
        code, doc = run_json(["wk", "--g", "0", "--indices", "0,0,0"])
        assert code == 0
        assert doc == {"genus": 0, "indices": [0, 0, 0], "value": "1"}

    def test_slice(self):
        code, doc = run_json(["wk", "--g", "2", "--n", "1"])
        assert code == 0
        assert doc["values"] == {"4": "1/1152"}

    def test_negative_index_rejected(self):
        code, text = run_command(["wk", "--g", "1", "--indices", "-1"])
        assert code == 1

    def test_needs_query(self):
        code, text = run_command(["wk", "--g", "1"])
        assert code == 1 and "--indices" in text


class TestModelCommands:
    def test_validate_builtin(self):
        code, doc = run_json(["validate", "--model", "two-primary:d=1/3"])
        assert code == 0
        assert doc["dimension"] == 2 and doc["conformal"] is True
        assert doc["unit_residual"] == doc["wdvv_residual"] == doc["euler_residual"] == "0"

    def test_validate_reports_the_euler_residual(self, tmp_path):
        # E = t0 d_0 + t1/2 d_1 at d = 1/2; weight 1/3 on t1 misses the
        # weight 3 - d = 5/2 of F_{001} = 1 by 1 + 1 + 1/3 - 5/2 = -1/6, and
        # the weight 2 - d of the metric g_{01} = 1 by 1 + 1/3 - 3/2 = -1/6
        doc = model_to_json(two_primary_model(Fraction(1, 2)))
        doc["euler"]["matrix"][1][1] = "1/3"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(["validate", "--model", str(path)])
        assert code == 0
        assert report["unit_residual"] == report["wdvv_residual"] == "0"
        assert report["euler_residual"] == "1/6"

    def test_validate_skips_the_residuals_off_the_domain(self, tmp_path):
        # d = 3/2: F = t0^2 t1 / 2 + t1^-3 has its pole at the origin
        code, doc = run_json(["validate", "--model", "two-primary:d=3/2"])
        assert code == 0
        for name in ("unit_residual", "wdvv_residual", "euler_residual"):
            assert doc[name] == "skipped: origin outside the domain"
        plain = model_to_json(two_primary_model(Fraction(1, 2)))
        del plain["euler"]
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(plain))
        code, doc = run_json(["validate", "--model", str(path)])
        assert code == 0 and "euler_residual" not in doc and doc["wdvv_residual"] == "0"

    def test_validate_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(point_model())))
        code, doc = run_json(["validate", "--model", str(path)])
        assert code == 0 and doc["dimension"] == 1

    def test_validate_rejects_malformed(self, tmp_path):
        doc = model_to_json(two_primary_model(Fraction(1, 3)))
        doc["metric"] = [["0", "1"], ["2", "0"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, text = run_command(["validate", "--model", str(path)])
        assert code == 1 and "symmetric" in text

    def test_builtin_two_primary_options(self):
        code, doc = run_json(["validate", "--model", "two-primary:d=1/2:c=3"])
        assert code == 0 and doc["dimension"] == 2
        code, text = run_command(["validate", "--model", "two-primary:d=1"])
        assert code == 0
        code, text = run_command(["validate", "--model", "two-primary:x=1"])
        assert code == 1

    def test_frame_report(self):
        code, doc = run_json(
            ["frame", "--model", "two-primary:d=1/3", "--point", "0,1",
             "--order", "1", "--precision", "128"]
        )
        assert code == 0
        assert doc["precision"]["bits"] == 128
        assert len(doc["u"]) == 2
        assert "jets" in doc

    def test_negative_values_as_separate_arguments(self):
        base = ["frame", "--model", "two-primary:d=1/3"]
        code, spaced = run_json(base + ["--point", "-1/3,3/2", "--sign-flips", "-1,1"])
        assert code == 0
        joined = run_json(base + ["--point=-1/3,3/2", "--sign-flips=-1,1"])[1]
        assert spaced == joined
        plain = run_json(base + ["--point", "-1/3,3/2"])[1]
        assert spaced["sqrt_delta"][1] == plain["sqrt_delta"][1]
        assert spaced["sqrt_delta"][0] != plain["sqrt_delta"][0]

    def test_frame_branch_options(self):
        base = run_json(["frame", "--model", "two-primary:d=1/3", "--point", "0,1"])[1]
        flipped = run_json(
            ["frame", "--model", "two-primary:d=1/3", "--point", "0,1",
             "--permutation", "1,0", "--sign-flips=-1,1"]
        )[1]
        assert base["u"] == [flipped["u"][1], flipped["u"][0]]

    def test_rmatrix_report(self):
        code, doc = run_json(
            ["rmatrix", "--model", "two-primary:d=1/3", "--point", "0,1",
             "--truncation", "5"]
        )
        assert code == 0
        assert doc["order"] == 4 and doc["mode"] == "conformal"
        with CTX.guard():
            assert mpmath.mpf(doc["unitarity_residual"]) < mpmath.mpf("1e-60")

    def test_edges_report(self):
        code, doc = run_json(
            ["edges", "--model", "two-primary:d=1/3", "--point", "0,1",
             "--truncation", "4"]
        )
        assert code == 0
        assert doc["t_cutoff"] == 4
        assert "0,0,0,0" in doc["v"]
        assert set(doc["residuals"]) >= {"unitarity", "v_symmetry"}

    def test_gauge_twist_accepted(self):
        code, doc = run_json(
            ["rmatrix", "--model", "two-primary:d=1/3", "--point", "0,1",
             "--truncation", "4", "--mode", "constants",
             "--gauge", '[["1/7", "0"], ["-1/5", "0"]]']
        )
        assert code == 0 and doc["gauge"] == [["1/7", "0"], ["-1/5", "0"]]

    def test_constants_mode_prints_exact_zeros(self):
        # the odd diagonal constants vanish exactly: "0", never "0.0"
        code, doc = run_json(
            ["rmatrix", "--model", "two-primary:d=1/2", "--point", "2/7,3/5",
             "--mode", "constants"]
        )
        assert code == 0
        zeros = {key for key, value in doc["r"].items() if value in ("0", "0.0")}
        assert zeros == {"1,0,0", "1,1,1", "3,0,0", "3,1,1"}
        assert all(doc["r"][key] == "0" for key in zeros)


class TestModelCache:
    """Built-in models and their calibrations are built once per process;
    a model document is read again on every command."""

    def test_builtin_spec_gives_one_model(self):
        tol = Fraction(1, 10**30)
        first = cli._load_model("two-primary:d=1/2", tol)
        assert cli._load_model("two-primary:d=1/2", tol) is first
        assert cli._load_model("point", tol) is cli._load_model("point", tol)
        distinct = [
            cli._load_model(spec, tol)
            for spec in ("point", "threefold-cusp", "two-primary:d=1/2", "two-primary:d=1/3",
                         "two-primary:d=1/2:c=3")
        ]
        assert len({id(model) for model in distinct}) == len(distinct)

    def test_one_calibration_per_order(self, monkeypatch):
        orders = []

        def counting(model, order=6, **kwargs):
            orders.append(order)
            return calibrate(model, order=order, **kwargs)

        calibrate = cli.compute_calibration
        monkeypatch.setattr(cli, "compute_calibration", counting)
        cli._builtin_calibration.cache_clear()
        argv = ["descendent", "--model", "point", "--g", "2", "--tau"]
        for tau in (POINT_TAU, POINT_TAU, {"t": [["1/9"], ["1/7"]]}, {"t": [["1/5"], ["-1/7"]]}):
            code, _ = run_command(argv + [json.dumps(tau)])
            assert code == 0
        assert orders == [2, 1]

    def test_edited_document_is_read_again(self, tmp_path):
        path = tmp_path / "model.json"
        doc = model_to_json(two_primary_model(Fraction(1, 2)))
        path.write_text(json.dumps(doc))
        code, first = run_json(["validate", "--model", str(path)])
        assert code == 0 and first["name"] == "two-primary d=1/2"
        doc["name"] = "edited"
        doc["euler"]["matrix"][1][1] = "1/3"
        path.write_text(json.dumps(doc))
        code, second = run_json(["validate", "--model", str(path)])
        assert code == 0
        assert second["name"] == "edited" and second["euler_residual"] == "1/6"
        assert first["euler_residual"] == "0"


class TestGenusCommands:
    def test_genus2_vanishing_exit0(self):
        code, doc = run_json(
            ["genus", "--model", "two-primary:d=1/3", "--point", "0,1", "--g", "2"]
        )
        assert code == 0
        with CTX.guard():
            assert mpmath.fabs(mpmath.mpmathify(doc["F_g"])) < mpmath.mpf("1e-60")
            assert mpmath.mpf(doc["residual"]) < mpmath.mpf("1e-60")
        # one entry per skeleton, keyed by its description
        assert len(doc["graphs"]) == 7
        assert set(doc["graphs"]) == {sk.describe() for sk in skeletons(2)}
        with CTX.guard():
            entries = [mpmath.mpmathify(v) for v in doc["graphs"].values()]
            largest = max(mpmath.fabs(v) for v in entries)
            gap = mpmath.fabs(mpmath.fsum(entries) - mpmath.mpmathify(doc["F_g"]))
            assert gap < mpmath.mpf("1e-70") * largest

    def test_genus2_nonvanishing_value(self):
        code, doc = run_json(
            ["genus", "--model", "two-primary:d=1/2", "--point", "0,1", "--g", "2"]
        )
        assert code == 0
        with CTX.guard():
            assert mpmath.fabs(mpmath.mpmathify(doc["F_g"])) > mpmath.mpf("1e-10")

    def test_genus_negative_point(self):
        argv = ["genus", "--model", "two-primary:d=1/2", "--g", "2"]
        code, doc = run_json(argv + ["--point", "-1/3,3/2"])
        assert code == 0 and doc["point"] == ["-1/3", "3/2"]
        assert run_json(argv + ["--point=-1/3,3/2"]) == (code, doc)

    def test_genus1_diff(self):
        code, doc = run_json(
            ["genus1-diff", "--model", "two-primary:d=1", "--point", "0,0"]
        )
        assert code == 0
        with CTX.guard():
            # exponential direction: dF^1 = (0, -1/24)
            assert mpmath.fabs(mpmath.mpmathify(doc["components"][0])) < mpmath.mpf("1e-60")
            assert mpmath.fabs(
                mpmath.mpmathify(doc["components"][1]) + mpmath.mpf(1) / 24
            ) < mpmath.mpf("1e-60")

    def test_genus1_closedness_flag(self):
        code, doc = run_json(
            ["genus1-diff", "--model", "two-primary:d=1", "--point", "0,0",
             "--closedness", "--closedness-tol", "1e-18"]
        )
        assert code == 0
        with CTX.guard():
            assert mpmath.mpf(doc["closedness_residual"]) < mpmath.mpf("1e-18")

    def test_genus1_closedness_tol_breach_is_numerical(self):
        # the cusp's one-form is closed: its residual at this point is
        # rounding noise, about 4e-73
        argv = ["genus1-diff", "--model", "threefold-cusp", "--point", "1/7,2/5,1/3",
                "--closedness", "--closedness-tol"]
        code, doc = run_json(argv + ["1e-80"])
        assert code == cli.EXIT_NUMERICAL and "closedness_residual" in doc
        assert run_json(argv + ["1e-10"])[0] == 0

    def test_zero_step_is_validation_error(self):
        code, text = run_command(
            ["genus1-diff", "--model", "two-primary:d=1/2", "--point", "1/3,2/5",
             "--closedness", "--step", "0"]
        )
        assert code == 1 and "step must be nonzero" in text

    def test_descendent_point_model(self, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(POINT_TAU))
        code, doc = run_json(
            ["descendent", "--model", "point", "--tau", str(path), "--g", "2"]
        )
        assert code == 0
        assert doc["Kmax"] == 2
        with CTX.guard():
            assert mpmath.mpf(doc["criticality_residual"]) < mpmath.mpf("1e-60")
            assert mpmath.mpf(doc["residual"]) < mpmath.mpf("1e-60")

    def test_descendent_point_model_shifted(self):
        code, doc = run_json(
            ["descendent", "--model", "point", "--tau", json.dumps(SHIFTED_POINT_TAU),
             "--g", "3"]
        )
        assert code == 0
        with CTX.guard():
            assert mpmath.mpf(doc["residual"]) < mpmath.mpf("1e-60")

    def test_descendent_inline_tau(self):
        code, doc = run_json(
            ["descendent", "--model", "point", "--tau", json.dumps(POINT_TAU),
             "--g", "2"]
        )
        assert code == 0

    def test_descendent_dimension_mismatch(self):
        code, text = run_command(
            ["descendent", "--model", "two-primary:d=1/3",
             "--tau", json.dumps(POINT_TAU), "--g", "2"]
        )
        assert code == 1 and "dimension" in text


class TestHodgeLemma:
    def test_window_is_exactly_zero(self):
        code, doc = run_json(
            ["hodge-lemma", "--degrees", "1,1", "--genus-max", "2", "--q-degree", "1"]
        )
        assert code == 0
        assert doc["residual_terms"] == 0 and doc["residual_max"] == "0"

    def test_bad_degrees(self):
        code, text = run_command(
            ["hodge-lemma", "--degrees", "1,x", "--genus-max", "2", "--q-degree", "1"]
        )
        assert code == 1


class TestSelftest:
    def test_passes(self):
        code, text = run_command(["selftest"])
        assert code == 0
        lines = text.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_json_shape(self):
        code, doc = run_json(["selftest"])
        assert code == 0 and doc["passed"] is True
        assert all(entry["passed"] for entry in doc["checks"].values())


class TestDeterminism:
    def test_reports_byte_stable(self):
        argv = ["genus", "--model", "two-primary:d=1/3", "--point", "0,1",
                "--g", "2", "--format", "json"]
        assert run_command(argv) == run_command(argv)

    def test_env_precision_default(self, monkeypatch):
        monkeypatch.setenv("GENUSLIFT_PRECISION", "128")
        code, doc = run_json(["frame", "--model", "point", "--point", "1/2"])
        assert code == 0 and doc["precision"]["bits"] == 128

    def test_console_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "genuslift.cli", "wk", "--g", "1", "--indices", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1/24\n"

    def test_module_run_is_quiet(self):
        # the package must not import cli before runpy runs it as __main__
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "genuslift.cli", "wk", "--g", "1",
             "--indices", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1/24\n"
        assert proc.stderr == ""

    def test_errors_go_to_stderr(self):
        proc = subprocess.run(
            [sys.executable, "-m", "genuslift.cli", "validate", "--model", "missing.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error" in proc.stderr


class TestOnePath:
    """The CLI prints what the library computes with its defaults, and the
    selftest's intersection table stays its own."""

    def test_reports_are_the_library_values(self, monkeypatch):
        monkeypatch.delenv("GENUSLIFT_PRECISION", raising=False)
        ctx = RunConfig().context()

        def printed(report):
            return format_value(ctx.chop(report.value), ctx), {
                k: format_value(ctx.chop(v), ctx) for k, v in report.contribution_map().items()
            }

        code, doc = run_json(
            ["genus", "--model", "two-primary:d=1/2", "--point", "2/7,3/5", "--g", "3"]
        )
        assert code == 0
        point = (Fraction(2, 7), Fraction(3, 5))
        report = genus_potential(two_primary_model(Fraction(1, 2)), point, 3, ctx)
        assert (doc["F_g"], doc["graphs"]) == printed(report)

        code, doc = run_json(
            ["descendent", "--model", "point", "--tau", json.dumps(SHIFTED_POINT_TAU), "--g", "2"]
        )
        assert code == 0
        tau = parse_tau(json.dumps(SHIFTED_POINT_TAU))
        calibration = compute_calibration(point_model())
        report = descendent_potential(point_model(), calibration, tau, 2, ctx)
        assert (doc["F_g"], doc["graphs"]) == printed(report)

    def test_selftest_table_is_its_own(self):
        code, _ = run_command(
            ["genus", "--model", "two-primary:d=1/2", "--point", "2/7,3/5", "--g", "3"]
        )
        assert code == 0
        code, text = run_command(["selftest"])
        assert code == 0
        (line,) = [x for x in text.splitlines() if "string-dilaton-identities" in x]
        assert line.endswith("0 failures over 19 entries")


GENUS_CASES = [
    ("two-primary:d=1/2", two_primary_model(Fraction(1, 2)), "2/7,3/5", 3),
    ("two-primary:d=3/2", two_primary_model(Fraction(3, 2)), "2/7,3/5", 3),
    ("threefold-cusp", threefold_cusp_model(), "1/3,1/2,-1/2", 2),
    # skeleton values up to about 1e50, where the size is not 1
    ("two-primary:d=1/2", two_primary_model(Fraction(1, 2)), "1/3,1/100000000000", 2),
]
DESCENDENT_CASES = [
    ("point", point_model(), SHIFTED_POINT_TAU, 3),
    ("two-primary:d=1/2", two_primary_model(Fraction(1, 2)),
     {"t": [["1/17", "3/17"], ["1/33", "-1/35"], ["-1/39", "1/41"]]}, 2),
]


def _separately_printed(ctx, x, chop=True):
    """``format_value(ctx.chop(x), ctx)`` with each call under its own guard."""
    return format_value(ctx.chop(x) if chop else x, ctx)


def _reports(argv, doc):
    """(exit code, JSON report, text report) of ``argv`` and the JSON and
    text renderings of ``doc``."""
    json_code, json_text = run_command(argv + ["--format", "json"])
    text_code, text = run_command(argv + ["--format", "text"])
    assert json_code == text_code
    return (json_code, json_text, text), (render_report(doc, "json"), render_report(doc, "text"))


class TestOneGuardPerReport:
    """A command crosses into ``mpmath.workprec`` once per report, not once
    per printed value, and prints, value by value, what a per-value guard
    printed: each number formatted as ``format_value(ctx.chop(v), ctx)``
    on its own, the genus gate sized by the largest |skeleton value|."""

    @staticmethod
    def entries(monkeypatch, argv) -> int:
        entered = []
        workprec = mpmath.workprec

        def counting(n):
            entered.append(n)
            return workprec(n)

        with monkeypatch.context() as patch:
            patch.setattr(mpmath, "workprec", counting)
            code, _ = run_command(argv)
        assert code == 0
        return len(entered)

    @pytest.mark.parametrize("d", ["1/2", "1/3", "1", "3/2", "5/3"])
    def test_warm_genus_op_enters_workprec_a_few_times(self, monkeypatch, d):
        argv = ["genus", "--model", f"two-primary:d={d}", "--g", "3", "--format", "json"]
        run_command(argv + ["--point", "2/7,3/5"])
        assert self.entries(monkeypatch, argv + ["--point", "-3/7,5/9"]) <= 16

    @pytest.mark.parametrize("spec, g, tau", [
        ("point", 2, DESCENDENT_CASES[0][2]),
        ("point", 3, DESCENDENT_CASES[0][2]),
        ("two-primary:d=1/2", 2, DESCENDENT_CASES[1][2]),
    ])
    def test_warm_descendent_op_enters_workprec_a_few_times(self, monkeypatch, spec, g, tau):
        argv = ["descendent", "--model", spec, "--g", str(g), "--format", "json"]
        run_command(argv + ["--tau", json.dumps(tau)])
        shifted = {"t": [[str(Fraction(x) + Fraction(1, 97)) for x in row] for row in tau["t"]]}
        assert self.entries(monkeypatch, argv + ["--tau", json.dumps(shifted)]) <= 24

    @pytest.mark.parametrize(
        "spec, model, point, g", GENUS_CASES, ids=[f"{c[0]}-{c[2]}" for c in GENUS_CASES]
    )
    def test_genus_report_is_the_value_by_value_report(self, monkeypatch, spec, model, point, g):
        monkeypatch.delenv("GENUSLIFT_PRECISION", raising=False)
        ctx = RunConfig().context()
        coords = tuple(Fraction(x) for x in point.split(","))
        report = genus_potential(model, coords, g, ctx, order=3 * g - 3)
        oracle = wick_oracle(report.data, g)
        with ctx.guard():
            residual = ctx.abs(report.value - oracle)
        size = max([ctx.num(1)] + [ctx.abs(v) for _, v in report.contributions])
        with mpmath.workprec(ctx.prec_bits):
            largest = max(mpmath.fabs(from_kernel(v)) for _, v in skeleton_values(report.data, g))
            assert size == max(1, largest)
            gates = [residual / size, *report.data.residuals.values()]
        doc = {
            "precision": {"bits": ctx.prec_bits, "digits": ctx.digits},
            "genus": g,
            "point": [str(x) for x in coords],
            "F_g": _separately_printed(ctx, report.value),
            "graphs": {
                k: _separately_printed(ctx, v) for k, v in sorted(report.contribution_map().items())
            },
            "oracle": _separately_printed(ctx, oracle),
            "residual": _separately_printed(ctx, residual, chop=False),
            "residuals": {
                k: _separately_printed(ctx, v, chop=False)
                for k, v in sorted(report.data.residuals.items())
            },
        }
        # the gates the command hands to _breach, bit for bit: residual /
        # size divided at working precision, then the data's residuals
        passed, breach = [], cli._breach

        def keeping(ctx, *residuals, tol=None):
            passed.append(residuals)
            return breach(ctx, *residuals, tol=tol)

        monkeypatch.setattr(cli, "_breach", keeping)
        printed, expected = _reports(["genus", "--model", spec, "--point", point, "--g", str(g)], doc)
        assert printed[1:] == expected
        assert [[r._mpf_ for r in p] for p in passed] == [[r._mpf_ for r in gates]] * 2
        assert printed[0] == (2 if any(ctx.abs(r) > ctx.tol for r in gates) else 0)

    @pytest.mark.parametrize(
        "spec, model, tau, g", DESCENDENT_CASES, ids=[c[0] for c in DESCENDENT_CASES]
    )
    def test_descendent_report_is_the_value_by_value_report(self, monkeypatch, spec, model, tau, g):
        monkeypatch.delenv("GENUSLIFT_PRECISION", raising=False)
        ctx = RunConfig().context()
        point = parse_tau(json.dumps(tau))
        calibration = compute_calibration(model, order=max(point.kmax, 1))
        report = descendent_potential(model, calibration, point, g, ctx, order=3 * g - 3)
        residuals = report.data.residuals
        doc = {
            "precision": {"bits": ctx.prec_bits, "digits": ctx.digits},
            "genus": g,
            "Kmax": point.kmax,
            "critical_point": [_separately_printed(ctx, x) for x in report.frame.point],
            "criticality_residual": _separately_printed(ctx, residuals["criticality"], chop=False),
            "F_g": _separately_printed(ctx, report.value),
            "graphs": {
                k: _separately_printed(ctx, v) for k, v in sorted(report.contribution_map().items())
            },
            "residuals": {
                k: _separately_printed(ctx, v, chop=False) for k, v in sorted(residuals.items())
            },
        }
        gates = list(residuals.values())
        if model.dimension == 1:
            oracle = point_descendent_resummed(point, g, ctx)
            with ctx.guard():
                residual = ctx.abs(report.value - oracle)
            doc["oracle"] = _separately_printed(ctx, oracle, chop=False)
            doc["residual"] = _separately_printed(ctx, residual, chop=False)
            gates.append(residual)
        printed, expected = _reports(
            ["descendent", "--model", spec, "--tau", json.dumps(tau), "--g", str(g)], doc
        )
        assert printed[1:] == expected
        assert printed[0] == (2 if any(ctx.abs(r) > ctx.tol for r in gates) else 0)


class TestPublicApi:
    def test_import_builds_no_structure(self):
        # skeletons, plans, programs, table entries and parsers are built
        # on first use, never at import
        code = (
            "import genuslift, genuslift.cli\n"
            "from genuslift import cli, genus, graphs, intersection\n"
            "table = intersection._DEFAULT_TABLE\n"
            "print(graphs._skeletons.cache_info().currsize, genus.walk_plan.cache_info().currsize,"
            " genus.graph_sum_program.cache_info().currsize, len(table), len(table._tails),"
            " cli._build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the table holds its two seeds only
        assert proc.stdout.split() == ["0", "0", "0", "2", "0", "0"]

    def test_all_is_the_user_facing_pipeline(self):
        import genuslift

        assert sorted(genuslift.__all__) == [
            "CurvePoint",
            "DegenerateFrameError",
            "EulerData",
            "FloatContext",
            "FrobeniusModel",
            "GenusReport",
            "NonSemisimpleError",
            "Rational",
            "RunConfig",
            "SchemaError",
            "TruncationWarning",
            "UnitAxiomWarning",
            "cli",
            "compute_calibration",
            "descendent_potential",
            "genus1_one_form",
            "genus_potential",
            "io",
            "main",
            "parse_model",
            "parse_tau",
            "point_model",
            "render_report",
            "run_command",
            "threefold_cusp_model",
            "two_primary_model",
            "wick_oracle",
        ]
        for name in genuslift.__all__:
            assert getattr(genuslift, name) is not None
        # what the benchmark worker reaches through the package
        assert genuslift.cli.run_command is run_command
        assert genuslift.io.render_report is genuslift.render_report
        assert genuslift.FloatContext is FloatContext
