"""Command-line front end.

Subcommands mirror the pipeline stages: ``validate`` checks a model
document, ``frame`` dumps canonical coordinates and frames, ``rmatrix`` and
``edges`` expose the R-matrix and its edge/tail tables, ``genus`` runs the
stable-graph sum against the operator-exponential oracle, ``genus1-diff``
evaluates the genus-1 one-form, ``descendent`` evaluates a higher-genus
descendent potential at a curve-space point, ``wk`` queries psi-class
intersection numbers, ``hodge-lemma`` verifies the flow/closed-form
identity, and ``selftest`` runs a fixed battery of cross-checks.

Exit codes: 0 on success, 1 on validation failure (bad flags, malformed
documents, out-of-domain requests), 2 on numerical failure (non-convergence
or an internal residual above tolerance).  Reports are byte-stable at fixed
configuration: every table is emitted with sorted keys and floats are
printed at the configured precision.

The default precision (in bits) can be set through the environment
variable ``GENUSLIFT_PRECISION``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .descendent import (
    Calibration,
    CurvePoint,
    compute_calibration,
    descendent_potential,
    point_descendent_resummed,
)
from .frame import canonical_frame
from .frobenius import FrobeniusModel, point_model, threefold_cusp_model, two_primary_model
from .genus import (
    frame_and_R,
    genus1_closedness_residual,
    genus1_one_form,
    genus_potential,
    wick_oracle,
)
from .hodge import HodgeParameters, HodgeTruncation, hodge_lemma_residual
from .intersection import IntersectionTable, _ascending_tuples, psi_intersection
from .io import (
    RunConfig,
    SchemaError,
    edge_data_to_json,
    frame_to_json,
    format_value,
    parse_model,
    parse_tau,
    precision_annotation,
    render_report,
    rseries_to_json,
)
from .rmatrix import edge_tail_data, unitarity_residual
from .scalars import EXACT, FloatContext, Rational, format_rational

PRECISION_ENV = "GENUSLIFT_PRECISION"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so usage mistakes
    map onto the validation exit code."""

    def error(self, message):
        raise _UsageError(message)


# -- argument parsing helpers ---------------------------------------------------


def _parse_rationals(text: str, what: str) -> tuple:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{what} must be a comma-separated list of rationals: {text!r}")


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise SchemaError(f"{what} must be a comma-separated list of integers: {text!r}")


def _parse_gauge(text: str) -> tuple:
    try:
        rows = json.loads(text)
        return tuple(tuple(Fraction(str(a)) for a in row) for row in rows)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(f"gauge must be a JSON array of arrays of rationals: {text!r}")


def _builtin(spec: str) -> bool:
    return spec in ("point", "threefold-cusp") or spec.startswith("two-primary")


def _load_model(spec: str, tolerance: Rational) -> FrobeniusModel:
    """A built-in name ("point", "two-primary:d=1/3[:c=1]", "threefold-cusp")
    or a path to a model document.  Built-ins are built once per process;
    a document is read again on every call, so an edit between two
    commands shows."""
    if _builtin(spec):
        return _builtin_model(spec)
    path = Path(spec)
    if not path.exists():
        raise SchemaError(f"model {spec!r} is neither a built-in name nor a file")
    return parse_model(path.read_text(), tolerance=tolerance)


@functools.cache
def _builtin_model(spec: str) -> FrobeniusModel:
    """The built-in model ``spec`` names, built once per process."""
    if spec == "point":
        return point_model()
    if spec == "threefold-cusp":
        return threefold_cusp_model()
    d, c = None, Fraction(1)
    for part in spec.split(":")[1:]:
        key, _, value = part.partition("=")
        if key == "d":
            d = Fraction(value)
        elif key == "c":
            c = Fraction(value)
        else:
            raise SchemaError(f"unknown two-primary option {key!r}")
    if d is None:
        raise SchemaError("two-primary needs d, e.g. two-primary:d=1/3")
    try:
        return two_primary_model(d, c)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


@functools.cache
def _builtin_calibration(spec: str, order: int) -> Calibration:
    """The calibration of a built-in model through S_order, built once per
    process."""
    return _origin_calibration(_builtin_model(spec), order)


def _origin_calibration(model: FrobeniusModel, order: int) -> Calibration:
    """The calibration through S_order, normalized by S_k(0) = 0.  A
    potential with its pole at the origin (a Laurent potential) has none,
    which is an out-of-domain request."""
    try:
        model.potential.evaluate((Fraction(0),) * model.dimension, EXACT)
    except ZeroDivisionError:
        raise SchemaError(
            f"the potential of {model.name} has a pole at the origin t = 0, where the "
            "descendent calibration S_k(0) = 0 is based"
        ) from None
    return compute_calibration(model, order=order)


def _load_tau(spec: str):
    if spec.lstrip().startswith("{"):
        return parse_tau(spec)
    path = Path(spec)
    if not path.exists():
        raise SchemaError(f"curve point {spec!r} is neither inline JSON nor a file")
    return parse_tau(path.read_text())


def _point(args, model: FrobeniusModel) -> tuple:
    pt = _parse_rationals(args.point, "point")
    if len(pt) != model.dimension:
        raise SchemaError(
            f"point has {len(pt)} coordinates, model has dimension {model.dimension}"
        )
    return pt


def _config(args, genus: Optional[int] = None) -> RunConfig:
    precision = args.precision
    if precision is None:
        env = os.environ.get(PRECISION_ENV)
        try:
            precision = int(env) if env else 256
        except ValueError:
            raise SchemaError(f"{PRECISION_ENV} must be an integer, not {env!r}")
    try:
        tolerance = Fraction(args.tolerance)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"tolerance must be rational or decimal: {args.tolerance!r}")
    try:
        return RunConfig(
            precision_bits=precision,
            tolerance=tolerance,
            truncation=getattr(args, "truncation", None),
            genus=genus,
            gauge=_parse_gauge(args.gauge) if getattr(args, "gauge", None) else None,
            anchors=_parse_rationals(args.anchors, "anchors")
            if getattr(args, "anchors", None)
            else None,
            output=args.format,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _breach(ctx: FloatContext, *residuals, tol: str | None = None) -> bool:
    """Whether some residual exceeds ``tol`` (rational text), by default the
    context's tolerance; None residuals are skipped."""
    with ctx.guard():
        bound = ctx.tol if tol is None else ctx.num(Fraction(tol))
        return any(r is not None and ctx.abs(r) > bound for r in residuals)


# -- subcommand handlers ----------------------------------------------------------
# each returns (exit code, report text)


def _cmd_validate(args):
    config = _config(args)
    model = _load_model(args.model, config.tolerance)
    origin = (Fraction(0),) * model.dimension
    doc = {
        "name": model.name,
        "dimension": model.dimension,
        "unit_index": model.unit_index,
        "conformal": model.euler is not None,
        "parameters": {k: format_rational(v) for k, v in sorted(model.parameters.items())},
    }
    # the axiom residuals at the origin, exact
    checks = [("unit_residual", model.unit_residual), ("wdvv_residual", model.wdvv_residual)]
    if model.euler is not None:
        checks.append(("euler_residual", model.euler_residual))
    for name, residual in checks:
        try:
            doc[name] = format_rational(residual(origin, EXACT))
        except (ArithmeticError, ValueError):
            doc[name] = "skipped: origin outside the domain"
    return EXIT_OK, render_report(doc, config.output)


def _cmd_frame(args):
    config = _config(args)
    ctx = config.context()
    model = _load_model(args.model, config.tolerance)
    frame = canonical_frame(
        model,
        _point(args, model),
        ctx,
        order=args.order,
        permutation=_parse_ints(args.permutation, "permutation") if args.permutation else None,
        sign_flips=_parse_ints(args.sign_flips, "sign flips") if args.sign_flips else None,
        anchors=config.anchors,
    )
    return EXIT_OK, render_report(frame_to_json(frame), config.output)


def _r_series(args, config, ctx):
    model = _load_model(args.model, config.tolerance)
    order = (config.truncation or 4) - 1
    _, r = frame_and_R(model, _point(args, model), ctx, order, mode=args.mode, gauge=config.gauge)
    return r


def _cmd_rmatrix(args):
    config = _config(args)
    ctx = config.context()
    r = _r_series(args, config, ctx)
    unitarity = unitarity_residual(r)
    doc = rseries_to_json(r, ctx)
    doc["unitarity_residual"] = format_value(unitarity, ctx)
    code = EXIT_NUMERICAL if _breach(ctx, unitarity, r.cross_residual) else EXIT_OK
    return code, render_report(doc, config.output)


def _cmd_edges(args):
    config = _config(args)
    ctx = config.context()
    r = _r_series(args, config, ctx)
    data = edge_tail_data(r)
    doc = edge_data_to_json(data, ctx)
    code = EXIT_NUMERICAL if _breach(ctx, *data.residuals.values()) else EXIT_OK
    return code, render_report(doc, config.output)


def _cmd_genus(args):
    config = _config(args, genus=args.g)
    if args.g < 2:
        raise SchemaError("the graph sum starts at genus 2; use genus1-diff below that")
    ctx = config.context()
    model = _load_model(args.model, config.tolerance)
    point = _point(args, model)
    report = genus_potential(
        model, point, args.g, ctx, order=config.r_order, mode=args.mode, gauge=config.gauge
    )
    # the data keep the graph sum's vertex correlators, almost every one
    # the oracle needs, and its edge weights, all of them
    oracle = wick_oracle(report.data, args.g)
    contributions = report.contribution_map()
    with ctx.guard():
        residual = ctx.abs(report.value - oracle)
        # the sum and the oracle carry rounding relative to the largest term
        size = max([ctx.num(1)] + [ctx.abs(v) for v in contributions.values()])
    doc = {
        "precision": precision_annotation(ctx),
        "genus": args.g,
        "point": [format_rational(x) for x in point],
        "F_g": format_value(ctx.chop(report.value), ctx),
        # one entry per skeleton, its decorated graphs summed
        "graphs": {
            k: format_value(ctx.chop(v), ctx)
            for k, v in sorted(contributions.items())
        },
        "oracle": format_value(ctx.chop(oracle), ctx),
        "residual": format_value(residual, ctx),
        "residuals": {
            k: format_value(v, ctx) for k, v in sorted(report.data.residuals.items())
        },
    }
    gates = [residual / size, *report.data.residuals.values()]
    code = EXIT_NUMERICAL if _breach(ctx, *gates) else EXIT_OK
    return code, render_report(doc, config.output)


def _cmd_genus1_diff(args):
    config = _config(args)
    ctx = config.context()
    model = _load_model(args.model, config.tolerance)
    point = _point(args, model)
    components = genus1_one_form(model, point, ctx)
    doc = {
        "precision": precision_annotation(ctx),
        "point": [format_rational(x) for x in point],
        "components": [format_value(c, ctx) for c in components],
    }
    code = EXIT_OK
    if args.closedness:
        residual = genus1_closedness_residual(model, point, ctx, step=Fraction(args.step))
        doc["closedness_residual"] = format_value(residual, ctx)
        doc["closedness_step"] = format_rational(Fraction(args.step))
        if args.closedness_tol is not None and _breach(ctx, residual, tol=args.closedness_tol):
            code = EXIT_NUMERICAL
    return code, render_report(doc, config.output)


def _cmd_descendent(args):
    config = _config(args, genus=args.g)
    if args.g < 2:
        raise SchemaError("the descendent graph sum starts at genus 2")
    ctx = config.context()
    model = _load_model(args.model, config.tolerance)
    tau = _load_tau(args.tau)
    if tau.dimension != model.dimension:
        raise SchemaError(
            f"curve point has dimension {tau.dimension}, model has {model.dimension}"
        )
    # the bold data read S_0 .. S_K only
    order = max(tau.kmax, 1)
    if _builtin(args.model):
        calibration = _builtin_calibration(args.model, order)
    else:
        calibration = _origin_calibration(model, order)
    report = descendent_potential(
        model, calibration, tau, args.g, ctx, order=config.r_order, gauge=config.gauge
    )
    # the report's frame sits at the critical point, and its bold data
    # carry the residuals
    residuals = report.data.residuals
    doc = {
        "precision": precision_annotation(ctx),
        "genus": args.g,
        "Kmax": tau.kmax,
        "critical_point": [format_value(ctx.chop(x), ctx) for x in report.frame.point],
        "criticality_residual": format_value(residuals["criticality"], ctx),
        "F_g": format_value(ctx.chop(report.value), ctx),
        # one entry per skeleton, its decorated graphs summed
        "graphs": {
            k: format_value(ctx.chop(v), ctx)
            for k, v in sorted(report.contribution_map().items())
        },
        "residuals": {k: format_value(v, ctx) for k, v in sorted(residuals.items())},
    }
    gates = list(residuals.values())
    if model.dimension == 1:
        oracle = point_descendent_resummed(tau, args.g, ctx)
        with ctx.guard():
            residual = ctx.abs(report.value - oracle)
        doc["oracle"] = format_value(oracle, ctx)
        doc["residual"] = format_value(residual, ctx)
        gates.append(residual)
    breach = _breach(ctx, *gates)
    return (EXIT_NUMERICAL if breach else EXIT_OK), render_report(doc, config.output)


def _cmd_wk(args):
    config = _config(args)
    if args.indices is not None:
        ks = _parse_ints(args.indices, "indices")
        if any(k < 0 for k in ks):
            raise SchemaError("psi exponents must be nonnegative")
        value = psi_intersection(args.g, ks)
        if config.output == "text":
            return EXIT_OK, format_rational(value) + "\n"
        doc = {
            "genus": args.g,
            "indices": list(ks),
            "value": format_rational(value),
        }
        return EXIT_OK, render_report(doc, "json")
    if args.n is None:
        raise SchemaError("wk needs --indices for one correlator or --n for a table slice")
    if args.n < 1:
        raise SchemaError("a table slice needs at least one insertion")
    total = 3 * args.g - 3 + args.n
    if total < 0:
        raise SchemaError(f"genus {args.g} with {args.n} insertions has no stable moduli")
    values = {}
    for ks in _ascending_tuples(args.n, total, 0):
        values[",".join(str(k) for k in ks)] = format_rational(psi_intersection(args.g, ks))
    doc = {"genus": args.g, "insertions": args.n, "dimension": total, "values": values}
    return EXIT_OK, render_report(doc, config.output)


def _cmd_hodge_lemma(args):
    config = _config(args)
    degrees = _parse_ints(args.degrees, "degrees")
    s = HodgeParameters(degrees)
    truncation = HodgeTruncation(args.genus_max, args.q_degree, args.q_index)
    residual = hodge_lemma_residual(s, truncation)
    worst = max((abs(v) for v in residual.c.values()), default=Fraction(0))
    doc = {
        "degrees": list(degrees),
        "genus_max": args.genus_max,
        "q_degree": args.q_degree,
        "q_index": truncation.resolved_index,
        "residual_terms": len(residual.c),
        "residual_max": format_rational(worst),
    }
    code = EXIT_NUMERICAL if residual.c else EXIT_OK
    return code, render_report(doc, config.output)


# -- selftest ----------------------------------------------------------------------


def _selftest_checks(ctx: FloatContext):
    """Fixed cross-check battery; yields (name, residual-or-None, detail).

    A check passes when its residual is at most ctx.tol (None means the
    check is exact and already verified)."""
    # a table of its own: the entry count it reports must not depend on
    # what ran earlier in the process
    table = IntersectionTable()

    value = table.value(1, (1,))
    yield (
        "psi-intersection-anchor",
        None if value == Fraction(1, 24) else Fraction(1),
        f"<tau_1>_1 = {format_rational(value)}",
    )

    table.value(3, (1, 1, 7))  # populate through genus 3
    failures = table.identity_failures()
    yield (
        "string-dilaton-identities",
        None if not failures else Fraction(1),
        f"{len(failures)} failures over {len(table)} entries",
    )

    model = two_primary_model(Fraction(1, 3))
    point = (Fraction(0), Fraction(1))
    report = genus_potential(model, point, 2, ctx)
    with ctx.guard():
        yield ("genus2-vanishing-d-one-third", ctx.abs(report.value), "F^2 on the d=1/3 model")
        oracle = wick_oracle(report.data, 2)
        yield (
            "graph-sum-vs-operator-oracle",
            ctx.abs(report.value - oracle),
            "genus 2, two-primary d=1/3",
        )
        unit = unitarity_residual(frame_and_R(model, point, ctx, 5)[1])
    yield ("r-matrix-unitarity", unit, "two-primary d=1/3, order 5")

    tau = CurvePoint(((Fraction(0),), (Fraction(0),), (Fraction(1, 8),)))
    calibration = compute_calibration(point_model(), order=7)
    direct = point_descendent_resummed(tau, 2, ctx)
    dreport = descendent_potential(point_model(), calibration, tau, 2, ctx)
    with ctx.guard():
        yield (
            "descendent-vs-direct-sum",
            ctx.abs(dreport.value - direct),
            "one-dimensional model, genus 2",
        )

    residual = hodge_lemma_residual(HodgeParameters((1,)), HodgeTruncation(2, 1))
    yield (
        "hodge-lemma-window",
        None if not residual.c else Fraction(1),
        f"{len(residual.c)} residual terms",
    )


def _cmd_selftest(args):
    config = _config(args)
    ctx = config.context()
    lines = []
    checks = {}
    failed = 0
    for name, residual, detail in _selftest_checks(ctx):
        if residual is None:
            ok = True
            shown = "exact"
        else:
            with ctx.guard():
                ok = ctx.abs(residual) <= ctx.tol
            shown = format_value(residual, ctx)
        checks[name] = {"passed": ok, "residual": shown, "detail": detail}
        failed += 0 if ok else 1
        lines.append(f"{'ok' if ok else 'FAIL'} {name} ({shown}) {detail}")
    code = EXIT_OK if failed == 0 else EXIT_NUMERICAL
    if config.output == "json":
        doc = {"checks": checks, "passed": failed == 0}
        return code, render_report(doc, "json")
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return code, "\n".join(lines) + "\n"


# -- parser -------------------------------------------------------------------------


_MODEL = (("--model",), {"required": True})
_POINT = (("--point",), {"required": True})
_G = (("--g",), {"type": int, "required": True})
_MODE = (("--mode",), {"choices": ("conformal", "constants"), "default": None})
_R_OPTIONS = [
    _MODEL,
    _POINT,
    (("--truncation",), {"type": int, "default": None,
                         "help": "deepest tail index K; R is solved through z^(K-1)"}),
    _MODE,
    (("--gauge",), {"default": None, "help": "JSON rows of odd twist exponents"}),
]

# name: (handler, help, arguments as (flags, keywords)), in the order the
# top-level help lists them
_COMMANDS = {
    "validate": (_cmd_validate, "validate a model document", [_MODEL]),
    "frame": (_cmd_frame, "canonical coordinates and frame at a point", [
        _MODEL,
        _POINT,
        (("--order",), {"type": int, "default": 0, "help": "jet order"}),
        (("--permutation",), {"default": None, "help": "branch relabeling, e.g. 1,0"}),
        (("--sign-flips",), {"dest": "sign_flips", "default": None,
                             "help": "sqrt(Delta) branch signs, e.g. -1,1"}),
        (("--anchors",), {"default": None,
                          "help": "integration constants for u on non-conformal models"}),
    ]),
    "rmatrix": (_cmd_rmatrix, "R-matrix constants at a point", _R_OPTIONS),
    "edges": (_cmd_edges, "edge coefficients V and tail values T", _R_OPTIONS),
    "genus": (_cmd_genus, "higher-genus potential by the stable-graph sum", [
        _MODEL,
        _POINT,
        _G,
        (("--truncation",), {"type": int, "default": None}),
        _MODE,
        (("--gauge",), {"default": None}),
    ]),
    "genus1-diff": (_cmd_genus1_diff, "genus-1 one-form dF^1 at a point", [
        _MODEL,
        _POINT,
        (("--closedness",), {"action": "store_true",
                             "help": "also estimate the curl by central differences"}),
        (("--step",), {"default": "1/1000000", "help": "finite-difference step"}),
        (("--closedness-tol",), {"dest": "closedness_tol", "default": None,
                                 "help": "fail (exit 2) when the curl exceeds this bound"}),
    ]),
    "descendent": (_cmd_descendent, "descendent potential at a curve-space point", [
        _MODEL,
        (("--tau",), {"required": True, "help": "curve point document (file or inline JSON)"}),
        _G,
        (("--truncation",), {"type": int, "default": None}),
        (("--gauge",), {"default": None}),
    ]),
    "wk": (_cmd_wk, "psi-class intersection numbers", [
        _G,
        (("--indices",), {"default": None, "help": "psi exponents, e.g. 0,0,1"}),
        (("--n",), {"type": int, "default": None,
                    "help": "dump the full n-insertion slice on the dimension constraint"}),
    ]),
    "hodge-lemma": (_cmd_hodge_lemma, "flow vs closed-form residual window", [
        (("--degrees",), {"required": True, "help": "retained coupling degrees, e.g. 1,1"}),
        (("--genus-max",), {"dest": "genus_max", "type": int, "required": True}),
        (("--q-degree",), {"dest": "q_degree", "type": int, "required": True}),
        (("--q-index",), {"dest": "q_index", "type": int, "default": None}),
    ]),
    "selftest": (_cmd_selftest, "run the built-in cross-check battery", []),
}


@functools.cache
def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser with the subcommand ``command`` only, or with every
    subcommand for None; built once per argument per process, and
    parse_args returns a fresh namespace per call.  A command's own
    messages and help read the same from either."""
    parser = _Parser(prog="genuslift", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help=f"mantissa bits (default: ${PRECISION_ENV} or 256)")
    common.add_argument("--tolerance", default="1e-30",
                        help="residual tolerance, rational or decimal")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
    return parser


# a value with a leading minus sign, e.g. "-1/3,3/2" or "-1,1"
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: Sequence[str]) -> list:
    """Join ``--opt -1/3,3/2`` into ``--opt=-1/3,3/2``.

    argparse reads a separate argument with a leading minus sign as a flag
    unless it is a plain number such as -1, so coordinate lists, sign flips
    and anchors that start negative would be rejected."""
    out: list = []
    for arg in argv:
        if out and _NEGATIVE_VALUE.match(arg) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run_command(argv: Sequence[str]) -> tuple:
    """Parse and execute one command; returns (exit code, report text)."""
    argv = _attach_negative_values(argv)
    # a known command needs its own parser only; anything else (no
    # command, an option first, an unknown name) goes to the full one,
    # whose help and errors list every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except _UsageError as exc:
        return EXIT_VALIDATION, f"error: {exc}\n"
    try:
        return args.handler(args)
    except (SchemaError, OSError) as exc:
        return EXIT_VALIDATION, f"error: {exc}\n"
    except ValueError as exc:
        return EXIT_VALIDATION, f"error: {exc}\n"
    except ArithmeticError as exc:
        return EXIT_NUMERICAL, f"numerical failure: {exc}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code, text = run_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
