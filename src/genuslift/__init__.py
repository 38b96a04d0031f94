"""Higher-genus and descendent potentials of semisimple Frobenius manifolds.

The package starts from genus-0 data (a flat metric and a potential whose
third derivatives give a semisimple Frobenius multiplication) and produces:

* canonical coordinates, normalized frames, and their jets at a point;
* the asymptotic fundamental solution R(z) of the flat connection, with
  edge coefficients V and tail values T;
* psi-class intersection numbers and Hodge-twisted descendent series;
* higher-genus potentials F^g as finite sums over decorated stable graphs,
  cross-checked by an operator-exponential (Wick) oracle;
* genus-0 and higher-genus descendent potentials via a shifted evaluation
  point (the critical point of a quadratic functional) and twisted frames.

Everything runs over exact rationals where possible and over fixed-precision
mpmath floats where eigenvalues and square roots force it.

The names below are the user-facing pipeline; each layer's own functions
live in its module (``genuslift.frame``, ``genuslift.rmatrix``, ...).
"""

from . import io
from .descendent import CurvePoint, compute_calibration, descendent_potential
from .frame import DegenerateFrameError, NonSemisimpleError
from .frobenius import (
    EulerData,
    FrobeniusModel,
    point_model,
    threefold_cusp_model,
    two_primary_model,
)
from .genus import GenusReport, genus1_one_form, genus_potential, wick_oracle
from .io import (
    RunConfig,
    SchemaError,
    TruncationWarning,
    UnitAxiomWarning,
    parse_model,
    parse_tau,
    render_report,
)
from .scalars import FloatContext, Rational

__all__ = [
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

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use: imported here, ``python -m genuslift.cli``
    # would find it in sys.modules before running it as __main__ and warn
    if name in ("cli", "main", "run_command"):
        from importlib import import_module

        cli = import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
