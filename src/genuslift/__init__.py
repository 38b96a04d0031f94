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
"""

from .scalars import FloatContext, Rational
from .series import Caps, TruncatedSeries, singular_quotient
from .expressions import Expression
from .frobenius import (
    EulerData,
    FrobeniusModel,
    point_model,
    threefold_cusp_model,
    two_primary_model,
)
from .frame import (
    CanonicalFrame,
    DegenerateFrameError,
    NonSemisimpleError,
    canonical_frame,
    frame_invariant_residuals,
)
from .rmatrix import (
    EdgeTailData,
    RSeries,
    bernoulli_constants,
    bernoulli_numbers,
    compute_R,
    compute_T,
    compute_V,
    edge_tail_data,
    homogeneous_R,
    twist_R,
    unitarity_residual,
)
from .graphs import StableGraph, enumerate_graphs
from .intersection import IntersectionTable, psi_intersection, vertex_correlator
from .genus import (
    GenusReport,
    evaluate_graph,
    genus1_closedness_residual,
    genus1_difference_quadrature,
    genus1_differential,
    genus1_one_form,
    genus_potential,
    two_primary_genus2_reference,
    wick_oracle,
)
from .hodge import (
    HodgeParameters,
    HodgeTruncation,
    LinearForm,
    hodge_lambda,
    hodge_lemma_residual,
    lemma_components,
    tau_series,
)
from .io import (
    RunConfig,
    SchemaError,
    TruncationWarning,
    UnitAxiomWarning,
    edge_data_to_json,
    frame_to_json,
    parse_model,
    parse_tau,
    render_report,
    rseries_to_json,
    series_to_json,
    tau_to_json,
)
from .cli import main, run_command
from .descendent import (
    Calibration,
    CurvePoint,
    DescendentFrame,
    Genus0Descendents,
    Genus1Routes,
    bold_quantities,
    compute_calibration,
    critical_inverse_jacobian,
    critical_point,
    critical_point_formal,
    descendent_frame,
    descendent_potential,
    genus0_descendents,
    genus0_formal,
    genus1_descendent_routes,
    point_descendent_reference,
)

__all__ = [
    "FloatContext",
    "Rational",
    "Caps",
    "TruncatedSeries",
    "singular_quotient",
    "Expression",
    "EulerData",
    "FrobeniusModel",
    "point_model",
    "threefold_cusp_model",
    "two_primary_model",
    "CanonicalFrame",
    "DegenerateFrameError",
    "NonSemisimpleError",
    "canonical_frame",
    "frame_invariant_residuals",
    "EdgeTailData",
    "RSeries",
    "bernoulli_constants",
    "bernoulli_numbers",
    "compute_R",
    "homogeneous_R",
    "compute_T",
    "compute_V",
    "edge_tail_data",
    "twist_R",
    "unitarity_residual",
    "StableGraph",
    "enumerate_graphs",
    "IntersectionTable",
    "psi_intersection",
    "vertex_correlator",
    "GenusReport",
    "evaluate_graph",
    "genus1_closedness_residual",
    "genus1_difference_quadrature",
    "genus1_differential",
    "genus1_one_form",
    "genus_potential",
    "two_primary_genus2_reference",
    "wick_oracle",
    "HodgeParameters",
    "HodgeTruncation",
    "LinearForm",
    "hodge_lambda",
    "hodge_lemma_residual",
    "lemma_components",
    "tau_series",
    "RunConfig",
    "SchemaError",
    "TruncationWarning",
    "UnitAxiomWarning",
    "edge_data_to_json",
    "frame_to_json",
    "parse_model",
    "parse_tau",
    "render_report",
    "rseries_to_json",
    "series_to_json",
    "tau_to_json",
    "main",
    "run_command",
    "Calibration",
    "CurvePoint",
    "DescendentFrame",
    "Genus0Descendents",
    "Genus1Routes",
    "bold_quantities",
    "compute_calibration",
    "critical_inverse_jacobian",
    "critical_point",
    "critical_point_formal",
    "descendent_frame",
    "descendent_potential",
    "genus0_descendents",
    "genus0_formal",
    "genus1_descendent_routes",
    "point_descendent_reference",
]

__version__ = "0.1.0"
