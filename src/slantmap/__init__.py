"""Numerical analysis of Riemannian maps into almost Hermitian charts."""

from .charts import (ChartError, ChartFields, ChartManifold,
                     check_almost_hermitian, check_kahler, christoffel)
from .expressions import (Expression, ExpressionDomainError,
                          ExpressionSyntaxError, Jet2, eval_jet2,
                          parse_expression, to_text)
from .linalg import (InnerProduct, MetricError, SubspaceBasis, TangentSplit,
                     gram_schmidt, metric_adjoint, project, split_tangent)
from .loader import AnalysisSettings, LoadedMap, MapSpecError, load_map_spec
from .maps import (MapDefinitionError, MapSpec, PointFrame, PointOperators,
                   differential, is_riemannian_map, map_point, point_frame,
                   second_fundamental_form, tension_field)
from .report import Report, render_report, run_analysis, sample_points
from .result import CheckResult
from .slant import (SlantReport, adapted_frame, classify_slant,
                    point_operators, q_operator, slant_angle)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSettings", "ChartError", "ChartFields", "ChartManifold",
    "CheckResult",
    "Expression", "ExpressionDomainError", "ExpressionSyntaxError",
    "InnerProduct", "Jet2", "LoadedMap", "MapDefinitionError", "MapSpec",
    "MapSpecError", "MetricError", "PointFrame", "PointOperators", "Report",
    "SlantReport", "SubspaceBasis", "TangentSplit", "adapted_frame",
    "check_almost_hermitian", "check_kahler", "christoffel",
    "classify_slant", "differential", "eval_jet2", "gram_schmidt",
    "is_riemannian_map", "load_map_spec", "map_point", "metric_adjoint",
    "parse_expression", "point_frame", "point_operators", "project",
    "q_operator", "render_report", "run_analysis", "sample_points",
    "second_fundamental_form", "slant_angle", "split_tangent",
    "tension_field", "to_text",
]
