from .coverage import ORDERINGS, CoverageCurve, coverage_curve
from .matrix import ResultMatrix, or_aggregate, success_rate
from .render import render_matrix, table_name

__all__ = [
    "ORDERINGS",
    "CoverageCurve",
    "coverage_curve",
    "ResultMatrix",
    "or_aggregate",
    "success_rate",
    "render_matrix",
    "table_name",
]
