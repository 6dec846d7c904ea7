"""Solvers and benchmarks for smooth convex-concave saddle-point problems.

Highlights: tangent-residual geometry on boxes and their products, first- and
second-order tensor steps, certified extragradient, accelerated inexact
proximal-point with restarts, the triple-loop minimax solver, hard-instance
floor experiments, and a benchmark CLI (console script ``saddlebench``).
"""

from .geometry import Box, Product
from .minimax import MinimaxConfig, SolveReport, baseline_eg_solve, \
    derive_parameters, solve
from .problems import SaddleProblem, from_config, hard_instance, \
    make_bilinear, make_power, make_quadratic

__all__ = [
    "Box", "Product",
    "MinimaxConfig", "SolveReport", "baseline_eg_solve",
    "derive_parameters", "solve",
    "SaddleProblem", "from_config", "hard_instance",
    "make_bilinear", "make_power", "make_quadratic",
]

__version__ = "0.1.0"
