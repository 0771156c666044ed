"""warpcheck: pointwise numerical verification of curvature identities and
inequalities for warped-product CR-submanifolds, from chart-level data.

The computation stack: order-3 jet arithmetic (:mod:`warpcheck.jets`) feeds
an expression DSL (:mod:`warpcheck.expr`), which defines chart metrics and
immersions; intrinsic invariants come from :mod:`warpcheck.riemann`, warped
products from :mod:`warpcheck.warped`, ambient structures and space-form
curvature models from :mod:`warpcheck.structures`, extrinsic geometry from
:mod:`warpcheck.subman`, and the inequality evaluators from
:mod:`warpcheck.ineq`.  Examples live in :mod:`warpcheck.gallery`;
:mod:`warpcheck.cli` is the command-line front door, the one module that
turns checked values into report records, and holds the examples'
validation gate.
"""

__version__ = "0.1.0"

from .cli import validate
from .errors import (ConfigurationError, DegenerateMetricError,
                     DegeneratePlaneError, ImmersionDegenerateError,
                     InvalidNormalError, InvalidWarpingError, JetDomainError,
                     WarpcheckError)
from .expr import ParseError, eval_expr, parse, pretty
from .gallery import builtin_names, load_builtin
from .ineq import InequalityResult, main_inequality, scalar_decomposition_residual
from .jets import DomainBox, ExcludedBall, Jet3, fd_partial, jet_const, jet_var
from .report import CheckRecord, CheckReport
from .riemann import Curvature4, MetricField, christoffel, curvature_components, laplacian
from .structures import (AlmostComplexStructure, AlmostContactStructure,
                         SpaceFormModel, StructureBlock, complex_space_form,
                         cosymplectic_space_form, generalized_complex_space_form,
                         kenmotsu_space_form, model_curvature, phi_sectional,
                         sasakian_space_form, structure_class_residuals)
from .subman import (Immersion, ImmersionBlock, SFFData, WarpedDecl, fold_sff,
                     gauss_residual_max, scalar_identity_residual, second_fundamental_form,
                     shape_operator)
from .warped import WarpedMetric, assemble, mixed_sectional_sum, warping_identity_residual

__all__ = [
    "__version__",
    # errors
    "WarpcheckError", "JetDomainError", "DegenerateMetricError",
    "DegeneratePlaneError", "ImmersionDegenerateError", "InvalidWarpingError",
    "InvalidNormalError", "ConfigurationError", "ParseError",
    # jets and DSL
    "Jet3", "DomainBox", "ExcludedBall", "jet_const", "jet_var",
    "fd_partial", "parse", "eval_expr", "pretty",
    # intrinsic geometry
    "MetricField", "Curvature4", "christoffel", "curvature_components", "laplacian",
    # warped products
    "WarpedMetric", "assemble", "mixed_sectional_sum", "warping_identity_residual",
    # structures and models
    "AlmostComplexStructure", "AlmostContactStructure", "StructureBlock", "SpaceFormModel",
    "complex_space_form", "generalized_complex_space_form", "sasakian_space_form",
    "kenmotsu_space_form", "cosymplectic_space_form", "model_curvature",
    "phi_sectional", "structure_class_residuals",
    # submanifolds
    "Immersion", "ImmersionBlock", "WarpedDecl", "SFFData", "fold_sff",
    "second_fundamental_form", "shape_operator", "gauss_residual_max",
    "scalar_identity_residual",
    # inequalities
    "InequalityResult", "main_inequality", "scalar_decomposition_residual",
    # gallery and reports
    "builtin_names", "load_builtin", "validate", "CheckRecord", "CheckReport",
]
