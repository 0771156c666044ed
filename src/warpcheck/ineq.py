"""Inequality and decomposition checks for warped-product CR-immersions.

The main evaluator bounds half the squared norm of the second fundamental
form from below by ambient tangent-plane curvature sums minus the warped
Laplacian term, and diagnoses the equality case: leaf self-pairings of the
form vanish, fiber self-pairings vanish, and the factors are respectively
totally geodesic / totally umbilical with the immersion minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .report import nan_max
from .structures import AlmostComplexStructure, SpaceFormModel, model_curvature
from .subman import SFFData, umbilicity, warped_split

SLACK_TOL_FLAT = 1e-8    # jet-exact flat ambients
KAHLER_GATE_TOL = 1e-6   # parallel-J residual a main inequality accepts


# ---------------------------------------------------------------------------
# Pure right-hand-side formulas (shared by evaluators and reduction tests)
# ---------------------------------------------------------------------------


def space_form_rhs(c: float, n1: int, n2: int, grad_lnf_sq: float,
                   lap_lnf: float) -> float:
    """Complex-space-form bound for half the squared form norm, with the
    curvature term obtained from the tangent-plane sum reduction
    (the difference of ambient scalar-curvature sums equals c*n1*n2/4)."""
    return c * n1 * n2 / 4.0 + n2 * grad_lnf_sq - n2 * lap_lnf


def generalized_rhs(c_rk: float, gamma: float, n1: int, n2: int,
                    grad_lnf_sq: float, lap_lnf: float) -> float:
    """Generalized-complex-space-form bound for the full squared form norm;
    reduces to twice :func:`space_form_rhs` when gamma vanishes."""
    return 2.0 * n2 * (grad_lnf_sq - lap_lnf + n1 * (c_rk + 3.0 * gamma) / 4.0)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class InequalityResult:
    """One bound evaluated at one point, with equality diagnostics."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    equality: bool
    diagnostics: dict[str, float]


# ---------------------------------------------------------------------------
# Curvature sums over adapted frames
# ---------------------------------------------------------------------------


def _pair_sum(k: np.ndarray, idx: Sequence[int]) -> float:
    return float(sum(k[i, j] for pos, i in enumerate(idx) for j in idx[pos + 1:]))


def ambient_curvature_sums(sff: SFFData,
                           model: SpaceFormModel | None = None) -> dict[str, float]:
    """Scalar-curvature sums of the ambient over the whole tangent frame and
    each declared block; from the chart curvature, or from a closed-form
    model sharing the ambient chart.

    Only plane values over the orthonormal frame enter the sums, so just the
    (i, j, j, i) contractions are evaluated.
    """
    n = sff.n
    n1 = sff.n1 if sff.n1 is not None else n
    cols = sff.tangent_ambient
    plane = np.zeros((n, n))
    if model is None:
        rf = sff.ambient_frame_curvature
        for i in range(n):
            for j in range(n):
                plane[i, j] = rf[i, j, j, i]
    else:
        if model.dim != sff.im.ambient_dim:
            raise ConfigurationError("model dimension does not match the ambient chart")
        for i in range(n):
            for j in range(i + 1, n):
                plane[i, j] = plane[j, i] = model_curvature(
                    model, cols[:, i], cols[:, j], cols[:, j], cols[:, i])
    return {
        "tangent": _pair_sum(plane, list(range(n))),
        "leaf": _pair_sum(plane, list(range(n1))),
        "fiber": _pair_sum(plane, list(range(n1, n))),
    }


# ---------------------------------------------------------------------------
# Scalar-curvature decomposition
# ---------------------------------------------------------------------------


def _block_products(coeffs: np.ndarray, idx: Sequence[int]) -> float:
    """sum_r sum_{a<b in idx} (h^r_aa h^r_bb - (h^r_ab)^2)."""
    total = 0.0
    for pos, a in enumerate(idx):
        for b in idx[pos + 1:]:
            total += float(np.sum(coeffs[:, a, a] * coeffs[:, b, b]
                                  - coeffs[:, a, b] ** 2))
    return total


def scalar_decomposition_residual(sff: SFFData) -> float:
    """Defect of the split of the intrinsic scalar curvature into the warped
    Laplacian term, per-block form products and ambient block sums."""
    p = warped_split(sff)
    n1, n = p.geom.n1, sff.n
    tau = sff.induced.scalar_curvature()
    sums = ambient_curvature_sums(sff)
    sc = p.scalars
    rhs = (p.geom.n2 * sc.lap_f / sc.f_value
           + _block_products(sff.coeffs, list(range(n1)))
           + _block_products(sff.coeffs, list(range(n1, n)))
           + sums["leaf"] + sums["fiber"])
    return float(abs(tau - rhs))


# ---------------------------------------------------------------------------
# Block minimality and the fiber lemma
# ---------------------------------------------------------------------------


def leaf_mean_curvature(sff: SFFData) -> dict[str, float]:
    """Norm of the leaf block's partial mean curvature at one point; on a
    contact ambient the declared leaf block contains the Reeb direction."""
    if sff.im.warped is None:
        raise ConfigurationError("leaf-minimality check needs a warped declaration")
    return {"leaf-mean-curvature": sff.vec_norm(sff.mean_leaf)}


def fiber_lemma_residuals(sff: SFFData, tol: float) -> dict:
    """The fiber lemma's residuals at one point: fiber-minimal plus fiber
    umbilical (in the ambient) forces the fiber self-pairings of the form to
    vanish.  The hypotheses are tested at tol, and the conclusion is given
    only where both hold."""
    if sff.im.warped is None:
        raise ConfigurationError("fiber lemma check needs a warped declaration")
    n1 = sff.n1
    hyp_min = sff.vec_norm(sff.mean_fiber)
    hyp_umb = reduce(nan_max, umbilicity(sff.g_ambient, sff.h_frame[n1:, n1:],
                                         sff.mean_fiber).ravel().tolist())
    tested = hyp_min < tol and hyp_umb < tol
    conc = math.sqrt(float(np.sum(sff.coeffs[:, n1:, n1:] ** 2)))
    return {"fiber-minimal-hypothesis": hyp_min, "fiber-umbilical-hypothesis": hyp_umb,
            "fiber-geodesic-conclusion": [conc] if tested else [],
            "fiber-lemma-tested": bool(tested)}


# ---------------------------------------------------------------------------
# Main inequality
# ---------------------------------------------------------------------------


def _kahler_gate(sff: SFFData) -> None:
    s = sff.im.structure
    if not isinstance(s, AlmostComplexStructure):
        raise ConfigurationError(
            "main inequality needs a complex ambient structure or a curvature model")
    resid = s.parallel_residual(sff.tensors)
    if resid > KAHLER_GATE_TOL:
        raise ConfigurationError(
            f"ambient structure is not parallel at {sff.ambient_point} (residual {resid:.3e})")


def main_inequality(sff: SFFData, tol: float = SLACK_TOL_FLAT,
                    model: SpaceFormModel | None = None) -> InequalityResult:
    """Half the squared form norm against the curvature-sum bound, with
    equality diagnostics.

    The ambient must carry a parallel complex structure (checked pointwise),
    or a closed-form curvature model must be supplied for the ambient chart.
    """
    p = warped_split(sff)
    if model is None:
        _kahler_gate(sff)
    sums = ambient_curvature_sums(sff, model=model)
    sc = p.scalars

    lhs = 0.5 * sff.h_norm_sq()
    rhs = (sums["tangent"] - sums["leaf"] - sums["fiber"]
           - p.geom.n2 * sc.lap_f / sc.f_value)

    n1, slack = sff.n1, lhs - rhs
    diagnostics = {
        "leaf_form_norm": math.sqrt(float(np.sum(sff.coeffs[:, :n1, :n1] ** 2))),
        "fiber_form_norm": math.sqrt(float(np.sum(sff.coeffs[:, n1:, n1:] ** 2))),
        "mean_norm": sff.vec_norm(sff.mean),
    }
    equality = abs(slack) < tol and all(v < tol for v in diagnostics.values())
    return InequalityResult(lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -tol,
                            equality=equality, diagnostics=diagnostics)
