"""Inequality and decomposition checks for warped-product CR-immersions.

The main evaluator bounds half the squared norm of the second fundamental
form from below by ambient tangent-plane curvature sums minus the warped
Laplacian term, and diagnoses the equality case: leaf self-pairings of the
form vanish, fiber self-pairings vanish, and the factors are respectively
totally geodesic / totally umbilical with the immersion minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .riemann import plane_sum
from .structures import AlmostComplexStructure
from .subman import ImmersionBlock, umbilicity

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
    """One bound evaluated at each point of a block, with equality
    diagnostics: each field an array over the points."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray
    equality: np.ndarray
    diagnostics: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Curvature sums over adapted frames
# ---------------------------------------------------------------------------


def ambient_curvature_sums(block: ImmersionBlock) -> dict[str, np.ndarray]:
    """Scalar-curvature sums (B,) of the ambient over the whole tangent frame
    and each declared block, from the plane values of its curvature in the
    frame."""
    n, decl = block.im.dim, block.im.warped
    n1 = n if decl is None else decl.n1
    r_amb = block.frame_curvatures[1]
    return {"tangent": plane_sum(r_amb, combinations(range(n), 2)),
            "leaf": plane_sum(r_amb, combinations(range(n1), 2)),
            "fiber": plane_sum(r_amb, combinations(range(n1, n), 2))}


def _form_norms(block: ImmersionBlock, part: slice) -> np.ndarray:
    """Norms (B,) of the form's components on a diagonal block of the frame."""
    return np.sqrt(np.sum(block.frames.coeffs[:, :, part, part] ** 2, axis=(1, 2, 3)))


# ---------------------------------------------------------------------------
# Scalar-curvature decomposition
# ---------------------------------------------------------------------------


def scalar_decomposition_residual(block: ImmersionBlock) -> np.ndarray:
    """Defect (B,) of the split of the intrinsic scalar curvature into the
    warped Laplacian term, per-block form products and ambient block sums."""
    geom, n = block.warped.geom, block.im.dim
    tau = plane_sum(block.frame_curvatures[0], combinations(range(n), 2))
    sums = ambient_curvature_sums(block)
    sc, c = block.scalars, block.frames.coeffs

    def products(idx):  # sum_r sum_{a<b in idx} (h^r_aa h^r_bb - (h^r_ab)^2), pair by pair
        return sum((np.sum(c[:, :, a, a] * c[:, :, b, b] - c[:, :, a, b] ** 2, axis=1)
                    for a, b in combinations(idx, 2)), 0.0)
    rhs = (geom.n2 * sc.lap_f / sc.f_value + products(range(geom.n1))
           + products(range(geom.n1, n)) + sums["leaf"] + sums["fiber"])
    return abs(tau - rhs)


# ---------------------------------------------------------------------------
# Block minimality and the fiber lemma
# ---------------------------------------------------------------------------


def leaf_mean_curvature(block: ImmersionBlock) -> dict[str, np.ndarray]:
    """Norms (B,) of the leaf block's partial mean curvature; on a contact
    ambient the declared leaf block contains the Reeb direction."""
    if block.im.warped is None:
        raise ConfigurationError("leaf-minimality check needs a warped declaration")
    return {"leaf-mean-curvature": block.mean_norms[:, 1]}


def fiber_lemma_residuals(block: ImmersionBlock, tol: float) -> dict:
    """The fiber lemma's residuals over the block: fiber-minimal plus fiber
    umbilical (in the ambient) forces the fiber self-pairings of the form to
    vanish.  The hypotheses are tested at tol, and the conclusion is given
    only at the points where both hold."""
    if block.im.warped is None:
        raise ConfigurationError("fiber lemma check needs a warped declaration")
    n1, f = block.im.warped.n1, block.frames
    hyp_min = block.mean_norms[:, 2]
    hyp_umb = umbilicity(f.g_ambient, f.h_frame[:, n1:, n1:], f.means[:, 2])
    tested = (hyp_min < tol) & (hyp_umb.max(axis=(1, 2)) < tol)
    return {"fiber-minimal-hypothesis": hyp_min, "fiber-umbilical-hypothesis": hyp_umb,
            "fiber-geodesic-conclusion": _form_norms(block, slice(n1, None))[tested],
            "fiber-lemma-tested": tested}


# ---------------------------------------------------------------------------
# Main inequality
# ---------------------------------------------------------------------------


def _kahler_gate(block: ImmersionBlock) -> None:
    s = block.im.structure
    if not isinstance(s, AlmostComplexStructure):
        raise ConfigurationError("main inequality needs a complex ambient structure")
    resid = s.parallel_residual(block.tensors)
    k = int(np.argmax(resid > KAHLER_GATE_TOL))  # the block's first non-parallel point
    if resid[k] > KAHLER_GATE_TOL:
        raise ConfigurationError(f"ambient structure is not parallel at "
                                 f"{block.components[0][k]} (residual {resid[k]:.3e})")


def main_inequality(block: ImmersionBlock, tol: float = SLACK_TOL_FLAT) -> InequalityResult:
    """Half the squared form norm against the curvature-sum bound at each
    point of the block, with equality diagnostics.

    The ambient must carry a parallel complex structure, checked pointwise.
    """
    geom = block.warped.geom
    _kahler_gate(block)
    sums = ambient_curvature_sums(block)
    sc = block.scalars

    lhs = 0.5 * np.sum(block.frames.coeffs**2, axis=(1, 2, 3))
    rhs = sums["tangent"] - sums["leaf"] - sums["fiber"] - geom.n2 * sc.lap_f / sc.f_value

    n1, slack = geom.n1, lhs - rhs
    diagnostics = {
        "leaf_form_norm": _form_norms(block, slice(None, n1)),
        "fiber_form_norm": _form_norms(block, slice(n1, None)),
        "mean_norm": block.mean_norms[:, 0],
    }
    equality = abs(slack) < tol
    for v in diagnostics.values():
        equality &= v < tol
    return InequalityResult(lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -tol,
                            equality=equality, diagnostics=diagnostics)
