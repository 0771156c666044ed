"""Inequality evaluators: the main curvature-sum bound, its space-form
specializations, block-minimality results and the scalar split."""

import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from helpers import (block_at, box_points, chen_cr_immersion, perturbed_chen_immersion,
                     sasakian_cr_immersion, sphere_warped_immersion,
                     torus_immersion, trivial_product_immersion)

from warpcheck.cli import records
from warpcheck.errors import ConfigurationError
from warpcheck.ineq import (fiber_lemma_residuals, generalized_rhs, leaf_mean_curvature,
                            main_inequality, scalar_decomposition_residual, space_form_rhs)
from warpcheck.report import CheckReport
from warpcheck.structures import complex_space_form, model_curvature
from warpcheck.subman import ImmersionBlock, fold_sff, warped_geometry
from warpcheck.warped import WarpedPoint, leaf_scalars


# ---------------------------------------------------------------------------
# Scalar-curvature decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("builder", [chen_cr_immersion, trivial_product_immersion,
                                     sphere_warped_immersion],
                         ids=lambda b: b.__name__)
def test_scalar_decomposition_residual_small(builder):
    im = builder()
    residuals = scalar_decomposition_residual(block_at(im, *box_points(im.domain, 4, seed=21)))
    assert (residuals < 1e-7).all(), (im.name, residuals)


def test_scalar_decomposition_trivial_product_exact():
    im = trivial_product_immersion()
    assert scalar_decomposition_residual(block_at(im, [0.3, -0.2]))[0] < 1e-14


# ---------------------------------------------------------------------------
# Fiber lemma and leaf minimality
# ---------------------------------------------------------------------------


def fiber_lemma(im, points, tol=1e-7) -> CheckReport:
    """The fiber-lemma records of the points, as the report makes them."""
    return records(fold_sff(im, points, partial(fiber_lemma_residuals, tol=tol)),
                   len(points), ("inequalities",), {"cr": tol})


def test_fiber_lemma_on_chen_cr():
    im = chen_cr_immersion()
    rep = fiber_lemma(im, box_points(im.domain, 4, seed=23))
    assert rep["fiber-geodesic-conclusion"].passed
    assert "4/4" in rep["fiber-geodesic-conclusion"].note


def test_fiber_lemma_vacuous_on_geodesic_plane():
    rep = fiber_lemma(trivial_product_immersion(), [np.array([0.1, 0.4])])
    assert rep["fiber-geodesic-conclusion"].passed
    assert rep["fiber-minimal-hypothesis"].worst < 1e-14


def test_fiber_lemma_hypothesis_fails_on_torus():
    points = [np.array([0.5, 1.0]), np.array([2.5, 3.0]), np.array([0.9, 5.0])]
    rep = fiber_lemma(torus_immersion(), points)
    assert rep["fiber-minimal-hypothesis"].worst > 0.1
    assert "0/3" in rep["fiber-geodesic-conclusion"].note


def test_leaf_minimality_chen_cr():
    im = chen_cr_immersion()
    points = box_points(im.domain, 4, seed=25)
    assert fold_sff(im, points, leaf_mean_curvature)["leaf-mean-curvature"] < 1e-8


def test_leaf_minimality_sasakian_cr():
    im = sasakian_cr_immersion()
    points = box_points(im.domain, 4, seed=27)
    assert fold_sff(im, points, leaf_mean_curvature)["leaf-mean-curvature"] < 1e-7


def test_leaf_minimality_trivial_plane():
    im = trivial_product_immersion()
    worst = fold_sff(im, [np.array([0.2, 0.2])], leaf_mean_curvature)
    assert worst["leaf-mean-curvature"] < 1e-14


def test_leaf_minimality_needs_declaration():
    from helpers import sphere_immersion
    with pytest.raises(ConfigurationError):
        fold_sff(sphere_immersion(), [np.array([1.0, 1.0])], leaf_mean_curvature)


# ---------------------------------------------------------------------------
# Main inequality
# ---------------------------------------------------------------------------


def test_main_inequality_equality_on_chen_cr():
    im = chen_cr_immersion()
    points = np.array(box_points(im.domain, 5, seed=29))
    r = main_inequality(block_at(im, *points))
    npt.assert_allclose(r.lhs, 1.0 / np.hypot(points[:, 0], points[:, 1])**2, rtol=1e-10)
    assert (abs(r.slack) < 1e-8).all()
    assert r.equality.all()
    assert (r.diagnostics["leaf_form_norm"] < 1e-8).all()
    assert (r.diagnostics["fiber_form_norm"] < 1e-8).all()
    assert (r.diagnostics["mean_norm"] < 1e-8).all()


def test_main_inequality_trivial_product_exact_zero():
    r = main_inequality(block_at(trivial_product_immersion(), [0.4, 0.9]))
    assert r.lhs[0] == 0.0 and r.rhs[0] == 0.0 and r.slack[0] == 0.0
    assert r.equality[0] and r.passed[0]


def test_main_inequality_strict_on_perturbed():
    im = perturbed_chen_immersion()
    r = main_inequality(block_at(im, *box_points(im.domain, 6, seed=31)))
    assert (r.slack > 1e-3).all(), r.slack
    assert not r.equality.any()


def test_main_inequality_requires_complex_ambient():
    im = sasakian_cr_immersion()
    with pytest.raises(ConfigurationError):
        main_inequality(block_at(im, [1.0, 1.0, 0.0, 0.5]))


def model_rhs(block: ImmersionBlock, model) -> float:
    """The main inequality's bound at the block's first point, with the
    closed-form model's plane values over the same frame columns in place of
    the chart curvature's."""
    n1, n = block.im.warped.n1, block.im.dim
    cols = block.frames.tangent_ambient[0]

    def pair_sum(idx):
        return sum(model_curvature(model, cols[:, i], cols[:, j], cols[:, j], cols[:, i])
                   for pos, i in enumerate(idx) for j in idx[pos + 1:])
    sc = block.scalars
    return (pair_sum(range(n)) - pair_sum(range(n1)) - pair_sum(range(n1, n))
            - block.im.warped.n2 * sc.lap_f[0] / sc.f_value[0])


def test_main_inequality_model_path_matches_flat():
    block = block_at(chen_cr_immersion(), [0.7, -0.5, 0.9])
    direct = main_inequality(block)
    npt.assert_allclose(model_rhs(block, complex_space_form(0.0, 4)), direct.rhs[0], atol=1e-12)


def test_model_curvature_sum_matches_reduction_count():
    # frame summation of the space-form model must shift the bound by c*n1*n2/4
    block = block_at(chen_cr_immersion(), [0.7, -0.5, 0.9])
    base = main_inequality(block).rhs[0]
    for c in (1.0, -2.5, 4.0):
        shifted = model_rhs(block, complex_space_form(c, 4))
        npt.assert_allclose(shifted - base, c * 2 * 1 / 4.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Space-form specializations
# ---------------------------------------------------------------------------


def flat_space_form_bound(block) -> tuple[float, float]:
    """Half the squared form norm and the complex-space-form bound at c = 0,
    at the block's first point."""
    decl, sc = block.im.warped, block.scalars
    return 0.5 * np.sum(block.frames.coeffs[0]**2), space_form_rhs(
        0.0, decl.n1, decl.n2, sc.grad_lnf_sq[0], sc.lap_lnf[0])


def test_space_form_equality_on_chen_cr_at_flat_constant():
    im = chen_cr_immersion()
    for u, v in [(0.3, 0.4), (0.6, 0.8), (1.2, 1.6)]:
        block = block_at(im, [u, v, 0.7])
        lhs, rhs = flat_space_form_bound(block)
        r2 = u * u + v * v
        npt.assert_allclose(lhs, 1.0 / r2, rtol=1e-11)
        npt.assert_allclose(rhs, 1.0 / r2, rtol=1e-11)
        assert abs(lhs - rhs) < 1e-8
        # the equality diagnostics vanish too
        assert main_inequality(block).equality[0]


def test_space_form_mirrors_main_inequality_at_zero_constant():
    im = chen_cr_immersion()
    block = block_at(im, [0.9, 0.2, 1.1])
    m = main_inequality(block)
    npt.assert_allclose(flat_space_form_bound(block)[1], m.rhs[0], atol=1e-8)


# ---------------------------------------------------------------------------
# Variant bounds and the reduction identity
# ---------------------------------------------------------------------------


def test_generalized_reduces_to_space_form_bound():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        c = rng.uniform(-8, 8)
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        grad = rng.uniform(0, 50)
        lap = rng.uniform(-50, 50)
        a = generalized_rhs(c, 0.0, n1, n2, grad, lap)
        b = 2.0 * space_form_rhs(c, n1, n2, grad, lap)
        assert abs(a - b) < 1e-12


def test_generalized_inequality_formula_values():
    # c_rk = 4, gamma = 1, n1 = 2, n2 = 1: rhs is 2(grad - lap + 7/2)
    im = chen_cr_immersion()
    x = np.array([0.8, 0.1, 0.6])
    geom = warped_geometry(im)
    sc = leaf_scalars(WarpedPoint(geom, x))
    rhs = generalized_rhs(4.0, 1.0, geom.n1, geom.n2, sc.grad_lnf_sq, sc.lap_lnf)
    want = 2.0 * (sc.grad_lnf_sq - sc.lap_lnf + 3.5)
    npt.assert_allclose(rhs, want, rtol=1e-13)


def test_generalized_equality_at_zero_parameters_on_chen_cr():
    im = chen_cr_immersion()
    x = np.array([0.6, 0.8, 0.4])
    geom = warped_geometry(im)
    sc = leaf_scalars(WarpedPoint(geom, x))
    rhs = generalized_rhs(0.0, 0.0, geom.n1, geom.n2, sc.grad_lnf_sq, sc.lap_lnf)
    assert abs(np.sum(block_at(im, x).frames.coeffs**2) - rhs) < 1e-8


# ---------------------------------------------------------------------------
# Equality characterization, both directions at sampled points
# ---------------------------------------------------------------------------


def test_equality_characterization_directions():
    tol = 1e-8
    cases = [(chen_cr_immersion(), True), (trivial_product_immersion(), True),
             (perturbed_chen_immersion(), False)]
    for im, expect_equal in cases:
        r = main_inequality(block_at(im, *box_points(im.domain, 3, seed=41)), tol=tol)
        diag = r.diagnostics
        diag_ok = ((diag["leaf_form_norm"] < tol) & (diag["fiber_form_norm"] < tol)
                   & (diag["mean_norm"] < tol))
        assert (abs(r.slack[diag_ok]) < 10 * tol).all()
        tight = abs(r.slack) < tol
        assert (diag["leaf_form_norm"][tight] < 10 * tol).all()
        assert (diag["fiber_form_norm"][tight] < 10 * tol).all()
        assert (r.equality == expect_equal).all()


def test_rhs_invariant_under_leaf_reparametrization():
    # swapping the two leaf coordinates re-orthonormalizes the adapted frame
    # within the leaf block; the bound must not move
    from warpcheck.expr import parse
    from warpcheck.subman import Immersion, WarpedDecl
    from helpers import flat_metric, standard_complex_structure, line_metric
    comps = ["x2*cos(x3)", "x1*cos(x3)", "x2*sin(x3)", "x1*sin(x3)"]
    swapped = Immersion(
        dim=3, components=[parse(c, 3) for c in comps],
        ambient=flat_metric(4), structure=standard_complex_structure(4),
        warped=WarpedDecl(n1=2, n2=1, f=parse("sqrt(x1^2 + x2^2)", 2),
                          g2=line_metric()),
        name="chen-cr-swapped")
    base = chen_cr_immersion()
    x = np.array([0.6, 0.8, 0.9])
    x_swapped = np.array([0.8, 0.6, 0.9])
    r1 = main_inequality(block_at(base, x))
    r2 = main_inequality(block_at(swapped, x_swapped))
    npt.assert_allclose(r1.rhs, r2.rhs, atol=1e-10)
    npt.assert_allclose(r1.lhs, r2.lhs, atol=1e-10)
