"""Extrinsic geometry: induced metrics, second fundamental forms, curvature
equations, classification and the contact CR residual suite."""

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from helpers import (block_at, box_points, chen_cr_immersion, cylinder_immersion,
                     flat_metric, one_point, perturbed_chen_immersion, sasakian_cr_immersion,
                     sphere_immersion, torus_immersion, trivial_product_immersion)

from warpcheck.cli import TOLERANCES, records, validate
from warpcheck.errors import (ConfigurationError, ImmersionDegenerateError,
                              InvalidNormalError, InvalidWarpingError)
from warpcheck.expr import Neg, matrix_jets, parse
from warpcheck.gallery import load_builtin, sample_points
from warpcheck.jets import Jet3, pack
from warpcheck.report import CheckReport
from warpcheck.riemann import (MetricBlock, MetricField, curvature_components, frame_curvature,
                               gram_schmidt, metric_norms, plane_sum)
from warpcheck.subman import (Immersion, ImmersionBlock, InducedMetric, classification_residuals,
                              contact_cr_residuals, fold_sff,
                              gauss_residual_max, gauss_residual_tensor,
                              scalar_identity_residual, second_fundamental_form,
                              shape_operator, warped_block_defect, warped_geometry)
from warpcheck.warped import WarpedBlock, leaf_scalars, warping_identity_residual


def tau(im, x) -> float:
    """The induced metric's scalar curvature at x: the sum of its frame's
    plane values, from a block of one."""
    rf = one_point(MetricBlock, InducedMetric(im), x).curvature_in_frame
    return plane_sum(rf, [(i, j) for i in range(im.dim) for j in range(i + 1, im.dim)])[0]

# ---------------------------------------------------------------------------
# Induced metrics
# ---------------------------------------------------------------------------


def test_identity_immersion_induces_flat_metric():
    im = Immersion(dim=2, components=[parse("x1", 2), parse("x2", 2)],
                   ambient=flat_metric(2), name="identity")
    g, dg, d2g = InducedMetric(im).derivs(np.array([0.3, 0.7]))
    npt.assert_allclose(g, np.eye(2))
    assert not dg.any() and not d2g.any()


def full_product_jets(im, phi):
    """The induced metric's entries summed over every m^2 ambient term, each
    ambient entry evaluated: the reference for the skipped literal 0/1 terms."""
    n, m = im.dim, im.ambient_dim
    # the jet of the i-th partial of component k: its slots d1-d3 at i
    dphi = [[Jet3(n, p.d1[..., i], p.d2[..., i, :], p.d3[..., i, :, :]) for i in range(n)]
            for p in phi]
    amb = [[None] * m for _ in range(m)]
    for indices, jet in matrix_jets(im.ambient.entries, phi, im.ambient.params,
                                    symmetric=True):
        for k, l in indices:
            amb[k][l] = jet
    for i in range(n):
        for j in range(i, n):
            acc = None
            for k in range(m):
                for l in range(m):
                    term = amb[k][l] * dphi[k][i] * dphi[l][j]
                    acc = term if acc is None else acc + term
            yield {(i, j), (j, i)}, acc


@pytest.mark.parametrize("name", ["e1", "e3", "e4", "e5", "e6", "e7"])
def test_induced_derivs_equal_the_full_product(name):
    im = load_builtin(name).subject
    points = np.array(sample_points(im, 33, 42))
    for count in (1, 3, 33):
        x = points[:count]
        phi = im.component_jets(x)
        ref = pack(full_product_jets(im, phi), (count,), im.dim, (im.dim,) * 2, 2)
        for k, got in enumerate(InducedMetric(im).derivs(x, phi)):
            npt.assert_array_equal(got, ref[k], err_msg=f"{name} {count} derivs[{k}]")
            # where the bits differ, both are zeros of opposite sign
            differ = got.view(np.int64) != ref[k].view(np.int64)
            assert not got[differ].any(), (name, count, k)


@pytest.mark.parametrize("name, products", [("e6", 6), ("e1", 4), ("e5", 28)])
def test_literal_ambient_entries_form_no_products(name, products, monkeypatch):
    # the induced metric is one jet over its (i, j) axes, so each ambient
    # term forms one product per literal-1 entry (dphi^k_i dphi^l_j) and two
    # per evaluated entry (amb_kl dphi^k_i, then dphi^l_j); the entries'
    # own products come on top, and a literal 0 forms none.  Flat e6 and
    # e1: 6 and 4 literal-1 terms.  e5: 11 evaluated terms and 6 products
    # in its 5 evaluated upper-triangle entries, 2 * 11 + 6
    im = load_builtin(name).subject
    x = np.array(sample_points(im, 4, 42))
    phi = im.component_jets(x)
    calls = []
    mul = Jet3.__mul__
    monkeypatch.setattr(Jet3, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    InducedMetric(im).derivs(x, phi)
    assert len(calls) == products


def test_zero_ambient_induces_zeros():
    im = Immersion(dim=1, components=[parse("x1", 1), parse("x1^2", 1)],
                   ambient=MetricField.from_strings([["0", "0"], ["0", "0"]]))
    x = np.array([[0.3], [0.7]])
    for got, ref in zip(InducedMetric(im).derivs(x),
                        pack(full_product_jets(im, im.component_jets(x)), (2,), 1, (1, 1), 2)):
        npt.assert_array_equal(got, ref)


def test_circle_induces_unit_line_metric():
    im = Immersion(dim=1, components=[parse("cos(x1)", 1), parse("sin(x1)", 1)],
                   ambient=flat_metric(2), name="circle")
    g = InducedMetric(im).value(np.array([0.8]))
    npt.assert_allclose(g, [[1.0]], rtol=1e-14)


def test_chen_cr_induces_warped_block_metric():
    im = chen_cr_immersion()
    x = np.array([0.6, 0.8, 0.5])
    g = InducedMetric(im).value(x)
    want = np.diag([1.0, 1.0, 1.0])  # r^2 = 0.36 + 0.64 = 1
    npt.assert_allclose(g, want, atol=1e-14)
    assert fold_sff(im, [x, np.array([1.2, -0.3, 0.9])], block_form)["block"] < 1e-12


def block_form(block):
    """The warped block-form defect of the induced metric at the block's points."""
    return {"block": warped_block_defect(block)}


def norm(sff, v) -> float:
    """The ambient metric norm of an ambient vector at the form's point."""
    return float(metric_norms(sff.g_ambient, v))


def test_rank_deficiency_detected():
    im = Immersion(dim=2, components=[parse("x1", 2), parse("x1", 2)],
                   ambient=flat_metric(2), name="collapsed")
    with pytest.raises(ImmersionDegenerateError):
        second_fundamental_form(im, np.array([0.1, 0.2]))


def _overflowing_surface():
    """(u, v) -> (u, uv, 1e200 (uv)^3) in flat R^3: rank-deficient at the origin,
    and at (1, 1) finite partials whose induced metric overflows."""
    return Immersion(dim=2, components=[parse(c, 2) for c in ("x1", "x1*x2", "1e200*(x1*x2)^3")],
                     ambient=flat_metric(3), name="overflowing")


def test_no_warning_comes_from_a_point_the_walk_never_reaches():
    # the block's frames meet the overflow at (1, 1), but the walk stops at
    # the origin; tier-1 turns any warning into an error
    im = _overflowing_surface()
    with pytest.raises(ImmersionDegenerateError,
                       match=r"rank-deficient at \[0\. 0\.\] \(smallest singular value 0"):
        fold_sff(im, np.array([[0.0, 0.0], [1.0, 1.0]]), classification_residuals)


@pytest.mark.parametrize("points", [[[1.0, 1.0]], [[0.5, 0.0], [1.0, 1.0]]])
def test_a_point_the_walk_reaches_warns_as_it_does_alone(points):
    # the warnings of the point-by-point frames, in order
    im = _overflowing_surface()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        worst = fold_sff(im, np.array(points), classification_residuals)
    assert [str(w.message) for w in seen] == ["overflow encountered in matmul",
                                              "invalid value encountered in matmul"]
    assert math.isnan(worst["minimal"])


def _loud_form_surface():
    """(u, v) -> (u, v (u - 1), 3e154 u^2 v^2) in flat R^3: rank-deficient at
    (1, 0), and at (0, 1) and (0, 0.9) finite frames and form whose norms
    overflow, which at (0, 0.5) and (0, 0.25) they do not."""
    return Immersion(dim=2, components=[parse(c, 2) for c in
                                        ("x1", "x2*(x1 - 1)", "3e154*x1^2*x2^2")],
                     ambient=flat_metric(3), name="loud-form")


def classes_and_warnings(im, points):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        worst = fold_sff(im, np.array(points), classification_residuals)
    return worst, [str(w.message) for w in seen]


def test_a_point_whose_classification_overflows_warns_as_it_does_alone():
    im = _loud_form_surface()
    alone, seen = classes_and_warnings(im, [[0.0, 1.0]])
    assert seen == ["overflow encountered in matmul"] * 3 and math.isinf(alone["geodesic"])
    assert classes_and_warnings(im, [[0.0, 0.5]])[1] == []
    block, block_seen = classes_and_warnings(im, [[0.0, 0.5], [0.0, 1.0], [0.0, 0.25]])
    assert block_seen == seen
    assert block == alone
    # two loud points warn twice, as one by one (a single stacked norm would warn once)
    assert classes_and_warnings(im, [[0.0, 1.0], [0.0, 0.5], [0.0, 0.9]])[1] == seen * 2


def test_no_classification_warning_comes_from_a_point_the_walk_never_reaches():
    # the walk stops at the first point, before the overflowing norms of
    # (0, 1): at the rank gate of (1, 0), or at a per-point step of (0, 0.5)
    im = _loud_form_surface()
    with pytest.raises(ImmersionDegenerateError, match=r"rank-deficient at \[1\. 0\.\]"):
        fold_sff(im, np.array([[1.0, 0.0], [0.0, 1.0]]), classification_residuals)

    def refuses(block):
        raise ConfigurationError(f"refused at {block.components[0][0]}")
    with pytest.raises(ConfigurationError, match=r"refused at \[\s*0\.\s+-0\.5\s+0\.\s*\]"):
        fold_sff(im, np.array([[0.0, 0.5], [0.0, 1.0]]), classification_residuals, refuses)


def test_a_leaf_point_holds_its_own_metric_value():
    # the leaf block of an induced metric is a sub-chart block, with no
    # source: a point's value is its (n1, n1) slice of the block's derivatives
    im = load_builtin("e1").subject
    leaf = ImmersionBlock(im, np.array(sample_points(im, 5, 42))).warped.leaf
    assert leaf.derivs[0].shape == (5, im.warped.n1, im.warped.n1)
    npt.assert_array_equal(leaf.frame[2], gram_schmidt(leaf.derivs[0][2], np.eye(im.warped.n1)))


@pytest.mark.parametrize("name", ["e1", "e3", "e5", "e6", "e7"])
def test_block_frames_have_each_points_own_bits(name):
    # J^T g J, the tangent frame and its image, the normal frame and the
    # priority count of each point, against a block of that point alone
    im = load_builtin(name).subject
    points = np.array(sample_points(im, 32, 5))
    block = ImmersionBlock(im, points)
    for k in range(len(points)):
        alone = ImmersionBlock(im, points[k:k + 1]).frames
        for a, b in zip(block.frames, alone, strict=True):
            a, b = a[k], b[0]
            assert a.tobytes() == b.tobytes() and a.strides == b.strides, k


# ---------------------------------------------------------------------------
# Second fundamental form
# ---------------------------------------------------------------------------


def test_affine_plane_is_totally_geodesic():
    im = Immersion(dim=2,
                   components=[parse("x1", 2), parse("x2", 2),
                               parse("2*x1 + 3*x2 + 1", 2)],
                   ambient=flat_metric(3), name="plane")
    sff = second_fundamental_form(im, np.array([0.4, -0.6]))
    assert np.sum(sff.coeffs**2) < 1e-28
    assert norm(sff, sff.means[0]) < 1e-14


def test_sphere_mean_curvature_is_unit():
    im = sphere_immersion()
    for x in box_points(im.domain, 4, seed=1):
        sff = second_fundamental_form(im, x)
        npt.assert_allclose(norm(sff, sff.means[0]), 1.0, atol=1e-11)
        npt.assert_allclose(np.sum(sff.coeffs**2), 2.0, atol=1e-10)


def test_circle_curvature_is_unit():
    im = Immersion(dim=1, components=[parse("cos(x1)", 1), parse("sin(x1)", 1)],
                   ambient=flat_metric(2), name="circle")
    sff = second_fundamental_form(im, np.array([1.1]))
    npt.assert_allclose(norm(sff, sff.h_frame[0, 0]), 1.0, atol=1e-12)


def test_chen_cr_form_values():
    # leaf and fiber self-pairings vanish; the mixed pair carries norm 1/r
    im = chen_cr_immersion()
    x = np.array([0.9, -0.4, 0.7])
    r = math.hypot(0.9, -0.4)
    sff = second_fundamental_form(im, x)
    assert norm(sff, sff.h_frame[0, 0]) < 1e-12
    assert norm(sff, sff.h_frame[1, 1]) < 1e-12
    assert norm(sff, sff.h_frame[2, 2]) < 1e-12
    npt.assert_allclose(np.sum(sff.coeffs**2), 2.0 / r**2, rtol=1e-11)
    npt.assert_allclose(norm(sff, sff.means[0]), 0.0, atol=1e-12)
    npt.assert_allclose(norm(sff, sff.means[1]), 0.0, atol=1e-12)


def test_sff_symmetry_and_coefficients():
    im = torus_immersion()
    for x in box_points(im.domain, 3, seed=2):
        sff = second_fundamental_form(im, x)
        assert np.max(np.abs(sff.h_coord - sff.h_coord.transpose(1, 0, 2))) < 1e-12
        # normal frame really is normal and orthonormal
        cross = sff.tangent_ambient.T @ sff.g_ambient @ sff.normal_frame
        assert np.max(np.abs(cross)) < 1e-10
        gram = sff.normal_frame.T @ sff.g_ambient @ sff.normal_frame
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


# ---------------------------------------------------------------------------
# Shape operator
# ---------------------------------------------------------------------------


def test_plane_shape_operator_vanishes():
    im = Immersion(dim=2,
                   components=[parse("x1", 2), parse("x2", 2), parse("0", 2)],
                   ambient=flat_metric(3), name="flat-plane")
    block = block_at(im, [0.0, 0.0])
    a, resid = shape_operator(block, block.frames.normal_frame[..., 0])
    assert np.max(np.abs(a)) < 1e-14
    assert resid[0] < 1e-14


def test_sphere_shape_operator_is_plus_minus_identity():
    im = sphere_immersion()
    block = block_at(im, [1.0, 2.0])
    a, resid = shape_operator(block, block.frames.normal_frame[..., 0])
    npt.assert_allclose(a[0] @ a[0], np.eye(2), atol=1e-10)
    npt.assert_allclose(abs(np.trace(a[0])), 2.0, atol=1e-10)
    assert resid[0] < 1e-10


def test_shape_operator_rejects_tangential_vector():
    im = sphere_immersion()
    block = block_at(im, [1.0, 2.0])
    with pytest.raises(InvalidNormalError):
        shape_operator(block, block.frames.tangent_ambient[..., 0])


def test_duality_residual_small_on_gallery():
    for im in (chen_cr_immersion(), torus_immersion()):
        block = block_at(im, box_points(im.domain, 1, seed=3)[0])
        f = block.frames
        for r in range(f.normal_frame.shape[2]):
            a, resid = shape_operator(block, f.normal_frame[..., r])
            assert resid[0] < 1e-10
            # self-adjoint for the induced metric
            ga = f.g_induced[0] @ a[0]
            assert np.max(np.abs(ga - ga.T)) < 1e-10


# ---------------------------------------------------------------------------
# Gauss equation and the traced identity
# ---------------------------------------------------------------------------


def test_flat_plane_gauss_zero():
    im = Immersion(dim=2,
                   components=[parse("x1", 2), parse("x2", 2), parse("0", 2)],
                   ambient=flat_metric(3))
    assert gauss_residual_max(block_at(im, [0.2, 0.4]))[0] < 1e-14


def test_sphere_gauss_recovers_unit_curvature():
    im = sphere_immersion()
    x = np.array([1.2, 0.8])
    sff = second_fundamental_form(im, x)
    # flat ambient: K = h_11 h_22 - h_12^2 = 1 for the unit sphere
    r_ind = frame_curvature(curvature_components(InducedMetric(im), x),
                            sff.tangent_frame)
    npt.assert_allclose(r_ind[0, 1, 1, 0], 1.0, atol=1e-10)
    assert abs(gauss_residual_tensor(block_at(im, x))[0, 0, 1, 1, 0]) < 1e-10


@pytest.mark.parametrize("builder", [chen_cr_immersion, sphere_immersion,
                                     trivial_product_immersion, torus_immersion,
                                     perturbed_chen_immersion, sasakian_cr_immersion],
                         ids=lambda b: b.__name__)
def test_gauss_residual_small_on_gallery(builder):
    im = builder()
    residuals = gauss_residual_max(block_at(im, *box_points(im.domain, 3, seed=5)))
    assert (residuals < 1e-7).all(), (im.name, residuals)


@pytest.mark.parametrize("builder", [chen_cr_immersion, sphere_immersion,
                                     trivial_product_immersion, torus_immersion,
                                     sasakian_cr_immersion],
                         ids=lambda b: b.__name__)
def test_scalar_identity_small_on_gallery(builder):
    im = builder()
    residuals = scalar_identity_residual(block_at(im, *box_points(im.domain, 3, seed=7)))
    assert (residuals < 1e-7).all(), (im.name, residuals)


def test_sphere_scalar_identity_values():
    # 2 tau = 2 tau_ambient + n^2 |H|^2 - |h|^2 reads 2 = 0 + 4 - 2
    im = sphere_immersion()
    x = np.array([0.9, 1.5])
    sff = second_fundamental_form(im, x)
    npt.assert_allclose(tau(im, x), 1.0, atol=1e-10)
    npt.assert_allclose(norm(sff, sff.means[0]), 1.0, atol=1e-11)
    npt.assert_allclose(np.sum(sff.coeffs**2), 2.0, atol=1e-10)


def test_unit_s3_hypersurface_values():
    # unit 3-sphere in flat R^4: |H| = 1, |h|^2 = 3, scalar curvature 3,
    # traced relation reads 2*3 = 0 + 9 - 3
    comps = ["sin(x1)*sin(x2)*cos(x3)", "sin(x1)*sin(x2)*sin(x3)",
             "sin(x1)*cos(x2)", "cos(x1)"]
    im = Immersion(dim=3, components=[parse(c, 3) for c in comps],
                   ambient=flat_metric(4), name="round-s3")
    x = np.array([1.1, 0.8, 0.4])
    sff = second_fundamental_form(im, x)
    npt.assert_allclose(norm(sff, sff.means[0]), 1.0, atol=1e-10)
    npt.assert_allclose(np.sum(sff.coeffs**2), 3.0, atol=1e-9)
    npt.assert_allclose(tau(im, x), 3.0, atol=1e-9)
    assert scalar_identity_residual(block_at(im, x))[0] < 1e-9
    assert gauss_residual_max(block_at(im, x))[0] < 1e-9


def test_full_dimensional_immersion_has_empty_normal_bundle():
    # a curvilinear reparametrization of the plane: no normal directions,
    # vanishing form
    comps = ["x1 + 0.1*sin(x2)", "x2 + 0.1*x1^2"]
    im = Immersion(dim=2, components=[parse(c, 2) for c in comps],
                   ambient=flat_metric(2), name="reparametrization")
    x = np.array([0.4, 0.7])
    sff = second_fundamental_form(im, x)
    assert sff.normal_frame.shape == (2, 0)
    assert sff.coeffs.shape == (0, 2, 2)
    assert np.sum(sff.coeffs**2) == 0.0          # no normal directions to sum over
    assert norm(sff, sff.means[0]) < 1e-12         # projection residue only
    assert {"geodesic", "minimal"} <= holds(im, [x])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def holds(im, points) -> set:
    """The classification predicates that hold at every point, at the
    report's tolerance: those whose folded residual stays below it."""
    worst = fold_sff(im, points, classification_residuals)
    return {key for key, v in worst.items() if v < TOLERANCES["classify"]}


def test_classify_affine_plane():
    im = Immersion(dim=2,
                   components=[parse("x1", 2), parse("x2", 2),
                               parse("x1 + 2*x2", 2)],
                   ambient=flat_metric(3))
    points = [np.array([0.0, 0.0]), np.array([0.5, -0.5])]
    assert holds(im, points) == {"geodesic", "minimal", "umbilical"}  # no block split
    assert "d1_minimal" not in fold_sff(im, points, classification_residuals)


def test_classify_sphere_umbilical_not_minimal():
    held = holds(sphere_immersion(), [np.array([1.0, 1.0]), np.array([0.7, 2.0])])
    assert "umbilical" in held
    assert "minimal" not in held
    assert "geodesic" not in held


def test_classify_chen_cr():
    im = chen_cr_immersion()
    held = holds(im, box_points(im.domain, 4, seed=9))
    assert {"d1_minimal", "minimal", "d2_minimal"} <= held
    assert "d1_geodesic" in held
    assert "mixed_geodesic" not in held
    assert "geodesic" not in held


def test_classify_torus_fiber_not_minimal():
    im = torus_immersion()
    points = box_points(im.domain, 4, seed=11)
    held = holds(im, points)
    assert "d2_minimal" not in held
    assert fold_sff(im, points, classification_residuals)["d2_minimal"] > 0.1
    assert "d2_umbilical" in held  # one-dimensional fiber is trivially umbilical


def test_classify_stable_under_refinement():
    im = sphere_immersion()
    few = holds(im, box_points(im.domain, 2, seed=13))
    many = holds(im, box_points(im.domain, 8, seed=13))
    assert few & {"umbilical", "minimal"} == many & {"umbilical", "minimal"}


# ---------------------------------------------------------------------------
# Warped identity through an immersion
# ---------------------------------------------------------------------------


def test_chen_cr_mixed_sectional_identity():
    im = chen_cr_immersion()
    geom = warped_geometry(im)
    for x in box_points(im.domain, 3, seed=15):
        r = warping_identity_residual(one_point(WarpedBlock, geom, x))
        assert r["residual"][0] < 1e-8, x
        # both sides equal -1/r^2 for this warping
        rr = float(np.hypot(x[0], x[1]))
        npt.assert_allclose(r["rhs"][0], -1.0 / rr**2, rtol=1e-10)


def test_warped_geometry_requires_declaration():
    with pytest.raises(ConfigurationError):
        warped_geometry(sphere_immersion())


def test_an_induced_split_validates_its_warping_function():
    # the induced split's block checks f > 0 in its leaf scalars; the rank
    # gate checks the induced metric
    w = warped_geometry(load_builtin("e1").subject)
    x = np.array(sample_points(w.metric.im, 1, 42))
    leaf_scalars(WarpedBlock(w, x))
    with pytest.raises(InvalidWarpingError, match="<= 0"):
        leaf_scalars(WarpedBlock(dataclasses.replace(w, f=Neg(w.f)), x))


# ---------------------------------------------------------------------------
# Contact CR checks
# ---------------------------------------------------------------------------


def contact_cr(im, points) -> CheckReport:
    """The contact CR suite's records at the points, as the report makes them."""
    return records(fold_sff(im, points, contact_cr_residuals), len(points), ("inequalities",),
                   {})


def test_sasakian_cr_suite_passes():
    im = sasakian_cr_immersion()
    rep = contact_cr(im, box_points(im.domain, 4, seed=17))
    assert rep.passed, [(r.name, r.worst) for r in rep.records]


def test_sasakian_cr_warped_block_form():
    im = sasakian_cr_immersion()
    assert fold_sff(im, box_points(im.domain, 4, seed=19), block_form)["block"] < 1e-10


def test_totally_geodesic_reeb_tangent_submanifold():
    # the (y1, z) coordinate plane: tangents d/dy1 and the Reeb direction
    from helpers import standard_sasakian_r5
    s = standard_sasakian_r5()
    im = Immersion(dim=2,
                   components=[parse(c, 2) for c in ("0", "0", "x1", "0", "x2")],
                   ambient=s.metric, structure=s,
                   warped=None, name="reeb-plane")
    # no warped declaration: the suite refuses to run
    with pytest.raises(ConfigurationError):
        contact_cr(im, [np.array([0.2, 0.3])])


def test_reeb_not_tangent_reported():
    from helpers import standard_sasakian_r5
    from warpcheck.subman import WarpedDecl
    s = standard_sasakian_r5()
    im = Immersion(dim=2,
                   components=[parse(c, 2) for c in ("x1", "0", "x2", "0", "0")],
                   ambient=s.metric, structure=s,
                   warped=WarpedDecl(n1=1, n2=1, f=parse("1", 1)),
                   name="no-reeb")
    rep = contact_cr(im, [np.array([0.4, 0.2])])
    assert not rep["cr-reeb-tangency"].passed
    assert "precondition" in rep["cr-reeb-tangency"].note


# ---------------------------------------------------------------------------
# One walk per sample
# ---------------------------------------------------------------------------


def count_blocks(monkeypatch) -> list:
    """Sizes of the ImmersionBlocks built from here on, in order."""
    sizes, init = [], ImmersionBlock.__init__

    def counted(self, im, points):
        sizes.append(len(points))
        init(self, im, points)
    monkeypatch.setattr(ImmersionBlock, "__init__", counted)
    return sizes


def test_fold_sff_builds_blocks_sized_by_the_ambient_dimension(monkeypatch):
    # 66 points a block in a 5-dimensional ambient (its 4-dimensional sub
    # chart would give 162), 32 in a 6-dimensional one
    sizes = count_blocks(monkeypatch)
    im = load_builtin("e5").subject
    assert im.ambient_dim == 5
    worst = fold_sff(im, sample_points(im, 70, 42), classification_residuals,
                     contact_cr_residuals)
    assert sizes == [66, 4]
    assert {"minimal", "cr-reeb-tangency"} <= set(worst)
    sizes.clear()
    im = load_builtin("e6").subject
    assert im.ambient_dim == 6
    fold_sff(im, sample_points(im, 40, 42), classification_residuals)
    assert sizes == [32, 8]


def test_gallery_gate_walks_its_sample_once(monkeypatch):
    sizes = count_blocks(monkeypatch)
    assert validate(load_builtin("e5")).passed
    assert sizes == [16]
