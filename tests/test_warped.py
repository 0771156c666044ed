"""Warped-product assembly and the mixed-sectional identity."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from warpcheck.errors import InvalidWarpingError
from warpcheck.expr import parse
from warpcheck.riemann import MetricField, MetricPoint, sectional
from warpcheck.warped import (WarpedPoint, assemble, block_second_form_residuals, leaf_scalars,
                              mixed_sectional_sum, warping_identity_residual)


def line(name=""):
    return MetricField.from_strings([["1"]], name=name)


def hyperbolic_plane():
    # g1 = dt^2, g2 = ds^2, f = e^t  ->  diag(1, e^{2t})
    return assemble(line("leaf"), line("fiber"), parse("exp(x1)", dim=1),
                    name="hyperbolic")


def sphere_presentation():
    # g1 = dtheta^2 on (0, pi), g2 = dphi^2, f = sin(theta)
    return assemble(line("leaf"), line("fiber"), parse("sin(x1)", dim=1), name="s2w")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_hyperbolic_assembly_matches_closed_form():
    w = hyperbolic_plane()
    for t in (0.0, 0.5, -0.8):
        g = w.metric.value(np.array([t, 0.3]))
        npt.assert_allclose(g, [[1.0, 0.0], [0.0, math.exp(2 * t)]], rtol=1e-14)
    assert not w.is_trivial


def test_constant_warping_gives_product_metric():
    w = assemble(line(), line(), parse("1", dim=1))
    npt.assert_allclose(w.metric.value(np.array([2.0, 3.0])), np.eye(2))
    assert w.is_trivial


def test_sphere_presentation_is_round_metric():
    w = sphere_presentation()
    th = 1.1
    g = w.metric.value(np.array([th, 0.2]))
    npt.assert_allclose(g, [[1.0, 0.0], [0.0, math.sin(th) ** 2]], rtol=1e-14)


def test_fiber_coordinates_rejected_in_warping():
    with pytest.raises(InvalidWarpingError):
        assemble(line(), line(), parse("x2", dim=2))


def test_nonpositive_warping_detected():
    w = assemble(line(), line(), parse("x1", dim=1))
    with pytest.raises(InvalidWarpingError):
        w.validate_at([np.array([-1.0, 0.0])])


# ---------------------------------------------------------------------------
# Curvature of assembled metrics
# ---------------------------------------------------------------------------


def test_hyperbolic_sectional_is_minus_one():
    w = hyperbolic_plane()
    for t in (-0.5, 0.0, 0.7):
        k = sectional(w.metric, np.array([t, 0.1]), [1.0, 0.0], [0.0, 1.0])
        npt.assert_allclose(k, -1.0, atol=1e-11)


def test_sphere_presentation_sectional_is_one():
    w = sphere_presentation()
    k = sectional(w.metric, np.array([0.9, 0.4]), [1.0, 0.3], [0.2, 1.0])
    npt.assert_allclose(k, 1.0, atol=1e-11)


# ---------------------------------------------------------------------------
# Mixed-sectional identity
# ---------------------------------------------------------------------------


def test_hyperbolic_identity_both_sides_minus_one():
    w = hyperbolic_plane()
    r = warping_identity_residual(WarpedPoint(w, np.array([0.4, 0.8])))
    npt.assert_allclose(r["lhs"], -1.0, atol=1e-10)
    npt.assert_allclose(r["rhs"], -1.0, atol=1e-12)
    assert r["residual"] < 1e-9


def test_sphere_identity_both_sides_plus_one():
    w = sphere_presentation()
    r = warping_identity_residual(WarpedPoint(w, np.array([1.2, 0.5])))
    npt.assert_allclose(r["lhs"], 1.0, atol=1e-10)
    npt.assert_allclose(r["rhs"], 1.0, atol=1e-12)
    assert r["residual"] < 1e-9


def test_trivial_warping_both_sides_zero():
    w = assemble(line(), line(), parse("2", dim=1))
    r = warping_identity_residual(WarpedPoint(w, np.array([0.3, 0.4])))
    assert r["lhs"] == 0.0 and r["rhs"] == 0.0


def test_identity_on_higher_dimensional_product():
    # leaf: flat plane, fiber: flat plane, f = exp(0.3 x1 + 0.1 x2^2)
    flat2 = MetricField.from_strings([["1", "0"], ["0", "1"]])
    w = assemble(flat2, flat2, parse("exp(0.3*x1 + 0.1*x2^2)", dim=2))
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, size=4)
        r = warping_identity_residual(WarpedPoint(w, x))
        assert r["residual"] < 1e-8, x


def test_adapted_frame_respects_blocks():
    # the total metric is block-diagonal, so Gram-Schmidt of the coordinate
    # directions keeps its first n1 vectors in the leaf block
    w = hyperbolic_plane()
    f = MetricPoint(w.metric, np.array([0.3, 0.6])).frame
    assert not f[w.n1:, :w.n1].any() and not f[:w.n1, w.n1:].any()


# ---------------------------------------------------------------------------
# Leaf scalars and block second forms
# ---------------------------------------------------------------------------


def test_leaf_scalars_hyperbolic():
    sc = leaf_scalars(WarpedPoint(hyperbolic_plane(), np.array([0.5, 0.0])))
    npt.assert_allclose(sc.f_value, math.exp(0.5), rtol=1e-15)
    npt.assert_allclose(sc.lap_f, -math.exp(0.5), rtol=1e-14)   # geometer's sign
    npt.assert_allclose(sc.grad_lnf_sq, 1.0, rtol=1e-14)
    npt.assert_allclose(sc.lap_lnf, 0.0, atol=1e-14)


def test_leaves_geodesic_fibers_umbilical():
    cases = [hyperbolic_plane(), sphere_presentation(),
             assemble(MetricField.from_strings([["1", "0"], ["0", "1"]]),
                      MetricField.from_strings([["1", "0"], ["0", "x1^2"]]),
                      parse("sqrt(x1^2 + x2^2 + 1)", dim=2))]
    rng = np.random.default_rng(8)
    for w in cases:
        for _ in range(3):
            x = rng.uniform(0.2, 1.0, size=w.dim)
            res = block_second_form_residuals(WarpedPoint(w, x))
            assert res["leaf_geodesic"] < 1e-8, (w.metric.name, x)
            assert res["fiber_umbilical_shape"] < 1e-8, (w.metric.name, x)
