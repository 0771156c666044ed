"""Almost contact / almost complex structures and space-form curvature models."""

import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from warpcheck.cli import records
from warpcheck.errors import ConfigurationError, DegeneratePlaneError
from warpcheck.expr import parse
from warpcheck.jets import block_points
from warpcheck.report import CheckReport
from warpcheck.riemann import MetricField, curvature_components, fold_blocks
from warpcheck.structures import (CLASS_NAMES, CONTACT_IDENTITIES, AlmostComplexStructure,
                                  AlmostContactStructure, SpaceFormModel, StructureBlock,
                                  closed_eta_residuals, complex_space_form,
                                  cosymplectic_space_form, fundamental_form_residuals,
                                  generalized_complex_space_form, kenmotsu_space_form,
                                  model_curvature, model_sectional,
                                  model_symmetry_residual, nijenhuis_normality_residuals,
                                  phi_sectional, sasakian_space_form,
                                  structure_class_residuals)

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


from helpers import dense_complex, dense_contact, standard_sasakian_r5


def fold_structure(s, points, step) -> dict:
    """step's values over the points, folded a StructureBlock at a time."""
    return fold_blocks(points, s.dim, lambda x: StructureBlock(s, x), step)


def contact_records(s, points, tol=1e-10) -> CheckReport:
    """The identity records of an almost contact structure at the points, as
    the report makes them."""
    return records(fold_structure(s, points, s.identity_residuals), len(points),
                   ("structure",), {"structure": tol})


def _parse_rows(rows, dim):
    return [[parse(s, dim) for s in row] for row in rows]


def trivial_cosymplectic_r3():
    """Flat R^3 with a constant rotation phi on the first two coordinates."""
    metric = MetricField.from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    phi_rows = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    return AlmostContactStructure(
        metric=metric,
        phi_entries=_parse_rows(phi_rows, 3),
        xi_entries=[parse(s, 3) for s in ("0", "0", "1")],
        eta_entries=[parse(s, 3) for s in ("0", "0", "1")],
    )


def sample_points(seed=0, n=8, dim=5, scale=1.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-scale, scale, size=dim) for _ in range(n)]


# ---------------------------------------------------------------------------
# Structure identities
# ---------------------------------------------------------------------------


def test_standard_sasakian_satisfies_all_identities():
    s = standard_sasakian_r5()
    points = sample_points(1)
    rep = contact_records(s, points, tol=1e-9)
    assert rep.passed, [(r.name, r.worst) for r in rep.records]


def test_degenerate_structure_fails_pairing():
    metric = MetricField.from_strings(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = _parse_rows([["0"] * 3] * 3, 3)
    s = AlmostContactStructure(metric, zero3, [parse("0", 3)] * 3, [parse("0", 3)] * 3)
    rep = contact_records(s, [np.zeros(3)])
    assert not rep["contact-dual_pairing"].passed


def test_perturbed_phi_reports_its_magnitude():
    s = standard_sasakian_r5()
    s.phi_entries[0][1] = parse("1e-3", 5)
    worst = max(max(v.max() for v in s.identity_residuals(StructureBlock(s, x[None])).values())
                for x in sample_points(2, n=4))
    assert 1e-4 < worst < 1e-2


def test_even_dimension_rejected():
    metric = MetricField.from_strings([["1", "0"], ["0", "1"]])
    with pytest.raises(ConfigurationError):
        AlmostContactStructure(metric, _parse_rows([["0", "0"]] * 2, 2),
                               [parse("0", 2)] * 2, [parse("0", 2)] * 2)


# ---------------------------------------------------------------------------
# Class equations
# ---------------------------------------------------------------------------
#
# Each law is bilinear in (X, Y), so it vanishes iff it vanishes on every
# pair of coordinate directions: the tests read the worst pair.


def test_standard_structure_is_sasakian_class():
    s = standard_sasakian_r5()
    for x in sample_points(4, n=4):
        assert structure_class_residuals(StructureBlock(s, x[None]), "sasakian").max() < 1e-8


def test_standard_structure_is_not_cosymplectic():
    s = standard_sasakian_r5()
    x = np.array([0.3, -0.4, 0.2, 0.5, 0.1])
    assert structure_class_residuals(StructureBlock(s, x[None]), "cosymplectic").max() > 0.1


def test_constant_phi_flat_metric_is_cosymplectic():
    s = trivial_cosymplectic_r3()
    points = sample_points(6, n=4, dim=3)
    assert contact_records(s, points).passed
    assert structure_class_residuals(StructureBlock(s, np.zeros((1, 3))), "cosymplectic").max() == 0.0
    # cosymplectic implies nearly cosymplectic
    assert structure_class_residuals(StructureBlock(s, np.zeros((1, 3))), "nearly_cosymplectic").max() == 0.0


def test_sasakian_structure_fails_other_class_laws():
    s = standard_sasakian_r5()
    x = np.array([0.1, 0.4, -0.3, 0.2, 0.6])
    assert structure_class_residuals(StructureBlock(s, x[None]), "kenmotsu").max() > 0.1
    # the symmetrized law also fails: the defect is -2g(X,Y)xi + eta(Y)X + eta(X)Y
    assert structure_class_residuals(StructureBlock(s, x[None]), "nearly_cosymplectic").max() > 0.1


def test_unknown_class_rejected():
    with pytest.raises(ConfigurationError):
        structure_class_residuals(StructureBlock(standard_sasakian_r5(), np.zeros((1, 5))),
                                  "nope")


# ---------------------------------------------------------------------------
# Normality and the fundamental 2-form
# ---------------------------------------------------------------------------


def test_standard_sasakian_is_normal():
    s = standard_sasakian_r5()
    for x in sample_points(10, n=4):
        assert nijenhuis_normality_residuals(StructureBlock(s, x[None])).max() < 1e-8


def test_standard_sasakian_contact_metric_law():
    s = standard_sasakian_r5()
    for x in sample_points(12, n=4):
        assert fundamental_form_residuals(StructureBlock(s, x[None])).max() < 1e-8


def test_contact_form_with_wrong_phi_breaks_normality():
    # Keep the contact metric and 1-form of the standard structure but swap in
    # a constant phi pairing (x1, y1), (x2, y2): brackets vanish, so the
    # residual is exactly the non-closed part 2 d(eta) (x) xi.
    s = standard_sasakian_r5()
    wrong_phi = [["0", "0", "-1", "0", "0"],
                 ["0", "0", "0", "-1", "0"],
                 ["1", "0", "0", "0", "0"],
                 ["0", "1", "0", "0", "0"],
                 ["0", "0", "0", "0", "0"]]
    s.phi_entries = _parse_rows(wrong_phi, 5)
    # the pair (e_1, e_3)
    assert nijenhuis_normality_residuals(StructureBlock(s, np.zeros((1, 5))))[0, 0, 2] > 0.4


def one_pair_laws(t, X, Y) -> dict:
    """Each law on one vector pair by its one-pair formula, at a block of one
    point: the reference for the laws' values over the coordinate pairs."""
    (phi, dphi), xi = (a[0] for a in t.op), t.xi[0]
    (eta, deta), g, gam = (a[0] for a in t.eta), t.metric.derivs[0][0], t.metric.gamma[0]

    def nabla(X, Y):  # (nabla_X phi) Y
        term = np.einsum("i,ikm,m->k", X, dphi, Y)
        term += np.einsum("kim,i,mj,j->k", gam, X, phi, Y)
        term -= np.einsum("km,mij,i,j->k", phi, gam, X, Y)
        return term

    def norm(v):
        return math.sqrt(max(v @ g @ v, 0.0))

    d_eta = float(np.einsum("i,ij,j->", X, deta, Y) - np.einsum("i,ij,j->", Y, deta, X))
    fx, fy = phi @ X, phi @ Y
    dfx, dfy = np.einsum("kim,m->ki", dphi, X), np.einsum("kim,m->ki", dphi, Y)
    nij = (np.einsum("k,ki->i", fx, dfy) - np.einsum("k,ki->i", fy, dfx)
           - phi @ np.einsum("k,ki->i", X, dfy) + phi @ np.einsum("k,ki->i", Y, dfx))
    zero = np.zeros(len(X))
    return {"sasakian": norm(nabla(X, Y) - (-(X @ g @ Y) * xi + (eta @ Y) * X)),
            "kenmotsu": norm(nabla(X, Y) - (((phi @ X) @ g @ Y) * xi - (eta @ Y) * fx)),
            "cosymplectic": norm(nabla(X, Y) - zero),
            "nearly_cosymplectic": norm(nabla(X, Y) + nabla(Y, X) - zero),
            "normality": norm(nij + d_eta * xi),
            "fundamental-form": abs(float(fx @ g @ Y) - 0.5 * d_eta),
            "closed-eta": abs(d_eta)}


@pytest.mark.parametrize("structure", [standard_sasakian_r5, dense_contact,
                                       trivial_cosymplectic_r3], ids=lambda f: f.__name__)
def test_pair_values_have_the_bits_of_the_one_pair_formulas(structure):
    # one-hot X and Y select entries exactly, so each value keeps its bits
    s = structure()
    n = s.dim
    for x in sample_points(41, n=3, dim=n, scale=0.8):
        t = StructureBlock(s, x[None])
        laws = {**{klass: structure_class_residuals(t, klass) for klass in CLASS_NAMES},
                "normality": nijenhuis_normality_residuals(t),
                "fundamental-form": fundamental_form_residuals(t),
                "closed-eta": closed_eta_residuals(t)}
        for a in range(n):
            for b in range(n):
                want = one_pair_laws(t, np.eye(n)[:, a], np.eye(n)[:, b])
                for key, values in laws.items():
                    assert np.float64(values[0, a, b]).tobytes() == \
                        np.float64(want[key]).tobytes(), (key, a, b)


def point_values(t, b: int) -> dict:
    """The contact identities', or the complex square and compatibility
    records', values at point b of the block, recomputed from the point's
    2-D slices with ``@``: the reference for the stacked products."""
    g, eye = t.metric.derivs[0][b], np.eye(t.s.dim)
    if isinstance(t.s, AlmostComplexStructure):
        j = t.op[0][b]
        return {"complex-square": np.abs(j @ j + eye).max(),
                "complex-compatibility": np.abs(j.T @ g @ j - g).max()}
    phi, xi, eta = t.op[0][b], t.xi[b], t.eta[0][b]
    col, row = xi[:, None], eta[None]
    return dict(zip(CONTACT_IDENTITIES, (
        np.abs(phi @ phi + eye - col * row).max(),
        np.abs(phi @ col).max(),
        np.abs(row @ phi).max(),
        abs((row @ col)[0, 0] - 1.0),
        np.abs(eta - (g @ col)[:, 0]).max(),
        np.abs(phi.T @ g @ phi - (g - eta[:, None] * row)).max())))


@pytest.mark.parametrize("make", [dense_contact, partial(dense_contact, signed_zeros=True),
                                  partial(dense_complex, 4),
                                  partial(dense_complex, 4, signed_zeros=True)],
                         ids=["contact-5", "contact-5-signed-zeros", "complex-4",
                              "complex-4-signed-zeros"])
def test_identity_values_have_the_bits_of_each_points_products(make):
    # a full block, whose stacked matmuls run each point's 2-D kernel; every
    # entry of these structures is nonzero (or a signed zero), so an einsum
    # or any other order of summation shows in the values' bits
    s = make()
    points = np.random.default_rng(s.dim).uniform(-0.5, 0.5, (block_points(s.dim), s.dim))
    t = StructureBlock(s, points)
    values = (s.residuals(t, require_kahler=False) if isinstance(s, AlmostComplexStructure)
              else s.identity_residuals(t))
    for b in range(len(points)):
        want = point_values(t, b)
        assert want.keys() == values.keys()
        for key, got in values.items():
            assert np.float64(got[b]).view(np.int64) == np.float64(want[key]).view(np.int64), \
                (key, b)


# ---------------------------------------------------------------------------
# Space-form curvature models
# ---------------------------------------------------------------------------

ALL_MODELS = [
    complex_space_form(2.5, 6),
    generalized_complex_space_form(1.5, 0.7, 6),
    sasakian_space_form(-3.0, 5),
    kenmotsu_space_form(2.0, 7),
    cosymplectic_space_form(-1.0, 5),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_model_curvature_symmetries(model):
    rng = np.random.default_rng(13)
    assert model_symmetry_residual(model, rng, trials=25) < 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_phi_sectional_is_the_model_constant(model):
    rng = np.random.default_rng(17)
    vals = []
    for _ in range(50):
        v = rng.standard_normal(model.dim)
        if model.kind in ("sasakian", "kenmotsu", "cosymplectic"):
            v = v - float(model.eta @ v) * model.xi
        v /= np.linalg.norm(v)
        vals.append(phi_sectional(model, v))
    npt.assert_allclose(vals, model.constant, atol=1e-10)
    assert float(np.var(vals)) < 1e-12


def test_reeb_plane_curvatures():
    # K(X, xi) for unit X orthogonal to xi: 1 (sasakian), -1 (kenmotsu), 0 (cosymplectic)
    rng = np.random.default_rng(19)
    for model, want in [(sasakian_space_form(-3.0, 5), 1.0),
                        (kenmotsu_space_form(2.0, 5), -1.0),
                        (cosymplectic_space_form(4.0, 5), 0.0)]:
        for _ in range(10):
            v = rng.standard_normal(5)
            v -= float(model.eta @ v) * model.xi
            v /= np.linalg.norm(v)
            npt.assert_allclose(model_sectional(model, v, model.xi), want, atol=1e-10)


def test_flat_complex_model_vanishes():
    m = complex_space_form(0.0, 4)
    rng = np.random.default_rng(21)
    for _ in range(10):
        vs = rng.standard_normal((4, 4))
        assert model_curvature(m, *vs) == 0.0


def test_generalized_model_reduces_at_gamma_zero():
    rng = np.random.default_rng(23)
    for _ in range(20):
        c = rng.uniform(-4, 4)
        m0 = complex_space_form(c, 6)
        m1 = generalized_complex_space_form(c, 0.0, 6)
        vs = rng.standard_normal((4, 6))
        assert abs(model_curvature(m0, *vs) - model_curvature(m1, *vs)) < 1e-12


def test_phi_section_guards():
    m = sasakian_space_form(-3.0, 5)
    with pytest.raises(DegeneratePlaneError):
        phi_sectional(m, m.xi)


# ---------------------------------------------------------------------------
# Chart curvature of the standard Sasakian metric matches the model at c = -3
# ---------------------------------------------------------------------------


def test_sasakian_r5_curvature_matches_space_form_model():
    s = standard_sasakian_r5()
    for x in sample_points(29, n=3, scale=0.8):
        r4 = curvature_components(s.metric, x)
        t = StructureBlock(s, x[None])
        phi, xi, eta = t.op[0][0], t.xi[0], t.eta[0][0]
        model = SpaceFormModel("sasakian", 5, -3.0, g=s.metric.value(x),
                               phi=phi, xi=xi, eta=eta)
        rng = np.random.default_rng(31)
        for _ in range(6):
            a, b, c, d = rng.standard_normal((4, 5))
            direct = float(np.einsum("ijkl,i,j,k,l->", r4, a, b, c, d))
            closed = model_curvature(model, a, b, c, d)
            assert abs(direct - closed) < 1e-8


def test_sasakian_r5_phi_sectional_is_minus_three():
    s = standard_sasakian_r5()
    x = np.array([0.2, -0.3, 0.4, 0.1, 0.5])
    t = StructureBlock(s, x[None])
    phi, xi, eta = t.op[0][0], t.xi[0], t.eta[0][0]
    # X in the contact distribution (eta(X) = 0), plane span(X, phi X)
    X = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(float(eta @ X)) < 1e-15
    # the sectional curvature: R(X, Y, Y, X) over the plane's Gram determinant
    Y, r4, g = phi @ X, curvature_components(s.metric, x), t.metric.derivs[0][0]
    k = np.einsum("ijkl,i,j,k,l->", r4, X, Y, Y, X) / ((X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2)
    npt.assert_allclose(k, -3.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Almost complex structures
# ---------------------------------------------------------------------------


def test_flat_kahler_structure_validates():
    metric = MetricField.from_strings(
        [["1" if i == j else "0" for j in range(4)] for i in range(4)])
    j_rows = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    acs = AlmostComplexStructure(metric, _parse_rows(j_rows, 4))
    points = sample_points(33, n=4, dim=4)
    rep = records(fold_structure(acs, points, lambda t: acs.residuals(t, True)), len(points),
                  ("structure",), {})
    assert rep.passed
    assert acs.parallel_residual(StructureBlock(acs, np.zeros((1, 4)))) == 0.0
