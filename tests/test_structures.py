"""Almost contact / almost complex structures and space-form curvature models."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from warpcheck.cli import records
from warpcheck.errors import ConfigurationError, DegeneratePlaneError
from warpcheck.expr import parse
from warpcheck.report import CheckReport
from warpcheck.riemann import MetricField, curvature_components, sectional
from warpcheck.structures import (CLASS_NAMES, AlmostComplexStructure,
                                  AlmostContactStructure, SpaceFormModel,
                                  closed_eta_residuals, complex_space_form,
                                  cosymplectic_space_form, fundamental_form_residuals,
                                  generalized_complex_space_form, kenmotsu_space_form,
                                  model_curvature, model_sectional,
                                  model_symmetry_residual, nijenhuis_normality_residuals,
                                  phi_sectional, sasakian_space_form,
                                  fold_tensors, structure_class_residuals)

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


from helpers import standard_sasakian_r5


def identities(t):
    """The defining identities of the point's almost contact structure."""
    return t.s.identity_residuals(t)


def contact_records(s, points, tol=1e-10) -> CheckReport:
    """The identity records of an almost contact structure at the points, as
    the report makes them."""
    return records(fold_tensors(s, points, identities), len(points), ("structure",),
                   {"structure": tol})


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
    worst = max(max(s.identity_residuals(s.at(x)).values()) for x in sample_points(2, n=4))
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
        assert structure_class_residuals(s.at(x), "sasakian").max() < 1e-8


def test_standard_structure_is_not_cosymplectic():
    s = standard_sasakian_r5()
    x = np.array([0.3, -0.4, 0.2, 0.5, 0.1])
    assert structure_class_residuals(s.at(x), "cosymplectic").max() > 0.1


def test_constant_phi_flat_metric_is_cosymplectic():
    s = trivial_cosymplectic_r3()
    points = sample_points(6, n=4, dim=3)
    assert contact_records(s, points).passed
    assert structure_class_residuals(s.at(np.zeros(3)), "cosymplectic").max() == 0.0
    # cosymplectic implies nearly cosymplectic
    assert structure_class_residuals(s.at(np.zeros(3)), "nearly_cosymplectic").max() == 0.0


def test_sasakian_structure_fails_other_class_laws():
    s = standard_sasakian_r5()
    x = np.array([0.1, 0.4, -0.3, 0.2, 0.6])
    assert structure_class_residuals(s.at(x), "kenmotsu").max() > 0.1
    # the symmetrized law also fails: the defect is -2g(X,Y)xi + eta(Y)X + eta(X)Y
    assert structure_class_residuals(s.at(x), "nearly_cosymplectic").max() > 0.1


def test_unknown_class_rejected():
    with pytest.raises(ConfigurationError):
        structure_class_residuals(standard_sasakian_r5().at(np.zeros(5)), "nope")


# ---------------------------------------------------------------------------
# Normality and the fundamental 2-form
# ---------------------------------------------------------------------------


def test_standard_sasakian_is_normal():
    s = standard_sasakian_r5()
    for x in sample_points(10, n=4):
        assert nijenhuis_normality_residuals(s.at(x)).max() < 1e-8


def test_standard_sasakian_contact_metric_law():
    s = standard_sasakian_r5()
    for x in sample_points(12, n=4):
        assert fundamental_form_residuals(s.at(x)).max() < 1e-8


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
    assert nijenhuis_normality_residuals(s.at(np.zeros(5)))[0, 2] > 0.4


def dense_contact(n=5):
    """A structure with a distinct sin, exp or sqrt entry, in every
    coordinate, everywhere in g, phi, xi and eta: no law holds, and every sum
    in a law has all its terms nonzero, so its order shows in the bits."""
    w = " + ".join(f"0.{k + 1}*x{k + 1}" for k in range(n))  # every coordinate
    metric = MetricField.from_strings(
        [[f"2 + 0.3*sin(x{i + 1} + {w})" if i == j else f"0.1*cos(x{i + 1}*x{j + 1} + {w})"
          for j in range(n)] for i in range(n)])
    phi = [[f"sin({i + 1}*x{j + 1} - x{i + 1} + {w}) + 0.{j + 1}" for j in range(n)]
           for i in range(n)]
    return AlmostContactStructure(
        metric, _parse_rows(phi, n), [parse(f"exp(0.{i + 1}*x{i + 1} + {w})", n)
                                      for i in range(n)],
        [parse(f"0.{i + 1}*sqrt(3 + x{n - i} + {w})", n) for i in range(n)])


def one_pair_laws(t, X, Y) -> dict:
    """Each law on one vector pair by its one-pair formula: the reference for
    the laws' values over the coordinate pairs."""
    phi, dphi = t.op
    xi, (eta, deta), g, gam = t.xi, t.eta, t.metric.value, t.metric.gamma

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
        t = s.at(x)
        laws = {**{klass: structure_class_residuals(t, klass) for klass in CLASS_NAMES},
                "normality": nijenhuis_normality_residuals(t),
                "fundamental-form": fundamental_form_residuals(t),
                "closed-eta": closed_eta_residuals(t)}
        for a in range(n):
            for b in range(n):
                want = one_pair_laws(t, np.eye(n)[:, a], np.eye(n)[:, b])
                for key, values in laws.items():
                    assert np.float64(values[a, b]).tobytes() == \
                        np.float64(want[key]).tobytes(), (key, a, b)


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
        t = s.at(x)
        phi, xi, eta = t.op[0], t.xi, t.eta[0]
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
    t = s.at(x)
    phi, xi, eta = t.op[0], t.xi, t.eta[0]
    # X in the contact distribution (eta(X) = 0), plane span(X, phi X)
    X = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(float(eta @ X)) < 1e-15
    k = sectional(s.metric, x, X, phi @ X)
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
    rep = records(fold_tensors(acs, points, lambda t: acs.residuals(t, True)), len(points),
                  ("structure",), {})
    assert rep.passed
    assert acs.parallel_residual(acs.at(np.zeros(4))) == 0.0
