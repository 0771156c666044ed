"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run).  Gallery examples are loaded through
their config files and pass their validation gates before use; a gate
failure aborts the criterion rather than skipping it.
"""

import time

import numpy as np
import pytest

from warpcheck.gallery import load_builtin
from warpcheck.ineq import (generalized_rhs, leaf_mean_curvature, main_inequality,
                            scalar_decomposition_residual, space_form_rhs)
from warpcheck.cli import RunConfig, run, validate
from warpcheck.jets import fd_partial
from warpcheck.report import to_json_bytes
from warpcheck.riemann import fold_blocks
from warpcheck.sampling import halton_points
from warpcheck.structures import (cosymplectic_space_form, kenmotsu_space_form,
                                  model_sectional, phi_sectional,
                                  sasakian_space_form, complex_space_form,
                                  generalized_complex_space_form,
                                  fundamental_form_residuals,
                                  nijenhuis_normality_residuals,
                                  structure_class_residuals, StructureBlock)
from warpcheck.subman import (ImmersionBlock, InducedMetric, fold_sff, gauss_residual_max,
                              warped_geometry)
from warpcheck.warped import WarpedBlock, warping_identity_residual


def _gated(name):
    loaded = load_builtin(name)
    gate = validate(loaded)
    assert gate.passed, f"validation gate failed for {name}: " \
        f"{[(r.name, r.worst) for r in gate.records if not r.passed]}"
    return loaded


def _points(subject, n=64, seed=42):
    domain = getattr(subject, "domain", None)
    if domain is None:
        domain = subject.metric.domain
    return halton_points(domain, n, seed)


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gauss-equation validation
# ---------------------------------------------------------------------------


def test_criterion_1_gauss_equation():
    t0 = time.time()
    worst = 0.0
    for name in ("e1", "e3", "e4", "e6", "e7"):
        im = _gated(name).subject
        worst = max(worst, gauss_residual_max(ImmersionBlock(im, np.array(_points(im)))).max())
    elapsed = time.time() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    _report("criterion 1 (curvature relation, 5 immersions x 64 points)", ok,
            f"worst residual {worst:.3e} (tol 1e-7), runtime {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. Warped mixed-sectional identity
# ---------------------------------------------------------------------------


def test_criterion_2_warped_identity():
    worst = 0.0
    details = []

    im = _gated("e1").subject
    geom = warped_geometry(im)
    for x in _points(im, n=16):
        r = warping_identity_residual(WarpedBlock(geom, x[None]))
        worst = max(worst, r["residual"][0])

    for name, expected in (("e2", -1.0), ("s2-warped", 1.0)):
        w = _gated(name).subject
        for x in _points(w, n=16):
            r = {k: v[0] for k, v in warping_identity_residual(WarpedBlock(w, x[None])).items()}
            worst = max(worst, r["residual"])
            worst_side = max(abs(r["lhs"] - expected), abs(r["rhs"] - expected))
            details.append(worst_side)
            assert worst_side < 1e-9, (name, x, r)

    ok = worst < 1e-8
    _report("criterion 2 (warped identity on e1, e2, s2-warped)", ok,
            f"worst residual {worst:.3e} (tol 1e-8); sides match the "
            f"closed-form values -1 and +1")


# ---------------------------------------------------------------------------
# 3. Scalar-curvature decomposition
# ---------------------------------------------------------------------------


def test_criterion_3_scalar_decomposition():
    worst = 0.0
    for name in ("e1", "e4"):
        im = _gated(name).subject
        worst = max(worst,
                    scalar_decomposition_residual(ImmersionBlock(im, np.array(_points(im)))).max())
    ok = worst < 1e-7
    _report("criterion 3 (scalar split on e1 and e4, 64 points each)", ok,
            f"worst residual {worst:.3e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 4. Leaf-block minimality
# ---------------------------------------------------------------------------


def test_criterion_4_leaf_minimality():
    im1 = _gated("e1").subject
    r1 = fold_sff(im1, _points(im1), leaf_mean_curvature)["leaf-mean-curvature"]

    im5 = _gated("e5").subject  # the gate is the criterion's precondition
    r5 = fold_sff(im5, _points(im5), leaf_mean_curvature)["leaf-mean-curvature"]

    ok = r1 < 1e-8 and r5 < 1e-7
    _report("criterion 4 (leaf partial mean curvature)", ok,
            f"e1 worst {r1:.3e} (tol 1e-8), gated e5 worst {r5:.3e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 5. Main inequality with equality diagnostics
# ---------------------------------------------------------------------------


def test_criterion_5_main_inequality():
    def evaluated(name):
        im = _gated(name).subject
        return main_inequality(ImmersionBlock(im, np.array(_points(im))))

    r = evaluated("e1")
    worst_slack = abs(r.slack).max()
    worst_diag = max(r.diagnostics["leaf_form_norm"].max(),
                     r.diagnostics["fiber_form_norm"].max(), r.diagnostics["mean_norm"].max())
    assert r.equality.all()

    min_slack6 = evaluated("e6").slack.min()
    worst4 = abs(evaluated("e4").slack).max()

    ok = worst_slack < 1e-8 and worst_diag < 1e-8 and min_slack6 > 1e-3 \
        and worst4 <= 1e-10
    _report("criterion 5 (main inequality: equality on e1, strict on e6, zero on e4)",
            ok, f"e1 |slack| {worst_slack:.3e} diag {worst_diag:.3e} (tol 1e-8); "
                f"e6 min slack {min_slack6:.3e} (> 1e-3); e4 |slack| {worst4:.3e} "
                f"(<= 1e-10)")


# ---------------------------------------------------------------------------
# 6. Space-form specialization at zero curvature constant
# ---------------------------------------------------------------------------


def test_criterion_6_space_form_at_zero_constant():
    im = _gated("e1").subject
    worst = 0.0
    values = {}
    for (u, v), want in (((0.3, 0.4), 4.0), ((0.6, 0.8), 1.0), ((1.2, 1.6), 0.25)):
        block = ImmersionBlock(im, np.array([[u, v, 0.7]]))
        sc = block.scalars
        lhs = 0.5 * np.sum(block.frames.coeffs**2)
        rhs = space_form_rhs(0.0, im.warped.n1, im.warped.n2, sc.grad_lnf_sq[0],
                             sc.lap_lnf[0])
        worst = max(worst, abs(lhs - want), abs(rhs - want))
        values[want] = (lhs, rhs)
    ok = worst < 1e-8
    _report("criterion 6 (space-form bound equals 1/r^2 at r = 0.5, 1, 2)", ok,
            f"worst deviation {worst:.3e} (tol 1e-8); values "
            + ", ".join(f"{k}: lhs={v[0]:.9g}" for k, v in values.items()))


# ---------------------------------------------------------------------------
# 7. Space-form curvature models
# ---------------------------------------------------------------------------


def test_criterion_7_space_form_models():
    rng = np.random.default_rng(7)
    models = [complex_space_form(2.5, 6),
              generalized_complex_space_form(1.0, 0.5, 6),
              sasakian_space_form(-3.0, 5),
              kenmotsu_space_form(2.0, 5),
              cosymplectic_space_form(-1.0, 5)]
    worst_var = 0.0
    for m in models:
        vals = []
        for _ in range(100):
            v = rng.standard_normal(m.dim)
            if m.kind in ("sasakian", "kenmotsu", "cosymplectic"):
                v = v - float(m.eta @ v) * m.xi
            v = v / np.linalg.norm(v)
            vals.append(phi_sectional(m, v))
        worst_var = max(worst_var, float(np.var(np.array(vals) - m.constant)))

    worst_reeb = 0.0
    for m, want in ((sasakian_space_form(-3.0, 5), 1.0),
                    (kenmotsu_space_form(2.0, 5), -1.0),
                    (cosymplectic_space_form(4.0, 5), 0.0)):
        for _ in range(20):
            v = rng.standard_normal(5)
            v = v - float(m.eta @ v) * m.xi
            v = v / np.linalg.norm(v)
            worst_reeb = max(worst_reeb, abs(model_sectional(m, v, m.xi) - want))

    ok = worst_var < 1e-12 and worst_reeb < 1e-10
    _report("criterion 7 (model constancy and Reeb-plane curvatures)", ok,
            f"phi-sectional variance {worst_var:.3e} (< 1e-12), Reeb-plane "
            f"deviation {worst_reeb:.3e} (< 1e-10)")


# ---------------------------------------------------------------------------
# 8. Contact structure suite on the standard 5-chart
# ---------------------------------------------------------------------------


def test_criterion_8_contact_suite():
    s = _gated("sasakian-r5").subject
    points = halton_points(s.metric.domain, 64, 42)
    worst = max(fold_blocks(points, s.dim, lambda x: StructureBlock(s, x),
                            s.identity_residuals).values())
    # each law over every pair of coordinate directions
    for x in points:
        t = StructureBlock(s, x[None])
        worst = max(worst, structure_class_residuals(t, "sasakian").max(),
                    nijenhuis_normality_residuals(t).max(), fundamental_form_residuals(t).max())
    ok = worst < 1e-8
    _report("criterion 8 (contact identities, class law, normality, form law)",
            ok, f"worst residual {worst:.3e} (tol 1e-8) at 64 points")


# ---------------------------------------------------------------------------
# 9. Generalized bound reduces to the space-form bound
# ---------------------------------------------------------------------------


def test_criterion_9_variant_reduction():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        c = rng.uniform(-8, 8)
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        grad, lap = rng.uniform(0, 50), rng.uniform(-50, 50)
        worst = max(worst, abs(generalized_rhs(c, 0.0, n1, n2, grad, lap)
                               - 2.0 * space_form_rhs(c, n1, n2, grad, lap)))
    ok = worst < 1e-12
    _report("criterion 9 (variant bound at gamma = 0, 1000 draws)", ok,
            f"worst gap {worst:.3e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 10. Finite-difference oracle concordance
# ---------------------------------------------------------------------------


def test_criterion_10_oracle_concordance():
    worst = 0.0
    checked = 0

    def crosscheck(jet_fn, val_fn, x):
        nonlocal worst, checked
        j = jet_fn(x)
        dim = len(x)
        for idx in [(i,) for i in range(dim)] + \
                   [(i, k) for i in range(dim) for k in range(i, dim)]:
            worst = max(worst, abs(j.partial(idx) - fd_partial(val_fn, x, idx)))
            checked += 1

    # induced metric entries of e1 and its warping function
    im = _gated("e1").subject
    ind = InducedMetric(im)

    def entry_jet(x):
        return ind.entry_jets(x)[2][2]

    def entry_val(x):
        return ind.value(x)[2, 2]

    from warpcheck.expr import eval_expr, eval_value
    f = im.warped.f

    # assembled hyperbolic metric entry
    w = _gated("e2").subject

    def hyp_jet(x):
        return w.metric.entry_jets(x)[1][1]

    def hyp_val(x):
        return w.metric.value(x)[1, 1]

    spots = [np.array([0.5, 0.6, 0.3]), np.array([1.1, -0.4, 0.9]),
             np.array([-0.8, 0.9, 1.2]), np.array([0.4, 1.3, 0.6])]
    for x in spots:
        crosscheck(entry_jet, entry_val, x)
        crosscheck(lambda y: eval_expr(f, y), lambda y: eval_value(f, y), x[:2])
    for x in [np.array([0.2, 0.5]), np.array([-0.6, 0.1])]:
        crosscheck(hyp_jet, hyp_val, x)

    ok = worst < 1e-4 and checked >= 10
    _report("criterion 10 (oracle concordance on criteria-1..3 fields)", ok,
            f"worst jet-vs-stencil gap {worst:.3e} (tol 1e-4) over {checked} "
            f"derivatives at 10 spots")


# ---------------------------------------------------------------------------
# 11. Determinism of the structured report
# ---------------------------------------------------------------------------


def test_criterion_11_report_determinism():
    rc = lambda: RunConfig(target="e1", points=64, seed=42)  # noqa: E731
    code1, doc1, _ = run(rc())
    code2, doc2, _ = run(rc())
    b1, b2 = to_json_bytes(doc1), to_json_bytes(doc2)
    ok = code1 == code2 == 0 and b1 == b2
    _report("criterion 11 (byte-identical structured reports)", ok,
            f"two full runs, {len(b1)} bytes each, identical: {b1 == b2}")
