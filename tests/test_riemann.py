"""Intrinsic geometry tests: connection, curvature, gradient, Laplacian, frames."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from warpcheck.errors import (DegenerateMetricError, DegeneratePlaneError,
                              DependentSeedsError, JetDomainError)
from warpcheck.expr import eval_expr, parse
from warpcheck.jets import Jet3, fd_partial
from warpcheck.gallery import load_builtin
from warpcheck import subman
from warpcheck.riemann import (MetricBlock, MetricField, MetricPoint, christoffel,
                               curvature, frame_curvature, gradient, gram_schmidt,
                               gram_schmidt_step, laplacian, scalar_curvature, sectional)

# ---------------------------------------------------------------------------
# Fixture metrics
# ---------------------------------------------------------------------------


def flat(dim):
    rows = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return MetricField.from_strings(rows, name=f"flat{dim}")


def polar_plane():
    # ds^2 = dr^2 + r^2 dtheta^2, chart (r, theta) with r = x1
    return MetricField.from_strings([["1", "0"], ["0", "x1^2"]], name="polar")


def round_s2():
    # ds^2 = dtheta^2 + sin(theta)^2 dphi^2
    return MetricField.from_strings([["1", "0"], ["0", "sin(x1)^2"]], name="s2")


def round_s3():
    # hyperspherical chart: diag(1, sin^2 x1, sin^2 x1 sin^2 x2)
    return MetricField.from_strings(
        [["1", "0", "0"],
         ["0", "sin(x1)^2", "0"],
         ["0", "0", "sin(x1)^2 * sin(x2)^2"]], name="s3")


def random_analytic_metric(seed, dim=2):
    """Positive-definite analytic metric: identity plus small smooth symmetric part."""
    rng = np.random.default_rng(seed)
    rows = [["" for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            a, b = rng.uniform(-0.2, 0.2, size=2)
            base = "1" if i == j else "0"
            s = f"{base} + {a:.6f}*sin(x{i + 1} + 2*x{j % dim + 1}) + {b:.6f}*exp(0.3*x{j + 1})"
            rows[i][j] = rows[j][i] = s
    return MetricField.from_strings(rows, name=f"rand{seed}")


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_flat_christoffel_vanishes():
    gam = christoffel(flat(3), np.array([0.3, -0.7, 2.0]))
    assert np.max(np.abs(gam)) == 0.0


def test_polar_christoffel():
    r = 1.7
    gam = christoffel(polar_plane(), np.array([r, 0.4]))
    npt.assert_allclose(gam[0, 1, 1], -r, rtol=1e-14)       # radial from angular
    npt.assert_allclose(gam[1, 0, 1], 1.0 / r, rtol=1e-14)  # mixed
    npt.assert_allclose(gam[1, 1, 0], 1.0 / r, rtol=1e-14)  # symmetric in lower pair
    assert abs(gam[0, 0, 0]) < 1e-15


def test_sphere_christoffel():
    th = 0.9
    gam = christoffel(round_s2(), np.array([th, 0.2]))
    npt.assert_allclose(gam[0, 1, 1], -math.sin(th) * math.cos(th), rtol=1e-14)


def test_degenerate_metric_raises():
    g = MetricField.from_strings([["x1", "0"], ["0", "1"]])
    with pytest.raises(DegenerateMetricError):
        christoffel(g, np.array([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def test_flat_curvature_zero():
    c = curvature(flat(3), np.array([1.0, 2.0, 3.0]))
    assert np.max(np.abs(c.comp)) == 0.0


def test_sphere_curvature_component():
    th = 1.1
    c = curvature(round_s2(), np.array([th, 0.5]))
    # R(d_theta, d_phi, d_phi, d_theta) = sin^2(theta) on the unit sphere
    npt.assert_allclose(c.comp[0, 1, 1, 0], math.sin(th) ** 2, rtol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_curvature_symmetries_random_metrics(seed):
    g = random_analytic_metric(seed, dim=3)
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        x = rng.uniform(0.2, 1.0, size=3)
        c = curvature(g, x)
        assert c.max_symmetry_residual() < 1e-9


# ---------------------------------------------------------------------------
# Sectional and scalar curvature
# ---------------------------------------------------------------------------


def test_sphere_sectional_is_one():
    g = round_s2()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.3, 2.5, size=2)
        X, Y = rng.standard_normal(2), rng.standard_normal(2)
        npt.assert_allclose(sectional(g, x, X, Y), 1.0, atol=1e-11)


def test_flat_sectional_zero():
    assert sectional(flat(3), np.zeros(3), [1, 0, 0], [0, 1, 1]) == 0.0


def test_sectional_invariant_under_plane_basis_change():
    g = random_analytic_metric(9, dim=3)
    x = np.array([0.5, 0.8, 0.3])
    X = np.array([1.0, 0.2, -0.4])
    Y = np.array([0.1, -1.0, 0.7])
    k0 = sectional(g, x, X, Y)
    k1 = sectional(g, x, 2.0 * X + 0.5 * Y, -0.3 * X + 1.5 * Y)
    assert abs(k0 - k1) < 1e-10


def test_dependent_vectors_rejected():
    with pytest.raises(DegeneratePlaneError):
        sectional(flat(2), np.zeros(2), [1.0, 1.0], [2.0, 2.0])


def test_scalar_curvature_flat_sphere2_sphere3():
    assert scalar_curvature(flat(4), np.zeros(4)) == 0.0
    npt.assert_allclose(scalar_curvature(round_s2(), np.array([1.2, 0.3])), 1.0,
                        atol=1e-11)
    npt.assert_allclose(scalar_curvature(round_s3(), np.array([1.2, 0.9, 0.4])), 3.0,
                        atol=1e-10)


def test_scalar_curvature_frame_independent():
    g = random_analytic_metric(5, dim=3)
    x = np.array([0.4, 0.9, 0.6])
    r4 = curvature(g, x).comp
    gm = g.value(x)
    tau = []
    for seeds in (np.eye(3), np.eye(3)[:, ::-1]):
        cols = gram_schmidt(gm, seeds)
        rf = frame_curvature(r4, cols)
        tau.append(sum(rf[i, j, j, i] for i in range(3) for j in range(i + 1, 3)))
    assert abs(tau[0] - tau[1]) < 1e-10


def test_frame_curvature_of_a_zero_tensor_matches_the_einsum():
    # the zero tensor's shortcut returns the einsum's bits, signs of zeros included
    rng = np.random.default_rng(11)
    for n, k in ((2, 2), (4, 3), (6, 3)):
        r4 = np.where(rng.random((n,) * 4) < 0.5, -0.0, 0.0)
        cols = rng.standard_normal((n, k))
        for c in (cols, -cols):
            ref = np.einsum("ijkl,ia,jb,kc,ld->abcd", r4, c, c, c, c)
            got = frame_curvature(r4, c)
            npt.assert_array_equal(got, ref)
            assert (np.signbit(got) == np.signbit(ref)).all()
        cols[1, 0] = np.nan
        got = frame_curvature(r4, cols)
        assert np.isnan(got).any()
        npt.assert_array_equal(got, np.einsum("ijkl,ia,jb,kc,ld->abcd",
                                              r4, cols, cols, cols, cols))


def _assert_einsum_bits(r4, c, got=None, layout=True):
    """frame_curvature(r4, c), or got, has the einsum's raw bits (NaN
    positions and signs for NaNs), and, with ``layout``, the strides of its
    axes longer than 1.  The zero tensor's shortcut returns C-ordered zeros,
    which read the same in any layout, so its strides are not compared."""
    got = frame_curvature(r4, c) if got is None else got
    ref = np.einsum("ijkl,ia,jb,kc,ld->abcd", r4, c, c, c, c)
    nan = np.isnan(ref)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == ref[~nan].tobytes()
    assert (np.signbit(got) == np.signbit(ref)).all()
    if layout and (r4.any() or not np.isfinite(c).all()):
        assert ([s for s, m in zip(got.strides, got.shape) if m > 1]
                == [s for s, m in zip(ref.strides, ref.shape) if m > 1])


def _r4_layouts(base, rng):
    """base stored in C order, as a block's curvature view (l slowest, then
    i, j, k), in a random axis order, and with negative strides."""
    def stored(order):
        return np.ascontiguousarray(base.transpose(order)).transpose(np.argsort(order))
    return [base, stored((3, 0, 1, 2)), stored(tuple(rng.permutation(4))),
            np.ascontiguousarray(base[::-1, :, ::-1])[::-1, :, ::-1]]


def _special_values(r4, c, kind, rng):
    """Plain draws, signed zeros, scales 1e+-300, or inf and NaN entries."""
    if kind == 1:
        r4 = np.where(rng.random(r4.shape) < 0.3, np.copysign(0.0, -r4), r4)
        c = np.where(rng.random(c.shape) < 0.3, -0.0, c)
    elif kind == 2:
        r4, c = r4 * 10.0 ** rng.choice([300, -300]), c * 10.0 ** rng.choice([300, -300, 0])
    elif kind == 3:
        r4 = np.where(rng.random(r4.shape) < 0.2, 0.0, r4)
        r4.flat[rng.integers(0, r4.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
        c[rng.integers(0, len(c)), rng.integers(0, c.shape[1])] = rng.choice(
            [np.inf, -np.inf, np.nan])
    return r4, c


def test_frame_curvature_has_the_einsum_bits_on_random_inputs():
    # every layout meets every kind of value over the shapes; column-major
    # and negative-stride columns once a shape
    rng = np.random.default_rng(2018)
    for n in range(1, 8):
        for k in range(1, n + 1):
            for layout in range(4):
                base, c = _special_values(rng.standard_normal((n,) * 4),
                                          rng.standard_normal((n, k)), (layout + n + k) % 4, rng)
                r4s = _r4_layouts(base, rng)
                _assert_einsum_bits(r4s[layout], c)
            _assert_einsum_bits(r4s[1], np.asfortranarray(c))
            _assert_einsum_bits(r4s[1], np.ascontiguousarray(c[::-1])[::-1])


def test_frame_curvature_has_the_einsum_bits_on_every_builtins_inputs(monkeypatch):
    # the stacked calls, each point's slice against its point's einsum, and
    # the per-point contractions inside them, layout included; the slices of
    # a stack of frames of three or more columns are C-ordered copies
    from warpcheck import cli, riemann, subman
    from warpcheck.gallery import builtin_names
    stacks, points_seen = [], []

    def capture(into, contract):
        def captured(r4, columns):
            got = contract(r4, columns)
            into.append((r4, columns, got))
            return got
        return captured

    monkeypatch.setattr(riemann, "_contraction", capture(points_seen, riemann._contraction))
    stacked = capture(stacks, riemann.frame_curvature)
    monkeypatch.setattr(riemann, "frame_curvature", stacked)
    monkeypatch.setattr(subman, "frame_curvature", stacked)
    for name in builtin_names():
        for points in (1, 33):
            assert cli.run(cli.RunConfig(target=name, points=points))[0] == 0
    monkeypatch.undo()
    seen = [(r4, c, got) for r4, c, got in points_seen if c.ndim == 2]
    assert {(c.shape, bool(r4.any())) for r4, c, _ in seen} >= {((4, 4), True), ((5, 4), True)}
    for r4, c, got in seen:
        _assert_einsum_bits(r4, c, got)
    assert all(c.ndim == 3 for _, c, _ in stacks)
    # 33 points are one block below a 6-dimensional ambient, and 32 + 1 in it
    assert {(len(c), c.shape[1:], bool(r4.any())) for r4, c, _ in stacks} >= {
        (33, (2, 2), True), (1, (2, 2), True), (33, (3, 2), False), (33, (5, 4), True),
        (32, (6, 3), False), (1, (6, 3), False)}
    for r4, c, got in stacks:
        for b in range(len(c)):
            _assert_einsum_bits(r4[b], c[b], got[b], layout=c.shape[2] <= 2)


# ---------------------------------------------------------------------------
# Gradient and Laplacian
# ---------------------------------------------------------------------------


def test_gradient_flat():
    psi = parse("x1", dim=2)
    npt.assert_allclose(gradient(flat(2), psi, np.array([0.3, 0.4])), [1.0, 0.0])


def test_gradient_polar_radial():
    g = polar_plane()
    psi = parse("x1", dim=2)
    x = np.array([2.0, 0.7])
    npt.assert_allclose(gradient(g, psi, x), [1.0, 0.0])


def test_grad_norm_equals_frame_sum():
    # |grad psi|^2 = sum_i (e_i psi)^2 over any orthonormal frame
    g = random_analytic_metric(17, dim=3)
    psi = parse("sin(x1)*x2 + exp(0.2*x3)", dim=3)
    x = np.array([0.7, 0.4, 0.9])
    from warpcheck.expr import eval_expr
    frame = MetricPoint(g, x).frame
    d1 = eval_expr(psi, x).d1
    frame_sum = sum(float(frame[:, i] @ d1) ** 2 for i in range(3))
    grad = gradient(g, psi, x)
    assert abs(grad @ g.value(x) @ grad - frame_sum) < 1e-10


def test_laplacian_constant_zero():
    assert laplacian(flat(2), parse("3.5", dim=2), np.zeros(2)) == 0.0


def test_laplacian_sign_convention_flat():
    # geometer's sign: lap(x1^2) = -2 on the flat line
    got = laplacian(flat(1), parse("x1^2", dim=1), np.array([0.8]))
    assert got == -2.0


def _block_with_specials(rng, b: int, n: int, kind: int) -> MetricBlock:
    """A metric block over b points of a random positive definite metric,
    diagonal at kind 1 (signed zeros in the inverse), whose first partials
    carry signed zeros (kind 1) or inf and NaN entries (kind 2)."""
    a = rng.standard_normal((b, n, n))
    g = np.eye(n) + 0.2 * (a @ np.swapaxes(a, 1, 2)) if kind != 1 else np.eye(n) * np.exp(a)
    dg = rng.standard_normal((b, n, n, n))
    dg = dg + np.swapaxes(dg, -1, -2)
    if kind == 1:
        dg = np.where(rng.random(dg.shape) < 0.4, np.copysign(0.0, dg), dg)
    elif kind == 2:
        dg.flat[rng.integers(0, dg.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
    return MetricBlock(None, np.zeros((b, n)), lambda: (g, dg, np.zeros((b, n, n, n, n))))


def _field_partials(rng, b: int, n: int, kind: int, constant: bool):
    """First and second partials of a field over b points, C-ordered as a
    block's jets hand them over, or broadcast from one point's as a constant
    field's; with signed zeros (kind 1), or inf and NaN entries (kind 2)."""
    lead = () if constant else (b,)
    d1, d2 = rng.standard_normal(lead + (n,)), rng.standard_normal(lead + (n, n))
    if kind == 1:
        d1, d2 = (np.where(rng.random(d.shape) < 0.5, np.copysign(0.0, d), d) for d in (d1, d2))
    elif kind == 2:
        for d in (d1, d2):
            d.flat[rng.integers(0, d.size)] = rng.choice([np.inf, -np.inf, np.nan])
    return np.broadcast_to(d1, (b, n)), np.broadcast_to(d2, (b, n, n))


def _as_int64(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def test_block_laplacian_and_dual_terms_have_each_points_bits():
    # against each point's own einsums and matmuls, as int64 views: random
    # draws at n = 1..7 with signed zeros, inf and NaN, over blocks of 1, 3
    # and 32 points, and a point of a block (a block of one, sliced)
    rng = np.random.default_rng(2024)
    with np.errstate(all="ignore"):
        for n in range(1, 8):
            for kind in range(3):
                for b in (1, 3, 32):
                    block = _block_with_specials(rng, b, n, kind)
                    ginv, gamma = block.ginv, block.gamma
                    for constant in (False, True):
                        d1, d2 = _field_partials(rng, b, n, kind, constant)
                        psi = Jet3(n, np.ones(b), d1, d2)
                        lap = [np.einsum("ij,kij,k->", ginv[k], gamma[k], d1[k])
                               - np.einsum("ij,ij->", ginv[k], d2[k]) for k in range(b)]
                        what = (n, kind, b, constant)
                        assert (_as_int64(block.laplacian(psi)) == _as_int64(lap)).all(), what
                        at = [block[k].laplacian(Jet3(n, 1.0, d1[k], d2[k])) for k in range(b)]
                        assert (_as_int64(at) == _as_int64(lap)).all(), what
                        dual = [ginv[k] @ d1[k] for k in range(b)]
                        assert (_as_int64(block.dual(d1)) == _as_int64(dual)).all(), what
                        sq = [d1[k] @ ginv[k] @ d1[k] for k in range(b)]
                        assert (_as_int64(block.dual_norm_sq(d1)) == _as_int64(sq)).all(), what


def test_the_batched_trace_sums_in_another_order_at_n_2():
    # why the block spells out the point's einsum at n = 2: the batched
    # three-operand einsum differs from it in the last bits there
    rng = np.random.default_rng(7)
    block = _block_with_specials(rng, 32, 2, 0)
    d1, _ = _field_partials(rng, 32, 2, 0, False)
    point = [np.einsum("ij,kij,k->", block.ginv[k], block.gamma[k], d1[k]) for k in range(32)]
    batched = np.einsum("...ij,...kij,...k->...", block.ginv, block.gamma, d1)
    assert (_as_int64(batched) != _as_int64(point)).any()


def test_log_radius_harmonic_in_plane():
    # ln r on the punctured flat plane, Cartesian chart
    psi = parse("ln(sqrt(x1^2 + x2^2))", dim=2)
    got = laplacian(flat(2), psi, np.array([0.6, -1.1]))
    assert abs(got) < 1e-13


def test_flat_laplacian_equals_negative_trace():
    psi = parse("sin(x1)*exp(x2) + x1^2*x2", dim=2)
    x = np.array([0.5, 0.3])
    from warpcheck.expr import eval_expr
    j = eval_expr(psi, x)
    assert laplacian(flat(2), psi, x) == -(j.d2[0, 0] + j.d2[1, 1])


def test_laplacian_matches_fd_oracle():
    g = polar_plane()
    psi = parse("x1^2 * sin(x2)", dim=2)

    def psi_val(x):
        from warpcheck.expr import eval_value
        return eval_value(psi, x)

    x = np.array([1.4, 0.6])
    # Laplace-Beltrami in coordinates, assembled from fd derivatives
    g0, dg, _ = g.derivs(x)
    ginv = np.linalg.inv(g0)
    from warpcheck.riemann import christoffel as chr_
    gam = chr_(g, x)
    d1 = np.array([fd_partial(psi_val, x, (i,)) for i in range(2)])
    d2 = np.array([[fd_partial(psi_val, x, (i, j)) for j in range(2)] for i in range(2)])
    expected = float(np.einsum("ij,kij,k->", ginv, gam, d1) - np.einsum("ij,ij->", ginv, d2))
    assert abs(laplacian(g, psi, x) - expected) < 1e-4


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def test_flat_frame_is_coordinate_frame():
    npt.assert_allclose(MetricPoint(flat(3), np.zeros(3)).frame, np.eye(3))


def test_polar_frame_normalizes_angular_direction():
    r = 2.5
    f = MetricPoint(polar_plane(), np.array([r, 0.0])).frame
    npt.assert_allclose(f[:, 0], [1.0, 0.0])
    npt.assert_allclose(f[:, 1], [0.0, 1.0 / r])


def test_diagonal_metric_frame():
    g = MetricField.from_strings([["4", "0"], ["0", "9"]])
    npt.assert_allclose(MetricPoint(g, np.zeros(2)).frame, [[0.5, 0.0], [0.0, 1.0 / 3.0]])


def test_frame_orthonormality_residual():
    g = random_analytic_metric(23, dim=4)
    x = np.array([0.2, 0.5, 0.8, 0.3])
    f = MetricPoint(g, x).frame
    assert np.max(np.abs(f.T @ g.value(x) @ f - np.eye(4))) < 1e-10


def test_dependent_seeds_rejected():
    seeds = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DependentSeedsError):
        gram_schmidt(np.eye(2), seeds)


def test_a_stack_raises_for_a_dependent_seed_at_any_point():
    # the message is the one the failing point raises on its own
    seeds = np.stack([np.eye(2), [[1.0, 2.0], [1.0, 2.0]]])
    with pytest.raises(DependentSeedsError, match="^seed 1 is dependent on earlier seeds$"):
        gram_schmidt(np.stack([np.eye(2), np.eye(2)]), seeds)


# ---------------------------------------------------------------------------
# Stacked Gram-Schmidt: each point keeps the bits of its own 1-D products
# ---------------------------------------------------------------------------


def _assert_same_bits(got, ref):
    """Raw bits of the non-NaN entries, NaN positions and sign bits agree."""
    got, ref = np.asarray(got), np.asarray(ref)
    nan = np.isnan(ref)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == ref[~nan].tobytes()
    assert (np.signbit(got) == np.signbit(ref)).all()


def _stack_layouts(a):
    """a itself, a strided view of a wider copy, and a reversed view."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return [a, wide[..., ::2], np.ascontiguousarray(a[..., ::-1])[..., ::-1]]


def test_stacked_matmul_has_the_bits_of_each_slices_products():
    # the premise of the stacked step and of SFFData.norms: a stacked matmul
    # runs, on each slice, the kernel of the 1-D products u @ g and
    # (u @ g) @ v with the same strides; v nearly orthogonal to u makes the
    # result a cancellation, where any other order or a fused multiply-add
    # shows in the last bits
    rng = np.random.default_rng(1411)
    with np.errstate(all="ignore"):
        for n in range(1, 10):
            for kind in range(4):
                b = int(rng.integers(1, 33))
                g = rng.standard_normal((b, n, n))
                u = rng.standard_normal((b, n))
                w = rng.standard_normal((b, n))
                v = w - (np.sum(u * w, 1) / np.sum(u * u, 1))[:, None] * u
                if kind == 1:
                    u = np.where(rng.random(u.shape) < 0.3, np.copysign(0.0, -u), u)
                    v = np.where(rng.random(v.shape) < 0.3, -0.0, v)
                elif kind == 2:
                    g = g * 10.0 ** rng.choice([300, -300, 0])
                    u = u * 10.0 ** rng.choice([300, -300])
                elif kind == 3:
                    g.flat[rng.integers(0, g.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
                    v[rng.integers(0, b), rng.integers(0, n)] = rng.choice([np.inf, np.nan])
                for uu, vv in zip(_stack_layouts(u), _stack_layouts(v)[::-1]):
                    for gg in (g, np.swapaxes(g, 1, 2)):
                        ug = uu[:, None] @ gg
                        ugv = (ug @ vv[:, :, None])[:, 0, 0]
                        for k in range(b):
                            _assert_same_bits(ug[k, 0], uu[k] @ gg[k])
                            _assert_same_bits(ugv[k], uu[k] @ gg[k] @ vv[k])


def test_a_strided_row_reads_alike_at_any_stride():
    # a point's column-stacked basis holds its rows at a stride that grows
    # with its columns; a stack reads them at one stride for every point
    rng = np.random.default_rng(29)
    for n in range(1, 10):
        b = int(rng.integers(1, 33))
        g = rng.standard_normal((b, n, n))
        v = rng.standard_normal((b, n))
        cols = rng.standard_normal((b, n, 12))
        ref = np.swapaxes(cols[:, :, :2].copy(), 1, 2)[:, 0]
        for k in range(3, 13):
            u = np.swapaxes(cols[:, :, :k].copy(), 1, 2)[:, 0]
            _assert_same_bits(u[:, None] @ g, ref[:, None] @ g)
            _assert_same_bits(u[:, None] @ g @ v[:, :, None], ref[:, None] @ g @ v[:, :, None])


def _scalar_step(g, basis, seed, threshold):
    """A point-by-point step, the oracle of the stacked one."""
    v = seed.astype(float).copy()
    for _ in range(2):
        for u in basis:
            v -= (u @ g @ v) * u
    nrm = math.sqrt(max(v @ g @ v, 0.0))
    return None if nrm < threshold else v / nrm


def _scalar_completion(g, tangent, priority, m, threshold):
    """A point-by-point normal completion, the oracle of the stacked one:
    the oracle step against a column-stacked basis, the priority seeds
    always, then coordinate seeds while short of m columns.  Returns the
    normal columns and how many came from priority seeds."""
    accepted, n_priority = tangent.copy(), 0
    for j, seed in enumerate(list(priority.T) + list(np.eye(m))):
        if j >= priority.shape[1] and accepted.shape[1] == m:
            break
        v = _scalar_step(g, accepted.T, seed, threshold)
        if v is not None:
            accepted = np.column_stack([accepted, v])
            n_priority += j < priority.shape[1]
    return accepted[:, tangent.shape[1]:], n_priority


def test_stacked_completion_has_the_bits_of_the_scalar_steps():
    # ragged acceptance: each point's tangent frame is spanned by a random
    # choice of coordinate axes or by random vectors, and priority seeds
    # may repeat a tangent vector, so points skip different dependent seeds
    # and hold bases of different lengths at each step
    rng = np.random.default_rng(77)
    for m in range(2, 8):
        for n in range(1, m):
            b, p = int(rng.integers(1, 33)), int(rng.integers(0, 3))
            a = rng.standard_normal((b, m, m))
            g = a @ np.swapaxes(a, 1, 2) + m * np.eye(m)
            tangent = np.empty((b, m, n))
            priority = rng.standard_normal((b, m, p))
            for k in range(b):
                seeds = (np.eye(m)[:, rng.permutation(m)[:n]] if rng.random() < 0.5
                         else rng.standard_normal((m, n)))
                tangent[k] = gram_schmidt(g[k], seeds)
                for j in range(p):
                    if rng.random() < 0.4:
                        priority[k, :, j] = 3.0 * tangent[k, :, rng.integers(0, n)]
            normal, n_priority = subman._normal_frames(g, tangent, priority)
            for k in range(b):
                ref, ref_priority = _scalar_completion(g[k], tangent[k], priority[k], m,
                                                       subman.NORMAL_COMPLETION_THRESHOLD)
                _assert_same_bits(normal[k], ref)
                assert normal[k].flags.c_contiguous
                assert n_priority[k] == ref_priority


def _looped_normal_completion(g_amb, tangent_amb, priority):
    """The normal completion loop as it stood before ``subman._complete``, an
    oracle: priority seeds at every point, then coordinate seeds while a
    point is short of m columns, into a column-stacked basis."""
    b, m, n = tangent_amb.shape
    p = 0 if priority is None else priority.shape[2]
    cols = np.zeros((b, m, m + p))
    cols[:, :, :n] = tangent_amb
    counts, n_priority = np.full(b, n), np.zeros(b, dtype=int)
    seeds = [] if priority is None else list(np.moveaxis(priority, 2, 0))
    for j, seed in enumerate(seeds + list(np.eye(m))):
        active = np.full(b, j < p) | (counts < m)
        if not active.any():
            break
        v, ok = gram_schmidt_step(g_amb, np.swapaxes(cols, 1, 2), counts,
                                  np.broadcast_to(seed, (b, m)), active,
                                  subman.NORMAL_COMPLETION_THRESHOLD)
        cols[ok, :, counts[ok]] = v[ok]
        counts += ok
        n_priority += ok & (j < p)
    return cols, counts, n_priority


def _looped_leaf_completion(g, seeds, n1):
    """The contact suite's leaf-frame loop as it stood before
    ``subman._complete``, an oracle: one point, a row-stacked basis, each
    seed (column) tried while the point is short of n1 rows."""
    rows, count = np.zeros((1, n1, len(g))), np.zeros(1, dtype=int)
    for seed in seeds.T:
        v, ok = gram_schmidt_step(g[None], rows, count, seed[None], count < n1, 1e-8)
        if ok[0]:
            rows[0, count[0]] = v[0]
            count += 1
    return rows, count


def _spd_stack(rng, b, m, nan_points=0):
    a = rng.standard_normal((b, m, m))
    g = a @ np.swapaxes(a, 1, 2) + m * np.eye(m)
    g[rng.permutation(b)[:nan_points], rng.integers(0, m), rng.integers(0, m)] = np.nan
    return g


def test_completion_has_the_bits_of_the_normal_frame_loop():
    # column-stacked bases: ragged acceptance (priority seeds that repeat a
    # tangent vector at some points), dependent seeds and NaN norms, whose
    # points accept every seed
    rng = np.random.default_rng(2024)
    with np.errstate(invalid="ignore"):
        for m in range(2, 8):
            for n in range(1, m):
                b, p = int(rng.integers(1, 33)), int(rng.integers(0, 3))
                g = _spd_stack(rng, b, m, nan_points=int(rng.integers(0, 3)))
                tangent = rng.standard_normal((b, m, n))
                priority = rng.standard_normal((b, m, p))
                for k in range(b):
                    for j in range(p):
                        if rng.random() < 0.4:
                            priority[k, :, j] = 3.0 * tangent[k, :, rng.integers(0, n)]
                ref, ref_counts, ref_forced = _looped_normal_completion(
                    g, tangent, priority if p else None)
                cols = np.zeros((b, m, m + p))
                cols[:, :, :n] = tangent
                seeds = np.concatenate([priority, np.broadcast_to(np.eye(m), (b, m, m))], 2)
                counts, forced = subman._complete(g, np.swapaxes(cols, 1, 2), np.full(b, n),
                                                  seeds, m, p)
                _assert_same_bits(cols, ref)
                assert counts.tolist() == ref_counts.tolist()
                assert forced.tolist() == ref_forced.tolist()


def test_completion_has_the_bits_of_the_leaf_frame_loop():
    # row-stacked bases: the loop point by point against one stacked call,
    # with dependent seeds (a repeated or scaled earlier seed), too few
    # independent seeds to finish, and NaN norms
    rng = np.random.default_rng(515)
    with np.errstate(invalid="ignore"):
        for n in range(2, 8):
            for n1 in range(1, n + 1):
                b = int(rng.integers(1, 17))
                g = _spd_stack(rng, b, n, nan_points=int(rng.integers(0, 2)))
                seeds = rng.standard_normal((b, n, n1 + 1))
                for k in range(b):
                    for j in range(1, n1 + 1):
                        if rng.random() < 0.3:
                            seeds[k, :, j] = -2.0 * seeds[k, :, rng.integers(0, j)]
                rows = np.zeros((b, n1, n))
                counts, _ = subman._complete(g, rows, np.zeros(b, dtype=int), seeds, n1)
                for k in range(b):
                    ref, ref_count = _looped_leaf_completion(g[k], seeds[k], n1)
                    _assert_same_bits(rows[k], ref[0])
                    assert counts[k] == ref_count[0]
                    one = np.zeros((1, n1, n))
                    subman._complete(g[k:k + 1], one, np.zeros(1, dtype=int), seeds[k], n1)
                    _assert_same_bits(one, ref)


def test_stacked_frames_have_the_bits_of_the_scalar_steps():
    # gram_schmidt over a stack against the oracle step point by point, the
    # seeds given once for all points or per point
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        b = int(rng.integers(1, 33))
        a = rng.standard_normal((b, n, n))
        g = a @ np.swapaxes(a, 1, 2) + n * np.eye(n)
        for seeds in (np.eye(n), rng.standard_normal((b, n, n))):
            cols = gram_schmidt(g, seeds)
            for k in range(b):
                ref = np.zeros((n, 0))
                for seed in np.broadcast_to(seeds, (b, n, n))[k].T:
                    ref = np.column_stack([ref, _scalar_step(g[k], ref.T, seed, 1e-12)])
                _assert_same_bits(cols[k], ref)
                _assert_same_bits(gram_schmidt(g[k], np.broadcast_to(seeds, (b, n, n))[k]), ref)


def test_stacked_step_accepts_a_nan_norm_and_leaves_inactive_points():
    g = np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)])
    basis = np.zeros((3, 2, 2))
    basis[:, 0] = [1.0, 0.0]
    seeds = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with np.errstate(invalid="ignore"):
        v, ok = gram_schmidt_step(g, basis, np.array([1, 1, 1]), seeds,
                                  np.array([True, True, True]), 1e-8)
        assert _scalar_step(g[1], basis[1, :1], seeds[1], 1e-8) is not None
    # a NaN norm is not below the threshold, as it was not point by point;
    # a seed inside the basis is; an inactive point keeps its seed
    assert ok.tolist() == [True, True, False]
    _assert_same_bits(v[0], _scalar_step(g[0], basis[0, :1], seeds[0], 1e-8))
    assert np.isnan(v[1]).all()
    v, ok = gram_schmidt_step(g[::2], basis[::2], np.array([1, 0]), seeds[::2],
                              np.array([False, True]), 1e-8)
    assert ok.tolist() == [False, True]
    _assert_same_bits(v[0], seeds[0])
    _assert_same_bits(v[1], seeds[2])


# ---------------------------------------------------------------------------
# Sub-chart blocks
# ---------------------------------------------------------------------------


def test_sliced_metric_restricts_block():
    g = MetricField.from_strings(
        [["1", "0", "0"], ["0", "exp(2*x1)", "0"], ["0", "0", "x1^2"]])
    anchor = np.array([0.5, 1.0, 2.0])
    leaf = MetricBlock(g, anchor[None]).block((0,))
    assert leaf.metric is None and leaf.points.shape == (1, 1)
    g0, dg, d2g = leaf[0].derivs
    npt.assert_allclose(g0, [[1.0]])
    assert dg.shape == (1, 1, 1) and d2g.shape == (1, 1, 1, 1)
    # Laplacian of f(x1)=x1^2 on the 1-d leaf: -2
    assert leaf[0].laplacian(eval_expr(parse("x1^2", dim=1), np.array([0.5]))) == -2.0


def test_sliced_metric_frame_is_gram_schmidt_of_its_block():
    # a sub-chart record's value is the in-block entries of the base block's
    g = load_builtin("e2").subject.metric
    for axes, x in (((0,), [0.5]), ((1,), [0.3]), ((0, 1), [0.3, 0.7])):
        full = np.array([0.5, 0.2])
        full[list(axes)] = x
        base = MetricBlock(g, full[None])
        leaf = base.block(axes)
        npt.assert_array_equal(leaf[0].value, base.derivs[0][0][np.ix_(axes, axes)])
        npt.assert_array_equal(leaf[0].frame,
                               gram_schmidt(leaf.derivs[0][0], np.eye(len(axes))))


def test_validation_reports_the_first_failing_point():
    # both points sit in one evaluation block: the first is not positive
    # definite, the second is outside the domain of ln; the first point's
    # error is the one raised, as in a point-by-point walk
    g = MetricField.from_strings([["x1", "0"], ["0", "ln(x1 + 0.9)"]])
    with pytest.raises(DegenerateMetricError):
        g.validate_at([np.array([-0.5, 0.0]), np.array([-0.95, 0.0])])
    with pytest.raises(JetDomainError):
        g.validate_at([np.array([-0.95, 0.0]), np.array([-0.5, 0.0])])
