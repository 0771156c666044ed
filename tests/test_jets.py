"""Unit tests for the order-3 jet arithmetic and the finite-difference oracle."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from warpcheck import expr, jets
from warpcheck.errors import JetDomainError
from warpcheck.jets import (DomainBox, ExcludedBall, Jet3, fd_partial, jet_const,
                            jet_var, pack)

# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def test_const_jet_has_zero_derivatives():
    j = jet_const(5.0, 2)
    assert j.value == 5.0
    npt.assert_array_equal(j.d1, [0.0, 0.0])
    assert not j.d2.any() and not j.d3.any()


def test_const_jet_zero_case():
    j = jet_const(0.0, 3)
    assert j.value == 0.0
    assert not j.d1.any() and not j.d2.any() and not j.d3.any()


def test_const_jet_negative():
    j = jet_const(-1.5, 1)
    assert j.value == -1.5
    npt.assert_array_equal(j.d1, [0.0])


def test_const_jet_rejects_bad_dim():
    with pytest.raises(ValueError):
        jet_const(1.0, 0)


def test_var_jet_is_coordinate_function():
    x = np.array([2.0, 3.0])
    j0 = jet_var(0, x)
    assert j0.value == 2.0
    npt.assert_array_equal(j0.d1, [1.0, 0.0])
    j1 = jet_var(1, x)
    assert j1.value == 3.0
    npt.assert_array_equal(j1.d1, [0.0, 1.0])


def test_var_jet_index_out_of_range():
    with pytest.raises(IndexError):
        jet_var(2, np.array([0.0, 0.0]))


@pytest.mark.parametrize("x", [[2.0, 3.0, 5.0], [[2.0, 3.0, 5.0], [-1.0, 0.5, 4.0]]])
def test_coordinate_jets_have_full_zero_slots(x):
    # the coordinates share one zero d2 and one zero d3, each of full shape
    x = np.array(x)
    seeds = jets.coordinate_jets(x)
    for i, j in enumerate(seeds):
        alone = jet_var(i, x)
        npt.assert_array_equal(j.value, x[..., i])
        npt.assert_array_equal(j.d1, alone.d1)
        for got, k in ((j.d2, 2), (j.d3, 3)):
            assert got.shape == x.shape[:-1] + (3,) * k and not got.any()
            assert not got.flags.writeable
    assert all(j.d2 is seeds[0].d2 and j.d3 is seeds[0].d3 for j in seeds)
    # the exponent rule still reads the shared d3 of x2^3 at x2 = 0
    point = np.array([-1.0, 0.0])
    for at in (point, np.stack([point, [2.0, 1.0]])):
        with pytest.raises(JetDomainError):
            expr.eval_jets(expr.parse("x1^(x2^3)", dim=2), jets.coordinate_jets(at), order=0)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_product_of_coordinates_is_bilinear():
    x = np.array([2.0, 3.0])
    p = jet_var(0, x) * jet_var(1, x)
    assert p.value == 6.0
    npt.assert_array_equal(p.d1, [3.0, 2.0])
    assert p.d2[0, 1] == 1.0 and p.d2[1, 0] == 1.0
    assert p.d2[0, 0] == 0.0 and p.d2[1, 1] == 0.0
    assert not p.d3.any()


def test_sin_jet_at_zero_matches_series():
    # sin: value 0, first derivative 1, second 0, third -1
    j = jets.sin(jet_var(0, np.array([0.0])))
    assert j.value == 0.0
    npt.assert_allclose(j.d1, [1.0])
    npt.assert_allclose(j.d2, [[0.0]])
    npt.assert_allclose(j.d3, [[[-1.0]]])


def test_exp_jet_all_slots_equal_e():
    j = jets.exp(jet_var(0, np.array([1.0])))
    e = math.e
    npt.assert_allclose([j.value, j.d1[0], j.d2[0, 0], j.d3[0, 0, 0]], [e] * 4,
                        rtol=1e-15)


def test_quotient_and_chain():
    # f(x) = 1 / (1 + x^2) at x = 2: f = 1/5, f' = -4/25, f'' = 22/125,
    # f''' = 24x(1+x^2)^-3 - 48x^3(1+x^2)^-4 = -144/625
    x = jet_var(0, np.array([2.0]))
    f = 1.0 / (1.0 + x * x)
    npt.assert_allclose(f.value, 0.2, rtol=1e-15)
    npt.assert_allclose(f.d1[0], -4.0 / 25.0, rtol=1e-14)
    npt.assert_allclose(f.d2[0, 0], 22.0 / 125.0, rtol=1e-13)
    npt.assert_allclose(f.d3[0, 0, 0], -144.0 / 625.0, rtol=1e-13)


def test_division_by_zero_value_raises():
    x = jet_var(0, np.array([0.0]))
    with pytest.raises(JetDomainError):
        jet_const(1.0, 1) / x


def test_ln_requires_positive_value():
    with pytest.raises(JetDomainError):
        jets.ln(jet_var(0, np.array([0.0])))
    with pytest.raises(JetDomainError):
        jets.sqrt(jet_const(-1.0, 1))


def test_float_overflow_is_a_domain_error():
    with pytest.raises(JetDomainError):
        jets.exp(jet_const(800.0, 1))
    with pytest.raises(JetDomainError):
        jet_var(0, np.array([1e200])) ** 3


def test_coefficient_underflow_is_a_domain_error():
    # the derivative coefficients -6/u^4, 0.375/(s v^2) and 2/v^3 underflow
    # to a division by zero for arguments still above the smallest normal
    with pytest.raises(JetDomainError):
        jet_const(1.0, 1) / jet_var(0, np.array([1e-100]))
    with pytest.raises(JetDomainError):
        jets.sqrt(jet_var(0, np.array([1e-200])))
    with pytest.raises(JetDomainError):
        jets.ln(jet_var(0, np.array([1e-160])))
    with pytest.raises(JetDomainError):
        jets.ln(jet_var(0, np.array([1e200])))


@pytest.mark.parametrize("fn, v, top", [
    (lambda u: 1.0 / u, 1e-100, 2), (jets.sqrt, 1e-200, 2), (jets.ln, 1e-160, 1),
    (jets.ln, 1e-110, 2), (jets.ln, 1e200, 1), (lambda u: u ** -1.0, 1e-110, 1)])
def test_coefficients_past_the_jet_order_are_not_computed(fn, v, top):
    # a coefficient fails only a jet that carries its order: the jets above
    # top raise, the lower ones pass with the slots through their order (ln's
    # -1/v^2 at 1e-160 divides by a subnormal and overflows to -inf, so its
    # order-2 jet raises too)
    x = jet_var(0, np.array([v]))
    for order in range(4):
        if order > top:
            with pytest.raises(JetDomainError):
                fn(x.truncated(order))
        else:
            assert fn(x.truncated(order)).order == order


def test_truncated_coefficients_keep_their_bits():
    v = 1e-110
    j = jets.ln(jet_var(0, np.array([v])).truncated(2))
    assert [j.value, j.d1[0], j.d2[0, 0]] == [math.log(v), 1.0 / v, -1.0 / v**2]


def test_integer_power_at_zero_base():
    # x^2 at x=0: value 0, f'=0, f''=2, f'''=0
    j = jet_var(0, np.array([0.0])) ** 2
    npt.assert_allclose([j.value, j.d1[0], j.d2[0, 0], j.d3[0, 0, 0]],
                        [0.0, 0.0, 2.0, 0.0])


def test_negative_base_integer_power():
    j = jet_var(0, np.array([-2.0])) ** 3
    npt.assert_allclose([j.value, j.d1[0], j.d2[0, 0], j.d3[0, 0, 0]],
                        [-8.0, 12.0, -12.0, 6.0])


def test_fractional_power_matches_sqrt():
    x = jet_var(0, np.array([2.7]))
    a, b = x ** 0.5, jets.sqrt(x)
    npt.assert_allclose(a.value, b.value, rtol=1e-15)
    npt.assert_allclose(a.d1, b.d1, rtol=1e-14)
    npt.assert_allclose(a.d2, b.d2, rtol=1e-14)
    npt.assert_allclose(a.d3, b.d3, rtol=1e-13)


def test_jet_valued_exponent():
    # x^x at x=2 via exp(x ln x): value 4, d1 = 4(ln2 + 1)
    x = jet_var(0, np.array([2.0]))
    f = x ** x
    npt.assert_allclose(f.value, 4.0, rtol=1e-15)
    npt.assert_allclose(f.d1[0], 4.0 * (math.log(2.0) + 1.0), rtol=1e-14)


def test_mismatched_dims_rejected():
    with pytest.raises(ValueError):
        jet_const(1.0, 2) + jet_const(1.0, 3)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def _random_jet(rng, dim):
    """A generic smooth function of the coordinates, built by jet arithmetic."""
    x = rng.uniform(0.2, 1.5, size=dim)
    j = jet_const(rng.uniform(0.5, 2.0), dim)
    for i in range(dim):
        j = j + rng.uniform(-1, 1) * jets.sin(jet_var(i, x)) \
              + rng.uniform(-1, 1) * jets.exp(jet_var(i, x) * 0.3)
        j = j * (1.0 + 0.1 * jet_var(i, x))
    return j


def test_derivative_tensors_symmetric():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 4):
        j = _random_jet(rng, dim)
        assert j.symmetry_residual() == 0.0


def test_linearity_cancellation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f, g = _random_jet(rng, 3), _random_jet(rng, 3)
        z = (f + g) - f - g
        assert abs(z.value) <= 1e-14
        assert np.max(np.abs(z.d1)) <= 1e-14
        assert np.max(np.abs(z.d2)) <= 1e-14
        assert np.max(np.abs(z.d3)) <= 1e-13


# ---------------------------------------------------------------------------
# Truncated jets
# ---------------------------------------------------------------------------


def _sample_jet(x, order=3):
    u, v = (j.truncated(order) for j in (jet_var(0, x), jet_var(1, x)))
    return jets.sin(u) * jets.exp(v) / (u * u + 2.0) - v ** 3.0


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_truncated_jet_keeps_the_bits_of_its_slots(order):
    x = np.array([[0.7, 0.4], [-1.3, 0.9], [0.2, -2.1]])
    full, low = _sample_jet(x), _sample_jet(x, order)
    assert low.order == order
    assert low.derivs[order:] == (None,) * (3 - order)
    for got, want in zip((low.value,) + low.derivs[:order], (full.value,) + full.derivs):
        npt.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_packing_a_slot_above_a_jets_order_raises(order):
    j = _sample_jet(np.array([[0.7, 0.4]]), order)
    pack([({(0, 0)}, j)], (1,), 2, (1, 1), order)  # its own order packs
    with pytest.raises(ValueError, match=f"order {order + 1} from a jet of order {order}"):
        pack([({(0, 0)}, j)], (1,), 2, (1, 1), order + 1)
    with pytest.raises(ValueError, match="multi-index too long"):
        j.partial((0,) * (order + 1))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_first_derivative_of_square():
    # d/dx of x^2 at x=3 is 6
    got = fd_partial(lambda x: x[0] ** 2, np.array([3.0]), (0,), step=1e-4)
    assert abs(got - 6.0) < 1e-6


def test_fd_second_derivative_of_constant():
    got = fd_partial(lambda x: 4.25, np.array([1.0]), (0, 0))
    assert abs(got) < 1e-6


def test_fd_third_derivative_of_cubic():
    got = fd_partial(lambda x: x[0] ** 3, np.array([0.37]), (0, 0, 0), step=1e-2)
    assert abs(got - 6.0) < 1e-3


def test_fd_mixed_partial():
    # d^2/(dx dy) of x^2 y at (2, 5) is 2x = 4
    got = fd_partial(lambda x: x[0] ** 2 * x[1], np.array([2.0, 5.0]), (0, 1))
    assert abs(got - 4.0) < 1e-5


def test_fd_stencil_domain_guard():
    box = DomainBox(lo=(0.0,), hi=(1.0,))
    with pytest.raises(ValueError):
        fd_partial(lambda x: x[0], np.array([0.99999]), (0,), step=1e-3, box=box)


def test_jets_agree_with_fd_on_random_fields():
    """Property: every jet partial of order <= 3 matches the oracle to C*step^2.

    Calibration for this function class (bounded trig/exp/log compositions):
    orders 1-2 use step 1e-4, so C*step^2 = 1e-5 allows C = 1e3, dominated by
    the 1e-8 cancellation floor of nested second-order stencils; order 3 uses
    step 1e-2, so 2e-3 allows C = 20 for the fifth-derivative truncation term.
    """
    rng = np.random.default_rng(42)
    dim = 2

    def make_field(seed):
        r = np.random.default_rng(seed)
        c = r.uniform(-1, 1, size=6)

        def f_jet(x):
            a, b = jet_var(0, x), jet_var(1, x)
            return (c[0] * jets.sin(a) * jets.cos(b) + c[1] * jets.exp(0.4 * a * b)
                    + c[2] * a * a * b + c[3] * jets.ln(1.5 + a)
                    + c[4] * jets.sqrt(2.0 + b) + c[5])

        def f_val(x):
            return f_jet(x).value

        return f_jet, f_val

    for seed in range(5):
        f_jet, f_val = make_field(seed)
        for _ in range(4):
            x = rng.uniform(0.1, 1.2, size=dim)
            j = f_jet(x)
            for idx in [(0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 1), (1, 1, 1)]:
                got = fd_partial(f_val, x, idx)
                tol = 1e-5 if len(idx) < 3 else 2e-3
                assert abs(got - j.partial(idx)) < tol, (seed, x, idx)


# ---------------------------------------------------------------------------
# Domain boxes
# ---------------------------------------------------------------------------


def test_domain_box_membership():
    box = DomainBox(lo=(-1.0, -1.0, 0.1), hi=(1.0, 1.0, 1.4),
                    balls=(ExcludedBall(center=(0.0, 0.0), radius=0.1, axes=(0, 1)),))
    assert box.contains(np.array([0.5, 0.5, 1.0]))
    assert not box.contains(np.array([0.05, 0.0, 1.0]))   # inside excluded ball
    assert not box.contains(np.array([0.5, 0.5, 1.5]))    # above box
    assert box.dim == 3


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(lo=(0.0,), hi=(0.0,))
    with pytest.raises(ValueError):
        DomainBox(lo=(0.0,), hi=(1.0,), balls=(ExcludedBall((0.5,), -1.0),))
