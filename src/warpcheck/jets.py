"""Truncated multivariate Taylor arithmetic to order 3, plus a finite-difference oracle.

A ``Jet3`` carries the value of a scalar quantity together with all of its
partial derivatives through third order at a point.  Arithmetic on jets
propagates derivatives exactly (Leibniz rule for products, Faa di Bruno for
unary functions), so every geometric quantity downstream — connection
coefficients, curvature, Laplacians, second fundamental forms — is computed
without truncation error beyond float round-off.

Order 3 is the minimum that supports intrinsic curvature of an induced
metric: curvature needs two derivatives of the metric, and an induced metric
already consumes one derivative of the immersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import JetDomainError

# Smallest normal double: values below this in a denominator, log or root
# would overflow derivative slots, so they are domain errors, not inputs.
_TINY = 2.2250738585072014e-308

# A chart point is just a float vector; no wrapper class.
Point = np.ndarray


def as_point(coords) -> Point:
    """Coerce to a finite 1-d float array."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"point must be 1-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    return x


# ---------------------------------------------------------------------------
# Jet3
# ---------------------------------------------------------------------------


def _sym_outer(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized outer product: out[i,j,k] = m[i,j]v[k] + m[i,k]v[j] + m[j,k]v[i]."""
    t = np.multiply.outer(m, v)
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


@dataclass
class Jet3:
    """Value plus symmetric derivative tensors of orders 1..3 at a point.

    Instances are treated as immutable; every operation returns a new jet.
    """

    dim: int
    value: float
    d1: np.ndarray  # shape (dim,)
    d2: np.ndarray  # shape (dim, dim), symmetric
    d3: np.ndarray  # shape (dim, dim, dim), fully symmetric

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            if other.dim != self.dim:
                raise ValueError(f"jet dims differ: {self.dim} vs {other.dim}")
            return other
        return jet_const(float(other), self.dim)

    def __add__(self, other) -> "Jet3":
        o = self._coerce(other)
        return Jet3(self.dim, self.value + o.value, self.d1 + o.d1,
                    self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(self.dim, -self.value, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other) -> "Jet3":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet3":
        return (-self) + other

    def __mul__(self, other) -> "Jet3":
        o = self._coerce(other)
        v = self.value * o.value
        d1 = self.d1 * o.value + self.value * o.d1
        d2 = (self.d2 * o.value + self.value * o.d2
              + np.outer(self.d1, o.d1) + np.outer(o.d1, self.d1))
        d3 = (self.d3 * o.value + self.value * o.d3
              + _sym_outer(self.d2, o.d1) + _sym_outer(o.d2, self.d1))
        return Jet3(self.dim, v, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        o = self._coerce(other)
        if abs(o.value) < _TINY:
            raise JetDomainError("/", o.value)
        u = o.value
        recip = _lift(o, 1.0 / u, -1.0 / u**2, 2.0 / u**3, -6.0 / u**4)
        return self * recip

    def __rtruediv__(self, other) -> "Jet3":
        return self._coerce(other) / self

    def __pow__(self, other) -> "Jet3":
        if isinstance(other, Jet3) and not other.is_constant():
            # general exponent: f^g = exp(g ln f), needs f > 0
            if self.value <= 0.0:
                raise JetDomainError("pow", self.value)
            return exp(other * ln(self))
        c = other.value if isinstance(other, Jet3) else float(other)
        return _pow_const(self, c)

    def is_constant(self, tol: float = 0.0) -> bool:
        return (np.all(np.abs(self.d1) <= tol) and np.all(np.abs(self.d2) <= tol)
                and np.all(np.abs(self.d3) <= tol))

    # -- inspection -------------------------------------------------------

    def partial(self, multi_index: Sequence[int]) -> float:
        """Partial derivative for a multi-index given as axis indices (len <= 3)."""
        order = len(multi_index)
        if order == 0:
            return self.value
        if order == 1:
            return float(self.d1[multi_index[0]])
        if order == 2:
            return float(self.d2[multi_index[0], multi_index[1]])
        if order == 3:
            return float(self.d3[multi_index[0], multi_index[1], multi_index[2]])
        raise ValueError("jet order is 3; multi-index too long")

    def symmetry_residual(self) -> float:
        """Max deviation of d2/d3 from index symmetry (exactly 0 for jet-built values)."""
        r = np.max(np.abs(self.d2 - self.d2.T))
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            r = max(r, np.max(np.abs(self.d3 - self.d3.transpose(perm))))
        return float(r)


def jet_const(c: float, dim: int) -> Jet3:
    """Constant jet: value c, all derivatives zero."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return Jet3(dim, float(c), np.zeros(dim), np.zeros((dim, dim)),
                np.zeros((dim, dim, dim)))


def jet_var(i: int, x: Point) -> Jet3:
    """Jet of the i-th coordinate function at x."""
    x = as_point(x)
    dim = x.shape[0]
    if not 0 <= i < dim:
        raise IndexError(f"variable index {i} out of range for dim {dim}")
    d1 = np.zeros(dim)
    d1[i] = 1.0
    return Jet3(dim, float(x[i]), d1, np.zeros((dim, dim)), np.zeros((dim, dim, dim)))


def differentiate(j: Jet3, i: int) -> Jet3:
    """Jet of the i-th partial derivative of j.

    The result's third-order slot is unknown and stored as zero: consumers
    must not rely on d3 of a differentiated jet.
    """
    return Jet3(j.dim, float(j.d1[i]), j.d2[i].copy(), j.d3[i].copy(),
                np.zeros((j.dim,) * 3))


# ---------------------------------------------------------------------------
# Unary functions (Faa di Bruno through order 3)
# ---------------------------------------------------------------------------


def _lift(u: Jet3, f0: float, f1: float, f2: float, f3: float) -> Jet3:
    """Compose a scalar function (given by derivatives at u.value) with jet u."""
    u1, u2, u3 = u.d1, u.d2, u.d3
    d1 = f1 * u1
    d2 = f2 * np.outer(u1, u1) + f1 * u2
    d3 = (f3 * np.multiply.outer(np.outer(u1, u1), u1)
          + f2 * _sym_outer(u2, u1) + f1 * u3)
    return Jet3(u.dim, f0, d1, d2, d3)


def sin(u: Jet3) -> Jet3:
    s, c = math.sin(u.value), math.cos(u.value)
    return _lift(u, s, c, -s, -c)


def cos(u: Jet3) -> Jet3:
    s, c = math.sin(u.value), math.cos(u.value)
    return _lift(u, c, -s, -c, s)


def exp(u: Jet3) -> Jet3:
    try:
        e = math.exp(u.value)
    except OverflowError:
        raise JetDomainError("exp", u.value) from None
    return _lift(u, e, e, e, e)


def ln(u: Jet3) -> Jet3:
    v = u.value
    if v < _TINY:
        raise JetDomainError("ln", v)
    return _lift(u, math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def sqrt(u: Jet3) -> Jet3:
    v = u.value
    if v < _TINY:
        raise JetDomainError("sqrt", v)
    s = math.sqrt(v)
    return _lift(u, s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v))


def _pow_const(u: Jet3, c: float) -> Jet3:
    """u**c for a constant real exponent.

    Integer exponents work for any base (including zero base with c >= 0);
    non-integer exponents require a positive base.
    """
    v = u.value
    is_int = float(c).is_integer()
    if not is_int and v <= 0.0:
        raise JetDomainError("pow", v)
    if is_int and c < 0 and v == 0.0:
        raise JetDomainError("pow", v)

    coef = (1.0, c, c * (c - 1.0), c * (c - 1.0) * (c - 2.0))
    f = []
    for k, ck in enumerate(coef):
        if ck == 0.0:
            f.append(0.0)
            continue
        e = c - k
        if v == 0.0 and e < 0:
            raise JetDomainError("pow", v)
        try:
            f.append(ck * v**e)
        except OverflowError:
            raise JetDomainError("pow", v) from None
    return _lift(u, f[0], f[1], f[2], f[3])


# ---------------------------------------------------------------------------
# Sampling domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcludedBall:
    """Open ball removed from a box, optionally restricted to a coordinate subset."""

    center: tuple[float, ...]
    radius: float
    axes: tuple[int, ...] | None = None  # None = all axes


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned closed box with optional excluded balls around singular loci."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    balls: tuple[ExcludedBall, ...] = ()

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"empty box interval [{a}, {b}]")
        for ball in self.balls:
            if ball.radius <= 0:
                raise ValueError("excluded ball radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x: Point) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < np.array(self.lo)) or np.any(x > np.array(self.hi)):
            return False
        for ball in self.balls:
            axes = ball.axes if ball.axes is not None else tuple(range(self.dim))
            d = x[list(axes)] - np.array(ball.center)
            if float(np.linalg.norm(d)) <= ball.radius:
                return False
        return True


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

FD_STEP_LOW_ORDER = 1e-4   # orders 1-2
FD_STEP_ORDER3 = 1e-2

ScalarField = Callable[[Point], float]


def fd_partial(field: ScalarField, x: Point, multi_index: Sequence[int],
               step: float | None = None, box: DomainBox | None = None) -> float:
    """Central-difference estimate of a partial derivative of order <= 3.

    ``multi_index`` lists differentiation axes, e.g. (0, 0, 1) for
    d^3/(dx0^2 dx1).  Nested second-order central stencils give O(step^2)
    truncation error at every order.  Defaults: step 1e-4 for orders 1-2 and
    1e-2 for order 3.
    """
    x = as_point(x)
    order = len(multi_index)
    if order > 3:
        raise ValueError("finite-difference oracle supports order <= 3")
    if step is None:
        step = FD_STEP_ORDER3 if order == 3 else FD_STEP_LOW_ORDER
    if step <= 0:
        raise ValueError("step must be positive")

    def rec(y: Point, idx: Sequence[int]) -> float:
        if not idx:
            if box is not None and not box.contains(y):
                raise ValueError(f"finite-difference stencil leaves domain at {y}")
            return float(field(y))
        e = np.zeros_like(y)
        e[idx[0]] = step
        return (rec(y + e, idx[1:]) - rec(y - e, idx[1:])) / (2.0 * step)

    return rec(x, list(multi_index))
