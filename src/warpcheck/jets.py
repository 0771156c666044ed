"""Truncated multivariate Taylor arithmetic to order 3, plus a finite-difference oracle.

A ``Jet3`` carries the value of a scalar quantity together with all of its
partial derivatives through third order at a point.  Arithmetic on jets
propagates derivatives exactly (Leibniz rule for products, Faa di Bruno for
unary functions), so every geometric quantity downstream — connection
coefficients, curvature, Laplacians, second fundamental forms — is computed
without truncation error beyond float round-off.

Order 3 is the minimum that supports intrinsic curvature of an induced
metric: curvature needs two derivatives of the metric, and an induced metric
already consumes one derivative of the immersion.  Any other jet is
evaluated only to the order its reader packs.  A slot of order k reads only
slots of order <= k (Griewank & Walther, below, ch. 13), so the slots kept
have a full evaluation's bits; but ``**`` takes its branch from d1-d3 of its
exponent, so an exponent is always evaluated to order 3.

Slots are batch-leading: ``value`` has a batch shape, ``d1`` that shape plus
``(dim,)``, ``d2`` plus ``(dim, dim)`` and ``d3`` plus ``(dim, dim, dim)``.
Batch shape ``()`` is a single point; a block of B chart points has batch
shape ``(B,)``, and every operation broadcasts over the leading axes, so an
expression tree is walked once for the whole block (vectorised Taylor
propagation, Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).  A
block gives each point exactly the bits a single-point evaluation gives it:
array operations are elementwise and keep the single-point order of
operations, while the unary coefficients f0..f3 (of ``/``, ``exp``, ``ln``,
``sqrt``, ``sin``, ``cos`` and constant powers), each only through its
operand's order, and every branch on a value (domain checks, the
constant-exponent test of ``**``) are evaluated point by point with
``math`` on Python floats, because ``np.exp``, ``np.log`` and ``np.power``
round differently from ``math`` in the last bit.  Callers walk
their sample points in blocks (:func:`per_block`) of :func:`block_points` of
the chart dimension n that bounds the block's arrays: at least
``BLOCK_POINTS``, and as many as keep a block's largest n**4 array (a
metric's second derivatives, its curvature) within ``BLOCK_ENTRIES``
entries, so a low-dimensional chart pays a block's fixed cost once per
sample while a 6-dimensional one keeps its 32-point blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import JetDomainError, WarpcheckError

# Smallest normal double: values below this in a denominator, log or root
# would overflow derivative slots, so they are domain errors, not inputs.
_TINY = 2.2250738585072014e-308

# A block holds at least BLOCK_POINTS sample points, and more while its
# largest n**4 array (n the chart dimension) stays within BLOCK_ENTRIES
# entries, those of a 32-point block of a 6-dimensional chart.
BLOCK_POINTS = 32
BLOCK_ENTRIES = 32 * 6**4

# A chart point is just a float vector; no wrapper class.
Point = np.ndarray


def as_point(coords, block: bool = False) -> Point:
    """Coerce to a finite float array: one point (dim,), or with ``block``
    also a block of points (..., dim)."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 and not (block and x.ndim > 1):
        raise ValueError(f"point must be 1-dimensional, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    return x


# ---------------------------------------------------------------------------
# Jet3
# ---------------------------------------------------------------------------


def _leads(v):
    """v shaped to broadcast against 1, 2 and 3 trailing derivative axes."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v[..., None], v[..., None, None], v[..., None, None, None]
    return v, v, v


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product over the last axis: out[..., i, j] = a[..., i] b[..., j]."""
    return a[..., :, None] * b[..., None, :]


def _sym_outer(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized outer product: out[i,j,k] = m[i,j]v[k] + m[i,k]v[j] + m[j,k]v[i]."""
    t = m[..., None] * v[..., None, None, :]
    u = t.swapaxes(-1, -2)  # u[..., i, j, k] = t[..., i, k, j]
    return t + u + u.swapaxes(-2, -3)


@dataclass
class Jet3:
    """Value plus symmetric derivative tensors of orders 1..3, at one point
    or at every point of a block (batch-leading slots).

    A jet evaluated to a lower order carries None for each slot above it
    (:attr:`order`); an operation keeps a slot only when every operand has it.
    Instances are treated as immutable; every operation returns a new jet.
    """

    dim: int
    value: float | np.ndarray  # batch shape
    d1: np.ndarray | None = None  # batch + (dim,)
    d2: np.ndarray | None = None  # batch + (dim, dim), symmetric
    d3: np.ndarray | None = None  # batch + (dim, dim, dim), fully symmetric

    @property
    def batch(self) -> tuple[int, ...]:
        return np.shape(self.value)

    @property
    def derivs(self) -> tuple:
        return self.d1, self.d2, self.d3

    @property
    def order(self) -> int:
        """The highest derivative order the jet carries."""
        return (3 if self.d3 is not None else 2 if self.d2 is not None
                else int(self.d1 is not None))

    def truncated(self, order: int) -> "Jet3":
        """The jet's slots through ``order`` (the same arrays)."""
        return self if order >= self.order else Jet3(self.dim, self.value, *self.derivs[:order])

    def view(self, index: tuple) -> "Jet3":
        """The jet with ``index`` applied to its batch axes only, as views."""
        return Jet3(self.dim, np.asarray(self.value)[index],
                    *(None if d is None else d[index + (slice(None),) * k]
                      for k, d in enumerate(self.derivs, 1)))

    def take(self, k) -> "Jet3":
        """The jet at point (or boolean mask) k of its block, with its own
        arrays; a jet with batch shape () is the same at every point."""
        if not self.batch:
            return self
        v = self.value[k]
        return Jet3(self.dim, float(v) if np.ndim(v) == 0 else v,
                    *(None if d is None else d[k].copy() for d in self.derivs))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            if other.dim != self.dim:
                raise ValueError(f"jet dims differ: {self.dim} vs {other.dim}")
            return other
        return jet_const(float(other), self.dim, self.order)

    def __add__(self, other) -> "Jet3":
        o = self._coerce(other)
        return Jet3(self.dim, self.value + o.value,
                    *(None if a is None or b is None else a + b
                      for a, b in zip(self.derivs, o.derivs)))

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(self.dim, -self.value, *(None if d is None else -d for d in self.derivs))

    def __sub__(self, other) -> "Jet3":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet3":
        return (-self) + other

    def __mul__(self, other) -> "Jet3":
        o = self._coerce(other)
        order = min(self.order, o.order)
        s1, s2, s3 = _leads(self.value)
        o1, o2, o3 = _leads(o.value)
        d = [self.value * o.value]
        if order >= 1:
            d.append(self.d1 * o1 + s1 * o.d1)
        if order >= 2:
            d.append(self.d2 * o2 + s2 * o.d2
                     + _outer(self.d1, o.d1) + _outer(o.d1, self.d1))
        if order >= 3:
            d.append(self.d3 * o3 + s3 * o.d3
                     + _sym_outer(self.d2, o.d1) + _sym_outer(o.d2, self.d1))
        return Jet3(self.dim, *d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        o = self._coerce(other)
        return self * _lift(o, *_coefficients("/", _recip, o.order, o.value))

    def __rtruediv__(self, other) -> "Jet3":
        return self._coerce(other) / self

    def __pow__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return _pow_const(self, float(other))
        const = other.is_constant()
        if np.all(const):
            return _pow_const(self, other.value)
        if not np.any(const):
            # general exponent: f^g = exp(g ln f), needs f > 0; the first
            # point in order where f <= 0 raises
            bad = np.asarray(self.value) <= 0.0
            if bad.any():
                raise JetDomainError("pow", np.ravel(self.value)[np.argmax(bad)])
            return exp(other * ln(self))
        # the exponent is constant at some points of the block only: each
        # point takes its own branch, and the parts are put back in order
        batch = np.broadcast_shapes(self.batch, other.batch)
        out = [np.empty(batch + (self.dim,) * k) for k in range(self.order + 1)]
        try:
            for mask in (const, ~const):
                part = self.take(mask) ** other.take(mask)
                for slot, arr in zip(out, (part.value,) + part.derivs):
                    slot[mask] = arr
        except JetDomainError:
            for k in np.ndindex(batch):  # the first failing point raises alone
                self.take(k) ** other.take(k)
            raise
        return Jet3(self.dim, *out)

    def is_constant(self):
        """Whether every derivative vanishes, per point of the batch, of a jet
        of order 3 (lower slots cannot tell)."""
        return (np.all(self.d1 == 0, axis=-1) & np.all(self.d2 == 0, axis=(-2, -1))
                & np.all(self.d3 == 0, axis=(-3, -2, -1)))

    # -- inspection -------------------------------------------------------

    def partial(self, multi_index: Sequence[int]):
        """Partial derivative for a multi-index given as axis indices (len <= order)."""
        order = len(multi_index)
        if order > self.order:
            raise ValueError(f"jet order is {self.order}; multi-index too long")
        if order == 0:
            return self.value
        return self.derivs[order - 1][(..., *multi_index)]

    def symmetry_residual(self) -> float:
        """Max deviation of d2/d3 from index symmetry (exactly 0 for jet-built
        values), of a jet of order 3."""
        r = np.max(np.abs(self.d2 - np.swapaxes(self.d2, -1, -2)))
        lead = tuple(range(len(self.batch)))
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            axes = lead + tuple(a + len(lead) for a in perm)
            r = max(r, np.max(np.abs(self.d3 - self.d3.transpose(axes))))
        return float(r)


def jet_const(c: float, dim: int, order: int = 3) -> Jet3:
    """Constant jet: value c, all derivatives through ``order`` zero (batch shape ())."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return Jet3(dim, float(c), *(np.zeros((dim,) * k) for k in range(1, order + 1)))


def jet_var(i: int, x: Point, zeros: tuple[np.ndarray, np.ndarray] | None = None) -> Jet3:
    """Jet of the i-th coordinate function at x, one point (dim,) or a
    block of points (..., dim).  ``zeros``: read-only zero d2 and d3 slots
    to share, full-shaped, as the exponent rule reads them at any order."""
    x = as_point(x, block=True)
    dim = x.shape[-1]
    if not 0 <= i < dim:
        raise IndexError(f"variable index {i} out of range for dim {dim}")
    d1 = np.zeros(x.shape)
    d1[..., i] = 1.0
    zeros = zeros or [np.broadcast_to(0.0, x.shape + (dim,) * k) for k in (1, 2)]
    return Jet3(dim, x[..., i], d1, *zeros)


def coordinate_jets(x: Point) -> list[Jet3]:
    """Jets of all coordinate functions at x (one point or a block), sharing zero slots."""
    first = jet_var(0, x)
    zeros = (first.d2, first.d3)
    return [first] + [jet_var(i, x, zeros) for i in range(1, np.shape(x)[-1])]


def pack(items: Iterable[tuple[Iterable[tuple[int, ...]], Jet3]], batch: tuple[int, ...],
         dim: int, shape: tuple[int, ...], order: int) -> list[np.ndarray]:
    """Values and partials of a tensor of jets: ``[V, D1, ..., D_order]``.

    ``V[..., i, j]`` is the value at index (i, j) and ``Dk[..., a1..ak, i, j]``
    its k-th partials, batch axes first.  ``items`` yields (indices, jet)
    pairs; each jet is stored at every index it lists as soon as it arrives,
    so a tensor's entries are never all alive as jets at once.  A jet of
    lower order than ``order`` raises.
    """
    out = [np.empty(batch + (dim,) * k + shape) for k in range(order + 1)]
    for indices, jet in items:
        if jet.order < order:
            raise ValueError(f"cannot pack order {order} from a jet of order {jet.order}")
        slots = (jet.value,) + jet.derivs
        for idx in indices:
            for k, arr in enumerate(out):
                arr[(...,) + (slice(None),) * k + idx] = slots[k]
    return out


# ---------------------------------------------------------------------------
# Blocks of sample points
# ---------------------------------------------------------------------------


def block_points(dim: int) -> int:
    """Points a block holds on a chart whose arrays grow as dim**4 a point:
    1 -> 41,472, 2 -> 2,592, 3 -> 512, 4 -> 162, 5 -> 66, 6 and up -> 32."""
    return max(BLOCK_POINTS, BLOCK_ENTRIES // dim**4)


def per_block(points, fn: Callable[[np.ndarray], Iterable], dim: int) -> Iterator:
    """The results ``fn(block)`` yields over consecutive blocks of at most
    ``block_points(dim)`` points, each a (B, chart dim) array, in point
    order; ``dim`` is the dimension that bounds the block's arrays (an
    immersion's ambient one, say).

    When a block raises a WarpcheckError its points run again one at a time,
    so the first failing point raises exactly what it raises on its own.
    """
    size = block_points(dim)
    for start in range(0, len(points), size):
        block = np.array(points[start:start + size], dtype=float)
        try:
            results = list(fn(block))
        except WarpcheckError:
            for k in range(len(block)):
                list(fn(block[k:k + 1]))
            raise
        yield from results


# ---------------------------------------------------------------------------
# Unary functions (Faa di Bruno through order 3)
# ---------------------------------------------------------------------------


def _lift(u: Jet3, *f) -> Jet3:
    """Compose a scalar function, given by its derivatives f0..f_k at u.value
    through u's order k, with jet u."""
    u1, u2, u3 = u.derivs
    d = [f[0]]
    if u1 is not None:
        a1, a2, a3 = _leads(f[1])
        d.append(a1 * u1)
    if u2 is not None:
        _, b2, b3 = _leads(f[2])
        uu = _outer(u1, u1)
        d.append(b2 * uu + a2 * u2)
    if u3 is not None:
        c3 = _leads(f[3])[2]
        d.append(c3 * (uu[..., None] * u1[..., None, None, :])
                 + b3 * _sym_outer(u2, u1) + a3 * u3)
    return Jet3(u.dim, *d)


def _coefficients(op: str, fn, order: int, *values):
    """``fn(order, ...)`` at each point's values, in point order, on Python
    floats: the coefficients f0..f_order, and none above, so a coefficient
    past a jet's order cannot fail it.

    One point gives fn's floats; a block gives one array per coefficient.
    An over- or underflow (a Python ArithmeticError), a math domain error in
    fn, or a coefficient that is not finite (float division overflows to inf
    silently) at finite values is a JetDomainError naming the point's first
    value.
    """
    batch = np.broadcast_shapes(*map(np.shape, values))
    if not batch:
        return _at_point(op, fn, order, [float(v) for v in values])
    columns = [np.broadcast_to(v, batch).ravel().tolist() for v in values]
    rows = [_at_point(op, fn, order, args) for args in zip(*columns)]
    return tuple(np.array(c).reshape(batch) for c in zip(*rows))


def _at_point(op: str, fn, order: int, args):
    try:
        f = fn(order, *args)
    except (ArithmeticError, ValueError):
        raise JetDomainError(op, args[0]) from None
    if all(map(math.isfinite, f)) or not all(map(math.isfinite, args)):
        return f
    raise JetDomainError(op, args[0])


# Each coefficient function gives f0..f_order, the derivatives of its
# function at one value, and raises for a value outside its domain.


def _recip(order: int, u: float):
    if abs(u) < _TINY:
        raise JetDomainError("/", u)
    f = 1.0 / u,
    if order > 0:
        f += -1.0 / u**2,
    if order > 1:
        f += 2.0 / u**3,
    if order > 2:
        f += -6.0 / u**4,
    return f


def _sin(order: int, v: float):
    s, c = math.sin(v), math.cos(v)
    return (s, c, -s, -c)[:order + 1]


def _cos(order: int, v: float):
    s, c = math.sin(v), math.cos(v)
    return (c, -s, -c, s)[:order + 1]


def _exp(order: int, v: float):
    return (math.exp(v),) * (order + 1)


def _ln(order: int, v: float):
    if v < _TINY:
        raise JetDomainError("ln", v)
    f = math.log(v),
    if order > 0:
        f += 1.0 / v,
    if order > 1:
        f += -1.0 / v**2,
    if order > 2:
        f += 2.0 / v**3,
    return f


def _sqrt(order: int, v: float):
    if v < _TINY:
        raise JetDomainError("sqrt", v)
    s = math.sqrt(v)
    f = s,
    if order > 0:
        f += 0.5 / s,
    if order > 1:
        f += -0.25 / (s * v),
    if order > 2:
        f += 0.375 / (s * v * v),
    return f


def _pow(order: int, v: float, c: float):
    """Coefficients of u**c for a constant real exponent.

    Integer exponents work for any base (including zero base with c >= 0);
    non-integer exponents require a positive base.
    """
    is_int = c.is_integer()
    if not is_int and v <= 0.0:
        raise JetDomainError("pow", v)
    if is_int and c < 0 and v == 0.0:
        raise JetDomainError("pow", v)

    coef = (1.0, c, c * (c - 1.0), c * (c - 1.0) * (c - 2.0))
    f = []
    for k, ck in enumerate(coef[:order + 1]):
        if ck == 0.0:
            f.append(0.0)
            continue
        e = c - k
        if v == 0.0 and e < 0:
            raise JetDomainError("pow", v)
        f.append(ck * v**e)
    return f


def sin(u: Jet3) -> Jet3:
    return _lift(u, *_coefficients("sin", _sin, u.order, u.value))


def cos(u: Jet3) -> Jet3:
    return _lift(u, *_coefficients("cos", _cos, u.order, u.value))


def exp(u: Jet3) -> Jet3:
    return _lift(u, *_coefficients("exp", _exp, u.order, u.value))


def ln(u: Jet3) -> Jet3:
    return _lift(u, *_coefficients("ln", _ln, u.order, u.value))


def sqrt(u: Jet3) -> Jet3:
    return _lift(u, *_coefficients("sqrt", _sqrt, u.order, u.value))


def _pow_const(u: Jet3, c) -> Jet3:
    """u**c for an exponent constant at each point (c may vary by point)."""
    return _lift(u, *_coefficients("pow", _pow, u.order, u.value, c))


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
