"""Warped-product metrics g = g1 + f^2 g2 and the mixed-sectional identity.

The identity checked here ties the sum of sectional curvatures over mixed
leaf/fiber planes to the leaf Laplacian of the warping function:

    sum_{a <= n1 < A} K(e_a ^ e_A) = n2 * lap(f) / f

with the geometer's-sign Laplacian taken on the leaf factor.  Both sides are
computed numerically and the residual is reported; the hyperbolic-plane and
round-sphere presentations pin the sign convention (both sides -1 and +1
respectively).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from . import expr as dsl
from . import jets
from .errors import InvalidWarpingError
from .jets import DomainBox, ExcludedBall, Jet3, Point, as_point, coordinate_jets, per_block
from .riemann import MetricBlock, MetricField, MetricPoint, plane_sum


def _expr_max_var(e) -> int:
    """Largest 0-based variable index used, or -1."""
    if isinstance(e, dsl.Var):
        return e.index
    if isinstance(e, (dsl.Num, dsl.Param)):
        return -1
    if isinstance(e, dsl.Neg):
        return _expr_max_var(e.arg)
    if isinstance(e, dsl.BinOp):
        return max(_expr_max_var(e.left), _expr_max_var(e.right))
    if isinstance(e, dsl.Call):
        return _expr_max_var(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass
class WarpedMetric:
    """A metric split as g1 + f^2 g2 on the product chart, leaf coordinates
    first: the total metric, the block sizes and the warping function f over
    the leaf chart, with its parameters.

    ``leaf`` is the leaf factor's metric; None means the leading n1 x n1
    block of the total metric at the point (how induced metrics are split).
    ``fiber`` is the declared fiber metric; None means the identity.
    """

    metric: object
    n1: int
    n2: int
    f: object  # Expr over the leaf chart
    params: tuple
    leaf: MetricField | None = None
    fiber: MetricField | None = None

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    @property
    def is_trivial(self) -> bool:
        """Trivial warped product: constant warping function."""
        return _expr_max_var(self.f) < 0

    def validate_at(self, points: Sequence[Point]) -> None:
        """Check the total metric, unless induced (the rank gate checks it), and f > 0."""
        if isinstance(self.metric, MetricField):
            self.metric.validate_at(points)

        def check(block):
            f = dsl.eval_matrix([[self.f]], block[:, : self.n1], self.params, order=0)[0]
            for x, f_val in zip(block, f[:, 0, 0].tolist()):
                if f_val <= 0.0:
                    raise InvalidWarpingError(f"warping function {f_val} <= 0 at {x}")
            return ()
        list(per_block(points, check))


def _product_domain(d1: DomainBox | None, d2: DomainBox | None,
                    n1: int) -> DomainBox | None:
    if d1 is None or d2 is None:
        return None
    balls = []
    for b in d1.balls:
        axes = b.axes if b.axes is not None else tuple(range(len(d1.lo)))
        balls.append(ExcludedBall(b.center, b.radius, axes))
    for b in d2.balls:
        axes = b.axes if b.axes is not None else tuple(range(len(d2.lo)))
        balls.append(ExcludedBall(b.center, b.radius, tuple(a + n1 for a in axes)))
    return DomainBox(lo=d1.lo + d2.lo, hi=d1.hi + d2.hi, balls=tuple(balls))


def assemble(g1: MetricField, g2: MetricField, f, name: str = "") -> WarpedMetric:
    """Build the product-chart metric with leaf block g1 and fiber block f^2 g2.

    ``f`` must involve only leaf coordinates; fiber entries are re-indexed
    into the product chart.
    """
    n1, n2 = g1.dim, g2.dim
    if _expr_max_var(f) >= n1:
        raise InvalidWarpingError("warping function may only use leaf coordinates")
    n = n1 + n2
    zero = dsl.const(0.0)
    f_sq = dsl.BinOp("*", f, f)
    entries = [[zero] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            entries[i][j] = g1.entries[i][j]
    for i in range(n2):
        for j in range(n2):
            shifted = dsl.shift_vars(g2.entries[i][j], n1)
            entries[n1 + i][n1 + j] = dsl.BinOp("*", f_sq, shifted)
    params = tuple(g1.params) or tuple(g2.params)
    assembled = MetricField(n, entries, domain=_product_domain(g1.domain, g2.domain, n1),
                            params=params, name=name or f"warped({g1.name},{g2.name})")
    return WarpedMetric(assembled, n1, n2, f, params, leaf=g1, fiber=g2)


@dataclass(frozen=True)
class LeafScalars:
    """Leaf-factor quantities entering the identities and inequalities."""

    f_value: float
    lap_f: float            # geometer's sign
    grad_f: np.ndarray      # leaf gradient vector of f
    grad_lnf_sq: float
    lap_lnf: float


class WarpedBlock:
    """A warped split over a block of chart points (B, dim): the total
    metric's block, the leaf factor's block, the warping function's jets and
    the fiber metric, each evaluated for all points on first use and read per
    point by the block's :class:`WarpedPoint` records."""

    def __init__(self, geom: WarpedMetric, points: np.ndarray,
                 total: MetricBlock | None = None):
        self.geom = geom
        self.points = points
        self.total = total or MetricBlock(self.geom.metric, points)

    @cached_property
    def leaf(self) -> MetricBlock:
        n1 = self.geom.n1
        if self.geom.leaf is None:
            return self.total.block(range(n1))
        return MetricBlock(self.geom.leaf, self.points[:, :n1])

    @cached_property
    def f(self) -> Jet3:
        """Jets of the warping function at the leaf coordinates, to order 2."""
        g = self.geom
        return dsl.evaluator(coordinate_jets(self.points[:, : g.n1]), g.params, 2)(g.f)

    @cached_property
    def lnf(self) -> Jet3:
        """Jets of ln f; f <= 0 at any point of the block is a domain error."""
        return jets.ln(self.f)

    @cached_property
    def fiber(self) -> np.ndarray:
        """Values of the declared fiber metric at the fiber coordinates."""
        return self.geom.fiber.value(self.points[:, self.geom.n1:])

    def __getitem__(self, b: int) -> "WarpedPoint":
        return WarpedPoint(self.geom, self.points[b], self.total[b], self, b)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.points)))


class WarpedPoint:
    """A warped split at one point: the total metric's record, the leaf
    factor's record, the warping function's jet and the leaf scalars, each
    built on first use (from this point's slice of its block's, a block of
    one point when none is given)."""

    def __init__(self, geom: WarpedMetric, x: Point,
                 total: MetricPoint | None = None, block: WarpedBlock | None = None,
                 index: int = 0):
        self.geom = geom
        self.x = as_point(x)
        self._block = block if block is not None else WarpedBlock(self.geom, self.x[None])
        self._index = index
        self.total = total or self._block.total[index]

    @cached_property
    def leaf(self) -> MetricPoint:
        return self._block.leaf[self._index]

    @cached_property
    def f(self) -> Jet3:
        """Jet of the warping function at the leaf coordinates."""
        return self._block.f.at(self._index)

    @cached_property
    def lnf(self) -> Jet3:
        """Jet of ln f at the leaf coordinates."""
        return self._block.lnf.at(self._index)

    @cached_property
    def fiber(self) -> np.ndarray:
        """The declared fiber metric at the fiber coordinates."""
        if self.geom.fiber is None:
            return np.eye(self.geom.n2)
        return self._block.fiber[self._index].copy()

    @cached_property
    def scalars(self) -> LeafScalars:
        return leaf_scalars(self)


def leaf_scalars(p: WarpedPoint) -> LeafScalars:
    f_jet = p.f
    if f_jet.value <= 0.0:
        raise InvalidWarpingError(f"warping function {f_jet.value} <= 0 at {p.x}")
    lnf_jet = p.lnf
    leaf = p.leaf
    return LeafScalars(
        f_value=f_jet.value,
        lap_f=leaf.laplacian(f_jet),
        grad_f=leaf.ginv @ f_jet.d1,
        grad_lnf_sq=float(lnf_jet.d1 @ leaf.ginv @ lnf_jet.d1),
        lap_lnf=leaf.laplacian(lnf_jet),
    )


def mixed_sectional_sum(rf: np.ndarray, geom: WarpedMetric):
    """Sum of sectional curvatures over all mixed leaf/fiber frame planes of
    the curvature rf in an adapted frame (leaf columns first), at one point
    or at each of a block's (rf (B, n, n, n, n))."""
    return plane_sum(rf, product(range(geom.n1), range(geom.n1, geom.dim)))


def warping_identity_residual(p: WarpedPoint) -> dict[str, float]:
    """Both sides of the mixed-sectional identity and their difference."""
    return warping_identity(p.total.curvature_in_frame, p.geom, p.scalars)


def warping_identity(rf: np.ndarray, geom: WarpedMetric, sc: LeafScalars) -> dict:
    """Both sides of the mixed-sectional identity and their difference, from
    the curvature in an adapted frame (leaf columns first) and the leaf
    scalars, at one point or as arrays over a block's points."""
    lhs = mixed_sectional_sum(rf, geom)
    rhs = geom.n2 * sc.lap_f / sc.f_value
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def block_second_form_residuals(p: WarpedPoint) -> dict[str, float]:
    """Intrinsic second fundamental forms of the blocks inside the product.

    Leaves must be totally geodesic: the fiber components Gamma[A,a,b] of the
    assembled connection vanish.  Fibers must be totally umbilical with shape
    term -(g(Z,W)/f) grad f: Gamma[a,A,B] equals -(g_AB/f) (grad_leaf f)^a.
    """
    n1 = p.geom.n1
    n = n1 + p.geom.n2
    gam = p.total.gamma
    g = p.total.derivs[0]
    sc = p.scalars

    leaf_geodesic = float(np.max(np.abs(gam[n1:n, :n1, :n1])))
    expected = -np.einsum("AB,a->aAB", g[n1:, n1:], sc.grad_f) / sc.f_value
    fiber_umbilic = float(np.max(np.abs(gam[:n1, n1:, n1:] - expected)))
    return {"leaf_geodesic": leaf_geodesic, "fiber_umbilical_shape": fiber_umbilic}
