"""Intrinsic Riemannian geometry of a chart-level metric field.

A metric source is any object exposing ``dim`` and ``derivs(x) -> (g, dg,
d2g)`` where ``dg[k,i,j]`` and ``d2g[k,l,i,j]`` are first and second
coordinate partials of the matrix entries; x is a block of points (B,
dim), and every array has a leading block axis.  :class:`MetricField`
evaluates expression entries as jets, and induced metrics provide the same
surface.

The block is the one evaluation shape.  A :class:`MetricBlock` holds a
source at a block of points and computes each field once for the whole
block, on first use, as batch-leading arrays, and applies its operators (the
Laplacian) to the whole block too.  A lone point is a block of one,
``MetricBlock(g, x[None])``, read at index 0.  A block gives each point
exactly the bits a block of one gives it, under two rules:

* Layout is part of the bits.  A batched einsum is the single-point
  subscript string with ``...`` prefixed on each operand, so a point's slice
  of a block's field has the strides a block of one gives it, while a
  C-ordered copy would make a per-point einsum downstream (a frame
  contraction of the curvature) sum in another order.
* A contraction to a scalar keeps its order of summation.  A sum over frame
  planes (:func:`plane_sum`) adds its terms one at a time from 0.0, over a
  block as the same ordered accumulation of (B,) arrays.  The Laplacian's
  traces (:meth:`MetricBlock.laplacian`) are the batched einsums, which sum
  as each point's ``"ij,kij,k->"`` and ``"ij,ij->"`` do, except
  ``"ij,kij,k->"`` at n = 2: there the point's einsum adds each k's four
  terms ``(ginv[i,j] * Gamma[k,i,j]) * d1[k]`` left to right and then
  ``s1 + (0.0 + s0)``, which the block spells out.  Elementwise arithmetic
  followed by a max is exact, so check values of that form (the curvature
  symmetry residuals) are taken per block.

A frame contraction of the curvature (:func:`frame_curvature`) keeps the bits
of ``np.einsum("ijkl,ia,jb,kc,ld->abcd", r4, c, c, c, c)``, which stays its
test oracle.  Each term is multiplied left to right,
``(((r4[i,j,k,l] * c[i,a]) * c[j,b]) * c[k,c]) * c[l,d]``; each output sums
its terms one at a time from +0.0, in the memory order of ``r4`` (l slowest,
then i, j, k, for a block's curvature view); and the output is laid out in
that same axis order.  Frames of three or more columns reproduce this order
with staged broadcast products and a two-operand einsum that sums each output
in order, a point at a time.  Smaller frames, where the einsum is faster,
run the einsum itself, over a stack of points as the ``...``-prefixed
einsum, which sums each point's outputs in that point's order; so do layouts
other than positive ``r4`` strides and row-major ``c``.

Frames are built by modified Gram-Schmidt over a stack of points at once
(:func:`gram_schmidt_step`) with the bits of each point's own ``u @ g @ v``:
a stacked ``np.matmul`` on (B, 1, n) operands runs each slice's 1-D product
kernel with that slice's strides.  So vectors are C-ordered, and a basis held
as columns is read at a non-unit stride (all of which read alike) but a lone
column contiguous.  ``np.einsum`` sums in another order: it differed from
``u @ g @ v`` in 3,000 of 3,000 draws with v g-orthogonal to u.

Index conventions, fixed once for the whole package:

* Christoffel symbols ``Gamma[k,i,j]`` carry the upper index first.
* The curvature tensor is stored as ``R[i,j,k,l] = g(R(d_i,d_j)d_k, d_l)``
  so the sectional-curvature numerator is the contraction of ``R`` with
  ``(X, Y, Y, X)``.
* The Laplacian uses the geometer's sign, the negative of the trace of the
  Hessian: on a flat chart ``lap(psi) = -sum_i d2psi/dx_i^2``.  Every
  warped-product identity downstream balances under this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from . import expr as dsl
from .errors import DegenerateMetricError, DependentSeedsError
from .jets import DomainBox, Jet3, Point, as_point, coordinate_jets, pack, per_block
from .report import fold

GS_PIVOT_THRESHOLD = 1e-12


# ---------------------------------------------------------------------------
# Metric sources
# ---------------------------------------------------------------------------


@dataclass
class MetricField:
    """Symmetric matrix of expressions g_ij over a coordinate chart."""

    dim: int
    entries: list  # dim x dim nested list of Expr, symmetric
    domain: DomainBox | None = None
    params: tuple[float, ...] = ()
    name: str = ""

    def __post_init__(self):
        n = self.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"metric entries must form a {n}x{n} matrix")

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]], domain: DomainBox | None = None,
                     params: tuple[float, ...] = (), n_params: int = 0,
                     name: str = "") -> "MetricField":
        n = len(rows)
        entries = [[dsl.parse(s, n, n_params or len(params)) for s in row] for row in rows]
        return cls(n, entries, domain=domain, params=tuple(params), name=name)

    def _indexed_jets(self, x: Point):
        """The upper triangle's jets to order 2, each at (i, j) and (j, i)."""
        return dsl.matrix_jets(self.entries, coordinate_jets(x), self.params, symmetric=True,
                               order=2)

    def entry_jets(self, x: Point) -> list[list[Jet3]]:
        out: list[list[Jet3]] = [[None] * self.dim for _ in range(self.dim)]
        for indices, jet in self._indexed_jets(x):
            for i, j in indices:
                out[i][j] = jet
        return out

    def derivs(self, x: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, dg, d2g) at one point x (dim,) or at a block of points (B, dim),
        the block axis first."""
        x = as_point(x, block=True)
        n = self.dim
        return tuple(pack(self._indexed_jets(x), x.shape[:-1], n, (n, n), 2))

    def value(self, x: Point) -> np.ndarray:
        return dsl.eval_matrix(self.entries, x, self.params, order=0, symmetric=True)[0]

    def symmetry_residual(self, x: Point):
        """max |g_ij - g_ji| at each point of x, evaluating only the pairs whose
        two expressions differ: an equal pair is symmetric by construction."""
        pairs = [(i, j) for i in range(self.dim) for j in range(i + 1, self.dim)
                 if self.entries[i][j] != self.entries[j][i]]
        if not pairs:
            return np.zeros(np.shape(x)[:-1])
        rows = [[self.entries[i][j] for i, j in pairs], [self.entries[j][i] for i, j in pairs]]
        g = dsl.eval_matrix(rows, x, self.params, order=0)[0]
        return np.max(np.abs(g[..., 0, :] - g[..., 1, :]), axis=-1)


def _checked(g: np.ndarray, x, finite: bool = False) -> np.ndarray:
    """g itself, after verifying it is positive definite (all leading minors
    > 0) and, with ``finite``, finite (a Cholesky factorization lets inf and
    NaN through), at one point x or at each of a block; the first failing point raises."""
    try:
        np.linalg.cholesky(g)
        bad = finite and not np.isfinite(g).all()
    except np.linalg.LinAlgError:
        bad = True
    if bad:
        n = g.shape[-1]
        for gk, xk in zip(g.reshape(-1, n, n), np.reshape(x, (-1, np.shape(x)[-1]))):
            if finite and not np.isfinite(gk).all():
                raise DegenerateMetricError(f"metric not finite at {np.asarray(xk)}")
            try:
                np.linalg.cholesky(gk)
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(
                    f"metric not positive definite at {np.asarray(xk)}") from None
    return g


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


class MetricBlock:
    """A metric source over a block of chart points (B, dim).

    ``derivs`` and every field derived from it (``ginv``, ``lowered``,
    ``gamma``, ``curvature``) are computed on first use for the whole block
    at once, as batch-leading arrays (B, ...); so are the frames, built from
    the checked metric values ``g``, and the curvature contracted into them.
    ``derivs``: a function returning the block's (g, dg, d2g) when the
    caller already holds what they are made from (the source's ``derivs`` at
    the points by default).  ``metric`` is None for the block of a
    coordinate sub-chart (:meth:`block`), which holds only derivatives.
    """

    def __init__(self, metric, points: np.ndarray, derivs=None):
        self.metric = metric
        self.points = points
        self._derivs = derivs or (lambda: metric.derivs(points))

    @cached_property
    def derivs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._derivs()

    @cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metrics, after checking that each is positive definite
        and, for a chart metric, symmetric (past 1e-10) and finite; the
        block's first failing point raises."""
        g, x, k = self.derivs[0], self.points, len(self.points)
        chart = isinstance(self.metric, MetricField)
        if chart:
            asym = self.metric.symmetry_residual(x) > 1e-10
            k = int(np.argmax(asym)) if asym.any() else k
        _checked(g[:k], x[:k], finite=chart)  # the points before an asymmetric one
        if k < len(x):
            raise DegenerateMetricError(f"metric not symmetric at {x[k]}")
        return np.linalg.inv(g)

    @cached_property
    def lowered(self) -> np.ndarray:
        """Christoffel symbols of the first kind, Gamma_kij."""
        dg = self.derivs[1]
        return 0.5 * (np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg) - dg)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita connection coefficients Gamma[k,i,j]."""
        return np.einsum("...kl,...lij->...kij", self.ginv, self.lowered)

    @cached_property
    def curvature(self) -> np.ndarray:
        """Covariant curvature R[i,j,k,l] = g(R(d_i,d_j)d_k, d_l) in chart coordinates."""
        g, dg, d2g = self.derivs
        ginv, low, gamma = self.ginv, self.lowered, self.gamma

        # d_m Gamma^l_ij = d_m(g^lk) Gamma_kij + g^lk d_m Gamma_kij
        dginv = -np.einsum("...la,...mab,...bk->...mlk", ginv, dg, ginv)
        dlow = 0.5 * (np.einsum("...mijk->...mkij", d2g) + np.einsum("...mjik->...mkij", d2g)
                      - d2g)
        dgamma = (np.einsum("...mlk,...kij->...mlij", dginv, low)
                  + np.einsum("...lk,...mkij->...mlij", ginv, dlow))

        # R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
        r_up = (np.einsum("...iljk->...lkij", dgamma) - np.einsum("...jlik->...lkij", dgamma)
                + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
                - np.einsum("...ljm,...mik->...lkij", gamma, gamma))
        return np.einsum("...lm,...mkij->...ijkl", g, r_up)

    @cached_property
    def curvature_in_frame(self) -> np.ndarray:
        """The curvature contracted into each point's frame (B, n, n, n, n),
        once for every check that reads it."""
        return frame_curvature(self.curvature, self.frame)

    def laplacian(self, psi: Jet3) -> np.ndarray:
        """Geometer's-sign Laplacians (B,) of a jet over the block's points:
        minus the metric trace of its Hessian, each with the bits of its point's
        ``einsum("ij,kij,k->", ginv, Gamma, d1) - einsum("ij,ij->", ginv, d2)``."""
        ginv, gamma = self.ginv, self.gamma
        d1, d2 = np.broadcast_to(psi.d1, ginv.shape[:-1]), np.broadcast_to(psi.d2, ginv.shape)
        if ginv.shape[-1] != 2:
            first = np.einsum("...ij,...kij,...k->...", ginv, gamma, d1)
        else:  # the point's einsum order, which the batched einsum does not keep
            with np.errstate(invalid="ignore", over="ignore"):  # silent, as the einsum
                t = ginv[..., None, :, :] * gamma * d1[..., None, None]
                s0, s1 = (((t[..., k, 0, 0] + t[..., k, 0, 1]) + t[..., k, 1, 0])
                          + t[..., k, 1, 1] for k in range(2))
                first = s1 + (0.0 + s0)
        return first - np.einsum("...ij,...ij->...", ginv, d2)

    def dual(self, d1: np.ndarray) -> np.ndarray:
        """The metric duals (B, n) of covectors d1 (B, n), each with the bits
        of its point's ``ginv @ d1``."""
        return (self.ginv @ d1[..., None])[..., 0]

    def dual_norm_sq(self, d1: np.ndarray) -> np.ndarray:
        """Squared norms (B,) of the metric duals of covectors d1 (B, n), each
        with the bits of its point's ``d1 @ ginv @ d1`` when d1 is C-ordered."""
        return (d1[..., None, :] @ self.ginv @ d1[..., None])[..., 0, 0]

    @property
    def g(self) -> np.ndarray:
        """The metric values (B, n, n), after ``ginv`` has checked them."""
        self.ginv
        return self.derivs[0]

    @cached_property
    def frame(self) -> np.ndarray:
        """Each point's Gram-Schmidt frame over the coordinate directions (B, n, n)."""
        return gram_schmidt(self.g, np.eye(self.g.shape[-1]))

    def block(self, axes) -> "MetricBlock":
        """The block of a coordinate sub-chart: no source, and the in-block
        entries and directions of this block's derivatives, C-ordered like a
        single point's arrays (indexing a block puts its block axis last in
        memory)."""
        ix = list(axes)  # each of g, dg and d2g is sliced along every chart axis
        return MetricBlock(None, self.points[:, ix], lambda: tuple(
            np.ascontiguousarray(a[(...,) + np.ix_(*[ix] * (a.ndim - 1))])
            for a in self.derivs))


# christoffel, curvature_components and laplacian, with
# subman.second_fundamental_form, are the point reads that BENCHMARK.json's
# per-layer counters name


def christoffel(g_like, x: Point) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[k,i,j] at x: a block of one
    point's."""
    return MetricBlock(g_like, as_point(x)[None]).gamma[0]


def curvature_components(g_like, x: Point) -> np.ndarray:
    """Covariant curvature R[i,j,k,l] at x: a block of one point's."""
    return MetricBlock(g_like, as_point(x)[None]).curvature[0]


def laplacian(g_like, psi, x: Point, params: Sequence[float] = ()) -> float:
    """Geometer's-sign Laplacian at x of an expression, or of its jet there:
    a block of one point's.  Flat chart: lap(x1^2) = -2."""
    jet = psi if isinstance(psi, Jet3) else dsl.eval_expr(psi, x, params)
    return float(MetricBlock(g_like, as_point(x)[None]).laplacian(jet)[0])


@dataclass
class Curvature4:
    """Fully covariant curvature tensors at each point of a block
    (batch-leading ``comp``)."""

    comp: np.ndarray  # shape (B, n, n, n, n)

    def symmetry_residuals(self) -> dict:
        """Worst violation of each symmetry, an array (B,)."""
        r = self.comp

        def perm(*axes):
            return r.transpose((0,) + tuple(1 + a for a in axes))

        def worst(t):
            return np.max(np.abs(t), axis=(-4, -3, -2, -1))
        return {
            "antisymmetry_first_pair": worst(r + perm(1, 0, 2, 3)),
            "antisymmetry_second_pair": worst(r + perm(0, 1, 3, 2)),
            "pair_symmetry": worst(r - perm(2, 3, 0, 1)),
            "first_bianchi": worst(r + perm(1, 2, 0, 3) + perm(2, 0, 1, 3)),
        }

    def max_symmetry_residual(self) -> np.ndarray:
        """The worst of :meth:`symmetry_residuals`, a NaN in any of them winning."""
        return reduce(np.maximum, self.symmetry_residuals().values())


@cache
def _term_rows(n: int, order: tuple[int, ...]) -> np.ndarray:
    """The (i, j, k, l) index of each term, (4, n**4), in the memory order
    that ``order`` (r4's axes, slowest first) gives."""
    return np.indices((n,) * 4).transpose((0,) + tuple(1 + a for a in order)).reshape(4, -1)


def frame_curvature(r4: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Contract a coordinate curvature tensor into a frame given by columns,
    at one point (r4 (n, n, n, n), columns (n, k)) or at each of a stack
    (r4 (B, n, n, n, n), columns (B, n, k)), with the bits of each point's
    5-operand einsum (the order contract in the module docstring).

    A zero tensor (a flat chart's) contracts to zeros without the einsum:
    with finite columns each of its products is +-0, and its sum, which
    starts from +0.0, is +0.0, the bits returned here."""
    if columns.ndim == 3 and columns.shape[-1] > 2:  # staged, a point at a time
        return np.stack([_contraction(r, c) for r, c in zip(r4, columns)])
    return _contraction(r4, columns)


def _contraction(r4: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """:func:`frame_curvature` at one point, or over a stack of frames of at
    most two columns."""
    n, k = columns.shape[-2:]
    if not r4.any() and np.isfinite(columns).all():
        return np.zeros(columns.shape[:-2] + (k,) * 4)
    staged = (k > 2 and min(r4.strides) > 0 and 0 < columns.strides[1] < columns.strides[0]
              and r4.dtype == columns.dtype == float)
    if not staged:
        return np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd",
                         r4, columns, columns, columns, columns)
    order = tuple(sorted(range(4), key=lambda a: -r4.strides[a]))
    ci, cj, ck, cl = columns[_term_rows(n, order)]  # each (n**4, k), term r's rows
    # each new factor goes in front: products commute, and the grouping is kept
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is silent, as in the einsum
        t = r4.transpose(order).reshape(-1, 1) * ci  # [r, a]
        t = cj[:, :, None] * t[:, None]              # [r, b, a]
        t = ck[:, :, None, None] * t[:, None]        # [r, c, b, a]
        out = np.einsum("rx,rd->dx", t.reshape(n**4, -1), cl).reshape((k,) * 4)
    out = out.transpose(3, 2, 1, 0).transpose(order)  # [a, b, c, d], axes in r4's order
    return np.ascontiguousarray(out).transpose(np.argsort(order))


def plane_sum(rf: np.ndarray, pairs: Iterable[tuple[int, int]]):
    """Sum of the plane values rf[..., i, j, j, i] of a frame-contracted
    curvature over frame index pairs, at one point or at each of a block's,
    added one at a time in the pairs' order from 0.0."""
    total = 0.0
    for i, j in pairs:
        total = total + rf[..., i, j, j, i]
    return total


# ---------------------------------------------------------------------------
# Orthonormal frames
# ---------------------------------------------------------------------------


def fold_blocks(points: Sequence[Point], dim: int, make, *steps) -> dict:
    """The steps' values, merged and folded over the points by
    :func:`report.fold`, a block at a time (``jets.per_block`` of ``dim``,
    the one rerun rule) in the one object ``make(block)`` that each step
    reads, giving arrays whose values run over its points in order: the one
    fold of every subject kind's checks."""
    def walk(block):
        subject = make(block)
        yield {k: v for step in steps for k, v in step(subject).items()}
    return fold(per_block(points, walk, dim))


def metric_norms(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Norms under g of the vectors along v's last axis, in one stacked
    matmul, each with the bits of its own sqrt(max(v @ g @ v, 0)) when v is
    C-ordered."""
    sq = (v[..., None, :] @ g @ v[..., :, None])[..., 0, 0]
    return np.sqrt(np.where(0.0 > sq, 0.0, sq))  # max(sq, 0.0), a NaN kept


def gram_schmidt_step(g: np.ndarray, basis: np.ndarray, counts: np.ndarray,
                      seeds: np.ndarray, active: np.ndarray,
                      threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Each active point's seed made g-orthonormal to its first counts[b] rows
    of basis (twice, for float stability): g (B, n, n), basis (B, K, n),
    counts, seeds (B, n), active (B,).  Returns the vectors and ok (B,): the
    active points whose residual norm is not below the threshold (a NaN norm
    is not).  Inactive points and rows past a count change nothing."""
    v = np.array(seeds, dtype=float, order="C")
    row, col = v[:, None, :], v[:, :, None]  # views that follow v
    rows = int(counts.max(initial=0))
    lone = (counts == 1)[:, None, None]
    kept = [(active & (k < counts))[:, None, None] for k in range(rows)]
    for _ in range(2):
        for k in range(rows):
            u = basis[:, k:k + 1]
            c = u @ g @ col
            if k == 0 and lone.any() and u.strides[2] != u.itemsize:
                u = np.ascontiguousarray(u)  # the lone column of a column stack
                c = np.where(lone, u @ g @ col, c)
            np.subtract(row, c * u, out=row, where=kept[k])
    nrm = metric_norms(g, v)
    ok = active & ~(nrm < threshold)
    np.divide(v, nrm[:, None], out=v, where=ok[:, None])
    return v, ok


def gram_schmidt(g: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt against inner product g, preserving seed order,
    at one point (g (n, n)) or at each of a stack (g (B, n, n)); seeds (n, k)
    or, for a stack, (B, n, k).  Raises DependentSeedsError when a seed's
    residual norm falls below GS_PIVOT_THRESHOLD at some point."""
    stack = g if g.ndim == 3 else g[None]
    b, (n, k) = len(stack), seeds.shape[-2:]
    seeds, cols = np.broadcast_to(seeds, (b, n, k)), np.zeros((b, n, k))
    for j in range(k):
        v, ok = gram_schmidt_step(stack, np.swapaxes(cols, 1, 2), np.full(b, j),
                                  seeds[:, :, j], np.full(b, True), GS_PIVOT_THRESHOLD)
        if not ok.all():
            raise DependentSeedsError(f"seed {j} is dependent on earlier seeds")
        cols[:, :, j] = v
    return cols if g.ndim == 3 else cols[0]
