"""Extrinsic geometry of an immersion: induced metric, adapted frames, second
fundamental form, shape operator, curvature-equation residuals and
classification predicates.

The induced metric is evaluated by composing the ambient metric entries with
the immersion in jet arithmetic, so its first and second derivatives (and
hence its intrinsic curvature) are exact to float round-off.  The Gauss
equation residual therefore transitively validates the jet substrate, the
connection, both curvature paths and the second fundamental form at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from . import expr as dsl
from .errors import (ConfigurationError, ImmersionDegenerateError,
                     InvalidNormalError, NonFiniteImageError)
from .jets import DomainBox, Jet3, Point, as_point, coordinate_jets, jet_const, pack
from .riemann import (MetricBlock, MetricField, _checked, fold_blocks, frame_curvature,
                      gram_schmidt, gram_schmidt_step, metric_norms, plane_sum)
from .structures import AlmostComplexStructure, AlmostContactStructure, StructureBlock
from .warped import LeafScalars, WarpedBlock, WarpedMetric

RANK_THRESHOLD = 1e-8
NORMAL_COMPLETION_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# Immersion and induced metric
# ---------------------------------------------------------------------------


@dataclass
class WarpedDecl:
    """Marks the sub chart as a warped product: leaf coordinates first."""

    n1: int
    n2: int
    f: object                      # Expr over the leaf coordinates
    g2: MetricField | None = None  # declared fiber metric (identity if omitted)


@dataclass
class Immersion:
    """Smooth map from a submanifold chart into an ambient chart metric."""

    dim: int
    components: list               # ambient_dim Exprs over the sub chart
    ambient: MetricField
    structure: AlmostComplexStructure | AlmostContactStructure | None = None
    warped: WarpedDecl | None = None
    domain: DomainBox | None = None
    params: tuple[float, ...] = ()
    name: str = ""

    @property
    def ambient_dim(self) -> int:
        return self.ambient.dim

    def component_jets(self, x: Point) -> list[Jet3]:
        """Jets of the components at one point or at a block of points.  The
        first sample point whose image, then whose partials (slots d1-d3),
        are not finite raises."""
        seeds = coordinate_jets(x)
        phi = [dsl.eval_jets(c, seeds, self.params) for c in self.components]
        batch = np.shape(x)[:-1]
        _finite_images(np.stack([np.broadcast_to(j.value, batch) for j in phi], -1), x)
        bad = np.zeros(batch, dtype=bool)
        for jet in phi:
            for order, d in enumerate((jet.d1, jet.d2, jet.d3), 1):
                bad |= ~np.isfinite(d).all(axis=tuple(range(-order, 0)))
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise NonFiniteImageError(
                f"immersion derivatives not finite at {np.asarray(x)[k]}")
        return phi


def _finite_images(y: np.ndarray, x) -> np.ndarray:
    """Image points y of the sample points x, after checking they are finite;
    the first sample point whose image is not raises."""
    bad = ~np.isfinite(y).all(axis=-1)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteImageError(
            f"immersion image not finite at {np.asarray(x)[k]}: {y[k]}")
    return y


@dataclass
class InducedMetric:
    """Pullback of the ambient metric through the immersion (metric source)."""

    im: Immersion

    @property
    def dim(self) -> int:
        return self.im.dim

    def _indexed_jets(self, x: Point, phi: list[Jet3] | None = None):
        """g_ij = sum_kl amb_kl dphi^k_i dphi^l_j to order 2, summed in k, l
        order, as one jet over (..., i, j): dphi^k is one jet over the
        direction axis, as a row (..., i, 1) and a column (..., 1, j), so each
        (i, j) gets its own scalar jet's elementwise operations.  Each upper
        entry is listed at (i, j) and (j, i), as a view.

        An ambient entry that is a literal 0 or 1 is structural: its term is
        dropped, or formed without the factor, and the entry is not
        evaluated.  The component jets' partials are finite, so this changes
        at most the sign of a zero (0 * inf would have been NaN)."""
        im = self.im
        n, m = im.dim, im.ambient_dim
        phi = phi or im.component_jets(x)
        evaluate = dsl.evaluator(phi, im.ambient.params, 2)
        amb = {}  # (k, l) -> jet, or None for a literal 1; a literal 0 is absent
        for k, row in enumerate(im.ambient.entries):
            for l in range(k, m):
                e = row[l]
                if not (isinstance(e, dsl.Num) and e.value in (0.0, 1.0)):
                    amb[k, l] = amb[l, k] = evaluate(e).view((..., None, None))
                elif e.value:
                    amb[k, l] = amb[l, k] = None
        # an all-zero ambient keeps one zero term, so its entries are zeros still
        terms = ([(k, l, amb[k, l]) for k in range(m) for l in range(m) if (k, l) in amb]
                 or [(0, 0, jet_const(0.0, n, 2))])
        dphi = [Jet3(n, p.d1, p.d2, p.d3) for p in phi]
        rows = [d.view((..., slice(None), None)) for d in dphi]
        cols = [d.view((..., None, slice(None))) for d in dphi]
        g = None
        for k, l, a in terms:
            left = rows[k] if a is None else a * rows[k]
            term = left * cols[l]
            g = term if g is None else g + term
        return (({(i, j), (j, i)}, g.view((..., i, j))) for i in range(n) for j in range(i, n))

    # the same listing of the entries
    entry_jets = MetricField.entry_jets

    def derivs(self, x: Point, phi: list[Jet3] | None = None):
        """(g, dg, d2g) at one point or a block of points, as
        :meth:`MetricField.derivs`.  ``phi``: the immersion's component jets
        at x, when the caller holds them."""
        x = as_point(x, block=True)
        n = self.dim
        return tuple(pack(self._indexed_jets(x, phi), x.shape[:-1], n, (n, n), 2))

    def value(self, x: Point) -> np.ndarray:
        """J^T g J of the components' partials and the ambient metric's value,
        read by no block: the independent oracle of the induced jets that
        ``test_gallery``, ``test_subman`` and ``test_acceptance`` read."""
        im = self.im
        y, d1 = dsl.eval_matrix([im.components], x, im.params, order=1)
        jac = np.ascontiguousarray(np.swapaxes(d1[..., 0, :], -1, -2))  # (..., m, n)
        g = im.ambient.value(_finite_images(y[..., 0, :], x))
        return np.swapaxes(jac, -1, -2) @ g @ jac


# ---------------------------------------------------------------------------
# Second fundamental form
# ---------------------------------------------------------------------------


class SFFData(NamedTuple):
    """Adapted frames and second-fundamental-form data at each point of a
    block, as batch-leading arrays (the shapes below follow the block
    axis).  ``tangent_frame`` columns are sub-chart vectors orthonormal for
    the induced metric (leaf block first when a warped split is declared);
    ``normal_frame`` columns are ambient vectors, the invariant complement's
    from ``nu_start`` on.  ``h_coord`` holds the normal-valued form on
    coordinate fields, ``h_frame`` on the orthonormal tangent frame;
    ``coeffs[r, i, j]`` are its components in the normal frame.  ``means``
    holds the whole, leaf and fiber mean curvature vectors as rows (the
    whole one alone without a warped declaration)."""

    ambient_point: np.ndarray      # (m,)
    g_ambient: np.ndarray          # (m, m)
    g_induced: np.ndarray          # (n, n), J^T g J
    jacobian: np.ndarray           # (m, n)
    tangent_frame: np.ndarray      # (n, n) columns, sub-chart coords
    tangent_ambient: np.ndarray    # (m, n) frame pushed to ambient coords
    normal_frame: np.ndarray       # (m, m-n)
    nu_start: np.ndarray           # (), the count of normal columns from priority seeds
    d_full: np.ndarray             # (n, n, m), ambient derivative of the coordinate frame
    h_coord: np.ndarray            # (n, n, m)
    h_frame: np.ndarray            # (n, n, m)
    coeffs: np.ndarray             # (m-n, n, n)
    means: np.ndarray              # (3, m), or (1, m)


def umbilicity(g: np.ndarray, h: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Norms under g of h(e_i, e_j) - delta_ij mean, h over a block of a
    frame (..., k, k, m), at one point or at each of a stack."""
    return metric_norms(g[..., None, None, :, :],
                        h - np.eye(h.shape[-2])[..., None] * mean[..., None, None, :])


def _complete(g: np.ndarray, basis: np.ndarray, counts: np.ndarray, seeds: np.ndarray,
              target: int, forced: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Complete each point's g-orthonormal basis rows, basis (B, K, n) with
    counts (B,) rows filled, toward target rows from the seeds (B, n, S) or
    (n, S), taken in order: the first ``forced`` at every point, the rest
    while a point is short of target.  A seed whose residual norm falls
    below NORMAL_COMPLETION_THRESHOLD is skipped.  Fills basis in place and
    returns the new counts and how many rows came from forced seeds."""
    b, n = len(g), g.shape[-1]
    counts, n_forced = counts.copy(), np.zeros(b, dtype=int)
    for j in range(seeds.shape[-1]):
        active = np.full(b, j < forced) | (counts < target)
        if not active.any():
            break
        v, ok = gram_schmidt_step(g, basis, counts, np.broadcast_to(seeds[..., j], (b, n)),
                                  active, NORMAL_COMPLETION_THRESHOLD)
        basis[ok, counts[ok]] = v[ok]
        counts += ok
        n_forced += ok & (j < forced)
    return counts, n_forced


def _normal_frames(g_amb: np.ndarray, tangent_amb: np.ndarray, priority: np.ndarray):
    """Normal frames completing ambient-orthonormal tangent frames (B, m, n),
    and the count of columns from ``priority`` seeds (B, m, p), which every
    point tries first; coordinate seeds follow while a point is short of m
    columns.  Dependent seeds are skipped; a point left short raises."""
    b, m, n = tangent_amb.shape
    p = priority.shape[2]
    cols = np.zeros((b, m, m + p))  # each point's basis, column-stacked
    cols[:, :, :n] = tangent_amb
    seeds = np.concatenate([priority, np.broadcast_to(np.eye(m), (b, m, m))], 2)
    counts, n_priority = _complete(g_amb, np.swapaxes(cols, 1, 2), np.full(b, n), seeds, m, p)
    if (counts != m).any():
        raise ImmersionDegenerateError("could not complete normal frame")
    return np.ascontiguousarray(cols[:, :, n:m]), n_priority


class ImmersionBlock:
    """An immersion over a block of sub-chart points (B, dim): the component
    values and partials, the ambient, induced, structure and warped blocks,
    the frames and the second fundamental form, each evaluated for all
    points on first use, and read whole."""

    def __init__(self, im: Immersion, points: np.ndarray):
        self.im = im
        self.points = points

    @cached_property
    def component_jets(self) -> list[Jet3]:
        """Jets of the components; the form and the induced metric both read them."""
        return self.im.component_jets(self.points)

    @cached_property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Image points (B, m), Jacobians (B, m, n) and second partials (B, m, n, n)."""
        y, d1, d2 = pack((({(0, k)}, jet) for k, jet in enumerate(self.component_jets)),
                         self.points.shape[:-1], self.im.dim, (1, self.im.ambient_dim), 2)
        return y[..., 0, :], np.moveaxis(d1[..., 0, :], -1, -2), np.moveaxis(d2[..., 0, :], -1, -3)

    @cached_property
    def ambient(self) -> MetricBlock:
        return MetricBlock(self.im.ambient, self.components[0])

    @cached_property
    def induced(self) -> MetricBlock:
        # the derivatives close over the jets, not over self: a reference
        # cycle would keep every block alive until the next garbage collection
        metric, points, phi = InducedMetric(self.im), self.points, self.component_jets
        return MetricBlock(metric, points, lambda: metric.derivs(points, phi))

    @cached_property
    def tensors(self) -> StructureBlock:
        s = self.im.structure
        return StructureBlock(s, self.components[0],
                              self.ambient if s.metric is self.im.ambient else None)

    @cached_property
    def warped(self) -> WarpedBlock:
        return WarpedBlock(warped_geometry(self.im), self.points, self.induced)

    @cached_property
    def frame_curvatures(self) -> tuple[np.ndarray, np.ndarray]:
        """The induced curvature in each point's tangent frame and the ambient
        one in its image, (B, n, n, n, n) each, for every check that reads
        them."""
        f = self.frames
        return (frame_curvature(self.induced.curvature, f.tangent_frame),
                frame_curvature(self.ambient.curvature, f.tangent_ambient))

    @cached_property
    def mean_norms(self) -> np.ndarray:
        """Norms of the whole, leaf and fiber mean curvature vectors (B, 3),
        or of the whole one (B, 1) without a warped declaration."""
        return metric_norms(self.frames.g_ambient[:, None], self.frames.means)

    @property
    def scalars(self) -> LeafScalars:
        """The leaf scalars as arrays over the points."""
        return self.warped.scalars

    @cached_property
    def frames(self) -> SFFData:
        """The block's frames and form, with the bits each point has alone."""
        im, x = self.im, self.points
        d2phi = np.ascontiguousarray(self.components[2])
        jac = np.ascontiguousarray(self.components[1])
        g_amb, gam = self.ambient.g, self.ambient.gamma
        g_ind = np.swapaxes(jac, 1, 2) @ g_amb @ jac
        eigs = np.linalg.eigvalsh(g_ind)[:, 0]
        low = eigs <= RANK_THRESHOLD**2
        if low.any():
            k = int(np.argmax(low))
            raise ImmersionDegenerateError(
                f"immersion differential near rank-deficient at {x[k]} "
                f"(smallest singular value {math.sqrt(max(eigs[k], 0.0)):.3e})")
        tangent = gram_schmidt(_checked(g_ind, x), np.eye(im.dim))
        tangent_amb = jac @ tangent
        # the image of the fiber (anti-invariant) frame under phi comes
        # first, so the invariant complement of the normal bundle sits after it
        contact = isinstance(im.structure, AlmostContactStructure) and im.warped is not None
        priority = (np.ascontiguousarray(self.tensors.op[0]) @ tangent_amb[:, :, im.warped.n1:]
                    if contact else tangent_amb[:, :, :0])
        normal, n_priority = _normal_frames(g_amb, tangent_amb, priority)
        # full ambient derivative of the coordinate frame: D[i,j,:] in ambient coords
        d_full = (np.einsum("bkij->bijk", d2phi)
                  + np.einsum("bklm,bli,bmj->bijk", gam, jac, jac))
        # normal projection: subtract ambient-orthonormal tangent components
        tang_comp = np.einsum("bijk,bkm,bma->bija", d_full, g_amb, tangent_amb)
        h_coord = d_full - np.einsum("bija,bka->bijk", tang_comp, tangent_amb)
        h_frame = np.einsum("bpqk,bpi,bqj->bijk", h_coord, tangent, tangent)
        coeffs = np.einsum("bijk,bkm,bmr->brij", h_frame, g_amb, normal)
        # the whole, leaf and fiber traces, each over its block's count
        n, decl = im.dim, im.warped
        spans = [(0, n, n)] + ([] if decl is None else
                               [(0, decl.n1, decl.n1), (decl.n1, n, decl.n2)])
        means = np.stack([np.einsum("biik->bk", h_frame[:, a:b, a:b]) / count
                          for a, b, count in spans], 1)
        return SFFData(self.components[0], g_amb, g_ind, jac, tangent, tangent_amb, normal,
                       n_priority, d_full, h_coord, h_frame, coeffs, means)


def second_fundamental_form(im: Immersion, x: Point) -> SFFData:
    """Frames and second fundamental form at one point: a block of one
    point's; BENCHMARK.json's per-layer counters name this read."""
    return SFFData._make(a[0] for a in ImmersionBlock(im, as_point(x)[None]).frames)


def fold_sff(im: Immersion, points: Sequence[Point], *steps) -> dict:
    """The steps' values over the points, an ImmersionBlock at a time, by
    :func:`riemann.fold_blocks` (its blocks sized by the ambient dimension,
    which bounds their arrays), after every point's frames are built and
    verified."""
    def frames(block: ImmersionBlock) -> dict:
        block.frames
        return {}
    return fold_blocks(points, im.ambient_dim, lambda x: ImmersionBlock(im, x), frames, *steps)


# ---------------------------------------------------------------------------
# Shape operator
# ---------------------------------------------------------------------------


def shape_operator(block: ImmersionBlock, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape operators in the coordinate basis of normal vectors zeta (B, m),
    one a point, and their duality residuals (B,) against the projected
    form.  The operator is assembled from the unprojected ambient derivative
    (pairing with a normal kills tangential parts), so the residual checks
    the normal projection, not a tautology."""
    f = block.frames
    g, zeta = f.g_ambient, np.asarray(zeta, dtype=float)
    tang = np.abs(np.einsum("...k,...km,...ma->...a", zeta, g, f.tangent_ambient)).max(axis=-1)
    bad = tang > 1e-8 * np.maximum(metric_norms(g, zeta), 1e-300)
    if bad.any():
        raise InvalidNormalError(f"vector has tangential component {tang[np.argmax(bad)]:.3e}")
    b = np.einsum("...ijk,...km,...m->...ij", f.d_full, g, zeta)
    a = np.linalg.solve(f.g_induced, b)
    rhs = np.einsum("...pqk,...km,...m->...pq", f.h_coord, g, zeta)
    return a, np.abs(f.g_induced @ a - rhs).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Curvature-equation residuals
# ---------------------------------------------------------------------------


def gauss_residual_tensor(block: ImmersionBlock) -> np.ndarray:
    """Defect tensor (B, n, n, n, n) of the curvature relation between the
    induced and ambient metrics, over each point's orthonormal tangent frame."""
    r_ind, r_amb = block.frame_curvatures
    c = block.frames.coeffs
    h_term = np.einsum("...ril,...rjk->...ijkl", c, c) - np.einsum("...rik,...rjl->...ijkl", c, c)
    return r_ind - r_amb - h_term


def gauss_residual_max(block: ImmersionBlock) -> np.ndarray:
    return np.abs(gauss_residual_tensor(block)).max(axis=(1, 2, 3, 4))


def scalar_identity_residual(block: ImmersionBlock) -> np.ndarray:
    """Defect (B,) of the traced curvature relation: twice the intrinsic
    scalar curvature against the ambient tangent-plane sum plus mean-curvature
    and form-norm terms."""
    r_ind, r_amb = block.frame_curvatures
    n = block.im.dim
    pairs = list(combinations(range(n), 2))
    # squared as pow rounds it, as a float's ** 2 is (x * x differs in the last bit at times)
    mean_sq = np.float_power(block.mean_norms[:, 0], 2)
    rhs = (2.0 * plane_sum(r_amb, pairs) + n**2 * mean_sq
           - np.sum(block.frames.coeffs**2, axis=(1, 2, 3)))
    return abs(2.0 * plane_sum(r_ind, pairs) - rhs)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classification_residuals(block: ImmersionBlock) -> dict:
    """Defining residuals of the predicates at each point of the block, as
    (B, ...) arrays, the block-split ones only under a warped declaration."""
    n, decl = block.im.dim, block.im.warped
    g, h, means = block.frames.g_ambient, block.frames.h_frame, block.frames.means
    h_norms, mean_norms = metric_norms(g[:, None, None], h), block.mean_norms
    out = [h_norms.max(axis=(1, 2)), umbilicity(g, h, means[:, 0]), mean_norms[:, 0]]
    if decl is not None:
        n1 = decl.n1
        out += [h_norms[:, :n1, n1:].max(axis=(1, 2)) if n1 < n else np.zeros(len(h)),
                h_norms[:, :n1, :n1].max(axis=(1, 2)), mean_norms[:, 1],
                mean_norms[:, 2], umbilicity(g, h[:, n1:, n1:], means[:, 2])]
    names = ("geodesic", "umbilical", "minimal") + (() if decl is None else (
        "mixed_geodesic", "d1_geodesic", "d1_minimal", "d2_minimal", "d2_umbilical"))
    return dict(zip(names, out))


# ---------------------------------------------------------------------------
# Warped geometry view of an immersion
# ---------------------------------------------------------------------------


def warped_geometry(im: Immersion) -> WarpedMetric:
    """The warped split of a warped-declared immersion: the induced metric
    with the declared block split and warping function."""
    decl = im.warped
    if decl is None:
        raise ConfigurationError("immersion has no warped declaration")
    return WarpedMetric(InducedMetric(im), decl.n1, decl.n2, decl.f, im.params,
                        fiber=decl.g2)


def warped_block_defect(block: ImmersionBlock) -> np.ndarray:
    """Isometric-immersion sanity for warped declarations at each point of
    the block: the induced metric must be block diagonal with fiber block
    equal to f^2 times the declared fiber metric (identity when none is
    declared)."""
    w, g = block.warped, block.frames.g_induced
    n1, n2 = w.geom.n1, w.geom.n2
    off = np.abs(g[:, :n1, n1:]).max(axis=(1, 2)) if n2 else np.zeros(len(g))
    fiber = np.eye(n2) if w.geom.fiber is None else w.fiber
    # squared as pow rounds it, as a point's float jet value ** 2 is
    f_sq = np.float_power(np.broadcast_to(w.f.value, len(g)), 2)[:, None, None]
    return np.maximum(off, np.abs(g[:, n1:, n1:] - f_sq * fiber).max(axis=(1, 2)))


# ---------------------------------------------------------------------------
# CR checks
# ---------------------------------------------------------------------------


def _tangency(g_ind: np.ndarray, jac: np.ndarray, g: np.ndarray,
              v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares sub-chart coordinates (B, n) of ambient vectors v (B, m)
    and the metric norms (B,) of their non-tangential remainders."""
    c = np.linalg.solve(g_ind, np.swapaxes(jac, 1, 2) @ g @ v[..., None])
    return c[..., 0], metric_norms(g, v - (jac @ c)[..., 0])


def contact_cr_residuals(block: ImmersionBlock) -> dict:
    """Residuals of the contact CR suite, keyed by record name: the Reeb
    tangency at each point of the block, and the rest at the points where
    the Reeb field is tangent."""
    im, decl = block.im, block.im.warped
    if not isinstance(im.structure, AlmostContactStructure):
        raise ConfigurationError("contact CR checks need an almost contact ambient")
    if decl is None:
        raise ConfigurationError("contact CR checks need a warped declaration")
    n1, n = decl.n1, im.dim
    f, t = block.frames, block.tensors
    xi_sub, xi_resid = _tangency(f.g_induced, f.jacobian, f.g_ambient, t.xi)
    on = ~(xi_resid > 1e-8)  # the rest of the suite is read where xi is tangent
    f, phi, xi_sub = SFFData(*(a[on] for a in f)), t.op[0][on], xi_sub[on]
    g, k = f.g_ambient, np.count_nonzero(on)

    # each point's frame of the leaf block with the Reeb direction first
    rows = np.zeros((k, n1, n))
    seeds = np.concatenate([xi_sub[..., None], np.broadcast_to(np.eye(n)[:, :n1], (k, n, n1))], 2)
    if (_complete(f.g_induced, rows, np.zeros(k, dtype=int), seeds, n1)[0] != n1).any():
        raise ConfigurationError("could not build the leaf frame")
    leaf_cols = np.ascontiguousarray(np.swapaxes(rows, 1, 2))
    xi_hat, dt_cols = leaf_cols[..., 0], [leaf_cols[..., a] for a in range(1, n1)]

    def image(v):  # phi J v of sub-chart vectors v (k, n), as (k, m)
        return (phi @ (f.jacobian @ v[..., None]))[..., 0]

    def h_on(x, y):  # h on sub-chart vectors, (k, m)
        return np.einsum("...i,...j,...ijk->...k", x, y, f.h_coord)

    def pairing(u, v):  # |g(u, v)| of ambient vectors (k, m), (k,)
        return abs((u[:, None] @ g @ v[..., None])[:, 0, 0])

    def by_point(values, *shape):  # (k,) arrays in loop order, as a C-ordered (k, *shape)
        return np.ascontiguousarray(np.moveaxis(np.reshape(values, shape + (k,)), -1, 0))

    fiber_cols = gram_schmidt(f.g_induced, np.eye(n)[:, n1:])
    fiber_images = [image(fiber_cols[..., a]) for a in range(n - n1)]
    nu = f.normal_frame.shape[2]
    invariance, flips = [], []
    for x in dt_cols:
        phix_sub, r = _tangency(f.g_induced, f.jacobian, g, image(x))
        invariance.append(r)
        h_sum = h_on(x, x) + h_on(phix_sub, phix_sub)
        flips += [pairing(h_sum, f.normal_frame[..., c]) for c in range(nu)]
    flips = by_point(flips, n1 - 1, nu)
    return {
        "cr-reeb-tangency": xi_resid,
        "cr-reeb-not-tangent": ~on,
        # invariance of the leaf block (minus Reeb), anti-invariance of the fiber
        "cr-leaf-invariance": by_point(invariance, n1 - 1),
        "cr-fiber-anti-invariance": by_point([
            np.abs(np.einsum("...k,...km,...ma->...a", v, g, f.tangent_ambient)).max(axis=-1)
            for v in fiber_images], n - n1),
        # (a) pairings with the Reeb direction vanish
        "cr-form-on-reeb-pairs": by_point([metric_norms(g, h_on(x, xi_hat))
                                           for x in [xi_hat] + dt_cols], n1),
        # (b) leaf self-pairings against the image of the fiber block
        "cr-leaf-vs-fiber-image": by_point([pairing(h_on(x, x), fz) for x in dt_cols
                                            for fz in fiber_images], n1 - 1, n - n1),
        # (c) sign flip against the invariant complement of the normal bundle,
        # the normal columns from nu_start on at each point
        "cr-invariant-flip": flips[np.broadcast_to(np.arange(nu) >= f.nu_start[:, None, None],
                                                   flips.shape)],
    }


def complex_cr_defects(block: ImmersionBlock) -> dict:
    """CR gate for complex ambients at each point of the block: leaf block
    invariant under the structure tensor, fiber block anti-invariant.  Both
    near zero at every point certify a CR-warped product, where
    leaf-minimality is a theorem."""
    if not isinstance(block.im.structure, AlmostComplexStructure):
        raise ConfigurationError("complex CR gate needs a complex ambient structure")
    if block.im.warped is None:
        raise ConfigurationError("complex CR gate needs a warped declaration")
    n1 = block.im.warped.n1
    j, tang, g = block.tensors.op[0], block.frames.tangent_ambient, block.frames.g_ambient
    leaf_cols = tang[..., :n1]
    images = [j @ tang[..., a, None] for a in range(tang.shape[2])]  # (B, m, 1) each
    return {
        "leaf_invariance": np.stack([
            metric_norms(g, (v - leaf_cols @ (np.swapaxes(leaf_cols, 1, 2) @ g @ v))[..., 0])
            for v in images[:n1]], 1),
        "fiber_anti_invariance": np.stack([
            np.abs(np.swapaxes(tang, 1, 2) @ g @ v).max(axis=(1, 2)) for v in images[n1:]], 1),
    }
