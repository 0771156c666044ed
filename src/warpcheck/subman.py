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
from typing import Sequence

import numpy as np

from . import expr as dsl
from .errors import (ConfigurationError, ImmersionDegenerateError,
                     InvalidNormalError, NonFiniteImageError)
from .jets import (DomainBox, Jet3, Point, as_point, coordinate_jets, jet_const, pack,
                   per_block)
from .report import fold, nan_max
from .riemann import (MetricBlock, MetricField, MetricPoint, _checked, frame_curvature,
                      gram_schmidt, gram_schmidt_step, metric_norms, stacked)
from .structures import (AlmostComplexStructure, AlmostContactStructure,
                         StructureBlock, StructureTensors)
from .warped import WarpedBlock, WarpedMetric, WarpedPoint

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
        im = self.im
        y, d1 = dsl.eval_matrix([im.components], x, im.params, order=1)
        jac = np.ascontiguousarray(np.swapaxes(d1[..., 0, :], -1, -2))  # (..., m, n)
        g = im.ambient.value(_finite_images(y[..., 0, :], x))
        return np.swapaxes(jac, -1, -2) @ g @ jac


def induced_metric(im: Immersion) -> InducedMetric:
    """Pullback metric; positive definite wherever the rank condition holds."""
    return InducedMetric(im)


# ---------------------------------------------------------------------------
# Second fundamental form
# ---------------------------------------------------------------------------


@dataclass
class SFFData:
    """Adapted frames and second-fundamental-form data at a point.

    ``tangent_frame`` columns are sub-chart vectors orthonormal for the
    induced metric (leaf block first when a warped split is declared);
    ``normal_frame`` columns are ambient vectors.  ``h_coord`` holds the
    normal-valued form on coordinate fields, ``h_frame`` on the orthonormal
    tangent frame; ``coeffs[r, i, j]`` are its components in the normal frame.

    It is also the record every check at the point shares: the ambient and
    induced metric records, the structure tensors and the warped split,
    each filled on first use, so a caller that needs only the form builds
    nothing more.
    """

    ambient_point: np.ndarray
    g_induced: np.ndarray          # (n, n)
    g_ambient: np.ndarray          # (m, m)
    jacobian: np.ndarray           # (m, n)
    tangent_frame: np.ndarray      # (n, n) columns, sub-chart coords
    tangent_ambient: np.ndarray    # (m, n) frame pushed to ambient coords
    normal_frame: np.ndarray       # (m, m-n)
    h_coord: np.ndarray            # (n, n, m), h on coordinate fields
    h_frame: np.ndarray            # (n, n, m), h on the orthonormal frame
    coeffs: np.ndarray             # (m-n, n, n)
    mean: np.ndarray               # (m,)
    im: Immersion
    d_full: np.ndarray             # (n, n, m), ambient derivative of the coordinate frame
    ambient: MetricPoint           # ambient metric at ambient_point
    induced: MetricPoint           # induced metric at point
    n1: int | None = None
    mean_leaf: np.ndarray | None = None   # partial mean over the leaf block
    mean_fiber: np.ndarray | None = None  # partial mean over the fiber block
    nu_start: int | None = None    # normal-frame index where the invariant complement starts
    tensors: StructureTensors | None = None  # ambient structure at ambient_point
    warped: WarpedPoint | None = None        # warped split of the induced metric

    @cached_property
    def ambient_frame_curvature(self) -> np.ndarray:
        """Ambient curvature tensor contracted into the tangent frame."""
        return frame_curvature(self.ambient.curvature, self.tangent_ambient)

    @property
    def n(self) -> int:
        return self.tangent_frame.shape[0]

    def h_norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))

    def vec_norm(self, v: np.ndarray) -> float:
        return float(metric_norms(self.g_ambient, v))

    def h_on(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """h evaluated on sub-chart coordinate vectors."""
        return np.einsum("i,j,ijk->k", X, Y, self.h_coord)


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
    points on first use, and read per point or whole."""

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

    def frames_at(self, index: int | range) -> list:
        """Point ``index``'s (or the range of points') J^T g J, Jacobian,
        tangent frame, J @ frame, normal frame, count of normal columns from
        priority seeds, d_full, h_coord, h_frame, coeffs and mean rows
        (whole, leaf, fiber), built for the whole block by
        :func:`riemann.stacked` with the bits the point has alone."""
        return stacked(self.__dict__, "frames", self._frames, index)

    def _frames(self, points: slice, watched) -> tuple:
        im, x = self.im, self.points[points]
        d2phi = np.ascontiguousarray(self.components[2][points])
        jac = np.ascontiguousarray(self.components[1][points])
        g_amb = self.ambient.derivs[0][points]
        gam = self.ambient.gamma[points]  # verifies the ambient metric is positive definite
        with watched():
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
        phi = None
        if isinstance(im.structure, AlmostContactStructure) and im.warped is not None:
            phi = np.ascontiguousarray(self.tensors.op[0][points])
        with watched():
            # the image of the fiber (anti-invariant) frame under phi comes
            # first, so the invariant complement of the normal bundle sits after it
            priority = (tangent_amb[:, :, :0] if phi is None
                        else phi @ tangent_amb[:, :, im.warped.n1:])
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
            return (g_ind, jac, tangent, tangent_amb, normal, n_priority,
                    d_full, h_coord, h_frame, coeffs, means)


def second_fundamental_form(im: Immersion, x: Point, block: ImmersionBlock | None = None,
                            index: int = 0) -> SFFData:
    """Second fundamental form via the ambient covariant derivative of the
    pushed-forward coordinate frame, projected to the normal space: point
    ``index``'s views of the arrays of ``block``, the ImmersionBlock x is a
    point of (a block of one point when none is given)."""
    x = as_point(x)
    block = block if block is not None else ImmersionBlock(im, x[None])
    (g_ind, jac, tangent_frame, tangent_amb, normal_frame, n_priority,
     d_full, h_coord, h_frame, coeffs, means) = block.frames_at(index)
    amb, induced = block.ambient[index], block.induced[index]
    induced.value, induced.frame = g_ind, tangent_frame
    decl = im.warped
    return SFFData(
        ambient_point=block.components[0][index], g_induced=g_ind, g_ambient=amb.value,
        jacobian=jac, tangent_frame=tangent_frame, tangent_ambient=tangent_amb,
        normal_frame=normal_frame, h_coord=h_coord, h_frame=h_frame,
        coeffs=coeffs, mean=means[0], im=im, d_full=d_full, ambient=amb, induced=induced,
        nu_start=int(n_priority), tensors=None if im.structure is None else block.tensors[index],
        **{} if decl is None else dict(
            n1=decl.n1, mean_leaf=means[1], mean_fiber=means[2],
            warped=WarpedPoint(block.warped.geom, x, induced, block.warped, index)))


def fold_sff(im: Immersion, points: Sequence[Point], *steps) -> dict:
    """The steps' values, merged and folded over the points by
    :func:`report.fold`, a block of points at a time in one ImmersionBlock.
    Each step but a block step (marked ``block_step``) reads each point's
    SFFData, built only for such a step; then a block step reads the block
    and gives (B, ...) arrays.  Every point's frames are built and verified."""
    block_steps = [step for step in steps if getattr(step, "block_step", False)]
    point_steps = [step for step in steps if step not in block_steps]

    def walk(block):
        ib = ImmersionBlock(im, block)
        for b, x in enumerate(block if point_steps else ()):
            sff = second_fundamental_form(im, x, ib, b)
            yield {k: v for step in point_steps for k, v in step(sff).items()}
        ib.frames_at(range(len(block)))  # verifies every point's frames
        yield {k: v for step in block_steps for k, v in step(ib).items()}
    return fold(per_block(points, walk))


# ---------------------------------------------------------------------------
# Shape operator
# ---------------------------------------------------------------------------


def shape_operator(sff: SFFData, zeta: np.ndarray) -> tuple[np.ndarray, float]:
    """Shape operator of a normal vector in the coordinate basis, plus the
    duality residual against the projected second fundamental form.

    The operator matrix is assembled from the unprojected ambient derivative
    (pairing with a normal kills tangential parts), so the residual is a
    genuine consistency check of the normal projection, not a tautology.
    """
    zeta = np.asarray(zeta, dtype=float)
    tang = np.einsum("k,km,ma->a", zeta, sff.g_ambient, sff.tangent_ambient)
    if np.max(np.abs(tang)) > 1e-8 * max(sff.vec_norm(zeta), 1e-300):
        raise InvalidNormalError(
            f"vector has tangential component {np.max(np.abs(tang)):.3e}")

    b = np.einsum("ijk,km,m->ij", sff.d_full, sff.g_ambient, zeta)
    a = np.linalg.solve(sff.g_induced, b)

    lhs = sff.g_induced @ a   # g(A d_p, d_q) as a matrix
    rhs = np.einsum("pqk,km,m->pq", sff.h_coord, sff.g_ambient, zeta)
    return a, float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Curvature-equation residuals
# ---------------------------------------------------------------------------


def gauss_residual_tensor(sff: SFFData) -> np.ndarray:
    """Pointwise defect tensor of the curvature relation between the induced
    and ambient metrics, over the orthonormal tangent frame."""
    r_ind = sff.induced.curvature_in_frame
    r_amb = sff.ambient_frame_curvature
    c = sff.coeffs
    h_term = np.einsum("ril,rjk->ijkl", c, c) - np.einsum("rik,rjl->ijkl", c, c)
    return r_ind - r_amb - h_term


def gauss_residual_max(sff: SFFData) -> float:
    return float(np.max(np.abs(gauss_residual_tensor(sff))))


def scalar_identity_residual(sff: SFFData) -> float:
    """Defect of the traced curvature relation: twice the intrinsic scalar
    curvature against the ambient tangent-plane sum plus mean-curvature and
    form-norm terms."""
    tau = sff.induced.scalar_curvature()
    r_amb = sff.ambient_frame_curvature
    n = sff.n
    tau_amb = sum(r_amb[i, j, j, i] for i in range(n) for j in range(i + 1, n))
    lhs = 2.0 * tau
    rhs = 2.0 * tau_amb + n**2 * sff.vec_norm(sff.mean) ** 2 - sff.h_norm_sq()
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classification_residuals(block: ImmersionBlock) -> dict:
    """Defining residuals of the predicates at each point of the block, as
    (B, ...) arrays, the block-split ones only under a warped declaration;
    built by :func:`riemann.stacked`, and a block step of :func:`fold_sff`."""
    points = range(len(block.points))
    n, decl = block.im.dim, block.im.warped
    *_, h_frame, _, mean_rows = block.frames_at(points)

    def build(part: slice, watched) -> list:
        g, h, means = block.ambient.derivs[0][part], h_frame[part], mean_rows[part]
        with watched():
            h_norms = metric_norms(g[:, None, None], h)
            mean_norms = metric_norms(g[:, None], means)
            out = [h_norms.max(axis=(1, 2)), umbilicity(g, h, means[:, 0]), mean_norms[:, 0]]
            if decl is not None:
                n1 = decl.n1
                out += [h_norms[:, :n1, n1:].max(axis=(1, 2)) if n1 < n else np.zeros(len(h)),
                        h_norms[:, :n1, :n1].max(axis=(1, 2)), mean_norms[:, 1],
                        mean_norms[:, 2], umbilicity(g, h[:, n1:, n1:], means[:, 2])]
        return out
    names = ("geodesic", "umbilical", "minimal") + (() if decl is None else (
        "mixed_geodesic", "d1_geodesic", "d1_minimal", "d2_minimal", "d2_umbilical"))
    return dict(zip(names, stacked(block.__dict__, "classes", build, points)))


classification_residuals.block_step = True


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


def warped_split(sff: SFFData) -> WarpedPoint:
    """The point's warped split, which an immersion without a warped
    declaration lacks."""
    if sff.warped is None:
        raise ConfigurationError("immersion has no warped declaration")
    return sff.warped


def warped_block_defect(sff: SFFData) -> float:
    """Isometric-immersion sanity for warped declarations at one point: the
    induced metric must be block diagonal with fiber block equal to f^2
    times the declared fiber metric (identity when none is declared)."""
    p, g = warped_split(sff), sff.g_induced
    n1 = p.geom.n1
    off = float(np.max(np.abs(g[:n1, n1:]))) if n1 < sff.n else 0.0
    return nan_max(off, float(np.max(np.abs(g[n1:, n1:] - p.f.value**2 * p.fiber))))


# ---------------------------------------------------------------------------
# Contact CR checks
# ---------------------------------------------------------------------------


def tangency_coefficients(sff: SFFData, v_amb: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares sub-chart coordinates of an ambient vector and the
    metric norm of the non-tangential remainder."""
    b = sff.jacobian.T @ sff.g_ambient @ v_amb
    c = np.linalg.solve(sff.g_induced, b)
    return c, sff.vec_norm(v_amb - sff.jacobian @ c)


def contact_cr_residuals(sff: SFFData) -> dict:
    """Residuals of the contact CR suite at one point, keyed by record name;
    only the Reeb tangency where the Reeb field is not tangent."""
    decl = sff.im.warped
    if not isinstance(sff.im.structure, AlmostContactStructure):
        raise ConfigurationError("contact CR checks need an almost contact ambient")
    if decl is None:
        raise ConfigurationError("contact CR checks need a warped declaration")
    n1, n = decl.n1, sff.n
    phi_mat = sff.tensors.op[0]
    xi_sub, xi_resid = tangency_coefficients(sff, sff.tensors.xi)
    if xi_resid > 1e-8:
        return {"cr-reeb-tangency": xi_resid, "cr-reeb-not-tangent": True}

    # frame of the leaf block with the Reeb direction first
    rows = np.zeros((1, n1, n))
    seeds = np.column_stack([xi_sub, np.eye(n)[:, :n1]])
    if _complete(sff.g_induced[None], rows, np.zeros(1, dtype=int), seeds, n1)[0][0] != n1:
        raise ConfigurationError("could not build the leaf frame")
    leaf_cols = np.ascontiguousarray(rows[0].T)
    xi_hat, dt_cols = leaf_cols[:, 0], leaf_cols[:, 1:]

    fiber_cols = gram_schmidt(sff.g_induced, np.eye(n)[:, n1:])
    fiber_images = [phi_mat @ (sff.jacobian @ z) for z in fiber_cols.T]

    nu_cols = sff.normal_frame[:, sff.nu_start:]
    invariance, flips = [], []
    for X in dt_cols.T:
        phix_sub, r = tangency_coefficients(sff, phi_mat @ (sff.jacobian @ X))
        invariance.append(r)
        h_sum = sff.h_on(X, X) + sff.h_on(phix_sub, phix_sub)
        flips += [abs(float(h_sum @ sff.g_ambient @ zeta)) for zeta in nu_cols.T]
    return {
        "cr-reeb-tangency": xi_resid,
        # invariance of the leaf block (minus Reeb), anti-invariance of the fiber
        "cr-leaf-invariance": invariance,
        "cr-fiber-anti-invariance": [
            float(np.max(np.abs(np.einsum("k,km,ma->a", v, sff.g_ambient,
                                          sff.tangent_ambient))))
            for v in fiber_images],
        # (a) pairings with the Reeb direction vanish
        "cr-form-on-reeb-pairs": [sff.vec_norm(sff.h_on(xi_hat, xi_hat))]
        + [sff.vec_norm(sff.h_on(X, xi_hat)) for X in dt_cols.T],
        # (b) leaf self-pairings against the image of the fiber block
        "cr-leaf-vs-fiber-image": [abs(float(sff.h_on(X, X) @ sff.g_ambient @ fz))
                                   for X in dt_cols.T for fz in fiber_images],
        # (c) sign flip against the invariant complement of the normal bundle
        "cr-invariant-flip": flips,
    }


def complex_cr_defects(sff: SFFData) -> dict:
    """CR gate for complex ambients at one point: leaf block invariant under
    the structure tensor, fiber block anti-invariant.  Both near zero at every
    point certify a CR-warped product, where leaf-minimality is a theorem."""
    if not isinstance(sff.im.structure, AlmostComplexStructure):
        raise ConfigurationError("complex CR gate needs a complex ambient structure")
    if sff.im.warped is None:
        raise ConfigurationError("complex CR gate needs a warped declaration")
    n1 = sff.im.warped.n1
    j_mat, tang, g = sff.tensors.op[0], sff.tangent_ambient, sff.g_ambient
    leaf_cols = tang[:, :n1]
    return {
        "leaf_invariance": [sff.vec_norm(v - leaf_cols @ (leaf_cols.T @ g @ v))
                            for v in (j_mat @ u for u in leaf_cols.T)],
        "fiber_anti_invariance": [float(np.max(np.abs(tang.T @ g @ (j_mat @ u))))
                                  for u in tang[:, n1:].T],
    }

