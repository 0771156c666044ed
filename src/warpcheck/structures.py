"""Ambient geometric structures: almost complex and almost contact metric
structures on chart metrics, plus closed-form space-form curvature models.

The space-form models evaluate constant-curvature-type tensors directly from
the displayed closed forms; they are curvature models, not metrics.  Each
ships with standard constant structure tensors (identity metric, block
rotation phi/J, last-coordinate Reeb direction), which is all the inequality
evaluators and constancy tests need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as dsl
from .errors import ConfigurationError, DegeneratePlaneError
from .jets import Point, as_point, per_block
from .report import fold
from .riemann import MetricBlock, MetricField, MetricPoint, metric_norms


class _Structure:
    """What almost complex and almost contact structures share."""

    klass = None  # the declared class; only a contact structure declares one

    @property
    def dim(self) -> int:
        return self.metric.dim

    def at(self, x: Point) -> "StructureTensors":
        """The structure's tensors at x: the record its per-point checks take."""
        return StructureTensors(self, x)


# ---------------------------------------------------------------------------
# Almost complex structures
# ---------------------------------------------------------------------------


@dataclass
class AlmostComplexStructure(_Structure):
    """(1,1) tensor field J on an even-dimensional chart metric."""

    kind = "complex"  # as a config's structure section names it
    metric: MetricField
    j_entries: list  # dim x dim Exprs, (J v)^i = J[i][j] v^j
    params: tuple[float, ...] = ()
    name: str = ""

    def square_residual(self, t: "StructureTensors") -> float:
        j = t.op[0]
        return float(np.max(np.abs(j @ j + np.eye(self.dim))))

    def compatibility_residual(self, t: "StructureTensors") -> float:
        j, g = t.op[0], t.metric.value
        return float(np.max(np.abs(j.T @ g @ j - g)))

    def parallel_residual(self, t: "StructureTensors") -> float:
        """Max component of the covariant derivative of J (zero iff Kahler at t.x)."""
        return float(np.max(np.abs(t.nabla)))

    def residuals(self, t: "StructureTensors", require_kahler: bool) -> dict[str, float]:
        """Per-point values of the almost complex structure records."""
        out = {"complex-square": self.square_residual(t),
               "complex-compatibility": self.compatibility_residual(t)}
        if require_kahler:
            out["kahler-parallel"] = self.parallel_residual(t)
        return out


# ---------------------------------------------------------------------------
# Almost contact metric structures
# ---------------------------------------------------------------------------


@dataclass
class AlmostContactStructure(_Structure):
    """(phi, xi, eta, g) on an odd-dimensional chart metric."""

    kind = "contact"
    metric: MetricField
    phi_entries: list   # dim x dim Exprs
    xi_entries: list    # dim Exprs (vector components)
    eta_entries: list   # dim Exprs (covector components)
    params: tuple[float, ...] = ()
    name: str = ""
    klass: str | None = None  # declared class, one of CLASS_NAMES

    def __post_init__(self):
        if self.dim % 2 == 0:
            raise ConfigurationError("almost contact structures need odd dimension")

    def identity_residuals(self, t: "StructureTensors") -> dict[str, float]:
        """The six defining identities of an almost contact metric structure."""
        n = self.dim
        phi, xi, eta, g = t.op[0], t.xi, t.eta[0], t.metric.value
        return dict(zip(CONTACT_IDENTITIES, (
            float(np.max(np.abs(phi @ phi + np.eye(n) - np.outer(xi, eta)))),
            float(np.max(np.abs(phi @ xi))),
            float(np.max(np.abs(eta @ phi))),
            abs(float(eta @ xi) - 1.0),
            float(np.max(np.abs(eta - g @ xi))),
            float(np.max(np.abs(phi.T @ g @ phi - (g - np.outer(eta, eta))))),
        )))


CONTACT_IDENTITIES = ("phi_square", "phi_of_reeb", "dual_form_kills_phi",
                      "dual_pairing", "dual_is_metric_dual", "phi_compatibility")


class StructureBlock:
    """A structure's tensors at a block of chart points (B, dim), evaluated
    together for all of them on first use and read per point by the block's
    :class:`StructureTensors` records."""

    def __init__(self, s, points: np.ndarray, metric: MetricBlock | None = None):
        self.s = s
        self.points = points
        self.metric = metric or MetricBlock(s.metric, points)

    @cached_property
    def _fields(self) -> list[list[np.ndarray]]:
        """[T, its partials], and for a contact structure [xi] and [eta, its
        partials], at every point of the block, after checking that each is
        finite there; the first point where one is not raises."""
        s, x = self.s, self.points
        if isinstance(s, AlmostComplexStructure):
            fields = [dsl.eval_matrix(s.j_entries, x, s.params, order=1)]
        else:
            fields = [dsl.eval_matrix(s.phi_entries, x, s.params, order=1),
                      dsl.eval_matrix([s.xi_entries], x, s.params, order=0),
                      dsl.eval_matrix([s.eta_entries], x, s.params, order=1)]
        bad = np.zeros(len(x), dtype=bool)
        for a in (a for field in fields for a in field):
            bad |= ~np.isfinite(a.reshape(len(x), -1)).all(axis=1)
        if bad.any():
            raise ConfigurationError(f"structure tensors not finite at {x[np.argmax(bad)]}")
        return fields

    @property
    def op(self) -> list[np.ndarray]:
        return self._fields[0]

    @property
    def xi(self) -> np.ndarray:
        return self._fields[1][0]

    @property
    def eta(self) -> list[np.ndarray]:
        return self._fields[2]

    def __getitem__(self, b: int) -> "StructureTensors":
        return StructureTensors(self.s, self.points[b], self.metric[b], self, b)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.points)))


class StructureTensors:
    """A structure's tensors at one chart point, each evaluated on first use
    (this point's slice of its block's, a block of one point when none is
    given), with the record of its metric there (shared when one is passed in)."""

    def __init__(self, s, x: Point, metric: MetricPoint | None = None,
                 block: StructureBlock | None = None, index: int = 0):
        self.s = s
        self.x = as_point(x)
        self._block = block if block is not None else StructureBlock(s, self.x[None])
        self._index = index
        self.metric = metric or self._block.metric[index]

    @cached_property
    def op(self) -> tuple[np.ndarray, np.ndarray]:
        """J or phi and its first partials D[k,i,j]."""
        return tuple(a[self._index].copy() for a in self._block.op)

    @cached_property
    def xi(self) -> np.ndarray:
        return self._block.xi[self._index].copy()[0]

    @cached_property
    def eta(self) -> tuple[np.ndarray, np.ndarray]:
        """eta and its first partials D[k,i]."""
        v, d = (a[self._index].copy() for a in self._block.eta)
        return v[0], d[:, 0]

    @cached_property
    def nabla(self) -> np.ndarray:
        """The covariant derivative of J or phi at [i, k, j]:
        (nabla_i T)^k_j = d_i T^k_j + Gamma^k_im T^m_j - Gamma^m_ij T^k_m."""
        op, dop = self.op
        gam = self.metric.gamma
        return dop + np.einsum("kim,mj->ikj", gam, op) - np.einsum("mij,km->ikj", gam, op)


def fold_tensors(s, points: Sequence[Point], step) -> dict:
    """step's per-point values folded over the points by :func:`report.fold`,
    each block of points read through one StructureBlock."""
    return fold(per_block(points, lambda block: map(step, StructureBlock(s, block)), s.dim))


CLASS_NAMES = ("sasakian", "kenmotsu", "cosymplectic", "nearly_cosymplectic")

# Each law below is bilinear, so it vanishes iff it vanishes on every pair of
# coordinate directions (e_a, e_b); each returns its values over the pairs at
# [a, b].  They are the one-pair formulas contracted with one-hot X and Y,
# which on finite tensors selects entries exactly, so each value keeps the
# bits of its formula as long as every sum keeps its order: a vector-matrix
# product runs as one slice of a stacked np.matmul on C-ordered operands, and
# a norm through riemann.metric_norms.


def _phi_g(t: StructureTensors) -> np.ndarray:
    """Phi(e_a, e_b) = g(phi e_a, e_b) at [a, b]."""
    return (np.ascontiguousarray(t.op[0].T)[:, None, :] @ t.metric.value)[:, 0]


def _d_eta(t: StructureTensors) -> np.ndarray:
    """d(eta)(e_a, e_b) = d_a eta_b - d_b eta_a at [a, b]."""
    deta = t.eta[1]
    return deta - deta.T


def structure_class_residuals(t: StructureTensors, klass: str) -> np.ndarray:
    """Metric norms of the defect of the class-defining covariant-derivative
    law on each coordinate pair, at [a, b]."""
    if klass not in CLASS_NAMES:
        raise ConfigurationError(f"unknown structure class {klass!r}")
    phi, xi, eta, g = t.op[0], t.xi, t.eta[0], t.metric.value
    # (nabla_{e_a} phi) e_b at [a, b, k]; eta[:, None] is eta(e_b) there
    diff = np.ascontiguousarray(t.nabla.transpose(0, 2, 1))
    if klass == "sasakian":  # -g(X, Y) xi + eta(Y) X
        diff = diff - (-g[:, :, None] * xi + eta[:, None] * np.eye(len(g))[:, None, :])
    elif klass == "kenmotsu":  # g(phi X, Y) xi - eta(Y) phi X
        diff = diff - (_phi_g(t)[:, :, None] * xi - eta[:, None] * phi.T[:, None, :])
    elif klass == "nearly_cosymplectic":  # the symmetrized derivative vanishes
        diff = diff + diff.transpose(1, 0, 2)
    return metric_norms(g, diff)


def nijenhuis_normality_residuals(t: StructureTensors) -> np.ndarray:
    """Metric norms of the normality defect [phi, phi](X, Y) + d(eta)(X, Y) xi
    on each coordinate pair, at [a, b].

    Convention note: with the halved exterior derivative
    d'eta(X,Y) = (X eta(Y) - Y eta(X) - eta([X,Y]))/2 common in the contact
    literature this is the usual N + 2 d'eta (x) xi; here d(eta) is the
    unhalved convention used by :func:`fundamental_form_residuals`, so the
    correct factor is 1.  The standard Sasakian chart vanishes under this
    combination and not under the doubled one.

    The combination is tensorial, so constant coordinate extensions of the
    coordinate fields are valid; brackets reduce to first derivatives of the
    phi-images.
    """
    (phi, dphi), xi = t.op, t.xi
    # [phi e_a, phi e_b]'s first half, (phi e_a)^k d_k (phi e_b)^i, at [a, b, i]
    lie = np.einsum("ka,kib->abi", phi, dphi)
    # phi d_a (phi e_b) at [a, b]
    inner = (phi @ np.ascontiguousarray(dphi.transpose(0, 2, 1))[..., None])[..., 0]
    swap = (1, 0, 2)
    nij = lie - lie.transpose(swap) - inner + inner.transpose(swap)
    return metric_norms(t.metric.value, nij + _d_eta(t)[:, :, None] * xi)


def closed_eta_residuals(t: StructureTensors) -> np.ndarray:
    """|d(eta)(e_a, e_b)|: the form law of Kenmotsu and cosymplectic structures."""
    return np.abs(_d_eta(t))


def fundamental_form_residuals(t: StructureTensors) -> np.ndarray:
    """|Phi(e_a, e_b) - d(eta)(e_a, e_b)/2| (the contact metric law) at [a, b]."""
    return np.abs(_phi_g(t) - 0.5 * _d_eta(t))


# ---------------------------------------------------------------------------
# Space-form curvature models
# ---------------------------------------------------------------------------

MODEL_KINDS = ("complex", "generalized_complex", "sasakian", "kenmotsu",
               "cosymplectic")


@dataclass
class SpaceFormModel:
    """Closed-form constant-phi-sectional curvature tensor.

    Tensors are constant matrices in the model chart; ``constant`` is the
    phi-sectional (or holomorphic-sectional) curvature and ``gamma`` the
    second parameter of the generalized complex family (zero reduces it to
    the complex space form).
    """

    kind: str
    dim: int
    constant: float
    gamma: float = 0.0
    g: np.ndarray = field(default=None)
    j: np.ndarray = field(default=None)      # complex kinds
    phi: np.ndarray = field(default=None)    # contact kinds
    xi: np.ndarray = field(default=None)
    eta: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown space-form kind {self.kind!r}")
        if self.g is None:
            self.g = np.eye(self.dim)
        contact = self.kind in ("sasakian", "kenmotsu", "cosymplectic")
        if contact:
            if self.dim % 2 == 0:
                raise ConfigurationError("contact space forms need odd dimension")
            if self.phi is None:
                self.phi = _block_rotation(self.dim - 1, self.dim)
            if self.xi is None:
                self.xi = np.eye(self.dim)[:, -1].copy()
            if self.eta is None:
                self.eta = self.g @ self.xi
        else:
            if self.dim % 2 == 1:
                raise ConfigurationError("complex space forms need even dimension")
            if self.j is None:
                self.j = _block_rotation(self.dim, self.dim)


def _block_rotation(pairs_span: int, dim: int) -> np.ndarray:
    """Skew matrix rotating coordinate pairs: e_{2k} -> e_{2k+1} -> -e_{2k}."""
    m = np.zeros((dim, dim))
    for k in range(pairs_span // 2):
        m[2 * k + 1, 2 * k] = 1.0
        m[2 * k, 2 * k + 1] = -1.0
    return m


def complex_space_form(c: float, dim: int) -> SpaceFormModel:
    return SpaceFormModel("complex", dim, c)


def generalized_complex_space_form(c: float, gamma: float, dim: int) -> SpaceFormModel:
    return SpaceFormModel("generalized_complex", dim, c, gamma=gamma)


def sasakian_space_form(c: float, dim: int) -> SpaceFormModel:
    return SpaceFormModel("sasakian", dim, c)


def kenmotsu_space_form(c: float, dim: int) -> SpaceFormModel:
    return SpaceFormModel("kenmotsu", dim, c)


def cosymplectic_space_form(c: float, dim: int) -> SpaceFormModel:
    return SpaceFormModel("cosymplectic", dim, c)


def model_curvature(m: SpaceFormModel, X, Y, Z, W) -> float:
    """Covariant curvature value R(X, Y, Z, W) of the model at any point."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    W = np.asarray(W, dtype=float)
    g = m.g

    def ip(a, b):
        return float(a @ g @ b)

    if m.kind in ("complex", "generalized_complex"):
        if m.j is None:
            raise ConfigurationError("complex model lacks J tensor")
        c = m.constant
        if m.kind == "complex":
            f1 = f2 = c / 4.0
        else:
            f1 = (c + 3.0 * m.gamma) / 4.0
            f2 = (c - m.gamma) / 4.0
        jx, jy, jz = m.j @ X, m.j @ Y, m.j @ Z
        base = ip(Y, Z) * ip(X, W) - ip(X, Z) * ip(Y, W)
        jpart = (ip(jy, Z) * ip(jx, W) - ip(jx, Z) * ip(jy, W)
                 + 2.0 * ip(X, jy) * ip(jz, W))
        return f1 * base + f2 * jpart

    if m.phi is None or m.xi is None or m.eta is None:
        raise ConfigurationError("contact model lacks structure tensors")
    c = m.constant
    eta = m.eta
    ex, ey, ez = float(eta @ X), float(eta @ Y), float(eta @ Z)
    exw = ip(m.xi, W)
    px, py, pz = m.phi @ X, m.phi @ Y, m.phi @ Z
    base = ip(X, W) * ip(Y, Z) - ip(X, Z) * ip(Y, W)
    contact = (ez * (ey * ip(X, W) - ex * ip(Y, W))
               + (ip(Y, Z) * ex - ip(X, Z) * ey) * exw)
    jpart = (-ip(px, W) * ip(py, Z) + ip(px, Z) * ip(py, W)
             + 2.0 * ip(px, Y) * ip(pz, W))
    if m.kind == "sasakian":
        return (c + 3.0) / 4.0 * base - (c - 1.0) / 4.0 * (contact + jpart)
    if m.kind == "kenmotsu":
        return (c - 3.0) / 4.0 * base - (c + 1.0) / 4.0 * (contact + jpart)
    # cosymplectic
    return c / 4.0 * (base - contact - jpart)


def model_sectional(m: SpaceFormModel, X, Y) -> float:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = m.g
    den = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
    if den <= 1e-12:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    return model_curvature(m, X, Y, Y, X) / float(den)


def phi_sectional(m: SpaceFormModel, X) -> float:
    """Sectional curvature of span(X, phi X); the model constant by construction."""
    X = np.asarray(X, dtype=float)
    op = m.j if m.kind in ("complex", "generalized_complex") else m.phi
    if m.kind not in ("complex", "generalized_complex"):
        if abs(float(m.eta @ X)) > 1e-8 * np.linalg.norm(X):
            raise DegeneratePlaneError("phi-sections must be orthogonal to the Reeb direction")
    px = op @ X
    if float(px @ m.g @ px) <= 1e-12:
        raise DegeneratePlaneError("phi X vanishes; no phi-section")
    return model_sectional(m, X, px)


def model_symmetry_residual(m: SpaceFormModel, rng: np.random.Generator,
                            trials: int = 20) -> float:
    """Max violation of curvature symmetries and the first Bianchi identity
    on random vector quadruples."""
    worst = 0.0
    for _ in range(trials):
        x_, y_, z_, w_ = rng.standard_normal((4, m.dim))
        r = model_curvature
        vals = [
            r(m, x_, y_, z_, w_) + r(m, y_, x_, z_, w_),
            r(m, x_, y_, z_, w_) + r(m, x_, y_, w_, z_),
            r(m, x_, y_, z_, w_) - r(m, z_, w_, x_, y_),
            r(m, x_, y_, z_, w_) + r(m, y_, z_, x_, w_) + r(m, z_, x_, y_, w_),
        ]
        worst = max(worst, max(abs(v) for v in vals))
    return worst
