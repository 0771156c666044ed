"""Ambient geometric structures: almost complex and almost contact metric
structures on chart metrics, plus closed-form space-form curvature models.

A structure's tensors are read a block of chart points at a time, through a
:class:`StructureBlock`, and every structure check (the defining identities,
the class laws, normality and the form laws) is a function of that block,
giving arrays over its points.  A block gives each point the bits a block of
that point alone gives it: each batched product is the point's own with the
block axis prefixed, a stacked ``np.matmul`` running each slice's kernel with
that slice's strides, and a batched einsum the point's subscripts with
``...`` prefixed, on C-ordered operands whose block axis is slowest.

The space-form models evaluate constant-curvature-type tensors directly from
the displayed closed forms; they are curvature models, not metrics.  Each
ships with standard constant structure tensors (identity metric, block
rotation phi/J, last-coordinate Reeb direction), which is all the inequality
evaluators and constancy tests need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as dsl
from .errors import ConfigurationError, DegeneratePlaneError
from .riemann import MetricBlock, MetricField, metric_norms


class _Structure:
    """What almost complex and almost contact structures share."""

    klass = None  # the declared class; only a contact structure declares one

    @property
    def dim(self) -> int:
        return self.metric.dim


def _worst(a: np.ndarray) -> np.ndarray:
    """The largest absolute entry (B,) at each point of a block's array (B, ...)."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


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

    def parallel_residual(self, t: "StructureBlock") -> np.ndarray:
        """Max component of the covariant derivative of J at each point of
        the block (zero iff Kahler there)."""
        return _worst(t.nabla)

    def identity_residuals(self, t: "StructureBlock") -> dict[str, np.ndarray]:
        """The two defining identities of an almost Hermitian structure, over
        the block's points."""
        j, g = t.op[0], t.metric.g
        return {"complex-square": _worst(j @ j + np.eye(self.dim)),
                "complex-compatibility": _worst(np.swapaxes(j, 1, 2) @ g @ j - g)}


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

    def identity_residuals(self, t: "StructureBlock") -> dict[str, np.ndarray]:
        """The six defining identities of an almost contact metric structure,
        over the block's points."""
        phi, xi, eta, g = t.op[0], t.xi, t.eta[0], t.metric.g
        col, row = xi[..., None], eta[:, None]  # (B, n, 1) and (B, 1, n)
        return dict(zip(CONTACT_IDENTITIES, (
            _worst(phi @ phi + np.eye(self.dim) - col * row),
            _worst(phi @ col),
            _worst(row @ phi),
            np.abs((row @ col)[:, 0, 0] - 1.0),
            _worst(eta - (g @ col)[..., 0]),
            _worst(np.swapaxes(phi, 1, 2) @ g @ phi - (g - eta[..., None] * row)),
        )))


CONTACT_IDENTITIES = ("phi_square", "phi_of_reeb", "dual_form_kills_phi",
                      "dual_pairing", "dual_is_metric_dual", "phi_compatibility")


class StructureBlock:
    """A structure's tensors at a block of chart points (B, dim), evaluated
    together for all of them on first use as C-ordered arrays with the block
    axis first, with the block of its metric there (shared when one is
    passed in)."""

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
        """J or phi (B, n, n) and its first partials D[b, k, i, j]."""
        return self._fields[0]

    @property
    def xi(self) -> np.ndarray:
        """The Reeb field (B, n)."""
        return self._fields[1][0][:, 0]

    @property
    def eta(self) -> tuple[np.ndarray, np.ndarray]:
        """eta (B, n) and its first partials D[b, k, i]."""
        v, d = self._fields[2]
        return v[:, 0], d[:, :, 0]

    @cached_property
    def nabla(self) -> np.ndarray:
        """The covariant derivative of J or phi at [b, i, k, j], for every
        check that reads it:
        (nabla_i T)^k_j = d_i T^k_j + Gamma^k_im T^m_j - Gamma^m_ij T^k_m."""
        op, dop = self.op
        gam = self.metric.gamma
        return (dop + np.einsum("...kim,...mj->...ikj", gam, op)
                - np.einsum("...mij,...km->...ikj", gam, op))


CLASS_NAMES = ("sasakian", "kenmotsu", "cosymplectic", "nearly_cosymplectic")

# Each law below is bilinear, so it vanishes iff it vanishes on every pair of
# coordinate directions (e_a, e_b); each returns its values over the pairs at
# [point, a, b].  They are the one-pair formulas contracted with one-hot X
# and Y, which on finite tensors selects entries exactly, so each value keeps
# the bits of its formula as long as every sum keeps its order: a
# vector-matrix product runs as one slice of a stacked np.matmul on C-ordered
# operands, and a norm through riemann.metric_norms.


def _phi_g(t: StructureBlock) -> np.ndarray:
    """Phi(e_a, e_b) = g(phi e_a, e_b) at [point, a, b]."""
    rows = np.ascontiguousarray(np.swapaxes(t.op[0], 1, 2))[:, :, None, :]
    return (rows @ t.metric.g[:, None])[:, :, 0]


def _d_eta(t: StructureBlock) -> np.ndarray:
    """d(eta)(e_a, e_b) = d_a eta_b - d_b eta_a at [point, a, b]."""
    deta = t.eta[1]
    return deta - np.swapaxes(deta, 1, 2)


def structure_class_residuals(t: StructureBlock, klass: str) -> np.ndarray:
    """Metric norms of the defect of the class-defining covariant-derivative
    law on each coordinate pair, at [point, a, b]."""
    if klass not in CLASS_NAMES:
        raise ConfigurationError(f"unknown structure class {klass!r}")
    phi, xi, eta, g = t.op[0], t.xi[:, None, None], t.eta[0], t.metric.g
    # (nabla_{e_a} phi) e_b at [point, a, b, k]; eta(e_b) and e_a there
    diff = np.ascontiguousarray(np.swapaxes(t.nabla, 2, 3))
    eta_b, e_a = eta[:, None, :, None], np.eye(t.s.dim)[:, None, :]
    if klass == "sasakian":  # -g(X, Y) xi + eta(Y) X
        diff = diff - (-g[..., None] * xi + eta_b * e_a)
    elif klass == "kenmotsu":  # g(phi X, Y) xi - eta(Y) phi X
        diff = diff - (_phi_g(t)[..., None] * xi - eta_b * np.swapaxes(phi, 1, 2)[:, :, None])
    elif klass == "nearly_cosymplectic":  # the symmetrized derivative vanishes
        diff = diff + np.swapaxes(diff, 1, 2)
    return metric_norms(g[:, None, None], diff)


def nijenhuis_normality_residuals(t: StructureBlock) -> np.ndarray:
    """Metric norms of the normality defect [phi, phi](X, Y) + d(eta)(X, Y) xi
    on each coordinate pair, at [point, a, b].

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
    (phi, dphi), xi, g = t.op, t.xi, t.metric.g
    # [phi e_a, phi e_b]'s first half, (phi e_a)^k d_k (phi e_b)^i, at [point, a, b, i]
    lie = np.einsum("...ka,...kib->...abi", phi, dphi)
    # phi d_a (phi e_b) at [point, a, b]
    inner = (phi[:, None, None] @ np.ascontiguousarray(np.swapaxes(dphi, 2, 3))[..., None])[..., 0]
    nij = lie - np.swapaxes(lie, 1, 2) - inner + np.swapaxes(inner, 1, 2)
    return metric_norms(g[:, None, None], nij + _d_eta(t)[..., None] * xi[:, None, None])


def closed_eta_residuals(t: StructureBlock) -> np.ndarray:
    """|d(eta)(e_a, e_b)|: the form law of Kenmotsu and cosymplectic structures."""
    return np.abs(_d_eta(t))


def fundamental_form_residuals(t: StructureBlock) -> np.ndarray:
    """|Phi(e_a, e_b) - d(eta)(e_a, e_b)/2| (the contact metric law) at [point, a, b]."""
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
