"""Command-line front door: run check suites on built-ins or user configs.

Exit codes: 0 all requested checks pass, 1 at least one check fails,
2 configuration or parse error.  Reports are deterministic for a fixed
(config, seed, version): points come from a seeded Halton sequence, record
order is fixed, and numbers are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from . import __version__
from .config import BuiltConfig, load_config
from .errors import WarpcheckError
from .expr import ParseError
from .gallery import BUILTINS, builtin_names, load_builtin, sample_points
from .ineq import (fiber_lemma_residuals, generalized_rhs, leaf_mean_curvature,
                   main_inequality, scalar_decomposition_residual, space_form_rhs)
from .report import CheckReport, format_number, nan_max, to_json_bytes
from .riemann import Curvature4, MetricBlock, MetricField, fold_blocks
from .structures import (CLASS_NAMES, CONTACT_IDENTITIES, AlmostComplexStructure,
                         AlmostContactStructure, StructureBlock, closed_eta_residuals,
                         fundamental_form_residuals, nijenhuis_normality_residuals,
                         structure_class_residuals)
from .subman import (Immersion, ImmersionBlock, classification_residuals,
                     complex_cr_defects, contact_cr_residuals, fold_sff, gauss_residual_max,
                     scalar_identity_residual, shape_operator, warped_block_defect)
from .warped import (WarpedBlock, WarpedMetric, block_second_form_residuals, warping_identity,
                     warping_identity_residual)

CHECK_GROUPS = ("structure", "identities", "classify", "inequalities")

# each --tol name and its default, which a row of ROWS may replace by its own
TOLERANCES = {
    "structure": 1e-8,
    "curvature-symmetry": 1e-9,
    "gauss": 1e-7,
    "scalar-identity": 1e-7,
    "duality": 1e-10,
    "warped-identity": 1e-8,
    "warped-block": 1e-8,
    "scalar-split": 1e-7,
    "slack": 1e-8,
    "leaf-minimality": 1e-8,
    "classify": 1e-7,
    "cr": 1e-7,
    "reduction": 1e-12,
}


@dataclass
class RunConfig:
    target: str
    checks: tuple[str, ...] = CHECK_GROUPS
    points: int = 64
    seed: int = 42
    tols: dict[str, float] = field(default_factory=dict)
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        if self.points < 1:
            raise WarpcheckError("points must be >= 1")
        if self.seed < 0:
            raise WarpcheckError("seed must be >= 0")
        for name, val in self.tols.items():
            if not 0 < val < math.inf:
                raise WarpcheckError(f"tolerance {name!r} must be positive and finite")

    def tol(self, name: str) -> float:
        return self.tols.get(name, TOLERANCES[name])


# ---------------------------------------------------------------------------
# The record table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One report record.  A run of one of its groups ("validation": the
    examples' gate) makes it when the fold holds ``when`` (else its key, else
    its name), from ``value(worst)`` or else the fold's value under the key
    (0.0 if none), at ``--tol tol``, else ``default``, else the name's default.
    ``role``: a "gate" passes at value <= tol, a "strict" one below tol; an
    "info" record and a "flag" always pass, a flag's note pair saying whether
    value < tol (holds, fails); any other role names an earlier record that
    gates this one, which is informational, with the pair's second note,
    where that record fails.  ``kinds``: the kinds of structure (an
    immersion's ambient one) it is for, any if empty."""

    name: str
    anchor: str
    groups: tuple[str, ...]
    tol: str | None  # None for a fixed tolerance, its default
    default: float | None = None
    key: str | None = None
    when: str | None = None
    role: str = "gate"
    note: str | tuple[str, str] | Callable[[dict, int], str] = ""  # a pair: see role
    points: int | str | None = None  # n, unless a count or the fold key of one
    value: Callable[[dict], float] | None = None
    kinds: tuple = ()


STRUCTURE, IDENTITIES, CLASSIFY = ("structure",), ("identities",), ("classify",)
INEQUALITIES, VALIDATION = ("inequalities",), ("validation",)

# a report's records come in the order of their rows
ROWS = (
    Row("gate-metric", "metric-validity", VALIDATION, None, 1e-10),
    Row("gate-warping-positive", "warping-positivity", VALIDATION, None, 1.0,
        note="positivity verified pointwise"),
    Row("gate-rank", "immersion-rank", VALIDATION, None, 0.5),
    Row("gate-warped-block", "induced-warped-block-form", VALIDATION, "warped-block",
        key="warped-block-form"),

    Row("complex-square", "almost-complex-square", STRUCTURE + VALIDATION, "structure", 1e-10),
    Row("complex-compatibility", "almost-complex-compatibility", STRUCTURE + VALIDATION,
        "structure", 1e-10),
    Row("kahler-parallel", "kahler-parallel-structure", STRUCTURE, "structure"),
    # the defining identities of an almost contact metric structure
    *(Row(f"contact-{key}", f"almost-contact-{key.replace('_', '-')}",
          STRUCTURE + VALIDATION, "structure", key=key) for key in CONTACT_IDENTITIES),
    *(Row(f"class-{klass}", "structure-class-law", STRUCTURE, "structure")
      for klass in CLASS_NAMES),
    Row("normality", "normality-defect", STRUCTURE, "structure"),
    Row("fundamental-form", "contact-metric-form-law", STRUCTURE, "structure"),
    Row("closed-eta", "closed-contact-form-law", STRUCTURE, "structure"),

    Row("gauss-equation", "gauss-curvature-relation", IDENTITIES, "gauss"),
    Row("scalar-identity", "traced-curvature-relation", IDENTITIES, "scalar-identity"),
    Row("shape-duality", "shape-operator-duality", IDENTITIES, "duality"),
    Row("warped-block-form", "induced-warped-block-form", IDENTITIES, "warped-block"),
    Row("warped-identity", "warped-mixed-sectional-identity", IDENTITIES, "warped-identity"),
    Row("scalar-split", "scalar-curvature-split", IDENTITIES, "scalar-split"),
    Row("leaf-geodesic", "warped-leaf-geodesic", IDENTITIES, "warped-block"),
    Row("fiber-umbilical-shape", "warped-fiber-umbilical-shape", IDENTITIES, "warped-block"),
    Row("curvature-symmetries", "curvature-tensor-symmetries", IDENTITIES,
        "curvature-symmetry"),

    # a predicate holds iff its residual stays below tol at every point
    *(Row(f"flag-{name}", "classification-flag", CLASSIFY, "classify", key=key, role="flag",
          note=("holds: true", "holds: false")) for key, name in (
        ("geodesic", "totally-geodesic"), ("umbilical", "totally-umbilical"),
        ("minimal", "minimal"), ("mixed_geodesic", "mixed-totally-geodesic"),
        ("d1_geodesic", "leaf-totally-geodesic"), ("d1_minimal", "leaf-minimal"),
        ("d2_minimal", "fiber-minimal"), ("d2_umbilical", "fiber-totally-umbilical"))),

    Row("inequalities", "inequality-suite", INEQUALITIES, None, 1.0, role="info", points=0,
        note="skipped: no warped declaration"),
    Row("main-inequality", "main-curvature-sum-bound", INEQUALITIES, "slack",
        key="negative-slack", value=lambda w: nan_max(0.0, w["negative-slack"]),
        note=lambda w, n: f"min slack {format_number(-w['negative-slack'])}; equality at "
                          f"{w['equality']}/{n} points"),
    Row("equality-diagnostics", "equality-case-diagnostics", INEQUALITIES, "slack",
        role="info", note="informational: worst equality-condition residual"),
    Row("space-form-consistency", "flat-space-form-reduction", INEQUALITIES, "slack"),
    # the contact CR suite: the Reeb tangency, a precondition of the rest,
    # its gate (invariance of the leaf block, anti-invariance of the fiber
    # block), then the form's laws
    Row("cr-reeb-tangency", "contact-cr-reeb-tangency", INEQUALITIES + VALIDATION, "cr", 1e-8,
        note=lambda w, _n: "precondition failed at some points"
        if w.get("cr-reeb-not-tangent") else ""),
    Row("cr-leaf-invariance", "contact-cr-leaf-invariance", INEQUALITIES + VALIDATION, "cr",
        when="cr-reeb-tangency"),
    Row("cr-fiber-anti-invariance", "contact-cr-fiber-anti-invariance",
        INEQUALITIES + VALIDATION, "cr", when="cr-reeb-tangency"),
    Row("cr-form-on-reeb-pairs", "contact-cr-form-on-reeb-pairs", INEQUALITIES, "cr",
        when="cr-reeb-tangency"),
    Row("cr-leaf-vs-fiber-image", "contact-cr-leaf-vs-fiber-image", INEQUALITIES, "cr",
        when="cr-reeb-tangency"),
    Row("cr-invariant-flip", "contact-cr-invariant-flip", INEQUALITIES, "cr",
        when="cr-reeb-tangency"),
    Row("cr-invariance-gate", "complex-cr-invariance", INEQUALITIES, "cr",
        when="leaf_invariance", role="flag",
        value=lambda w: nan_max(w.get("leaf_invariance", 0.0),
                                w.get("fiber_anti_invariance", 0.0)),
        note=("CR gate holds (informational)", "CR gate fails (informational)")),
    Row("leaf-mean-curvature", "leaf-partial-mean-curvature", INEQUALITIES, "leaf-minimality",
        1e-7, kinds=("contact",)),
    # leaf-minimality is a theorem about CR-warped products: enforce it only
    # where the machine-checked CR gate holds, report it otherwise
    Row("leaf-mean-curvature", "leaf-partial-mean-curvature", INEQUALITIES, "leaf-minimality",
        role="cr-invariance-gate", kinds=("complex", None),
        note=("", "informational: not a CR-warped product, theorem not applicable")),
    # the fiber lemma's hypotheses, reported, and its conclusion, which gates
    # only the points where both hold
    Row("fiber-minimal-hypothesis", "fiber-partial-mean-curvature", INEQUALITIES, "cr",
        role="info", note="hypothesis residual, not a gate"),
    Row("fiber-umbilical-hypothesis", "fiber-umbilicity", INEQUALITIES, "cr",
        role="info", note="hypothesis residual, not a gate"),
    Row("fiber-geodesic-conclusion", "fiber-lemma-conclusion", INEQUALITIES, "cr",
        when="fiber-lemma-tested", role="strict", points="fiber-lemma-tested",
        note=lambda w, n: f"implication tested at {w['fiber-lemma-tested']}/{n} points"
        + (" (hypotheses fail everywhere; vacuous)" if w["fiber-lemma-tested"] == 0 else "")),
    Row("variant-reduction", "generalized-bound-reduction", INEQUALITIES, "reduction",
        points=1000),
)


def records(worst: dict, n: int, groups, tols: dict, kind: str | None = None) -> CheckReport:
    """The records, in table order, of the rows in any of the groups, for
    the kind of the subject's structure (an immersion's ambient one), whose
    ``when`` key ``worst``, a fold over n points, holds; at the tolerances
    ``tols`` overrides, else at each row's default."""
    rep, holds = CheckReport(), {}
    for row in ROWS:
        key = row.key or row.name
        if ((row.when or key) not in worst or not set(groups) & set(row.groups)
                or row.kinds and kind not in row.kinds):
            continue
        value = row.value(worst) if row.value else worst.get(key, 0.0)
        tol = tols.get(row.tol) or row.default or TOLERANCES[row.tol]
        holds[row.name] = ok = value < tol
        passed = None  # a gate: value <= tol
        if row.role == "strict":
            passed = ok
        elif row.role in ("info", "flag"):
            passed = True
        elif row.role != "gate":  # gated by the named record
            ok = holds.get(row.role, False)
            passed = None if ok else True
        note = (row.note[not ok] if isinstance(row.note, tuple)
                else row.note(worst, n) if callable(row.note) else row.note)
        points = worst[row.points] if isinstance(row.points, str) else row.points
        rep.add(row.name, row.anchor, value, tol, n if points is None else points,
                note=note, passed=passed)
    return rep


# ---------------------------------------------------------------------------
# Value folds per subject kind
# ---------------------------------------------------------------------------


def _metric_values(g: MetricField, rc: RunConfig) -> tuple[dict, int]:
    points = sample_points(g, rc.points, rc.seed)
    worst = fold_blocks(points, g.dim, lambda x: MetricBlock(g, x), lambda block: {
        "curvature-symmetries": Curvature4(block.curvature).max_symmetry_residual()})
    return worst, len(points)


def _laws(klass: str | None) -> dict:
    """{key: residual} of the laws a contact structure of the class obeys
    besides its class law: normality, and the law of the fundamental form
    Phi, Phi = d(eta)/2 on a contact metric structure (Sasakian, or no class
    declared) and d(eta) = 0 on a Kenmotsu or cosymplectic one.  None on a
    nearly cosymplectic one: a normal nearly cosymplectic structure is
    cosymplectic (Blair 1971), and neither form law holds across the class."""
    if klass == "nearly_cosymplectic":
        return {}
    normality = {"normality": nijenhuis_normality_residuals}
    if klass in ("kenmotsu", "cosymplectic"):
        return {**normality, "closed-eta": closed_eta_residuals}
    return {**normality, "fundamental-form": fundamental_form_residuals}


def _structure_step(s, klass: str | None):
    """The structure records' values over a StructureBlock's points; each
    contact law's at [point, pair] over the coordinate pairs (e_a, e_b), a < b."""
    if isinstance(s, AlmostComplexStructure):
        return lambda t: s.residuals(t, require_kahler=True)
    pairs = (slice(None),) + np.triu_indices(s.dim, 1)

    def step(t):
        out = s.identity_residuals(t)
        if klass:
            out[f"class-{klass}"] = structure_class_residuals(t, klass)[pairs]
        for key, law in _laws(klass).items():
            out[key] = law(t)[pairs]
        return out
    return step


def _structure_values(s, rc: RunConfig) -> tuple[dict, int]:
    points = sample_points(s, rc.points, rc.seed)
    return fold_blocks(points, s.dim, lambda x: StructureBlock(s, x),
                       _structure_step(s, s.klass)), len(points)


def _warped_step(w: WarpedBlock) -> dict:
    """The identity records' values over a warped metric's block."""
    symmetries = Curvature4(w.total.curvature).max_symmetry_residual()
    blocks = block_second_form_residuals(w)
    return {"warped-identity": warping_identity_residual(w)["residual"],
            "leaf-geodesic": blocks["leaf_geodesic"],
            "fiber-umbilical-shape": blocks["fiber_umbilical_shape"],
            "curvature-symmetries": symmetries}


def _warped_values(w: WarpedMetric, rc: RunConfig) -> tuple[dict, int]:
    points = sample_points(w, rc.points, rc.seed)
    return fold_blocks(points, w.dim, lambda x: WarpedBlock(w, x), _warped_step), len(points)


def _identity_values(block: ImmersionBlock) -> dict:
    normal = block.frames.normal_frame
    out = {"gauss-equation": gauss_residual_max(block),
           "scalar-identity": scalar_identity_residual(block),
           "shape-duality": np.stack([np.zeros(len(normal))] + [
               shape_operator(block, normal[..., r])[1] for r in range(normal.shape[2])], 1)}
    if block.im.warped is not None:
        out["warped-block-form"] = warped_block_defect(block)
        out["warped-identity"] = warping_identity(block.frame_curvatures[0], block.warped.geom,
                                                  block.scalars)["residual"]
        out["scalar-split"] = scalar_decomposition_residual(block)
    return out


def _inequality_values(block: ImmersionBlock, rc: RunConfig) -> dict:
    s, out = block.im.structure, {}
    if isinstance(s, AlmostComplexStructure):
        res = main_inequality(block, tol=rc.tol("slack"))
        geom, sc = block.warped.geom, block.scalars
        flat_rhs = space_form_rhs(0.0, geom.n1, geom.n2, sc.grad_lnf_sq, sc.lap_lnf)
        out = {"negative-slack": -res.slack, "equality": res.equality,
               "equality-diagnostics": np.stack(list(res.diagnostics.values()), 1),
               "space-form-consistency": abs(flat_rhs - res.rhs),
               **complex_cr_defects(block)}
    elif isinstance(s, AlmostContactStructure):
        out = contact_cr_residuals(block)
    return {**out, **leaf_mean_curvature(block), **fiber_lemma_residuals(block, rc.tol("cr"))}


def _immersion_values(im: Immersion, groups, rc: RunConfig) -> tuple[dict, int]:
    points = sample_points(im, rc.points, rc.seed)
    s = im.structure
    steps = []
    if "identities" in groups:
        steps.append(_identity_values)
    if "classify" in groups:
        steps.append(classification_residuals)
    if "inequalities" in groups and im.warped is not None:
        steps.append(lambda block: _inequality_values(block, rc))
    # validate the ambient structure where the immersion lives
    structure = _structure_step(s, None) if "structure" in groups and s is not None else None
    worst = {}
    if steps:
        if structure:
            steps.insert(0, lambda block: structure(block.tensors))
        worst = fold_sff(im, points, *steps)
    elif structure:
        worst = fold_blocks(points, im.ambient_dim, lambda x: ImmersionBlock(im, x).tensors,
                            structure)
    if "inequalities" in groups:
        # the suite's skip record, or the seed's variant gap
        if im.warped is None:
            worst["inequalities"] = 0.0
        else:
            worst["variant-reduction"] = _variant_gap(rc.seed)
    return worst, len(points)


@functools.cache
def _variant_gap(seed: int) -> float:
    """Worst gap between the generalized bound at gamma = 0 and twice the
    space-form bound over the seed's 1,000 draws; it depends on nothing else."""
    c, n1, n2, grad, lap = _variant_draws(seed)
    gap = (generalized_rhs(c, 0.0, n1, n2, grad, lap)
           - 2.0 * space_form_rhs(c, n1, n2, grad, lap))
    return nan_max(0.0, float(np.max(np.abs(gap))))


def _pcg64_raw(seed: int, n: int) -> np.ndarray:
    """``default_rng(seed).bit_generator.random_raw(n)`` bit for bit, in Python
    integers: SeedSequence(seed) with a 4-word pool and no spawn key, then PCG64
    (128-bit LCG, XSL-RR output; O'Neill 2014), as numpy's bit_generator.pyx."""
    m32, k = 0xFFFFFFFF, 0x43B0D7E5
    words = [seed >> b & m32 for b in range(0, max(seed.bit_length(), 1), 32)]

    def hashmix(v):
        nonlocal k
        v = (v ^ k) * (k := k * 0x931E8875 & m32) & m32
        return v ^ v >> 16

    def mix(x, v):  # mix(x, hashmix(v))
        r = (0xCA01F9DD * x - 0x4973F715 * hashmix(v)) & m32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], w)
    # generate_state(4, uint64) as 128-bit (hi << 64 | lo) initstate, initseq
    k, seeds = 0x8B51F9DD, [0, 0]
    for i in range(8):
        v = (pool[i % 4] ^ k) * (k := k * 0x58F38DED & m32) & m32
        seeds[i // 4] |= (v ^ v >> 16) << 32 * (i % 4 ^ 2)
    mult, m128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    inc = (seeds[1] << 1 | 1) & m128
    s = ((inc + seeds[0]) * mult + inc) & m128
    states = bytearray()
    for _ in range(n):
        s = (s * mult + inc) & m128
        states += s.to_bytes(16, "little")
    lo, hi = np.frombuffer(states, "<u8").reshape(n, 2).T
    x, rot = lo ^ hi, hi >> np.uint64(58)
    # a uint64 shift by 64 is undefined: rotate left by (64 - rot) mod 64
    return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))


def _variant_draws(seed: int) -> tuple[np.ndarray, ...]:
    """Arrays c, n1, n2, grad, lap holding the 1,000 draws that
    ``rng.uniform(-8, 8)``, ``rng.integers(1, 6)`` twice, ``rng.uniform(0, 50)``
    and ``rng.uniform(-50, 50)``, called in turn, give from default_rng(seed).

    Each turn reads four 64-bit PCG64 outputs, which :func:`_pcg64_raw` gives
    bit for bit (tests pin them to numpy's), so a run does not import
    numpy.random.  A uniform draw is ``low + (high - low) * u`` with
    ``u = (raw >> 11) * 2**-53``.  The two integers come from the low, then
    the high 32-bit half of the second output, by Lemire's method:
    ``1 + ((half * 5) >> 32)``.  That method rejects a half of 0
    (2**32 mod 5 == 1) and draws again, which shifts the stream, so a seed
    with such a half takes numpy's scalar calls instead.
    """
    raw = _pcg64_raw(seed, 4000).reshape(1000, 4)
    halves = np.stack([raw[:, 1] & 0xFFFFFFFF, raw[:, 1] >> 32])
    if not halves.all():
        rng = np.random.default_rng(seed)
        draws = [(rng.uniform(-8, 8), rng.integers(1, 6), rng.integers(1, 6),
                  rng.uniform(0, 50), rng.uniform(-50, 50)) for _ in range(1000)]
        return tuple(np.array(col) for col in zip(*draws))
    u = (raw[:, [0, 2, 3]] >> 11) * 2.0**-53
    n1, n2 = 1 + ((halves * 5) >> 32).astype(np.int64)
    return -8 + 16 * u[:, 0], n1, n2, 50 * u[:, 1], -50 + 100 * u[:, 2]


# ---------------------------------------------------------------------------
# Validation gates
# ---------------------------------------------------------------------------

GATE_POINTS = 16
GATE_SEED = 7


def _metric_gate(block: MetricBlock) -> dict:
    block.ginv  # raises where the metric is not symmetric, finite and positive definite
    return {"gate-metric": block.metric.symmetry_residual(block.points)}


def _warping_gate(w: WarpedBlock) -> dict:
    w.total.ginv, w.scalars  # raise where the total metric is not valid, then where f <= 0
    return {}


def validate(cfg: BuiltConfig) -> CheckReport:
    """Run the example's validation gate, chosen by its subject kind; every
    record must pass before the example feeds any downstream check."""
    subject, tols = cfg.subject, {}
    points = sample_points(subject, GATE_POINTS, GATE_SEED)
    if isinstance(subject, MetricField):
        worst = fold_blocks(points, subject.dim, lambda x: MetricBlock(subject, x),
                            _metric_gate)
    elif isinstance(subject, WarpedMetric):
        worst = {"gate-warping-positive": 0.0,
                 **fold_blocks(points, subject.dim, lambda x: WarpedBlock(subject, x),
                               _warping_gate)}
    elif isinstance(subject, AlmostContactStructure):
        worst = fold_blocks(points, subject.dim, lambda x: StructureBlock(subject, x),
                            subject.identity_residuals)
        tols = {"structure": 1e-9}  # the gate holds the contact identities to 1e-9
    elif isinstance(subject, AlmostComplexStructure):
        worst = fold_blocks(points, subject.dim, lambda x: StructureBlock(subject, x),
                            lambda t: subject.residuals(t, False))
    else:  # an immersion: one walk gives the rank gate and the others' values
        steps = []
        if subject.warped is not None:
            steps.append(lambda block: {"warped-block-form": warped_block_defect(block)})
            if isinstance(subject.structure, AlmostContactStructure):
                steps.append(contact_cr_residuals)
        try:
            worst = {"gate-rank": 0.0, **fold_sff(subject, points, *steps)}
        except WarpcheckError:  # rank or definiteness failure
            worst = {"gate-rank": 1.0}
    return records(worst, len(points), VALIDATION, tols)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _resolve(target: str) -> tuple[BuiltConfig, str]:
    if target in BUILTINS:
        return load_builtin(target), f"builtin:{target}"
    path = Path(target)
    if path.exists():
        return load_config(path), str(path)
    raise WarpcheckError(
        f"target {target!r} is neither a builtin ({', '.join(builtin_names())}) "
        f"nor a config file")


def run(rc: RunConfig) -> tuple[int, dict, str]:
    """Execute the requested checks; returns (exit code, report doc, text)."""
    try:
        cfg, resolved = _resolve(rc.target)
        subject = cfg.subject
        groups = CHECK_GROUPS if "all" in rc.checks else rc.checks

        worst, n, kind = {}, 0, None
        if isinstance(subject, MetricField):
            if "identities" in groups:
                worst, n = _metric_values(subject, rc)
        elif isinstance(subject, (AlmostComplexStructure, AlmostContactStructure)):
            if "structure" in groups:
                worst, n = _structure_values(subject, rc)
        elif isinstance(subject, WarpedMetric):
            if "identities" in groups:
                worst, n = _warped_values(subject, rc)
        elif isinstance(subject, Immersion):
            worst, n = _immersion_values(subject, groups, rc)
            kind = getattr(subject.structure, "kind", None)
        else:
            raise WarpcheckError(f"cannot check subject of type {type(subject)}")
        rep = records(worst, n, groups, rc.tols, kind)
    except (ParseError, WarpcheckError) as err:
        return 2, {}, f"configuration error: {err}"

    doc = {
        "version": __version__,
        "config": {
            "target": resolved,
            "checks": list(CHECK_GROUPS if "all" in rc.checks else rc.checks),
            "points": rc.points,
            "seed": rc.seed,
            "tolerances": {k: rc.tols[k] for k in sorted(rc.tols)},
        },
        "checks": [r.as_dict() for r in rep.records],
        "verdict": "pass" if rep.passed else "fail",
    }
    text = render_text(doc)
    return (0 if rep.passed else 1), doc, text


def render_text(doc: dict) -> str:
    lines = [f"warpcheck {doc['version']}  target={doc['config']['target']}  "
             f"points={doc['config']['points']}  seed={doc['config']['seed']}"]
    for rec in doc["checks"]:
        status = "PASS" if rec["pass"] else "FAIL"
        line = (f"{status} {rec['name']}  worst={format_number(rec['worst'])}  "
                f"tol={format_number(rec['tol'])}  points={rec['points']}")
        if rec.get("note"):
            line += f"  ({rec['note']})"
        lines.append(line)
    lines.append(f"VERDICT: {doc['verdict']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="warpcheck",
        description="Pointwise verification of curvature identities and "
                    "inequalities for warped-product CR-submanifolds.")
    p.add_argument("--target", required=True,
                   help="builtin name or path to a config file")
    p.add_argument("--checks", default="all",
                   help="comma list from: structure, identities, classify, "
                        "inequalities, all")
    p.add_argument("--points", type=int, default=64,
                   help="Halton points per domain box (default 64)")
    p.add_argument("--seed", type=int, default=42,
                   help="Halton sequence offset (default 42)")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="tolerance override, repeatable; NAME is one of: "
                        + ", ".join(TOLERANCES))
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--version", action="version", version=__version__)
    return p


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    checks = tuple(c.strip() for c in ns.checks.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_GROUPS + ("all",):
            raise WarpcheckError(f"unknown check group {c!r}")
    tols = {}
    for item in ns.tol:
        name, _, val = item.partition("=")
        if name not in TOLERANCES:
            raise WarpcheckError(f"unknown tolerance name {name!r}; valid names: "
                                 f"{', '.join(TOLERANCES)}")
        try:
            tols[name] = float(val)
        except ValueError:
            raise WarpcheckError(f"bad tolerance value in {item!r}") from None
    return RunConfig(target=ns.target, checks=checks, points=ns.points,
                     seed=ns.seed, tols=tols, fmt=ns.fmt, out=ns.out)


def main(argv=None) -> int:
    try:
        rc = parse_args(argv)
    except WarpcheckError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    # a bad value fails its record or exits 2; numpy need not warn of it too
    with np.errstate(all="ignore"):
        code, doc, text = run(rc)
    if code == 2:
        print(text, file=sys.stderr)
        return 2

    payload = to_json_bytes(doc) if rc.fmt == "json" else text.encode()
    if rc.out:
        try:
            Path(rc.out).write_bytes(payload)
        except OSError as err:
            print(f"output error: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
