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
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from . import __version__
from .config import BuiltConfig, load_config
from .errors import ConfigurationError, WarpcheckError
from .expr import ParseError
from .gallery import BUILTINS, builtin_names, load_builtin, sample_points
from .ineq import (fiber_lemma_residuals, generalized_rhs, leaf_mean_curvature,
                   main_inequality, scalar_decomposition_residual, space_form_rhs)
from .jets import per_block
from .report import CheckReport, fold, format_number, nan_max, to_json_bytes
from .riemann import Curvature4, MetricBlock, MetricField
from .structures import (CONTACT_IDENTITIES, AlmostComplexStructure,
                         AlmostContactStructure, closed_eta_residuals, fold_tensors,
                         fundamental_form_residuals, nijenhuis_normality_residuals,
                         structure_class_residuals)
from .subman import (Immersion, ImmersionBlock, classification_residuals,
                     complex_cr_defects, contact_cr_residuals, fold_sff, gauss_residual_max,
                     scalar_identity_residual, shape_operator, warped_block_defect)
from .warped import (WarpedBlock, WarpedMetric, block_second_form_residuals,
                     warping_identity_residual)

CHECK_GROUPS = ("structure", "identities", "classify", "inequalities")

DEFAULT_TOLS = {
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
        return self.tols.get(name, DEFAULT_TOLS[name])


# ---------------------------------------------------------------------------
# Check runners per subject kind
# ---------------------------------------------------------------------------


def _add(rep: CheckReport, worst: dict, n: int, *specs) -> None:
    """One record per (name, anchor, tol), from the worst value under name."""
    for name, anchor, tol in specs:
        rep.add(name, anchor, worst[name], tol, n)


def _complex_records(rep: CheckReport, worst: dict, n: int, tol: float | None = None):
    """The records of :meth:`AlmostComplexStructure.residuals` that ``worst``
    holds, folded over the n points, at tol or else at each one's default."""
    for key, anchor, default in (
            ("complex-square", "almost-complex-square", 1e-10),
            ("complex-compatibility", "almost-complex-compatibility", 1e-10),
            ("kahler-parallel", "kahler-parallel-structure", 1e-8)):
        if key in worst:
            rep.add(key, anchor, worst[key], tol or default, n)


def _contact_records(rep: CheckReport, s: AlmostContactStructure, worst: dict, n: int,
                     tol: float):
    """One record per defining identity of an almost contact metric structure;
    ``worst``: :meth:`~AlmostContactStructure.identity_residuals` folded."""
    if s.dim % 2 == 0:
        raise ConfigurationError("almost contact structures need odd dimension")
    for key in CONTACT_IDENTITIES:
        rep.add(f"contact-{key}", f"almost-contact-{key.replace('_', '-')}", worst[key],
                tol, n)


# the contact CR suite after the Reeb tangency: its gate (invariance of the
# leaf block, anti-invariance of the fiber block), then the form's laws
CR_SUITE = ("cr-leaf-invariance", "cr-fiber-anti-invariance", "cr-form-on-reeb-pairs",
            "cr-leaf-vs-fiber-image", "cr-invariant-flip")


def _contact_cr_records(rep: CheckReport, worst: dict, n: int, tol: float | None = None,
                        names=CR_SUITE):
    """The Reeb tangency, a precondition of the suite, and the named records
    of the contact CR suite, at tol or else at each one's default (1e-8 for
    the tangency); ``worst``: :func:`contact_cr_residuals` folded."""
    rep.add("cr-reeb-tangency", "contact-cr-reeb-tangency", worst["cr-reeb-tangency"],
            tol or 1e-8, n, note="precondition failed at some points"
            if worst.get("cr-reeb-not-tangent") else "")
    for name in names:
        rep.add(name, f"contact-{name}", worst.get(name, 0.0), tol or DEFAULT_TOLS["cr"], n)


# classification residual key, flag record name
PREDICATES = (
    ("geodesic", "totally-geodesic"),
    ("umbilical", "totally-umbilical"),
    ("minimal", "minimal"),
    ("mixed_geodesic", "mixed-totally-geodesic"),
    ("d1_geodesic", "leaf-totally-geodesic"),
    ("d1_minimal", "leaf-minimal"),
    ("d2_minimal", "fiber-minimal"),
    ("d2_umbilical", "fiber-totally-umbilical"),
)


def _fiber_lemma_records(rep: CheckReport, worst: dict, n: int, tol: float):
    """The fiber lemma's hypotheses, reported, and its conclusion, which gates
    only the points where both hold; ``worst``: :func:`fiber_lemma_residuals`
    at the same tol, folded over the n points."""
    tested = worst["fiber-lemma-tested"]
    conclusion = worst.get("fiber-geodesic-conclusion", 0.0)
    rep.add("fiber-minimal-hypothesis", "fiber-partial-mean-curvature",
            worst["fiber-minimal-hypothesis"], tol, n, passed=True,
            note="hypothesis residual, not a gate")
    rep.add("fiber-umbilical-hypothesis", "fiber-umbilicity",
            worst["fiber-umbilical-hypothesis"], tol, n, passed=True,
            note="hypothesis residual, not a gate")
    note = f"implication tested at {tested}/{n} points"
    if tested == 0:
        note += " (hypotheses fail everywhere; vacuous)"
    rep.add("fiber-geodesic-conclusion", "fiber-lemma-conclusion", conclusion, tol, tested,
            passed=tested == 0 or conclusion < tol, note=note)


def _metric_checks(g: MetricField, rc: RunConfig, rep: CheckReport):
    points = sample_points(g, rc.points, rc.seed)
    g.validate_at(points)

    def walk(block):
        symmetries = Curvature4(MetricBlock(g, block).curvature).max_symmetry_residual()
        return ({"curvature-symmetries": r} for r in symmetries.tolist())

    worst = fold(per_block(points, walk))
    _add(rep, worst, len(points), ("curvature-symmetries", "curvature-tensor-symmetries",
                                   rc.tol("curvature-symmetry")))


def _laws(klass: str | None) -> dict:
    """{record: (anchor, residual)} of the laws a contact structure of the
    class obeys besides its class law: normality, and the law of the
    fundamental form Phi, Phi = d(eta)/2 on a contact metric structure
    (Sasakian, or no class declared) and d(eta) = 0 on a Kenmotsu or
    cosymplectic one.  None on a nearly cosymplectic one: a normal nearly
    cosymplectic structure is cosymplectic (Blair 1971), and neither form
    law holds across the class."""
    if klass == "nearly_cosymplectic":
        return {}
    normality = {"normality": ("normality-defect", nijenhuis_normality_residuals)}
    if klass in ("kenmotsu", "cosymplectic"):
        return {**normality, "closed-eta": ("closed-contact-form-law", closed_eta_residuals)}
    return {**normality,
            "fundamental-form": ("contact-metric-form-law", fundamental_form_residuals)}


def _structure_step(s, klass: str | None):
    """Per-point values of the structure records, from a StructureTensors;
    each contact law's values over the coordinate pairs (e_a, e_b), a < b."""
    if isinstance(s, AlmostComplexStructure):
        return lambda t: s.residuals(t, require_kahler=True)
    upper = np.triu_indices(s.dim, 1)

    def step(t):
        out = s.identity_residuals(t)
        if klass:
            out[f"class-{klass}"] = structure_class_residuals(t, klass)[upper].tolist()
        for key, (_, law) in _laws(klass).items():
            out[key] = law(t)[upper].tolist()
        return out
    return step


def _structure_report(s, klass: str | None, n: int, worst: dict, rc: RunConfig,
                      rep: CheckReport):
    if isinstance(s, AlmostComplexStructure):
        _complex_records(rep, worst, n, rc.tols.get("structure"))
        return
    tol = rc.tol("structure")
    _contact_records(rep, s, worst, n, tol)
    if klass:
        _add(rep, worst, n, (f"class-{klass}", "structure-class-law", tol))
    _add(rep, worst, n, *((key, anchor, tol) for key, (anchor, _) in _laws(klass).items()))


def _structure_checks(s, klass: str | None, rc: RunConfig, rep: CheckReport):
    points = sample_points(s, rc.points, rc.seed)
    worst = fold_tensors(s, points, _structure_step(s, klass))
    _structure_report(s, klass, len(points), worst, rc, rep)


def _warped_checks(w: WarpedMetric, rc: RunConfig, rep: CheckReport):
    points = sample_points(w, rc.points, rc.seed)
    w.validate_at(points)

    def walk(block):
        wb = WarpedBlock(w, block)
        symmetries = Curvature4(wb.total.curvature).max_symmetry_residual()
        for p, sym in zip(wb, symmetries.tolist()):
            blocks = block_second_form_residuals(p)
            yield {"warped-identity": warping_identity_residual(p)["residual"],
                   "leaf-geodesic": blocks["leaf_geodesic"],
                   "fiber-umbilical-shape": blocks["fiber_umbilical_shape"],
                   "curvature-symmetries": sym}

    worst = fold(per_block(points, walk))
    _add(rep, worst, len(points),
         ("warped-identity", "warped-mixed-sectional-identity", rc.tol("warped-identity")),
         ("leaf-geodesic", "warped-leaf-geodesic", rc.tol("warped-block")),
         ("fiber-umbilical-shape", "warped-fiber-umbilical-shape", rc.tol("warped-block")),
         ("curvature-symmetries", "curvature-tensor-symmetries",
          rc.tol("curvature-symmetry")))


def _identity_values(sff) -> dict:
    out = {"gauss-equation": gauss_residual_max(sff),
           "scalar-identity": scalar_identity_residual(sff),
           "shape-duality": [0.0] + [shape_operator(sff, zeta)[1]
                                     for zeta in sff.normal_frame.T]}
    if sff.warped is not None:
        out["warped-block-form"] = warped_block_defect(sff)
        out["warped-identity"] = warping_identity_residual(sff.warped)["residual"]
        out["scalar-split"] = scalar_decomposition_residual(sff)
    return out


def _inequality_values(sff, rc: RunConfig) -> dict:
    s, out = sff.im.structure, {}
    if isinstance(s, AlmostComplexStructure):
        res = main_inequality(sff, tol=rc.tol("slack"))
        p = sff.warped
        flat_rhs = space_form_rhs(0.0, p.geom.n1, p.geom.n2, p.scalars.grad_lnf_sq,
                                  p.scalars.lap_lnf)
        out = {"negative-slack": -res.slack, "equality": bool(res.equality),
               "equality-diagnostics": [res.diagnostics[k] for k in
                                        ("leaf_form_norm", "fiber_form_norm", "mean_norm")],
               "space-form-consistency": abs(flat_rhs - res.rhs),
               **complex_cr_defects(sff)}
    elif isinstance(s, AlmostContactStructure):
        out = contact_cr_residuals(sff)
    return {**out, **leaf_mean_curvature(sff), **fiber_lemma_residuals(sff, rc.tol("cr"))}


def _immersion_checks(im: Immersion, groups, rc: RunConfig, rep: CheckReport):
    points = sample_points(im, rc.points, rc.seed)
    n, s = len(points), im.structure
    steps = []
    if "identities" in groups:
        steps.append(_identity_values)
    if "classify" in groups:
        steps.append(classification_residuals)
    if "inequalities" in groups and im.warped is not None:
        steps.append(lambda sff: _inequality_values(sff, rc))
    structure = "structure" in groups and s is not None
    worst = {}
    if steps:
        if structure:
            # validate the ambient structure where the immersion lives
            structure_step = _structure_step(s, None)
            steps.insert(0, lambda sff: structure_step(sff.tensors))
        worst = fold_sff(im, points, *steps)
    elif structure:
        step = _structure_step(s, None)
        worst = fold(per_block(points, lambda block: map(
            step, ImmersionBlock(im, block).tensors)))

    if structure:
        _structure_report(s, None, n, worst, rc, rep)
    if "identities" in groups:
        _add(rep, worst, n, ("gauss-equation", "gauss-curvature-relation", rc.tol("gauss")),
             ("scalar-identity", "traced-curvature-relation", rc.tol("scalar-identity")),
             ("shape-duality", "shape-operator-duality", rc.tol("duality")))
        if im.warped is not None:
            _add(rep, worst, n,
                 ("warped-block-form", "induced-warped-block-form", rc.tol("warped-block")),
                 ("warped-identity", "warped-mixed-sectional-identity",
                  rc.tol("warped-identity")),
                 ("scalar-split", "scalar-curvature-split", rc.tol("scalar-split")))
    if "classify" in groups:
        # a predicate holds iff its residual stays below tol at every point
        tol = rc.tol("classify")
        for key, name in PREDICATES:
            if key in worst:
                rep.add(f"flag-{name}", "classification-flag", worst[key], tol, n,
                        passed=True, note=f"holds: {str(worst[key] < tol).lower()}")
    if "inequalities" in groups:
        _inequality_report(im, n, worst, rc, rep)


def _inequality_report(im: Immersion, n: int, worst: dict, rc: RunConfig,
                       rep: CheckReport):
    if im.warped is None:
        rep.add("inequalities", "inequality-suite", 0.0, 1.0, 0, passed=True,
                note="skipped: no warped declaration")
        return

    if isinstance(im.structure, AlmostComplexStructure):
        min_slack = -worst["negative-slack"]
        rep.add("main-inequality", "main-curvature-sum-bound",
                0.0 if min_slack >= 0 else -min_slack, rc.tol("slack"), n,
                note=f"min slack {format_number(min_slack)}; equality at "
                     f"{worst['equality']}/{n} points")
        rep.add("equality-diagnostics", "equality-case-diagnostics",
                worst["equality-diagnostics"], rc.tol("slack"), n, passed=True,
                note="informational: worst equality-condition residual")
        _add(rep, worst, n, ("space-form-consistency", "flat-space-form-reduction",
                             rc.tol("slack")))

    # name, anchor and worst value of the leaf-minimality record
    leaf = ("leaf-mean-curvature", "leaf-partial-mean-curvature",
            worst["leaf-mean-curvature"])
    if isinstance(im.structure, AlmostContactStructure):
        _contact_cr_records(rep, worst, n, rc.tols.get("cr"))
        # the contact suite's default, unless leaf-minimality is given
        rep.add(*leaf, rc.tols.get("leaf-minimality", DEFAULT_TOLS["cr"]), n)
    else:
        # leaf-minimality is a theorem about CR-warped products: enforce it
        # only when the machine-checked CR gate holds, report otherwise
        gate_ok = False
        if isinstance(im.structure, AlmostComplexStructure):
            gate_worst = nan_max(worst.get("leaf_invariance", 0.0),
                                 worst.get("fiber_anti_invariance", 0.0))
            gate_ok = gate_worst < rc.tol("cr")
            rep.add("cr-invariance-gate", "complex-cr-invariance", gate_worst,
                    rc.tol("cr"), n, passed=True,
                    note=f"CR gate {'holds' if gate_ok else 'fails'} (informational)")
        if gate_ok:
            rep.add(*leaf, rc.tol("leaf-minimality"), n)
        else:
            rep.add(*leaf, rc.tol("leaf-minimality"), n, passed=True,
                    note="informational: not a CR-warped product, theorem not applicable")
    _fiber_lemma_records(rep, worst, n, rc.tol("cr"))

    rep.add("variant-reduction", "generalized-bound-reduction", _variant_gap(rc.seed),
            rc.tol("reduction"), 1000)


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


def validate(cfg: BuiltConfig) -> CheckReport:
    """Run the example's validation gate, chosen by its subject kind; every
    record must pass before the example feeds any downstream check."""
    subject, rep = cfg.subject, CheckReport()
    points = sample_points(subject, GATE_POINTS, GATE_SEED)
    n = len(points)
    if isinstance(subject, MetricField):
        subject.validate_at(points)
        worst = functools.reduce(nan_max, (subject.symmetry_residual(x) for x in points))
        rep.add("gate-metric", "metric-validity", worst, 1e-10, n)
    elif isinstance(subject, WarpedMetric):
        subject.validate_at(points)  # raises on f <= 0 or indefinite blocks
        rep.add("gate-warping-positive", "warping-positivity", 0.0, 1.0, n,
                passed=True, note="positivity verified pointwise")
    elif isinstance(subject, AlmostContactStructure):
        worst = fold_tensors(subject, points, subject.identity_residuals)
        _contact_records(rep, subject, worst, n, 1e-9)
    elif isinstance(subject, AlmostComplexStructure):
        _complex_records(rep, fold_tensors(subject, points,
                                           lambda t: subject.residuals(t, False)), n)
    else:  # an immersion: one walk gives the rank gate and the others' values
        steps = []
        if subject.warped is not None:
            steps.append(lambda sff: {"warped-block-form": warped_block_defect(sff)})
            if isinstance(subject.structure, AlmostContactStructure):
                steps.append(contact_cr_residuals)
        try:
            worst = fold_sff(subject, points, *steps)
        except WarpcheckError:  # rank or definiteness failure
            rep.add("gate-rank", "immersion-rank", 1.0, 0.5, n, passed=False)
            return rep
        rep.add("gate-rank", "immersion-rank", 0.0, 0.5, n, passed=True)
        if subject.warped is not None:
            rep.add("gate-warped-block", "induced-warped-block-form",
                    worst["warped-block-form"], DEFAULT_TOLS["warped-block"], n)
        if "cr-reeb-tangency" in worst:
            _contact_cr_records(rep, worst, n, names=CR_SUITE[:2])
    return rep


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
        rep = CheckReport()
        groups = CHECK_GROUPS if "all" in rc.checks else rc.checks

        if isinstance(subject, MetricField):
            if "identities" in groups:
                _metric_checks(subject, rc, rep)
        elif isinstance(subject, (AlmostComplexStructure, AlmostContactStructure)):
            if "structure" in groups:
                _structure_checks(subject, subject.klass, rc, rep)
        elif isinstance(subject, WarpedMetric):
            if "identities" in groups:
                _warped_checks(subject, rc, rep)
        elif isinstance(subject, Immersion):
            _immersion_checks(subject, groups, rc, rep)
        else:
            raise WarpcheckError(f"cannot check subject of type {type(subject)}")
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
                   help="tolerance override, repeatable")
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
        if name not in DEFAULT_TOLS:
            raise WarpcheckError(f"unknown tolerance name {name!r}")
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
