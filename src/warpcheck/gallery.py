"""Curated, validated example instances anchoring the acceptance suite.

Built-ins ship as config files in the package data directory, in the same
format user configs use.  Every example carries a machine-checkable
validation gate; a gate failure is a build-breaking error, never a silent
skip.  Expected outcomes recorded here state how each expectation was
obtained ("hand" for closed-form computation, "numerical" for values the
engine itself certifies through independent residual checks, "definition"
for direct consequences of the construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
import numpy as np

from .config import BuiltConfig, load_config_text
from .errors import ConfigurationError, WarpcheckError
from .report import CheckReport, nan_max
from .sampling import halton_points
from .structures import (AlmostComplexStructure, AlmostContactStructure, fold_tensors,
                         validate_almost_contact)
from .subman import (Immersion, contact_cr_checks, contact_cr_residuals, fold_sff,
                     warped_block_defect)
from .warped import WarpedMetric

GATE_POINTS = 16
GATE_SEED = 7


@dataclass(frozen=True)
class ExampleSpec:
    """Roster entry: where the config lives and what the example promises."""

    name: str
    config_file: str
    kind: str  # metric | structure | warped | immersion
    expected: dict = field(default_factory=dict)


BUILTINS: dict[str, ExampleSpec] = {
    spec.name: spec for spec in (
        ExampleSpec(
            name="e1", config_file="e1_chen_cr.cfg", kind="immersion",
            expected={
                "d1_minimal": (True, "hand"),
                "minimal": (True, "hand"),
                "mixed_totally_geodesic": (False, "hand"),
                "main_inequality": ("equality", "hand"),
                "half_form_norm_sq": ("1/r^2", "hand"),
            }),
        ExampleSpec(
            name="e2", config_file="e2_hyperbolic.cfg", kind="warped",
            expected={"sectional": (-1.0, "hand"),
                      "warped_identity_sides": (-1.0, "hand")}),
        ExampleSpec(
            name="e3", config_file="e3_round_s2.cfg", kind="immersion",
            expected={"scalar_curvature": (1.0, "hand"),
                      "mean_norm": (1.0, "hand"),
                      "form_norm_sq": (2.0, "hand")}),
        ExampleSpec(
            name="e4", config_file="e4_trivial_product.cfg", kind="immersion",
            expected={"all_residuals": (0.0, "definition"),
                      "main_inequality": ("equality", "definition")}),
        ExampleSpec(
            name="e5", config_file="e5_sasakian_cr.cfg", kind="immersion",
            expected={"cr_pairing_residuals": ("< 1e-7", "numerical"),
                      "leaf_mean_curvature": ("< 1e-7", "numerical")}),
        ExampleSpec(
            name="e6", config_file="e6_perturbed_e1.cfg", kind="immersion",
            expected={"main_inequality_slack": ("> 1e-3", "numerical")}),
        ExampleSpec(
            name="e7", config_file="e7_torus.cfg", kind="immersion",
            expected={"d2_minimal": (False, "hand")}),
        ExampleSpec(
            name="s2-warped", config_file="s2_warped.cfg", kind="warped",
            expected={"sectional": (1.0, "hand"),
                      "warped_identity_sides": (1.0, "hand")}),
        ExampleSpec(
            name="sasakian-r5", config_file="sasakian_r5.cfg", kind="structure",
            expected={"phi_sectional": (-3.0, "hand"),
                      "class": ("sasakian", "hand")}),
    )
}


@dataclass
class LoadedExample:
    spec: ExampleSpec
    config: BuiltConfig

    @property
    def subject(self):
        return self.config.subject


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def load_builtin(name: str) -> LoadedExample:
    spec = BUILTINS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}")
    text = resources.files("warpcheck").joinpath("data", spec.config_file) \
        .read_text(encoding="utf-8")
    return LoadedExample(spec=spec, config=load_config_text(text))


# ---------------------------------------------------------------------------
# Validation gates
# ---------------------------------------------------------------------------


def sample_points(subject, n: int, seed: int) -> list[np.ndarray]:
    """Halton points in the subject's domain box; warped metrics and
    structures sample their metric's box."""
    if isinstance(subject, WarpedMetric):
        subject = subject.assembled
    elif isinstance(subject, (AlmostComplexStructure, AlmostContactStructure)):
        subject = subject.metric
    if getattr(subject, "domain", None) is None:
        raise ConfigurationError("subject declares no domain box to sample")
    return halton_points(subject.domain, n, seed)


def validate(loaded: LoadedExample, n_points: int = GATE_POINTS,
             seed: int = GATE_SEED) -> CheckReport:
    """Run the example's validation gate; every record must pass before the
    example feeds any downstream check."""
    subject = loaded.subject
    rep = CheckReport()
    kind = loaded.spec.kind
    points = sample_points(subject, n_points, seed)
    n = len(points)

    if kind == "metric":
        subject.validate_at(points)
        worst = reduce(nan_max, (subject.symmetry_residual(x) for x in points))
        rep.add("gate-metric", "metric-validity", worst, 1e-10, n)
        return rep

    if kind == "warped":
        subject.validate_at(points)  # raises on f <= 0 or indefinite blocks
        rep.add("gate-warping-positive", "warping-positivity", 0.0, 1.0, n,
                passed=True, note="positivity verified pointwise")
        return rep

    if kind == "structure":
        if isinstance(subject, AlmostContactStructure):
            worst = fold_tensors(subject, points, subject.identity_residuals)
            rep.merge(validate_almost_contact(subject, worst, n, tol=1e-9))
        else:
            worst = fold_tensors(subject, points, lambda t: subject.residuals(t, False))
            rep.merge(subject.validate(worst, n))
        return rep

    # immersion: one walk gives the rank gate and the values of the others
    im: Immersion = subject
    steps = []
    if im.warped is not None:
        steps.append(lambda sff: {"gate-warped-block": warped_block_defect(sff)})
        if isinstance(im.structure, AlmostContactStructure):
            steps.append(contact_cr_residuals)
    try:
        worst = fold_sff(im, points, *steps)
    except WarpcheckError:  # rank or definiteness failure
        rep.add("gate-rank", "immersion-rank", 1.0, 0.5, n, passed=False)
        return rep
    rep.add("gate-rank", "immersion-rank", 0.0, 0.5, n, passed=True)
    if im.warped is not None:
        rep.add("gate-warped-block", "induced-warped-block-form",
                worst["gate-warped-block"], 1e-8, n)
    if "cr-reeb-tangency" in worst:
        cr = contact_cr_checks(worst, n)
        for rec_name in ("cr-reeb-tangency", "cr-leaf-invariance",
                         "cr-fiber-anti-invariance"):
            rep.records.append(cr[rec_name])
    return rep
