"""Curated, validated example instances anchoring the acceptance suite.

Built-ins ship as config files in the package data directory, in the same
format user configs use.  Every example carries a machine-checkable
validation gate; a gate failure is a build-breaking error, never a silent
skip.
"""

from __future__ import annotations

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


# builtin name -> config file in the package data directory
BUILTINS: dict[str, str] = {
    "e1": "e1_chen_cr.cfg",
    "e2": "e2_hyperbolic.cfg",
    "e3": "e3_round_s2.cfg",
    "e4": "e4_trivial_product.cfg",
    "e5": "e5_sasakian_cr.cfg",
    "e6": "e6_perturbed_e1.cfg",
    "e7": "e7_torus.cfg",
    "s2-warped": "s2_warped.cfg",
    "sasakian-r5": "sasakian_r5.cfg",
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def load_builtin(name: str) -> BuiltConfig:
    config_file = BUILTINS.get(name)
    if config_file is None:
        raise ConfigurationError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}")
    text = resources.files("warpcheck").joinpath("data", config_file) \
        .read_text(encoding="utf-8")
    return load_config_text(text)


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


def validate(cfg: BuiltConfig) -> CheckReport:
    """Run the example's validation gate, chosen by its subject kind; every
    record must pass before the example feeds any downstream check."""
    subject = cfg.subject
    rep = CheckReport()
    kind = cfg.subject_kind
    points = sample_points(subject, GATE_POINTS, GATE_SEED)
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
