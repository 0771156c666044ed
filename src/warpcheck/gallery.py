"""Curated example instances anchoring the acceptance suite.

Built-ins ship as config files in the package data directory, in the same
format user configs use.  Each has a machine-checkable validation gate,
:func:`warpcheck.cli.validate`, the ``validation`` step of the check table
(``cli._checks``), which the test suite runs on every builtin; a run of the
command line does not.
"""

from __future__ import annotations

from importlib import resources
import numpy as np

from .config import BuiltConfig, load_config_text
from .errors import ConfigurationError
from .sampling import halton_points


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


def sample_points(subject, n: int, seed: int) -> list[np.ndarray]:
    """Halton points in the subject's domain box; warped metrics and
    structures sample their metric's box."""
    subject = getattr(subject, "metric", subject)
    if getattr(subject, "domain", None) is None:
        raise ConfigurationError("subject declares no domain box to sample")
    return halton_points(subject.domain, n, seed)
