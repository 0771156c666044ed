"""Gallery round-trip: every builtin loads from its config, passes its gate,
and agrees with the directly-built fixtures."""

import re
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest
from helpers import (box_points, chen_cr_immersion, gate_report, sasakian_cr_immersion,
                     standard_sasakian_r5)

from warpcheck.cli import RunConfig, run
from warpcheck.config import load_config_text, parse_config_text
from warpcheck.errors import ConfigurationError
from warpcheck.gallery import BUILTINS, builtin_names, load_builtin
from warpcheck.riemann import MetricField
from warpcheck.structures import StructureBlock
from warpcheck.subman import InducedMetric

# ---------------------------------------------------------------------------
# Config reader
# ---------------------------------------------------------------------------

MINI = """
# tiny config
[metric line]
dim = 1
row_1 = "1"
domain_lo = 0
domain_hi = 1

[subject]
kind = metric
target = line
"""


def test_minimal_config_parses():
    cfg = load_config_text(MINI)
    assert isinstance(cfg.subject, MetricField)
    assert cfg.subject.dim == 1


def test_config_reports_expression_offset():
    bad = MINI.replace('"1"', '"x1 +"')
    with pytest.raises(ConfigurationError) as ei:
        load_config_text(bad)
    assert "offset 4" in str(ei.value)


@pytest.mark.parametrize("mutation,needle", [
    ("[metric line", "malformed section header"),
    ("dim : 1", "expected 'key = value'"),
    ("row_9 = \"1\"", "duplicate"),
])
def test_config_error_messages(mutation, needle):
    if "duplicate" in needle:
        text = MINI.replace('row_1 = "1"', 'row_1 = "1"\nrow_1 = "1"')
    else:
        text = MINI.replace("[metric line]", mutation) if mutation.startswith("[") \
            else MINI.replace("dim = 1", mutation)
    with pytest.raises(ConfigurationError) as ei:
        load_config_text(text)
    assert needle.split()[0] in str(ei.value)


def test_subject_required():
    with pytest.raises(ConfigurationError):
        load_config_text('[metric m]\ndim = 1\nrow_1 = "1"\n')


def test_comments_do_not_reach_into_quotes():
    # the quoted '#' must survive comment stripping and reach the expression
    # parser (which then rejects it at its own offset, not at the quote)
    text = MINI.replace('row_1 = "1"', 'row_1 = "1 # x"  # comment')
    with pytest.raises(ConfigurationError) as ei:
        load_config_text(text)
    assert "offset 2" in str(ei.value)

    # a trailing comment after a normal value is invisible
    cfg = load_config_text(MINI.replace('dim = 1', 'dim = 1  # chart dim'))
    assert cfg.subject.dim == 1


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def test_builtin_roster():
    assert builtin_names() == sorted(["e1", "e2", "e3", "e4", "e5", "e6", "e7",
                                      "s2-warped", "sasakian-r5"])


def test_unknown_builtin():
    with pytest.raises(ConfigurationError):
        load_builtin("e99")


# the bound the contact identities are held to at the gate, tighter than the
# report's structure tolerance; they measure 5.6e-17 (e5) and 2.8e-17
CONTACT_GATE = 1e-9


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_passes_its_gate(name):
    code, doc = gate_report(name)
    assert code == 0, [(r["name"], r["worst"]) for r in doc["checks"] if not r["pass"]]
    contact = [r["worst"] for r in doc["checks"] if r["name"].startswith("contact-")]
    assert len(contact) == (6 if name in ("e5", "sasakian-r5") else 0)
    assert all(worst <= CONTACT_GATE for worst in contact), contact


def test_gallery_e1_matches_direct_fixture():
    loaded = load_builtin("e1")
    im_cfg = loaded.subject
    im_direct = chen_cr_immersion()
    for x in box_points(im_direct.domain, 3, seed=43):
        g1 = InducedMetric(im_cfg).value(x)
        g2 = InducedMetric(im_direct).value(x)
        npt.assert_allclose(g1, g2, atol=1e-14)


def test_gallery_e5_matches_direct_fixture():
    loaded = load_builtin("e5")
    im_cfg = loaded.subject
    im_direct = sasakian_cr_immersion()
    x = np.array([1.0, 0.8, 0.1, 0.7])
    npt.assert_allclose(InducedMetric(im_cfg).value(x),
                        InducedMetric(im_direct).value(x), atol=1e-14)


def test_gallery_sasakian_structure_matches_fixture():
    loaded = load_builtin("sasakian-r5")
    s_cfg = loaded.subject
    s_direct = standard_sasakian_r5()
    x = np.array([0.3, -0.2, 0.5, 0.1, 0.4])
    t_a, t_b = StructureBlock(s_cfg, x[None]), StructureBlock(s_direct, x[None])
    npt.assert_allclose(t_a.op[0], t_b.op[0])
    npt.assert_allclose(t_a.xi, t_b.xi)
    npt.assert_allclose(t_a.eta[0], t_b.eta[0])
    assert s_cfg.klass == "sasakian"


def test_a_domain_error_in_the_gate_walk_is_not_a_rank_failure(tmp_path):
    # ln(x1) is negative where x1 < 0; a gate once read this as a rank
    # failure, where the rank is fine
    text = resources.files("warpcheck").joinpath("data", "e1_chen_cr.cfg").read_text()
    path = tmp_path / "ln.cfg"
    path.write_text(text.replace('warp_f = "sqrt(x1^2 + x2^2)"', 'warp_f = "ln(x1)"'))
    code, _, message = run(RunConfig(str(path), points=16, seed=7))
    assert code == 2
    assert re.fullmatch(r"configuration error: domain error in 'ln' \(argument value "
                        r"-1\.925\d*\) at offset 0", message), message
