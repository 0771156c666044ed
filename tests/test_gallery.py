"""Gallery round-trip: every builtin loads from its config, passes its gate,
and agrees with the directly-built fixtures."""

import hashlib
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest
from helpers import (box_points, chen_cr_immersion, flat_metric, sasakian_cr_immersion,
                     standard_sasakian_r5)

from warpcheck.cli import validate
from warpcheck.config import BuiltConfig, load_config_text, parse_config_text
from warpcheck.errors import ConfigurationError, JetDomainError
from warpcheck.expr import parse
from warpcheck.gallery import BUILTINS, builtin_names, load_builtin
from warpcheck.jets import DomainBox
from warpcheck.report import to_json_bytes
from warpcheck.riemann import MetricField
from warpcheck.structures import StructureBlock
from warpcheck.subman import Immersion, InducedMetric, WarpedDecl

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


# sha256 of each builtin's gate records as JSON; never update one to fit
GATE_DIGESTS = {
    "e1": "ab30a8b8c23e1dc2491299e0e4bdc0540c4bbe26a2c16b9b0d9e743d439cd559",
    "e2": "d55dff41adb0aecb7225bd21fac0793e9da9c0172900d2f27acc71e2f1bfe326",
    "e3": "30b652a2788d1624fe561c5f2d791bb126f28db1453a48249ad0d08727dcd6c5",
    "e4": "43bdc46f5fb3b602cdec80e1be5f3e633f2d17f56a9c9b5ce6b3b3501f61c167",
    "e5": "d4d56c0ebf32b05bf9d9cc4d4c21cde07748f940279bc5ee3b77f0cd3d7c592e",
    "e6": "ab30a8b8c23e1dc2491299e0e4bdc0540c4bbe26a2c16b9b0d9e743d439cd559",
    "e7": "ab30a8b8c23e1dc2491299e0e4bdc0540c4bbe26a2c16b9b0d9e743d439cd559",
    "s2-warped": "d55dff41adb0aecb7225bd21fac0793e9da9c0172900d2f27acc71e2f1bfe326",
    "sasakian-r5": "593787268c7c9dc36d7418edb71d25183bbf5b82c22649c992ee231026800f0b",
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_passes_its_gate(name):
    loaded = load_builtin(name)
    rep = validate(loaded)
    assert rep.passed, [(r.name, r.worst) for r in rep.records]
    records = to_json_bytes([r.as_dict() for r in rep.records])
    assert hashlib.sha256(records).hexdigest() == GATE_DIGESTS[name]


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


def test_rank_failure_reports_only_the_rank_gate():
    # the other gates read the walk the rank failure stopped
    im = Immersion(dim=2, components=[parse("x1", 2), parse("x1", 2)],
                   ambient=flat_metric(2), warped=WarpedDecl(1, 1, parse("1", 1)),
                   domain=DomainBox((0.0, 0.0), (1.0, 1.0)), name="collapsed")
    rep = validate(BuiltConfig(im))
    assert [(r.name, r.passed) for r in rep.records] == [("gate-rank", False)]



def test_a_domain_error_in_the_gate_walk_is_not_a_rank_failure():
    # ln(x1) is negative where x1 < 0; the gate used to read this as the
    # rank failure [('gate-rank', 1.0, False)], where the rank is fine
    text = resources.files("warpcheck").joinpath("data", "e1_chen_cr.cfg").read_text()
    cfg = load_config_text(text.replace('warp_f = "sqrt(x1^2 + x2^2)"', 'warp_f = "ln(x1)"'))
    with pytest.raises(JetDomainError, match=r"^domain error in 'ln' \(argument value "
                                             r"-1\.925\d*\) at offset 0$"):
        validate(cfg)
