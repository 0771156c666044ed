"""CLI behavior: exit codes, determinism, format parity, overrides."""

import gc
import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import (DEEP_EXPRESSIONS, OVERFLOWING_INDUCED_METRIC, flat_immersion_config,
                     line_metric_config)

from warpcheck import cli, expr, ineq, jets, report, riemann, structures, subman
from warpcheck.cli import (TOLERANCES, RunConfig, main, parse_args, render_text,
                           run)
from warpcheck.errors import WarpcheckError
from warpcheck.gallery import builtin_names, load_builtin, sample_points
from warpcheck.report import CheckReport, fold, format_number, nan_max, to_json_bytes

BAD_CFG = '[metric m]\ndim = 1\nrow_1 = "x1 +"\n\n[subject]\nkind = metric\ntarget = m\n'
E2_CFG = resources.files("warpcheck").joinpath("data", "e2_hyperbolic.cfg").read_text()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_trivial_product_all_checks_pass(capsys):
    code = main(["--target", "e4", "--points", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT: pass" in out
    assert "main-inequality" in out


def test_perturbed_example_reports_strict_slack():
    code, doc, _ = run(RunConfig(target="e6", points=6))
    assert code == 0
    rec = next(r for r in doc["checks"] if r["name"] == "main-inequality")
    m = re.search(r"min slack ([0-9.e+-]+)", rec["note"])
    assert float(m.group(1)) > 1e-3
    assert "equality at 0/6" in rec["note"]


def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(BAD_CFG)
    code = main(["--target", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "offset 4" in err


def test_unknown_target_exits_2(capsys):
    assert main(["--target", "no-such-thing"]) == 2
    assert "neither a builtin" in capsys.readouterr().err


def test_unknown_check_group_exits_2(capsys):
    assert main(["--target", "e4", "--checks", "bogus"]) == 2


def test_bad_tolerance_exits_2(capsys):
    for tol in ("gauss=abc", "nope=1", "gauss=nan", "gauss=inf"):
        assert main(["--target", "e4", "--tol", tol]) == 2
        assert capsys.readouterr().err.count("\n") == 1, tol


def test_an_unknown_tolerance_name_lists_the_valid_ones(capsys):
    assert main(["--target", "e4", "--tol", "foo=1"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown tolerance name 'foo'; valid names: "
        + ", ".join(TOLERANCE_ROUTES) + "\n")
    assert ("NAME is one of: " + ", ".join(TOLERANCE_ROUTES)
            in " ".join(cli.build_parser().format_help().split()))


@pytest.mark.parametrize("target,seed,points", [("e3", "-5", "4"), ("e1", "-1", "2")])
def test_negative_seed_exits_2(target, seed, points, capsys):
    # Halton indices start at seed + 1; the random reduction check needs seed >= 0
    assert main(["--target", target, "--seed", seed, "--points", points]) == 2
    assert capsys.readouterr().err == "configuration error: seed must be >= 0\n"


@pytest.mark.parametrize("seed, index", [(2**63 - 1, 2**63 + 23), (2**64, 2**64 + 24)])
def test_a_seed_past_the_int64_halton_indices_exits_2(seed, index, capsys):
    # these used to end in a TypeError traceback (2**64) or to sample one
    # point 8 times (2**63 - 1), once the indices left int64
    assert main(["--target", "e2", "--seed", str(seed), "--points", "8"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: seed {seed} needs Halton index {index}, past int64\n")


def test_a_seed_whose_halton_indices_fit_in_int64_samples():
    points = sample_points(load_builtin("e2").subject, 8, 2**63 - 200)
    assert len(np.unique(points, axis=0)) == 8
    assert run(RunConfig(target="e2", points=8, seed=2**63 - 200))[0] == 0


E3_BALL = 'domain_hi = 3.0415926, 6.1831853\nexclude_center = 1, 1\nexclude_radius = 0.1\n'


@pytest.mark.parametrize("old,new", [
    ("domain_hi = 3.0415926", "domain_hi = 0.05"),
    ("domain_hi = 3.0415926", "domain_hi = inf"),
    ("exclude_radius = 0.1", "exclude_radius = -1"),
    ("exclude_radius = 0.1", "exclude_radius = 0.1\nexclude_axes = 1, 7"),
    ("exclude_center = 1, 1", "exclude_center = 1, 1, 1"),
    ("exclude_radius = 0.1", "exclude_radius = 0.1\nexclude_axes = 0, 1"),
    ("dim = 2", "dim = 2.7"),
    ("exclude_radius = 0.1", 'exclude_radius = 0.1\nwarp_n1 = 1.5\nwarp_n2 = 1.5\n'
                             'warp_f = "1"'),
], ids=["empty-interval", "infinite-bound", "negative-radius", "axis-out-of-range",
        "long-center", "zero-based-axes", "fractional-dim", "fractional-warp-blocks"])
def test_malformed_domain_exits_2(tmp_path, capsys, old, new):
    text = resources.files("warpcheck").joinpath("data", "e3_round_s2.cfg").read_text()
    text = text.replace("domain_hi = 3.0415926, 6.1831853\n", E3_BALL)
    p = tmp_path / "e3_domain.cfg"
    p.write_text(text.replace(old, new, 1))
    assert main(["--target", str(p), "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[immersion round_s2]" in err, err


@pytest.mark.parametrize("cfg,old,new,where", [
    ("e1_chen_cr", 'j_row_1 = "0", "-1", "0", "0"', 'j_row_1 = "0", "-1", "0"',
     "[structure kahler_c2] j_row_1: 4 entries"),
    ("e1_chen_cr", 'j_row_1 = "0", "-1", "0", "0"', 'j_row_1 = "0", "-1", "0", "0", "0"',
     "[structure kahler_c2] j_row_1: 4 entries"),
    ("sasakian_r5", 'phi_row_5 = "0", "0", "-1*x3", "-1*x4", "0"',
     'phi_row_5 = "0", "0", "-1*x3", "-1*x4"',
     "[structure std_sasakian] phi_row_5: 5 entries"),
    ("sasakian_r5", 'xi = "0", "0", "0", "0", "2"', 'xi = "0", "0", "1"',
     "[structure std_sasakian] xi: 5 entries"),
    ("sasakian_r5", 'eta = "-0.5*x3", "-0.5*x4", "0", "0", "0.5"',
     'eta = "-0.5*x3", "-0.5*x4", "0", "0", "0.5", "0"',
     "[structure std_sasakian] eta: 5 entries"),
    ("s2_warped", 'f = "sin(x1)"', 'f = "sin(x1)", "2"', "[warped s2_warped] f: one entry"),
    ("e1_chen_cr", 'warp_f = "sqrt(x1^2 + x2^2)"', 'warp_f = "sqrt(x1^2 + x2^2)", "1"',
     "[immersion chen_cr] warp_f: one entry"),
    ("e3_round_s2", "dim = 3", "dim = 3, 4", "[metric flat_r3] dim: one entry"),
    ("e1_chen_cr", "warp_n1 = 2", "warp_n1 = 2, 1", "[immersion chen_cr] warp_n1: one entry"),
    ("e1_chen_cr", "warp_n2 = 1", "warp_n2 = 1, 7", "[immersion chen_cr] warp_n2: one entry"),
    ("e1_chen_cr", "exclude_radius = 0.1", "exclude_radius = 0.1, 5",
     "[immersion chen_cr] exclude_radius: one entry"),
], ids=["short-j-row", "long-j-row", "short-phi-row", "short-xi", "long-eta", "two-f",
        "two-warp-f", "two-dims", "two-warp-n1", "two-warp-n2", "two-exclude-radii"])
def test_config_entry_counts_exit_2(tmp_path, capsys, cfg, old, new, where):
    text = resources.files("warpcheck").joinpath("data", f"{cfg}.cfg").read_text()
    assert old in text
    p = tmp_path / f"{cfg}.cfg"
    p.write_text(text.replace(old, new, 1))
    assert main(["--target", str(p), "--points", "4"]) == 2
    assert capsys.readouterr().err == f"configuration error: {where} expected\n"


def _flat_complex(dim: int) -> str:
    """A flat metric of the dimension and the standard complex structure on it."""
    def rows(key, m):
        return "".join(f"{key}_{i} = " + ", ".join(f'"{int(v)}"' for v in row) + "\n"
                       for i, row in enumerate(m, 1))
    j = np.kron(np.eye(dim // 2), [[0, -1], [1, 0]])
    return (f"[metric flat{dim}]\ndim = {dim}\n{rows('row', np.eye(dim))}\n"
            f"[structure j{dim}]\nkind = complex\nmetric = flat{dim}\n{rows('j_row', j)}\n")


@pytest.mark.parametrize("checks", ["all", "structure", "identities", "inequalities"])
@pytest.mark.parametrize("dim", [6, 2], ids=["larger", "smaller"])
def test_a_structure_of_another_dimension_than_the_ambient_exits_2(tmp_path, capsys, dim,
                                                                    checks):
    # this used to end in a numpy broadcast traceback on the groups that read
    # the structure, and to run the other groups as if it fitted
    head = "[immersion chen_cr]\ndim = 3\nambient = flat_c2\nstructure = "
    p = _builtin_with(tmp_path, "e1_chen_cr.cfg", head + "kahler_c2",
                      _flat_complex(dim) + head + f"j{dim}")
    assert main(["--target", p, "--points", "4", "--checks", checks]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: [immersion chen_cr]: structure of dimension {dim} "
        f"on an ambient of 4\n")


@pytest.mark.parametrize("checks", ["all", "structure"])
def test_a_fiber_metric_of_another_dimension_than_the_fiber_exits_2(tmp_path, capsys,
                                                                    checks):
    # this used to broadcast the 1 x 1 fiber block against the 4 x 4 metric
    # and fail warped-block-form at 5.42, or pass with --checks structure
    p = _builtin_with(tmp_path, "e1_chen_cr.cfg", "warp_fiber_metric = circle",
                      "warp_fiber_metric = flat_c2")
    assert main(["--target", p, "--points", "4", "--checks", checks]) == 2
    assert capsys.readouterr().err == ("configuration error: [immersion chen_cr]: fiber "
                                       "metric of dimension 4 for a fiber of 1\n")


@pytest.mark.parametrize("cfg,old,new,section,key", [
    ("sasakian_r5", "expected_class = sasakian", "expected_clas = sasakian",
     "structure std_sasakian", "expected_clas"),
    ("e1_chen_cr", "warp_fiber_metric = circle", "warp_fiber_metrc = circle",
     "immersion chen_cr", "warp_fiber_metrc"),
    ("e1_chen_cr", "exclude_center = 0, 0\n", "", "immersion chen_cr", "exclude_radius"),
    ("e1_chen_cr", "warp_n1 = 2\n", "", "immersion chen_cr", "warp_n2"),
    ("e1_chen_cr", "kind = complex\n", "kind = complex\nexpected_class = sasakian\n",
     "structure kahler_c2", "expected_class"),
    ("s2_warped", 'f = "sin(x1)"', 'f = "sin(x1)"\ndomain_lo = 0, 0',
     "warped s2_warped", "domain_lo"),
], ids=["misspelt-class", "misspelt-fiber", "radius-without-center", "n2-without-n1",
        "class-on-a-complex-structure", "domain-on-a-warped-section"])
def test_a_key_that_no_builder_reads_exits_2(tmp_path, capsys, cfg, old, new, section, key):
    # each key used to be ignored: sasakian-r5 lost its class record and passed
    text = resources.files("warpcheck").joinpath("data", f"{cfg}.cfg").read_text()
    assert old in text
    text = text.replace(old, new, 1)
    p = tmp_path / f"{cfg}.cfg"
    p.write_text(text)
    # the key's last line: the s2 metrics set domain_lo too
    line = [i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key + " ")][-1]
    assert main(["--target", str(p), "--points", "4"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: line {line}: [{section}] does not read key {key!r}\n")


@pytest.mark.parametrize("cfg", ["e5_sasakian_cr.cfg", "sasakian_r5.cfg"])
def test_an_unknown_contact_class_exits_2(tmp_path, capsys, cfg):
    # an immersion does not read its structure's class, so e5 used to pass
    p = _builtin_with(tmp_path, cfg, "expected_class = sasakian", "expected_class = sasakain")
    assert main(["--target", p, "--points", "4"]) == 2
    assert capsys.readouterr().err == ("configuration error: [structure std_sasakian]: "
                                       "unknown structure class 'sasakain'\n")


@pytest.mark.parametrize("extra, header", [
    ("[metric sasakian_r5_metric]\ndim = 1\nrow_1 = \"1\"\n", "[metric sasakian_r5_metric]"),
    ("[subject]\nkind = metric\ntarget = sasakian_r5_metric\n", "[subject]"),
], ids=["metric", "subject"])
def test_a_repeated_section_exits_2(tmp_path, capsys, extra, header):
    # the second section used to replace the first: sasakian-r5 still passed
    text = resources.files("warpcheck").joinpath("data", "sasakian_r5.cfg").read_text()
    rows = text.splitlines()
    p = tmp_path / "twice.cfg"
    p.write_text(text + "\n" + extra)
    assert main(["--target", str(p), "--points", "3"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: line {len(rows) + 2}: duplicate section {header} "
        f"(first at line {rows.index(header) + 1})\n")


TWO_METRICS = '[metric a]\ndim = 1\nrow_1 = "1"\n[metric b]\ndim = 1\nrow_1 = "-1"\n'


@pytest.mark.parametrize("header, line", [
    ("[subject]\nkind = metric\ntarget = b\n[subject second]", 10),
    ("[subject b]", 7),
    ("[metric]", 7),
    ("[metric c d]", 7),
], ids=["named-second-subject", "named-subject", "unnamed-metric", "three-words"])
def test_a_malformed_section_header_exits_2(tmp_path, capsys, header, line):
    # a named [subject second] used to replace the declared subject: the run
    # checked metric a and passed, where metric b alone exits 2
    p = tmp_path / "header.cfg"
    p.write_text(f"{TWO_METRICS}{header}\nkind = metric\ntarget = a\n")
    assert main(["--target", str(p), "--points", "3"]) == 2
    assert capsys.readouterr().err == (f"configuration error: line {line}: section header "
                                       f"needs '[kind name]' or '[subject]'\n")


def test_an_unreadable_target_exits_2(tmp_path, capsys):
    # a directory, and a file that is not UTF-8, used to end in a traceback
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"# caf\xe9\n" + E2_CFG.encode())
    for target, reason in ((tmp_path, "Is a directory"),
                           (latin, "'utf-8' codec can't decode byte 0xe9 in position 5: "
                                   "invalid continuation byte")):
        assert main(["--target", str(target), "--points", "3"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot read config {str(target)!r}: {reason}\n")


def test_a_byte_order_mark_is_not_part_of_the_config(tmp_path):
    # it was read as part of line 1: 'line 1: key outside any section'
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(E2_CFG)
    marked.write_bytes(b"\xef\xbb\xbf" + E2_CFG.encode())
    (code, doc, _), (marked_code, marked_doc, _) = (
        run(RunConfig(target=str(p), points=3)) for p in (plain, marked))
    assert code == marked_code == 0
    assert doc["checks"] == marked_doc["checks"]


def _metric_cfg(tmp_path, dim, row_last, lo, hi, extra=""):
    rows = "".join(f'row_{i + 1} = ' + ", ".join(
        '"1"' if j == i else '"0"' for j in range(dim)) + "\n" for i in range(dim - 1))
    last = ", ".join(['"0"'] * (dim - 1) + [f'"{row_last}"'])
    p = tmp_path / "m.cfg"
    p.write_text(f"[metric m]\ndim = {dim}\n{rows}row_{dim} = {last}\n"
                 f"domain_lo = {', '.join(map(str, lo))}\n"
                 f"domain_hi = {', '.join(map(str, hi))}\n{extra}"
                 "\n[subject]\nkind = metric\ntarget = m\n")
    return str(p)


def test_float_overflow_exits_2(tmp_path, capsys):
    cfg = _metric_cfg(tmp_path, 2, "exp(700*x1)", (-1, 0), (1.5, 1))
    assert main(["--target", cfg]) == 2
    err = capsys.readouterr().err
    assert "domain error in 'exp'" in err and "at offset 0" in err


@pytest.mark.parametrize("shape, offset, found", [
    ("parentheses", 106, "'('"), ("calls", 403, "'sin'"), ("minus", 106, "'-'"),
    ("sum", 4209, "a deeper tree")])
def test_a_too_deeply_nested_expression_exits_2_naming_an_offset(tmp_path, capsys, shape,
                                                                 offset, found):
    # each ended in a RecursionError traceback, exit 1, in the parser or in
    # the first walk of the tree it built
    p = tmp_path / "deep.cfg"
    p.write_text(line_metric_config(f"1 + 0*({DEEP_EXPRESSIONS[shape]})"))
    assert main(["--target", str(p), "--points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"configuration error: [metric m] key 'row_1' (line 3): at "
                                 f"offset {offset}: expected at most 100 levels of nesting, "
                                 f"found {found}\n")


def test_tiny_divisor_exits_2(tmp_path, capsys):
    # 1/x1 at x1 ~ 1e-110 is finite, but its second-derivative coefficient
    # 2/x1^3, which curvature reads, underflows to a division by zero (the
    # third, -6/x1^4, is never computed for a metric's order-2 jets)
    cfg = _metric_cfg(tmp_path, 2, "1 + 1/x1", (1e-110, 0), (2e-110, 1))
    assert main(["--target", cfg]) == 2
    assert "domain error in '/'" in capsys.readouterr().err


def test_an_overflowing_jet_coefficient_exits_2(tmp_path, capsys):
    # at x1 ~ 1e-104, 1/x1 and 1/x1^2 are finite, but 2/x1^3 divides by a
    # subnormal and overflows to inf without a Python error; let through, it
    # would reach the curvature as NaN and FAIL curvature-symmetries
    cfg = _metric_cfg(tmp_path, 1, "1 + 1/x1", (1e-104,), (2e-104,))
    assert main(["--target", cfg, "--points", "4"]) == 2
    assert "domain error in '/'" in capsys.readouterr().err


def test_sampling_errors_exit_2(tmp_path, capsys):
    cfg = _metric_cfg(tmp_path, 16, "1", [0] * 16, [1] * 16)
    assert main(["--target", cfg]) == 2
    assert "dim <= 15" in capsys.readouterr().err
    ball = "exclude_center = 0.5, 0.5\nexclude_radius = 2\n"
    cfg = _metric_cfg(tmp_path, 2, "1", (0, 0), (1, 1), extra=ball)
    assert main(["--target", cfg]) == 2
    assert "reject nearly all samples" in capsys.readouterr().err


def test_overflowing_immersion_image_exits_2(tmp_path, capsys):
    # the first component overflows to inf at every sample point
    text = resources.files("warpcheck").joinpath("data", "e3_round_s2.cfg").read_text()
    p = tmp_path / "e3_overflow.cfg"
    p.write_text(text.replace('"sin(x1)*cos(x2)"', '"sin(x1)*cos(x2)*1e200*1e200"'))
    for checks in ("all", "classify"):
        assert main(["--target", str(p), "--points", "4", "--checks", checks]) == 2
        assert "immersion image not finite at [" in capsys.readouterr().err


def _overflowing_partials(tmp_path, config="e3_round_s2.cfg", component="cos(x1)"):
    """A builtin config whose component, plus 1e-300*sin(1e300*x2), has second
    partials that overflow to inf at every sample point (e3's third one by
    default), and the first sample point at seed 42."""
    text = resources.files("warpcheck").joinpath("data", config).read_text()
    p = tmp_path / f"overflow_{config}"
    p.write_text(text.replace(f'"{component}"', f'"{component} + 1e-300*sin(1e300*x2)"'))
    return str(p), sample_points(cli._resolve(str(p))[0].subject, 1, 42)[0]


def test_non_finite_immersion_derivatives_exit_2(tmp_path, capsys):
    # the induced metric skips literal-0 ambient terms, and classify reads no
    # induced metric, so no 0 * inf or NaN may only fail a record instead;
    # e3 has no structure, so the structure checks alone run on e1
    e3 = _overflowing_partials(tmp_path)
    e1 = _overflowing_partials(tmp_path, "e1_chen_cr.cfg", "x1*cos(x3)")
    for (p, first), checks, points in ((e3, "all", "2"), (e3, "all", "33"),
                                       (e3, "classify", "2"), (e1, "structure", "2")):
        assert main(["--target", p, "--points", points, "--checks", checks]) == 2
        assert f"immersion derivatives not finite at {first}" in capsys.readouterr().err


@pytest.mark.parametrize("components, lo, hi", [
    OVERFLOWING_INDUCED_METRIC, (("x1", "1e200*x2", "0"), (0, 0), (1, 1))])
def test_a_non_finite_induced_metric_exits_2(tmp_path, capsys, components, lo, hi):
    # the components and their partials are finite, but J^T g J overflows to
    # inf at every sample point; its eigenvalues used to fail to converge (a
    # traceback) or come out NaN (FAIL flag-* worst="nan")
    path = tmp_path / "flat_immersion.cfg"
    path.write_text(flat_immersion_config(components, lo, hi))
    p = str(path)
    first = sample_points(cli._resolve(p)[0].subject, 1, 42)[0]
    for checks in ("all", "classify"):
        assert main(["--target", p, "--points", "2", "--checks", checks]) == 2
        assert capsys.readouterr() == ("", f"configuration error: metric not finite at {first}\n")


def _builtin_with(tmp_path, config: str, old: str, new: str) -> str:
    p = tmp_path / config
    p.write_text(resources.files("warpcheck").joinpath("data", config).read_text()
                 .replace(old, new))
    return str(p)


def _asymmetric_contact(tmp_path, config: str, declared: bool) -> str:
    """A Sasakian builtin with g_14 = 0.3 but g_41 = 0, with or without its
    declared class."""
    text = resources.files("warpcheck").joinpath("data", config).read_text()
    row = 'row_1 = "0.25 + 0.25*x3^2", "0.25*x3*x4", "0", "0", "-0.25*x3"'
    assert row in text and "expected_class = sasakian\n" in text
    text = text.replace(row, row.replace('"0", "0"', '"0", "0.3"'))
    p = tmp_path / f"{'declared' if declared else 'bare'}-{config}"
    p.write_text(text if declared else text.replace("expected_class = sasakian\n", ""))
    return str(p)


@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("config, checks", [("sasakian_r5.cfg", "all"),
                                            ("e5_sasakian_cr.cfg", "structure")])
def test_a_contact_structures_checks_validate_its_metric(tmp_path, capsys, config, checks,
                                                         declared):
    # with no class law to read the connection, these checks used to read the
    # metric unchecked and fail contact-phi_compatibility at 0.3 (exit 1)
    assert main(["--target", _asymmetric_contact(tmp_path, config, True), "--points", "4"]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("configuration error: metric not symmetric at [")
    target = _asymmetric_contact(tmp_path, config, declared)
    assert main(["--target", target, "--points", "4", "--checks", checks]) == 2
    assert capsys.readouterr().err == expected


def _assert_first_nonpositive_warping_point_exits_2(tmp_path, capsys):
    # f <= 0 only near sample point 40 of 64; the message is the bytes that
    # the point-by-point test gave, a Python float and the chart point
    cfg = _builtin_with(tmp_path, "s2_warped.cfg", 'f = "sin(x1)"',
                        'f = "(x1 - 2.4211)^2 - 0.0001"')
    assert main(["--target", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("configuration error: warping function -9.999999983113038e-05"
                                 " <= 0 at [2.42110041 4.18049055]\n")
    assert main(["--target", cfg, "--points", "40"]) == 0


def test_a_warping_function_first_nonpositive_in_the_second_block_exits_2(
        tmp_path, capsys, monkeypatch):
    # blocks of 32 points on the 2-dimensional chart put point 40 in the second
    monkeypatch.setattr(jets, "BLOCK_ENTRIES", 32 * 2**4)
    assert jets.block_points(2) == 32
    _assert_first_nonpositive_warping_point_exits_2(tmp_path, capsys)


def test_a_warping_function_first_nonpositive_in_a_one_block_sample_exits_2(tmp_path, capsys):
    assert jets.block_points(2) >= 64
    _assert_first_nonpositive_warping_point_exits_2(tmp_path, capsys)


@pytest.mark.parametrize("kind", ["metric", "warped", "structure", "ambient"])
def test_a_non_finite_chart_metric_exits_2_naming_its_first_point(tmp_path, capsys, kind):
    # 1e200*1e200 is inf, which a Cholesky factorization lets through; the
    # parent of this check reported FAIL curvature-symmetries worst="nan"
    inf = "1e200*1e200"
    p = {"metric": lambda: _metric_cfg(tmp_path, 2, f"{inf}*x1", (0.1, 0.1), (1, 1)),
         "warped": lambda: _builtin_with(tmp_path, "e2_hyperbolic.cfg", 'row_1 = "1"\ndomain_lo',
                                         f'row_1 = "{inf}"\ndomain_lo'),
         "structure": lambda: _builtin_with(tmp_path, "sasakian_r5.cfg", '"0", "0", "0.25", "0"',
                                            f'"0", "0", "{inf}", "0"'),
         "ambient": lambda: _builtin_with(tmp_path, "e3_round_s2.cfg", '"0", "0", "1"',
                                          f'"0", "0", "{inf}"')}[kind]()
    assert main(["--target", p, "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: metric not finite at [")
    if kind != "ambient":  # an ambient block's points are the images
        first = sample_points(cli._resolve(p)[0].subject, 4, 42)[0]
        assert err == f"configuration error: metric not finite at {first}\n"


def test_a_metric_overflowing_inside_a_run_exits_2_naming_the_first_such_point(tmp_path,
                                                                             capsys):
    p = _metric_cfg(tmp_path, 2, "1e300*x1^(-10)", (0.1, 0.1), (1, 1))  # inf where x1 < 0.1494
    points = sample_points(cli._resolve(p)[0].subject, 33, 42)
    first = next(x for x in points if x[0] < 0.1494)
    assert np.array_equal(first, points[5])
    assert main(["--target", p, "--points", "33"]) == 2
    assert capsys.readouterr().err == f"configuration error: metric not finite at {first}\n"


def test_overflow_prints_only_the_error_line(tmp_path):
    # numpy's overflow warnings on the way to the error stay out of stderr
    p, first = _overflowing_partials(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "warpcheck", "--target", p, "--points", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: immersion derivatives not finite at {first}\n"


def _surface_cfg(tmp_path, components, g33="1"):
    """A surface in R^3 with metric diag(1, 1, g33), over [0.1, 1]^2."""
    p = tmp_path / "surface.cfg"
    p.write_text('[metric m]\ndim = 3\nrow_1 = "1", "0", "0"\nrow_2 = "0", "1", "0"\n'
                 f'row_3 = "0", "0", "{g33}"\n\n[immersion s]\ndim = 2\nambient = m\n'
                 f'components = {components}\ndomain_lo = 0.1, 0.1\n'
                 'domain_hi = 1.0, 1.0\n\n[subject]\nkind = immersion\ntarget = s\n')
    return str(p)


@pytest.mark.parametrize("checks", ["classify", "all"])
def test_a_rank_deficient_point_inside_a_run_exits_2_naming_it(tmp_path, capsys, checks):
    # the second partial vanishes where x1 is sample point 17's, inside the
    # first block of a 33-point run; the message names that point
    a = sample_points(cli._resolve(_surface_cfg(tmp_path, '"x1", "x2", "0"'))[0].subject,
                      33, 42)[17][0]
    assert a == 0.3109375
    p = _surface_cfg(tmp_path, f'"x1", "x2*(x1 - {a})", "x2*(x1 - {a})^2"')
    assert main(["--target", p, "--points", "33", "--checks", checks]) == 2
    assert capsys.readouterr().err == (
        "configuration error: immersion differential near rank-deficient at "
        "[0.3109375  0.32222222] (smallest singular value 0.000e+00)\n")


def test_an_incomplete_normal_frame_exits_2(tmp_path, capsys):
    # the only normal direction has norm 1e-10, below the completion threshold
    p = _surface_cfg(tmp_path, '"x1", "x2", "0"', g33="1e-20")
    assert main(["--target", p, "--points", "33", "--checks", "classify"]) == 2
    assert capsys.readouterr().err == "configuration error: could not complete normal frame\n"


def test_a_dependent_tangent_seed_exits_2(tmp_path, capsys):
    # a warping function of 1e-16 leaves the fiber seed a norm below the pivot
    text = resources.files("warpcheck").joinpath("data", "s2_warped.cfg").read_text()
    p = tmp_path / "thin.cfg"
    p.write_text(text.replace('f = "sin(x1)"', 'f = "1e-16*sin(x1)"'))
    assert main(["--target", str(p), "--points", "33"]) == 2
    assert capsys.readouterr().err == "configuration error: seed 1 is dependent on earlier seeds\n"


def test_a_tiny_warping_function_fails_on_its_frame_not_on_ln(tmp_path, capsys):
    # ln f is read to order 2, so its third coefficient 2/f^3, which
    # underflows, is not computed; the error is the real one, g22 = f^2 ~ 1e-220
    cfg = _builtin_with(tmp_path, "s2_warped.cfg", 'f = "sin(x1)"', 'f = "1e-110*exp(x1)"')
    assert main(["--target", cfg]) == 2
    err = capsys.readouterr().err
    assert "'ln'" not in err
    assert err == "configuration error: seed 1 is dependent on earlier seeds\n"


def test_frames_run_one_step_per_block_and_seed(monkeypatch):
    # each block's tangent and normal frames are built together: a step per
    # seed over the whole block, never one per point
    stacks = []
    step = riemann.gram_schmidt_step

    def counted(g, *rest):
        stacks.append(len(g))
        return step(g, *rest)

    monkeypatch.setattr(riemann, "gram_schmidt_step", counted)
    monkeypatch.setattr(subman, "gram_schmidt_step", counted)
    code, _, _ = run(RunConfig(target="e6", checks=("classify",), points=70))
    assert code == 0
    # n = 3 tangent seeds, then coordinate seeds until each point has m = 6 columns
    per_block = len(stacks) // 3
    assert stacks == [32] * per_block + [32] * per_block + [6] * per_block
    assert 3 + 3 <= per_block <= 3 + 6


def test_classification_residuals_take_four_norm_calls_a_block(monkeypatch):
    calls, norms = [], subman.metric_norms
    monkeypatch.setattr(subman, "metric_norms", lambda g, v: calls.append(1) or norms(g, v))
    code, _, _ = run(RunConfig(target="e6", checks=("classify",), points=70))
    assert code == 0 and len(calls) <= 4 * 3, len(calls)  # 70 points are 3 blocks


def test_immersion_components_evaluated_once_per_block(monkeypatch):
    im = load_builtin("e6").subject
    counts = Counter()
    eval_jets = expr.eval_jets

    def counted(e, bindings):
        counts[id(e)] += 1
        return eval_jets(e, bindings)

    monkeypatch.setattr(expr, "eval_jets", counted)
    fold, steps = cli._checks(im, RunConfig(target="e6", points=3))
    points = sample_points(im, 3, 42)
    worst, n = fold(points, *(steps[group] for group in cli.CHECK_GROUPS)), len(points)
    rep = cli.records(worst, n, cli.CHECK_GROUPS, {}, im.structure.kind)
    assert rep.passed
    assert [counts[id(c)] for c in im.components] == [1] * len(im.components)


@pytest.mark.parametrize("target", ["e5", "e6"])
def test_library_checks_give_the_cli_records(target):
    # a library caller folds the same walk as the CLI into the same records
    code, doc, _ = run(RunConfig(target=target, points=33, seed=42))
    cli_records = {rec["name"]: rec for rec in doc["checks"]}
    im = load_builtin(target).subject
    s, points, cr = im.structure, sample_points(im, 33, 42), TOLERANCES["cr"]
    n = len(points)
    contact = isinstance(s, structures.AlmostContactStructure)
    worst = subman.fold_sff(
        im, points, subman.classification_residuals, ineq.leaf_mean_curvature,
        partial(ineq.fiber_lemma_residuals, tol=cr),
        subman.contact_cr_residuals if contact else subman.complex_cr_defects,
        lambda block: {**s.identity_residuals(block.tensors), **({} if contact else {
            "kahler-parallel": s.parallel_residual(block.tensors)})})
    rep = cli.records(worst, n, ("structure", "classify", "inequalities"), {}, s.kind)
    if not contact:
        # e6 fails the CR gate, so the CLI reports leaf minimality as information
        gate = nan_max(worst["leaf_invariance"], worst["fiber_anti_invariance"])
        assert gate == cli_records["cr-invariance-gate"]["worst"] >= cr
    assert worst["leaf-mean-curvature"] == cli_records["leaf-mean-curvature"]["worst"]
    assert code == 0 and len(rep.records) >= 6
    for rec in rep.records:
        assert rec.as_dict() == cli_records[rec.name]
    for row in cli.ROWS:
        if row.anchor == "classification-flag":
            assert worst[row.key] == cli_records[row.name]["worst"]


def test_a_run_leaves_no_reference_cycles():
    # a cycle through a block's cached fields would keep every block of a
    # walk alive until the next garbage collection, raising peak memory
    run(RunConfig(target="e6", points=3))
    gc.collect()
    gc.disable()
    try:
        for target in ("e6", "s2-warped"):
            run(RunConfig(target=target, points=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reducer_keeps_nan():
    assert math.isnan(nan_max(1.0, math.nan)) and math.isnan(nan_max(math.nan, 1.0))
    assert nan_max(1.0, 2.0) == 2.0 and nan_max(2.0, 1.0) == 2.0
    worst = fold([{"a": 1.0, "b": [0.5, 3.0], "c": True},
                  {"a": math.nan, "b": [], "c": False}, {"a": 2.0, "c": True}])
    assert math.isnan(worst["a"]) and worst["b"] == 3.0 and worst["c"] == 2


NEG_NAN = -math.nan  # a NaN told apart from math.nan by its sign bit
FOLDED = [1.0, 2.0, -1.0, 0.0, -0.0, math.nan, NEG_NAN, math.inf]


def _bits(worst: dict) -> dict:
    return {k: np.float64(v).view(np.int64) if isinstance(v, float) else v
            for k, v in worst.items()}


@pytest.mark.parametrize("values", [
    [1.0, math.nan, 3.0, NEG_NAN], [NEG_NAN, 2.0, math.nan],  # the first NaN is kept
    [-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0, 0.0], [-1.0, 0.0, -0.0],  # the first of tied zeros
    [2.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
def test_fold_of_an_array_is_the_sequential_fold(values):
    one_by_one = fold({"k": v} for v in values)
    for shape in ((len(values),), (1, len(values)), (len(values), 1)):
        worst = fold([{"k": np.array(values).reshape(shape)}])
        assert _bits(worst) == _bits(one_by_one)
    # 0-d arrays fold as their value
    assert _bits(fold({"k": np.array(v)} for v in values)) == _bits(one_by_one)


@given(st.lists(st.lists(st.sampled_from(FOLDED), max_size=40), min_size=1, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5))
def test_fold_of_blocks_mixed_with_lists_is_the_sequential_fold(blocks, as_list):
    # blocks folded one after another, some as arrays (C order, 2-d where
    # their length allows) and some as lists, against every value one by one
    one_by_one = fold({"k": v} for block in blocks for v in block)
    mixed = fold({"k": block if listed else np.array(block).reshape(
        (2, -1) if len(block) % 2 == 0 else -1)} for block, listed in zip(blocks, as_list))
    assert _bits(mixed) == _bits(one_by_one)


def test_fold_counts_bool_arrays_as_bools():
    flags = [np.array([True, False, True]), np.zeros((2, 2), dtype=bool), np.array(True)]
    assert fold([{"c": flags[0]}, {"c": False}, {"c": flags[1]}, {"c": flags[2]}]) == {"c": 3}
    assert fold([{"c": np.zeros(0, dtype=bool)}]) == {"c": 0}
    # an empty value array folds nothing, as an empty list does
    assert fold([{"k": np.zeros((3, 0))}, {"k": []}]) == {}


def test_nan_residual_fails_its_record(tmp_path):
    # at x1 ~ 352 the curvature of this metric overflows to NaN at some
    # points; max() over the points used to report a finite worst value
    cfg = _metric_cfg(tmp_path, 2, "exp(2*x1)", (350, 0), (354.7, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # as cli.main runs it
        code, doc, _ = run(RunConfig(target=cfg, points=16, seed=42))
    rec = doc["checks"][0]
    assert code == 1 and math.isnan(rec["worst"]) and not rec["pass"]


def test_one_geometry_record_per_block(monkeypatch):
    # each block of e6 (32 points, the 6-dimensional ambient's block size)
    # builds its frames and form once and its induced metric's derivatives
    # once, which every check reads: one block at 3 points, two at 64
    calls = Counter()
    normal_frames, derivs = subman._normal_frames, subman.InducedMetric.derivs

    def counted_frames(*args):  # one normal completion a build of the frames
        calls["frames"] += 1
        return normal_frames(*args)

    def counted_derivs(self, x, *phi):
        calls["derivs"] += 1
        return derivs(self, x, *phi)

    monkeypatch.setattr(subman, "_normal_frames", counted_frames)
    monkeypatch.setattr(subman.InducedMetric, "derivs", counted_derivs)
    for points, blocks in ((3, 1), (64, 2)):
        calls.clear()
        code, _, _ = run(RunConfig(target="e6", points=points))
        assert code == 0
        assert calls == {"frames": blocks, "derivs": blocks}, (points, calls)


def test_one_law_evaluation_per_block(monkeypatch):
    # each contact law gives its values over every coordinate pair and every
    # point of a block at once; the structure records and the main
    # inequality's Kahler gate read one covariant derivative of J a block
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    laws = ("structure_class_residuals", "nijenhuis_normality_residuals",
            "fundamental_form_residuals")
    for name in laws:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code, _, _ = run(RunConfig(target="sasakian-r5", points=3))
    assert code == 0 and calls == {name: 1 for name in laws}, calls
    calls.clear()
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda subscripts, *operands, **kwargs: counted(
        subscripts, einsum)(subscripts, *operands, **kwargs))
    code, _, _ = run(RunConfig(target="e1", points=3))
    assert code == 0 and calls["...kim,...mj->...ikj"] == 1, calls


@pytest.mark.parametrize("old, new", [
    ('phi_row_5 = "0", "0", "-1*x3"', 'phi_row_5 = "0", "0", "-1e200*1e200*x3"'),
    ('xi = "0", "0", "0", "0", "2"', 'xi = "0", "0", "0", "0", "2*1e200*1e200"'),
    ('eta = "-0.5*x3"', 'eta = "-0.5e300*1e300*x3"'),
], ids=["phi", "xi", "eta"])
def test_a_non_finite_structure_tensor_exits_2_naming_its_first_point(tmp_path, capsys,
                                                                       old, new):
    # one-hot pairs select entries exactly, so 0 * inf no longer turns a law's
    # value into NaN; the parent reported FAIL class-sasakian worst="nan"
    for config in ("sasakian_r5.cfg", "e5_sasakian_cr.cfg"):
        p = _builtin_with(tmp_path, config, old, new)
        assert main(["--target", p, "--points", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: structure tensors not finite at [")
        assert err.count("\n") == 1, err
        if config == "sasakian_r5.cfg":  # an immersion names the ambient point
            first = sample_points(cli._resolve(p)[0].subject, 4, 42)[0]
            assert err == f"configuration error: structure tensors not finite at {first}\n"


def test_an_asymmetric_ambient_exits_2_naming_its_first_image_point(tmp_path, capsys):
    # the ambient's block checks symmetry as a chart metric's does; its
    # derivatives read only the upper triangle, so the parent passed on it
    p = _builtin_with(tmp_path, "e1_chen_cr.cfg", 'row_2 = "0", "1", "0", "0"',
                      'row_2 = "0.5", "1", "0", "0"')
    assert main(["--target", p, "--points", "4"]) == 2
    im = cli._resolve(p)[0].subject
    first = subman.ImmersionBlock(im, np.array(sample_points(im, 4, 42))).components[0][0]
    assert capsys.readouterr().err == f"configuration error: metric not symmetric at {first}\n"


@pytest.mark.parametrize("target, per_point", [("e5", 2), ("e6", 2), ("e2", 1)])
def test_one_frame_contraction_per_curvature_and_point(target, per_point, monkeypatch):
    # the induced (or total) curvature once, which every check reads, and on
    # an immersion the ambient curvature once: one call a curvature for the
    # block of 4 points, which contracts each of its points once
    calls = []
    contract = riemann.frame_curvature

    def counted(r4, columns):
        calls.append(len(columns) if columns.ndim == 3 else 1)
        return contract(r4, columns)

    monkeypatch.setattr(riemann, "frame_curvature", counted)
    monkeypatch.setattr(subman, "frame_curvature", counted)
    code, _, _ = run(RunConfig(target=target, checks=("all",), points=4))
    assert code == 0 and calls == [4] * per_point


def test_failing_check_exits_1(tmp_path, capsys):
    # an over-tight duality tolerance cannot be met by a curved immersion
    code = main(["--target", "e3", "--points", "4", "--tol", "duality=1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VERDICT: fail" in out


# ---------------------------------------------------------------------------
# Contact structures: the form law of the declared class
# ---------------------------------------------------------------------------


def _contact_cfg(tmp_path, metric_diag, klass):
    """A contact structure on the 5-chart (t, x1, y1, x2, y2) with a diagonal
    metric, xi = d/dt, eta = dt, and phi rotating each (x, y) pair."""
    def rows(key, entries):
        return "".join(f"{key}_{i + 1} = " + ", ".join(f'"{e}"' for e in row) + "\n"
                       for i, row in enumerate(entries))
    g = [[metric_diag[i] if i == j else "0" for j in range(5)] for i in range(5)]
    phi = [["0"] * 5 for _ in range(5)]
    for x, y in ((1, 2), (3, 4)):
        phi[y][x], phi[x][y] = "1", "-1"
    p = tmp_path / f"{klass}.cfg"
    p.write_text(f"[metric m]\ndim = 5\n{rows('row', g)}"
                 "domain_lo = -1, -1, -1, -1, -1\ndomain_hi = 1, 1, 1, 1, 1\n\n"
                 f"[structure s]\nkind = contact\nmetric = m\nexpected_class = {klass}\n"
                 f"{rows('phi_row', phi)}"
                 'xi = "1", "0", "0", "0", "0"\neta = "1", "0", "0", "0", "0"\n\n'
                 "[subject]\nkind = structure\ntarget = s\n")
    return str(p)


@pytest.mark.parametrize("klass, diag", [
    ("kenmotsu", ["1"] + ["exp(2*x1)"] * 4),  # dt^2 + e^{2t} g_flat on R x C^2
    ("cosymplectic", ["1"] * 5),              # flat R^5, constant phi
])
def test_closed_eta_classes_pass_their_form_law(tmp_path, klass, diag):
    # d(eta) = 0 here, so the contact metric law Phi = d(eta)/2 does not hold
    code, doc, _ = run(RunConfig(target=_contact_cfg(tmp_path, diag, klass), points=16))
    assert code == 0, [r for r in doc["checks"] if not r["pass"]]
    names = [r["name"] for r in doc["checks"]]
    assert f"class-{klass}" in names and "closed-eta" in names and "normality" in names
    assert "fundamental-form" not in names


def test_nearly_cosymplectic_class_has_no_form_law(tmp_path):
    # flat R^5 with constant phi is cosymplectic, so nearly cosymplectic too;
    # neither Phi = d(eta)/2 nor d(eta) = 0 holds across that class, nor does
    # normality: a normal nearly cosymplectic structure is cosymplectic
    cfg = _contact_cfg(tmp_path, ["1"] * 5, "nearly_cosymplectic")
    code, doc, _ = run(RunConfig(target=cfg, points=16))
    assert code == 0, [r for r in doc["checks"] if not r["pass"]]
    names = [r["name"] for r in doc["checks"]]
    assert "class-nearly_cosymplectic" in names and "normality" not in names
    assert "fundamental-form" not in names and "closed-eta" not in names


def test_sasakian_structure_with_a_broken_phi_fails_the_form_law(tmp_path):
    text = resources.files("warpcheck").joinpath("data", "sasakian_r5.cfg").read_text()
    old = 'phi_row_5 = "0", "0", "-1*x3", "-1*x4", "0"'
    assert old in text
    p = tmp_path / "broken.cfg"
    p.write_text(text.replace(old, 'phi_row_5 = "0", "0", "0", "0", "0"'))
    code, doc, _ = run(RunConfig(target=str(p), points=16))
    form = next(r for r in doc["checks"] if r["name"] == "fundamental-form")
    assert code == 1 and not form["pass"]
    assert "closed-eta" not in [r["name"] for r in doc["checks"]]


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


def test_a_structure_tolerance_reaches_every_complex_structure_record():
    _, doc, _ = run(RunConfig(target="e1", checks=("structure",), points=3,
                              tols={"structure": 1e-3}))
    assert {r["name"]: r["tol"] for r in doc["checks"]} == {
        "complex-square": 1e-3, "complex-compatibility": 1e-3, "kahler-parallel": 1e-3}


def test_contact_tolerances_reach_their_records():
    # leaf-minimality reaches the contact leaf record (the parent gave it the
    # cr tolerance) and cr the Reeb tangency (the parent fixed it at 1e-8)
    tols = {"leaf-minimality": 1e-3, "cr": 1e-4}
    for given, want in (({}, {"leaf-mean-curvature": 1e-7, "cr-reeb-tangency": 1e-8,
                              "cr-leaf-invariance": 1e-7}),
                        (tols, {"leaf-mean-curvature": 1e-3, "cr-reeb-tangency": 1e-4,
                                "cr-leaf-invariance": 1e-4})):
        _, doc, _ = run(RunConfig(target="e5", checks=("inequalities",), points=3,
                                  tols=given))
        assert {r["name"]: r["tol"] for r in doc["checks"] if r["name"] in want} == want


CONTACT_IDENTITY_RECORDS = {"contact-phi_square", "contact-phi_of_reeb",
                            "contact-dual_form_kills_phi", "contact-dual_pairing",
                            "contact-dual_is_metric_dual", "contact-phi_compatibility"}
CR_SUITE_RECORDS = {"cr-leaf-invariance", "cr-fiber-anti-invariance", "cr-form-on-reeb-pairs",
                    "cr-leaf-vs-fiber-image", "cr-invariant-flip"}

# each tolerance name and the records of the builtins' reports that carry it
TOLERANCE_ROUTES = {
    "structure": {"complex-square", "complex-compatibility", "kahler-parallel",
                  *CONTACT_IDENTITY_RECORDS, "class-sasakian", "normality",
                  "fundamental-form"},
    "curvature-symmetry": {"curvature-symmetries"},
    "gauss": {"gauss-equation"},
    "scalar-identity": {"scalar-identity"},
    "duality": {"shape-duality"},
    "warped-identity": {"warped-identity"},
    "warped-block": {"warped-block-form", "leaf-geodesic", "fiber-umbilical-shape"},
    "scalar-split": {"scalar-split"},
    "slack": {"main-inequality", "equality-diagnostics", "space-form-consistency"},
    "leaf-minimality": {"leaf-mean-curvature"},
    "classify": {f"flag-{name}" for name in (
        "totally-geodesic", "totally-umbilical", "minimal", "mixed-totally-geodesic",
        "leaf-totally-geodesic", "leaf-minimal", "fiber-minimal", "fiber-totally-umbilical")},
    "cr": {"cr-reeb-tangency", *CR_SUITE_RECORDS, "cr-invariance-gate",
           "fiber-minimal-hypothesis", "fiber-umbilical-hypothesis",
           "fiber-geodesic-conclusion"},
    "reduction": {"variant-reduction"},
}


@pytest.mark.parametrize("name", TOLERANCE_ROUTES)
def test_each_tolerance_name_reaches_exactly_its_records(name):
    # a value no default takes, set alone, shows which records read the name
    value = 3.7e-3 + 1e-5 * list(TOLERANCE_ROUTES).index(name)
    assert parse_args(["--target", "e1", "--tol", f"{name}={value}"]).tols == {name: value}
    reached = set()
    for target in builtin_names():
        _, doc, _ = run(RunConfig(target=target, points=3, tols={name: value}))
        reached |= {r["name"] for r in doc["checks"] if r["tol"] == value}
    assert reached == TOLERANCE_ROUTES[name]


def test_records_keep_their_own_default_tolerances():
    # four records default to another value than their tolerance name does
    tols = {}
    for target in ("e1", "e5"):
        _, doc, _ = run(RunConfig(target=target, points=3))
        tols[target] = {r["name"]: r["tol"] for r in doc["checks"]}
    assert tols["e1"]["complex-square"] == tols["e1"]["complex-compatibility"] == 1e-10
    assert tols["e1"]["kahler-parallel"] == tols["e5"]["contact-phi_square"] == 1e-8
    assert tols["e5"]["cr-reeb-tangency"] == 1e-8 and tols["e5"]["cr-leaf-invariance"] == 1e-7
    assert tols["e5"]["leaf-mean-curvature"] == 1e-7
    assert tols["e1"]["leaf-mean-curvature"] == 1e-8


EVEN_CONTACT = """\
[metric flat4]
dim = 4
row_1 = "1", "0", "0", "0"
row_2 = "0", "1", "0", "0"
row_3 = "0", "0", "1", "0"
row_4 = "0", "0", "0", "1"
domain_lo = -1, -1, -1, -1
domain_hi = 1, 1, 1, 1

[structure c4]
kind = contact
metric = flat4
phi_row_1 = "0", "-1", "0", "0"
phi_row_2 = "1", "0", "0", "0"
phi_row_3 = "0", "0", "0", "-1"
phi_row_4 = "0", "0", "1", "0"
xi = "0", "0", "0", "1"
eta = "0", "0", "0", "1"

[immersion s]
dim = 2
ambient = flat4
structure = c4
components = "x1", "x2", "0", "0"
warp_n1 = 1
warp_n2 = 1
warp_f = "1"
domain_lo = 0.1, 0.1
domain_hi = 1, 1

[subject]
"""


@pytest.mark.parametrize("checks", ["all", *cli.CHECK_GROUPS])
@pytest.mark.parametrize("subject", ["kind = immersion\ntarget = s\n",
                                     "kind = structure\ntarget = c4\n"],
                         ids=["immersion", "structure"])
def test_an_even_dimensional_contact_structure_exits_2(tmp_path, capsys, subject, checks):
    # this used to be refused only by the structure records: the contact CR
    # suite ran on it, and a structure subject outside --checks structure passed
    p = tmp_path / "even_contact.cfg"
    p.write_text(EVEN_CONTACT + subject)
    assert main(["--target", str(p), "--points", "3", "--checks", checks]) == 2
    assert capsys.readouterr().err == (
        "configuration error: almost contact structures need odd dimension\n")


def test_run_config_guards():
    with pytest.raises(WarpcheckError):
        RunConfig(target="e4", points=0)
    with pytest.raises(WarpcheckError):
        RunConfig(target="e4", tols={"gauss": -1.0})


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_an_empty_check_selection_exits_2(capsys, checks):
    # it used to print 'VERDICT: pass' with no record and exit 0
    assert main(["--target", "e1", "--checks", checks]) == 2
    assert capsys.readouterr() == ("", "configuration error: no check group requested\n")


@pytest.mark.parametrize("checks", ["structure", "classify", "inequalities"])
def test_a_subject_without_a_domain_box_exits_2_on_any_selection(tmp_path, capsys, checks):
    # a metric was sampled only for its identities; on another selection it
    # used to print 'VERDICT: pass' with no record
    p = tmp_path / "boxless.cfg"
    p.write_text('[metric m]\ndim = 1\nrow_1 = "1"\n\n[subject]\nkind = metric\ntarget = m\n')
    assert main(["--target", str(p), "--points", "4", "--checks", checks]) == 2
    assert capsys.readouterr().err == ("configuration error: subject declares no domain box "
                                       "to sample\n")


def test_an_immersions_structure_records_follow_its_frames(tmp_path, capsys):
    # every immersion group builds the frames first; --checks structure
    # used to walk the ambient structure alone and pass this collapsed map
    p = tmp_path / "collapsed.cfg"
    p.write_text(_flat_complex(4) + '[immersion s]\ndim = 2\nambient = flat4\nstructure = j4\n'
                 'components = "x1", "x1", "0", "0"\ndomain_lo = 0.1, 0.1\n'
                 'domain_hi = 1, 1\n\n[subject]\nkind = immersion\ntarget = s\n')
    assert main(["--target", str(p), "--points", "4", "--checks", "structure"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: immersion differential near rank-deficient at ")


def test_an_unwarped_immersions_inequalities_fold_its_blocks(tmp_path, capsys):
    # the ambient g33 = x3 is negative where x1 < 0.5; the suite's skip
    # record used to pass without a walk, exit 0
    p = _surface_cfg(tmp_path, '"x1", "x2", "x1 - 0.5"', g33="x3")
    assert main(["--target", p, "--points", "4", "--checks", "inequalities"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: metric not positive definite at ")


def test_parse_args_roundtrip():
    rc = parse_args(["--target", "e1", "--checks", "identities,classify",
                     "--points", "7", "--seed", "3", "--tol", "gauss=1e-5",
                     "--format", "json"])
    assert rc.checks == ("identities", "classify")
    assert rc.points == 7 and rc.seed == 3
    assert rc.tols == {"gauss": 1e-5}
    assert rc.tol("gauss") == 1e-5
    assert rc.tol("slack") == TOLERANCES["slack"]


# ---------------------------------------------------------------------------
# Determinism and format parity
# ---------------------------------------------------------------------------


def test_reports_byte_identical_across_runs():
    rc = RunConfig(target="e2", points=16)
    _, doc1, _ = run(rc)
    _, doc2, _ = run(RunConfig(target="e2", points=16))
    assert to_json_bytes(doc1) == to_json_bytes(doc2)


# sha256 of the JSON report for every builtin, --checks all, seed 42, at a
# point count per target that keeps the whole test to a few seconds.  A
# refactor must leave these bytes unchanged; never update a digest to fit.
GOLDEN_DIGESTS = {
    ("e1", 3): "daf0f6886aba43590748a37f79227b893f9a9d3d592f1e3be3145c6e97460c84",
    ("e2", 16): "5c7c5585ca7a24e19398c380f58539c421803c2112a001f214290424bc810acb",
    ("e3", 16): "62c77a0de88302ce9d0b4cd6170b814d845c28a64b6a0e6d61d693001c4b7926",
    ("e4", 3): "dee489d42e34e5562abf4804133e7ea26c9f42bd0c1512a8f43e5a8ac9abe3e4",
    ("e5", 3): "b65cf3cfcd1b50ae345ebfc309d6a7cd06c69d88451333d668ab086f62004560",
    ("e6", 3): "9c80b2055db5627901dbe8be5280550fc1d28f91338b931879cfee1e88e3583a",
    ("e7", 8): "55c61c57ef207bd22bdf6c3e20d5f9a6756f8339652e458ddc8bac7206db7e8f",
    ("s2-warped", 16): "e08a6b15b0805b360be9a0a7f890712ba0b6f142932fbe2da0f3ff2b9cb79dc9",
    ("sasakian-r5", 8): "14989f5b611e196e14fe39a50999abccd36423258d23a28ce637eb5f25fea016",
    # point counts that span several evaluation blocks and end in a partial one
    ("e2", 70): "faeff3edf3ec9f3f034cb86088131a2f9fd3c1e4a048364b3b657e3f45ec272d",
    ("e3", 70): "1c8cd7770c95d757014ff1a298604a3e198d418dc1c8d565acd11945ac3d539b",
    ("e7", 70): "ee7a0fe61e631bd7bb6190eb65a728818c4c24302777d84fb168f77d9ceab3bd",
    ("s2-warped", 70): "3b7cf19efbcaa2274c12922d5aa2bb7a93e85938cfed9232837a1330debc1a84",
    ("e5", 35): "1956383c8e9a7301271bb3eb5e50d74e5375bf3ecbbd81a2a186d431b1e6acc2",
    ("e6", 35): "2a801d989a637c9cde05a5c4322015601053c491c482f6078504bb6729e62556",
    ("e1", 35): "825b3c897df96ce976611e9047ffdd9caa11b07419b294c83d2aa6cefd444d50",
    ("sasakian-r5", 35): "8fa5eda41ac3bbcde0f3d6a2d078391d8ade7ff0654cbce3339bf15e68e913ca",
    # a full block followed by a block of one point
    ("e1", 33): "560855ccc3aaf911aae789b54ba44f5a3b97613328faa264f525c306f2a758e8",
    ("e2", 33): "984bbf05bd7a3c8d30dfe8a46a2704e165e9a8b09ce89337421865914a6239f5",
    ("e3", 33): "a558abaf6a972cf3417dbf8c10fef201d9dc1835530b059c95ebb877974183e9",
    ("s2-warped", 33): "9a7d8c0b4e391757767f5e072872177b30bf36591a02e71f39a991d2d58edc6a",
}


# sha256 of the JSON report for every builtin and each check group that
# makes structure records, classification flags or the inequality suite,
# 3 points, seed 42.  Like the digests above, never update one to fit.
GROUP_DIGESTS = {
    ("e1", "classify"): "d198b62025fa0638dc33761b02d950d79a8c31c30695e4b5913a7f194c0a3464",
    ("e1", "inequalities"): "52d10b976c083bcf23a08d0230ab98417b8bd84e520a57fc15f7503cf02c03c5",
    ("e1", "structure"): "c809e77fea204c8ce4fb05cf03c7e8c9f7bed8c015d6c1e2b738cc6836db7931",
    ("e2", "classify"): "eaeaa86257742f0f06fbf71082fe10a78b2a83ced1e95a2a314e47b99e4a9d2c",
    ("e2", "inequalities"): "b31787882ae49df895d0ff115f083c732e13007a7cb156ab6216f39a3c32249d",
    ("e2", "structure"): "6f2750e0482cb9f670abb5c164eee8ee1ae26be7630fea21bc14a02c308b6e31",
    ("e3", "classify"): "a8bbaecb80d25b8699fffe1dcf1e52990e0d2ea5f2d7f13ec707bdbc1166ff34",
    ("e3", "inequalities"): "6910f2232c96c018f0b416dac10ec07c01ac162dbfa351b28dc0b703188d9179",
    ("e3", "structure"): "40bcfcb7b4fef74df8953830d39150e38192a4ebcdcb96072e592ed479be1df8",
    ("e4", "classify"): "d13203a396ef3a1b88edddffeaddb0a6a52957efa6d23383f0a33500b8c7a8fe",
    ("e4", "inequalities"): "8049797cad77fd38f35e4400a758b20518a8cd8d65e622c85beb670fbc010a39",
    ("e4", "structure"): "ce38ed797594a15d95e1562e73e1ae045744e625ff7de573952be082eba84360",
    ("e5", "classify"): "6be15779862fea8831c825969ddbd3d02e0a47ecc4515b027179fed876924964",
    ("e5", "inequalities"): "4df9734d037f0b71689b3bced3f6a0aae0284ac81c43c9114b25b79474bb48dc",
    ("e5", "structure"): "660b77bc24c668fd7119a256f388e9cc803c606862d118873fc08148ca5f3f32",
    ("e6", "classify"): "3db7335d646a3b22d53fcbff9d8bd62d44148f8451322ebf41639efab9522a7b",
    ("e6", "inequalities"): "ceb004578683d9afc6cc3e53ef522c9d6df7778289b59f00647eb414b62b00e8",
    ("e6", "structure"): "08a7bcd0e8e624ac441d31bf463ae8692b936c74b66dec706739d366c9a801de",
    ("e7", "classify"): "6e00df51fce8cd7522686681a664bc718045dc92c54df13a230c58f683eab637",
    ("e7", "inequalities"): "1240638e657d997ab68c6cd6248b923e46a5f43ba9aa3c5ccc66df386252182f",
    ("e7", "structure"): "99843fb38f3848b75fa8213c6a90eb6c49eff4c4e7ade0e6b803bb08fce52d43",
    ("s2-warped", "classify"): "2fb7e9b9b2dd00e69cebff5cf5243568e1afd84e35a0742c4573ab1bd0f46d1e",
    ("s2-warped", "inequalities"): "5730a33f79383d8bbad8ec87382a84a0d78155eb25a3b0efa0da15ebfd1926e1",
    ("s2-warped", "structure"): "b459783892e2502794d1c5c70d33662062e314bfdacf9575799a28c204bd728a",
    ("sasakian-r5", "classify"): "c5d8d60ac6f58964c192505abcdffd68d6810c3e20321e4e5f51b52af87aff6d",
    ("sasakian-r5", "inequalities"): "1d2647b352ca4ba82b6117ef6f083be7041aba1eb2fdcf50594e4ded43f89b93",
    ("sasakian-r5", "structure"): "a2505a7f0ed8312cba963e5b894b372aeacfb803db846b7730dc9eea43fc77b6",
}


# the reports behind the digests, one file each, so a change of bytes shows
# which number moved
GOLDEN = Path(__file__).parent / "golden"


def _golden_runs():
    """(file name, digest, run) of each report the digests pin."""
    for (name, points), digest in GOLDEN_DIGESTS.items():
        yield f"{name}-{points}-points.json", digest, RunConfig(target=name, points=points,
                                                                 seed=42)
    for (name, checks), digest in GROUP_DIGESTS.items():
        yield f"{name}-{checks}.json", digest, RunConfig(target=name, checks=(checks,),
                                                         points=3, seed=42)


def test_report_bytes_match_golden_digests():
    # each committed report hashes to its digest, and a run gives its bytes
    runs = list(_golden_runs())
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(file for file, _, _ in runs)
    for file, digest, rc in runs:
        golden = (GOLDEN / file).read_bytes()
        assert hashlib.sha256(golden).hexdigest() == digest, file
        _, doc, _ = run(rc)
        assert to_json_bytes(doc) == golden, file


CLASSES = ("sasakian", "kenmotsu", "cosymplectic", "nearly_cosymplectic")

# a contact structure with sin, exp and sqrt in every tensor: no class law
# holds, so each class residual carries all 17 digits of a generic value
NON_POLYNOMIAL_CONTACT = """[metric m]
dim = 5
row_1 = "1 + 0.2*sin(x2)", "0.1*exp(0.3*x3)", "0", "0", "0.1*x4"
row_2 = "0.1*exp(0.3*x3)", "exp(0.2*x1)", "0.05*sin(x5)", "0", "0"
row_3 = "0", "0.05*sin(x5)", "sqrt(2 + x4)", "0", "0"
row_4 = "0", "0", "0", "1 + 0.1*cos(x1)", "0"
row_5 = "0.1*x4", "0", "0", "0", "1 + 0.1*x2^2"
domain_lo = -1, -1, -1, -1, -1
domain_hi = 1, 1, 1, 1, 1

[structure s]
kind = contact
metric = m
expected_class = sasakian
phi_row_1 = "0", "-cos(x5)", "0.1*sin(x2)", "0", "0"
phi_row_2 = "cos(x5)", "0", "0", "0.1*exp(0.5*x1)", "0"
phi_row_3 = "0", "0", "0", "-sqrt(1 + 0.5*x3^2)", "0"
phi_row_4 = "0", "0", "exp(0.1*x2)", "0", "0"
phi_row_5 = "0.2*sin(x3)", "0", "-0.1*x1", "0", "0"
xi = "0", "0", "0", "0.1*sin(x1)", "exp(-0.1*x2)"
eta = "0.1*sqrt(2 + x3)", "0", "0", "0", "exp(0.1*x2)"

[subject]
kind = structure
target = s
"""


def _class_law_configs(tmp_path):
    """(file name, class) of each config whose structure records no builtin
    reaches, written under tmp_path as the file is needed."""
    for klass, diag in (("kenmotsu", ["1"] + ["exp(2*x1)"] * 4),
                        ("cosymplectic", ["1"] * 5), ("nearly_cosymplectic", ["1"] * 5)):
        yield Path(_contact_cfg(tmp_path, diag, klass)).name, klass
    for klass in CLASSES:
        yield Path(_builtin_with(tmp_path, "sasakian_r5.cfg", "expected_class = sasakian",
                                 f"expected_class = {klass}")).name, klass
        p = tmp_path / f"non_polynomial_{klass}.cfg"
        p.write_text(NON_POLYNOMIAL_CONTACT.replace("expected_class = sasakian",
                                                    f"expected_class = {klass}"))
        yield p.name, klass


# sha256 of the JSON report of --checks structure, seed 42, for each config
# of _class_law_configs at 3 and 33 points: the closed-eta classes of
# _contact_cfg, sasakian-r5 declared as each class (all but its own leave
# large residuals) and NON_POLYNOMIAL_CONTACT under each class.  Like the
# digests above, never update one to fit.
CLASS_LAW_DIGESTS = {
    ("kenmotsu.cfg", "kenmotsu", 3):
        "a10577cd138ca64a448faa8722f4667dea32bfcc178c40f50772859168e56dca",
    ("kenmotsu.cfg", "kenmotsu", 33):
        "9568aa7938ae048cce31ce07092a40a438bdcb2f0258d85b2c21e394dbe45171",
    ("cosymplectic.cfg", "cosymplectic", 3):
        "4cc466ceda4cf6175d6fc71d3932f76ba3c0696fe9dd030d17713b61db3025d8",
    ("cosymplectic.cfg", "cosymplectic", 33):
        "a0fc767119741b1411ede619387d0196ed9a9e6213f2151204e676ff7313843b",
    ("nearly_cosymplectic.cfg", "nearly_cosymplectic", 3):
        "0e6e021f9ccae7ca2307c531c7bed0d28230e7ee5fa3c29a54c0e6b11cf93d3d",
    ("nearly_cosymplectic.cfg", "nearly_cosymplectic", 33):
        "fcc5b2a0f48ba9df54f808cef351ad66a8192c7eeaea71b6804e5707e4a87d53",
    ("sasakian_r5.cfg", "sasakian", 3):
        "9a393b038272125b9e6bf263ed100d70054f7f64302dbf464e2a77e4cd37215e",
    ("sasakian_r5.cfg", "sasakian", 33):
        "fbe3bae0a04f80853f82cdfc38491b8059d0e31ff0a6fac5911312e7bc7c4082",
    ("sasakian_r5.cfg", "kenmotsu", 3):
        "8da41aa5231bf39cf42ddfe4a73559ef962e27652bbd0b471e763c173f8cd2c0",
    ("sasakian_r5.cfg", "kenmotsu", 33):
        "3a5908f6c5d859c8b4919c947218d96b96dd5e1c8c0577bbe6db4266393aadea",
    ("sasakian_r5.cfg", "cosymplectic", 3):
        "d0e37a1c679d2fc09ae1565632e11800a03d55255b7ae459f90bec9044639803",
    ("sasakian_r5.cfg", "cosymplectic", 33):
        "4cc8b752901495c878406a89acc9589ae3cb5a7aba4b719d160dd6308704d28d",
    ("sasakian_r5.cfg", "nearly_cosymplectic", 3):
        "a11e00615b2cdfcf6c972d54518ada94e8de44ee6f8c8f156e461e1aa6db41f5",
    ("sasakian_r5.cfg", "nearly_cosymplectic", 33):
        "e22ff09ec93fb091b962934e70f2e80b1c06ef7b2c75b291c4ef56ca576a8b25",
    ("non_polynomial_sasakian.cfg", "sasakian", 3):
        "09ca6e6a83b6e6d800d51c49de4bfd3b1b84f77c0ca7272e84c566af313e154e",
    ("non_polynomial_sasakian.cfg", "sasakian", 33):
        "09eb62b5b9598c27e9b47a8eeb9d7f09209d569c47592784fb622f8a15f07768",
    ("non_polynomial_kenmotsu.cfg", "kenmotsu", 3):
        "bcd1d37ff35bd8901a962b76e7f3bf23cc0275eb871c3357d7e44c926bfcee6b",
    ("non_polynomial_kenmotsu.cfg", "kenmotsu", 33):
        "0a5b90569132e69f39f9e4d42d3bba239545707ffd76f29b5ef6137462cc34fc",
    ("non_polynomial_cosymplectic.cfg", "cosymplectic", 3):
        "4f8d7b3cf6e06971ff5dd57d5fe040f766eaf45e2c8daf28a272bb421f4577f4",
    ("non_polynomial_cosymplectic.cfg", "cosymplectic", 33):
        "9081a744c87610d4ac4fed73bff84ee4324a287464c6aa96c695152ccad515bc",
    ("non_polynomial_nearly_cosymplectic.cfg", "nearly_cosymplectic", 3):
        "ace8493ef365a11cfc220ca164da051485380ca305992dbc9775fe6269aa075b",
    ("non_polynomial_nearly_cosymplectic.cfg", "nearly_cosymplectic", 33):
        "0840f602345f4191e1ae4d395c0e05a5410d37c68b606f3ae5df95d099decbe6",
}


def test_class_law_report_bytes_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its target as given
    got = {}
    for name, klass in _class_law_configs(tmp_path):
        for points in (3, 33):
            _, doc, _ = run(RunConfig(target=name, checks=("structure",), points=points))
            got[name, klass, points] = hashlib.sha256(to_json_bytes(doc)).hexdigest()
    assert got == CLASS_LAW_DIGESTS


# sha256 of the JSON report of --checks inequalities, at (points, seed), for
# e5 with its Reeb field tilted off the immersion where the ambient x5 > 0:
# tangent at some points of a block and not at others.  Pinned from the
# point-by-point walk; like the digests above, never update one to fit.
MIXED_REEB_DIGESTS = {
    (3, 42): "e57687775436fca2b73bb1b47bff56bf4a32d987a880e9a2b468fe4562ca79f0",
    (33, 42): "248af6e285151b1f31a9dd5296578cfca29afce87a5b164fe241ee763df1e70f",
    (70, 5): "f153b8bc3b3aab82bf23e0a96a123391c6ac0696363d5a74de47d4ecc56ead4b",
}


def test_a_reeb_field_tangent_at_some_points_of_a_block_keeps_its_report(tmp_path,
                                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its target as given
    name = Path(_builtin_with(tmp_path, "e5_sasakian_cr.cfg", 'xi = "0", "0", "0", "0", "2"',
                              'xi = "0", "0", "0", "0.5*(x5 + sqrt(x5^2))", "2"')).name
    im = cli._resolve(name)[0].subject
    points = np.array(sample_points(im, 33, 42))[:32]
    not_tangent = subman.contact_cr_residuals(subman.ImmersionBlock(im, points))
    assert 0 < not_tangent["cr-reeb-not-tangent"].sum() < 32
    got = {}
    for points, seed in MIXED_REEB_DIGESTS:
        _, doc, _ = run(RunConfig(target=name, checks=("inequalities",), points=points,
                                  seed=seed))
        got[points, seed] = hashlib.sha256(to_json_bytes(doc)).hexdigest()
    assert got == MIXED_REEB_DIGESTS


def _scalar_variant_draws(seed):
    """The variant-reduction draws as scalar generator calls, in call order:
    the reference for the bulk draws."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-8, 8), int(rng.integers(1, 6)), int(rng.integers(1, 6)),
             rng.uniform(0, 50), rng.uniform(-50, 50)) for _ in range(1000)]


@pytest.mark.parametrize("seed", [42, 5, 0])
@pytest.mark.parametrize("target", ["e6", "e5"])
def test_variant_reduction_matches_the_scalar_loop(target, seed):
    worst = 0.0
    for c, n1, n2, grad, lap in _scalar_variant_draws(seed):
        worst = nan_max(worst, abs(ineq.generalized_rhs(c, 0.0, n1, n2, grad, lap)
                                   - 2.0 * ineq.space_form_rhs(c, n1, n2, grad, lap)))
    _, doc, _ = run(RunConfig(target=target, checks=("inequalities",), points=1, seed=seed))
    rec = next(r for r in doc["checks"] if r["name"] == "variant-reduction")
    assert (rec["worst"], rec["points"]) == (worst, 1000)


def test_variant_gap_is_drawn_once_per_seed(monkeypatch):
    # the record depends on --seed alone, so a second subject reuses the draws
    real_raw, calls = cli._pcg64_raw, Counter()

    def counted(seed, n):
        calls[seed] += 1
        return real_raw(seed, n)

    cli._variant_gap.cache_clear()
    monkeypatch.setattr(cli, "_pcg64_raw", counted)
    for target in ("e6", "e1"):
        code, _, _ = run(RunConfig(target=target, checks=("inequalities",), points=1))
        assert code == 0
    assert calls == {42: 1}


def _assert_scalar_draws(draws, seed):
    for got, want in zip(draws, zip(*_scalar_variant_draws(seed)), strict=True):
        np.testing.assert_array_equal(got, np.array(want), err_msg=f"seed {seed}")


def test_variant_draws_equal_the_scalar_calls():
    for seed in [*range(300), 5, 7, 11, 13, 17, 42, 2**32, 2**64 + 3]:
        _assert_scalar_draws(cli._variant_draws(seed), seed)


@pytest.mark.parametrize("seeds", [range(300), [2**32 - 1, 2**32, 2**64 + 3,
                                                2**96 + 11, 10**30]])
def test_pcg64_raw_has_numpy_bits(seeds):
    # seeds of more than one 32-bit word take SeedSequence's multi-word path
    for seed in seeds:
        want = np.random.default_rng(seed).bit_generator.random_raw(4000)
        got = cli._pcg64_raw(seed, 4000)
        assert got.dtype == want.dtype and np.array_equal(got, want), seed


@given(st.integers(0, 2**130 - 1))
def test_pcg64_raw_has_numpy_bits_for_any_seed(seed):
    want = np.random.default_rng(seed).bit_generator.random_raw(8)
    np.testing.assert_array_equal(cli._pcg64_raw(seed, 8), want)


def test_variant_draws_take_the_scalar_calls_on_a_zero_half(monkeypatch):
    # Lemire's method rejects a 32-bit half of 0 and draws again, which the
    # bulk draws cannot follow; no seed tried has one, so force it
    real_raw, real_rng, calls = cli._pcg64_raw, np.random.default_rng, Counter()

    def zero_half(seed, n):
        raw = real_raw(seed, n)
        raw[1] &= np.uint64(0xFFFFFFFF00000000)  # the first n1's half
        return raw

    class Counted:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def __getattr__(self, name):  # uniform, integers
            calls[name] += 1
            return getattr(self._rng, name)

    monkeypatch.setattr(cli, "_pcg64_raw", zero_half)
    monkeypatch.setattr(np.random, "default_rng", Counted)
    draws = cli._variant_draws(42)
    assert calls == {"uniform": 3000, "integers": 2000}
    monkeypatch.undo()
    _assert_scalar_draws(draws, 42)


_IMPORT_PROBE = """
import sys
from warpcheck.cli import main
code = main(["--target", sys.argv[1], "--points", "2"])
print(code, sorted({"numpy.random", "secrets"} & set(sys.modules)))
"""


@pytest.mark.parametrize("target", builtin_names())
def test_a_builtin_run_does_not_import_numpy_random(target):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, target],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_text_and_json_carry_the_same_numbers():
    _, doc, text = run(RunConfig(target="e2", points=10))
    for rec in doc["checks"]:
        m = re.search(rf"{re.escape(rec['name'])}\s+worst=(\S+)\s+tol=(\S+)", text)
        assert m, rec["name"]
        assert m.group(1) == format_number(rec["worst"])
        assert m.group(2) == format_number(rec["tol"])


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    assert main(["--target", "e2", "--points", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("output error:") and str(out) in captured.err


def test_output_file_writing(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--target", "e2", "--points", "6", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = out.read_bytes()
    assert payload.startswith(b"{") and b'"verdict"' in payload
    assert capsys.readouterr().out == ""


def test_seed_changes_sample_but_not_verdict():
    _, doc1, _ = run(RunConfig(target="e2", points=10, seed=1))
    _, doc2, _ = run(RunConfig(target="e2", points=10, seed=2))
    assert doc1["verdict"] == doc2["verdict"] == "pass"
    assert to_json_bytes(doc1) != to_json_bytes(doc2)  # different samples


# ---------------------------------------------------------------------------
# Report serialization details
# ---------------------------------------------------------------------------


def _escape_loop(s: str) -> str:
    """The per-character escape loop, the reference for the translate table."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


@given(st.text(st.one_of(st.sampled_from('"\\' + "".join(map(chr, range(0x21)))),
                         st.characters())))
def test_escape_matches_the_character_loop(s):
    assert report._escape(s) == _escape_loop(s)


def test_escape_covers_every_control_character():
    controls = "".join(map(chr, range(0x20)))
    assert report._escape(controls + '"\\\x7fé') == _escape_loop(controls + '"\\\x7fé')


def test_number_format_17_digits():
    assert format_number(0.1) == "0.10000000000000001"
    assert format_number(1.0) == "1"
    assert format_number(True) == "true"
    assert format_number(3) == "3"


def test_every_builtin_passes_end_to_end():
    for name in builtin_names():
        code, doc, _ = run(RunConfig(target=name, points=8))
        assert code == 0, (name, [r for r in doc["checks"] if not r["pass"]])
        assert doc["verdict"] == "pass"


def test_render_text_shape():
    doc = {"version": "x", "config": {"target": "t", "points": 1, "seed": 0},
           "checks": [{"name": "n", "anchor": "a", "worst": 0.5, "tol": 1.0,
                       "pass": True, "points": 1}],
           "verdict": "pass"}
    text = render_text(doc)
    assert text.splitlines()[1].startswith("PASS n")
    assert text.endswith("VERDICT: pass\n")
