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

from warpcheck import cli, expr, ineq, report, structures, subman
from warpcheck.cli import (DEFAULT_TOLS, RunConfig, main, parse_args, render_text,
                           run)
from warpcheck.errors import WarpcheckError
from warpcheck.gallery import load_builtin, sample_points
from warpcheck.report import CheckReport, fold, format_number, nan_max, to_json_bytes

BAD_CFG = '[metric m]\ndim = 1\nrow_1 = "x1 +"\n\n[subject]\nkind = metric\ntarget = m\n'


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


@pytest.mark.parametrize("target,seed,points", [("e3", "-5", "4"), ("e1", "-1", "2")])
def test_negative_seed_exits_2(target, seed, points, capsys):
    # Halton indices start at seed + 1; the random reduction check needs seed >= 0
    assert main(["--target", target, "--seed", seed, "--points", points]) == 2
    assert capsys.readouterr().err == "configuration error: seed must be >= 0\n"


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
], ids=["short-j-row", "long-j-row", "short-phi-row", "short-xi", "long-eta", "two-f",
        "two-warp-f"])
def test_config_entry_counts_exit_2(tmp_path, capsys, cfg, old, new, where):
    text = resources.files("warpcheck").joinpath("data", f"{cfg}.cfg").read_text()
    assert old in text
    p = tmp_path / f"{cfg}.cfg"
    p.write_text(text.replace(old, new, 1))
    assert main(["--target", str(p), "--points", "4"]) == 2
    assert capsys.readouterr().err == f"configuration error: {where} expected\n"


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


def test_tiny_divisor_exits_2(tmp_path, capsys):
    # 1/x1 at x1 ~ 1e-100 is finite, but its third-derivative coefficient
    # -6/x1^4 underflows to a division by zero
    cfg = _metric_cfg(tmp_path, 2, "1 + 1/x1", (1e-100, 0), (2e-100, 1))
    assert main(["--target", cfg]) == 2
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


def _overflowing_partials(tmp_path):
    """e3 with a third component whose second partials overflow to inf at
    every sample point, and the first sample point at seed 42."""
    text = resources.files("warpcheck").joinpath("data", "e3_round_s2.cfg").read_text()
    p = tmp_path / "e3_overflow.cfg"
    p.write_text(text.replace('"cos(x1)"', '"cos(x1) + 1e-300*sin(1e300*x2)"'))
    return str(p), sample_points(cli._resolve(str(p))[0].subject, 1, 42)[0]


def test_non_finite_immersion_derivatives_exit_2(tmp_path, capsys):
    # the induced metric skips literal-0 ambient terms, and classify reads no
    # induced metric, so no 0 * inf or NaN may only fail a record instead
    p, first = _overflowing_partials(tmp_path)
    for checks, points in (("all", "2"), ("all", "33"), ("classify", "2")):
        assert main(["--target", p, "--points", points, "--checks", checks]) == 2
        assert f"immersion derivatives not finite at {first}" in capsys.readouterr().err


def test_overflow_prints_only_the_error_line(tmp_path):
    # numpy's overflow warnings on the way to the error stay out of stderr
    p, first = _overflowing_partials(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "warpcheck", "--target", p, "--points", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: immersion derivatives not finite at {first}\n"


def test_immersion_components_evaluated_once_per_block(monkeypatch):
    im = load_builtin("e6").subject
    counts = Counter()
    eval_jets = expr.eval_jets

    def counted(e, bindings, params=()):
        counts[id(e)] += 1
        return eval_jets(e, bindings, params)

    monkeypatch.setattr(expr, "eval_jets", counted)
    rep = CheckReport()
    cli._immersion_checks(im, cli.CHECK_GROUPS, RunConfig(target="e6", points=3), rep)
    assert rep.passed
    assert [counts[id(c)] for c in im.components] == [1] * len(im.components)


@pytest.mark.parametrize("target", ["e5", "e6"])
def test_library_checks_give_the_cli_records(target):
    # a library caller folds the same walk as the CLI into the same records
    code, doc, _ = run(RunConfig(target=target, points=33, seed=42))
    cli_records = {rec["name"]: rec for rec in doc["checks"]}
    im = load_builtin(target).subject
    s, points, cr = im.structure, sample_points(im, 33, 42), DEFAULT_TOLS["cr"]
    n = len(points)
    contact = isinstance(s, structures.AlmostContactStructure)
    worst = subman.fold_sff(
        im, points, subman.classification_residuals, ineq.leaf_mean_curvature,
        partial(ineq.fiber_lemma_residuals, tol=cr),
        subman.contact_cr_residuals if contact else subman.complex_cr_defects,
        (lambda sff: s.identity_residuals(sff.tensors)) if contact
        else (lambda sff: s.residuals(sff.tensors, True)))
    rep = ineq.d2_umbilical_implies_geodesic(worst, n, cr)
    if contact:
        rep.merge(subman.contact_cr_checks(worst, n, cr))
        rep.merge(ineq.dt_minimality_check(worst, n, cr))
        rep.merge(structures.validate_almost_contact(s, worst, n, DEFAULT_TOLS["structure"]))
    else:
        rep.merge(s.validate(worst, n))
        # e6 fails the CR gate, so the CLI reports leaf minimality as information
        gate = nan_max(worst["leaf_invariance"], worst["fiber_anti_invariance"])
        assert gate == cli_records["cr-invariance-gate"]["worst"] >= cr
        leaf = ineq.dt_minimality_check(worst, n)["leaf-mean-curvature"]
        assert leaf.worst == cli_records["leaf-mean-curvature"]["worst"]
    assert code == 0 and len(rep.records) >= 6
    for rec in rep.records:
        assert rec.as_dict() == cli_records[rec.name]
    flags = subman.classify(worst, DEFAULT_TOLS["classify"])
    for key, _, name in subman.PREDICATES:
        assert flags.residuals[key] == cli_records[f"flag-{name}"]["worst"]


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


def test_nan_residual_fails_its_record(tmp_path):
    # at x1 ~ 352 the curvature of this metric overflows to NaN at some
    # points; max() over the points used to report a finite worst value
    cfg = _metric_cfg(tmp_path, 2, "exp(2*x1)", (350, 0), (354.7, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # as cli.main runs it
        code, doc, _ = run(RunConfig(target=cfg, points=16, seed=42))
    rec = doc["checks"][0]
    assert code == 1 and math.isnan(rec["worst"]) and not rec["pass"]


def test_one_geometry_record_per_point(monkeypatch):
    calls = {"derivs": 0, "sff": 0}
    derivs, sff = subman.InducedMetric.derivs, subman.second_fundamental_form

    def counted_derivs(self, x, *phi):
        calls["derivs"] += 1
        return derivs(self, x, *phi)

    def counted_sff(im, x, *block):
        calls["sff"] += 1
        return sff(im, x, *block)

    monkeypatch.setattr(subman.InducedMetric, "derivs", counted_derivs)
    for mod in [m for name, m in sys.modules.items() if name.startswith("warpcheck.")]:
        if getattr(mod, "second_fundamental_form", None) is sff:
            monkeypatch.setattr(mod, "second_fundamental_form", counted_sff)
    code, _, _ = run(RunConfig(target="e6", points=3))
    assert code == 0
    assert calls["derivs"] <= 3 and calls["sff"] <= 3, calls


def test_failing_check_exits_1(tmp_path, capsys):
    # an over-tight duality tolerance cannot be met by a curved immersion
    code = main(["--target", "e3", "--points", "4", "--tol", "duality=1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VERDICT: fail" in out


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


def test_run_config_guards():
    with pytest.raises(WarpcheckError):
        RunConfig(target="e4", points=0)
    with pytest.raises(WarpcheckError):
        RunConfig(target="e4", tols={"gauss": -1.0})


def test_parse_args_roundtrip():
    rc = parse_args(["--target", "e1", "--checks", "identities,classify",
                     "--points", "7", "--seed", "3", "--tol", "gauss=1e-5",
                     "--format", "json"])
    assert rc.checks == ("identities", "classify")
    assert rc.points == 7 and rc.seed == 3
    assert rc.tols == {"gauss": 1e-5}
    assert rc.tol("gauss") == 1e-5
    assert rc.tol("slack") == DEFAULT_TOLS["slack"]


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


def test_report_bytes_match_golden_digests():
    for (name, points), digest in GOLDEN_DIGESTS.items():
        _, doc, _ = run(RunConfig(target=name, points=points, seed=42))
        assert hashlib.sha256(to_json_bytes(doc)).hexdigest() == digest, name


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


def _assert_scalar_draws(draws, seed):
    for got, want in zip(draws, zip(*_scalar_variant_draws(seed)), strict=True):
        np.testing.assert_array_equal(got, np.array(want), err_msg=f"seed {seed}")


def test_variant_draws_equal_the_scalar_calls():
    for seed in [*range(300), 5, 7, 11, 13, 17, 42]:
        _assert_scalar_draws(cli._variant_draws(seed), seed)


def test_variant_draws_take_the_scalar_calls_on_a_zero_half(monkeypatch):
    # Lemire's method rejects a 32-bit half of 0 and draws again, which the
    # bulk draws cannot follow; no seed tried has one, so force it
    real_rng, calls = np.random.default_rng, Counter()

    class ZeroHalf:
        def __init__(self, seed):
            self.bit_generator, self._seed, self._rng = self, seed, real_rng(seed)

        def random_raw(self, n):
            raw = real_rng(self._seed).bit_generator.random_raw(n)
            raw[1] &= np.uint64(0xFFFFFFFF00000000)  # the first n1's half
            return raw

        def __getattr__(self, name):  # uniform, integers
            calls[name] += 1
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", ZeroHalf)
    draws = cli._variant_draws(42)
    assert calls == {"uniform": 3000, "integers": 2000}
    monkeypatch.undo()
    _assert_scalar_draws(draws, 42)


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
    from warpcheck.gallery import builtin_names
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
