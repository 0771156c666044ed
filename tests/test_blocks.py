"""A block of sample points gives each point exactly what a block of one
point gives it: every MetricBlock field, bit for bit and with the same
memory layout (a per-point einsum downstream sums in an order that depends
on the strides of its operands).  Also: a block raises the error of its
first failing point, as blocks of one walked in order do; a point's
frame-contracted curvature, which several checks read, is the bits a fresh
contraction gives and stays so after they read it; a warped metric's block
gives each point the values, and the warnings, of a block of one; and so
does a structure's block give each point every law's bits."""

import warnings
from functools import partial
from importlib import resources

import numpy as np
import pytest
from helpers import dense_complex, dense_contact

from warpcheck import cli, jets, riemann
from warpcheck.config import load_config, load_config_text
from warpcheck.errors import ConfigurationError, DegenerateMetricError, WarpcheckError
from warpcheck.gallery import builtin_names, load_builtin, sample_points
from warpcheck.ineq import main_inequality
from warpcheck.report import fold, to_json_bytes
from warpcheck.riemann import MetricBlock, MetricField, fold_blocks, frame_curvature, plane_sum
from warpcheck.structures import (CLASS_NAMES, AlmostComplexStructure, AlmostContactStructure,
                                  StructureBlock, closed_eta_residuals,
                                  fundamental_form_residuals, nijenhuis_normality_residuals,
                                  structure_class_residuals)
from warpcheck.jets import block_points
from warpcheck.subman import (Immersion, ImmersionBlock, classification_residuals, fold_sff,
                              gauss_residual_tensor, shape_operator, warped_block_defect)
from warpcheck.warped import (WarpedBlock, WarpedMetric, block_second_form_residuals,
                              leaf_scalars, mixed_sectional_sum, warping_identity_residual)

FIELDS = ("ginv", "lowered", "gamma", "curvature")

# blocks of 1, 3 and 32 points, and the partial block a walk over 35 points
# of a 6-dimensional chart ends in
BLOCKS = ((0, 1), (0, 3), (0, 32), (32, 35))


def metric_blocks(subject, points: np.ndarray) -> dict[str, MetricBlock]:
    """Every metric block a check walk builds for the subject at the points."""
    if isinstance(subject, Immersion):
        ib = ImmersionBlock(subject, points)
        out = {"ambient": ib.ambient, "induced": ib.induced}
        if subject.warped is not None:
            out["sliced-leaf"] = ib.warped.leaf
        return out
    if isinstance(subject, WarpedMetric):
        wb = WarpedBlock(subject, points)
        return {"total": wb.total, "leaf": wb.leaf}
    if isinstance(subject, (AlmostComplexStructure, AlmostContactStructure)):
        return {"structure-metric": MetricBlock(subject.metric, points)}
    return {"metric": MetricBlock(subject, points)}


def layout(a: np.ndarray) -> tuple[int, ...]:
    """Strides of the axes longer than 1 (a stride over one element is free)."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def assert_same(a: np.ndarray, b: np.ndarray, what: str):
    np.testing.assert_array_equal(a, b, err_msg=what)
    assert layout(a) == layout(b), (what, a.strides, b.strides)


@pytest.mark.parametrize("name", builtin_names())
def test_block_fields_equal_blocks_of_one(name):
    subject = load_builtin(name).subject
    points = np.array(sample_points(subject, 35, 42))
    alone = [metric_blocks(subject, points[k:k + 1]) for k in range(len(points))]
    for start, stop in BLOCKS:
        blocks = metric_blocks(subject, points[start:stop])
        for source, block in blocks.items():
            for b in range(stop - start):
                one = alone[start + b][source]
                what = f"{name} {source} block {start}:{stop} point {b}"
                for k in range(3):
                    assert_same(block.derivs[k][b], one.derivs[k][0], f"{what} derivs[{k}]")
                for field in FIELDS:
                    assert_same(getattr(block, field)[b], getattr(one, field)[0], f"{what} {field}")


# not positive definite where x1 <= 0
INDEFINITE = MetricField.from_strings([["1", "0"], ["0", "x1"]])
POINTS = np.array([[1.0, 0.0], [0.5, 0.1], [-0.25, 0.2], [-0.5, 0.3], [2.0, 0.0]])


def error_of(fn) -> str:
    with pytest.raises(DegenerateMetricError) as err:
        fn()
    return str(err.value)


def walk_alone(g: MetricField, points: np.ndarray) -> str:
    """The error of the first failing point, the points' blocks of one read in order."""
    return error_of(lambda: [MetricBlock(g, points[k:k + 1]).ginv for k in range(len(points))])


def test_block_raises_the_first_failing_points_error():
    walk = walk_alone(INDEFINITE, POINTS)
    assert "[-0.25" in walk
    assert error_of(lambda: MetricBlock(INDEFINITE, POINTS).ginv) == walk
    assert error_of(lambda: MetricBlock(INDEFINITE, POINTS).curvature) == walk
    # a frame of a chart metric is checked by its block's inverse
    assert error_of(lambda: MetricBlock(INDEFINITE, POINTS).frame) == walk


def test_validation_order_of_symmetry_and_definiteness():
    # asymmetric where x2 != 0, not positive definite where x1 <= 0; the
    # block checks symmetry, so no separate validation pass does
    g = MetricField.from_strings([["1", "x2"], ["0", "x1"]])
    fine, asym, indefinite, both = [1.0, 0.0], [1.0, 0.5], [-1.0, 0.0], [-1.0, 0.5]
    for points, first in (([fine, indefinite, asym], "not positive definite"),
                          ([fine, asym, indefinite], "not symmetric"),
                          ([fine, both, indefinite], "not symmetric")):
        points = np.array(points)
        assert first in walk_alone(g, points)
        assert error_of(lambda: MetricBlock(g, points).ginv) == walk_alone(g, points)
        assert error_of(lambda: fold_blocks(points, g.dim, partial(MetricBlock, g),
                                            lambda b: {"c": b.curvature[:, 0, 0, 0, 0]})) \
            == walk_alone(g, points)


# a constant matrix times x1: positive definite with finite entries, and at
# x1 = 1 a Gram-Schmidt whose products overflow though its frame is finite
OVERFLOWING = MetricField.from_strings([[f"{v!r}*x1" for v in row] for row in (
    (6.9849456464312487e+307, -4.8539967972120407e+307, -3.3826706673605984e+307,
     6.9719387576589061e+306),
    (-4.8539967972120407e+307, 7.1922817365934204e+307, -2.9847771235298532e+306,
     -1.7283210508996306e+307),
    (-3.3826706673605984e+307, -2.9847771235298532e+306, 3.9540471661388324e+307,
     -1.1449927668870360e+307),
    (6.9719387576589061e+306, -1.7283210508996306e+307, -1.1449927668870360e+307,
     8.0746617384980421e+307))])
QUIET, LOUD = np.array([0.25, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])


def recorded(fn):
    """fn's result, or its WarpcheckError's message, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = fn()
        except WarpcheckError as err:
            out = str(err)
    return out, [str(w.message) for w in seen]


def frame_and_warnings(points):
    """The frames of a block of the points, and the warnings building them gave."""
    return recorded(lambda: MetricBlock(OVERFLOWING, np.array(points)).frame)


def test_no_warning_comes_from_a_chart_metric_point_the_walk_never_reaches():
    # the block's frames overflow at LOUD, which follows a point that is not
    # positive definite; the walk stops there; tier-1 turns any warning into an error
    raising = -QUIET
    message, seen = recorded(lambda: fold_blocks(
        np.array([QUIET, raising, LOUD]), 4, partial(MetricBlock, OVERFLOWING),
        lambda b: {"frame": b.frame[:, 0, 0]}))
    assert message == f"metric not positive definite at {raising}" and seen == []
    quiet, none = frame_and_warnings([QUIET])
    assert none == []
    frames, _ = frame_and_warnings([QUIET, LOUD])
    assert_same(frames[0], quiet[0], "quiet point")


def test_a_chart_metric_point_the_walk_reaches_warns_as_it_does_alone():
    alone, seen = frame_and_warnings([LOUD])
    assert seen == ["overflow encountered in matmul"] and np.isfinite(alone).all()
    for points in ([LOUD], [QUIET, LOUD]):
        frames, block_seen = frame_and_warnings(points)
        assert block_seen == seen
        assert_same(frames[-1], alone[0], f"{len(points)} points")


# a quiet point that the step below refuses after its frame is built
REFUSED = QUIET + np.array([0.0, 1.0, 0.0, 0.0])


def refuse(block: MetricBlock) -> dict:
    refused = block.points[:, 1] != 0
    if refused.any():
        raise ConfigurationError(f"refused at {block.points[np.argmax(refused)]}")
    return {}


@pytest.mark.parametrize("points, builds, warned, refused", [
    # the block, once
    ([QUIET, QUIET, QUIET], 1, 0, False),
    # the block, then each point alone, and the loud one once more, unwatched
    ([QUIET, LOUD, QUIET], 1 + 3 + 1, 1, False),
    # the block, then the first point alone and the refused one, which stops
    # the walk before the loud one
    ([QUIET, REFUSED, LOUD], 1 + 2, 0, True),
])
def test_a_fold_reruns_a_block_point_by_point_once(monkeypatch, points, builds, warned, refused):
    # jets.per_block alone reruns a block: no frame build watches or reruns again
    count, gram_schmidt = [], riemann.gram_schmidt
    monkeypatch.setattr(riemann, "gram_schmidt", lambda *a: count.append(1) or gram_schmidt(*a))
    out, seen = recorded(lambda: fold_blocks(
        np.array(points), 4, partial(MetricBlock, OVERFLOWING),
        lambda b: {"frame": b.frame[:, 0, 0]}, refuse))
    assert len(count) == builds
    assert seen == ["overflow encountered in matmul"] * warned
    assert (out == f"refused at {REFUSED}") == refused


IMMERSIONS = [name for name in builtin_names()
              if isinstance(load_builtin(name).subject, Immersion)]


def assert_same_int64(a, b, what: str):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape, what
    assert (a.view(np.int64) == b.view(np.int64)).all(), what


def block_steps(block: ImmersionBlock) -> dict:
    """Every array a check walk reads or folds for the block, by name: the
    form, the shared geometry and each block step's values."""
    im = block.im
    out = {f"form {k}": v for k, v in block.frames._asdict().items()}
    out["induced in frame"], out["ambient in frame"] = block.frame_curvatures
    out["mean norms"] = block.mean_norms
    out["gauss tensor"] = gauss_residual_tensor(block)
    for r in range(block.frames.normal_frame.shape[2]):
        a, resid = shape_operator(block, block.frames.normal_frame[..., r])
        out[f"shape operator {r}"], out[f"duality {r}"] = a, resid
    steps = [cli._identity_values, classification_residuals]
    if im.warped is not None:
        out.update({f"scalars {k}": v for k, v in vars(block.scalars).items()})
        steps.append(partial(cli._inequality_values, rc=cli.RunConfig(target=im.name)))
        steps.append(lambda b: {"warped-block-form": warped_block_defect(b)})
        if isinstance(im.structure, AlmostComplexStructure):
            res = main_inequality(block)
            out.update({f"main {k}": v for k, v in vars(res).items() if k != "diagnostics"})
            out.update({f"main {k}": v for k, v in res.diagnostics.items()})
    for step in steps:
        out.update(step(block))
    return out


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("n", [1, 33, 70])
@pytest.mark.parametrize("name", IMMERSIONS)
def test_block_form_and_classes_equal_blocks_of_one(name, n, seed):
    # the form, the geometry the checks share and every block step's values
    # at each point of a walk's blocks, against a block of that point alone:
    # a value over the block's points is the alone values in point order
    # (the contact suite's values, past its Reeb tangency, and the fiber
    # lemma's conclusion hold only chosen points' values)
    im = load_builtin(name).subject
    points = np.array(sample_points(im, n, seed))
    size = block_points(im.ambient_dim)
    for start in range(0, len(points), size):
        block = ImmersionBlock(im, points[start:start + size])
        values = block_steps(block)
        alone = [block_steps(ImmersionBlock(im, block.points[b:b + 1]))
                 for b in range(len(block.points))]
        for key, got in values.items():
            what = f"{name} {n} {seed} block {start} {key}"
            assert all(a.keys() == values.keys() for a in alone), what
            want = np.concatenate([a[key] for a in alone])
            if got.dtype == bool:
                np.testing.assert_array_equal(got, want, err_msg=what)
            else:
                assert_same_int64(got, want, what)
            if len(got) == len(block.points):
                for b, a in enumerate(alone):
                    assert layout(got[b]) == layout(a[key][0]), (what, b)


BLOCK_OF = {MetricField: MetricBlock, WarpedMetric: WarpedBlock, Immersion: ImmersionBlock,
            AlmostComplexStructure: StructureBlock, AlmostContactStructure: StructureBlock}


@pytest.mark.parametrize("name", builtin_names())
def test_every_step_of_the_check_table_runs_over_the_blocks_points(name):
    # every group's step and the gate's, the skip record, the variant gap and
    # the gates' constant values among them, gives at a block's points the
    # values that blocks of each point alone give, in point order
    subject = load_builtin(name).subject
    _, steps = cli._checks(subject, cli.RunConfig(target=name))
    points = np.array(sample_points(subject, 5, 42))
    make = BLOCK_OF[type(subject)]
    for group, step in steps.items():
        values = step(make(subject, points))
        alone = [step(make(subject, points[b:b + 1])) for b in range(len(points))]
        for key, got in values.items():
            assert all(a.keys() == values.keys() for a in alone), (name, group)
            assert_same_int64(got, np.concatenate([a[key] for a in alone]),
                              f"{name} {group} {key}")


def structure_laws(t: StructureBlock) -> dict:
    """Every array a structure walk reads or folds for the block, by name:
    the covariant derivative, and each law of the structure's kind."""
    s, out = t.s, {"nabla": t.nabla}
    if isinstance(s, AlmostComplexStructure):
        return {**out, **s.identity_residuals(t), "kahler-parallel": s.parallel_residual(t)}
    out.update(s.identity_residuals(t))
    out.update({f"class-{klass}": structure_class_residuals(t, klass) for klass in CLASS_NAMES})
    out.update({"normality": nijenhuis_normality_residuals(t),
                "fundamental-form": fundamental_form_residuals(t),
                "closed-eta": closed_eta_residuals(t)})
    return out


STRUCTURES = ([partial(dense_complex, n) for n in (2, 4, 6)]
              + [partial(dense_contact, n) for n in (1, 3, 5, 7)]
              + [partial(dense_complex, 4, signed_zeros=True),
                 partial(dense_contact, 5, signed_zeros=True)])


@pytest.mark.parametrize("make", STRUCTURES, ids=lambda m: "-".join(
    [m.func.__name__, str(m.args[0])] + list(m.keywords)))
def test_every_stacked_structure_law_has_each_points_bits(make):
    # every law over blocks of 1, 3 and a walk's full size, against a block
    # of each point alone; of the full block, which holds 2,592 points at
    # n = 2 and 41,472 at n = 1, 32 points spread over it from the first to
    # the last are read (every point at n = 6 and 7, whose blocks hold 32)
    s = make()
    size = block_points(s.dim)
    points = np.random.default_rng(s.dim).uniform(-0.5, 0.5, (size, s.dim))
    picked = sorted({0, 1, 2, *np.linspace(0, size - 1, 32).astype(int).tolist()})
    alone = {b: structure_laws(StructureBlock(s, points[b:b + 1])) for b in picked}
    for stop in (1, 3, size):
        values = structure_laws(StructureBlock(s, points[:stop]))
        for b in (b for b in picked if b < stop):
            for key, got in values.items():
                assert alone[b].keys() == values.keys()
                assert_same_int64(got[b:b + 1], alone[b][key], f"{s.dim} {stop} {b} {key}")


def test_a_non_parallel_structure_inside_a_block_raises_as_the_walk_does(tmp_path):
    # J depends on x1 where x1 > 1.5, so the Kahler gate fails at some points
    # of the first block but not at its first; each point walked alone
    # names the first failing point
    text = resources.files("warpcheck").joinpath("data", "e1_chen_cr.cfg").read_text()
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(text.replace('j_row_1 = "0", "-1", "0", "0"',
                                'j_row_1 = "0", "-1 - (x1 - 1.5) - sqrt((x1 - 1.5)^2)", "0", "0"'))
    im = load_config(cfg).subject
    points = sample_points(im, 33, 42)

    def inequality(block):
        return {"slack": main_inequality(block).slack}
    walked = []
    for k, x in enumerate(points):
        try:
            fold_sff(im, [x], inequality)
        except ConfigurationError as err:
            walked.append((k, str(err)))
    first, message = walked[0]
    assert 0 < first < block_points(im.ambient_dim)
    # the message the point-by-point walk gave before the checks read blocks
    assert message == ("ambient structure is not parallel at "
                       "[ 1.82860523 -0.61538795  0.31916607 -0.10741026] (residual 2.000e+00)")
    with pytest.raises(ConfigurationError) as err:
        fold_sff(im, points, inequality)
    assert str(err.value) == message
    code, _, text = cli.run(cli.RunConfig(target=str(cfg), checks=("inequalities",), points=33))
    assert code == 2 and text == f"configuration error: {message}"


# warped metrics from config text, with a 2-dimensional leaf (the Laplacian's
# n = 2 trace) and a 3-dimensional one under a 2-dimensional fiber (a frame
# of five columns, contracted a point at a time)
WARPED_TEXTS = {"leaf-2": """
[metric leaf]
dim = 2
row_1 = "1 + 0.2*x2^2", "0.1*x1*x2"
row_2 = "0.1*x1*x2", "exp(0.4*x1)"
domain_lo = -1, -1
domain_hi = 1, 1
[metric fiber]
dim = 1
row_1 = "1"
domain_lo = 0
domain_hi = 1
[warped w]
leaf = leaf
fiber = fiber
f = "exp(0.3*x1 + 0.1*x2^2)"
[subject]
kind = warped
target = w
""", "leaf-3": """
[metric leaf]
dim = 3
row_1 = "1 + 0.1*x2^2", "0", "0.05*x3"
row_2 = "0", "1 + 0.2*x1^2", "0"
row_3 = "0.05*x3", "0", "exp(0.2*x2)"
domain_lo = -1, -1, -1
domain_hi = 1, 1, 1
[metric fiber]
dim = 2
row_1 = "1", "0"
row_2 = "0", "1 + x1^2"
domain_lo = 0, 0
domain_hi = 1, 1
[warped w]
leaf = leaf
fiber = fiber
f = "2 + sin(x1)*cos(x2) + 0.3*x3"
[subject]
kind = warped
target = w
"""}


def warped_subject(name: str) -> WarpedMetric:
    return (load_config_text(WARPED_TEXTS[name]) if name in WARPED_TEXTS
            else load_builtin(name)).subject


def warped_steps(w: WarpedBlock) -> dict:
    """Every array the warped walk reads or folds for the block, by name."""
    out = {f"scalars {k}": v for k, v in vars(leaf_scalars(w)).items()}
    out.update({f"block form {k}": v for k, v in block_second_form_residuals(w).items()})
    out.update({f"identity {k}": v for k, v in warping_identity_residual(w).items()})
    out["in frame"] = w.total.curvature_in_frame
    out.update(cli._warped_step(w))
    return out


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("n", [1, 33, 70])
@pytest.mark.parametrize("name", ["e2", "s2-warped", "leaf-2", "leaf-3"])
def test_warped_values_equal_blocks_of_one(name, n, seed):
    # the leaf scalars, the block-form residuals, the curvature in the frame
    # and the identity at each point of a walk's blocks, against a block of
    # that point alone
    w = warped_subject(name)
    points = np.array(sample_points(w, n, seed))
    size = block_points(w.dim)
    for start in range(0, len(points), size):
        block = WarpedBlock(w, points[start:start + size])
        values = warped_steps(block)
        alone = [warped_steps(WarpedBlock(w, block.points[b:b + 1]))
                 for b in range(len(block.points))]
        for key, got in values.items():
            what = f"{name} {n} {seed} block {start} {key}"
            assert_same_int64(got, np.concatenate([a[key] for a in alone]), what)


# at x1 = 0, n2 lap(f) / f overflows (f = 1e-12, lap(f) = -1e297, n2 = 2),
# and so do the curvature's derivative terms; where also the fiber metric's
# first entry is below 1, the frame's first fiber seed is dependent (its
# norm f * sqrt(x1) falls below the pivot threshold), so the point raises
BRINK = load_config_text("""
[metric line]
dim = 1
row_1 = "1"
domain_lo = -1
domain_hi = 1
[metric plane]
dim = 2
row_1 = "x1", "0"
row_2 = "0", "1"
domain_lo = 0.5, 0
domain_hi = 2, 1
[warped w]
leaf = line
fiber = plane
f = "1e-12 + 5e296*x1^2"
[subject]
kind = warped
target = w
""").subject
QUIET_W, LOUD_W, LOUD_TOO_W = [1e-150, 1.0, 0.5], [0.0, 1.0, 0.5], [0.0, 1.5, 0.25]
RAISING_W = [0.0, 0.25, 0.5]


def warped_walk(points):
    """The warped walk's folded values, or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = fold_blocks(np.array(points), BRINK.dim, partial(WarpedBlock, BRINK),
                              cli._warped_step)
        except WarpcheckError as err:
            out = str(err)
    return out, [str(m.message) for m in seen]


def test_a_warped_point_warns_as_it_does_alone():
    quiet, none = warped_walk([QUIET_W])
    assert none == [] and np.isfinite(list(quiet.values())).all()
    loud, seen = warped_walk([LOUD_W])
    assert "overflow encountered in divide" in seen
    loud_too, seen_too = warped_walk([LOUD_TOO_W])
    for points, alone, want_seen in (([QUIET_W, LOUD_W], [quiet, loud], seen),
                                     ([LOUD_W, QUIET_W], [loud, quiet], seen),
                                     ([LOUD_W, LOUD_TOO_W], [loud, loud_too], seen + seen_too)):
        worst, block_seen = warped_walk(points)
        assert block_seen == want_seen, points
        want = fold(alone)
        assert worst.keys() == want.keys(), points
        assert_same_int64(list(worst.values()), list(want.values()), str(points))


def test_no_warning_comes_from_a_warped_point_after_one_that_raises():
    # a raising point's own events are dropped with its values
    message, seen = warped_walk([RAISING_W])
    assert "dependent on earlier seeds" in message and seen == []
    assert warped_walk([RAISING_W, LOUD_W]) == (message, [])
    assert warped_walk([QUIET_W, RAISING_W, LOUD_W]) == (message, [])
    assert warped_walk([LOUD_W, RAISING_W]) == (message, warped_walk([LOUD_W])[1])


def assert_same_bits(a, b, what: str):
    np.testing.assert_array_equal(a, b, err_msg=what)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b), err_msg=what)


@pytest.mark.parametrize("name", ["e5", "e6", "e2", "s2-warped"])
def test_curvature_in_frame_is_a_fresh_contraction(name):
    # an immersion block's frame curvatures, after every check that reads
    # them, and a warped metric block's, are the bits of a fresh contraction
    subject = load_builtin(name).subject
    points = np.array(sample_points(subject, 35, 42))
    if isinstance(subject, Immersion):
        block = ImmersionBlock(subject, points)
        block_steps(block)
        f = block.frames
        for b in range(len(points)):
            for got, r4, columns in zip(block.frame_curvatures,
                                        (block.induced.curvature, block.ambient.curvature),
                                        (f.tangent_frame, f.tangent_ambient)):
                assert_same_bits(got[b], frame_curvature(r4[b], columns[b]), f"{name} point {b}")
        return
    total = WarpedBlock(subject, points).total
    pairs = [(i, j) for i in range(subject.dim) for j in range(i + 1, subject.dim)]
    tau = plane_sum(total.curvature_in_frame, pairs)
    fresh = [frame_curvature(total.curvature[b], total.frame[b]) for b in range(len(points))]
    mixed_sectional_sum(total.curvature_in_frame, subject)
    for b in range(len(points)):
        what = f"{name} point {b}"
        assert_same_bits(total.curvature_in_frame[b], fresh[b], what)
    assert_same_bits(plane_sum(total.curvature_in_frame, pairs), tau, name)


# ---------------------------------------------------------------------------
# Block sizes
# ---------------------------------------------------------------------------


def test_block_points_bound_a_blocks_largest_array():
    assert [block_points(n) for n in range(1, 9)] == [41472, 2592, 512, 162, 66, 32, 32, 32]
    for n in range(1, 6):
        assert block_points(n) * n**4 <= jets.BLOCK_ENTRIES < (block_points(n) + 1) * n**4


def report_grid() -> dict:
    """(exit code, JSON bytes, text) of every builtin's run over a grid of
    check groups, point counts and seeds."""
    out = {}
    for name in builtin_names():
        for checks in (("all",), ("classify",)):
            for points in (1, 33, 70):
                for seed in (42, 5):
                    code, doc, text = cli.run(cli.RunConfig(
                        target=name, checks=checks, points=points, seed=seed))
                    out[name, checks, points, seed] = (code, to_json_bytes(doc), text)
    return out


@pytest.mark.parametrize("size", [1, 7])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, size):
    # every point gets its own bits in any block, so blocks of one point,
    # of seven and of the dimension's default size give the same bytes
    default = report_grid()
    assert {code for code, _, _ in default.values()} == {0}
    monkeypatch.setattr(jets, "BLOCK_POINTS", size)
    monkeypatch.setattr(jets, "BLOCK_ENTRIES", size)
    assert {block_points(n) for n in range(1, 9)} == {size}
    assert report_grid() == default


def stacked_frames(name: str, points: np.ndarray) -> list:
    """(curvature stack, frame stack) of each stacked frame contraction that
    a walk over the builtin's block makes."""
    subject = load_builtin(name).subject
    if isinstance(subject, Immersion):
        block = ImmersionBlock(subject, points)
        f = block.frames
        return [(block.induced.curvature, f.tangent_frame),
                (block.ambient.curvature, f.tangent_ambient)]
    if isinstance(subject, WarpedMetric):
        total = WarpedBlock(subject, points).total
        return [(total.curvature, total.frame)]
    return []


def test_a_stacked_frame_contraction_has_each_points_einsum_bits():
    # a block of a low-dimensional chart holds hundreds of points; the
    # stacked einsum over frames of at most two columns still sums each
    # point's terms in the order of that point's own einsum
    seen = set()
    for name in builtin_names():
        subject = load_builtin(name).subject
        for r4, c in stacked_frames(name, np.array(sample_points(subject, 128, 42))):
            if c.shape[2] > 2:
                continue
            got = frame_curvature(r4, c)
            seen.add((name, c.shape[1:], bool(r4.any())))
            for b in range(len(c)):
                want = np.einsum("ijkl,ia,jb,kc,ld->abcd", r4[b], c[b], c[b], c[b], c[b])
                assert_same_int64(got[b], want, f"{name} {c.shape} point {b}")
    assert {(c, r) for _, c, r in seen} >= {((2, 2), True), ((3, 2), False), ((4, 2), False)}
    # a whole 2-dimensional block, stored as a block's curvature (l before
    # i, j, k) and in C order
    rng = np.random.default_rng(5)
    stored = rng.standard_normal((block_points(2), 2, 2, 2, 2))
    for r4 in (stored.transpose(0, 2, 3, 4, 1), stored):
        for k in (1, 2):
            c = rng.standard_normal((len(r4), 2, k))
            got = frame_curvature(r4, c)
            for b in range(len(c)):
                want = np.einsum("ijkl,ia,jb,kc,ld->abcd", r4[b], c[b], c[b], c[b], c[b])
                assert_same_int64(got[b], want, f"random {r4.strides} k={k} point {b}")
