"""Parser and evaluator tests for the expression language."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcheck.errors import JetDomainError
from warpcheck.expr import (BinOp, Call, Neg, Num, Param, ParseError, Var, eval_expr,
                            eval_jets, eval_value, matrix_jets, parse, pretty, shift_vars)
from warpcheck.gallery import builtin_names, load_builtin, sample_points
from warpcheck.jets import coordinate_jets
from warpcheck.riemann import MetricField
from warpcheck.structures import AlmostComplexStructure, AlmostContactStructure
from warpcheck.warped import WarpedMetric

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_basic_ast_shape():
    e = parse("x1 + 2*x2", dim=2)
    assert e == BinOp("+", Var(0), BinOp("*", Num(2.0), Var(1)))


def test_function_composition():
    e = parse("sin(x1)*exp(x2)", dim=2)
    assert e == BinOp("*", Call("sin", Var(0)), Call("exp", Var(1)))


def test_truncated_input_reports_offset():
    with pytest.raises(ParseError) as ei:
        parse("x1 +", dim=2)
    assert ei.value.offset == 4
    assert "atom" in ei.value.expected
    assert ei.value.found == "end of input"


def test_unknown_identifier():
    with pytest.raises(ParseError) as ei:
        parse("x1 + foo", dim=2)
    assert ei.value.offset == 5


def test_variable_index_out_of_range():
    with pytest.raises(ParseError):
        parse("x3", dim=2)
    with pytest.raises(ParseError):
        parse("x0", dim=2)
    with pytest.raises(ParseError):
        parse("p1", dim=2, n_params=0)


def test_unbalanced_parentheses():
    with pytest.raises(ParseError) as ei:
        parse("(x1 + 2", dim=1)
    assert ei.value.expected == "')'"


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x1", dim=1)


def test_malformed_number():
    with pytest.raises(ParseError):
        parse("1e+", dim=1)
    with pytest.raises(ParseError):
        parse(". + 1", dim=1)


def test_numbers_with_exponents():
    assert eval_value(parse("1.5e2", dim=1), np.array([0.0])) == 150.0
    assert eval_value(parse("2.5e-1", dim=1), np.array([0.0])) == 0.25
    assert eval_value(parse(".5", dim=1), np.array([0.0])) == 0.5


# ---------------------------------------------------------------------------
# Precedence and binding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src,want", [
    ("2+3*4", 14.0),
    ("2^3^2", 512.0),       # right-associative
    ("-2^2", -4.0),         # unary minus applies to the whole power
    ("(-2)^2", 4.0),
    ("2^-3", 0.125),        # signed exponent
    ("6/3/2", 1.0),         # left-associative
    ("1-2-3", -4.0),
    ("-sin(0)", 0.0),
])
def test_precedence(src, want):
    got = eval_value(parse(src, dim=1), np.array([1.0]))
    assert got == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# Evaluation as jets
# ---------------------------------------------------------------------------


def test_square_jet():
    j = eval_expr(parse("x1^2", dim=1), np.array([3.0]))
    npt.assert_allclose([j.value, j.d1[0], j.d2[0, 0]], [9.0, 6.0, 2.0])


def test_parameter_is_constant():
    j = eval_expr(parse("p1", dim=2, n_params=1), np.array([5.0, 7.0]), params=(7.0,))
    assert j.value == 7.0
    assert not j.d1.any() and not j.d2.any() and not j.d3.any()


def test_log_singularity_carries_position():
    e = parse("2 + ln(x1)", dim=1)
    with pytest.raises(JetDomainError) as ei:
        eval_expr(e, np.array([0.0]))
    assert ei.value.op == "ln"
    assert ei.value.pos == 4  # offset of 'ln' in the source


def test_mixed_partials_of_product():
    e = parse("x1*sin(x2) + x2^3", dim=2)
    x = np.array([2.0, 0.7])
    j = eval_expr(e, x)
    assert j.value == pytest.approx(2 * math.sin(0.7) + 0.7**3)
    assert j.d1[0] == pytest.approx(math.sin(0.7))
    assert j.d1[1] == pytest.approx(2 * math.cos(0.7) + 3 * 0.7**2)
    assert j.d2[0, 1] == pytest.approx(math.cos(0.7))
    assert j.d3[1, 1, 1] == pytest.approx(-2 * math.cos(0.7) + 6)


def test_shift_vars():
    e = parse("x1*x2", dim=2)
    s = shift_vars(e, 3)
    assert s == BinOp("*", Var(3), Var(4))


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------


def _asts(dim=3, n_params=2, numbers=None):
    """Strategy generating parser-shaped ASTs (non-negative literals only,
    since the lexer never produces a negative number token); ``numbers``
    draws further literals, and n_params = 0 gives no parameter."""
    leaves = [st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                        allow_infinity=False).map(Num),
              st.integers(0, dim - 1).map(Var)]
    leaves += [st.integers(0, n_params - 1).map(Param)] if n_params else []
    leaves = st.one_of(leaves + ([numbers.map(Num)] if numbers is not None else []))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children)
              .map(lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children)
              .map(lambda t: Call(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_asts())
@settings(max_examples=200, deadline=None)
def test_pretty_print_round_trip(ast):
    src = pretty(ast)
    reparsed = parse(src, dim=3, n_params=2)
    assert reparsed == ast


@given(st.text(max_size=30))
@example("p\u00b2")  # a non-ASCII digit: isdigit() holds, int() fails
@settings(max_examples=300, deadline=None)
def test_parse_is_total(junk):
    """Arbitrary input either parses or raises ParseError, nothing else."""
    try:
        parse(junk, dim=2, n_params=1)
    except ParseError as err:
        assert 0 <= err.offset <= len(junk)


# ---------------------------------------------------------------------------
# Block evaluation equals point-by-point evaluation
# ---------------------------------------------------------------------------

# coordinates that make sub-expressions vanish or hit domain edges
_COORDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e-200, 1e200]),
                    st.floats(min_value=-3.0, max_value=3.0))


def _evaluate(e, x, params, order=3):
    try:
        return eval_jets(e, coordinate_jets(x), params, order), None
    except JetDomainError as err:
        return None, err


def _assert_block_matches_points(e, block, params):
    """The block's slots equal the stacked single-point slots, bit for bit,
    and a block fails iff some point fails alone, with that first point's
    error."""
    with np.errstate(all="ignore"):
        got, err = _evaluate(e, block, params)
        singles = [_evaluate(e, x, params) for x in block]
    first = next((e for _, e in singles if e is not None), None)
    if first is not None or err is not None:
        assert err is not None and first is not None
        assert (err.op, err.pos) == (first.op, first.pos)
        np.testing.assert_array_equal(err.value, first.value)
        return
    batch = (len(block),)
    for slot in ("value", "d1", "d2", "d3"):
        want = np.stack([np.asarray(getattr(j, slot)) for j, _ in singles])
        have = np.broadcast_to(getattr(got, slot), batch + want.shape[1:])
        np.testing.assert_array_equal(have, want, err_msg=slot)


@given(_asts(), st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=6),
       st.tuples(_COORDS, _COORDS))
@settings(max_examples=300, deadline=None)
def test_block_evaluation_equals_points(ast, coords, params):
    e = parse(pretty(ast), dim=3, n_params=2)  # real source offsets
    _assert_block_matches_points(e, np.array(coords), params)


def test_the_exponent_syntax_picks_the_power_rule():
    # '^' takes its rule from its exponent's syntax, once for every point: an
    # exponent with a variable is exp(g ln f) and needs a positive base even
    # where all its partials vanish (x2^4 at x2 = 0) or its value underflows
    # to 0 (exp(-1000) at x2 = 1), alone and in a block
    for src, point in (("x1^(x2^4)", [-1.0, 0.0]), ("x1^(x2 - x2)", [-1.0, 0.5]),
                       ("x1^(0*x2)", [-1.0, 0.5]), ("x1^(exp(-1000*x2^2))", [-1.0, 1.0])):
        e = parse(src, dim=2)
        for block in ([point], [[2.0, 0.7], point]):
            with pytest.raises(JetDomainError) as ei:
                eval_jets(e, coordinate_jets(np.array(block)))
            assert (ei.value.op, ei.value.value, ei.value.pos) == ("pow", -1.0, 2)
    # a positive base takes exp(g ln f) at every point of a block, those
    # where g's partials vanish included, with the bits of the spelt-out form
    block = np.array([[2.0, 0.0], [2.0, 0.7], [0.5, 0.0], [3.0, -1.2]])
    for src, spelt in (("x1^(x2^4)", "exp(x2^4*ln(x1))"),
                       ("x1^(x2^4 - 1)", "exp((x2^4 - 1)*ln(x1))")):
        got = eval_jets(parse(src, dim=2), coordinate_jets(block))
        want = eval_jets(parse(spelt, dim=2), coordinate_jets(block))
        for slot in ("value", "d1", "d2", "d3"):
            npt.assert_array_equal(getattr(got, slot), getattr(want, slot), err_msg=slot)
        _assert_block_matches_points(parse(src, dim=2), block, ())
    # an exponent in numbers and parameters only is a constant power: an
    # integer one takes a negative base, and a zero base fails only below 0
    e = parse("x1^(2*p1 - 1)", dim=2, n_params=1)
    assert eval_jets(e, coordinate_jets(np.array([-2.0, 0.0])), (2.0,)).value == -8.0
    with pytest.raises(JetDomainError) as ei:
        eval_jets(e, coordinate_jets(np.array([[1.0, 0.0], [0.0, 1.0]])), (0.0,))
    assert (ei.value.op, ei.value.value, ei.value.pos) == ("pow", 0.0, 2)
    _assert_block_matches_points(e, np.array([[-2.0, 0.0], [0.5, 1.0]]), (2.0,))


def test_block_error_names_first_failing_point():
    # the block meets ln(-1) of the second point before sqrt(-1) of the
    # first, but the first point fails on its own, so its error is raised
    e = parse("ln(x1) + sqrt(x2)", dim=2)
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(JetDomainError) as ei:
        eval_jets(e, coordinate_jets(block))
    assert (ei.value.op, ei.value.value, ei.value.pos) == ("sqrt", -1.0, 9)
    _assert_block_matches_points(e, block, ())


# ---------------------------------------------------------------------------
# Evaluation to a lower order keeps the bits of the slots it keeps
# ---------------------------------------------------------------------------


def _assert_same_slots(low, full, order, label=""):
    """low carries exactly the slots through ``order``, each with full's bits."""
    assert low.order == order, label
    for k, (a, b) in enumerate(zip((low.value,) + low.derivs[:order],
                                   (full.value,) + full.derivs)):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all(), (label, k)


@given(_asts(), st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=4),
       st.tuples(_COORDS, _COORDS), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_truncated_evaluation_keeps_the_full_slots(ast, coords, params, order):
    # a lower order computes no unary coefficient above it, so it may pass
    # where a higher order fails on one (an underflowing -1/v**2 of ln, say);
    # where a higher order passes, the lower passes with its bits, and where
    # the lower fails, every higher order fails
    e = parse(pretty(ast), dim=3, n_params=2)
    with np.errstate(all="ignore"):
        low, err = _evaluate(e, np.array(coords), params, order)
        for high in range(order + 1, 4):
            full, high_err = _evaluate(e, np.array(coords), params, high)
            if err is not None:
                assert high_err is not None, high
            elif high_err is None:
                _assert_same_slots(low, full, order, str(high))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_an_exponent_takes_its_branch_at_full_order(order):
    # x2^3 at x2 = 0 has value, d1 and d2 zero but d3 = 6: the exponent is
    # not constant, so the negative base is a domain error at every order
    e = parse("x1^(x2^3)", dim=2)
    with pytest.raises(JetDomainError) as ei:
        eval_jets(e, coordinate_jets(np.array([-1.0, 0.0])), order=order)
    assert (ei.value.op, ei.value.value) == ("pow", -1.0)


def _expression_fields(subject, x):
    """(label, matrix of expressions, bindings, params) for each field that a
    check evaluates at the sample points x of the subject."""
    if isinstance(subject, MetricField):
        return [(subject.name, subject.entries, coordinate_jets(x), subject.params)]
    if isinstance(subject, WarpedMetric):
        n1, leaf = subject.n1, x[:, :subject.n1]
        fields = [("f", [[subject.f]], coordinate_jets(leaf), subject.params)]
        fields += _expression_fields(subject.metric, x)
        if subject.leaf is not None:
            fields += _expression_fields(subject.leaf, leaf)
        if subject.fiber is not None:
            fields += _expression_fields(subject.fiber, x[:, n1:])
        return fields
    if isinstance(subject, AlmostComplexStructure):
        return ([("J", subject.j_entries, coordinate_jets(x), subject.params)]
                + _expression_fields(subject.metric, x))
    if isinstance(subject, AlmostContactStructure):
        return ([(label, rows, coordinate_jets(x), subject.params) for label, rows in
                 (("phi", subject.phi_entries), ("xi", [subject.xi_entries]),
                  ("eta", [subject.eta_entries]))]
                + _expression_fields(subject.metric, x))
    phi = subject.component_jets(x)  # an immersion
    image = np.stack([np.broadcast_to(p.value, x.shape[:-1]) for p in phi], -1)
    fields = [("ambient at the immersion", subject.ambient.entries, phi, subject.ambient.params)]
    fields += _expression_fields(subject.ambient, image)
    if subject.structure is not None:
        fields += _expression_fields(subject.structure, image)
    if subject.warped is not None:
        decl = subject.warped
        fields.append(("f", [[decl.f]], coordinate_jets(x[:, :decl.n1]), subject.params))
        if decl.g2 is not None:
            fields += _expression_fields(decl.g2, x[:, decl.n1:])
    return fields


@pytest.mark.parametrize("name", builtin_names())
def test_every_field_at_a_lower_order_keeps_its_full_slots(name):
    subject = load_builtin(name).subject
    x = np.array(sample_points(subject, 33, 42))
    fields = _expression_fields(subject, x)
    assert fields
    for label, entries, bindings, params in fields:
        full = [jet for _, jet in matrix_jets(entries, bindings, params, order=3)]
        for order in (0, 1, 2):
            low = [jet for _, jet in matrix_jets(entries, bindings, params, order=order)]
            for k, (a, b) in enumerate(zip(low, full)):
                _assert_same_slots(a, b, order, f"{name} {label} entry {k} order {order}")
