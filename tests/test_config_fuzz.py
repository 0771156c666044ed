"""Config fuzz: a grammar-generated metric, warped, structure or immersion
config makes the command line exit 0, 1 or 2, and never raise; it exits 1
exactly when its report has a FAIL line.

The expressions come from the expression tests' AST strategy, with the
literals 0, 1e-200 and 1e200 among the numbers, so '^' meets exponents with
and without a variable, and evaluations meet zero, tiny and huge values.
Examples are derandomized, so every run of the suite draws the same configs.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_expr import _asts
from warpcheck.cli import CHECK_GROUPS, main
from warpcheck.expr import pretty
from warpcheck.structures import CLASS_NAMES

EDGE_NUMBERS = st.sampled_from([0.0, 1e-200, 1e200])


def _quoted(dim):
    """A quoted config expression in x1..x_dim."""
    return _asts(dim, 0, EDGE_NUMBERS).map(lambda e: f'"{pretty(e)}"')


def _rows(draw, dim):
    """row_1..row_dim of a symmetric matrix, each entry a number or an expression."""
    entry = st.one_of(st.sampled_from(['"0"', '"1"']), _quoted(dim))
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            m[i][j] = m[j][i] = draw(entry)
    return "".join(f"row_{i + 1} = {', '.join(row)}\n" for i, row in enumerate(m))


def _domain(draw, dim):
    lo = [draw(st.sampled_from([-2.0, -0.5, 0.0, 1e-200, 0.5])) for _ in range(dim)]
    width = [draw(st.sampled_from([1e-3, 1.0, 3.0])) for _ in range(dim)]
    return (f"domain_lo = {', '.join(map(repr, lo))}\n"
            f"domain_hi = {', '.join(repr(a + w) for a, w in zip(lo, width))}\n")


def _metric(draw, name, dim):
    return f"[metric {name}]\ndim = {dim}\n{_rows(draw, dim)}{_domain(draw, dim)}\n"


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["metric", "warped", "immersion"]))
    if kind == "metric":
        text, target = _metric(draw, "m", draw(st.integers(1, 3))), "m"
    elif kind == "warped":
        n1, n2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        text = (_metric(draw, "leaf", n1) + _metric(draw, "fiber", n2)
                + f"[warped w]\nleaf = leaf\nfiber = fiber\nf = {draw(_quoted(n1))}\n\n")
        target = "w"
    else:
        dim = draw(st.integers(2, 3))
        ambient = draw(st.integers(dim + 1, 4))
        components = ", ".join(draw(_quoted(dim)) for _ in range(ambient))
        text = (_metric(draw, "ambient", ambient)
                + f"[immersion im]\ndim = {dim}\nambient = ambient\n"
                f"components = {components}\n{_domain(draw, dim)}")
        if draw(st.booleans()):
            n1 = draw(st.integers(1, dim - 1))
            text += f"warp_n1 = {n1}\nwarp_n2 = {dim - n1}\nwarp_f = {draw(_quoted(n1))}\n"
        target = "im"
    return text + f"\n[subject]\nkind = {kind}\ntarget = {target}\n"


@given(configs(), st.sampled_from(("all",) + CHECK_GROUPS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_generated_config_exits_0_1_or_2(tmp_path_factory, text, checks):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--target", str(path), "--points", "2", "--checks", checks])
    assert code in (0, 1, 2), text


def _standard(kind, m):
    """The standard structure's entries on R^m by config key: J, or phi, xi
    and eta, with phi the rotation of the first m - 1 coordinates and
    xi = eta = e_m."""
    rot = [["0"] * m for _ in range(m)]
    for k in range(0, m - 1, 2):
        rot[k + 1][k], rot[k][k + 1] = "1", "-1"
    rows = {f"{'j' if kind == 'complex' else 'phi'}_row_{i + 1}": row for i, row in enumerate(rot)}
    e_m = ["0"] * (m - 1) + ["1"]
    return rows if kind == "complex" else {**rows, "xi": e_m, "eta": list(e_m)}


@st.composite
def structured_configs(draw):
    """A complex (dim 2, 4) or contact (dim 3, 5) structure, standard or with
    one fuzzed entry, over an identity or a fuzzed symmetric metric, and as
    the subject either it or an immersion into it, warped or not."""
    kind = draw(st.sampled_from(["complex", "contact"]))
    m = draw(st.sampled_from([2, 4] if kind == "complex" else [3, 5]))
    if draw(st.booleans()):
        text = _metric(draw, "ambient", m)
    else:
        rows = "".join(f"row_{i + 1} = " + ", ".join('"1"' if j == i else '"0"' for j in range(m))
                       + "\n" for i in range(m))
        text = f"[metric ambient]\ndim = {m}\n{rows}{_domain(draw, m)}\n"
    entries = _standard(kind, m)
    if draw(st.booleans()):
        key, j = draw(st.sampled_from(sorted(entries))), draw(st.integers(0, m - 1))
        entries[key][j] = draw(_quoted(m))[1:-1]
    text += f"[structure s]\nkind = {kind}\nmetric = ambient\n" + "".join(
        f"{key} = " + ", ".join(f'"{e}"' for e in row) + "\n" for key, row in entries.items())
    klass = draw(st.sampled_from((None,) + CLASS_NAMES)) if kind == "contact" else None
    text += f"expected_class = {klass}\n" if klass else ""
    if m < 3 or draw(st.booleans()):
        return text + "\n[subject]\nkind = structure\ntarget = s\n"
    dim = draw(st.integers(2, m - 1))
    components = ", ".join(draw(_quoted(dim)) for _ in range(m))
    text += (f"\n[immersion im]\ndim = {dim}\nambient = ambient\nstructure = s\n"
             f"components = {components}\n{_domain(draw, dim)}")
    if draw(st.booleans()):
        n1 = draw(st.integers(1, dim - 1))
        text += f"warp_n1 = {n1}\nwarp_n2 = {dim - n1}\nwarp_f = {draw(_quoted(n1))}\n"
    return text + "\n[subject]\nkind = immersion\ntarget = im\n"


@given(structured_configs(), st.sampled_from(("all",) + CHECK_GROUPS))
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_generated_structure_config_exits_1_exactly_on_a_failed_record(tmp_path_factory,
                                                                         text, checks):
    path = tmp_path_factory.getbasetemp() / "fuzz-structure.cfg"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--target", str(path), "--points", "2", "--checks", checks])
    assert code in (0, 1, 2), text
    failed = any(line.startswith("FAIL ") for line in out.getvalue().splitlines())
    assert (code == 1) == failed, text
