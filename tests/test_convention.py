"""The block is the one evaluation shape: structure, immersion and warped
checks take their block (a StructureBlock, an ImmersionBlock, a
WarpedBlock), and nothing that the block already holds, and a structure law
no vectors; no class is a point record and no block is indexed by point;
every function and class the package defines is read by it or exported, and
every parameter by its function; only the command-line module makes report
records, in one loop over one table."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import warpcheck
from warpcheck import cli, ineq, jets, riemann, structures, subman, warped
from warpcheck.errors import ConfigurationError
from warpcheck.gallery import load_builtin
from warpcheck.subman import ImmersionBlock

RECORD_NAMES = {"sff", "t", "tensors"}


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if inspect.isfunction(meth) and not meth_name.startswith("_"):
                    yield f"{name}.{meth_name}", meth


@pytest.mark.parametrize("mod", [structures, subman, ineq, warped],
                         ids=lambda m: m.__name__)
def test_no_optional_record_parameters(mod):
    found = [(name, p.name) for name, fn in _public_callables(mod)
             for p in inspect.signature(fn).parameters.values()
             if p.name in RECORD_NAMES and p.default is not inspect.Parameter.empty]
    assert found == []


def test_structure_laws_take_no_vectors():
    # a law of the point record gives its values over every coordinate pair
    # at once; the closed-form models alone take vectors
    found = [name for name, fn in _public_callables(structures)
             if "t" in (params := inspect.signature(fn).parameters)
             and params.keys() & {"X", "Y", "Z", "W"}]
    assert found == []


@pytest.mark.parametrize("check", [
    ineq.main_inequality,
    ineq.scalar_decomposition_residual,
    subman.warped_block_defect,
], ids=["main", "scalar-split", "warped-block"])
def test_checks_needing_a_warped_split_reject_an_immersion_without_one(check):
    block = ImmersionBlock(load_builtin("e3").subject, np.array([[1.0, 2.0]]))
    assert block.im.warped is None
    with pytest.raises(ConfigurationError, match="immersion has no warped declaration"):
        check(block)


def _calls(node, scope=()):
    """(enclosing class and function names, called name) of each call in the tree."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            f = child.func
            yield ".".join(scope), getattr(f, "id", getattr(f, "attr", None))
        yield from _calls(child, inner)


def _package_trees() -> dict:
    """The syntax tree of each package module, by module name."""
    return {path.stem: ast.parse(path.read_text())
            for path in Path(warpcheck.__file__).parent.glob("*.py")}


def _call_sites(called: str) -> set:
    """(module, enclosing scope) of each call of a name in the package."""
    return {(mod, scope) for mod, tree in _package_trees().items()
            for scope, name in _calls(tree) if name == called}


def test_curvature_is_contracted_into_a_frame_only_by_the_point_records():
    # a metric block's contraction and an immersion block's two, each over
    # the whole block once, are cached fields that every check reads; a
    # check contracting again would repeat one at every point
    assert _call_sites("frame_curvature") == {("riemann", "MetricBlock.curvature_in_frame"),
                                              ("subman", "ImmersionBlock.frame_curvatures")}


def test_fold_sff_has_one_step_kind():
    # every immersion check reads the block, so no package function takes an SFFData
    for mod, tree in _package_trees().items():
        assert "block_step" not in ast.unparse(tree), mod
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                assert not [a.arg for a in args if a.arg == "sff"
                            or "SFFData" in ast.unparse(a.annotation or ast.Constant(""))], \
                    (mod, getattr(fn, "name", "<lambda>"))


def test_frames_are_built_only_by_the_stacked_step():
    # one Gram-Schmidt path: the step over a stack of points, which the
    # wrapper and the one basis completion (normal frames and the contact
    # suite's leaf frame) call
    assert _call_sites("gram_schmidt_step") == {("riemann", "gram_schmidt"),
                                                ("subman", "_complete")}


def test_only_the_stacked_build_watches_for_floating_point_events():
    assert _call_sites("watch") == {("riemann", "stacked")}


def test_the_block_is_the_only_evaluation_shape():
    # one shape of the geometry, so the bit contract has no second one to
    # keep equal to it: no point record, no block read by point index, and
    # a stacked build over the whole block only
    for mod, tree in _package_trees().items():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        assert not [c.name for c in classes if c.name.endswith("Point")], mod
        for cls in (c for c in classes if c.name.endswith("Block")):
            methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            assert not methods & {"__getitem__", "__iter__"}, (mod, cls.name)
    assert list(inspect.signature(riemann.stacked).parameters) == ["build", "count"]


def test_a_point_form_is_sliced_from_its_block():
    # the form is built for the whole block; the one point read the bench
    # names slices a block of one's
    tree = ast.parse(Path(subman.__file__).read_text())
    called = {name for scope, name in _calls(tree) if scope == "second_fundamental_form"}
    assert "ImmersionBlock" in called
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "second_fundamental_form")
    assert "frames" in {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert not called & {"einsum", "gram_schmidt", "gram_schmidt_step"}


# helpers that tests call to cross-check the library, and nothing in it does
TEST_FACING = {"eval_value", "Jet3.partial", "MetricField.from_strings",
               "model_symmetry_residual", "WarpedMetric.is_trivial"}


def _definitions(node, prefix=""):
    """(qualified name, name) of each function and class defined in the tree,
    dunder methods aside, which Python calls by protocol."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


BENCH_NAMED = "named by BENCHMARK.json per_layer; goes with ROADMAP item 1"

# exports that no package module reads, each kept for callers outside it;
# riemann.laplacian is kept for BENCH_NAMED too, but MetricBlock.laplacian
# reads its name
EXPORTED_FOR_CALLERS = {
    "christoffel": BENCH_NAMED,
    "curvature_components": BENCH_NAMED,
    "second_fundamental_form": BENCH_NAMED,
    "validate": "test helper: the examples' validation gate, run by tests, not by a report",
    "fd_partial": "oracle: finite differences that acceptance criterion 10 holds jets to",
    "complex_space_form": "oracle: a closed-form curvature model to compare charts with",
    "generalized_complex_space_form": "oracle: a closed-form curvature model",
    "sasakian_space_form": "oracle: a closed-form curvature model",
    "kenmotsu_space_form": "oracle: a closed-form curvature model",
    "cosymplectic_space_form": "oracle: a closed-form curvature model",
    "phi_sectional": "oracle: the phi-sectional curvature of a closed-form model",
}


def _references(trees) -> set:
    """Every name the trees read: as a name, an attribute or an import."""
    refs = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_definition_is_read_by_the_package_or_exported():
    # code that nothing in the package reads, and no caller is offered, is
    # dead weight; the few helpers kept for tests are named above
    trees = _package_trees()
    refs = _references(trees.values())
    unread = {qual for tree in trees.values() for qual, name in _definitions(tree)
              if name not in refs and qual not in warpcheck.__all__}
    assert unread == TEST_FACING
    # an export that loses its last reader in the package, or gains one, shows here
    read = _references(tree for mod, tree in trees.items() if mod != "__init__")
    assert set(warpcheck.__all__) - read == EXPORTED_FOR_CALLERS.keys()


def test_every_parameter_is_read_by_its_function():
    # a parameter the body never reads makes every caller pass a value for
    # nothing; self, cls and _-prefixed names are exempt
    unread = []
    for mod, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unread += [(mod, getattr(fn, "name", "<lambda>"), p) for p in params
                       if p not in read and p not in ("self", "cls")
                       and not p.startswith("_")]
    assert unread == []


def test_only_the_command_line_module_makes_report_records():
    # one module turns folded values into records, so a field every record
    # gains, or a tolerance, is set in one place
    assert {mod for mod, _ in _call_sites("CheckReport")} == {"cli"}
    assert {mod for mod, _ in _call_sites("add")} == {"cli"}
    importers = {mod for mod, tree in _package_trees().items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and "CheckReport" in {alias.name for alias in node.names}}
    assert importers == {"cli", "__init__"}


def test_records_are_made_only_by_the_table_loop():
    # one loop turns the rows of one table into records, so a record's name,
    # anchor, tolerance and role are declared in one place
    assert _call_sites("add") == {("cli", "records")}


def test_every_tolerance_name_reaches_a_row():
    # a --tol name that no row reads would be accepted and do nothing
    assert set(cli.TOLERANCES) <= {row.tol for row in cli.ROWS}


def test_every_row_tolerance_can_be_set_from_the_command_line():
    for name in {row.tol for row in cli.ROWS} - {None}:
        assert cli.parse_args(["--target", "e1", "--tol", f"{name}=0.5"]).tol(name) == 0.5


def test_every_block_walk_names_the_dimension_that_sizes_its_blocks():
    # a block's size follows the dimension of its largest arrays, which only
    # the caller knows, so per_block has no default for it and its one call,
    # the fold every subject's checks go through, passes one; only jets
    # reads the size constants
    assert inspect.signature(jets.per_block).parameters["dim"].default is inspect.Parameter.empty
    calls = [(mod, len(node.args) + len(node.keywords))
             for mod, tree in _package_trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "per_block"]
    assert calls == [("riemann", 3)], calls
    sizes = ("BLOCK_POINTS", "BLOCK_ENTRIES")
    readers = {mod for mod, tree in _package_trees().items() for node in ast.walk(tree)
               if getattr(node, "id", getattr(node, "attr", None)) in sizes
               or isinstance(node, ast.alias) and node.name in sizes}
    assert readers == {"jets"}
