"""Module layering and the public surface, checked on the package source."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import sppam
from sppam import cli

SRC = Path(sppam.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _imports_transform(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module == "transform" or (
                node.module is None and any(a.name == "transform" for a in node.names)
            )
        return node.module == "sppam.transform"
    if isinstance(node, ast.Import):
        return any(a.name == "sppam.transform" for a in node.names)
    return False


def test_config_error_is_defined_only_in_model():
    defining = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ConfigError"
    ]
    assert defining == ["model"]
    assert sppam.ConfigError is importlib.import_module("sppam.model").ConfigError


def test_only_cli_folds_and_init_import_transform():
    importers = {
        module
        for module, tree in _trees().items()
        if any(_imports_transform(node) for node in ast.walk(tree))
    }
    assert importers == {"cli", "folds", "__init__"}


def test_only_no_gc_switches_the_collector():
    switching = set()
    for module, tree in _trees().items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.module == "gc":
                    switching.add((module, "from gc import"))
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in ("disable", "enable")
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "gc"
                ):
                    switching.add((module, getattr(node, "name", "<module>")))
    assert switching == {("model", "no_gc")}


def _model_imports(tree) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "model"
        for alias in node.names
    }


@pytest.mark.parametrize("module", ["arff", "csvio"])
def test_readers_take_the_numeric_rule_from_model(module):
    tree = _trees()[module]
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert "float" not in calls
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "isfinite" not in names
    assert "text_cells" in _model_imports(tree)


@pytest.mark.parametrize("module", ["arff", "csvio"])
def test_readers_intern_through_the_model_kernel(module):
    """Both readers keep their raw cell texts in a ``model.TextColumns``,
    built outside any loop, and define no kernel of their own."""
    tree = _trees()[module]
    assert "TextColumns" in _model_imports(tree)
    assert _loop_depths(tree, "TextColumns") == [0]
    assert "TextColumns" not in {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }


def test_csv_reader_copies_the_input_only_in_chunks():
    """Only ``_lines`` builds a StringIO over input text, so that the error
    rescans read it in chunks too and never copy it whole."""
    filled = {
        function.name
        for function in ast.walk(_trees()["csvio"])
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and "StringIO" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and (node.args or node.keywords)
    }
    assert filled == {"_lines"}


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_depths(tree, name):
    """For every call of ``name`` (bare or as an attribute), how many loops
    or comprehensions enclose it."""
    depths = []

    def visit(node, depth):
        if isinstance(node, ast.Call):
            func = node.func
            if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                depths.append(depth)
        inner = depth + isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, 0)
    return depths


def test_one_fold_plan_per_dataset():
    """Every classifier kind shares a dataset's presort and each repeat's
    folds: the presort is built once per ``cross_validate`` call, folds
    once per repeat, and no caller runs ``cross_validate`` per kind."""
    trees = _trees()
    assert _loop_depths(trees["evaluate"], "PresortedColumns") == [0]
    assert _loop_depths(trees["evaluate"], "group_stratified_folds") == [1]
    assert _loop_depths(trees["evaluate"], "cross_validate") == [0, 0]  # compare: one per dataset
    assert _loop_depths(trees["cli"], "cross_validate") == [0]


def _is_sort_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "sorted") or (
        isinstance(func, ast.Attribute) and func.attr == "sort"
    )


def test_classifiers_sort_only_in_the_presort():
    """``PresortedColumns`` is the one route to sorted columns: every
    learner, fitted in ``cross_validate`` or by ``fit`` on a plain Dataset,
    reads its numeric columns from a training set taken from a presort."""
    sorting = {
        getattr(node, "name", "<module>")
        for node in _trees()["classifiers"].body
        for sub in ast.walk(node)
        if _is_sort_call(sub)
    }
    assert sorting == {"PresortedColumns"}


def test_public_names_resolve():
    for name in sppam.__all__:
        assert getattr(sppam, name) is not None, name


def test_removed_names_are_gone():
    transform_module = importlib.import_module("sppam.transform")
    for module, name in [
        (sppam, "predict"),
        (sppam, "NumericAggregate"),
        (sppam, "NominalAggregate"),
        (importlib.import_module("sppam.classifiers"), "predict"),
        (transform_module, "NumericAggregate"),
        (transform_module, "NominalAggregate"),
        (sppam.FoldAssignment, "fold_indices"),
        (sppam.ConfusionMatrix, "add"),
        (sppam.AttributeSpec, "index_of"),
        (sppam.Dataset, "validate"),
        (importlib.import_module("sppam.model"), "check_cell"),
        (sppam.CrossValResult, "mean_accuracy"),
        (importlib.import_module("sppam.arff"), "split_values"),
        (importlib.import_module("sppam.arff"), "format_data_row"),
        (importlib.import_module("sppam.arff"), "_cell_converter"),
        (importlib.import_module("sppam.csvio"), "_numbers"),
        (importlib.import_module("sppam.csvio"), "_column_kernel"),
        (importlib.import_module("sppam.arff"), "_column_kernel"),
        (importlib.import_module("sppam.classifiers"), "_class_counts"),
        (importlib.import_module("sppam.classifiers"), "_training_errors"),
        (importlib.import_module("sppam.arff"), "_DataColumns"),
        (importlib.import_module("sppam.arff"), "_raise_first_error"),
        (importlib.import_module("sppam.arff"), "_NOT_PLAIN_HEADS"),
        (importlib.import_module("sppam.arff"), "_HEAD"),
        (importlib.import_module("sppam.arff"), "_split_cells"),
        (importlib.import_module("sppam.arff"), "_scan_cells"),
    ]:
        assert not hasattr(module, name), name
    assert "seed" not in inspect.signature(sppam.fit).parameters
    for function in (sppam.cross_validate, sppam.compare_datasets):
        assert "jobs" not in inspect.signature(function).parameters


@pytest.mark.parametrize("subcommand", [["eval", "x.arff"], ["compare", "x.arff", "y.arff"]])
def test_jobs_option_is_gone(subcommand, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([*subcommand, "--class", "c", "--jobs", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
