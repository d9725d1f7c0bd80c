"""Module layering and the public surface, checked on the package source."""

import ast
import builtins
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sppam
from sppam import cli

SRC = Path(sppam.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _exception_classes(tree, known=frozenset()) -> set[str]:
    """The classes defined in ``tree`` that derive, by base name, from a
    built-in exception, from a class named in ``known`` or from one found
    earlier in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in (ast.unparse(base).rpartition(".")[2] for base in node.bases):
            builtin = getattr(builtins, base, None)
            if base in known or base in found or (
                isinstance(builtin, type) and issubclass(builtin, BaseException)
            ):
                found.add(node.name)
    return found


def test_every_exception_is_defined_in_model():
    """Every layer can import the error types without importing another
    layer: each exception class of the package is defined in ``model``."""
    trees = _trees()
    model_errors = _exception_classes(trees["model"])
    assert {"SppamError", "DatasetError", "ConfigError", "ParseError"} <= model_errors
    defining = {
        module
        for module, tree in trees.items()
        if _exception_classes(tree, model_errors)
    }
    assert defining == {"model"}
    model = importlib.import_module("sppam.model")
    assert sppam.ConfigError is model.ConfigError
    assert sppam.ParseError is model.ParseError is importlib.import_module("sppam.arff").ParseError
    assert importlib.import_module("sppam.arff").LINE_BREAKS is model.LINE_BREAKS


def _imported_siblings(tree) -> set[str]:
    """The package modules that ``tree`` imports, however it names them."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.name for alias in node.names)
            else:
                siblings.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sppam"):
            module = node.module.partition(".")[2]
            siblings.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            siblings.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("sppam.")
            )
    return siblings


def test_the_format_modules_do_not_import_each_other():
    """``arff`` and ``csvio`` take the read contract (``ParseError``,
    ``LINE_BREAKS``, ``unwritable``) from ``model``, not from each other."""
    trees = _trees()
    assert "csvio" not in _imported_siblings(trees["arff"])
    assert "arff" not in _imported_siblings(trees["csvio"])
    for module in ("arff", "csvio"):
        assert {"ParseError", "LINE_BREAKS", "unwritable"} <= _model_imports(trees[module])


def test_package_imports_only_the_standard_library():
    outside = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            outside.update((module, top) for top in tops if top not in sys.stdlib_module_names)
    assert outside == set()


def test_only_cli_folds_and_init_import_transform():
    importers = {
        module for module, tree in _trees().items() if "transform" in _imported_siblings(tree)
    }
    assert importers == {"cli", "folds", "__init__"}


def test_no_module_imports_warnings():
    importing = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
    }
    assert importing == set()


def test_only_the_cli_handler_writes_to_stderr():
    """Diagnostics are records on the ``sppam`` logger; the one handler
    that ``cli.main`` installs is the only code that names stderr."""
    naming = set()
    for module, tree in _trees().items():
        for node in tree.body:
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "stderr"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "sys"
                ) or (
                    isinstance(sub, ast.ImportFrom)
                    and sub.module == "sys"
                    and any(a.name == "stderr" for a in sub.names)
                ):
                    naming.add((module, getattr(node, "name", "<module>")))
    assert naming == {("cli", "main")}


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
    """Both readers build each block's records through a
    ``model.TextColumns``, built outside any loop, which converts each
    distinct raw text of a column once; they define no kernel of their
    own."""
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


def test_cross_validate_copies_no_records_per_fold():
    """A fold's training view is the presort minus the fold it holds out:
    inside the fold loop, two loops deep, ``cross_validate`` builds one
    view, no Dataset, and calls no ``replace_records``."""
    [function] = [
        node for node in ast.walk(_trees()["evaluate"])
        if isinstance(node, ast.FunctionDef) and node.name == "cross_validate"
    ]
    assert _loop_depths(function, "without") == [2]
    for name in ("Dataset", "replace_records"):
        assert max(_loop_depths(function, name), default=0) < 2, name


def test_cross_validate_fits_and_predicts_through_the_traced_hooks():
    """``bench/tracer.py`` times fits by replacing the module attribute
    ``classifiers.fit`` and predictions by wrapping each fitted model's
    ``predict_index``: ``cross_validate`` must call the first through the
    module and the second once per test record, in one comprehension, or
    the per-layer fit and predict metrics go missing."""
    [function] = [
        node for node in ast.walk(_trees()["evaluate"])
        if isinstance(node, ast.FunctionDef) and node.name == "cross_validate"
    ]
    calls = [node.func for node in ast.walk(function) if isinstance(node, ast.Call)]
    fits = [f for f in calls if isinstance(f, ast.Attribute) and f.attr == "fit"]
    assert [ast.unparse(f) for f in fits] == ["classifiers.fit"]
    model_calls = [
        f for f in calls
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "model"
    ]
    assert [f.attr for f in model_calls] == ["predict_index"]
    [comprehension] = [
        node for node in ast.walk(function)
        if isinstance(node, ast.ListComp) and any(sub is model_calls[0] for sub in ast.walk(node))
    ]
    assert ast.unparse(comprehension.elt) == f"model.predict_index({comprehension.generators[0].target.id})"


def test_candidate_errors_come_from_counts_not_from_predicting_rows():
    """``_best_candidate`` predicts only the one all-missing record per
    candidate, for its missing-value class; each kernel counts a
    candidate's errors over the runs its thresholds send to each side."""
    [function] = [
        node for node in ast.walk(_trees()["classifiers"])
        if isinstance(node, ast.FunctionDef) and node.name == "_best_candidate"
    ]
    assert _loop_depths(function, "predict_index") == [1]


def test_cli_reads_and_writes_through_the_traced_hooks(tmp_path, monkeypatch):
    """``bench/tracer.py`` times parsing and writing by replacing the
    module attributes ``cli.parse_arff``, ``cli.parse_csv``,
    ``cli.write_arff`` and ``cli.write_csv``: the CLI must look each up at
    call time, or the per-layer parse and write metrics go missing."""
    called = []

    def hook(name):
        original = getattr(cli, name)

        def traced(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        return traced

    for name in ("parse_arff", "parse_csv", "write_arff", "write_csv"):
        monkeypatch.setattr(cli, name, hook(name))
    surf, daily = tmp_path / "surf.arff", tmp_path / "daily.csv"
    assert cli.main(["gen-surf", "-o", str(surf), "--days", "6", "--zero-days", "2"]) == 0
    assert called == ["write_arff"]
    args = ["--pivot", "Date", "--class", "Sets"]
    assert cli.main(["transform", str(surf), *args, "-o", str(daily)]) == 0
    assert cli.main(["transform", str(daily), *args, "-o", str(tmp_path / "again.arff")]) == 0
    assert called == ["write_arff", "parse_arff", "write_csv", "parse_csv", "write_arff"]


def _tracer_cli_wraps() -> list[str]:
    """The ``sppam.cli`` names that ``bench/tracer.py`` replaces."""
    source = (SRC.parents[1] / "bench" / "tracer.py").read_text(encoding="utf-8")
    [wraps] = [
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CLI_WRAPS"
    ]
    return [attr for module, attr, _ in ast.literal_eval(wraps) if module == "sppam.cli"]


def test_cli_evaluates_and_renders_through_the_traced_hooks(tmp_path, monkeypatch):
    """``bench/tracer.py`` also replaces ``cli.compare_datasets`` and the
    four ``cli.render_*`` names, which ``cli`` binds from ``evaluate`` only
    on first use: every name the tracer wraps must resolve on the module,
    and a replacement bound before ``main`` runs must be the one called."""
    evaluate = importlib.import_module("sppam.evaluate")
    wrapped = _tracer_cli_wraps()
    hooks = [name for name in wrapped if hasattr(evaluate, name)]
    assert sorted(hooks) == sorted(cli._EVALUATE_HOOKS)
    for name in hooks:  # as on first use in a fresh process
        monkeypatch.delitem(vars(cli), name, raising=False)
    for name in wrapped:
        assert getattr(cli, name) is not None, name
    for name in hooks:
        assert getattr(cli, name) is getattr(evaluate, name), name
        monkeypatch.delitem(vars(cli), name)
    called = []

    def hook(name):
        original = getattr(evaluate, name)

        def traced(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        return traced

    for name in ("compare_datasets", "render_compare_text"):
        monkeypatch.setitem(vars(cli), name, hook(name))
    surf = tmp_path / "surf.arff"
    assert cli.main(["gen-surf", "-o", str(surf), "--days", "6", "--zero-days", "2"]) == 0
    compare = ["compare", str(surf), str(surf), "--class", "Sets", "--k", "2", "--repeats", "1"]
    assert cli.main(compare) == 0
    assert called == ["compare_datasets", "render_compare_text"]
    assert cli.render_compare_csv is evaluate.render_compare_csv


EVALUATION_MODULES = {
    f"sppam.{module}" for module in ("classifiers", "evaluate", "folds", "metrics", "ttest", "generator")
}


def _python(cwd, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _imported_by(cwd, *args) -> set[str]:
    """The modules that ``python -X importtime ARGS`` imports."""
    stderr = _python(cwd, "-X", "importtime", *args).stderr
    return {
        line.rpartition("|")[2].strip() for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def test_help_and_transform_load_no_evaluation_module(tmp_path):
    surf = tmp_path / "surf.arff"
    assert cli.main(["gen-surf", "-o", str(surf), "--days", "6", "--zero-days", "2"]) == 0
    for args in (
        ["--help"],
        ["transform", surf.name, "--pivot", "Date", "--class", "Sets", "-o", "daily.csv"],
    ):
        imported = _imported_by(tmp_path, "-m", "sppam", *args)
        assert {"sppam.cli", "sppam.transform"} <= imported, args
        assert imported.isdisjoint(EVALUATION_MODULES), args
    assert (tmp_path / "daily.csv").exists()


def test_import_loads_the_evaluation_modules_on_first_use(tmp_path):
    probe = """
import inspect, sys
import sppam
print(sorted(m for m in sys.modules if m.startswith("sppam.")))
namespace = {}
exec("from sppam import *", namespace)
print(sorted(set(sppam.__all__) - namespace.keys()))
print(inspect.isfunction(sppam.transform), sppam.transform is namespace["transform"])
print(sppam.fit is sys.modules["sppam.classifiers"].fit)
"""
    lines = _python(tmp_path, "-c", probe).stdout.splitlines()
    assert lines == [
        "['sppam.arff', 'sppam.csvio', 'sppam.model', 'sppam.transform']",
        "[]",
        "True True",
        "True",
    ]


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


def test_classifiers_read_records_only_in_the_presort():
    """Learners fit from a training view's counts and runs: only the
    presort, which counts them, reads ``.records``; ``fit`` hands a plain
    Dataset to it, and a view's kept records come from it."""
    reading = {
        getattr(node, "name", "<module>")
        for node in _trees()["classifiers"].body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "records"
    }
    assert reading == {"PresortedColumns"}


def test_public_names_resolve():
    for name in sppam.__all__:
        assert getattr(sppam, name) is not None, name


def test_removed_names_are_gone():
    transform_module = importlib.import_module("sppam.transform")
    for module, name in [
        (sppam, "MixedClassGroupWarning"),
        (transform_module, "MixedClassGroupWarning"),
        (sppam, "predict"),
        (sppam, "NumericAggregate"),
        (sppam, "NominalAggregate"),
        (importlib.import_module("sppam.classifiers"), "predict"),
        (transform_module, "NumericAggregate"),
        (transform_module, "NominalAggregate"),
        (sppam.FoldAssignment, "fold_indices"),
        (sppam.FoldAssignment, "split"),
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
        (importlib.import_module("sppam.ttest"), "critical_value"),
        (importlib.import_module("sppam.ttest"), "_TABLES"),
        (importlib.import_module("sppam.ttest"), "_NORMAL_APPROX"),
        (importlib.import_module("sppam.classifiers").PresortedColumns, "order"),
        (importlib.import_module("sppam.classifiers")._TrainingSet, "sorted_column"),
        (importlib.import_module("sppam.classifiers")._TrainingSet, "in_train"),
        (importlib.import_module("sppam.classifiers")._TrainingSet, "rows"),
        (importlib.import_module("sppam.classifiers").PresortedColumns, "training_set"),
        (importlib.import_module("sppam.classifiers")._BaseModel, "predict"),
        (importlib.import_module("sppam.model"), "chunk_end"),
        (importlib.import_module("sppam.model").TextColumns, "present"),
        (importlib.import_module("sppam.csvio"), "_unwritable"),
        (importlib.import_module("sppam.model"), "cell_text"),
        (importlib.import_module("sppam.model").TextColumns, "records"),
        (importlib.import_module("sppam.generator"), "PIVOT_ATTRIBUTE"),
        (importlib.import_module("sppam.generator"), "CLASS_ATTRIBUTE"),
        (transform_module, "_folded"),
        (transform_module, "_IS_ZERO"),
        (transform_module.GroupFold("x"), "cells"),
        (importlib.import_module("sppam.cli"), "_read_text"),
        (importlib.import_module("sppam.arff"), "READ_CHUNK_CHARS"),
        (importlib.import_module("sppam.arff"), "_CHUNK_END"),
        (importlib.import_module("sppam.csvio"), "READ_CHUNK_CHARS"),
        (importlib.import_module("sppam.csvio"), "_chunk_end"),
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
