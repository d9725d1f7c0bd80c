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
