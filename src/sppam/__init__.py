"""SPPAM: aggregate groups of correlated records into single records,
with a cross-validation harness to compare learning on original and
aggregated datasets.

Importing the package loads the data model, both readers and writers and
``transform``. The evaluation names (classifiers, folds, metrics, the
t-test, cross-validation and the generator) are loaded from their module
on first use, so that a program that only transforms never imports them.
"""

import importlib

from .arff import parse_arff, write_arff
from .csvio import parse_csv, write_csv
from .model import AttributeSpec, ConfigError, Dataset, DatasetError, ParseError, SppamError
from .transform import (
    Group,
    TransformConfig,
    aggregate_nominal,
    aggregate_numeric,
    attribute_count,
    derive_output_schema,
    group_records,
    sort_records,
    transform,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on the name's first use
_LAZY = {
    "CLASSIFIER_KINDS": "classifiers",
    "fit": "classifiers",
    "CrossValResult": "evaluate",
    "EvalReport": "evaluate",
    "compare_datasets": "evaluate",
    "cross_validate": "evaluate",
    "FoldAssignment": "folds",
    "group_stratified_folds": "folds",
    "gen_surf": "generator",
    "ConfusionMatrix": "metrics",
    "MetricsReport": "metrics",
    "classification_metrics": "metrics",
    "TTestResult": "ttest",
    "corrected_t_test": "ttest",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AttributeSpec",
    "CLASSIFIER_KINDS",
    "ConfigError",
    "ConfusionMatrix",
    "CrossValResult",
    "Dataset",
    "DatasetError",
    "EvalReport",
    "FoldAssignment",
    "Group",
    "MetricsReport",
    "ParseError",
    "SppamError",
    "TTestResult",
    "TransformConfig",
    "aggregate_nominal",
    "aggregate_numeric",
    "attribute_count",
    "classification_metrics",
    "compare_datasets",
    "corrected_t_test",
    "cross_validate",
    "derive_output_schema",
    "fit",
    "gen_surf",
    "group_records",
    "group_stratified_folds",
    "parse_arff",
    "parse_csv",
    "sort_records",
    "transform",
    "write_arff",
    "write_csv",
]
