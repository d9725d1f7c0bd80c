"""SPPAM: aggregate groups of correlated records into single records,
with a cross-validation harness to compare learning on original and
aggregated datasets."""

from .arff import parse_arff, write_arff
from .classifiers import CLASSIFIER_KINDS, fit
from .csvio import parse_csv, write_csv
from .evaluate import CrossValResult, EvalReport, compare_datasets, cross_validate
from .folds import FoldAssignment, group_stratified_folds
from .generator import gen_surf
from .metrics import ConfusionMatrix, MetricsReport, classification_metrics
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
from .ttest import TTestResult, corrected_t_test

__version__ = "0.1.0"

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
