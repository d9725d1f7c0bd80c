import gc
import importlib

import pytest

from conftest import SURF_TWO_DAYS
from sppam import (
    AttributeSpec,
    Dataset,
    SppamError,
    TransformConfig,
    parse_arff,
    parse_csv,
    transform,
)
from sppam.model import DatasetError

# the package's `transform` attribute is the function, not the module
transform_module = importlib.import_module("sppam.transform")
SCHEMA = (AttributeSpec.string("key"), AttributeSpec.numeric("x"))


def test_dataset_stores_records_as_tuples():
    dataset = Dataset("d", list(SCHEMA), [["k", 1.0], ("k", None)])
    assert dataset.schema == SCHEMA
    assert dataset.records == (("k", 1.0), ("k", None))


def test_dataset_names_the_first_record_of_the_wrong_width():
    with pytest.raises(DatasetError, match="^record 1 has 1 values, schema has 2 attributes$"):
        Dataset("d", SCHEMA, [("k", 1.0), ("k",), ("k", 1.0, 2.0)])


# each call returns, then raises
CALLS = {
    "parse_csv": (lambda: parse_csv("a,b\n1,x\n"), lambda: parse_csv("a,b\n1\n")),
    "parse_arff": (lambda: parse_arff(SURF_TWO_DAYS), lambda: parse_arff("@DATA\n")),
    "transform": (
        lambda: transform(parse_arff(SURF_TWO_DAYS), TransformConfig("Date", "Surf")),
        lambda: transform(parse_arff(SURF_TWO_DAYS), TransformConfig("Nope", "Surf")),
    ),
}


@pytest.mark.filterwarnings("ignore::sppam.MixedClassGroupWarning")
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_collector_state_is_restored(name, enabled):
    returns, raises = CALLS[name]
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        returns()
        assert gc.isenabled() is enabled
        with pytest.raises(SppamError):
            raises()
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.filterwarnings("ignore::sppam.MixedClassGroupWarning")
def test_collector_is_paused_inside_transform(monkeypatch):
    seen = []
    group_records = transform_module.group_records

    def spy(*args):
        seen.append(gc.isenabled())
        return group_records(*args)

    monkeypatch.setattr(transform_module, "group_records", spy)
    assert gc.isenabled()
    transform(parse_arff(SURF_TWO_DAYS), TransformConfig("Date", "Surf"))
    assert seen == [False]
    assert gc.isenabled()
