import gc
import importlib
import pickle
from unittest import mock

import pytest

from conftest import SURF_TWO_DAYS
from sppam import (
    AttributeSpec,
    Dataset,
    SppamError,
    TransformConfig,
    parse_arff,
    parse_csv,
    model,
    transform,
    write_arff,
    write_csv,
)
from sppam.model import DatasetError, number_texts

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


def test_collector_is_paused_inside_transform(monkeypatch):
    seen = []
    aggregate = transform_module._aggregate

    def spy(*args):
        seen.append(gc.isenabled())
        return aggregate(*args)

    monkeypatch.setattr(transform_module, "_aggregate", spy)
    assert gc.isenabled()
    transform(parse_arff(SURF_TWO_DAYS), TransformConfig("Date", "Surf"))
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("decimals", [None, 2])
def test_number_texts_carries_texts_across_blocks_but_not_zeros(decimals):
    memo = {}
    with mock.patch.object(model, "format_number", wraps=model.format_number) as spy:
        assert number_texts([0.0, 1.5, None], decimals, memo) == ["0.0", "1.5", "?"]
        assert number_texts([-0.0, 1.5, 2.25], decimals, memo) == [
            "-0.0", "1.5", "2.25"
        ]
    if decimals is not None:  # 1.5 is formatted once, each zero in its block
        assert [c.args[0] for c in spy.call_args_list] == [0.0, 1.5, -0.0, 2.25]
    assert 0.0 not in memo
    number_texts([3.0], decimals, memo)  # past twice the block's length
    assert set(memo) == {None, 3.0}


@pytest.mark.parametrize("write", [write_arff, write_csv])
@pytest.mark.parametrize("decimals", [None, 2])
def test_writers_keep_the_sign_of_zero_across_blocks(write, decimals):
    dataset = Dataset("unnamed", (AttributeSpec.numeric("a"),), ((0.0,), (2.5,), (-0.0,), (2.5,)))
    with mock.patch.object(model, "WRITE_BLOCK_CELLS", 2):  # two records per block
        text = write(dataset, decimals)
    assert text.splitlines()[-4:] == ["0.0", "2.5", "-0.0", "2.5"]


# one example of every error type the package defines
ERRORS = (
    model.SppamError("bad"),
    model.DatasetError("bad"),
    model.ConfigError("bad"),
    model.ParseError(3, "bad"),
)


def test_every_error_type_has_an_example():
    defined = {
        value for value in vars(model).values()
        if isinstance(value, type) and issubclass(value, SppamError)
    }
    assert {type(error) for error in ERRORS} == defined


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    """A forked child sends its exception back to ``compare`` pickled."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


def test_a_parse_error_keeps_its_line_and_message_through_pickling():
    copy = pickle.loads(pickle.dumps(model.ParseError(3, "bad")))
    assert (copy.line, str(copy)) == (3, "line 3: bad")
    error = model.ParseError(3, "bad")
    error.path = "in.csv"
    copy = pickle.loads(pickle.dumps(error))
    assert (copy.line, copy.path, str(copy)) == (3, "in.csv", "in.csv: line 3: bad")
