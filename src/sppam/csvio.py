"""CSV ingestion with column type inference.

The first row is a header. A column is inferred Numeric when every
non-missing cell parses as a finite number written in ASCII (digit-group
underscores, as in ``1_000``, and non-ASCII digits, as in ``١٢``, do not
count), Nominal otherwise (domain = distinct values in first-seen order).
Missing cells are empty or ``?``.
Specific columns can be forced to String (typical for a grouping key or a
record id) or to Nominal (required for a class column whose values look
numeric). Quoting follows RFC-4180 conventions via the csv module. A
header name or cell that holds both quote characters, ``'`` and ``"``, or
a line break (possible inside a ``"``-quoted cell) is a ParseError: the
ARFF writer cannot write such a value. Every malformed
input raises ParseError, including what the csv module rejects (such as a
field longer than its 131072-character limit).

``parse_csv`` works one column at a time: it strips, classifies and
converts each distinct cell text of a column once, and equal texts share
one cell object.
"""

from __future__ import annotations

import csv
import io
import math

from .arff import ParseError
from .model import AttributeSpec, Dataset, format_number, no_gc

_MISSING_TEXTS = ("", "?")


@no_gc
def parse_csv(
    text: str,
    string_columns=(),
    nominal_columns=(),
    relation_name: str = "unnamed",
) -> Dataset:
    """Parse CSV text into a Dataset, inferring a schema from the cells."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty CSV input") from None
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from None
    names = [h.strip() for h in header]
    if any(name == "" for name in names):
        raise ParseError(1, "empty header name")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ParseError(1, f"duplicate header names: {dupes}")
    for forced in (*string_columns, *nominal_columns):
        if forced not in names:
            raise ParseError(1, f"forced column {forced!r} is not in the header")

    rows: list[list[str]] = []
    read_error = None
    try:
        rows.extend(reader)  # keeps the rows read before a csv.Error
    except csv.Error as exc:
        read_error = ParseError(reader.line_num, f"malformed CSV: {exc}")
    rows = list(filter(None, rows))  # blank lines read as []
    width = len(names)
    if set(map(len, rows)) - {width}:
        _reject_row_width(text, width)
    if read_error is not None:
        raise read_error

    columns = list(zip(*rows)) if rows else [()] * width
    del rows  # frees the row lists before the columns are converted
    # per column: its distinct raw texts in first-seen order, their stripped
    # texts, and the distinct present values; a value's first raw text marks
    # its first occurrence, so the values keep first-seen order too
    distinct = []
    for column in columns:
        raws = dict.fromkeys(column)
        stripped = list(map(str.strip, raws))
        values = dict.fromkeys(stripped)
        for missing in _MISSING_TEXTS:
            values.pop(missing, None)
        distinct.append((raws, stripped, values))
    # a cell can hold both quotes or a line break only in a text with '"'
    if '"' in text and (
        any(map(_unwritable, names))
        or any(any(map(_unwritable, values)) for _, _, values in distinct)
    ):
        _reject_unwritable(text, names)

    # float() also reads non-ASCII digits; only a non-ASCII text checks values
    ascii_text = text.isascii()
    schema = []
    for j, (name, (raws, stripped, values)) in enumerate(zip(names, distinct)):
        attr, cells = _infer_column(name, values, string_columns, nominal_columns, ascii_text)
        schema.append(attr)
        memo = dict(zip(raws, map(cells.get, stripped)))
        columns[j] = list(map(memo.__getitem__, columns[j]))
    return Dataset(relation_name, tuple(schema), tuple(zip(*columns)))


def _reject_row_width(text: str, width: int) -> None:
    """ParseError for the first non-blank row that is not ``width`` wide."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for row in reader:
        if row and len(row) != width:
            raise ParseError(
                reader.line_num, f"row has {len(row)} values, header has {width} columns"
            )


def _unwritable(value: str) -> str | None:
    """What the ARFF writer cannot write in ``value``, or None."""
    if "'" in value and '"' in value:
        return "both quote characters"
    if "\n" in value or "\r" in value:
        return "a line break"
    return None


def _reject_unwritable(text: str, names) -> None:
    """ParseError for the first header name or cell holding both ' and " or
    a line break."""
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        for name, cell in zip(names, row):
            value = cell.strip()
            problem = _unwritable(value)
            if problem is not None:
                message = f"column {name!r}: a value cannot hold {problem}: {value!r}"
                raise ParseError(reader.line_num, message)


def _infer_column(name, values, string_columns, nominal_columns, ascii_text):
    """The column's AttributeSpec and the cell of each of its distinct
    present ``values``."""
    if name in string_columns:
        return AttributeSpec.string(name), dict(zip(values, values))
    if name not in nominal_columns:
        numbers = _numbers(values, ascii_text)
        if numbers is not None:
            return AttributeSpec.numeric(name), dict(zip(values, numbers))
    if not values:
        raise ParseError(1, f"column {name!r} has no observed values to build a nominal domain")
    return AttributeSpec.nominal(name, values), dict(zip(values, range(len(values))))


def _numbers(texts, ascii_text: bool) -> list[float] | None:
    """The float of each text, or None unless every one is finite decimal
    ASCII text; ``float`` also takes "1_000" and non-ASCII digits, this
    does not."""
    try:
        numbers = list(map(float, texts))
    except ValueError:
        return None
    if (
        all(map(math.isfinite, numbers))
        and not any("_" in text for text in texts)
        and (ascii_text or all(map(str.isascii, texts)))
    ):
        return numbers
    return None


def write_csv(dataset: Dataset, decimals: int | None = None) -> str:
    """Serialize a Dataset as CSV with a header row; missing renders as ?."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.attribute_names)
    for record in dataset.records:
        row = []
        for attr, cell in zip(dataset.schema, record):
            if cell is None:
                row.append("?")
            elif attr.kind == "numeric":
                row.append(format_number(cell, decimals))
            elif attr.kind == "nominal":
                row.append(attr.values[cell])
            else:
                row.append(cell)
        writer.writerow(row)
    return out.getvalue()
