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
"""

from __future__ import annotations

import csv
import io
import math

from .arff import ParseError
from .model import AttributeSpec, Cell, Dataset, format_number

_MISSING_TEXTS = ("", "?")


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

    rows: list[list[str | None]] = []
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(
                    reader.line_num,
                    f"row has {len(row)} values, header has {len(names)} columns",
                )
            rows.append([None if c.strip() in _MISSING_TEXTS else c.strip() for c in row])
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from None
    # a cell can hold both quotes or a line break only in a text with '"'
    # in it; one C-level scan spares any other text a second pass
    if '"' in text:
        _reject_unwritable(text, names)

    # float() also reads non-ASCII digits; only a non-ASCII text checks cells
    ascii_text = text.isascii()
    schema = tuple(
        _infer_column(name, [row[j] for row in rows], string_columns, nominal_columns, ascii_text)
        for j, name in enumerate(names)
    )
    indexes = [{value: i for i, value in enumerate(attr.values)} for attr in schema]
    records = []
    for row in rows:
        cells: list[Cell] = []
        for attr, index, raw in zip(schema, indexes, row):
            if raw is None:
                cells.append(None)
            elif attr.kind == "numeric":
                cells.append(float(raw))
            elif attr.kind == "nominal":
                cells.append(index[raw])
            else:
                cells.append(raw)
        records.append(tuple(cells))
    return Dataset(relation_name, schema, tuple(records))


def _reject_unwritable(text: str, names) -> None:
    """ParseError for the first header name or cell holding both ' and " or
    a line break."""
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        for name, cell in zip(names, row):
            value = cell.strip()
            if "'" in value and '"' in value:
                problem = "both quote characters"
            elif "\n" in value or "\r" in value:
                problem = "a line break"
            else:
                continue
            message = f"column {name!r}: a value cannot hold {problem}: {value!r}"
            raise ParseError(reader.line_num, message)


def _infer_column(name, cells, string_columns, nominal_columns, ascii_text) -> AttributeSpec:
    if name in string_columns:
        return AttributeSpec.string(name)
    present = [c for c in cells if c is not None]
    if (
        name not in nominal_columns
        and all(_is_number(c) for c in present)
        and (ascii_text or all(c.isascii() for c in present))
    ):
        return AttributeSpec.numeric(name)
    domain: list[str] = []
    seen = set()
    for c in present:
        if c not in seen:
            seen.add(c)
            domain.append(c)
    if not domain:
        raise ParseError(1, f"column {name!r} has no observed values to build a nominal domain")
    return AttributeSpec.nominal(name, domain)


def _is_number(text: str) -> bool:
    """True for finite decimal text; ``float`` also takes "1_000", this does not."""
    if "_" in text:
        return False
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


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
