"""CSV ingestion with column type inference.

The first non-blank row is a header. A column is inferred Numeric when
every non-missing cell is a numeric text by the rule the ARFF reader
applies too (``model.text_cells``: finite ASCII decimal text without
digit-group underscores, so ``1_000`` and ``١٢`` do not count), Nominal
otherwise (domain = distinct values in first-seen order). Missing cells
are empty or ``?``.
Specific columns can be forced to String (typical for a grouping key or a
record id) or to Nominal (required for a class column whose values look
numeric). Quoting follows RFC-4180 conventions via the csv module. A
header name or cell that holds both quote characters, ``'`` and ``"``, or
a line break is a ParseError: the ARFF writer cannot write such a value.
A line break is any of ``arff.LINE_BREAKS``; ``\n`` and ``\r`` can only
stand inside a ``"``-quoted cell, the others anywhere, and those at a
cell's ends are stripped away. Every malformed input raises ParseError,
including what the csv module rejects (such as a field longer than its
131072-character limit).

``parse_csv`` reads the text through line chunks of about
``READ_CHUNK_CHARS`` characters, each ending after a line feed, and the
rows in blocks of ``READ_BLOCK_ROWS``; neither a copy of the whole text nor
a list of all rows is held. Each block goes into a ``model.TextColumns``,
the kernel the ARFF reader uses too, which keeps each column as
references to one ``str`` per distinct raw text. Once all rows are read,
it strips, classifies and converts each distinct cell text of a column
once, and equal texts share one cell object. ``write_csv`` writes blocks
of records, formatting each column of a block through its distinct
cells.
"""

from __future__ import annotations

import csv
import io
from itertools import islice

from .arff import LINE_BREAKS, ParseError
from .model import (
    AttributeSpec,
    Dataset,
    TextColumns,
    column_kernel,
    no_gc,
    text_blocks,
    text_cells,
)

_MISSING_TEXTS = ("", "?")
READ_BLOCK_ROWS = 2048  # rows held at a time while reading
READ_CHUNK_CHARS = 1 << 16  # characters per line chunk of the input text
_UNWRITABLE_SIGNS = ('"', *sorted(LINE_BREAKS - {"\n", "\r"}))


@no_gc
def parse_csv(
    text: str,
    string_columns=(),
    nominal_columns=(),
    relation_name: str = "unnamed",
) -> Dataset:
    """Parse CSV text into a Dataset, inferring a schema from the cells."""
    reader = csv.reader(_lines(text))
    try:
        header = next(filter(None, reader))  # blank lines read as []
    except StopIteration:
        raise ParseError(1, "empty CSV input") from None
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from None
    header_line = reader.line_num
    names = [h.strip() for h in header]
    if any(name == "" for name in names):
        raise ParseError(header_line, "empty header name")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ParseError(header_line, f"duplicate header names: {dupes}")
    for forced in (*string_columns, *nominal_columns):
        if forced not in names:
            raise ParseError(header_line, f"forced column {forced!r} is not in the header")

    width = len(names)
    table = TextColumns(width)
    while True:
        rows: list[list[str]] = []  # frees the previous block before the next is read
        read_error = None
        try:
            rows.extend(islice(reader, READ_BLOCK_ROWS))  # keeps the rows read before a csv.Error
        except csv.Error as exc:
            read_error = ParseError(reader.line_num, f"malformed CSV: {exc}")
        if not rows and read_error is None:
            break
        rows = list(filter(None, rows))  # blank lines read as []
        if set(map(len, rows)) - {width}:
            _reject_row_width(text, width)
        if read_error is not None:
            raise read_error
        table.add(rows)

    present = list(table.present(_MISSING_TEXTS))
    # a cell can hold both quotes, a \n or a \r only in a text with '"';
    # the other line breaks need no quotes
    if any(map(text.__contains__, _UNWRITABLE_SIGNS)) and (
        any(map(_unwritable, names)) or any(any(map(_unwritable, values)) for values in present)
    ):
        _reject_unwritable(text, names)

    inferred = [
        _infer_column(name, values, string_columns, nominal_columns, header_line)
        for name, values in zip(names, present)
    ]
    records = table.records(cells for _, cells in inferred)
    return Dataset(relation_name, tuple(attr for attr, _ in inferred), records)


def _lines(text: str):
    """The lines of ``text`` as ``iter(io.StringIO(text))`` yields them,
    read through a ``StringIO`` over one chunk of about
    ``READ_CHUNK_CHARS`` characters at a time that ends just after a
    line feed, so that no copy of the whole text is made."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + READ_CHUNK_CHARS - 1) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def _reject_row_width(text: str, width: int) -> None:
    """ParseError for the first non-blank row that is not ``width`` wide."""
    reader = csv.reader(_lines(text))
    next(filter(None, reader))  # the header
    for row in reader:
        if row and len(row) != width:
            raise ParseError(
                reader.line_num, f"row has {len(row)} values, header has {width} columns"
            )


def _unwritable(value: str) -> str | None:
    """What the ARFF writer cannot write in ``value``, or None."""
    if "'" in value and '"' in value:
        return "both quote characters"
    if not LINE_BREAKS.isdisjoint(value):
        return "a line break"
    return None


def _reject_unwritable(text: str, names) -> None:
    """ParseError for the first header name or cell holding both ' and " or
    a line break."""
    reader = csv.reader(_lines(text))
    for row in reader:
        for name, cell in zip(names, row):
            value = cell.strip()
            problem = _unwritable(value)
            if problem is not None:
                message = f"column {name!r}: a value cannot hold {problem}: {value!r}"
                raise ParseError(reader.line_num, message)


def _infer_column(name, values, string_columns, nominal_columns, header_line: int):
    """The column's AttributeSpec and the cell of each of its distinct
    present ``values``."""
    if name in string_columns:
        return AttributeSpec.string(name), dict(zip(values, values))
    if name not in nominal_columns:
        attr = AttributeSpec.numeric(name)
        try:
            return attr, dict(zip(values, text_cells(attr, values)))
        except ValueError:
            pass
    if not values:
        raise ParseError(
            header_line, f"column {name!r} has no observed values to build a nominal domain"
        )
    return AttributeSpec.nominal(name, values), dict(zip(values, range(len(values))))


def write_csv(dataset: Dataset, decimals: int | None = None) -> str:
    """Serialize a Dataset as CSV with a header row; missing renders as ?."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.attribute_names)
    kernels = [column_kernel(attr, decimals, str) for attr in dataset.schema]
    for rows in text_blocks(dataset.records, kernels):
        writer.writerows(rows)
    return out.getvalue()
