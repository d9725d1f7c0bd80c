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
header name or cell that holds a line break, else both quote characters
(``model.unwritable``), is a ParseError: the ARFF writer cannot write it.
A line break is any of ``model.LINE_BREAKS``; ``\n`` and ``\r`` can only
stand inside a ``"``-quoted cell, the others anywhere, and those at a
cell's ends are stripped away. Every malformed input raises ParseError,
including what the csv module rejects (such as a field longer than its
131072-character limit).

``parse_csv`` reads the text through line chunks of about
``READ_CHUNK_CHARS`` characters, each ending after a line feed, and the
rows in blocks of ``READ_BLOCK_ROWS``; neither a copy of the whole text nor
a list of all rows is held. A chunk without quotes, ``\r`` or NUL is split
with ``str.split``, which reads it as the csv module would; from the
first chunk that is not, the csv module reads the rest. Each block goes
into a ``model.TextColumns``, the kernel the ARFF reader uses too, which
builds the block's records as it is read: each distinct raw text of a
column is stripped and converted once, in the block that first holds it,
and equal texts share one cell object. A column is converted as numeric
until it meets a text that is not; it then turns nominal, at once if it
holds no number yet, else by reading the text again with the column
forced nominal (at most once per such column). The reader collects each
block's records, or hands them to a ``fold`` (the CLI ``transform``'s
``GroupFold``), which starts afresh at each read, and keeps none.
``write_csv`` writes blocks of records, formatting each column of a block
through its distinct cells.
"""

from __future__ import annotations

import csv
import io
from itertools import islice

from .model import (
    LINE_BREAKS,
    NOMINAL,
    NUMERIC,
    STRING,
    AttributeSpec,
    Cell,
    Dataset,
    ParseError,
    TextColumns,
    column_kernel,
    no_gc,
    text_blocks,
    text_cells,
    unwritable,
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
    fold=None,
) -> Dataset:
    """Parse CSV text into a Dataset, inferring a schema from the cells.

    ``fold``, when given, is called with the header names at the start of
    each read of the data rows, again whenever a column turns nominal late
    (so what it returns must start afresh); each block's records then go,
    in order, to the callable it returns, and the Dataset returned holds no
    records.
    """
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

    start = 0  # the data rows start after the header's last line
    for _ in range(header_line):
        start = text.find("\n", start) + 1 or len(text)
    kinds = [
        STRING if name in string_columns else NOMINAL if name in nominal_columns else NUMERIC
        for name in names
    ]
    texts = None
    while texts is None:  # once more for each column that turns nominal late
        records: list[tuple[Cell, ...]] = []
        consume = records.extend if fold is None else fold(names)
        texts = _read(text, start, header_line, names, kinds, consume)

    # a cell can hold both quotes, a \n or a \r only in a text with '"';
    # the other line breaks need no quotes
    if any(map(text.__contains__, _UNWRITABLE_SIGNS)) and (
        any(map(unwritable, names)) or any(any(map(unwritable, column)) for column in texts)
    ):
        _reject_unwritable(text, names)

    schema = []
    for name, kind, column in zip(names, kinds, texts):
        values = list(islice(column, len(_MISSING_TEXTS), None))
        if kind == NOMINAL and not values:
            raise ParseError(
                header_line, f"column {name!r} has no observed values to build a nominal domain"
            )
        schema.append(AttributeSpec(name, kind, values if kind == NOMINAL else ()))
    return Dataset("unnamed", tuple(schema), records)


def _read(text: str, start: int, line_num: int, names, kinds, consume):
    """Hand ``consume`` the records of each block of the data rows in
    ``text[start:]``, which ``line_num`` lines precede, and return per
    column its ``TextColumns.texts`` dict, whose keys are the missing
    markers and then its present texts in first-seen order. A STRING
    column's cell is its text, a NOMINAL one's the index of its text in
    that order, a NUMERIC one's its number.

    A NUMERIC column that meets a non-numeric text becomes NOMINAL in
    ``kinds``. If it held a number already, the records built so far are
    wrong: the result is then None, after the block that showed it, and the
    caller reads again."""
    width = len(names)
    table = TextColumns(width, _MISSING_TEXTS)
    late = False

    def convert(j, fresh):
        nonlocal late
        if kinds[j] == NUMERIC:
            try:
                return text_cells(AttributeSpec.numeric(names[j]), fresh)
            except ValueError:
                kinds[j] = NOMINAL
                late = late or len(table.texts[j]) > len(_MISSING_TEXTS)
        if kinds[j] == NOMINAL:
            size = len(table.texts[j]) - len(_MISSING_TEXTS)
            return range(size, size + len(fresh))
        return fresh

    for rows in _row_blocks(text, start, line_num):
        if set(map(len, rows)) - {width}:
            _reject_row_width(text, width)
        consume(table.add(rows, convert))
        if late:
            return None
        del rows  # frees this block's texts before the next block is split
    return table.texts


def _row_blocks(text: str, start: int, line_num: int):
    """The non-blank rows of ``text[start:]``, which ``line_num`` lines
    precede, in blocks of at most ``READ_BLOCK_ROWS`` rows.

    The text is read in the line chunks of ``_lines``. The lines of a
    chunk that holds no ``"``, ``\r`` or NUL (which the csv module of
    Python 3.10 refuses) and no line longer than ``csv.field_size_limit()``
    are split at each comma, which is what ``csv.reader`` makes of them.
    From the first chunk that does not qualify, ``csv.reader`` reads the
    rest; as every earlier chunk ended a line, it starts at a row. Its
    ``csv.Error`` is raised as a ParseError after the rows read before it
    are yielded.
    """
    size = READ_BLOCK_ROWS
    limit = csv.field_size_limit()
    while start < len(text):
        end = _chunk_end(text, start)
        chunk = text[start:end]
        if '"' in chunk or "\r" in chunk or "\0" in chunk:
            break
        lines = chunk.split("\n")
        if chunk[-1] == "\n":
            lines.pop()
        if len(chunk) > limit and max(map(len, lines), default=0) > limit:
            break
        line_num += len(lines)
        start = end
        rows = [row.split(",") for row in lines if row]  # blank lines are no rows
        del chunk, lines  # freed before the next chunk is read, as the rows are below
        for i in range(0, len(rows), size):
            yield rows[i:i + size]
        del rows
    reader = csv.reader(_lines(text, start))
    while True:
        rows = []
        try:
            rows.extend(islice(reader, size))  # keeps the rows read before a csv.Error
        except csv.Error as exc:
            yield list(filter(None, rows))
            raise ParseError(line_num + reader.line_num, f"malformed CSV: {exc}") from None
        if not rows:
            return
        yield list(filter(None, rows))  # blank lines read as []


def _chunk_end(text: str, start: int) -> int:
    """Where the line chunk of ``text`` that starts at ``start`` ends:
    just after the first line feed at least ``READ_CHUNK_CHARS``
    characters on, or at the end of the text."""
    return text.find("\n", start + READ_CHUNK_CHARS - 1) + 1 or len(text)


def _lines(text: str, start: int = 0):
    """The lines of ``text[start:]`` as ``iter(io.StringIO(text[start:]))``
    yields them, read through a ``StringIO`` over one line chunk at a
    time, so that no copy of the whole text is made."""
    while start < len(text):
        end = _chunk_end(text, start)
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


def _reject_unwritable(text: str, names) -> None:
    """ParseError for the first header name or cell that ``unwritable``
    refuses."""
    reader = csv.reader(_lines(text))
    for row in reader:
        for name, cell in zip(names, row):
            value = cell.strip()
            if (problem := unwritable(value)) is not None:
                message = f"column {name!r}: a value cannot hold {problem}: {value!r}"
                raise ParseError(reader.line_num, message)


def write_csv(dataset: Dataset, decimals: int | None = None) -> str:
    """Serialize a Dataset as CSV with a header row; missing renders as ?."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.attribute_names)
    kernels = [column_kernel(attr, decimals, str) for attr in dataset.schema]
    for rows in text_blocks(dataset.records, kernels):
        writer.writerows(rows)
    return out.getvalue()
