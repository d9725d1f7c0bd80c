"""Parsing and writing of the ARFF-style text format.

The accepted layout is an optional ``@RELATION`` line, one or more
``@ATTRIBUTE`` declarations, a ``@DATA`` line, then comma-separated value
rows. Keywords are matched case-insensitively, ``%`` starts a comment
line, ``?`` is the missing-value marker and cell text may be quoted with
single or double quotes when it contains commas or whitespace. Files are
UTF-8 text. Which cell texts an attribute accepts is stated once, in
``model.text_cells``, for this reader and the CSV reader alike; sparse
``{...}`` data rows are not supported.

Both directions work on blocks of rows, one column at a time; a block
holds about a fixed number of cells, so wide files get fewer rows per
block and the texts held at once stay bounded. The reader splits the text
into lines one chunk of about ``READ_CHUNK_CHARS`` characters at a time,
each chunk ending just after a line break, so that no line break straddles
two chunks and neither a list of every line nor a copy of the text is
held. It skips blank and comment lines and splits every other data line
into its raw cell texts, padding and quotes kept: ``str.split`` for a line
without quotes, a character scanner otherwise. ``model.TextColumns``
builds each block's records as it is read, stripping each distinct raw
text of a column once and handing its new stripped texts to
``_column_cells``, which unquotes and converts them, so that reading stops
at the first block with a bad text. The reader collects each block's
records, or hands them to a ``fold`` (the CLI ``transform``'s
``GroupFold``) and keeps none. A bare ``?`` is missing, a quoted ``'?'``
is the text "?". When anything fails (a row of the wrong width, a sparse
row, an open quote, a text its attribute refuses), the whole text is
split into lines, each block is read again on its own and the lines of
the first block that fails one at a time, so that the ParseError raised
is the first in source order and names the leftmost bad cell of its line.

The writer formats each column of a block through the distinct cells it
holds, and redoes a block one cell at a time when it holds an error. It
quotes a text that is empty, is ``?``, or holds one of ``,'"%{}`` or any
character ``str.isspace`` accepts, so that the text reads back as
written. It refuses a text that ``model.unwritable`` names: one that
holds any of ``LINE_BREAKS``, the characters at which ``str.splitlines``,
and so this reader, ends a line, or both quote characters.
"""

from __future__ import annotations

import re
from itertools import islice

from .model import (
    LINE_BREAKS,  # also arff.LINE_BREAKS, where this reader ends a line
    NUMERIC,
    STRING,
    AttributeSpec,
    Cell,
    Dataset,
    ParseError,
    SppamError,
    TextColumns,
    column_kernel,
    no_gc,
    text_blocks,
    text_cells,
    unwritable,
)

_NUMERIC_TYPE_WORDS = {"numeric", "real", "integer"}
_QUOTE_WORTHY = frozenset(",'\"%{}")  # and every character str.isspace accepts
READ_BLOCK_CELLS = 4096  # lines per block: this over the attribute count
READ_CHUNK_CHARS = 1 << 16  # characters per line chunk of the input text
_CHUNK_END = re.compile("\r\n|[" + "".join(sorted(LINE_BREAKS)) + "]")  # never inside a \r\n


@no_gc
def parse_arff(text: str, fold=None) -> Dataset:
    """Parse ARFF-style text into a Dataset.

    Schema order and record order match the file. A missing ``@RELATION``
    line yields the relation name "unnamed".

    ``fold``, when given, is called with the attribute names once the
    schema is read; each block's records then go, in order, to the
    callable it returns, and the Dataset returned holds no records.
    """
    relation_name = "unnamed"
    schema: list[AttributeSpec] = []
    names_seen: set[str] = set()
    lines = _lines(text)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if (rest := _keyword_rest(line, lowered, "@relation")) is not None:
            if schema:
                raise ParseError(lineno, "@RELATION must come before attribute declarations")
            rest = rest.strip()
            relation_name = _unquote(rest) if rest else "unnamed"
        elif (rest := _keyword_rest(line, lowered, "@attribute")) is not None:
            attr = _parse_attribute(rest, lineno)
            if attr.name in names_seen:
                raise ParseError(lineno, f"duplicate attribute name {attr.name!r}")
            names_seen.add(attr.name)
            schema.append(attr)
        elif lowered == "@data":
            if not schema:
                raise ParseError(lineno, "@DATA before any @ATTRIBUTE declaration")
            size = max(1, READ_BLOCK_CELLS // len(schema))
            records: list[tuple[Cell, ...]] = []
            consume = records.extend if fold is None else fold([a.name for a in schema])
            try:
                _records(iter(lambda: list(islice(lines, size)), []), schema, consume)
            except ValueError:
                every = text.splitlines()  # only to name the first bad line
                _locate(every, lineno, len(every), schema, size)
                raise
            return Dataset(relation_name, tuple(schema), records)
        else:
            raise ParseError(lineno, f"unexpected content outside the data section: {line!r}")

    if not schema:
        raise ParseError(1, "no @ATTRIBUTE declarations found")
    raise ParseError(1, "missing @DATA line")


def _lines(text: str):
    """The lines of ``text`` as ``text.splitlines()`` gives them, split one
    line chunk at a time, each ending just after a line break."""
    start = 0
    while start < len(text):
        found = _CHUNK_END.search(text, start + READ_CHUNK_CHARS - 1)
        end = found.end() if found else len(text)
        yield from text[start:end].splitlines()
        start = end


def _drop(records) -> None:
    """A consumer of blocks of records that keeps none of them."""


def _locate(
    lines: list[str], first: int, stop: int, schema: list[AttributeSpec], size: int
) -> None:
    """Raise the ParseError of the first bad line among the data lines
    ``lines[first:stop]``, the first of which is line ``first + 1``: each
    block of ``size`` lines is read again on its own, its records dropped,
    and the lines of the first block that fails one at a time. An error
    belongs to one line, so the first bad line in source order is named."""
    for i in range(first, stop, size):
        try:
            _records([lines[i:min(i + size, stop)]], schema)
        except ValueError as exc:
            if size == 1:
                raise ParseError(i + 1, str(exc)) from None
            _locate(lines, i, min(i + size, stop), schema, 1)


def _records(blocks, schema: list[AttributeSpec], consume=_drop) -> None:
    """Hand ``consume`` the records of each of the blocks of data lines in
    turn. Blank and comment lines are skipped, every other line is split
    into raw cell texts, and each block's records are built as it is read,
    each distinct text of a column stripped, unquoted and converted once,
    in the block that first holds it. Raises ValueError naming a problem as
    soon as a block has one: for a one-line block, the leftmost in its
    line."""
    table = TextColumns(len(schema), ("?",))  # a quoted '?' keeps its quotes till _column_cells
    for block in blocks:
        lines = [line for line in filter(None, map(str.strip, block)) if line[0] != "%"]
        if "{" in "".join(line[0] for line in lines):
            raise ValueError("sparse data rows ('{index value, ...}') are not supported")
        rows = list(map(_raw_cells, lines))
        if widths := set(map(len, rows)) - {len(schema)}:
            raise ValueError(f"row has {min(widths)} values, schema has {len(schema)} attributes")
        consume(table.add(rows, lambda j, texts: _column_cells(schema[j], texts)))
        del rows  # frees this block's texts before the next block is split


def _column_cells(attr: AttributeSpec, texts) -> list[Cell]:
    """The cell of each present, stripped cell text of ``attr``, unquoted
    and converted by ``text_cells``, whose ValueError it raises."""
    joined = "".join(texts)
    return text_cells(attr, map(_strip_quotes, texts) if "'" in joined or '"' in joined else texts)


def write_arff(dataset: Dataset, decimals: int | None = None) -> str:
    """Serialize a Dataset back to ARFF-style text.

    Numeric cells honour ``decimals`` (see ``format_number``); with
    ``decimals`` unset, ``parse_arff(write_arff(d))`` reproduces ``d``
    exactly. The relation line is omitted for the default name "unnamed"
    so that such datasets round-trip without growing a header.
    """
    lines: list[str] = []
    if dataset.relation_name != "unnamed":
        lines.append(f"@RELATION {_quote_if_needed(dataset.relation_name)}")
    for attr in dataset.schema:
        lines.append(f"@ATTRIBUTE {_quote_if_needed(attr.name)} {_type_text(attr)}")
    lines.append("@DATA")
    kernels = [column_kernel(attr, decimals, _quote_if_needed) for attr in dataset.schema]
    for rows in text_blocks(dataset.records, kernels):
        lines.append("\n".join(map(",".join, rows)))
    lines.append("")  # the final line break, without a second copy of the text
    return "\n".join(lines)


def _keyword_rest(line: str, lowered: str, keyword: str) -> str | None:
    """Text after a header keyword, or None if the keyword doesn't match
    at a word boundary."""
    if not lowered.startswith(keyword):
        return None
    rest = line[len(keyword):]
    if rest and not rest[0].isspace():
        return None
    return rest


def _type_text(attr: AttributeSpec) -> str:
    if attr.kind == NUMERIC:
        return "NUMERIC"
    if attr.kind == STRING:
        return "STRING"
    return "{" + ", ".join(_quote_if_needed(v) for v in attr.values) + "}"


def _quote_if_needed(text: str) -> str:
    if (problem := unwritable(text)) is not None:
        raise SppamError(f"cannot write a value containing {problem}: {text!r}")
    if text == "?" or text.split() != [text] or not _QUOTE_WORTHY.isdisjoint(text):
        quote = "'" if "'" not in text else '"'
        return f"{quote}{text}{quote}"
    return text


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _parse_attribute(rest: str, lineno: int) -> AttributeSpec:
    rest = rest.strip()
    if not rest:
        raise ParseError(lineno, "malformed attribute declaration: missing name")
    name, remainder = _take_token(rest)
    remainder = remainder.strip()
    if not name or not remainder:
        raise ParseError(lineno, "malformed attribute declaration: expected a name and a type")
    if remainder.startswith("{"):
        if not remainder.endswith("}"):
            raise ParseError(lineno, "malformed nominal domain: missing closing '}'")
        try:
            raws = _raw_cells(remainder[1:-1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        values = [_strip_quotes(raw.strip()) for raw in raws]
        if not values or any(v == "" for v in values):
            raise ParseError(lineno, "malformed nominal domain: empty value")
        if len(set(values)) != len(values):
            raise ParseError(lineno, f"duplicate nominal value in attribute {name!r}")
        return AttributeSpec.nominal(name, values)
    type_word = remainder.lower()
    if type_word in _NUMERIC_TYPE_WORDS:
        return AttributeSpec.numeric(name)
    if type_word == "string":
        return AttributeSpec.string(name)
    raise ParseError(lineno, f"unsupported attribute type {remainder!r}")


def _take_token(text: str) -> tuple[str, str]:
    """Split off one (possibly quoted) leading token."""
    if text[0] in "'\"":
        quote = text[0]
        end = text.find(quote, 1)
        if end < 0:
            return text[1:], ""
        return text[1:end], text[end + 1:]
    parts = text.split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


def _raw_cells(line: str) -> list[str]:
    """The raw cell texts of ``line``, split at each comma outside quotes,
    with their padding and quotes kept. Raises ValueError for an
    unterminated quote."""
    if "'" not in line and '"' not in line:
        return line.split(",")
    parts: list[str] = []
    current: list[str] = []
    quote: str | None = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == ",":
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if quote:
        raise ValueError("unterminated quoted value")
    parts.append("".join(current))
    return parts


def _strip_quotes(text: str) -> str:
    """A stripped cell text without the quotes around it, if it has them
    and they do not recur inside it."""
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        inner = text[1:-1]
        if text[0] not in inner:
            return inner
    return text
