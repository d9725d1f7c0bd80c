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
block and the texts held at once stay bounded. The reader splits the
quote-free lines of a block with ``str.split``, transposes them, and maps
each column's raw texts to cells through a memo that lives across
blocks, so that stripping, the ``?`` test and conversion run once per
distinct text; lines with quotes go through a character scanner. The
writer formats each column of a block through the distinct cells it
holds. When a block holds an error, it is read again (or written again)
one row at a time, so that the error raised is the first in source order.
"""

from __future__ import annotations

import operator
from itertools import filterfalse

from .model import (
    NUMERIC,
    STRING,
    AttributeSpec,
    Cell,
    Dataset,
    SppamError,
    column_kernel,
    no_gc,
    text_blocks,
    text_cells,
)

_NUMERIC_TYPE_WORDS = {"numeric", "real", "integer"}
_QUOTE_WORTHY = frozenset(",'\"%{} \t")
READ_BLOCK_CELLS = 4096  # lines per block: this over the attribute count
# first characters of stripped lines that a plain block cannot hold:
# blank and comment lines are skipped, sparse rows are rejected
_NOT_PLAIN_HEADS = frozenset(("", "%", "{"))
_HEAD = operator.itemgetter(slice(None, 1))


class ParseError(SppamError):
    """Malformed input text; ``line`` is the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@no_gc
def parse_arff(text: str) -> Dataset:
    """Parse ARFF-style text into a Dataset.

    Schema order and record order match the file. A missing ``@RELATION``
    line yields the relation name "unnamed".
    """
    relation_name = "unnamed"
    schema: list[AttributeSpec] = []
    names_seen: set[str] = set()
    lines = text.splitlines()

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
            columns = _DataColumns(schema).read(lines, lineno)
            return Dataset(relation_name, tuple(schema), tuple(zip(*columns)))
        else:
            raise ParseError(lineno, f"unexpected content outside the data section: {line!r}")

    if not schema:
        raise ParseError(1, "no @ATTRIBUTE declarations found")
    raise ParseError(1, "missing @DATA line")


class _DataColumns:
    """The cell columns of a data section, read block by block."""

    def __init__(self, schema: list[AttributeSpec]):
        self.schema = schema
        self.columns: list[list[Cell]] = [[] for _ in schema]
        # per column: raw cell text -> cell, kept across blocks
        self.memos: list[dict[str, Cell]] = [{"?": None} for _ in schema]

    def read(self, lines: list[str], start: int) -> list[list[Cell]]:
        """Read ``lines[start:]``, whose first line is line ``start + 1``."""
        size = max(1, READ_BLOCK_CELLS // len(self.schema))
        for first in range(start, len(lines), size):
            block = lines[first:first + size]
            joined = "".join(block)
            if (
                "'" in joined
                or '"' in joined
                or not _NOT_PLAIN_HEADS.isdisjoint(map(_HEAD, map(str.lstrip, block)))
            ):
                self._add_mixed(block, first + 1)
            else:
                self._add_plain(block, range(first + 1, first + 1 + len(block)))
        return self.columns

    def _add_mixed(self, block: list[str], first_lineno: int) -> None:
        """Lines of any kind: runs of plain lines go through ``_add_plain``,
        the others are skipped or read one by one."""
        plain: list[str] = []
        linenos: list[int] = []
        for lineno, raw in enumerate(block, first_lineno):
            line = raw.strip()
            if not line or line[0] == "%":
                continue
            if line[0] != "{" and "'" not in line and '"' not in line:
                plain.append(line)
                linenos.append(lineno)
                continue
            if plain:
                self._add_plain(plain, linenos)
                plain, linenos = [], []
            for column, cell in zip(self.columns, _row_cells(line, lineno, self.schema)):
                column.append(cell)
        if plain:
            self._add_plain(plain, linenos)

    def _add_plain(self, lines: list[str], linenos) -> None:
        """Data lines without quotes, blank, comment or sparse lines."""
        rows = [line.split(",") for line in lines]
        if set(map(len, rows)) != {len(self.schema)}:
            _raise_first_error(lines, linenos, self.schema)
        for attr, column, memo, raws in zip(self.schema, self.columns, self.memos, zip(*rows)):
            new = list(filterfalse(memo.__contains__, dict.fromkeys(raws)))
            if new:
                stripped = list(map(str.strip, new))
                fresh = list(filterfalse(memo.__contains__, dict.fromkeys(stripped)))
                try:
                    memo.update(zip(fresh, text_cells(attr, fresh)))
                except ValueError:
                    _raise_first_error(lines, linenos, self.schema)
                memo.update(zip(new, map(memo.__getitem__, stripped)))
            column.extend(map(memo.__getitem__, raws))


def _row_cells(line: str, lineno: int, schema) -> list[Cell]:
    """The cells of one stripped, non-blank data line."""
    if line[0] == "{":
        raise ParseError(lineno, "sparse data rows ('{index value, ...}') are not supported")
    texts = _split_cells(line, lineno)
    if len(texts) != len(schema):
        raise ParseError(
            lineno, f"row has {len(texts)} values, schema has {len(schema)} attributes"
        )
    cells: list[Cell] = []
    for attr, text in zip(schema, texts):
        try:
            cells.extend([None] if text is None else text_cells(attr, (text,)))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return cells


def _raise_first_error(lines: list[str], linenos, schema) -> None:
    """Raise the ParseError of the first bad line among plain data lines
    known to hold one."""
    for line, lineno in zip(lines, linenos):
        _row_cells(line.strip(), lineno, schema)


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
    return "\n".join(lines) + "\n"


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
    if "\n" in text or "\r" in text:
        raise SppamError(f"cannot write a value containing a line break: {text!r}")
    if text == "" or text == "?" or not _QUOTE_WORTHY.isdisjoint(text):
        if "'" in text and '"' in text:
            raise SppamError(
                f"cannot quote a value containing both quote characters: {text!r}"
            )
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
        values = ["?" if text is None else text for text in _split_cells(remainder[1:-1], lineno)]
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


def _split_cells(line: str, lineno: int) -> list[str | None]:
    """Cell texts of one line, None for the missing marker: an unquoted
    '?' (a quoted '?' is a literal question mark). A line without quote
    characters is a plain comma split."""
    if "'" not in line and '"' not in line:
        return [None if (text := raw.strip()) == "?" else text for raw in line.split(",")]
    return _scan_cells(line, lineno)


def _scan_cells(line: str, lineno: int) -> list[str | None]:
    """``_split_cells`` for any line, one character at a time."""
    parts: list[str] = []
    current: list[str] = []
    quote: str | None = None
    for ch in line:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            current.append(ch)
            quote = ch
        elif ch == ",":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if quote:
        raise ParseError(lineno, "unterminated quoted value")
    parts.append("".join(current))
    return [_strip_quotes(part) for part in parts]


def _strip_quotes(raw: str) -> str | None:
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        inner = text[1:-1]
        if text[0] not in inner:
            return inner
    return None if text == "?" else text
