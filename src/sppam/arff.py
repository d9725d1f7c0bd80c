"""Parsing and writing of the ARFF-style text format.

The accepted layout is an optional ``@RELATION`` line, one or more
``@ATTRIBUTE`` declarations, a ``@DATA`` line, then comma-separated value
rows. Keywords are matched case-insensitively, ``%`` starts a comment
line, ``?`` is the missing-value marker and cell text may be quoted with
single or double quotes when it contains commas or whitespace. Files are
UTF-8 text. Numeric cells take ASCII decimal text as ``float`` reads it,
minus digit-group underscores (``1_000`` is an error) and non-ASCII
digits (``١٢٣`` is an error); sparse ``{...}`` data rows are not
supported.
"""

from __future__ import annotations

import math

from .model import (
    NOMINAL,
    NUMERIC,
    STRING,
    AttributeSpec,
    Cell,
    Dataset,
    SppamError,
    format_number,
    no_gc,
)

_NUMERIC_TYPE_WORDS = {"numeric", "real", "integer"}
_QUOTE_WORTHY = set(",'\"%{} \t")


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
    records: list[tuple[Cell, ...]] = []
    converters: list = []
    in_data = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if not in_data and _keyword_rest(line, lowered, "@relation") is not None:
            if schema:
                raise ParseError(lineno, "@RELATION must come before attribute declarations")
            rest = _keyword_rest(line, lowered, "@relation").strip()
            relation_name = _unquote(rest) if rest else "unnamed"
        elif not in_data and _keyword_rest(line, lowered, "@attribute") is not None:
            attr = _parse_attribute(_keyword_rest(line, lowered, "@attribute"), lineno)
            if attr.name in names_seen:
                raise ParseError(lineno, f"duplicate attribute name {attr.name!r}")
            names_seen.add(attr.name)
            schema.append(attr)
        elif not in_data and lowered == "@data":
            if not schema:
                raise ParseError(lineno, "@DATA before any @ATTRIBUTE declaration")
            in_data = True
            ascii_text = text.isascii()
            converters = [_cell_converter(attr, ascii_text) for attr in schema]
        elif in_data:
            records.append(_parse_row(line, converters, lineno))
        else:
            raise ParseError(lineno, f"unexpected content outside the data section: {line!r}")

    if not schema:
        raise ParseError(1, "no @ATTRIBUTE declarations found")
    if not in_data:
        raise ParseError(1, "missing @DATA line")
    return Dataset(relation_name, tuple(schema), tuple(records))


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
    for record in dataset.records:
        lines.append(format_data_row(dataset.schema, record, decimals))
    return "\n".join(lines) + "\n"


def format_data_row(schema, record, decimals: int | None = None) -> str:
    cells = []
    for attr, cell in zip(schema, record):
        if cell is None:
            cells.append("?")
        elif attr.kind == NUMERIC:
            cells.append(format_number(cell, decimals))
        elif attr.kind == NOMINAL:
            cells.append(_quote_if_needed(attr.values[cell]))
        else:
            cells.append(_quote_if_needed(cell))
    return ",".join(cells)


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
    if text == "" or text == "?" or any(c in _QUOTE_WORTHY for c in text):
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
        values = split_values(remainder[1:-1], lineno)
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


def split_values(line: str, lineno: int) -> list[str]:
    """Split a comma-separated value list, honouring ' and \" quoting.

    Whitespace around separators is trimmed; quoted values keep embedded
    commas and spaces.
    """
    return ["?" if text is None else text for text in _split_cells(line, lineno)]


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


def _parse_row(line: str, converters, lineno: int) -> tuple[Cell, ...]:
    """One data line; ``converters`` holds one ``_cell_converter`` per
    attribute."""
    if line[0] == "{":
        raise ParseError(lineno, "sparse data rows ('{index value, ...}') are not supported")
    cells = _split_cells(line, lineno)
    if len(cells) != len(converters):
        raise ParseError(
            lineno,
            f"row has {len(cells)} values, schema has {len(converters)} attributes",
        )
    return tuple([
        None if text is None else convert(text, lineno)
        for convert, text in zip(converters, cells)
    ])


def _cell_converter(attr: AttributeSpec, ascii_text: bool):
    """``(text, lineno) -> cell`` for one present cell of ``attr``, decided
    once per attribute. Numeric cells of a text that is not all ASCII are
    checked one by one, because ``float`` also reads non-ASCII digits."""
    if attr.kind == NUMERIC:
        def convert(text: str, lineno: int) -> float:
            try:
                # float() takes digit-group underscores and non-ASCII digits
                if "_" in text or not (ascii_text or text.isascii()):
                    raise ValueError
                value = float(text)
            except ValueError:
                raise ParseError(
                    lineno, f"unparseable numeric value {text!r} for attribute {attr.name!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    lineno, f"non-finite numeric value {text!r} for attribute {attr.name!r}"
                )
            return value
    elif attr.kind == NOMINAL:
        index = {value: i for i, value in enumerate(attr.values)}

        def convert(text: str, lineno: int) -> int:
            try:
                return index[text]
            except KeyError:
                raise ParseError(
                    lineno,
                    f"value {text!r} is not in the declared domain of attribute {attr.name!r}",
                ) from None
    else:
        def convert(text: str, lineno: int) -> str:
            return text
    return convert
