"""In-memory representation of tabular datasets.

A dataset is an ordered schema of typed attributes plus an ordered list of
records. Cell values are stored as plain Python objects:

* numeric attribute  -> finite ``float``
* nominal attribute  -> ``int`` index into the attribute's declared domain
* string attribute   -> ``str``
* missing value      -> ``None``

Record order is preserved verbatim from the source and is semantically
meaningful: "last" aggregates are defined by it. Datasets and attribute
specs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass, field

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"

Cell = float | int | str | None


class SppamError(Exception):
    """Base class for errors raised by this package."""


class DatasetError(SppamError):
    """A dataset or schema violates a structural invariant."""


class ConfigError(SppamError):
    """A transform/evaluation configuration does not fit the dataset."""


@dataclass(frozen=True)
class AttributeSpec:
    """One column: a name plus a kind (numeric, nominal or string).

    Nominal attributes carry their value domain in declaration order; the
    domain order is what fixes the order of derived frequency columns.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL, STRING):
            raise DatasetError(f"unknown attribute kind: {self.kind!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind == NOMINAL:
            if not self.values:
                raise DatasetError(f"nominal attribute {self.name!r} has an empty domain")
            if len(set(self.values)) != len(self.values):
                raise DatasetError(f"nominal attribute {self.name!r} has duplicate domain values")
        elif self.values:
            raise DatasetError(f"{self.kind} attribute {self.name!r} cannot declare a value domain")

    @classmethod
    def numeric(cls, name: str) -> AttributeSpec:
        return cls(name, NUMERIC)

    @classmethod
    def nominal(cls, name: str, values) -> AttributeSpec:
        return cls(name, NOMINAL, tuple(values))

    @classmethod
    def string(cls, name: str) -> AttributeSpec:
        return cls(name, STRING)


@dataclass(frozen=True)
class Dataset:
    """An ordered schema plus ordered records of typed cell values."""

    relation_name: str
    schema: tuple[AttributeSpec, ...]
    records: tuple[tuple[Cell, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "records", tuple(map(tuple, self.records)))
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DatasetError(f"duplicate attribute names in schema: {dupes}")
        width = len(self.schema)
        if set(map(len, self.records)) - {width}:
            for i, record in enumerate(self.records):
                if len(record) != width:
                    raise DatasetError(
                        f"record {i} has {len(record)} values, schema has {width} attributes"
                    )

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self.schema]

    def attribute_index(self, name: str) -> int:
        for i, attr in enumerate(self.schema):
            if attr.name == name:
                return i
        raise DatasetError(f"no attribute named {name!r}")

    def attribute(self, name: str) -> AttributeSpec:
        return self.schema[self.attribute_index(name)]

    def column(self, name: str) -> list[Cell]:
        j = self.attribute_index(name)
        return [record[j] for record in self.records]

    def replace_records(self, records) -> Dataset:
        return Dataset(self.relation_name, self.schema, tuple(records))


def no_gc(function):
    """Decorate ``function`` to run with the cyclic garbage collector paused
    and its prior state restored on return or raise. For builders of
    O(records) containers that hold no reference cycles, which the
    collector would otherwise scan again and again while they grow."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def float_mean(values) -> float:
    """``math.fsum(values) / len(values)``, or where that sum overflows,
    the mean of the values scaled down by a power of two >= 2 * len (so
    the sum stays below half the largest float), scaled back and kept
    within [min, max]: the mean of finite values is finite."""
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        scale = float(1 << (2 * n).bit_length())
        mean = math.fsum(v / scale for v in values) / n * scale
        return min(max(mean, min(values)), max(values))


def cell_text(attr: AttributeSpec, cell: Cell) -> str | None:
    """Render a cell as plain text; None stays None (missing)."""
    if cell is None:
        return None
    if attr.kind == NOMINAL:
        return attr.values[cell]
    if attr.kind == NUMERIC:
        return format_number(float(cell))
    return cell


def format_number(x: float, decimals: int | None = None) -> str:
    """Base-10 text of a float.

    With ``decimals`` unset, the shortest decimal text that parses back to
    the same float (``repr``). With ``decimals`` set (0 or more), those
    shortest round-trip digits are rounded half-up (ties away from zero)
    at that many fractional digits, at any magnitude, and trailing zeros
    are trimmed, always keeping at least one fractional digit: 25 renders
    as "25.0", 14.125 at two decimals as "14.13" and 1e30 as "1" followed
    by 30 zeros and ".0". Rounding a value to zero keeps its sign
    ("-0.0"). Raises ValueError for a negative ``decimals`` or a
    non-finite ``x``.
    """
    text = repr(float(x))
    if decimals is None:
        return text
    if decimals < 0:
        raise ValueError(f"decimals must be 0 or more, got {decimals}")
    if "e" in text:
        text = _positional(text)
    point = text.find(".")
    if point < 0:  # only "inf" and "nan" have no point
        raise ValueError(f"cannot round the non-finite value {x!r}")
    end = point + 1 + decimals
    if len(text) <= end:
        # repr's fractional digits never end in 0, except in "25.0"
        return text
    if text[end] < "5":
        text = text[:end]
    else:
        sign = "-" if text[0] == "-" else ""
        digits = text[len(sign):point] + text[point + 1:end]
        digits = str(int(digits) + 1).zfill(len(digits))
        cut = len(digits) - decimals
        text = f"{sign}{digits[:cut]}.{digits[cut:]}"
    text = text.rstrip("0")
    return text + "0" if text[-1] == "." else text


def _positional(text: str) -> str:
    """Expand an exponent-form repr: "-1.5e-07" -> "-0.00000015",
    "1e+16" -> "10000000000000000.0"."""
    sign = "-" if text[0] == "-" else ""
    mantissa, _, exponent = text[len(sign):].partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = whole + frac
    point = len(whole) + int(exponent)
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    if point >= len(digits):
        return f"{sign}{digits}{'0' * (point - len(digits))}.0"
    return f"{sign}{digits[:point]}.{digits[point:]}"
