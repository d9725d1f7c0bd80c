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

The read contract of both formats lives here, for every layer to import:
the error types, ``unwritable`` (what no reader accepts, as no writer can
write it back), ``text_cells`` (which texts an attribute accepts) and
``TextColumns``, which builds each block's records as a reader reads it:
it alone strips the texts and reads the format's missing markers, and
hands the reader only the new stripped texts of a column to convert. A
reader collects the records of its blocks, or hands each block's records
to a fold (the CLI ``transform``'s) and keeps none.

``run_both`` runs two independent computations at once, the second in a
forked child, with the result, log records and exceptions of running them
in order, as it does where it may not fork (``may_fork``); ``compare`` and
the CLI ``transform`` split their work with it.
"""

from __future__ import annotations

import functools
import gc
import logging
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from itertools import filterfalse, repeat

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


class ParseError(SppamError):
    """Malformed input text; ``line`` is the 1-based source line number and
    ``path``, when a caller sets it, the file that held the text."""

    path: str | None = None

    def __init__(self, line: int, message: str):
        super().__init__(line, message)  # both, so that a pickled copy is rebuilt whole
        self.line = line

    def __str__(self) -> str:
        where = "" if self.path is None else f"{self.path}: "
        return f"{where}line {self.line}: {self.args[1]}"


# the characters at which str.splitlines, and so the ARFF reader, ends a line
LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def unwritable(text: str) -> str | None:
    """What no writer can write back in ``text``: "a line break" (any of
    ``LINE_BREAKS``), else "both quote characters", else None."""
    if not LINE_BREAKS.isdisjoint(text):
        return "a line break"
    if "'" in text and '"' in text:
        return "both quote characters"
    return None


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


def may_fork() -> bool:
    """Whether ``run_both`` forks, unless the fork fails: ``os.fork``
    exists, one thread runs (forking is unsafe beside others) and this
    process may use two CPUs or more, where ``os.sched_getaffinity`` says
    (on one, a child would only add its own cost)."""
    return (
        hasattr(os, "fork")
        and threading.active_count() == 1
        and (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) > 1)
    )


def run_both(first, second) -> tuple:
    """``(first(), second())``, with ``second`` run in a forked child while
    this process runs ``first`` where ``may_fork()``; in order elsewhere or
    when the fork fails. A spawned interpreter would import the package
    again, which costs more than the overlap saves on small inputs.

    The child's ``sppam`` log records are handled here after ``first``'s,
    then its exception, if any, is raised. An exception from ``first``
    kills the child; no child outlives the call.
    """
    if not may_fork():
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        return first(), second()
    if pid == 0:
        sent = False
        try:
            os.close(read_fd)
            records = _hold_log_records()
            try:
                payload = (True, second(), records)
            except BaseException as exc:
                payload = (False, exc, records)
            # imported only where a fork needs it, after the work, into memory it freed
            import pickle
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            sent = True
        finally:  # never flush inherited buffers nor return into the caller
            os._exit(0 if sent else 1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            result = first()
            import pickle  # as in the child

            data = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildProcessError(f"a forked child ended without a result (return code {code})")
    ok, value, records = pickle.loads(data)
    for record in records:
        logging.getLogger(record.name).handle(record)
    if not ok:
        raise value
    return result, value


def _hold_log_records() -> list[logging.LogRecord]:
    """In a forked child: keep every record of the ``sppam`` loggers in the
    list returned, and handle none of them."""
    records = []
    for name, logger in logging.root.manager.loggerDict.items():
        if isinstance(logger, logging.Logger) and name.partition(".")[0] == "sppam":
            logger.handle = records.append
    return records


class TextColumns:
    """The cells of a table read in blocks of rows of raw cell texts. Each
    distinct raw text of a column is stripped, and each distinct stripped
    text converted, once, in the block that first holds it, so that equal
    texts share one cell object. Per column, ``texts`` maps each stripped
    text to its cell: the format's ``missing`` markers to None, then the
    present texts in first-seen order."""

    def __init__(self, width: int, missing):
        self._cells: list[dict[str, Cell]] = [{} for _ in range(width)]
        self.texts: list[dict[str, Cell]] = [dict.fromkeys(missing) for _ in range(width)]

    def add(self, rows, convert) -> list[tuple[Cell, ...]]:
        """The records of a block of rows, each a list of ``width`` raw
        texts. The stripped texts of column ``j`` that no earlier block held
        go to ``convert(j, texts)`` in first-seen order, which returns their
        cells in that order; whatever it raises propagates."""
        columns = []
        for j, (cells, known, texts) in enumerate(zip(self._cells, self.texts, zip(*rows))):
            try:
                columns.append(list(map(cells.__getitem__, texts)))
            except KeyError:
                raw = list(dict.fromkeys(filterfalse(cells.__contains__, texts)))
                stripped = list(map(str.strip, raw))
                fresh = list(dict.fromkeys(filterfalse(known.__contains__, stripped)))
                known.update(zip(fresh, convert(j, fresh)))
                cells.update(zip(raw, map(known.__getitem__, stripped)))
                columns.append(list(map(cells.__getitem__, texts)))
        return list(zip(*columns))


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


def text_cells(attr: AttributeSpec, texts) -> list[Cell]:
    """The cell of each present, stripped cell text of ``attr``, in order.

    This is the one place that states which texts a reader accepts. A
    numeric text is ASCII, holds no ``_`` and reads as a finite ``float``
    (``float`` alone also takes "1_000" and non-ASCII digits); a nominal
    text is a value of the domain; a string text is itself. Raises
    ValueError naming the first text that breaks the rule; readers turn it
    into their own ParseError.
    """
    texts = list(texts)
    if attr.kind == STRING:
        return texts
    if attr.kind == NOMINAL:
        index = {value: i for i, value in enumerate(attr.values)}
        try:
            return list(map(index.__getitem__, texts))
        except KeyError as exc:
            raise ValueError(
                f"value {exc.args[0]!r} is not in the declared domain of attribute {attr.name!r}"
            ) from None
    joined = "".join(texts)
    if "_" not in joined and joined.isascii():
        try:
            numbers = list(map(float, texts))
        except ValueError:
            pass
        else:
            if all(map(math.isfinite, numbers)):
                return numbers
    numbers = []
    for text in texts:  # one at a time, to name the first bad text
        try:
            if "_" in text or not text.isascii():
                raise ValueError
            value = float(text)
        except ValueError:
            raise ValueError(
                f"unparseable numeric value {text!r} for attribute {attr.name!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"non-finite numeric value {text!r} for attribute {attr.name!r}")
        numbers.append(value)
    return numbers


def present_texts(render, column) -> list[str]:
    """``render(cell)`` for each present cell of ``column`` and "?" for each
    missing one, with one ``render`` call per distinct cell."""
    memo = dict.fromkeys(column)
    memo.pop(None, None)
    memo = dict(zip(memo, map(render, memo)))
    memo[None] = "?"
    return list(map(memo.__getitem__, column))


is_zero = functools.partial(operator.eq, 0.0)  # x == 0.0, which filter calls in C


def number_texts(column, decimals: int | None, memo: dict) -> list[str]:
    """``present_texts`` of a numeric column through ``format_number``.

    ``memo`` (cell -> text) carries the texts of earlier blocks of the same
    column, so that a value that recurs is formatted once. It is cleared
    when it holds more than twice ``len(column)`` cells, and it never keeps
    a zero, whose text depends on its sign.
    """
    if len(memo) > 2 * len(column):
        memo.clear()
    fresh = dict.fromkeys(filterfalse(memo.__contains__, column))
    fresh.pop(None, None)
    if decimals is None:  # format_number(x) is repr(float(x)); map it in C
        memo.update(zip(fresh, map(repr, map(float, fresh))))
    else:
        memo.update(zip(fresh, map(format_number, fresh, repeat(decimals))))
    memo[None] = "?"
    # -0.0 == 0.0 and both hash alike, so all zeros share the first one's text
    if 0.0 in memo and len(set(map(math.copysign, repeat(1.0), filter(is_zero, column)))) > 1:
        texts = [format_number(x, decimals) if x == 0.0 else memo[x] for x in column]
    else:
        texts = list(map(memo.__getitem__, column))
    memo.pop(0.0, None)
    return texts


def column_kernel(attr: AttributeSpec, decimals: int | None, render):
    """``column -> texts`` for the cells of ``attr``, as ``text_blocks``
    takes it: numbers through ``number_texts``; nominal values and strings
    as ``render`` gives their text, each nominal value rendered once."""
    if attr.kind == NUMERIC:
        return functools.partial(number_texts, decimals=decimals, memo={})
    if attr.kind == NOMINAL:
        return functools.partial(present_texts, tuple(map(render, attr.values)).__getitem__)
    return functools.partial(present_texts, render)


WRITE_BLOCK_CELLS = 20480  # records per block: this over the attribute count


def text_blocks(records, kernels):
    """The text rows of ``records``, one iterator of rows per block of
    records. Each column of a block goes through its ``kernel`` (such as
    ``number_texts``), which maps a column of cells to their texts. A block
    whose kernels raise SppamError or ValueError is redone one cell at a
    time, so that the error raised is that of the first bad cell in
    row-major order."""
    size = max(1, WRITE_BLOCK_CELLS // max(1, len(kernels)))
    for start in range(0, len(records), size):
        block = records[start:start + size]
        try:
            columns = [kernel(column) for kernel, column in zip(kernels, zip(*block))]
        except (SppamError, ValueError):
            for record in block:
                for kernel, cell in zip(kernels, record):
                    kernel((cell,))
            raise
        yield zip(*columns) if columns else [()] * len(block)  # a schema without attributes


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
