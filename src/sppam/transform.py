"""SPPAM: consolidate groups of correlated records into one record each.

Records sharing a pivot value (same day, same patient, same location) are
collapsed to a single output record. Per non-class attribute the output
carries, depending on type:

* numeric  -> ``<name>_MAX``, ``<name>_MIN``, ``<name>_AVG``, ``<name>_LAST``
* nominal  -> one ``<name>_<value>_PERC`` percentage column per domain
              value (domain order) plus a nominal ``<name>_LAST``
* string   -> the column unchanged, carrying the group's last value

The class attribute is appended last, unchanged, holding the group's most
recent class value. "Last" always means the final non-missing value in
source record order; the transform never sorts (an explicit pre-sort is
available via ``sort_records``).

Missing values are excluded from max/min/avg and from both the numerator
and denominator of the percentage columns; a group with no observed value
for an attribute yields missing output cells.

``_plan`` is the one statement of this rule: per non-class attribute, its
output attributes, which ``derive_output_schema`` reads, and its aggregate
(``aggregate_numeric``, ``aggregate_nominal`` or the "last" of strings and
the class), which maps one column of a group in source order to that
column's output cells. Records share a group when the writers give their
pivot cells one text (``_pivot_keys``).

A ``GroupFold`` takes blocks of records and keeps, per group, the cells of
its latest records in one flat, row-major list, and from
``COMPACT_RECORDS`` records on, the running state that every aggregate
can be merged from (max, min, count, exact sum and last of a numeric
column; counts and last of a nominal one; last of a string), so that a
group holds a bounded number of cells whatever its length. The readers
hand it each block as they read it, so the CLI never holds the input's
records. ``take_groups`` hands the lists and states over and the fold
forgets them. ``_aggregate``, the one kernel, reads each output cell from
a column slice of those lists, after the column's state where there is
one; equal percents of a transform share one float, as equal input texts
share one cell. ``transform`` folds a dataset's records as one block,
returns the output records and runs in the calling process.
``transform_text``, which the CLI uses, returns the written text of the
same output as its parts in order, and aggregates and writes the second
half of the groups in a forked child (``model.run_both``), which sends
back only its text. Once forked, the parent holds the cells of its own
half alone, and each half drops its cells once they are aggregated,
before it writes.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, repeat

from .model import (
    NOMINAL,
    NUMERIC,
    AttributeSpec,
    ConfigError,
    Dataset,
    SppamError,
    column_kernel,
    exact_sum,
    float_mean,
    is_zero,
    mean_of_sum,
    may_fork,
    no_gc,
    run_both,
)


log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransformConfig:
    """Names driving the transform: grouping key, class, optional record id."""

    pivot_attribute: str
    class_attribute: str
    id_attribute: str | None = None

    def resolve(self, schema: tuple[AttributeSpec, ...]) -> tuple[int, int]:
        """Validate against a schema; returns (pivot_index, class_index)."""
        names = [a.name for a in schema]
        for label, name in self._named():
            if name not in names:
                raise ConfigError(f"{label} attribute {name!r} is not in the schema")
        distinct = {name for _, name in self._named()}
        if len(distinct) != len(self._named()):
            raise ConfigError("pivot, class and id attributes must be distinct")
        class_index = names.index(self.class_attribute)
        if schema[class_index].kind != NOMINAL:
            raise ConfigError(
                f"class attribute {self.class_attribute!r} must be nominal, "
                f"got {schema[class_index].kind}"
            )
        return names.index(self.pivot_attribute), class_index

    def _named(self) -> list[tuple[str, str]]:
        named = [("pivot", self.pivot_attribute), ("class", self.class_attribute)]
        if self.id_attribute is not None:
            named.append(("id", self.id_attribute))
        return named


@dataclass(frozen=True)
class Group:
    """Records sharing one pivot value, in source order."""

    key: str
    member_indices: tuple[int, ...]


def derive_output_schema(
    schema: tuple[AttributeSpec, ...], config: TransformConfig
) -> tuple[AttributeSpec, ...]:
    """Output schema for a transform, in original attribute order.

    The class attribute moves to the end; every other attribute expands
    according to its type. Always has exactly ``attribute_count`` entries.
    """
    _, class_index = config.resolve(tuple(schema))
    out = [attr for _, outputs, _ in _plan(schema, class_index) for attr in outputs]
    out.append(schema[class_index])
    names = [a.name for a in out]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"derived schema has colliding attribute names: {dupes}")
    return tuple(out)


def attribute_count(schema: tuple[AttributeSpec, ...], config: TransformConfig) -> int:
    """Closed-form size of the derived schema.

    1 (class) + #strings + 4 * #numerics + sum over non-class nominals of
    (domain size + 1).
    """
    _, class_index = config.resolve(tuple(schema))
    total = 1
    for j, attr in enumerate(schema):
        if j == class_index:
            continue
        if attr.kind == NUMERIC:
            total += 4
        elif attr.kind == NOMINAL:
            total += len(attr.values) + 1
        else:
            total += 1
    return total


def _pivot_keys(cells: list) -> list:
    """The group key of each pivot cell (None for a missing one): the cell
    itself, so that cells share a key exactly when the writers give them
    one text, except that a negative zero, equal to 0.0 but written
    "-0.0", gets that text as a key of its own."""
    if 0.0 in cells and -1.0 in map(math.copysign, repeat(1.0), filter(is_zero, cells)):
        return ["-0.0" if cell == 0.0 and math.copysign(1.0, cell) < 0 else cell for cell in cells]
    return cells


def group_records(dataset: Dataset, pivot_attribute: str) -> list[Group]:
    """Partition record indices by pivot value, equality on exact text.

    Groups are ordered by first appearance; members keep source order.
    """
    pivot_index = dataset.attribute_index(pivot_attribute)
    cells = [record[pivot_index] for record in dataset.records]
    keys = _pivot_keys(cells)
    if None in keys:
        raise ConfigError(f"record {keys.index(None)}: missing pivot value")
    members: dict = {}
    for i, key in enumerate(keys):
        bucket = members.get(key)
        if bucket is None:
            members[key] = [i]
        else:
            bucket.append(i)
    render = column_kernel(dataset.schema[pivot_index], None, str)
    texts = render([cells[idx[0]] for idx in members.values()])
    return [Group(text, tuple(idx)) for text, idx in zip(texts, members.values())]


COMPACT_RECORDS = 256  # records of a group's cells held before they fold into its state
WRITE_SLICE_CHARS = 1 << 16  # characters of output text sent or encoded at a time


class GroupFold:
    """Blocks of records folded into their pivot groups, groups in
    first-appearance order. Each group holds the cells of its latest
    records in one flat, row-major list, without a record tuple or an index
    per record. After each block, the list of a group that this block
    brought to ``COMPACT_RECORDS`` records or more is folded into the
    group's running state (``_fold_column`` per column, by its kind) and
    cleared, so a group holds a few values per column and fewer cells than
    that beyond the block being read. ``start`` is the ``fold`` that
    ``parse_arff`` and ``parse_csv`` take."""

    def __init__(self, pivot_attribute: str):
        self.pivot_attribute = pivot_attribute
        self.start(())  # nothing folded yet

    def start(self, names, kinds=None):
        """Forget what was folded. Returns the callable that folds each
        block of records whose attributes are ``names``; with no pivot
        among them it folds nothing, as ``TransformConfig.resolve`` then
        refuses the dataset. ``kinds``, the kind of each attribute, which
        the caller may update in place while a column holds no value yet,
        picks the running state of each column; without it the fold holds
        every cell."""
        self._cells = defaultdict(list)
        self._states: dict = {}  # of the groups whose cells were folded away alone
        self._kinds = kinds
        self._width = len(names)
        self._records = 0
        self._missing = None  # the first record without a pivot value
        if self.pivot_attribute not in names:
            return lambda records: None
        pivot = operator.itemgetter(names.index(self.pivot_attribute))
        return functools.partial(self._fold, pivot)

    def fold_dataset(self, dataset: Dataset) -> GroupFold:
        """This fold, holding ``dataset``'s records alone, as one block:
        every cell is held already, so none is folded into a state."""
        self.start(dataset.attribute_names)(dataset.records)
        return self

    def _fold(self, pivot, records) -> None:
        keys = _pivot_keys(list(map(pivot, records)))
        if self._missing is None and None in keys:
            self._missing = self._records + keys.index(None)
        self._records += len(keys)
        groups = self._cells
        # each record's cells onto its group's list, with no loop in Python
        deque(map(list.extend, map(groups.__getitem__, keys), records), 0)
        if self._kinds is None:
            return
        # once per block: only a group that this block added to can be due
        added = groups.keys() if len(groups) <= len(keys) else set(keys)
        limit = COMPACT_RECORDS * self._width
        if max(map(len, map(groups.__getitem__, added)), default=0) >= limit:
            state_of = [_STATE_OF.get(kind, _last_state) for kind in self._kinds]
            for key in [key for key in added if len(groups[key]) >= limit]:
                self._states[key] = _compact(groups[key], state_of, self._states.get(key))

    def has_value(self, j: int) -> bool:
        """Whether column j holds a value in any folded record."""
        width = self._width
        return any(state[j] for state in self._states.values()) or any(
            cell is not None for cells in self._cells.values() for cell in cells[j::width]
        )

    def take_groups(self, schema: tuple[AttributeSpec, ...]) -> list[tuple[str, list, list | None]]:
        """``(key text, cells, state)`` of each group, in order, for the
        folded records of ``schema``: the cells of its latest records, and
        the running state of each column of the records before them, or
        None where its cells were never folded away. The fold then forgets
        them, so that the list returned holds the only reference to the
        cells. ConfigError if a record had no pivot value, raised only
        here, so that an error of the read comes first."""
        if self._missing is not None:
            raise ConfigError(f"record {self._missing}: missing pivot value")
        j = [attr.name for attr in schema].index(self.pivot_attribute)
        cells = list(self._cells.values())
        states = list(map(self._states.get, self._cells))
        self.start(())
        # a group's pivot cells share its key text: the last one stands for a folded group
        pivots = [group[j] if group else state[j][0] for group, state in zip(cells, states)]
        texts = column_kernel(schema[j], None, str)(pivots)
        return list(zip(texts, cells, states))


def _numeric_state(present: list, prior: tuple) -> tuple:
    """``(last, max, min, count, exact_sum)`` of a numeric column's values:
    those of ``prior``, a state of this kind or ``()``, then ``present``."""
    highest, lowest, count, total = max(present), min(present), len(present), exact_sum(present)
    if prior:
        # max and min return the first of equal extremes, so -0.0 and 0.0 keep their order
        highest, lowest = max(prior[1], highest), min(prior[2], lowest)
        count, total = prior[3] + count, prior[4] + total
    return (present[-1], highest, lowest, count, total)


def _nominal_state(present: list, prior: tuple) -> tuple:
    """``(last, count of each index)`` of a nominal column's values: those
    of ``prior``, a state of this kind or ``()``, then ``present``."""
    counts = Counter(present)
    if prior:
        counts.update(prior[1])
    return (present[-1], counts)


def _last_state(present: list, prior: tuple) -> tuple:
    """``(last,)`` of a string column's values."""
    return (present[-1],)


_STATE_OF = {NUMERIC: _numeric_state, NOMINAL: _nominal_state}  # by kind, as _plan aggregates


def _fold_column(values, prior: tuple, state_of) -> tuple:
    """The running state of a column of a group: ``prior``, the state of
    its earlier values or ``()`` before any was present, followed by
    ``values``. Each state starts with the last present value.
    ``state_of``, the column kind's in ``_STATE_OF``, builds it from the
    present values."""
    present = [v for v in values if v is not None]
    if not present:
        return prior
    return state_of(present, prior)


def _compact(cells: list, state_of: list, prior: list | None) -> list:
    """The running state of each column of a group whose latest records
    are ``cells``, flat rows as long as ``state_of``, the state builder of
    each column, after ``prior``'s, which it replaces; ``cells`` is
    cleared."""
    width = len(state_of)
    prior = prior or [()] * width
    state = [_fold_column(cells[j::width], prior[j], state_of[j]) for j in range(width)]
    cells.clear()
    return state


def aggregate_numeric(values, prior: tuple | None = None) -> tuple:
    """Output cells ``(max, min, avg, last)`` of an ordered sequence of
    numeric-or-missing values, after those whose running state is
    ``prior`` (``_fold_column``), if given.

    All four are missing when every input is missing; otherwise avg is the
    full-precision mean of the observed values (``float_mean``), kept
    within [min, max], and last is the final observed value.
    """
    if prior is not None:
        state = _fold_column(values, prior, _numeric_state)
        if not state:
            return (None, None, None, None)
        last, highest, lowest, count, total = state
        return (highest, lowest, min(max(mean_of_sum(total, count), lowest), highest), last)
    if not values:
        raise ValueError("cannot aggregate an empty group")
    present = [v for v in values if v is not None] if None in values else values
    if not present:
        return (None, None, None, None)
    highest, lowest = max(present), min(present)
    # fsum/len of equal values can land one ulp outside them
    mean = min(max(float_mean(present), lowest), highest)
    return (highest, lowest, mean, present[-1])


def aggregate_nominal(
    values, domain_size: int, shared: dict | None = None, prior: tuple | None = None
) -> tuple:
    """Output cells ``(*percents, last)`` of an ordered sequence of nominal
    indices (or missing), after those whose running state is ``prior``
    (``_fold_column``), if given: one percentage per domain value, then the
    last observed index.

    Percent of domain value v = 100 * count(v) / count(observed); the
    percents sum to 100 whenever anything was observed. ``shared``, when
    given, maps each percent to the float that stands for it, so that
    equal percents of every group that uses it are one object.
    """
    if prior is not None:
        last, tally = _fold_column(values, prior, _nominal_state) or (None, {})
        counts = list(map(tally.get, range(domain_size), repeat(0)))
        observed = sum(counts)
    else:
        if not values:
            raise ValueError("cannot aggregate an empty group")
        counts = [0] * domain_size
        last = None
        observed = 0
        for v in values:
            if v is not None:
                counts[v] += 1
                observed += 1
                last = v
    if observed == 0:
        return (None,) * (domain_size + 1)
    # every zero percent is one shared float: most cells of short groups
    percents = [100.0 * c / observed if c else 0.0 for c in counts]
    if shared is not None:
        percents = map(shared.setdefault, percents, percents)
    return (*percents, last)


def _last(values, prior: tuple | None = None) -> tuple:
    """Output cell ``(last,)``: the final non-missing value, else the last
    of ``prior``, a running state (``_fold_column``), else missing."""
    for v in reversed(values):
        if v is not None:
            return (v,)
    return (prior or (None,))[:1]


def sort_records(dataset: Dataset, attribute: str) -> Dataset:
    """Stable sort of records by one attribute's value; missing sorts first.

    Numeric attributes sort by value, nominal by domain index, string
    lexicographically.
    """
    j = dataset.attribute_index(attribute)
    indexed = sorted(
        range(len(dataset.records)),
        key=lambda i: (dataset.records[i][j] is not None, dataset.records[i][j]),
    )
    return dataset.replace_records(dataset.records[i] for i in indexed)


def _plan(schema: tuple[AttributeSpec, ...], class_index: int) -> list:
    """``(column index, output attributes, aggregate)`` of each non-class
    attribute, in order: the one statement of what each kind becomes."""
    plan = []
    percents: dict[float, float] = {}  # equal percents of every column share one float
    for j, attr in enumerate(schema):
        if j == class_index:
            continue
        if attr.kind == NUMERIC:
            names = (f"{attr.name}_{suffix}" for suffix in ("MAX", "MIN", "AVG", "LAST"))
            plan.append((j, list(map(AttributeSpec.numeric, names)), aggregate_numeric))
        elif attr.kind == NOMINAL:
            outputs = [AttributeSpec.numeric(f"{attr.name}_{value}_PERC") for value in attr.values]
            outputs.append(AttributeSpec.nominal(f"{attr.name}_LAST", attr.values))
            # default arguments bind the size and the plan's dict of shared
            # percents at less cost than partial()
            plan.append((j, outputs, lambda values, prior=None, n=len(attr.values), shared=percents: (
                aggregate_nominal(values, n, shared, prior)
            )))
        else:
            plan.append((j, [attr], _last))
    return plan


def _aggregate(groups, width: int, plan, class_index: int) -> tuple[list, list[str]]:
    """The output record of each of ``groups``, ``(key text, cells, state)``
    as ``GroupFold.take_groups`` gives them, with the cells of its latest
    records in one flat list of rows ``width`` long, and the keys of the
    groups whose members carry more than one class value."""
    mixed_groups: list[str] = []
    out_records = []
    for key, cells, state in groups:
        out_row: list = []
        if state is None:
            for j, _, aggregate in plan:
                out_row.extend(aggregate(cells[j::width]))
            prior = None
        else:
            for j, _, aggregate in plan:
                out_row.extend(aggregate(cells[j::width], state[j]))
            prior = state[class_index]
        classes = cells[class_index::width]
        seen = set(classes)
        if prior:
            seen.update(prior[1])
        if len(seen - {None}) > 1:
            mixed_groups.append(key)
        out_row.extend(_last(classes, prior))
        out_records.append(tuple(out_row))
    return out_records, mixed_groups


def _log_mixed(mixed_groups: list[str]) -> None:
    if mixed_groups:
        log.warning(
            "%d group(s) have mixed class values (last value wins): %s%s",
            len(mixed_groups), ", ".join(mixed_groups[:10]), "..." if len(mixed_groups) > 10 else "",
        )


@no_gc
def transform(dataset: Dataset, config: TransformConfig) -> Dataset:
    """Collapse each pivot group of ``dataset`` into one aggregate record.

    Output records appear in group first-appearance order; the output
    schema is ``derive_output_schema``. Logs a warning naming the groups
    whose members carry more than one class value. Runs in this process:
    unlike ``transform_text`` it returns records, which a forked child
    could only send back as a second copy.
    """
    _, class_index = config.resolve(dataset.schema)
    out_schema = derive_output_schema(dataset.schema, config)
    groups = GroupFold(config.pivot_attribute).fold_dataset(dataset).take_groups(dataset.schema)
    out_records, mixed_groups = _aggregate(
        groups, len(dataset.schema), _plan(dataset.schema, class_index), class_index
    )
    _log_mixed(mixed_groups)
    return Dataset(dataset.relation_name, out_schema, tuple(out_records))


@no_gc
def transform_text(
    dataset: Dataset, config: TransformConfig, write, fold: GroupFold | None = None
) -> tuple[int, list[str]]:
    """``(group count, parts)``, where ``"".join(parts)`` is
    ``write(transform(dataset, config))``, with the same log records and
    exceptions, computed in two halves. The parts are in order; the caller
    can write them one after the other without joining them.

    ``fold``, when given, is the GroupFold that holds the records of
    ``dataset``, which was read without them; it holds none once this
    returns. ``write`` maps a Dataset to its text, and the text of a
    Dataset must start with the text of its schema alone,
    ``write(d.replace_records(()))``. The groups are cut at the first
    whose cells, with those of the groups before it, reach half the cells
    the fold held.
    This process aggregates and writes the groups up to the cut, as one
    part; through ``model.run_both`` a forked child aggregates and writes
    the rest and sends back only its text after the schema's, in parts of
    ``WRITE_SLICE_CHARS`` characters, so no output record crosses the pipe
    and this process never holds the child's text twice. Once the fork has
    succeeded, this process holds the cells of its own half of the groups
    only, and each half lets go of its cells once they are aggregated,
    before it writes. One group, a cut after the last, or a process that
    would not fork (``model.may_fork``) aggregates and writes all groups
    in one pass, into one part.
    """
    _, class_index = config.resolve(dataset.schema)
    out_schema = derive_output_schema(dataset.schema, config)
    fold = fold or GroupFold(config.pivot_attribute).fold_dataset(dataset)
    groups = fold.take_groups(dataset.schema)
    count, width, plan = len(groups), len(dataset.schema), _plan(dataset.schema, class_index)

    def text_of(part: list, child: bool = False) -> tuple[list[str], list[str], Exception | None]:
        records, mixed_groups = _aggregate(part, width, plan, class_index)
        part.clear()  # the cells are aggregated: only the records are written
        output = Dataset(dataset.relation_name, out_schema, records)
        del records
        try:
            text = write(output)
            start = len(write(output.replace_records(()))) if child else 0
        except (SppamError, ValueError) as exc:  # raised once the warning is logged, as in order
            return mixed_groups, [], exc
        if not child:
            return mixed_groups, [text], None
        del output  # its records, before the text is sliced for the pipe
        step = WRITE_SLICE_CHARS
        return mixed_groups, [text[i:i + step] for i in range(start, len(text), step)], None

    sizes = [len(cells) for _, cells, _ in groups]  # cells: records times width
    whole = sum(sizes)
    cut = next((n for n, total in enumerate(accumulate(sizes), 1) if 2 * total >= whole), 0)
    if cut == count or not may_fork():
        halves = [text_of(groups)]
    else:
        groups, rest = groups[:cut], groups[cut:]
        # once forked, this process drops the child's half; in order, it keeps it
        halves = run_both(lambda: text_of(groups), lambda: text_of(rest, True), rest.clear)
    _log_mixed([key for mixed_groups, _, _ in halves for key in mixed_groups])
    for _, _, error in halves:
        if error is not None:
            raise error
    return count, [part for _, parts, _ in halves for part in parts]
