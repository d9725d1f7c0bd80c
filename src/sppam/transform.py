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
column's output cells. A numeric or nominal pivot's group key is its text
as the writers give it (``model.column_kernel``).

``transform`` returns the output records and runs in the calling process.
``transform_text``, which the CLI uses, returns the written text of the
same output and aggregates and writes the second half of the groups in a
forked child (``model.run_both``), which sends back only its text.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate

from .model import (
    NOMINAL,
    NUMERIC,
    STRING,
    AttributeSpec,
    ConfigError,
    Dataset,
    SppamError,
    column_kernel,
    float_mean,
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


def group_records(dataset: Dataset, pivot_attribute: str) -> list[Group]:
    """Partition record indices by pivot value, equality on exact text.

    Groups are ordered by first appearance; members keep source order.
    """
    pivot_index = dataset.attribute_index(pivot_attribute)
    attr = dataset.schema[pivot_index]
    cells = [record[pivot_index] for record in dataset.records]
    if None in cells:
        raise ConfigError(f"record {cells.index(None)}: missing pivot value")
    keys = cells if attr.kind == STRING else column_kernel(attr, None, str)(cells)
    members: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        bucket = members.get(key)
        if bucket is None:
            members[key] = [i]
        else:
            bucket.append(i)
    return [Group(key, tuple(idx)) for key, idx in members.items()]


def aggregate_numeric(values) -> tuple:
    """Output cells ``(max, min, avg, last)`` of an ordered sequence of
    numeric-or-missing values.

    All four are missing when every input is missing; otherwise avg is the
    full-precision mean of the observed values (``float_mean``), kept
    within [min, max], and last is the final observed value.
    """
    if not values:
        raise ValueError("cannot aggregate an empty group")
    present = [v for v in values if v is not None] if None in values else values
    if not present:
        return (None, None, None, None)
    highest, lowest = max(present), min(present)
    # fsum/len of equal values can land one ulp outside them
    mean = min(max(float_mean(present), lowest), highest)
    return (highest, lowest, mean, present[-1])


def aggregate_nominal(values, domain_size: int) -> tuple:
    """Output cells ``(*percents, last)`` of an ordered sequence of nominal
    indices (or missing): one percentage per domain value, then the last
    observed index.

    Percent of domain value v = 100 * count(v) / count(observed); the
    percents sum to 100 whenever anything was observed.
    """
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
    return (*[100.0 * c / observed for c in counts], last)


def _last(values) -> tuple:
    """Output cell ``(last,)``: the final non-missing value, or missing."""
    for v in reversed(values):
        if v is not None:
            return (v,)
    return (None,)


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
    for j, attr in enumerate(schema):
        if j == class_index:
            continue
        if attr.kind == NUMERIC:
            names = (f"{attr.name}_{suffix}" for suffix in ("MAX", "MIN", "AVG", "LAST"))
            plan.append((j, list(map(AttributeSpec.numeric, names)), aggregate_numeric))
        elif attr.kind == NOMINAL:
            outputs = [AttributeSpec.numeric(f"{attr.name}_{value}_PERC") for value in attr.values]
            outputs.append(AttributeSpec.nominal(f"{attr.name}_LAST", attr.values))
            # a default argument binds the size at less cost than partial()
            plan.append(
                (j, outputs, lambda values, n=len(attr.values): aggregate_nominal(values, n))
            )
        else:
            plan.append((j, [attr], _last))
    return plan


def _aggregate(records, groups, plan, class_index: int) -> tuple[list, list[str]]:
    """The output record of each of ``groups``, in order, and the keys of
    the groups whose members carry more than one class value."""
    mixed_groups: list[str] = []
    out_records = []
    for group in groups:
        columns = tuple(zip(*[records[i] for i in group.member_indices]))
        out_row: list = []
        for j, _, aggregate in plan:
            out_row.extend(aggregate(columns[j]))
        classes = columns[class_index]
        if len(set(classes) - {None}) > 1:
            mixed_groups.append(group.key)
        out_row.extend(_last(classes))
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
    groups = group_records(dataset, config.pivot_attribute)
    out_records, mixed_groups = _aggregate(
        dataset.records, groups, _plan(dataset.schema, class_index), class_index
    )
    _log_mixed(mixed_groups)
    return Dataset(dataset.relation_name, out_schema, tuple(out_records))


@no_gc
def transform_text(dataset: Dataset, config: TransformConfig, write) -> tuple[int, str]:
    """``(group count, write(transform(dataset, config)))``, with the same
    log records and exceptions, computed in two halves.

    ``write`` maps a Dataset to its text, and the text of a Dataset must
    start with the text of its schema alone,
    ``write(d.replace_records(()))``. The groups are cut at the first whose
    members, with those of the groups before it, reach half the records.
    This process aggregates and writes the groups up to the cut; through
    ``model.run_both`` a forked child aggregates and writes the rest and
    sends back only its text after the schema's, so no output record
    crosses the pipe. One group, or a cut after the last, runs in order.
    """
    _, class_index = config.resolve(dataset.schema)
    out_schema = derive_output_schema(dataset.schema, config)
    groups = group_records(dataset, config.pivot_attribute)
    plan = _plan(dataset.schema, class_index)

    def text_of(part, schema_text: bool = True) -> tuple[list[str], str | Exception]:
        records, mixed_groups = _aggregate(dataset.records, part, plan, class_index)
        output = Dataset(dataset.relation_name, out_schema, records)
        try:
            text = write(output)
            if not schema_text:
                text = text[len(write(output.replace_records(()))):]
        except (SppamError, ValueError) as exc:  # raised once the warning is logged, as in order
            return mixed_groups, exc
        return mixed_groups, text

    totals = accumulate(len(group.member_indices) for group in groups)
    cut = next((n for n, total in enumerate(totals, 1) if 2 * total >= len(dataset.records)), 0)
    if cut == len(groups):
        halves = [text_of(groups)]
    else:
        halves = run_both(lambda: text_of(groups[:cut]), lambda: text_of(groups[cut:], False))
    _log_mixed([key for mixed_groups, _ in halves for key in mixed_groups])
    for _, text in halves:
        if isinstance(text, Exception):
            raise text
    return len(groups), "".join(text for _, text in halves)
