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

Each aggregate (``aggregate_numeric``, ``aggregate_nominal`` and the
"last" of strings and the class) takes one column of a group in source
order and returns that column's output cells, in output schema order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .model import (
    NOMINAL,
    NUMERIC,
    AttributeSpec,
    ConfigError,
    Dataset,
    cell_text,
    float_mean,
    no_gc,
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
    out: list[AttributeSpec] = []
    for j, attr in enumerate(schema):
        if j == class_index:
            continue
        if attr.kind == NUMERIC:
            for suffix in ("MAX", "MIN", "AVG", "LAST"):
                out.append(AttributeSpec.numeric(f"{attr.name}_{suffix}"))
        elif attr.kind == NOMINAL:
            for value in attr.values:
                out.append(AttributeSpec.numeric(f"{attr.name}_{value}_PERC"))
            out.append(AttributeSpec.nominal(f"{attr.name}_LAST", attr.values))
        else:
            out.append(attr)
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
    members: dict[str, list[int]] = {}
    for i, record in enumerate(dataset.records):
        cell = record[pivot_index]
        if cell is None:
            raise ConfigError(f"record {i}: missing pivot value")
        key = cell_text(attr, cell)
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


@no_gc
def transform(dataset: Dataset, config: TransformConfig) -> Dataset:
    """Collapse each pivot group of ``dataset`` into one aggregate record.

    Output records appear in group first-appearance order; the output
    schema is ``derive_output_schema``. Logs a warning naming the groups
    whose members carry more than one class value.
    """
    schema = dataset.schema
    pivot_index, class_index = config.resolve(schema)
    out_schema = derive_output_schema(schema, config)
    groups = group_records(dataset, config.pivot_attribute)
    records = dataset.records

    # each non-class attribute's aggregate, chosen once
    plan = []
    for j, attr in enumerate(schema):
        if j == class_index:
            continue
        if attr.kind == NUMERIC:
            plan.append((j, aggregate_numeric))
        elif attr.kind == NOMINAL:
            # a default argument binds the size at less cost than partial()
            plan.append((j, lambda values, n=len(attr.values): aggregate_nominal(values, n)))
        else:
            plan.append((j, _last))

    mixed_groups: list[str] = []
    out_records = []
    for group in groups:
        columns = tuple(zip(*[records[i] for i in group.member_indices]))
        out_row: list = []
        for j, aggregate in plan:
            out_row.extend(aggregate(columns[j]))
        classes = columns[class_index]
        if len(set(classes) - {None}) > 1:
            mixed_groups.append(group.key)
        out_row.extend(_last(classes))
        out_records.append(tuple(out_row))

    if mixed_groups:
        log.warning(
            "%d group(s) have mixed class values (last value wins): %s%s",
            len(mixed_groups), ", ".join(mixed_groups[:10]), "..." if len(mixed_groups) > 10 else "",
        )
    return Dataset(dataset.relation_name, out_schema, tuple(out_records))
