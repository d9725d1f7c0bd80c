"""Shared dataset builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from decimal import ROUND_HALF_UP, Decimal, localcontext

from sppam.model import AttributeSpec, Dataset, cell_text
from sppam.transform import TransformConfig

NOMINAL_POOL = ["red", "green", "blue", "cyan", "teal", "plum", "gray", "gold"]
STRING_POOL = ["alpha", "beta beta", "g,amma", "it's", 'say "hi"', "?maybe", "", "x"]


def random_transform_schema(rng: random.Random, max_middle: int = 4):
    """A transform-compatible schema: string pivot, nominal class, random middle."""
    attrs = [AttributeSpec.string("key")]
    for i in range(rng.randint(0, max_middle)):
        kind = rng.choice(("numeric", "nominal", "string"))
        name = f"attr{i}"
        if kind == "numeric":
            attrs.append(AttributeSpec.numeric(name))
        elif kind == "nominal":
            size = rng.randint(1, 5)
            attrs.append(AttributeSpec.nominal(name, NOMINAL_POOL[:size]))
        else:
            attrs.append(AttributeSpec.string(name))
    attrs.append(AttributeSpec.nominal("label", ("no", "yes")))
    return tuple(attrs), TransformConfig("key", "label")


def random_cell(rng: random.Random, attr: AttributeSpec, missing_rate: float):
    if rng.random() < missing_rate:
        return None
    if attr.kind == "numeric":
        return round(rng.uniform(-100.0, 100.0), 3)
    if attr.kind == "nominal":
        return rng.randrange(len(attr.values))
    return rng.choice(STRING_POOL)


def random_transform_dataset(
    rng: random.Random,
    max_groups: int = 6,
    max_group_size: int = 6,
    missing_rate: float = 0.15,
):
    """Random grouped dataset plus its transform config."""
    schema, config = random_transform_schema(rng)
    records = []
    n_groups = rng.randint(1, max_groups)
    for g in range(n_groups):
        for _ in range(rng.randint(1, max_group_size)):
            row = []
            for attr in schema:
                if attr.name == "key":
                    row.append(f"g{g}")
                else:
                    row.append(random_cell(rng, attr, missing_rate))
            records.append(tuple(row))
    # interleave groups so first-appearance order differs from block order
    rng.shuffle(records)
    return Dataset("random", schema, tuple(records)), config


def random_plain_schema(rng: random.Random, max_attrs: int = 6):
    """Arbitrary schema for parser round-trip tests (quirky names allowed)."""
    n = rng.randint(1, max_attrs)
    attrs = []
    for i in range(n):
        kind = rng.choice(("numeric", "nominal", "string"))
        name = rng.choice([f"a{i}", f"col {i}", f"n,{i}", f"q{i}'s"])
        if kind == "numeric":
            attrs.append(AttributeSpec.numeric(name))
        elif kind == "nominal":
            size = rng.randint(1, 4)
            values = rng.sample(NOMINAL_POOL + ["v w", "x,y", "?"], size)
            attrs.append(AttributeSpec.nominal(name, values))
        else:
            attrs.append(AttributeSpec.string(name))
    return tuple(attrs)


def random_plain_dataset(rng: random.Random, max_records: int = 8) -> Dataset:
    schema = random_plain_schema(rng)
    records = []
    for _ in range(rng.randint(0, max_records)):
        row = []
        for attr in schema:
            cell = random_cell(rng, attr, missing_rate=0.2)
            if attr.kind == "numeric" and cell is not None:
                cell = rng.choice([cell, float(int(cell)), cell * 1e-4, cell * 1e6])
            row.append(cell)
        records.append(tuple(row))
    relation = rng.choice(["unnamed", "rides", "some relation"])
    return Dataset(relation, schema, tuple(records))


def naive_transform_rows(dataset: Dataset, config: TransformConfig):
    """Independent nested-loop recomputation of the aggregate records.

    Deliberately avoids the library's grouping and aggregate helpers: the
    only shared code is the cell representation.
    """
    schema = dataset.schema
    pivot = next(j for j, a in enumerate(schema) if a.name == config.pivot_attribute)
    class_j = next(j for j, a in enumerate(schema) if a.name == config.class_attribute)

    keys = []
    for record in dataset.records:
        key = cell_text(schema[pivot], record[pivot])
        if key not in keys:
            keys.append(key)

    out_rows = []
    for key in keys:
        rows = [
            r for r in dataset.records
            if cell_text(schema[pivot], r[pivot]) == key
        ]
        out = []
        for j, attr in enumerate(schema):
            if j == class_j:
                continue
            observed = [r[j] for r in rows if r[j] is not None]
            if attr.kind == "numeric":
                if observed:
                    biggest = observed[0]
                    smallest = observed[0]
                    total = 0.0
                    for v in observed:
                        if v > biggest:
                            biggest = v
                        if v < smallest:
                            smallest = v
                        total += v
                    out.extend([biggest, smallest, total / len(observed), observed[-1]])
                else:
                    out.extend([None, None, None, None])
            elif attr.kind == "nominal":
                if observed:
                    for v in range(len(attr.values)):
                        hits = 0
                        for o in observed:
                            if o == v:
                                hits += 1
                        out.append(100.0 * hits / len(observed))
                    out.append(observed[-1])
                else:
                    out.extend([None] * (len(attr.values) + 1))
            else:
                out.append(observed[-1] if observed else None)
        class_observed = [r[class_j] for r in rows if r[class_j] is not None]
        out.append(class_observed[-1] if class_observed else None)
        out_rows.append(out)
    return out_rows


def rows_match(actual, expected, tol: float = 1e-9) -> bool:
    """Cell-wise compare; floats within ``tol``, everything else exact."""
    if len(actual) != len(expected):
        return False
    for row_a, row_e in zip(actual, expected):
        if len(row_a) != len(row_e):
            return False
        for a, e in zip(row_a, row_e):
            if isinstance(a, float) and isinstance(e, float):
                if abs(a - e) > tol * max(1.0, abs(a), abs(e)):
                    return False
            elif a != e:
                return False
    return True


def decimal_format_number(x: float, decimals: int) -> str:
    """Reference for ``format_number(x, decimals)``: quantize the shortest
    repr with ``Decimal`` half-up, in a context wide enough for any finite
    float (309 integer digits) at any ``decimals`` the tests use."""
    with localcontext() as context:
        context.prec = 400
        quantum = Decimal(1).scaleb(-decimals)
        text = format(Decimal(repr(float(x))).quantize(quantum, rounding=ROUND_HALF_UP), "f")
    if "." in text:
        text = text.rstrip("0")
        if text.endswith("."):
            text += "0"
    else:
        text += ".0"
    return text
