"""Shared dataset builders and brute-force oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import random
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from sppam.classifiers import (
    NB_VARIANCE_FLOOR,
    ONER_MAX_BINS,
    ONER_MIN_BUCKET,
    DecisionStumpModel,
    NaiveBayesModel,
    OneRModel,
    ZeroRModel,
)
from sppam.arff import (
    ParseError,
    _keyword_rest,
    _parse_attribute,
    _quote_if_needed,
    _type_text,
    _unquote,
)
from sppam.metrics import MetricsReport
from sppam.model import AttributeSpec, Cell, Dataset, SppamError, float_mean, format_number
from sppam.transform import TransformConfig

NOMINAL_POOL = ["red", "green", "blue", "cyan", "teal", "plum", "gray", "gold"]
STRING_POOL = ["alpha", "beta beta", "g,amma", "it's", 'say "hi"', "?maybe", "", "x"]


def cell_text(attr: AttributeSpec, cell: Cell) -> str | None:
    """A cell as plain text, for comparing cells across readers; None
    (missing) stays None."""
    if cell is None:
        return None
    if attr.kind == "nominal":
        return attr.values[cell]
    if attr.kind == "numeric":
        return format_number(float(cell))
    return cell


def oracle_average_metrics(reports) -> MetricsReport:
    """The mean of each MetricsReport field, spelled out field by field,
    each sum taken over the reports in order."""
    n, k = len(reports), len(reports[0].precision)

    def mean(values):
        return sum(values) / n

    return MetricsReport(
        cci_percent=mean([r.cci_percent for r in reports]),
        kappa=mean([r.kappa for r in reports]),
        precision=tuple(mean([r.precision[c] for r in reports]) for c in range(k)),
        recall=tuple(mean([r.recall[c] for r in reports]) for c in range(k)),
        f_measure=tuple(mean([r.f_measure[c] for r in reports]) for c in range(k)),
        macro_precision=mean([r.macro_precision for r in reports]),
        macro_recall=mean([r.macro_recall for r in reports]),
        macro_f_measure=mean([r.macro_f_measure for r in reports]),
    )


def oracle_group_folds(dataset: Dataset, k: int, class_attribute: str,
                       group_attribute: str, seed: int = 0) -> tuple[int, ...]:
    """Greedy grouped fold assignment spelled out with rational arithmetic:
    groups (by first appearance) placed largest first, each on the fold
    where the total squared deviation of the fold sizes from n/k and of
    each class's fold counts from n_c/k rises least, computed exactly as
    a Fraction; folds whose rise is equal tie, and ``rng.choice`` over
    them breaks the tie. Returns ``fold_of_record``."""
    class_index = dataset.attribute_index(class_attribute)
    group_index = dataset.attribute_index(group_attribute)
    members: dict = {}
    for i, record in enumerate(dataset.records):
        members.setdefault(record[group_index], []).append(i)
    groups = list(members.values())
    classes = sorted({record[class_index] for record in dataset.records}, key=str)
    group_counts = [
        [sum(1 for i in group if dataset.records[i][class_index] == c) for c in classes]
        for group in groups
    ]
    target_size = Fraction(len(dataset.records), k)
    target_class = [Fraction(sum(gc[c] for gc in group_counts), k) for c in range(len(classes))]
    rng = random.Random(seed)
    fold_sizes = [0] * k
    fold_class = [[0] * len(classes) for _ in range(k)]
    fold_of_record = [0] * len(dataset.records)
    for g in sorted(range(len(groups)), key=lambda g: -len(groups[g])):
        size, counts = len(groups[g]), group_counts[g]
        rises = []
        for f in range(k):
            rise = (fold_sizes[f] + size - target_size) ** 2 - (fold_sizes[f] - target_size) ** 2
            for c in range(len(classes)):
                rise += (fold_class[f][c] + counts[c] - target_class[c]) ** 2
                rise -= (fold_class[f][c] - target_class[c]) ** 2
            rises.append(rise)
        cheapest = [f for f in range(k) if rises[f] == min(rises)]
        chosen = cheapest[0] if len(cheapest) == 1 else rng.choice(cheapest)
        fold_sizes[chosen] += size
        for c in range(len(classes)):
            fold_class[chosen][c] += counts[c]
        for i in groups[g]:
            fold_of_record[i] = chosen
    return tuple(fold_of_record)


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
                    total = Fraction(0)  # exact, so that a sum past the largest float stays finite
                    for v in observed:
                        if v > biggest:
                            biggest = v
                        if v < smallest:
                            smallest = v
                        total += Fraction(v)
                    out.extend([biggest, smallest, float(total / len(observed)), observed[-1]])
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


def posteriors(model, record) -> list[float]:
    """A naive-Bayes model's class probabilities for one record, normalised
    from its ``class_log_scores``."""
    scores = model.class_log_scores(record)
    peak = max(scores)
    weights = [math.exp(s - peak) for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


def oracle_class_log_scores(model, record) -> list[float]:
    """A naive-Bayes model's class log scores computed feature by feature
    from ``feature_stats``, each feature adding its term to every class."""
    scores = list(model.log_priors)
    for j, kind, per_class in model.feature_stats:
        v = record[j]
        if v is None:
            continue
        if kind == "numeric":
            for c, stats in enumerate(per_class):
                if stats is None:
                    continue
                mean, var, log_norm = stats
                d = v - mean
                q = d * d / var
                if q == math.inf:
                    z = d / math.sqrt(var)
                    q = z * z
                scores[c] += -0.5 * (log_norm + q)
        else:
            for c, log_probs in enumerate(per_class):
                scores[c] += log_probs[v]
    return scores


def _oracle_majority(counts) -> int:
    best = 0
    for c in range(1, len(counts)):
        if counts[c] > counts[best]:
            best = c
    return best


def _oracle_class_counts(rows, class_index, n_classes) -> list[int]:
    counts = [0] * n_classes
    for row in rows:
        counts[row[class_index]] += 1
    return counts


def oracle_fit(kind: str, dataset: Dataset, class_attribute: str):
    """Reference for ``fit``, written the direct way: each kind filters its
    own rows and counts its own classes and value tables, every numeric
    candidate sorts its own (value, class) pairs, and every OneR or stump
    candidate's training errors are counted by calling ``predict_index``
    on every training row."""
    class_index = dataset.attribute_index(class_attribute)
    rows = [r for r in dataset.records if r[class_index] is not None]
    features = [
        j for j, attr in enumerate(dataset.schema)
        if j != class_index and attr.kind != "string"
    ]
    fitter = {
        "zeror": _oracle_zeror,
        "oner": _oracle_oner,
        "naive-bayes": _oracle_naive_bayes,
        "decision-stump": _oracle_stump,
    }[kind]
    return fitter(dataset, rows, class_index, features)


def _oracle_zeror(dataset, rows, class_index, features) -> ZeroRModel:
    class_values = dataset.schema[class_index].values
    counts = _oracle_class_counts(rows, class_index, len(class_values))
    return ZeroRModel(class_index, class_values, majority=_oracle_majority(counts))


def _oracle_naive_bayes(dataset, rows, class_index, features) -> NaiveBayesModel:
    class_values = dataset.schema[class_index].values
    n_classes = len(class_values)
    log_priors = tuple(
        math.log((sum(1 for row in rows if row[class_index] == c) + 1.0) / (len(rows) + n_classes))
        for c in range(n_classes)
    )
    feature_stats = []
    for j in features:
        attr = dataset.schema[j]
        per_class = []
        for c in range(n_classes):
            values = [row[j] for row in rows if row[class_index] == c and row[j] is not None]
            if attr.kind == "numeric":
                stats = None
                if values:
                    mean = float_mean(values)
                    var = float_mean([(v - mean) * (v - mean) for v in values])
                    if math.isfinite(var):
                        var = max(var, NB_VARIANCE_FLOOR)
                        stats = (mean, var, math.log(2.0 * math.pi * var))
                per_class.append(stats)
            else:
                domain_size = len(attr.values)
                per_class.append(tuple(
                    math.log((values.count(v) + 1.0) / (len(values) + domain_size))
                    for v in range(domain_size)
                ))
        feature_stats.append((j, attr.kind, per_class))
    return NaiveBayesModel(
        class_index, class_values, log_priors=log_priors, feature_stats=feature_stats
    )


def _oracle_oner(dataset, rows, class_index, features) -> OneRModel:
    class_values = dataset.schema[class_index].values
    n_classes = len(class_values)
    fallback = _oracle_majority(_oracle_class_counts(rows, class_index, n_classes))
    best: OneRModel | None = None
    best_errors = None
    for j in features:
        attr = dataset.schema[j]
        if attr.kind == "nominal":
            candidate = _oracle_oner_nominal(dataset, rows, class_index, j, len(attr.values), n_classes)
        else:
            candidate = _oracle_oner_numeric(dataset, rows, class_index, j, n_classes)
        if candidate is None:
            continue
        errors = sum(1 for row in rows if candidate.predict_index(row) != row[class_index])
        if best_errors is None or errors < best_errors:
            best, best_errors = candidate, errors
    if best is None:
        return OneRModel(class_index, class_values, attribute=None, fallback=fallback)
    return best


def _oracle_oner_nominal(dataset, rows, class_index, j, domain_size, n_classes) -> OneRModel:
    buckets = [[0] * n_classes for _ in range(domain_size)]
    for row in rows:
        v = row[j]
        if v is not None:
            buckets[v][row[class_index]] += 1
    rule = tuple(_oracle_majority(b) for b in buckets)
    largest = max(range(domain_size), key=lambda v: (sum(buckets[v]), -v))
    return OneRModel(
        class_index,
        dataset.schema[class_index].values,
        attribute=j,
        kind="nominal",
        nominal_rule=rule,
        majority_branch=rule[largest],
    )


def _oracle_oner_numeric(dataset, rows, class_index, j, n_classes) -> OneRModel | None:
    pairs = sorted((row[j], row[class_index]) for row in rows if row[j] is not None)
    if not pairs:
        return None
    n = len(pairs)
    n_bins = min(ONER_MAX_BINS, max(1, n // ONER_MIN_BUCKET))
    # equal-frequency cuts, never splitting a run of identical values
    cut_positions: list[int] = []
    next_target = n / n_bins
    pos = 0
    while len(cut_positions) < n_bins - 1 and pos < n - 1:
        pos = max(pos + 1, round(next_target))
        while pos < n and pairs[pos][0] == pairs[pos - 1][0]:
            pos += 1
        if pos >= n:
            break
        cut_positions.append(pos)
        next_target += n / n_bins
    bounds = [0, *cut_positions, n]
    thresholds = tuple(
        (pairs[p - 1][0] + pairs[p][0]) / 2.0 for p in cut_positions
    )
    bin_counts = []
    for lo, hi in zip(bounds, bounds[1:]):
        counts = [0] * n_classes
        for _, c in pairs[lo:hi]:
            counts[c] += 1
        bin_counts.append(counts)
    rule = tuple(_oracle_majority(counts) for counts in bin_counts)
    largest = max(range(len(bin_counts)), key=lambda b: (sum(bin_counts[b]), -b))
    return OneRModel(
        class_index,
        dataset.schema[class_index].values,
        attribute=j,
        kind="numeric",
        thresholds=thresholds,
        bin_rule=rule,
        majority_branch=rule[largest],
    )


def _oracle_stump(dataset, rows, class_index, features) -> DecisionStumpModel:
    class_values = dataset.schema[class_index].values
    n_classes = len(class_values)
    fallback = _oracle_majority(_oracle_class_counts(rows, class_index, n_classes))
    best: DecisionStumpModel | None = None
    best_errors = None
    for j in features:
        attr = dataset.schema[j]
        if attr.kind == "numeric":
            candidate = _oracle_stump_numeric(dataset, rows, class_index, j, n_classes)
        else:
            candidate = _oracle_stump_nominal(dataset, rows, class_index, j, len(attr.values), n_classes)
        if candidate is None:
            continue
        errors = sum(1 for row in rows if candidate.predict_index(row) != row[class_index])
        if best_errors is None or errors < best_errors:
            best, best_errors = candidate, errors
    if best is None:
        return DecisionStumpModel(class_index, class_values, attribute=None, fallback=fallback)
    return best


def _oracle_stump_numeric(dataset, rows, class_index, j, n_classes) -> DecisionStumpModel | None:
    pairs = sorted((row[j], row[class_index]) for row in rows if row[j] is not None)
    if len(pairs) < 2 or pairs[0][0] == pairs[-1][0]:
        return None
    n = len(pairs)
    total_counts = [0] * n_classes
    for _, c in pairs:
        total_counts[c] += 1
    left_counts = [0] * n_classes
    best = None  # (errors, threshold, left_class, right_class, left_size)
    for i in range(n - 1):
        left_counts[pairs[i][1]] += 1
        if pairs[i][0] == pairs[i + 1][0]:
            continue
        right_counts = [total_counts[c] - left_counts[c] for c in range(n_classes)]
        lc, rc = _oracle_majority(left_counts), _oracle_majority(right_counts)
        errors = (i + 1 - left_counts[lc]) + (n - i - 1 - right_counts[rc])
        if best is None or errors < best[0]:
            threshold = (pairs[i][0] + pairs[i + 1][0]) / 2.0
            best = (errors, threshold, lc, rc, i + 1)
    if best is None:
        return None
    _, threshold, lc, rc, left_size = best
    majority_class = lc if left_size >= n - left_size else rc
    return DecisionStumpModel(
        class_index,
        dataset.schema[class_index].values,
        attribute=j,
        kind="numeric",
        threshold=threshold,
        left_class=lc,
        right_class=rc,
        majority_branch_class=majority_class,
    )


def _oracle_stump_nominal(dataset, rows, class_index, j, domain_size, n_classes) -> DecisionStumpModel | None:
    value_counts = [[0] * n_classes for _ in range(domain_size)]
    total_counts = [0] * n_classes
    observed = 0
    for row in rows:
        v = row[j]
        if v is not None:
            value_counts[v][row[class_index]] += 1
            total_counts[row[class_index]] += 1
            observed += 1
    if observed == 0:
        return None
    best = None  # (errors, value, left_class, right_class, left_size)
    for v in range(domain_size):
        left = value_counts[v]
        left_size = sum(left)
        if left_size in (0, observed):
            continue
        right = [total_counts[c] - left[c] for c in range(n_classes)]
        lc, rc = _oracle_majority(left), _oracle_majority(right)
        errors = (left_size - left[lc]) + (observed - left_size - right[rc])
        if best is None or errors < best[0]:
            best = (errors, v, lc, rc, left_size)
    if best is None:
        return None
    _, v, lc, rc, left_size = best
    majority_class = lc if left_size >= observed - left_size else rc
    return DecisionStumpModel(
        class_index,
        dataset.schema[class_index].values,
        attribute=j,
        kind="nominal",
        match_value=v,
        left_class=lc,
        right_class=rc,
        majority_branch_class=majority_class,
    )


_ORACLE_CSV_MISSING = ("", "?")


def oracle_parse_csv(
    text: str,
    string_columns=(),
    nominal_columns=(),
) -> Dataset:
    """Reference for ``parse_csv``: its row-at-a-time version, which strips
    and converts every cell on its own and tests every numeric cell with
    ``float`` twice."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
        while not header:  # blank lines before the header are skipped
            header = next(reader)
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

    rows: list[list[str | None]] = []
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(
                    reader.line_num,
                    f"row has {len(row)} values, header has {len(names)} columns",
                )
            rows.append([None if c.strip() in _ORACLE_CSV_MISSING else c.strip() for c in row])
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from None
    _oracle_csv_reject_unwritable(text, names)

    # float() also reads non-ASCII digits; only a non-ASCII text checks cells
    ascii_text = text.isascii()
    schema = tuple(
        _oracle_csv_infer_column(
            name, [row[j] for row in rows], string_columns, nominal_columns, ascii_text, header_line
        )
        for j, name in enumerate(names)
    )
    indexes = [{value: i for i, value in enumerate(attr.values)} for attr in schema]
    records = []
    for row in rows:
        cells: list[Cell] = []
        for attr, index, raw in zip(schema, indexes, row):
            if raw is None:
                cells.append(None)
            elif attr.kind == "numeric":
                cells.append(float(raw))
            elif attr.kind == "nominal":
                cells.append(index[raw])
            else:
                cells.append(raw)
        records.append(tuple(cells))
    return Dataset("unnamed", schema, tuple(records))


def _oracle_csv_reject_unwritable(text: str, names) -> None:
    """ParseError for the first header name or cell holding a line break or
    both ' and ", named in that order."""
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        for name, cell in zip(names, row):
            value = cell.strip()
            if len(value.splitlines()) > 1:  # any line break str.splitlines knows
                problem = "a line break"
            elif "'" in value and '"' in value:
                problem = "both quote characters"
            else:
                continue
            message = f"column {name!r}: a value cannot hold {problem}: {value!r}"
            raise ParseError(reader.line_num, message)


def _oracle_csv_infer_column(
    name, cells, string_columns, nominal_columns, ascii_text, header_line
) -> AttributeSpec:
    if name in string_columns:
        return AttributeSpec.string(name)
    present = [c for c in cells if c is not None]
    if (
        name not in nominal_columns
        and all(_oracle_csv_is_number(c) for c in present)
        and (ascii_text or all(c.isascii() for c in present))
    ):
        return AttributeSpec.numeric(name)
    domain: list[str] = []
    seen = set()
    for c in present:
        if c not in seen:
            seen.add(c)
            domain.append(c)
    if not domain:
        raise ParseError(
            header_line, f"column {name!r} has no observed values to build a nominal domain"
        )
    return AttributeSpec.nominal(name, domain)


def _oracle_csv_is_number(text: str) -> bool:
    """True for finite decimal text; ``float`` also takes "1_000", this does not."""
    if "_" in text:
        return False
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def oracle_parse_arff(text: str) -> Dataset:
    """Reference for ``parse_arff``: its row-at-a-time version, which splits,
    strips and converts every data line and cell on its own."""
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
            converters = [_oracle_cell_converter(attr) for attr in schema]
        elif in_data:
            records.append(_oracle_parse_row(line, converters, lineno))
        else:
            raise ParseError(lineno, f"unexpected content outside the data section: {line!r}")

    if not schema:
        raise ParseError(1, "no @ATTRIBUTE declarations found")
    if not in_data:
        raise ParseError(1, "missing @DATA line")
    return Dataset(relation_name, tuple(schema), tuple(records))


def _oracle_parse_row(line: str, converters, lineno: int) -> tuple[Cell, ...]:
    if line[0] == "{":
        raise ParseError(lineno, "sparse data rows ('{index value, ...}') are not supported")
    cells = oracle_scan_cells(line, lineno)
    if len(cells) != len(converters):
        raise ParseError(
            lineno,
            f"row has {len(cells)} values, schema has {len(converters)} attributes",
        )
    return tuple([
        None if text is None else convert(text, lineno)
        for convert, text in zip(converters, cells)
    ])


def oracle_scan_cells(line: str, lineno: int) -> list[str | None]:
    """The cell texts of one data line, one character at a time: stripped,
    unquoted, and None for the missing marker, an unquoted '?' (a quoted
    '?' is a literal question mark)."""
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
    return [_oracle_strip_quotes(part) for part in parts]


def _oracle_strip_quotes(raw: str) -> str | None:
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        inner = text[1:-1]
        if text[0] not in inner:
            return inner
    return None if text == "?" else text


def _oracle_cell_converter(attr: AttributeSpec):
    """``(text, lineno) -> cell`` for one present cell of ``attr``."""
    if attr.kind == "numeric":
        def convert(text: str, lineno: int) -> float:
            try:
                # float() takes digit-group underscores and non-ASCII digits
                if "_" in text or not text.isascii():
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
    elif attr.kind == "nominal":
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


def oracle_write_arff(dataset: Dataset, decimals: int | None = None) -> str:
    """Reference for ``write_arff``: its row-at-a-time version, which
    formats every cell on its own."""
    lines: list[str] = []
    if dataset.relation_name != "unnamed":
        lines.append(f"@RELATION {_quote_if_needed(dataset.relation_name)}")
    for attr in dataset.schema:
        lines.append(f"@ATTRIBUTE {_quote_if_needed(attr.name)} {_type_text(attr)}")
    lines.append("@DATA")
    for record in dataset.records:
        lines.append(oracle_format_data_row(dataset.schema, record, decimals))
    return "\n".join(lines) + "\n"


def oracle_format_data_row(schema, record, decimals: int | None = None) -> str:
    cells = []
    for attr, cell in zip(schema, record):
        if cell is None:
            cells.append("?")
        elif attr.kind == "numeric":
            cells.append(format_number(cell, decimals))
        elif attr.kind == "nominal":
            cells.append(_quote_if_needed(attr.values[cell]))
        else:
            cells.append(_quote_if_needed(cell))
    return ",".join(cells)


def oracle_write_csv(dataset: Dataset, decimals: int | None = None) -> str:
    """Reference for ``write_csv``: its row-at-a-time version."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.attribute_names)
    for record in dataset.records:
        row = []
        for attr, cell in zip(dataset.schema, record):
            if cell is None:
                row.append("?")
            elif attr.kind == "numeric":
                row.append(format_number(cell, decimals))
            elif attr.kind == "nominal":
                row.append(attr.values[cell])
            else:
                row.append(cell)
        writer.writerow(row)
    return out.getvalue()


_WRITE_SCHEMA_POOL = [
    AttributeSpec.numeric("n"),
    AttributeSpec.numeric("k k"),
    AttributeSpec.nominal("m", ("x", "y z", "?", "a,b")),
    AttributeSpec.string("s"),
]
_WRITE_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 2.675, 14.125, -0.001, 1e30, 1.7976931348623157e308, 5e-324, 25.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_WRITE_STRINGS = ["a", "", "?", "b c", "it's", 'say "hi"', "a,b", "two\nlines", "it's \"x\"", "%"]


@st.composite
def write_datasets(draw):
    """A Dataset over one to four columns from the pool; numeric columns may
    hold +-0.0 together, ties at two decimals and (rarely) non-finite
    values, string columns unwritable texts."""
    schema = draw(
        st.lists(st.sampled_from(_WRITE_SCHEMA_POOL), min_size=1, max_size=4, unique=True)
    )
    numbers = _WRITE_NUMBERS
    if draw(st.integers(0, 4)) == 0:
        numbers = st.one_of(numbers, st.sampled_from([float("inf"), float("-inf"), float("nan")]))
    cells = {
        "numeric": numbers,
        "nominal": st.integers(0, 3),
        "string": st.sampled_from(_WRITE_STRINGS),
    }
    records = draw(st.lists(
        st.tuples(*[st.one_of(st.none(), cells[attr.kind]) for attr in schema]), max_size=12
    ))
    return Dataset(draw(st.sampled_from(["unnamed", "r", "a b"])), tuple(schema), tuple(records))


def write_outcome(write, dataset, decimals):
    """A writer's text, or the type and message of what it raised."""
    try:
        return ("text", write(dataset, decimals))
    except (SppamError, ValueError) as exc:
        return ("error", type(exc), str(exc))


# both signs of zero in each column of one block
ZERO_SIGNS = Dataset("unnamed", (AttributeSpec.numeric("a"), AttributeSpec.numeric("b")), (
    (0.0, -0.0), (-0.0, 1.0), (0.0, 0.0), (None, -0.0), (-0.0, 0.0),
))


def on_two_cpus(monkeypatch):
    """Until the test ends, the process may use two CPUs, whatever the host
    allows, as ``model.run_both`` forks only then."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def counting_forks(monkeypatch):
    """A list that gains one item per ``os.fork`` call, until the test ends,
    on two CPUs (``on_two_cpus``)."""
    forks, fork = [], os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    on_two_cpus(monkeypatch)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
