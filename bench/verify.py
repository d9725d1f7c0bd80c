"""Checks on the program's outputs that hold for every seed.

A transform output must re-parse with sppam's own reader and satisfy:

* one record per input group, in first-appearance order;
* the attribute count identity ``1 + s + 4n + sum(V + 1)``;
* each nominal's ``_PERC`` block sums to 100 when anything was observed
  (within the rounding error of ``--decimals``), and is all-missing,
  together with ``_LAST``, when nothing was;
* ``_LAST`` values lie in their domain, numeric ``_LAST`` and ``_AVG``
  between ``_MIN`` and ``_MAX``;
* the summary and mixed-class counts the CLI prints match the input.

Every function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

_SUMMARY = re.compile(r"^(\d+) groups, (\d+) -> (\d+) attributes$", re.M)
MIXED_WARNING = re.compile(r"^warning: (\d+) group\(s\) have mixed class values", re.M)
_DELTA = re.compile(
    r"^(\S+)(?: \(reference\))?\s+([+-]\d+\.\d\d)\s+(\S+)\s+"
    r"(transformed-better|original-better|no-difference)$"
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_attribute_count(columns) -> int:
    """``1 + s + 4n + sum(V + 1)`` over the non-class (all but last) columns."""
    total = 1
    for col in columns[:-1]:
        total += {"string": 1, "numeric": 4}.get(col.kind) or len(col.values) + 1
    return total


def check_transform(output: Path, info, decimals: int | None, stdout: str, stderr: str) -> list[str]:
    from sppam import ParseError, parse_arff, parse_csv

    text = Path(output).read_text(encoding="utf-8")
    pivot, klass = info.columns[0].name, info.columns[-1].name
    try:
        if Path(output).suffix == ".csv":
            data = parse_csv(text, string_columns=(pivot,), nominal_columns=(klass,))
        else:
            data = parse_arff(text)
    except ParseError as exc:
        return [f"{output.name} does not re-parse: {exc}"]
    return check_dataset(data, info, decimals) + check_messages(info, len(data.schema), stdout, stderr)


def check_messages(info, n_attributes: int, stdout: str, stderr: str) -> list[str]:
    problems = []
    summary = _SUMMARY.search(stdout)
    expected = (len(info.group_keys), len(info.columns), n_attributes)
    if not summary or tuple(int(g) for g in summary.groups()) != expected:
        problems.append(f"summary line {summary and summary.group(0)!r}, expected counts {expected}")
    mixed = MIXED_WARNING.search(stderr)
    if (int(mixed.group(1)) if mixed else 0) != info.mixed_groups:
        problems.append(f"mixed-class warning {mixed and mixed.group(0)!r}, expected {info.mixed_groups} groups")
    return problems


def check_dataset(data, info, decimals: int | None) -> list[str]:
    """Invariants of a parsed transform output against the input's GenInfo."""
    problems = []
    names = [a.name for a in data.schema]
    expected = expected_attribute_count(info.columns)
    if len(names) != expected:
        problems.append(f"{len(names)} attributes, identity gives {expected}")
    if len(data.records) != len(info.group_keys):
        problems.append(f"{len(data.records)} records, expected {len(info.group_keys)} groups")

    def column(name):
        if name not in names:
            problems.append(f"missing attribute {name!r}")
            return None
        j = names.index(name)
        attr = data.schema[j]
        if attr.kind == "nominal":
            return [None if r[j] is None else attr.values[r[j]] for r in data.records]
        return [r[j] for r in data.records]

    pivot, klass = info.columns[0], info.columns[-1]
    keys = column(pivot.name)
    if keys is not None and tuple(keys) != info.group_keys:
        problems.append(f"{pivot.name} column is not the input's groups in first-appearance order")
    classes = column(klass.name)
    if classes is not None and not set(classes) <= set(klass.values):
        problems.append(f"class values {sorted(set(classes) - set(klass.values))} outside the domain")

    for col in info.columns[1:-1]:
        if col.kind == "numeric":
            problems += _check_numeric(col.name, [column(f"{col.name}_{s}") for s in ("MAX", "MIN", "AVG", "LAST")])
        elif col.kind == "nominal":
            block = [column(f"{col.name}_{v}_PERC") for v in col.values]
            problems += _check_nominal(col, block, column(f"{col.name}_LAST"), decimals)
    return problems


def _check_numeric(name, columns) -> list[str]:
    if any(c is None for c in columns):
        return []
    for i, (hi, lo, avg, last) in enumerate(zip(*columns)):
        cells = (hi, lo, avg, last)
        if all(c is None for c in cells):
            continue
        if any(c is None for c in cells) or not (lo <= avg <= hi and lo <= last <= hi):
            return [f"record {i}: {name} MAX/MIN/AVG/LAST {cells} are inconsistent"]
    return []


def _check_nominal(col, block, last, decimals) -> list[str]:
    if any(c is None for c in block) or last is None:
        return []
    # each rounded cell is off by at most half a unit in its last place
    tolerance = 1e-9 + (0 if decimals is None else len(col.values) * 0.5 * 10.0 ** -decimals)
    for i, row in enumerate(zip(*block)):
        if all(p is None for p in row):
            if last[i] is not None:
                return [f"record {i}: {col.name}_LAST set although nothing was observed"]
            continue
        if any(p is None or not 0.0 <= p <= 100.0 for p in row):
            return [f"record {i}: {col.name} percentages {row} out of range"]
        if abs(sum(row) - 100.0) > tolerance:
            return [f"record {i}: {col.name} percentages sum to {sum(row)!r}"]
        if last[i] not in col.values:
            return [f"record {i}: {col.name}_LAST {last[i]!r} outside the domain"]
    return []


def delta_lines(report: str) -> list[str]:
    """The per-classifier 'CCI delta / t / verdict' lines of a compare report."""
    return [line for line in report.splitlines() if _DELTA.match(line)]


def check_compare(report: str, kinds, original: str, transformed: str) -> list[str]:
    problems = []
    if not report.startswith(f"comparison: {original} vs {transformed}\n"):
        problems.append("compare report does not start with its comparison line")
    rows = [_DELTA.match(line).groups() for line in delta_lines(report)]
    if [r[0] for r in rows] != list(kinds):
        problems.append(f"verdict rows for {[r[0] for r in rows]}, expected {list(kinds)}")
    for kind, delta, _, _ in rows:
        if not -100.0 <= float(delta) <= 100.0:
            problems.append(f"{kind}: CCI delta {delta} out of range")
    for line in report.splitlines():
        if " average " in line:
            cci = [float(x) for x in line.split()[-10::5]]
            if not all(0.0 <= c <= 100.0 for c in cci):
                problems.append(f"CCI% out of range in {line!r}")
    return problems
