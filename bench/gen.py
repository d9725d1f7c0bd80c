"""Seeded, stdlib-only input generator for the benchmark workloads.

This module deliberately imports nothing from ``sppam`` (not even
``gen_surf``): the inputs must stay the same when the program changes.
Every generator writes one file and returns a ``GenInfo`` describing what
it wrote, which the verifier uses as its expectations.

All three inputs use the 10-attribute surf schema: a string pivot, five
numerics, nominals of 4/8/8 values and a binary class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

WIND_ROSE = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
HOURS = ("0", "6", "12", "18")
CLASSES = ("0", "1")
MISSING_RATE = 0.02
FLIP_RATE = 0.15
_FIRST_DAY = date(1990, 1, 1)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "string", "numeric" or "nominal"
    values: tuple[str, ...] = ()


def surf_columns(pivot: str) -> tuple[Column, ...]:
    return (
        Column(pivot, "string"),
        Column("Hour", "nominal", HOURS),
        Column("Wave_Total", "numeric"),
        Column("Wave", "numeric"),
        Column("Wave_Direction", "nominal", WIND_ROSE),
        Column("Vaga", "numeric"),
        Column("Wind_Speed", "numeric"),
        Column("Wind_Direction", "nominal", WIND_ROSE),
        Column("Water_Temperature", "numeric"),
        Column("Sets", "nominal", CLASSES),
    )


@dataclass(frozen=True)
class GenInfo:
    """What a generator wrote: the expectations the verifier checks."""

    path: Path
    records: int
    bytes: int
    columns: tuple[Column, ...]  # the schema as the program will read it
    group_keys: tuple[str, ...]  # in first-appearance order
    mixed_groups: int


def _reading(rng: random.Random, hour: str, wave: float, sets: int) -> list[str]:
    vaga = rng.uniform(0.2, 2.5)
    return [
        hour,
        f"{wave + vaga + rng.uniform(-0.2, 0.2):.2f}",
        f"{wave:.2f}",
        WIND_ROSE[rng.randrange(8)],
        f"{vaga:.2f}",
        f"{rng.uniform(2.0, 30.0):.1f}",
        WIND_ROSE[rng.randrange(8)],
        f"{15.0 + rng.uniform(-1.3, 2.8):.1f}",
        CLASSES[sets],
    ]


def _blank_some(rng: random.Random, cells: list[str], rate: float) -> list[str]:
    # the pivot (first) and the class (last) are never missing
    for j in range(1, len(cells) - 1):
        if rng.random() < rate:
            cells[j] = "?"
    return cells


def _arff_text(relation: str, columns, rows) -> str:
    lines = [f"@RELATION {relation}"]
    for col in columns:
        kind = "{" + ",".join(col.values) + "}" if col.kind == "nominal" else col.kind
        lines.append(f"@ATTRIBUTE {col.name} {kind}")
    lines.append("@DATA")
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> int:
    data = text.encode("ascii")
    path.write_bytes(data)
    return len(data)


def _day_keys(days: int) -> list[str]:
    return [(_FIRST_DAY + timedelta(days=d)).strftime("%d-%m-%Y") for d in range(days)]


def daily_surf(path: Path, seed: int, days: int, per_day: int = 4) -> GenInfo:
    """ARFF surf observations, ``per_day`` per day, with missing cells.

    Each day has a class; every observation but the day's last flips it
    with probability FLIP_RATE, so some days are mixed-class groups.
    """
    rng = random.Random(seed)
    keys = _day_keys(days)
    rows, mixed = [], 0
    for key in keys:
        day_class = rng.randrange(2)
        seen = set()
        for o in range(per_day):
            sets = day_class
            if o < per_day - 1 and rng.random() < FLIP_RATE:
                sets ^= 1
            seen.add(sets)
            wave = max(0.1, rng.gauss(1.8, 0.7))
            row = [key] + _reading(rng, HOURS[o % 4], wave, sets)
            rows.append(_blank_some(rng, row, MISSING_RATE))
        mixed += len(seen) > 1
    columns = surf_columns("Date")
    size = _write(path, _arff_text("surf-daily", columns, rows))
    return GenInfo(path, len(rows), size, columns, tuple(keys), mixed)


def group_mean_surf(path: Path, seed: int, days: int, per_day: int = 4) -> GenInfo:
    """ARFF surf observations without missing cells whose class is 1
    exactly when the day's mean ``Wave`` exceeds the median day mean, so
    single records are weak evidence and daily aggregates carry signal."""
    rng = random.Random(seed)
    keys = _day_keys(days)
    waves = [[round(max(0.1, rng.gauss(1.8, 0.7)), 2) for _ in range(per_day)] for _ in keys]
    means = sorted(sum(day) / per_day for day in waves)
    threshold = (means[(days - 1) // 2] + means[days // 2]) / 2.0
    rows = []
    for key, day in zip(keys, waves):
        sets = int(sum(day) / per_day > threshold)
        for o, wave in enumerate(day):
            rows.append([key] + _reading(rng, HOURS[o % 4], wave, sets))
    columns = surf_columns("Date")
    size = _write(path, _arff_text("surf-group-mean", columns, rows))
    return GenInfo(path, len(rows), size, columns, tuple(keys), 0)


def interleaved_sites(path: Path, seed: int, sites: int, readings: int) -> GenInfo:
    """CSV readings from ``sites`` sites, ``readings`` each, interleaved
    round-robin the way time-ordered readings from many sites arrive.

    The class of each reading follows its own wave height, so nearly every
    site is a mixed-class group.
    """
    rng = random.Random(seed)
    keys = [f"site-{s:04d}" for s in range(sites)]
    columns = surf_columns("Site")
    lines = [",".join(col.name for col in columns)]
    classes_seen = [set() for _ in keys]
    for r in range(readings):
        hour = HOURS[r % 4]
        for s, key in enumerate(keys):
            wave = max(0.1, rng.gauss(1.8, 0.7))
            sets = int(wave + rng.gauss(0.0, 0.4) > 1.8)
            classes_seen[s].add(sets)
            row = _blank_some(rng, [key] + _reading(rng, hour, wave, sets), MISSING_RATE)
            lines.append(",".join(row))
    size = _write(path, "\n".join(lines) + "\n")
    # CSV carries no types: the program infers Hour as numeric (its values
    # look like numbers) and keeps the forced pivot/class kinds
    inferred = tuple(
        Column(c.name, "numeric") if c.name == "Hour" else c for c in columns
    )
    mixed = sum(len(seen) > 1 for seen in classes_seen)
    return GenInfo(path, sites * readings, size, inferred, tuple(keys), mixed)
