"""Synthetic surf-observation datasets.

The real beach observation data behind this tool is not redistributable,
so a generator reproduces its shape: four observations per day (hours 0,
6, 12, 18) of wind and sea conditions, a string date as the grouping key
and a binary class saying whether conditions suit surfing.

Two labelling modes:

* ``record``: each day gets a day-level class (exact zero/one day counts
  are configurable); the day's last observation always carries it, while
  earlier observations flip with a small probability, like noisy
  intra-day assessments. The transformed dataset's class counts therefore
  equal the day-level counts exactly.
* ``group-mean``: the class is 1 exactly when the day's mean wave height
  is above the median day mean. A single observation is then a weak
  predictor while the daily aggregate separates the classes, which makes
  the pair a demonstration case for learning on aggregated records.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from .model import AttributeSpec, ConfigError, Dataset

WIND_ROSE = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
HOURS = ("0", "6", "12", "18")

SURF_SCHEMA = (
    AttributeSpec.string("Date"),
    AttributeSpec.nominal("Hour", HOURS),
    AttributeSpec.numeric("Wave_Total"),
    AttributeSpec.numeric("Wave"),
    AttributeSpec.nominal("Wave_Direction", WIND_ROSE),
    AttributeSpec.numeric("Vaga"),
    AttributeSpec.numeric("Wind_Speed"),
    AttributeSpec.nominal("Wind_Direction", WIND_ROSE),
    AttributeSpec.numeric("Water_Temperature"),
    AttributeSpec.nominal("Sets", ("0", "1")),
)

_FIRST_DAY = date(2010, 11, 18)


def gen_surf(
    days: int = 48,
    per_day: int = 4,
    seed: int = 0,
    labels: str = "record",
    zero_days: int = 18,
    flip_rate: float = 0.15,
) -> Dataset:
    """Generate a surf-shaped dataset of ``days * per_day`` records."""
    if days < 1 or per_day < 1:
        raise ConfigError("days and per_day must be positive")
    if labels not in ("record", "group-mean"):
        raise ConfigError(f"unknown label mode {labels!r}; use record or group-mean")
    if labels == "record" and not 0 <= zero_days <= days:
        raise ConfigError(f"zero_days must be in [0, {days}]")
    if not 0 <= flip_rate <= 1:  # false for NaN too
        raise ConfigError(f"flip_rate must be in [0, 1], got {flip_rate}")
    rng = random.Random(seed)
    day_keys = [
        (_FIRST_DAY + timedelta(days=d)).strftime("%d-%m-%Y") for d in range(days)
    ]

    waves = [[max(0.1, rng.gauss(1.8, 0.7)) for _ in range(per_day)] for _ in range(days)]
    if labels == "group-mean":
        day_classes = _labels_from_means(waves)
    else:
        day_classes = [0] * zero_days + [1] * (days - zero_days)
        rng.shuffle(day_classes)

    records = []
    for d in range(days):
        day_class = day_classes[d]
        water = 15.0 + rng.uniform(-1.0, 2.5)
        for o in range(per_day):
            wave = waves[d][o]
            vaga = rng.uniform(0.2, 2.5)
            if o == per_day - 1 or labels == "group-mean":
                sets = day_class
            else:
                sets = day_class ^ (1 if rng.random() < flip_rate else 0)
            records.append((
                day_keys[d],
                o % len(HOURS),
                round(wave + vaga + rng.uniform(-0.2, 0.2), 2),
                round(wave, 2),
                rng.randrange(len(WIND_ROSE)),
                round(vaga, 2),
                round(rng.uniform(2.0, 30.0), 1),
                rng.randrange(len(WIND_ROSE)),
                round(water + rng.uniform(-0.3, 0.3), 1),
                sets,
            ))
    return Dataset("surf-synthetic", SURF_SCHEMA, tuple(records))


def _labels_from_means(waves) -> list[int]:
    # rounding matches the stored cells so the label is reproducible
    # from the emitted dataset alone
    means = [sum(round(w, 2) for w in day) / len(day) for day in waves]
    ordered = sorted(means)
    mid = len(ordered) // 2
    threshold = (ordered[mid - 1] + ordered[mid]) / 2.0 if len(ordered) >= 2 else ordered[0]
    return [1 if m > threshold else 0 for m in means]
