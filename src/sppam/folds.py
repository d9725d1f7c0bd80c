"""Stratified k-fold assignment, optionally group-aware.

Records that belong to the same group (e.g. the same observation day)
must not be split across folds, otherwise training and test sets share
correlated records. Grouped assignment is greedy: groups are placed
largest first (ties by first appearance) onto the fold where they least
raise the squared deviation of the fold sizes and per-class counts from
their targets (n/k and n_c/k). That rise is compared as an exact integer,
so folds tie exactly when their costs are equal; a seeded RNG breaks the
ties so repeated runs explore different layouts deterministically.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .model import ConfigError, Dataset
from .transform import group_records


@dataclass(frozen=True)
class FoldAssignment:
    """Maps every record index to a fold index in [0, k)."""

    k: int
    fold_of_record: tuple[int, ...]


def check_fold_count(k: int) -> None:
    if k < 2:
        raise ConfigError(f"fold count must be at least 2, got {k}")


def group_stratified_folds(
    dataset: Dataset,
    k: int,
    class_attribute: str,
    group_attribute: str | None = None,
    seed: int = 0,
) -> FoldAssignment:
    """Assign records to k folds, stratified by class.

    Without ``group_attribute`` this is a plain stratified shuffle split:
    each class's records are shuffled with the seed and dealt round-robin.
    With it, whole groups are assigned so no group ever spans two folds;
    stratification is then best effort.
    """
    check_fold_count(k)
    class_index = dataset.attribute_index(class_attribute)
    n = len(dataset.records)
    rng = random.Random(seed)

    if group_attribute is None:
        if k > n:
            raise ConfigError(f"fold count {k} exceeds record count {n}")
        per_class: dict[object, list[int]] = {}
        for i, record in enumerate(dataset.records):
            per_class.setdefault(record[class_index], []).append(i)
        fold_of_record = [0] * n
        cursor = 0
        for _, indices in sorted(per_class.items(), key=lambda kv: str(kv[0])):
            rng.shuffle(indices)
            for i in indices:
                fold_of_record[i] = cursor % k
                cursor += 1
        return FoldAssignment(k, tuple(fold_of_record))

    groups = group_records(dataset, group_attribute)
    if k > len(groups):
        raise ConfigError(f"fold count {k} exceeds group count {len(groups)}")

    class_keys = sorted({r[class_index] for r in dataset.records}, key=str)
    key_pos = {c: p for p, c in enumerate(class_keys)}
    group_class_counts = []
    for group in groups:
        counts = [0] * len(class_keys)
        for i in group.member_indices:
            counts[key_pos[dataset.records[i][class_index]]] += 1
        group_class_counts.append(counts)

    order = sorted(range(len(groups)), key=lambda g: -len(groups[g].member_indices))
    fold_sizes = [0] * k
    fold_class = [[0] * len(class_keys) for _ in range(k)]
    fold_of_record = [0] * n
    for g in order:
        size = len(groups[g].member_indices)
        counts = group_class_counts[g]
        # Placing a group of size s and class counts n_c on fold f, whose size
        # is F_f and count of class c is F_fc, raises the squared deviation
        # from the targets T = n/k and T_c by s² − 2sT + Σ_c(n_c² − 2n_c·T_c)
        # + 2·(s·F_f + Σ_c n_c·F_fc). Only the last term depends on f.
        costs = [
            size * fold_size + sum(map(operator.mul, counts, class_counts))
            for fold_size, class_counts in zip(fold_sizes, fold_class)
        ]
        least = min(costs)
        cheapest = [f for f, cost in enumerate(costs) if cost == least]
        chosen = cheapest[0] if len(cheapest) == 1 else rng.choice(cheapest)
        fold_sizes[chosen] += size
        for c in range(len(class_keys)):
            fold_class[chosen][c] += counts[c]
        for i in groups[g].member_indices:
            fold_of_record[i] = chosen
    return FoldAssignment(k, tuple(fold_of_record))
