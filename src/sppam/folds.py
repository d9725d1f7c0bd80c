"""Stratified k-fold assignment, optionally group-aware.

Records that belong to the same group (e.g. the same observation day)
must not be split across folds, otherwise training and test sets share
correlated records. Grouped assignment is greedy: groups are placed
largest first (ties by first appearance) onto the fold where they least
disturb the target fold size and per-class balance; ties between folds
are broken by a seeded RNG so repeated runs explore different layouts
deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

from .model import ConfigError, Dataset
from .transform import group_records


@dataclass(frozen=True)
class FoldAssignment:
    """Maps every record index to a fold index in [0, k)."""

    k: int
    fold_of_record: tuple[int, ...]

    def split(self, fold: int) -> tuple[list[int], list[int]]:
        """(train_indices, test_indices) for one held-out fold."""
        in_test = bytes(map(fold.__eq__, self.fold_of_record))
        in_train = bytes(map(fold.__ne__, self.fold_of_record))
        indices = range(len(self.fold_of_record))
        return list(compress(indices, in_train)), list(compress(indices, in_test))


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
    if k < 2:
        raise ConfigError(f"fold count must be at least 2, got {k}")
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

    target_size = n / k
    target_class = [sum(gc[c] for gc in group_class_counts) / k for c in range(len(class_keys))]

    order = sorted(range(len(groups)), key=lambda g: -len(groups[g].member_indices))
    fold_sizes = [0] * k
    fold_class = [[0] * len(class_keys) for _ in range(k)]
    fold_of_record = [0] * n
    for g in order:
        size = len(groups[g].member_indices)
        counts = group_class_counts[g]
        best_cost = None
        best_folds: list[int] = []
        for f in range(k):
            # increase in total squared deviation caused by this placement
            cost = (fold_sizes[f] + size - target_size) ** 2 - (fold_sizes[f] - target_size) ** 2
            for c in range(len(class_keys)):
                cost += (fold_class[f][c] + counts[c] - target_class[c]) ** 2
                cost -= (fold_class[f][c] - target_class[c]) ** 2
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_folds = [f]
            elif abs(cost - best_cost) <= 1e-12:
                best_folds.append(f)
        chosen = best_folds[0] if len(best_folds) == 1 else rng.choice(best_folds)
        fold_sizes[chosen] += size
        for c in range(len(class_keys)):
            fold_class[chosen][c] += counts[c]
        for i in groups[g].member_indices:
            fold_of_record[i] = chosen
    return FoldAssignment(k, tuple(fold_of_record))
