"""Spans around sppam's public functions, recorded from outside the program.

Run as a child process in place of ``python -m sppam``::

    python bench/tracer.py SPANS.json RUN_ID -- transform in.arff --pivot Date ...

It wraps the names that sppam's callers actually look up (so
``sppam.cli.parse_arff`` rather than ``sppam.arff.parse_arff``), runs
``sppam.cli.main`` and writes every span to ``SPANS.json`` when the program
ends. ``src/`` is never modified; without this entry point nothing is
wrapped.

The span names fixed here are the ones an in-program recorder should reuse.
A span is ``[name, start_ns, end_ns, parent, attrs, run_id]`` with
``parent`` the index of the enclosing span (or -1) and ``run_id`` naming the
workload run it belongs to. Recording assumes one thread, which
holds as long as ``--jobs`` is left at 1.
"""

from __future__ import annotations

import collections
import importlib
import json
import resource
import sys
import time

_now = time.perf_counter_ns

# (module path, attribute, span name); module paths are the caller's
CLI_WRAPS = (
    ("sppam.cli", "parse_arff", "arff.parse"),
    ("sppam.cli", "parse_csv", "csvio.parse"),
    ("sppam.cli", "write_arff", "arff.write"),
    ("sppam.cli", "write_csv", "csvio.write"),
    ("sppam.cli", "transform", "transform"),
    ("sppam.cli", "compare_datasets", "evaluate.compare"),
    ("sppam.cli", "render_compare_text", "evaluate.render"),
    ("sppam.cli", "render_compare_csv", "evaluate.render"),
    ("sppam.cli", "render_eval_text", "evaluate.render"),
    ("sppam.cli", "render_eval_csv", "evaluate.render"),
    ("sppam.transform", "group_records", "transform.group"),
    ("sppam.transform", "derive_output_schema", "transform.schema"),
    ("sppam.evaluate", "cross_validate", "evaluate.cross_validate"),
    ("sppam.evaluate", "group_stratified_folds", "folds.assign"),
    ("sppam.evaluate", "matrix_from_pairs", "metrics.matrix"),
    ("sppam.evaluate", "classification_metrics", "metrics.classification"),
    ("sppam.evaluate", "average_metrics", "metrics.average"),
    ("sppam.evaluate", "corrected_t_test", "ttest"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _dataset_cells(dataset) -> int:
    return len(dataset.records) * len(dataset.schema)


def _parse_attrs(args, kwargs, result):
    return {"records": len(result.records), "bytes": _text_bytes(args[0])}


def _write_attrs(args, kwargs, result):
    return {"cells": _dataset_cells(args[0]), "bytes": _text_bytes(result)}


def _transform_attrs(args, kwargs, result):
    return {"records_in": len(args[0].records), "groups": len(result.records)}


def _folds_attrs(args, kwargs, result):
    k = result.k
    target = len(result.fold_of_record) / k
    sizes = collections.Counter(result.fold_of_record)
    worst = max(abs(sizes.get(f, 0) - target) for f in range(k))
    return {"max_size_dev_pct": 100.0 * worst / target}


def _pairs_attrs(args, kwargs, result):
    return {"pairs": result.total}


ATTRS = {
    "arff.parse": _parse_attrs,
    "csvio.parse": _parse_attrs,
    "arff.write": _write_attrs,
    "csvio.write": _write_attrs,
    "transform": _transform_attrs,
    "folds.assign": _folds_attrs,
    "metrics.matrix": _pairs_attrs,
}
# spans that also record how much the process's peak RSS grew inside them
RSS_SPANS = {"arff.parse", "csvio.parse", "transform"}


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs_fn=None, on_result=None):
        spans, open_, run_id = self.spans, self._open, self.run_id
        track_rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, None, run_id]
            index = len(spans)
            spans.append(span)
            open_.append(index)
            rss0 = _maxrss_kb() if track_rss else 0
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = _now()
                span[4] = {"error": 1}
                raise
            else:
                span[2] = _now()
            finally:
                open_.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            if track_rss:
                attrs["maxrss_delta_kb"] = _maxrss_kb() - rss0
            if attrs:
                span[4] = attrs
            return on_result(result, args, kwargs) if on_result else result

        return traced

    def install(self) -> None:
        for module_name, attr, name in CLI_WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), ATTRS.get(name)))

        classifiers = importlib.import_module("sppam.classifiers")

        def trace_model(model, args, kwargs):
            kind = args[0].lower()
            model.predict_index = self.wrap(f"classifiers.predict.{kind}", model.predict_index)
            return model

        def fit_attrs(args, kwargs, result):
            return {"train_records": len(args[1].records)}

        fit = classifiers.fit
        wrapped_by_kind = {}

        def traced_fit(kind, *args, **kwargs):
            key = kind.lower()
            if key not in wrapped_by_kind:
                wrapped_by_kind[key] = self.wrap(f"classifiers.fit.{key}", fit, fit_attrs, trace_model)
            return wrapped_by_kind[key](kind, *args, **kwargs)

        classifiers.fit = traced_fit

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.spans, out, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- SPPAM_ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, program_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(run_id)
    recorder.install()
    import sppam.cli

    main_fn = recorder.wrap("cli", sppam.cli.main)
    try:
        return main_fn(program_args)
    finally:
        recorder.dump(spans_path)


# ---------------------------------------------------------------- analysis


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def children_of(spans) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    return children


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cursor = 0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    children = children_of(spans)
    return [
        (span[2] - span[1])
        - covered_ns(span[1], span[2], [(spans[c][1], spans[c][2]) for c in children[i]])
        for i, span in enumerate(spans)
    ]


def nesting_errors(spans) -> list[str]:
    """Spans whose children do not fit inside their own duration."""
    errors = []
    for i, kids in enumerate(children_of(spans)):
        start, end = spans[i][1], spans[i][2]
        if any(spans[c][1] < start or spans[c][2] > end for c in kids):
            errors.append(f"span {i} ({spans[i][0]}): a child lies outside it")
        elif sum(spans[c][2] - spans[c][1] for c in kids) > end - start:
            errors.append(f"span {i} ({spans[i][0]}): children exceed its duration")
    return errors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
