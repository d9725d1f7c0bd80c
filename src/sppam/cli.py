"""Command-line front end.

Subcommands wire parsing, transformation, fold generation, evaluation and
dataset comparison into reproducible batch runs. Every subcommand is
deterministic for a given flag set; the seed defaults to 0. Every
diagnostic is a record on the ``sppam`` logger; ``main`` writes each one
to stderr as ``warning: ...`` or ``error: ...``. Exit codes: 1 parse
error, 2 configuration/usage error, 3 I/O error.

``transform`` hands the readers a ``transform.GroupFold``, so that each
block of records read goes into its group's cells and is dropped; with
``--sort-by`` it reads every record first, sorts, then folds them. Once
every error is raised, it writes the parts of the output text that
``transform.transform_text`` returns one after the other, encoding
``WRITE_SLICE_CHARS`` characters at a time, so that neither the joined
text nor its whole encoding is held. The input is read whole before the
output is opened, so the output may be the input file itself.

Each subcommand imports only the modules it runs: ``transform``,
``schema`` and ``--help`` load the data model, the readers and writers and
``transform``, never the classifiers, folds, metrics, t-test, evaluation
or generator modules.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from .arff import parse_arff, write_arff
from .csvio import parse_csv, write_csv
from .model import ConfigError, Dataset, ParseError, SppamError
from .transform import (
    GroupFold,
    TransformConfig,
    attribute_count,
    derive_output_schema,
    sort_records,
    transform,  # not called: bench/tracer.py wraps cli.transform
    transform_text,
)

EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
WRITE_SLICE_CHARS = 1 << 16  # characters of output text encoded at a time

log = logging.getLogger("sppam")

# Names of ``evaluate`` that the handlers call as this module's globals, so
# that a caller can replace them here first (bench/tracer.py wraps each).
# They are bound on first use: transform, schema and --help never import
# the evaluation modules.
_EVALUATE_HOOKS = (
    "compare_datasets",
    "render_compare_csv",
    "render_compare_text",
    "render_eval_csv",
    "render_eval_text",
)


def __getattr__(name: str):
    if name not in _EVALUATE_HOOKS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_evaluate_hooks()
    return globals()[name]


def _bind_evaluate_hooks() -> None:
    """Bind each of ``_EVALUATE_HOOKS`` that this module does not bind yet."""
    from . import evaluate

    for name in _EVALUATE_HOOKS:
        globals().setdefault(name, getattr(evaluate, name))


class _LevelPrefix(logging.Formatter):
    def format(self, record) -> str:
        return f"{record.levelname.lower()}: {record.getMessage()}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelPrefix())
    log.addHandler(handler)
    try:
        return args.handler(args)
    except (SppamError, OSError) as exc:
        log.error("%s", exc)
        if isinstance(exc, ParseError):  # a SppamError too
            return EXIT_PARSE
        return EXIT_CONFIG if isinstance(exc, SppamError) else EXIT_IO
    finally:
        log.removeHandler(handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sppam",
        description="Aggregate groups of correlated records and evaluate classifiers "
        "on original vs. transformed datasets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transform", help="collapse each pivot group into one record")
    p.add_argument("input")
    p.add_argument("--pivot", required=True, help="grouping attribute")
    p.add_argument("--class", dest="class_attr", required=True, help="class attribute")
    p.add_argument("--id", dest="id_attr", help="record id attribute")
    p.add_argument("--decimals", type=int,
                   help="round numeric output half-up to this many (>= 0) fractional digits")
    p.add_argument("--sort-by", help="stable pre-sort by this attribute")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("schema", help="show the derived output schema without data")
    p.add_argument("input")
    p.add_argument("--pivot", required=True)
    p.add_argument("--class", dest="class_attr", required=True)
    p.set_defaults(handler=_cmd_schema)

    p = sub.add_parser("folds", help="write a stratified fold assignment as CSV")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group-by", help="keep whole groups inside one fold")
    p.add_argument("--class", dest="class_attr", help="class attribute (default: last)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_folds)

    p = sub.add_parser("eval", help="cross-validate classifiers on one dataset")
    p.add_argument("input")
    p.add_argument("--class", dest="class_attr", required=True)
    p.add_argument("--classifiers", help="comma-separated classifier kinds")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--group-by")
    p.add_argument("--csv", action="store_true", help="machine-parsable output")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("compare", help="evaluate on original and transformed datasets")
    p.add_argument("original")
    p.add_argument("transformed")
    p.add_argument("--class", dest="class_attr", required=True)
    p.add_argument("--pivot", help="group attribute for folds on the original")
    p.add_argument("--classifiers")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("gen-surf", help="generate a synthetic surf-shaped dataset")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--days", type=int, default=48)
    p.add_argument("--per-day", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", choices=("record", "group-mean"), default="record")
    p.add_argument("--zero-days", type=int, default=18)
    p.add_argument("--flip-rate", type=float, default=0.15)
    p.set_defaults(handler=_cmd_gen_surf)

    return parser


def _format(path: str) -> str:
    """The dataset format that ``path``'s suffix names: ``.arff`` or ``.csv``."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".arff", ".csv"):
        raise ConfigError(f"cannot infer format of {path!r}; use a .arff or .csv extension")
    return suffix


def _load_dataset(path: str, string_columns=(), nominal_columns=(), fold=None) -> Dataset:
    """The dataset in ``path``, its records handed to ``fold`` as the
    readers take it, if given; a ParseError it raises names ``path``."""
    suffix = _format(path)
    try:
        text = _read_text(path)
        if suffix == ".arff":
            return parse_arff(text, fold=fold)
        return parse_csv(
            text,
            string_columns=tuple(c for c in string_columns if c),
            nominal_columns=tuple(c for c in nominal_columns if c),
            fold=fold,
        )
    except ParseError as exc:
        exc.path = path
        raise


def _read_text(path: str) -> str:
    """``path`` decoded as UTF-8 after an optional byte-order mark; a
    ParseError names the first byte that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # the file read whole, after any mark
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            line, f"input is not UTF-8: byte 0x{data[exc.start]:02x} cannot be decoded"
        ) from None


def _writer(path: str):
    """``write_arff`` or ``write_csv``, as ``path``'s suffix names, looked up in
    this module at call time."""
    return write_csv if _format(path) == ".csv" else write_arff


def _write_dataset(path: str, dataset: Dataset, decimals: int | None = None) -> None:
    Path(path).write_text(_writer(path)(dataset, decimals), encoding="utf-8")


def _split_kinds(text: str | None) -> list[str]:
    """The kinds that ``--classifiers`` names; all of them when it is not given."""
    from .classifiers import CLASSIFIER_KINDS, check_kind

    if text is None:
        return list(CLASSIFIER_KINDS)
    kinds = [kind.strip().lower() for kind in text.split(",") if kind.strip()]
    if not kinds:
        raise ConfigError("no classifiers given")
    return list(map(check_kind, kinds))


def _cmd_transform(args) -> int:
    write = _writer(args.output)  # before the input is read
    if args.decimals is not None and args.decimals < 0:
        raise ConfigError(f"--decimals must be 0 or more, got {args.decimals}")
    # the records go into their groups as they are read; --sort-by needs them all first
    fold = GroupFold(args.pivot)
    dataset = _load_dataset(
        args.input,
        string_columns=(args.pivot, args.id_attr),
        nominal_columns=(args.class_attr,),
        fold=None if args.sort_by else fold.start,
    )
    if args.sort_by:
        dataset = sort_records(dataset, args.sort_by)
        fold.fold_dataset(dataset)
        dataset = dataset.replace_records(())
    config = TransformConfig(args.pivot, args.class_attr, args.id_attr)
    _, class_index = config.resolve(dataset.schema)
    width, out_width = len(dataset.schema), attribute_count(dataset.schema, config)
    if write is write_csv and not fold.has_value(class_index):
        # parse_csv builds a nominal domain from the values it sees
        raise ConfigError(
            f"class attribute {args.class_attr!r} has no labelled record, so a CSV of it "
            "could not be read back; use a .arff output"
        )
    groups, parts = transform_text(
        dataset, config, functools.partial(write, decimals=args.decimals), fold
    )
    # every error is raised by now; each slice is encoded as it is written
    with open(args.output, "w", encoding="utf-8") as out:
        for part in parts:
            for start in range(0, len(part), WRITE_SLICE_CHARS):
                out.write(part[start:start + WRITE_SLICE_CHARS])
    print(f"{groups} groups, {width} -> {out_width} attributes")
    return 0


def _cmd_schema(args) -> int:
    dataset = _load_dataset(
        args.input,
        string_columns=(args.pivot,),
        nominal_columns=(args.class_attr,),
    )
    config = TransformConfig(args.pivot, args.class_attr)
    derived = derive_output_schema(dataset.schema, config)
    for attr in derived:
        domain = " {" + ", ".join(attr.values) + "}" if attr.kind == "nominal" else ""
        print(f"{attr.name}: {attr.kind}{domain}")
    count = attribute_count(dataset.schema, config)
    print(
        f"{count} attributes "
        "(1 class + 1 per string + 4 per numeric + domain size + 1 per nominal; "
        "every non-class nominal keeps its LAST column)"
    )
    return 0


def _cmd_folds(args) -> int:
    from .folds import group_stratified_folds

    if Path(args.output).suffix.lower() != ".csv":  # before the input is read
        raise ConfigError(f"folds are written as CSV; use a .csv extension for {args.output!r}")
    group_cols = (args.group_by,) if args.group_by else ()
    dataset = _load_dataset(
        args.input,
        string_columns=group_cols,
        nominal_columns=(args.class_attr,) if args.class_attr else (),
    )
    class_attr = args.class_attr or dataset.schema[-1].name
    assignment = group_stratified_folds(
        dataset, args.k, class_attr, args.group_by, seed=args.seed
    )
    lines = ["record_index,fold"]
    lines.extend(f"{i},{f}" for i, f in enumerate(assignment.fold_of_record))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(assignment.fold_of_record)} records -> {assignment.k} folds")
    return 0


def _cmd_eval(args) -> int:
    from .evaluate import cross_validate

    _bind_evaluate_hooks()
    group_cols = (args.group_by,) if args.group_by else ()
    dataset = _load_dataset(
        args.input,
        string_columns=group_cols,
        nominal_columns=(args.class_attr,),
    )
    results = cross_validate(
        dataset, _split_kinds(args.classifiers), args.class_attr, args.k, args.repeats,
        args.seed, group_attribute=args.group_by,
    )
    sys.stdout.write(render_eval_csv(results) if args.csv else render_eval_text(results))
    return 0


def _cmd_compare(args) -> int:
    _bind_evaluate_hooks()
    # a CSV carries no types: both files read the group keys as text, as an ARFF declares them
    original, transformed = (
        _load_dataset(path, string_columns=(args.pivot,), nominal_columns=(args.class_attr,))
        for path in (args.original, args.transformed)
    )
    report = compare_datasets(
        original,
        transformed,
        _split_kinds(args.classifiers),
        args.class_attr,
        k=args.k,
        repeats=args.repeats,
        seed=args.seed,
        group_attribute=args.pivot,
        alpha=args.alpha,
        original_name=Path(args.original).name,
        transformed_name=Path(args.transformed).name,
    )
    sys.stdout.write(render_compare_csv(report) if args.csv else render_compare_text(report))
    return 0


def _cmd_gen_surf(args) -> int:
    from .generator import gen_surf

    _format(args.output)  # before any record is generated
    dataset = gen_surf(
        days=args.days,
        per_day=args.per_day,
        seed=args.seed,
        labels=args.labels,
        zero_days=args.zero_days,
        flip_rate=args.flip_rate,
    )
    _write_dataset(args.output, dataset)
    print(f"wrote {len(dataset.records)} records over {args.days} days to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
