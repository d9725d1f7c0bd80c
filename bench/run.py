"""sppam benchmark: real CLI runs on seeded inputs, checked on every run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload transform-daily --seed 0 --seconds 35 --trace 0

Workloads (inputs come from ``bench/gen.py``, never from sppam itself):

* ``transform-daily``: ARFF surf observations, 4 per day, 2 % missing
  cells and mixed-class days, run through ``transform --decimals 2``.
  ARFF parsing and the rounded write carry this run.
* ``transform-sites``: CSV readings from many sites, interleaved
  round-robin, run through ``transform`` to a CSV. Groups are long and
  not contiguous and the output is tiny, so CSV parsing and type
  inference dominate and peak memory grows with the record count.
* ``compare-surf``: ARFF whose class follows each day's mean wave height,
  run through ``transform --decimals 2`` and then ``compare`` with all four
  classifiers. Folds, fit/predict and metrics carry this run.

With ``--trace 0`` the workload's CLI chain runs as plain ``python -m
sppam`` children, back to back, for ``--seconds``; the end-to-end metrics
are medians over those chains. ``setup_s`` is the median wall time of
repeated ``python -m sppam --help`` spawns. With ``--trace 1`` untraced and
traced chains alternate (see ``tracer.py``) and the per-layer metrics come
from the traced ones. Every chain's outputs are checked (``verify.py``);
with the default seed their sha256 must also match ``expected.json``.

Metric names and units are read from ``BENCHMARK.json``. The last line of
standard output is the JSON result; the line before it holds the run's
metadata (machine, load, seed, input sizes, output digests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402

DEFAULT_SEED = 0
SETUP_SPAWNS = 15  # at least this many --help spawns per run
SETUP_PER_CHAIN = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever it measures
CHILD_TIMEOUT_S = 150.0
KINDS = ("zeror", "oner", "naive-bayes", "decision-stump")

# Input sizes: the shapes of 200k-, 1M- and 20k-record workloads, scaled so
# one chain takes 1-2.5 s on a 2-core x86 machine and a run holds 10-30.
DAILY_DAYS = 7000  # 28k records, 4 per day
SITES, READINGS = 150, 1000  # 150k records, 1000 per site
# 751 days: 3004 records do not split evenly into 10 folds, so the
# achieved fold-size deviation is a real measurement
SURF_DAYS, COMPARE_REPEATS = 751, 2  # 3004 records, 4 per day


@dataclass
class Step:
    argv: list[str]
    name: str


@dataclass
class Plan:
    """One workload instantiated for a seed in a work directory."""

    inputs: list  # GenInfo per input file
    steps: list[Step]
    outputs: list[str]  # files whose sha256 identifies the chain's result
    check: object  # callable(work: Path) -> list of problems

    @property
    def records(self) -> int:
        return self.inputs[0].records


def _transform_argv(info, output: str, decimals: int | None) -> list[str]:
    argv = ["transform", info.path.name, "--pivot", info.columns[0].name, "--class", "Sets"]
    if decimals is not None:
        argv += ["--decimals", str(decimals)]
    return argv + ["-o", output]


def _transform_check(info, output: str, decimals):
    def check(work: Path) -> list[str]:
        out, err = (work / "transform.out").read_text(), (work / "transform.err").read_text()
        return verify.check_transform(work / output, info, decimals, out, err)
    return check


def plan_transform_daily(work: Path, seed: int) -> Plan:
    info = gen.daily_surf(work / "daily.arff", seed, DAILY_DAYS)
    step = Step(_transform_argv(info, "out.arff", 2), "transform")
    return Plan([info], [step], ["out.arff"], _transform_check(info, "out.arff", 2))


def plan_transform_sites(work: Path, seed: int) -> Plan:
    info = gen.interleaved_sites(work / "sites.csv", seed, SITES, READINGS)
    step = Step(_transform_argv(info, "out.csv", None), "transform")
    return Plan([info], [step], ["out.csv"], _transform_check(info, "out.csv", None))


def plan_compare_surf(work: Path, seed: int) -> Plan:
    info = gen.group_mean_surf(work / "surf.arff", seed, SURF_DAYS)
    compare = [
        "compare", "surf.arff", "daily.arff", "--class", "Sets", "--pivot", "Date",
        "--classifiers", ",".join(KINDS), "--k", "10",
        "--repeats", str(COMPARE_REPEATS), "--seed", str(seed),
    ]
    steps = [Step(_transform_argv(info, "daily.arff", 2), "transform"), Step(compare, "compare")]
    check_daily = _transform_check(info, "daily.arff", 2)

    def check(work: Path) -> list[str]:
        report = (work / "compare.out").read_text()
        return check_daily(work) + verify.check_compare(report, KINDS, "surf.arff", "daily.arff")
    return Plan([info], steps, ["daily.arff", "compare.out"], check)


WORKLOADS = {
    "transform-daily": plan_transform_daily,
    "transform-sites": plan_transform_sites,
    "compare-surf": plan_compare_surf,
}


# ------------------------------------------------------------ child processes


@dataclass
class Spawn:
    ok: bool
    wall_s: float
    maxrss_kb: int
    cpu_s: float
    detail: str = ""


class Spawner:
    """Client of ``spawner.py``, which runs each child and reports its
    wall time and ``os.wait4`` rusage."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path, timeout: float) -> Spawn:
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr),
                   "env": self.env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited early")
        r = json.loads(reply)
        detail = "" if r["code"] == 0 else f"exit {r['code']}" + (" (timeout)" if r["timed_out"] else "")
        return Spawn(r["code"] == 0, r["wall_s"], r["maxrss_kb"], r["cpu_s"], detail)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


@dataclass
class Chain:
    ok: bool
    wall_s: float = 0.0
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # one span list per traced step


def run_chain(spawn: Spawner, plan: Plan, work: Path, deadline: float,
              trace_id: str | None = None) -> Chain:
    for name in plan.outputs:
        (work / name).unlink(missing_ok=True)
    chain = Chain(ok=True)
    for step in plan.steps:
        argv = [sys.executable, "-m", "sppam", *step.argv]
        spans_path = work / f"{step.name}.spans.json"
        if trace_id is not None:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), trace_id, "--", *step.argv]
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        result = spawn(argv, work, work / f"{step.name}.out", work / f"{step.name}.err", timeout)
        chain.wall_s += result.wall_s
        chain.cpu_s += result.cpu_s
        chain.maxrss_kb = max(chain.maxrss_kb, result.maxrss_kb)
        if not result.ok:
            err = (work / f"{step.name}.err").read_text(errors="replace").strip()[-300:]
            chain.problems.append(f"{step.name}: {result.detail}: {err}")
            chain.ok, chain.failed = False, 1
            return chain
        if trace_id is not None:
            spans = tracer.load_spans(spans_path)
            chain.spans.append(spans)
            if any(span[5] != trace_id for span in spans):
                chain.problems.append(f"{step.name}: spans of another run in {spans_path.name}")
            chain.problems += [f"{step.name}: {e}" for e in tracer.nesting_errors(spans)]
    missing = [name for name in plan.outputs if not (work / name).is_file()]
    if missing:
        chain.problems.append(f"no output {missing} although every step exited 0")
        chain.ok, chain.failed = False, 1
        return chain
    chain.digests = {name: verify.sha256_file(work / name) for name in plan.outputs}
    return chain


# ------------------------------------------------------------------ metrics


def layer_metrics(chain: Chain, work: Path, plan: Plan) -> dict[str, float]:
    """Per-layer metrics of one traced chain (summed over its steps)."""
    m: dict[str, float] = {}

    def add(name, value):
        m[name] = m.get(name, 0) + value

    def peak(name, value):
        m[name] = max(m.get(name, 0), value)

    for spans in chain.spans:
        for span, self_ns in zip(spans, tracer.self_times_ns(spans)):
            name, attrs = span[0], span[4] or {}
            self_s = self_ns / 1e9
            add(f"{name.split('.')[0]}.errors", attrs.get("error", 0))
            if name.startswith(("classifiers.fit.", "classifiers.predict.")):
                _, op, kind = name.split(".", 2)
                add(f"classifiers.{op}.self_s.{kind}", self_s)
                if op == "fit":
                    add("classifiers.fit.calls", 1)
                    add("classifiers.fit.train_records", attrs.get("train_records", 0))
                else:
                    add("classifiers.predict.count", 1)
            elif name.startswith("metrics."):
                add("metrics.self_s", self_s)
                add("metrics.pairs", attrs.get("pairs", 0))
            elif name == "transform":
                add("transform.aggregate.self_s", self_s)
            elif name in ("evaluate.compare", "transform.schema"):
                pass  # reported only in the share table
            else:
                add(f"{name}.self_s", self_s)
            if name in ("folds.assign", "evaluate.cross_validate", "ttest"):
                add(f"{name}.calls", 1)
            for key in ("records", "bytes", "cells", "records_in", "groups"):
                if key in attrs:
                    add(f"{name}.{key}", attrs[key])
            if "maxrss_delta_kb" in attrs:
                peak(f"{name}.maxrss_delta_mb", attrs["maxrss_delta_kb"] / 1024)
            if "max_size_dev_pct" in attrs:
                peak("folds.max_size_dev_pct", attrs["max_size_dev_pct"])
    if plan.steps[0].argv[0] == "transform":
        mixed = verify.MIXED_WARNING.search((work / "transform.err").read_text())
        m["transform.mixed_groups"] = int(mixed.group(1)) if mixed else 0
    m["cli.invocations"] = len(plan.steps)
    return m


def span_table(chain: Chain) -> dict[str, list[float]]:
    """``{span name: [self s, total s, calls]}`` of one traced chain."""
    table: dict[str, list[float]] = {}
    for spans in chain.spans:
        for span, self_ns in zip(spans, tracer.self_times_ns(spans)):
            row = table.setdefault(span[0], [0.0, 0.0, 0])
            row[0] += self_ns / 1e9
            row[1] += (span[2] - span[1]) / 1e9
            row[2] += 1
    return table


def median_span_table(chains: list[Chain]) -> dict[str, list[float]]:
    tables = [span_table(c) for c in chains]
    names = {name for t in tables for name in t}
    return {n: [_median([t.get(n, [0, 0, 0])[i] for t in tables]) for i in range(3)] for n in sorted(names)}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def read_git_sha() -> str | None:
    """HEAD's commit from ``.git`` when the checkout is a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over ``src/`` file names and contents: which code ran."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------- main


def measure(spawn: Spawner, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    load_before = os.getloadavg()
    plan = WORKLOADS[workload](work, seed)
    problems: list[str] = []
    attempted = failed = 0

    setup: list[float] = []

    def setup_spawn() -> None:
        nonlocal attempted, failed
        result = spawn([sys.executable, "-m", "sppam", "--help"], work,
                       work / "help.out", work / "help.err", CHILD_TIMEOUT_S)
        attempted += 1
        if result.ok and (work / "help.out").read_text().startswith("usage: sppam"):
            setup.append(result.wall_s)
        else:
            failed += 1
            problems.append(f"--help: {result.detail or 'unexpected output'}")

    reference: dict | None = None
    untraced: list[Chain] = []
    traced: list[Chain] = []
    loop_start = time.monotonic()
    while True:
        # setup spawns are spread over the run, so that their median covers
        # the same machine conditions as the chains'
        for _ in range(0 if trace else SETUP_PER_CHAIN):
            setup_spawn()
        for tracing in ((False, True) if trace else (False,)):
            trace_id = f"{workload}-s{seed}-{len(traced)}" if tracing else None
            chain = run_chain(spawn, plan, work, deadline, trace_id)
            attempted += len(plan.steps)
            if chain.ok and reference is None:
                chain.problems += plan.check(work)
                reference = chain.digests
            elif chain.ok and chain.digests != reference:
                chain.problems.append(f"outputs differ from the first chain's: {chain.digests}")
            if chain.problems:
                failed += chain.failed or 1
                problems += chain.problems
            else:
                (traced if tracing else untraced).append(chain)
        elapsed = time.monotonic()
        if elapsed - loop_start >= seconds or elapsed > deadline - 30 or problems:
            break

    while not trace and len(setup) < SETUP_SPAWNS and not problems:
        setup_spawn()

    inputs = {i.path.name: verify.sha256_file(i.path) for i in plan.inputs}
    if seed == DEFAULT_SEED and reference is not None:
        pinned = check_pinned(workload, inputs, reference, work)
        failed += bool(pinned)
        problems += pinned

    spec = load_spec()
    if not trace:
        wall = _median([c.wall_s for c in untraced])
        values = {
            "wall_s": wall,
            "records_per_s": plan.records / wall if wall else 0.0,
            "peak_rss_mb": _median([c.maxrss_kb / 1024 for c in untraced]),
            "setup_s": _median(setup),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        per_chain = [layer_metrics(c, work, plan) for c in traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: _median([pc.get(name, 0) for pc in per_chain]) for name in units}
        values["cli.cpu_s"] = _median([c.cpu_s for c in untraced])
        values["trace.wall_s"] = _median([c.wall_s for c in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - _median([c.wall_s for c in untraced])
        extra = {name for pc in per_chain for name in pc} - set(units)
        if extra:
            problems.append(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "git_sha": read_git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "inputs": {i.path.name: {"records": i.records, "bytes": i.bytes, "groups": len(i.group_keys)}
                   for i in plan.inputs},
        "input_sha256": inputs,
        "output_sha256": reference,
        "chains": {"untraced": len(untraced), "traced": len(traced)},
        "setup_spawns": len(setup),
        "span_table": median_span_table(traced) if traced else None,
        "elapsed_s": time.monotonic() - started,
        "problems": problems[:20],
    }
    return {
        "meta": meta,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
        },
    }


def check_pinned(workload: str, inputs: dict, outputs: dict, work: Path) -> list[str]:
    """For the default seed: the inputs and outputs must be the pinned bytes."""
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as f:
        pinned = json.load(f)[workload]
    problems = []
    for kind, got in (("input", inputs), ("output", outputs)):
        if got != pinned[f"{kind}_sha256"]:
            problems.append(f"{kind} digests {got} differ from the pinned {pinned[f'{kind}_sha256']}")
    if "delta_lines" in pinned and (work / "compare.out").exists():
        got = verify.delta_lines((work / "compare.out").read_text())
        if got != pinned["delta_lines"]:
            problems.append(f"verdict lines {got} differ from the pinned {pinned['delta_lines']}")
    return problems


def print_summary(meta: dict, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"chains={meta['chains']} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_ratio':<40} {failed / attempted if attempted else 0.0:>16.6g} "
          f"({failed} of {attempted} invocations)")
    for problem in meta["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sppam" / "__init__.py").is_file():
        print(f"error: no sppam sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    spawn = Spawner()  # first, while this process is still small
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = measure(spawn, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        spawn.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print_summary(out["meta"], out["result"])
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
