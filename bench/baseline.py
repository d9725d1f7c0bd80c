"""Record a baseline: every workload at the default seed, untraced and traced.

    python3 bench/baseline.py > bench/BASELINE.md

Prints Markdown: the end-to-end metrics, one per-span share table per
workload, the layer rows of the ROADMAP Baseline table, and whether the
span with the largest self time is the one each workload was chosen for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# the layer each workload was chosen to stress, as a span-name prefix
PREDICTED_LARGEST = {
    "transform-daily": "arff.write",
    "transform-sites": "csvio.parse",
    "compare-surf": "classifiers.fit",
}
# ROADMAP Baseline rows: (row, workload, span, which time)
ROADMAP_ROWS = (
    ("parse_arff", "transform-daily", "arff.parse", "self"),
    ("parse_csv", "transform-sites", "csvio.parse", "self"),
    ("write_csv (unrounded)", "transform-sites", "csvio.write", "self"),
    ("write_arff --decimals 2 (rounded)", "transform-daily", "arff.write", "self"),
    ("transform (group + aggregate)", "transform-sites", "transform", "total"),
    ("cross_validate, 4 classifiers x 2 datasets", "compare-surf", "evaluate.cross_validate", "total"),
)


def run(workload: str, trace: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} --trace {trace} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {}
    for w in spec["workloads"]:
        runs[w["name"]] = (run(w["name"], 0, seconds), run(w["name"], 1, seconds))

    meta = next(iter(runs.values()))[0][0]
    print("# sppam benchmark baseline\n")
    print(f"Generated by `python3 bench/baseline.py` (seed 0, {seconds} s per run). "
          f"git {meta['git_sha']}, src sha256 {meta['src_sha256'][:12]}, "
          f"Python {meta['python']}, {meta['nproc']} CPUs.\n")

    print("## End to end (untraced)\n")
    names = [m["name"] for m in spec["end_to_end"]]
    print("| workload | input | " + " | ".join(names) + " | failed_ratio | chains | load before/after |")
    print("|" + " --- |" * (len(names) + 5))
    for workload, ((m, r), _) in runs.items():
        inputs = ", ".join(f"{k}: {v['records']} records, {v['bytes']} B" for k, v in m["inputs"].items())
        cells = [f"{r['metrics'][n]['value']:.4g} {r['metrics'][n]['unit']}" for n in names]
        load = f"{m['loadavg_before'][0]:.2f}/{m['loadavg_after'][0]:.2f}"
        print(f"| {workload} | {inputs} | " + " | ".join(cells)
              + f" | {r['failed'] / r['attempted']:.3g} | {m['chains']['untraced']} | {load} |")

    verdicts = []
    for workload, (_, (tm, tr)) in runs.items():
        table = tm["span_table"]
        wall = tr["metrics"]["trace.wall_s"]["value"]
        print(f"\n## {workload}: self time per span (traced, {tm['chains']['traced']} chains)\n")
        print(f"Traced chain wall {wall:.3f} s; untraced {wall - tr['metrics']['trace.overhead_s']['value']:.3f} s.\n")
        print("| span | calls | self s | share of wall | total s |")
        print("| --- | --- | --- | --- | --- |")
        for name, (self_s, total_s, calls) in sorted(table.items(), key=lambda kv: -kv[1][0]):
            print(f"| {name} | {calls:g} | {self_s:.4f} | {100 * self_s / wall:.1f} % | {total_s:.4f} |")
        outside = wall - sum(row[0] for row in table.values())
        print(f"| (outside spans: interpreter start, imports, exit) | | {outside:.4f} | {100 * outside / wall:.1f} % | |")
        by_layer: dict[str, float] = {}
        for name, row in table.items():
            layer = ".".join(name.split(".")[:2]) if name.startswith("classifiers.") else name
            by_layer[layer] = by_layer.get(layer, 0.0) + row[0]
        largest = max(by_layer, key=by_layer.get)
        expected = PREDICTED_LARGEST[workload]
        verdicts.append(f"- {workload}: largest self time is `{largest}` "
                        f"({100 * by_layer[largest] / wall:.1f} % of wall); predicted `{expected}`: "
                        + ("confirmed" if largest == expected else "MISMATCH"))

    print("\n## Predicted dominant layer\n")
    print("\n".join(verdicts))

    print("\n## ROADMAP Baseline rows\n")
    print("| layer | workload | workload input | time |")
    print("| --- | --- | --- | --- |")
    for row, workload, span, which in ROADMAP_ROWS:
        (m, _), (tm, _) = runs[workload]
        inputs = ", ".join(f"{v['records']} records" for v in m["inputs"].values())
        self_s, total_s, _ = tm["span_table"].get(span, [0.0, 0.0, 0])
        print(f"| `{row}` | {workload} | {inputs} | {self_s if which == 'self' else total_s:.3f} s ({which}) |")
    print("\n`write_arff` without rounding is on no workload's path.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
