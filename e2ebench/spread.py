"""Run-to-run spread of the end-to-end metrics, the benchmark's acceptance
rule: for each workload, run it once per seed and report, per metric, the
median and the inter-quartile distance as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.

    python3 e2ebench/spread.py --seeds 0-9 [--workload cell-semi] [--log runs.jsonl]

Run from the repository root.  Exits 1 if a spread exceeds its bound or
a run reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchstats import quartile_spread  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--log", help="append every run's result line here (JSON lines)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a", encoding="utf-8") as log:
                    log.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        print(f"== {name} ({len(args.seeds)} seeds)")
        for metric, series in values.items():
            spread = quartile_spread(series)
            within = spread <= bounds[metric]
            ok = ok and within
            print(
                f"  {metric:24s} median {statistics.median(series):12.5g}  "
                f"spread {spread:6.3f}  bound {bounds[metric]:.3f}  "
                f"{'ok' if within else 'OVER'}{'  (< bound/3)' if spread < bounds[metric] / 3 else ''}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
