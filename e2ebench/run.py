"""End-to-end benchmark of the RMPI reproduction: a paper-table cell and a
served keep-alive load, with an optional traced run for per-layer numbers.

Run from the repository root::

    python3 e2ebench/run.py --workload cell-semi --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's public functions and reports the per-layer
metrics instead.  ``BENCHMARK.json`` at the repository root lists both
sets, why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Process age when this module starts running, so ``setup_s`` can count
# interpreter start-up and imports: /proc/self/stat field 22 is the start
# time in clock ticks since boot, /proc/uptime the seconds since boot.
_T0 = time.perf_counter()


def _process_age_at_t0() -> float:
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime", encoding="ascii") as handle:
        uptime = float(handle.read().split()[0])
    return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))


_AGE_AT_T0 = _process_age_at_t0()

# Tiny matrices: a second OpenBLAS thread only spins against the server
# process and the load generator on a two-core box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def process_age() -> float:
    return _AGE_AT_T0 + time.perf_counter() - _T0


def environment() -> str:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(environment(), file=sys.stderr)
    result = run_workload(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), process_age
    )
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
