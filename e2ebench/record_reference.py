"""Record the cell quality the benchmark checks every run against.

    python3 e2ebench/record_reference.py

Writes ``e2ebench/reference.json``: ``{cell: {dataset seed: [mrr, auc_pr]}}``
for each cell setting and each dataset the runs cycle through.  Re-record
only when a change is meant to alter model quality, and say so in the
change.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from harness import REFERENCE  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DATASET_SEEDS, FULLY, SEMI, run_cell  # noqa: E402


def main() -> int:
    table = {}
    for spec in (SEMI, FULLY):
        table[spec.key] = {}
        for seed in DATASET_SEEDS:
            cell = run_cell(spec, seed, Tracer())
            table[spec.key][str(seed)] = [cell.mrr, cell.auc_pr]
            print(spec.key, seed, cell.mrr, cell.auc_pr, file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
