"""The benchmark's workloads: a paper-table cell and a served load.

Every workload runs the same pipeline through the public entry points --
``build_full_benchmark`` -> ``make_model`` -> ``train_model`` ->
``evaluate_both`` for a cell, and a forked ``ServingServer`` driven over
keep-alive HTTP -- so every run reports every end-to-end metric.  The
workloads differ in which part of the cell dominates and in the graph
that is served (see ``design.json``):

* ``cell-semi``  -- NELL-995 v1.v3, semi-unseen test graph, RMPI-NE; the
  cell is mostly evaluation (per-sample scoring and fresh prepares).
* ``cell-fully`` -- NELL-995 v4.v3, fully-unseen test graph, RMPI-NE-TA
  with schema-initialised embeddings; the cell is mostly training.

Cells run on the same generated datasets in every run
(``DATASET_SEEDS``); the run seed seeds the served model and orders the
served traffic.

Functions are looked up on their modules at call time, so the tracer's
wrappers (``tracing.py``) see every call.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro.eval.protocol as protocol
import repro.experiments.runner as runner
import repro.kg.benchmarks as kg_benchmarks
import repro.train.trainer as trainer
from repro.train import TrainingConfig
from repro.utils.seeding import seeded_rng

FAMILY = "NELL-995"
SCALE = 0.2
NUM_NEGATIVES = 19
#: Recorded ``(mrr, auc_pr)`` may differ by this many points: float
#: round-off and the rank ties it can flip, never a different model.
QUALITY_TOLERANCE = 0.1
#: The datasets every run's cells cycle through, the same in every run:
#: cell cost and model quality vary a lot from one generated dataset to
#: the next, and run-to-run spread should show only run-to-run noise.
#: The run seed drives the served model and the served traffic instead.
DATASET_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class CellSpec:
    key: str
    train_version: int
    test_version: int
    model: str
    schema: bool
    fully: bool
    epochs: int
    triples_per_epoch: int


#: Open-loop offered rate (requests/s): below HEAD's keep-alive capacity
#: of about 42 requests/s on two connections, so the backlog stays bounded.
OPEN_LOOP_RATE = 24.0
OPEN_LOOP_REQUESTS = 200
CLOSED_LOOP_S = 3.0
TOPK_QUERIES = 30

SEMI = CellSpec("semi", 1, 3, "RMPI-NE", schema=False, fully=False, epochs=3, triples_per_epoch=300)
FULLY = CellSpec("fully", 4, 3, "RMPI-NE-TA", schema=True, fully=True, epochs=6, triples_per_epoch=300)

WORKLOADS: Dict[str, CellSpec] = {"cell-semi": SEMI, "cell-fully": FULLY}


@dataclass
class CellResult:
    seed: int
    seconds: float
    train_s: float
    train_triples: int
    eval_s: float
    mrr: float
    auc_pr: float
    counters: Dict[str, float]


def build(spec: CellSpec, seed: int):
    return kg_benchmarks.build_full_benchmark(
        FAMILY, spec.train_version, spec.test_version, scale=SCALE, seed=seed
    )


def eval_split(spec: CellSpec, bench):
    if spec.fully:
        return bench.fully_test_graph, bench.fully_test_triples
    return bench.semi_test_graph, bench.semi_test_triples


def new_model(spec: CellSpec, bench, seed: int):
    schema = runner.schema_vectors_for(bench.ontology, seed=seed) if spec.schema else None
    return runner.make_model(spec.model, bench.num_relations, seed=seed, schema_vectors=schema)


def eval_candidates(spec: CellSpec, bench, seed: int) -> int:
    """Triples ``evaluate_both`` scores: a positive and a negative per
    target for classification, plus every ranking candidate list."""
    graph, targets = eval_split(spec, bench)
    queries = protocol.build_ranking_queries(
        graph, targets, seeded_rng((seed, 2)), NUM_NEGATIVES
    )
    return 2 * len(targets) + sum(len(query) for query in queries)


def run_cell(spec: CellSpec, seed: int, tracer, root: str = "cell") -> CellResult:
    """One build -> train -> evaluate cell; ``root`` names its trace span."""
    # Every cell starts from a collected heap, so garbage left by the last
    # cell is not collected on this cell's clock.
    gc.collect()
    before = dict(tracer.counters)
    token = tracer.begin(root) if tracer.installed else None
    start = time.perf_counter()
    bench = build(spec, seed)
    model = new_model(spec, bench, seed)
    graph, targets = eval_split(spec, bench)
    config = TrainingConfig(
        epochs=spec.epochs, max_triples_per_epoch=spec.triples_per_epoch, seed=seed
    )
    trained = time.perf_counter()
    trainer.train_model(model, bench.train_graph, bench.train_triples, None, config)
    evaluated = time.perf_counter()
    report = protocol.evaluate_both(
        model, graph, targets, seed=seed, num_negatives=NUM_NEGATIVES
    )
    finish = time.perf_counter()
    if token is not None:
        tracer.end(token)
    counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
    return CellResult(
        seed=seed,
        seconds=finish - start,
        train_s=evaluated - trained,
        train_triples=spec.epochs * min(spec.triples_per_epoch, len(bench.train_triples)),
        eval_s=finish - evaluated,
        mrr=report.ranking.mrr,
        auc_pr=report.classification.auc_pr,
        counters=counters,
    )


def spin(seconds: float) -> None:
    """Busy-wait so the core leaves any idle state before timing."""
    stop = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < stop:
        total += sum(range(1000))


def recorded_quality(table: Dict[str, Dict[str, List[float]]], spec: CellSpec, seed: int) -> Tuple[float, float]:
    """The ``(mrr, auc_pr)`` recorded for dataset ``seed`` of ``spec``."""
    mrr, auc_pr = table[spec.key][str(seed)]
    return mrr, auc_pr


def generator_threads() -> int:
    """At most two load-generator connections, and never more than the
    cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))
