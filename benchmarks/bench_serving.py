"""Serving-layer microbenchmark: sequential vs micro-batched throughput.

Measures steady-state online query throughput (queries/sec) through the
:class:`~repro.serve.scheduler.MicroBatchScheduler` on a generated KG:

* **sequential** — ``max_batch_size=1``: every request becomes its own
  model call (the no-coalescing baseline);
* **micro-batched** — requests coalesce into fused batched
  ``score_triples`` calls (the serving default).

Both arms share one warmed :class:`InferenceSession` (score cache
disabled, sample caches warm — the pinned-graph steady state a serving
process runs in), so the measured difference is pure scoring-path cost:
per-call overhead, paid per request or once per coalesced fused forward.
The gate asserts micro-batching reaches ``REPRO_BENCH_MIN_SERVING_SPEEDUP``
(default 2) times the sequential throughput.
"""

import os

import numpy as np

from repro.benchmarks.timing import timed
from repro.core import RMPI, RMPIConfig
from repro.experiments import bench_settings, format_table
from repro.kg import build_partial_benchmark, ranking_candidates
from repro.serve import InferenceSession, MicroBatchScheduler, ModelRegistry
from repro.utils.seeding import seeded_rng


def _serving_workload(bench, num_queries=4, num_negatives=29):
    """Online ranking traffic: per query, the truth + corruptions of one
    side — the candidate lists a /topk endpoint scores."""
    graph = bench.train_graph
    rng = seeded_rng(0)
    pool = sorted(graph.triples.entities())
    queries = list(bench.test_triples)[:num_queries] or list(bench.train_triples)[:num_queries]
    workload = []
    for i, query in enumerate(queries):
        workload.extend(
            ranking_candidates(
                query,
                graph.num_entities,
                rng,
                num_negatives=num_negatives,
                candidate_entities=pool,
                corrupt_head=bool(i % 2),
            )
        )
    return graph, workload


def _drive(session, workload, max_batch_size, max_wait_ms):
    """One timed pass: submit every triple as its own request, wait for all."""
    scheduler = MicroBatchScheduler(
        session, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms
    )

    def drive():
        futures = [scheduler.submit([triple]) for triple in workload]
        for future in futures:
            future.result(timeout=120)

    with scheduler:
        elapsed, _ = timed(drive, "bench.serving.drive")
    return elapsed, scheduler.stats


def test_perf_micro_batched_serving_throughput(emit):
    settings = bench_settings()
    bench = build_partial_benchmark("FB15k-237", 2, scale=settings.scale, seed=settings.seed)
    graph, workload = _serving_workload(bench)

    registry = ModelRegistry()
    registry.register(
        "rmpi",
        RMPI(bench.num_relations, seeded_rng(0), RMPIConfig(embed_dim=16, dropout=0.0)),
    )
    # Score cache off: measure the scoring path, not repeated-query caching.
    session = InferenceSession(registry, graph, cache_size=0)
    session.score(workload)  # steady state: samples prepared, indices warm

    repeats = int(os.environ.get("REPRO_BENCH_SERVING_REPEATS", "3"))
    best_seq, best_batched = float("inf"), float("inf")
    seq_stats = batched_stats = None
    for _ in range(repeats):
        elapsed, stats = _drive(session, workload, max_batch_size=1, max_wait_ms=0.0)
        if elapsed < best_seq:
            best_seq, seq_stats = elapsed, stats
        elapsed, stats = _drive(session, workload, max_batch_size=64, max_wait_ms=5.0)
        if elapsed < best_batched:
            best_batched, batched_stats = elapsed, stats

    queries = len(workload)
    qps_seq = queries / best_seq
    qps_batched = queries / best_batched
    speedup = qps_batched / qps_seq
    table = format_table(
        ["mode", "queries/s", "model calls", "largest batch"],
        [
            ["sequential", f"{qps_seq:.0f}", seq_stats.dispatches, seq_stats.largest_batch_triples],
            ["micro-batched", f"{qps_batched:.0f}", batched_stats.dispatches, batched_stats.largest_batch_triples],
            ["speedup", f"{speedup:.2f}x", "", ""],
        ],
        title=f"serving throughput ({queries} queries, fused scoring)",
    )
    emit("serving_throughput", table)

    assert batched_stats.dispatches < seq_stats.dispatches, "no coalescing happened"
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SERVING_SPEEDUP", "2"))
    assert speedup >= min_speedup, (
        f"micro-batched serving {qps_batched:.0f} q/s is only {speedup:.2f}x "
        f"sequential {qps_seq:.0f} q/s (floor {min_speedup}x)"
    )
