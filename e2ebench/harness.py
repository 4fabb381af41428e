"""One benchmark run: set-up, the served load, then cells until the time
is up; correctness checks on every operation; metrics out."""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace
from typing import Callable, Dict, List

import numpy as np

import hostspeed
from benchstats import metric
from serving import (
    ServerProcess,
    TrafficMix,
    check_scores,
    check_topk,
    closed_loop,
    connections,
    latencies_from_due,
    open_loop,
    read_vm_hwm_mb,
)
from tracing import Tracer, layer_metrics
from workloads import (
    CLOSED_LOOP_S,
    DATASET_SEEDS,
    OPEN_LOOP_RATE,
    OPEN_LOOP_REQUESTS,
    QUALITY_TOLERANCE,
    TOPK_QUERIES,
    CellResult,
    CellSpec,
    build,
    eval_candidates,
    eval_split,
    generator_threads,
    new_model,
    recorded_quality,
    run_cell,
    spin,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(HERE, "traces")
#: Open-loop requests later than this behind schedule mean the backlog
#: grew instead of draining: the phase fails.
MAX_LATENESS_S = 0.5


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str,
    spec: CellSpec,
    seed: int,
    seconds: float,
    trace: bool,
    process_age: Callable[[], float],
) -> dict:
    seeds = list(DATASET_SEEDS)
    tracer = Tracer()
    if trace:
        tracer.install()
    attempted = 0
    failed = 0

    # ---------------- set-up (counted in setup_s) ----------------------
    builds: List[float] = []
    candidates: Dict[int, int] = {}
    for cell_seed in seeds:
        start = time.perf_counter()
        bench = build(spec, cell_seed)
        builds.append(time.perf_counter() - start)
        candidates[cell_seed] = eval_candidates(spec, bench, cell_seed)
        if cell_seed == seeds[0]:
            # The served model is seeded by the run seed; for schema
            # workloads this pretrains the schema.
            serve_model = new_model(spec, bench, seed)
            serve_model.eval()
            graph, targets = eval_split(spec, bench)
    spin(0.5)
    # One untimed cell per dataset: the first cells in a process run slow.
    warm: List[CellResult] = [run_cell(spec, cell_seed, tracer, root="warmup") for cell_seed in seeds]
    server = ServerProcess(serve_model, graph, tracer)
    try:
        mix = TrafficMix(graph, list(targets), seed)
        # Each phase opens fresh keep-alive connections: a connection's
        # delayed-ACK state carries over from earlier traffic, so reusing
        # one would make a phase's latency depend on the phase before it.
        with connections(server.port, 1) as (client,):
            warmup = [client.post("/score", {"triples": [list(t)]}) for t in mix.hot]
            warmup += [client.post("/score", mix.score_body()) for _ in range(8)]
            warmup += [client.post("/topk", mix.topk_body()) for _ in range(2)]
            stats_before = client.get("/stats").response
        attempted += len(warmup)
        failed += sum(o.status != 200 for o in warmup)
        # Builds and warm-up cells repeat once per dataset in set-up; each
        # counts once, at its median.
        warm_s = [cell.seconds for cell in warm]
        setup_s = process_age() - sum(builds + warm_s) + statistics.median(builds) + statistics.median(warm_s)

        # ---------------- measured: served load ------------------------
        measure_start = time.perf_counter()
        threads = generator_threads()
        if trace:
            server.command("dump")  # drop the warm-up's spans
        with connections(server.port, threads) as clients:
            open_out = open_loop(clients, mix.phase(mix.score_body, OPEN_LOOP_REQUESTS), OPEN_LOOP_RATE)
        with connections(server.port, threads) as clients:
            closed_out, closed_s = closed_loop(clients, mix, CLOSED_LOOP_S)
        with connections(server.port, 1) as (client,):
            stats_after = client.get("/stats").response
        # /topk is compute in the server process: the server probes its
        # host speed between queries, and each query is scaled by the
        # probes on either side of it.
        topk_out = []
        topk_probes = [server.command("probe")]
        with connections(server.port, 1) as (client,):
            for body in mix.phase(mix.topk_body, TOPK_QUERIES):
                topk_out.append(client.post("/topk", body))
                topk_probes.append(server.command("probe"))
        child_rss = server.peak_rss_mb()
        child_trace = server.command("dump") if trace else ([], {})
    finally:
        server.stop()

    requests = open_out + closed_out + topk_out
    attempted += len(requests)
    failed += sum(o.status != 200 for o in requests)
    failed += check_scores(serve_model, graph, open_out + closed_out)
    failed += check_topk(serve_model, graph, topk_out)
    open_ok = [o for o in open_out if o.status == 200]
    latency, lateness = latencies_from_due(open_ok)
    if max(lateness) > MAX_LATENESS_S:
        failed += 1

    # ---------------- measured: cells until the time is up -------------
    # Cells cycle through the run's datasets; every dataset runs at least
    # once, and in a traced run each traced cell follows an untraced cell
    # on the same dataset.
    deadline = measure_start + seconds
    cells: List[CellResult] = []
    untraced_cells: List[CellResult] = []
    # Cells run on one core, each between two host-speed probes on it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cell_probes = [hostspeed.probe()]
    while len(cells) < len(seeds) or time.perf_counter() + statistics.median(c.seconds for c in cells) < deadline:
        cell_seed = seeds[len(cells) % len(seeds)]
        if trace:
            tracer.uninstall()
            untraced_cells.append(run_cell(spec, cell_seed, tracer))
            tracer.install()
        cells.append(run_cell(spec, cell_seed, tracer))
        cell_probes.append(hostspeed.probe())
        last = cells[-1]
        print(
            f"cell seed={cell_seed} s={last.seconds:.3f} train_s={last.train_s:.3f} eval_s={last.eval_s:.3f}",
            file=sys.stderr,
        )
    # The first cell on each dataset must match the recorded quality;
    # every later cell on it must match that first cell exactly.
    reference = load_reference()
    first: Dict[int, CellResult] = {}
    for cell in warm + cells + untraced_cells:
        attempted += 1
        if cell.seed not in first:
            first[cell.seed] = cell
            mrr, auc_pr = recorded_quality(reference, spec, cell.seed)
            ok = abs(cell.mrr - mrr) <= QUALITY_TOLERANCE and abs(cell.auc_pr - auc_pr) <= QUALITY_TOLERANCE
        else:
            ok = (cell.mrr, cell.auc_pr) == (first[cell.seed].mrr, first[cell.seed].auc_pr)
        failed += 0 if ok else 1

    if trace:
        for outcome in open_ok + closed_out + topk_out:
            tracer.record("serve.request", outcome.sent, outcome.done, outcome.body.get("rid"))
        metrics = layer_metrics(
            tracer,
            child_trace,
            traced_cells=cells,
            score_outcomes=open_ok + closed_out,
            topk_outcomes=topk_out,
            latency=latency,
            lateness=lateness,
            failed_requests=sum(o.status != 200 for o in requests),
            attempted_requests=len(requests),
            server_stats=(stats_before, stats_after),
            server_rss_mb=child_rss,
        )
        overhead = statistics.median(c.seconds for c in cells) / statistics.median(
            c.seconds for c in untraced_cells
        )
        metrics["trace.overhead_pct"] = metric(100.0 * (overhead - 1.0), "%")
        _write_trace(name, seed, tracer, child_trace)
    else:
        quality = [first[cell_seed] for cell_seed in seeds]
        # Cell and /topk times at the reference host speed (hostspeed.py).
        at_reference = [
            replace(c, seconds=c.seconds * f, train_s=c.train_s * f, eval_s=c.eval_s * f)
            for c, f in zip(cells, (hostspeed.factor(cell_probes[i : i + 2]) for i in range(len(cells))))
        ]
        topk_s = [
            (o.done - o.sent) * hostspeed.factor(topk_probes[i : i + 2]) for i, o in enumerate(topk_out)
        ]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(max(read_vm_hwm_mb(os.getpid()), child_rss), "MB"),
            "cell_s": metric(per_dataset(at_reference, lambda c: c.seconds), "s"),
            "train_triples_per_s": metric(per_dataset(at_reference, lambda c: c.train_triples / c.train_s), "1/s"),
            "eval_candidates_per_s": metric(per_dataset(at_reference, lambda c: candidates[c.seed] / c.eval_s), "1/s"),
            "mrr": metric(statistics.mean(c.mrr for c in quality), "%"),
            "auc_pr": metric(statistics.mean(c.auc_pr for c in quality), "%"),
            "score_p50_ms": metric(1e3 * np.percentile(latency, 50), "ms"),
            "score_rps": metric(len(closed_out) / closed_s, "1/s"),
            "topk_p50_ms": metric(1e3 * statistics.median(topk_s), "ms"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_dataset(cells: List[CellResult], value: Callable[[CellResult], float]) -> float:
    """Mean over the run's datasets of each dataset's median cell value, so
    every dataset weighs the same however many cells the time allowed."""
    by_seed: Dict[int, List[float]] = {}
    for cell in cells:
        by_seed.setdefault(cell.seed, []).append(value(cell))
    return statistics.mean(statistics.median(values) for values in by_seed.values())


def _write_trace(name: str, seed: int, tracer: Tracer, child_trace) -> None:
    """Spans are held in memory during the run and written out once."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    child_spans, child_counters = child_trace
    payload = {
        "workload": name,
        "seed": seed,
        "fields": ["id", "parent", "name", "start", "end", "request_id"],
        "benchmark": {"spans": tracer.spans, "counters": dict(tracer.counters)},
        "server": {"spans": child_spans, "counters": child_counters},
    }
    with open(os.path.join(TRACE_DIR, f"{name}-seed{seed}.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
