"""Out-of-program tracing: spans and counters recorded by wrapping each
layer's public functions where their callers look them up.

Nothing inside ``src/`` is changed.  :meth:`Tracer.install` replaces e.g.
``repro.core.model.extract_subgraphs_many`` (the name ``RMPI.prepare_many``
resolves at call time) with a wrapper that records a span and counters,
and :meth:`Tracer.uninstall` puts every original back, so untraced code
runs with no wrapper at all.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from benchstats import metric, require_percentile, self_times

#: One recorded span: (id, parent id, name, start, end, request id).
Span = Tuple[int, Optional[int], str, float, float, Optional[int]]

#: Spans that only group other spans; their self time is unattributed.
UMBRELLAS = frozenset({"cell", "warmup", "train.fit", "eval.both", "serve.request"})


class Tracer:
    """Span and counter recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counters = defaultdict(float)

    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[int] = None) -> Tuple[int, Optional[int], str, float, Optional[int]]:
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = parent_rid if rid is None else rid
        stack.append((sid, rid))
        return sid, parent, name, time.perf_counter(), rid

    def end(self, token: Tuple[int, Optional[int], str, float, Optional[int]]) -> None:
        finish = time.perf_counter()
        sid, parent, name, start, rid = token
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, parent, name, start, finish, rid))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def record(self, name: str, start: float, finish: float, rid: Optional[int] = None) -> None:
        """Add a finished root span timed by the caller (client requests)."""
        with self._lock:
            self.spans.append((next(self._ids), None, name, start, finish, rid))

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        rid_of: Optional[Callable[[tuple], Optional[int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``after`` sees the call's arguments and result, to record counters.
        Methods are wrapped on the class that defines them, so a refactor
        that moves one fails here loudly.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = tracer.begin(name, rid_of(args) if rid_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(token)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if not self._patches:
            for patch in layer_patches():
                self.wrap(*patch)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
def _after_extract(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("subgraph.extract_calls")
    tracer.count("subgraph.subgraphs", len(result))
    tracer.count("subgraph.empty", sum(1 for subgraph in result if subgraph.is_empty))


def _after_prepared(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.prepared_keys", len(result))


def _after_prepare(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.prepared_misses", len(result))


def _after_score_sample(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.score_sample_calls")


def _after_fused(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.fused_calls")
    tracer.count("core.fused_samples", result.data.shape[0])


def _after_step(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("train.steps")


def _handle_rid(args: tuple) -> Optional[int]:
    # ServingApp.handle(self, method, path, payload): the load generator
    # puts its request id in the JSON body, which the server ignores.
    payload = args[3] if len(args) > 3 else None
    rid = payload.get("rid") if isinstance(payload, dict) else None
    return rid if isinstance(rid, int) else None


def layer_patches() -> list:
    """``(owner, attr, span name, after, rid_of)`` for every traced boundary,
    named after the layer (package) that owns the function."""
    import repro.core.batching as batching
    import repro.core.model as model
    import repro.eval.protocol as protocol
    import repro.experiments.runner as runner
    import repro.kg.benchmarks as kg_benchmarks
    import repro.train.trainer as trainer
    from repro.autograd.optim import Adam
    from repro.autograd.tensor import Tensor
    from repro.core.base import SubgraphScoringModel
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.serve.server import ServingApp
    from repro.serve.session import InferenceSession

    return [
        (kg_benchmarks, "build_full_benchmark", "kg.build", None, None),
        (runner, "schema_vectors_for", "schema.pretrain", None, None),
        (model, "extract_subgraphs_many", "subgraph.extract", _after_extract, None),
        (model, "build_relational_graphs_many", "subgraph.linegraph", None, None),
        (model, "build_message_plans_many", "subgraph.plan", None, None),
        (SubgraphScoringModel, "prepared_many", "core.prepared", _after_prepared, None),
        (model.RMPI, "prepare_many", "core.prepare", _after_prepare, None),
        (model.RMPI, "score_sample", "core.score_sample", _after_score_sample, None),
        (model.RMPI, "score_samples_batched", "core.fused", _after_fused, None),
        (batching, "merge_plans", "core.merge", None, None),
        (Tensor, "backward", "autograd.backward", None, None),
        (Adam, "step", "autograd.optim", _after_step, None),
        (trainer, "clip_grad_norm", "autograd.optim", None, None),
        (trainer, "negative_triples", "train.negatives", None, None),
        (trainer, "train_model", "train.fit", None, None),
        (protocol, "evaluate_both", "eval.both", None, None),
        (protocol, "build_ranking_queries", "eval.queries", None, None),
        (protocol, "evaluate_triple_classification", "eval.classify", None, None),
        (protocol, "evaluate_entity_prediction", "eval.rank", None, None),
        (ServingApp, "handle", "serve.handle", None, _handle_rid),
        (MicroBatchScheduler, "score_sync", "serve.score_sync", None, None),
        (InferenceSession, "score", "serve.session_score", None, None),
    ]


# ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(statistics.mean(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    child_trace,
    traced_cells,
    score_outcomes,
    topk_outcomes,
    latency,
    lateness,
    failed_requests: int,
    attempted_requests: int,
    server_stats: Tuple[dict, dict],
    server_rss_mb: float,
) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of a traced run.

    Cell-side layers are seconds (or counts) per traced cell, from the
    spans under each ``cell`` root.  Serving layers are mean milliseconds
    per ``/score`` request (means, so handle + http adds up to the client's
    latency), from the server's spans joined to the generator's requests
    by request id.  Score-cache and batching ratios are deltas of the
    server's own ``GET /stats`` counters across the ``/score`` phases
    (``server_stats`` = before, after).  A layer the workload never calls
    reads 0.
    """
    spans = tracer.spans
    by_id = {span[0]: span for span in spans}
    selfs = self_times((s[0], s[1], s[3], s[4]) for s in spans)

    def root(span: Span) -> Span:
        while span[1] is not None and span[1] in by_id:
            span = by_id[span[1]]
        return span

    in_cells = [s for s in spans if root(s)[2] == "cell" and s[2] != "cell"]
    cell_roots = [s for s in spans if s[2] == "cell"]
    n = max(1, len(cell_roots))

    def per_cell(name: str, self_only: bool = False) -> float:
        return sum(selfs[s[0]] if self_only else s[4] - s[3] for s in in_cells if s[2] == name) / n

    counts: Dict[str, float] = defaultdict(float)
    for cell in traced_cells:
        for key, value in cell.counters.items():
            counts[key] += value

    child_spans, _child_counters = child_trace
    handle = {s[5]: s[4] - s[3] for s in child_spans if s[2] == "serve.handle" and s[5] is not None}
    batches = sorted((s[3], s[4]) for s in child_spans if s[2] == "serve.session_score")
    served = [o for o in score_outcomes if o.body.get("rid") in handle]
    score_rids = {o.body["rid"] for o in served}
    # A request's InferenceSession.score call runs on the scheduler thread:
    # it is the last one that starts and ends inside its score_sync span.
    queue_wait, session_score = [], []
    for s in child_spans:
        if s[2] != "serve.score_sync" or s[5] not in score_rids:
            continue
        inside = [b for b in batches if b[0] >= s[3] and b[1] <= s[4]]
        if inside:
            start, end = max(inside, key=lambda b: b[1])
            queue_wait.append((s[4] - s[3]) - (end - start))
            session_score.append(end - start)

    requests = list(score_outcomes) + list(topk_outcomes)
    request_s = sum(o.done - o.sent for o in requests)
    handled_s = sum(handle.get(o.body.get("rid"), 0.0) for o in requests)
    cell_s = sum(s[4] - s[3] for s in cell_roots)
    attributed_s = sum(selfs[s[0]] for s in in_cells if s[2] not in UMBRELLAS)
    builds = [s[4] - s[3] for s in spans if s[2] == "kg.build"]
    subgraphs = counts["subgraph.subgraphs"]
    keys = counts["core.prepared_keys"]
    fused = counts["core.fused_calls"]
    before, after = server_stats

    def delta(part: str, key: str) -> float:
        return float(after[part][key] - before[part][key])

    hits = delta("cache", "hits")
    lookups = hits + delta("cache", "misses")
    batched = delta("scheduler", "batches")

    return {
        "kg.build_s": metric(_median(builds), "s"),
        "schema.pretrain_s": metric(sum(s[4] - s[3] for s in spans if s[2] == "schema.pretrain"), "s"),
        "subgraph.extract_s": metric(per_cell("subgraph.extract"), "s"),
        "subgraph.extract_calls": metric(counts["subgraph.extract_calls"] / n, "count"),
        "subgraph.subgraphs": metric(subgraphs / n, "count"),
        "subgraph.empty_ratio": metric(counts["subgraph.empty"] / subgraphs if subgraphs else 0.0, "ratio"),
        "subgraph.linegraph_s": metric(per_cell("subgraph.linegraph"), "s"),
        "subgraph.plan_s": metric(per_cell("subgraph.plan"), "s"),
        "core.prepare_self_s": metric(per_cell("core.prepare", self_only=True), "s"),
        "core.sample_cache_hit_ratio": metric(1.0 - counts["core.prepared_misses"] / keys if keys else 0.0, "ratio"),
        "core.score_sample_calls": metric(counts["core.score_sample_calls"] / n, "count"),
        "core.score_sample_s": metric(per_cell("core.score_sample"), "s"),
        "core.fused_calls": metric(fused / n, "count"),
        "core.fused_batch_mean": metric(counts["core.fused_samples"] / fused if fused else 0.0, "count"),
        "core.fused_s": metric(per_cell("core.fused", self_only=True), "s"),
        "core.merge_s": metric(per_cell("core.merge"), "s"),
        "autograd.backward_s": metric(per_cell("autograd.backward"), "s"),
        "autograd.optim_s": metric(per_cell("autograd.optim"), "s"),
        "train.steps": metric(counts["train.steps"] / n, "count"),
        "train.negatives_s": metric(per_cell("train.negatives"), "s"),
        "eval.queries_s": metric(per_cell("eval.queries"), "s"),
        "eval.classify_s": metric(per_cell("eval.classify"), "s"),
        "eval.rank_s": metric(per_cell("eval.rank"), "s"),
        "serve.handle_ms": metric(1e3 * _mean(handle[o.body["rid"]] for o in served), "ms"),
        "serve.http_ms": metric(1e3 * _mean((o.done - o.sent) - handle[o.body["rid"]] for o in served), "ms"),
        "serve.queue_wait_ms": metric(1e3 * _mean(queue_wait), "ms"),
        "serve.session_score_ms": metric(1e3 * _mean(session_score), "ms"),
        "serve.batch_mean": metric(delta("scheduler", "requests") / batched if batched else 0.0, "count"),
        "serve.cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "serve.rss_mb": metric(server_rss_mb, "MB"),
        "serve.failed": metric(failed_requests / attempted_requests if attempted_requests else 0.0, "ratio"),
        "serve.score_p90_ms": metric(1e3 * require_percentile(latency, 90), "ms"),
        "serve.lateness_p90_ms": metric(1e3 * np.percentile(lateness, 90), "ms"),
        "trace.cells": metric(len(cell_roots), "count"),
        "trace.requests": metric(len(requests), "count"),
        "trace.attributed_pct": metric(100.0 * (attributed_s + handled_s) / (cell_s + request_s), "%"),
    }
