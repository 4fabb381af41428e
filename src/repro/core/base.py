"""Shared machinery for subgraph-scoring models.

Every model in this repository (RMPI variants, GraIL, TACT, CoMPILE) scores
a candidate triple from a subgraph extracted around it.  This module gives
them a common API:

* ``prepare(graph, triple)``      — model-specific sample construction
  (extraction, transformation, plan compilation), memoised per
  ``(graph, triple)`` because training revisits the same positives across
  epochs;
* ``score_batch_fused(graph, triples)`` — differentiable ``(n, 1)``
  scores through the model's batched forward (training's entry point);
* ``score_triples(graph, triples)`` — the same forward as plain
  ``np.ndarray`` scores in eval mode under ``no_grad`` (the one scoring
  path of evaluation, parallel evaluation and serving).

RMPI overrides ``score_batch_fused`` with one merged message-passing pass
over the disjoint union of the batch's plans; the other models fall back to
``score_batch``, one ``score_sample`` forward per prepared sample.  The
fused forward's round-off depends on batch composition, so callers that
promise bitwise parity (serial vs parallel evaluation) score identical
batches on both sides.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.autograd import Module, Tensor, no_grad, ops
from repro.autograd.engine import SCORE_DTYPE
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.obs import get_registry

#: Per-process sequence for model metric namespaces.  Models are
#: constructed before any fork, so a namespace assigned here names the
#: same model in every worker — which is what lets the pool merge
#: worker-side scoring counts back into the parent's metrics.
_MODEL_SEQ = itertools.count()


class ScoringStats:
    """Compatibility shim over the :mod:`repro.obs` metrics registry.

    Counts how work arrives at a model: ``batch_calls`` is the number of
    batched scoring invocations, ``triples_scored`` the total triples across
    them, ``largest_batch`` the biggest single call.  The serving layer's
    micro-batching scheduler is validated against these counters (N
    coalesced requests must show up as *one* ``batch_calls`` increment).

    The counts live in the process-wide registry under
    ``model.<namespace>.*`` (counters for the first two, a high-water
    gauge for ``largest_batch``), so the same numbers surface on the
    serving ``GET /metrics`` endpoint — including work done inside
    ``repro.parallel`` worker processes, whose registry deltas merge back
    under the identical names.  The attribute API is unchanged from the
    pre-registry dataclass; prefer :meth:`snapshot` deltas over
    :meth:`reset` when asserting on a model shared across tests.
    """

    __slots__ = ("namespace",)

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace

    def record(self, batch_size: int) -> None:
        registry = get_registry()
        registry.counter(f"{self.namespace}.batch_calls").inc()
        registry.counter(f"{self.namespace}.triples_scored").inc(batch_size)
        registry.gauge(f"{self.namespace}.largest_batch").set_max(batch_size)

    @property
    def batch_calls(self) -> int:
        return int(get_registry().counter_value(f"{self.namespace}.batch_calls"))

    @property
    def triples_scored(self) -> int:
        return int(
            get_registry().counter_value(f"{self.namespace}.triples_scored")
        )

    @property
    def largest_batch(self) -> int:
        return int(get_registry().gauge_value(f"{self.namespace}.largest_batch"))

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy — subtract two snapshots to assert on the
        work a specific code path did, without resetting shared state."""
        return {
            "batch_calls": self.batch_calls,
            "triples_scored": self.triples_scored,
            "largest_batch": self.largest_batch,
        }

    def reset(self) -> None:
        """Zero only this model's namespace in the process registry."""
        get_registry().reset(prefix=f"{self.namespace}.")


class SubgraphScoringModel(Module):
    """Base class: memoised prepare + batch scoring over subgraph samples."""

    def __init__(self) -> None:
        super().__init__()
        self._sample_cache: Dict[Tuple[int, Triple], Any] = {}
        self._cached_graphs: Dict[int, KnowledgeGraph] = {}
        self.scoring_stats = ScoringStats(f"model.m{next(_MODEL_SEQ)}")

    # ------------------------------------------------------------------
    def prepare(self, graph: KnowledgeGraph, triple: Triple) -> Any:
        """Build the model-specific sample for ``triple`` in ``graph``."""
        raise NotImplementedError

    def prepare_many(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> List[Any]:
        """Batched :meth:`prepare`, order-aligned with ``triples``.

        The default delegates to per-triple :meth:`prepare`; models whose
        sample construction starts with subgraph extraction override this to
        route the whole batch through
        :func:`repro.subgraph.extraction.extract_subgraphs_many`, which
        shares K-hop frontiers across candidates of one ranking query.
        """
        return [self.prepare(graph, triple) for triple in triples]

    def _prepare_from_enclosing(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        num_hops: int,
        build,
    ) -> List[Any]:
        """Shared ``prepare_many`` template for enclosing-subgraph models:
        batch-extract, then call ``build(triple, subgraph)`` per item."""
        from repro.subgraph.extraction import extract_subgraphs_many

        triples = list(triples)
        subgraphs = extract_subgraphs_many(graph, triples, num_hops)
        return [build(triple, subgraph) for triple, subgraph in zip(triples, subgraphs)]

    def _prepare_from_relational(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        num_hops: int,
        build,
    ) -> List[Any]:
        """Shared ``prepare_many`` template for relation-view models:
        batch-extract, batch-transform to relation view (one shared numpy
        pass across the candidate list), then call
        ``build(triple, subgraph, relational)`` per item."""
        from repro.subgraph.extraction import extract_subgraphs_many
        from repro.subgraph.linegraph import build_relational_graphs_many

        triples = list(triples)
        subgraphs = extract_subgraphs_many(graph, triples, num_hops)
        relationals = build_relational_graphs_many(subgraphs)
        return [
            build(triple, subgraph, relational)
            for triple, subgraph, relational in zip(triples, subgraphs, relationals)
        ]

    def score_sample(self, sample: Any) -> Tensor:
        """Differentiable score of one prepared sample, shape ``(1, 1)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def prepared(self, graph: KnowledgeGraph, triple: Triple) -> Any:
        """Memoised :meth:`prepare` (keyed on graph identity + triple)."""
        return self.prepared_many(graph, [triple])[0]

    def prepared_many(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> List[Any]:
        """Memoised batch prepare: only cache misses hit :meth:`prepare_many`."""
        triples = list(triples)
        keys = [(id(graph), tuple(int(x) for x in triple)) for triple in triples]  # repro-lint: disable=RL003 _cached_graphs pins the graph so its id cannot be recycled
        missing: Dict[Tuple[int, Triple], Triple] = {
            key: key[1]
            for key in keys
            if key not in self._sample_cache
        }
        if missing:
            samples = self.prepare_many(graph, list(missing.values()))
            for key, sample in zip(missing, samples):
                self._sample_cache[key] = sample
            # Keep the graph alive so id() keys stay unambiguous.
            self._cached_graphs[id(graph)] = graph  # repro-lint: disable=RL003 this line IS the pin backing the id() keys
        return [self._sample_cache[key] for key in keys]

    def install_samples(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        samples: Sequence[Any],
    ) -> None:
        """Insert externally prepared ``samples`` into the memoised cache.

        The parallel layer's :class:`~repro.parallel.prepare.ShardedPreparer`
        prepares shards in worker processes and installs the merged results
        here, so subsequent (serial) scoring calls hit the cache exactly as
        if :meth:`prepared_many` had built them.
        """
        if len(triples) != len(samples):
            raise ValueError(
                f"{len(triples)} triples but {len(samples)} samples"
            )
        for triple, sample in zip(triples, samples):
            key = (id(graph), tuple(int(x) for x in triple))  # repro-lint: disable=RL003 _cached_graphs pins the graph so its id cannot be recycled
            self._sample_cache[key] = sample
        if len(triples):
            self._cached_graphs[id(graph)] = graph  # repro-lint: disable=RL003 this line IS the pin backing the id() keys

    def clear_cache(self) -> None:
        self._sample_cache.clear()
        self._cached_graphs.clear()

    def cache_size(self) -> int:
        return len(self._sample_cache)

    # ------------------------------------------------------------------
    def score_batch(self, graph: KnowledgeGraph, triples: Sequence[Triple]) -> Tensor:
        """Differentiable scores for a batch, shape ``(n, 1)``."""
        scores: List[Tensor] = [
            self.score_sample(sample) for sample in self.prepared_many(graph, triples)
        ]
        if len(scores) == 1:
            return scores[0]
        return ops.concat(scores, axis=0)

    def score_batch_fused(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> Tensor:
        """Differentiable batched scores, shape ``(n, 1)``.

        The generic fallback is :meth:`score_batch` — batched (memoised)
        prepare followed by per-sample scoring.  Models with a true
        disjoint-union fused forward (RMPI) override this with a single
        merged message-passing pass.
        """
        return self.score_batch(graph, triples)

    def score_triples(self, graph: KnowledgeGraph, triples: Sequence[Triple]) -> np.ndarray:
        """Numpy scores of :meth:`score_batch_fused` in eval mode (no
        dropout) under ``no_grad`` (no backward graph).

        The single scoring entry point of both evaluation protocols, the
        parallel evaluator and serving: a whole candidate list or coalesced
        micro-batch arrives in one call and runs as one batched forward.
        An empty batch returns an empty array.
        """
        triples = list(triples)
        self.scoring_stats.record(len(triples))
        if not triples:
            return np.empty(0, dtype=SCORE_DTYPE)
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                scores = self.score_batch_fused(graph, triples)
        finally:
            if was_training:
                self.train()
        return np.asarray(scores.data, dtype=SCORE_DTYPE).reshape(-1)

    def score_triples_fused(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> np.ndarray:
        """Alias of :meth:`score_triples`, kept for existing callers."""
        return self.score_triples(graph, triples)
