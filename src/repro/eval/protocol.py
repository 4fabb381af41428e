"""Evaluation protocols (paper §IV-B).

* **Triple classification**: one uniformly corrupted negative per test
  positive; AUC-PR over the pooled scores.
* **Entity prediction**: rank the ground-truth entity against 49 randomly
  sampled candidate corruptions of the head *or* tail; report MRR and
  Hits@10 (both in percent).

Both protocols restrict corruption entities to the *testing graph's* entity
set and filter corruptions that collide with known facts.

The ranking loop hands each query's full candidate list (truth + negatives)
to ``score_triples`` in one call; subgraph-scoring models batch it through
``prepare_many``, so the vectorized extraction engine shares each query's
K-hop frontier BFS across all ~50 candidates (they differ only in the
corrupted side), and score it in one batched forward.

**Parity contract.** The fused forward's round-off depends on which
triples share a batch, so every batch is fixed by the protocol alone: one
per ranking query, and classification scores its positives and negatives
in consecutive chunks of :data:`CLASSIFICATION_CHUNK`.  Serial and
parallel evaluation therefore score identical batches and agree bitwise
for any worker count.  Against the per-sample ``score_sample`` oracle the
scores agree within float round-off; ranks break ties by the mean
(:func:`~repro.eval.metrics.rank_of_first`), so each candidate scored
within round-off of the truth can move the truth's rank by at most one
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Set

import numpy as np

from repro.autograd import no_grad
from repro.autograd.engine import SCORE_DTYPE
from repro.eval.metrics import average_precision, hits_at, mrr, rank_of_first
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import negative_triples, ranking_candidates
from repro.kg.triples import Triple, TripleSet
from repro.obs import get_registry, span
from repro.utils.seeding import seeded_rng


#: Classification batch size: positives and negatives are each scored in
#: consecutive chunks of this many triples, serially and in parallel alike.
CLASSIFICATION_CHUNK = 64


def classification_chunks(triples: Sequence[Triple]) -> List[List[Triple]]:
    """``triples`` cut into consecutive :data:`CLASSIFICATION_CHUNK`-sized
    scoring batches (the last may be shorter)."""
    triples = list(triples)
    return [
        triples[start : start + CLASSIFICATION_CHUNK]
        for start in range(0, len(triples), CLASSIFICATION_CHUNK)
    ]


class TripleScorer(Protocol):
    """Anything that can score triples against a context graph."""

    def score_triples(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class ClassificationResult:
    auc_pr: float
    num_positives: int

    def as_dict(self) -> Dict[str, float]:
        return {"AUC-PR": self.auc_pr}


@dataclass(frozen=True)
class RankingResult:
    mrr: float
    hits_at_10: float
    hits_at_1: float
    num_queries: int

    def as_dict(self) -> Dict[str, float]:
        return {"MRR": self.mrr, "Hits@10": self.hits_at_10, "Hits@1": self.hits_at_1}


def candidate_entity_pool(
    graph: KnowledgeGraph, targets: Optional[TripleSet] = None
) -> List[int]:
    """The sorted entity pool both protocols corrupt over: every entity of
    the context graph plus (when evaluating) the target triples' entities.

    Public because the serving layer's top-k queries must rank over exactly
    this pool to stay consistent with :func:`evaluate_entity_prediction`.
    """
    entities = set(graph.triples.entities())
    if targets is not None:
        entities |= targets.entities()
    return sorted(entities)


def known_fact_set(
    graph: KnowledgeGraph, targets: Optional[TripleSet] = None
) -> Set[Triple]:
    """All facts a corruption must not collide with (graph + targets)."""
    known = set(graph.triples)
    if targets is not None:
        known |= set(targets)
    return known


# Internal aliases kept for the protocol implementations below.
_candidate_entities = candidate_entity_pool
_known_facts = known_fact_set


def link_prediction_candidates(
    graph: KnowledgeGraph,
    head: Optional[int],
    relation: int,
    tail: Optional[int],
    exclude_known: bool = True,
    candidate_entities: Optional[Sequence[int]] = None,
    known: Optional[Set[Triple]] = None,
) -> List[Triple]:
    """Candidate triples for an online top-k query (serving's ranking list).

    Exactly one of ``head`` / ``tail`` must be ``None`` — that side is
    filled with every entity from ``candidate_entities`` (default: the same
    pool as :func:`candidate_entity_pool`), in deterministic sorted order.
    This is the exhaustive counterpart of
    :func:`repro.kg.sampling.ranking_candidates` with identical filtering
    semantics: duplicates never appear, and with ``exclude_known`` (the
    serving default) candidates that collide with known facts are dropped,
    so a top-k answer only proposes *new* links.
    """
    if (head is None) == (tail is None):
        raise ValueError("exactly one of head/tail must be None")
    pool = (
        candidate_entity_pool(graph) if candidate_entities is None else candidate_entities
    )
    known_facts = (known_fact_set(graph) if known is None else known) if exclude_known else set()
    corrupt_head = head is None
    relation = int(relation)
    fixed = int(tail) if corrupt_head else int(head)
    candidates: List[Triple] = []
    seen: Set[Triple] = set()
    # Single pass over the (possibly precomputed, serving hot-path) pool;
    # int() per entry normalises numpy ids without an extra list copy.
    for entity in pool:
        entity = int(entity)
        triple: Triple = (
            (entity, relation, fixed) if corrupt_head else (fixed, relation, entity)
        )
        if triple in seen or triple in known_facts:
            continue
        seen.add(triple)
        candidates.append(triple)
    return candidates


def evaluate_triple_classification(
    model: TripleScorer,
    graph: KnowledgeGraph,
    targets: TripleSet,
    rng: np.random.Generator,
    pool=None,
) -> ClassificationResult:
    """AUC-PR with one sampled negative per positive (paper protocol).

    ``pool`` (a :class:`repro.parallel.pool.WorkerPool` whose context pins
    this model and graph) fans the scoring chunks across worker processes;
    both paths score the same :func:`classification_chunks`, so the metric
    is bitwise identical to the serial run.
    """
    positives = list(targets)
    if not positives:
        raise ValueError("no test triples")
    candidates = _candidate_entities(graph, targets)
    known = _known_facts(graph, targets)
    negatives = negative_triples(
        targets,
        num_entities=graph.num_entities,
        rng=rng,
        known=known,
        candidate_entities=candidates,
    )
    if pool is not None and pool.workers > 1:
        from repro.parallel.evaluation import score_triples_sharded

        pos_scores = score_triples_sharded(pool, positives)
        neg_scores = score_triples_sharded(pool, negatives)
    else:
        # Evaluation never backpropagates: suppress backward-graph
        # construction for every scorer (subgraph models also no-grad
        # internally; this covers rule/embedding scorers uniformly).
        with no_grad():
            pos_scores = score_in_chunks(model, graph, positives)
            neg_scores = score_in_chunks(model, graph, negatives)
    labels = [1] * len(positives) + [0] * len(negatives)
    scores = np.concatenate([pos_scores, neg_scores])
    return ClassificationResult(
        auc_pr=average_precision(labels, scores) * 100.0,
        num_positives=len(positives),
    )


def score_in_chunks(
    model: TripleScorer, graph: KnowledgeGraph, triples: Sequence[Triple]
) -> np.ndarray:
    """Classification scores of ``triples``, one ``score_triples`` call per
    :func:`classification_chunks` chunk (the serial half of the parity
    contract; :func:`repro.parallel.evaluation.score_triples_sharded` is
    the parallel half)."""
    chunks = classification_chunks(triples)
    if not chunks:
        return np.empty(0, dtype=SCORE_DTYPE)
    return np.concatenate([model.score_triples(graph, chunk) for chunk in chunks])


def build_ranking_queries(
    graph: KnowledgeGraph,
    targets: TripleSet,
    rng: np.random.Generator,
    num_negatives: int = 49,
) -> List[List[Triple]]:
    """Every query's candidate list (truth at index 0), drawn in protocol
    order.

    This is the RNG-consuming phase of entity prediction, factored out so
    the serial loop and the parallel fan-out rank the *identical* candidate
    lists: per query, one ``integers(2)`` draw for the corrupted side, then
    the :func:`~repro.kg.sampling.ranking_candidates` draws — the exact
    stream order of the historical inline loop.
    """
    candidates_pool = _candidate_entities(graph, targets)
    known = _known_facts(graph, targets)
    query_lists: List[List[Triple]] = []
    for triple in targets:
        corrupt_head = bool(rng.integers(2))
        query_lists.append(
            ranking_candidates(
                triple,
                num_entities=graph.num_entities,
                rng=rng,
                num_negatives=num_negatives,
                known=known,
                candidate_entities=candidates_pool,
                corrupt_head=corrupt_head,
            )
        )
    return query_lists


def evaluate_entity_prediction(
    model: TripleScorer,
    graph: KnowledgeGraph,
    targets: TripleSet,
    rng: np.random.Generator,
    num_negatives: int = 49,
    pool=None,
) -> RankingResult:
    """MRR / Hits@n ranking the truth against sampled candidates.

    For each test triple, the corrupted side (head or tail) is chosen
    uniformly — matching the paper's "replacing the head (or tail) with a
    random entity".  With ``pool`` (a worker pool pinning this model and
    graph), per-query candidate scoring fans out across worker processes;
    candidate drawing stays in the parent, so metrics are bitwise identical
    to the serial protocol.
    """
    queries = list(targets)
    if not queries:
        raise ValueError("no test triples")
    query_lists = build_ranking_queries(graph, targets, rng, num_negatives)
    with span("eval.rank"):
        if pool is not None and pool.workers > 1:
            from repro.parallel.evaluation import score_query_lists

            per_query_scores = score_query_lists(pool, query_lists)
        else:
            per_query_scores = []
            for candidates in query_lists:
                with no_grad():
                    per_query_scores.append(model.score_triples(graph, candidates))
    get_registry().counter("eval.queries").inc(len(query_lists))
    ranks: List[float] = [rank_of_first(scores) for scores in per_query_scores]
    return RankingResult(
        mrr=mrr(ranks),
        hits_at_10=hits_at(ranks, 10),
        hits_at_1=hits_at(ranks, 1),
        num_queries=len(queries),
    )


@dataclass(frozen=True)
class EvaluationReport:
    """Combined report in the shape of the paper's result tables."""

    classification: ClassificationResult
    ranking: RankingResult

    def as_dict(self) -> Dict[str, float]:
        row = {}
        row.update(self.classification.as_dict())
        row.update(self.ranking.as_dict())
        return row


def evaluate_both(
    model: TripleScorer,
    graph: KnowledgeGraph,
    targets: TripleSet,
    seed: int = 0,
    num_negatives: int = 49,
    workers: int = 1,
) -> EvaluationReport:
    """Run both protocols with independent deterministic streams.

    ``workers > 1`` fans candidate scoring across a transient worker pool
    (see :mod:`repro.parallel`); metrics are bitwise identical to the
    serial run for any worker count.
    """
    if workers > 1:
        from repro.parallel.evaluation import ParallelEvaluator

        with ParallelEvaluator(model, graph, workers=workers, seed=seed) as evaluator:
            classification = evaluator.triple_classification(
                targets, seeded_rng((seed, 1))
            )
            ranking = evaluator.entity_prediction(
                targets,
                seeded_rng((seed, 2)),
                num_negatives=num_negatives,
            )
            return EvaluationReport(classification=classification, ranking=ranking)
    classification = evaluate_triple_classification(
        model, graph, targets, seeded_rng((seed, 1))
    )
    ranking = evaluate_entity_prediction(
        model, graph, targets, seeded_rng((seed, 2)), num_negatives=num_negatives
    )
    return EvaluationReport(classification=classification, ranking=ranking)
