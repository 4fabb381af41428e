"""The single scoring path: ``score_triples`` runs the fused forward.

* every model returns an empty score array for an empty batch;
* RMPI's fused scores agree with the per-sample ``score_sample`` oracle
  within float round-off, and ranks (mean ties) move only where the
  oracle's candidates sit within that round-off of the truth;
* the NE neighborhood read straight off the CSR equals the one-hop
  relations of the extracted disclosing subgraph, order included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engine_tolerances import score_tolerance
from repro.autograd import no_grad
from repro.autograd.engine import SCORE_DTYPE
from repro.eval.metrics import rank_of_first
from repro.eval.protocol import build_ranking_queries
from repro.experiments.runner import MODEL_NAMES, make_model
from repro.kg import KnowledgeGraph, TripleSet, build_full_benchmark
from repro.subgraph import (
    disclosing_relations_many,
    extract_disclosing_subgraph,
    target_one_hop_relations,
)


def oracle_scores(model, graph, triples) -> np.ndarray:
    """One ``score_sample`` forward per triple, in eval mode."""
    model.eval()
    with no_grad():
        return np.asarray(
            [
                float(model.score_sample(sample).data.reshape(-1)[0])
                for sample in model.prepared_many(graph, triples)
            ],
            dtype=SCORE_DTYPE,
        )


class TestEmptyBatch:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_empty_batch_scores_empty(self, name, family_graph):
        model = make_model(name, family_graph.num_relations, seed=0, embed_dim=8)
        scores = model.score_triples(family_graph, [])
        assert scores.shape == (0,)
        assert scores.dtype == SCORE_DTYPE
        assert model.score_triples_fused(family_graph, []).shape == (0,)


@pytest.fixture(scope="module")
def fully_cell():
    """The fully-inductive NELL-995 v4.v3 split with an RMPI-NE-TA model."""
    bench = build_full_benchmark("NELL-995", 4, 3, scale=0.1, seed=0)
    model = make_model("RMPI-NE-TA", bench.num_relations, seed=0, embed_dim=32)
    return bench.fully_test_graph, bench.fully_test_triples, model


class TestFusedAgainstOracle:
    def test_scores_within_tolerance(self, fully_cell):
        graph, targets, model = fully_cell
        triples = list(targets)
        fused = model.score_triples(graph, triples)
        np.testing.assert_allclose(
            fused, oracle_scores(model, graph, triples), **score_tolerance()
        )

    def test_mean_tie_ranks_move_only_on_near_ties(self, fully_cell):
        """Per ranking query, the fused rank of the truth differs from the
        oracle's by at most the number of candidates whose oracle score is
        within round-off of the truth's (each such candidate can flip
        between better, tied and worse); every other candidate counts the
        same on both sides."""
        graph, targets, model = fully_cell
        tolerance = score_tolerance()
        queries = build_ranking_queries(
            graph, targets, np.random.default_rng(3), num_negatives=19
        )
        assert queries
        for candidates in queries:
            fused = model.score_triples(graph, candidates)
            oracle = oracle_scores(model, graph, candidates)
            slack = 2 * (tolerance["atol"] + tolerance["rtol"] * np.abs(oracle))
            near = int(np.sum(np.abs(oracle[1:] - oracle[0]) <= slack[1:]))
            assert abs(rank_of_first(fused) - rank_of_first(oracle)) <= near


# ----------------------------------------------------------------------
def _graph_strategy():
    """Small multigraphs with self-loops and parallel edges."""
    edge = st.tuples(
        st.integers(0, 7), st.integers(0, 3), st.integers(0, 7)
    )
    return st.lists(edge, min_size=0, max_size=30)


def _target_strategy():
    return st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7))


class TestDisclosingRelations:
    @staticmethod
    def _check(graph: KnowledgeGraph, target, num_hops: int) -> None:
        expected = np.asarray(
            target_one_hop_relations(
                extract_disclosing_subgraph(graph, target, num_hops)
            ),
            dtype=np.int64,
        )
        (produced,) = disclosing_relations_many(graph, [target])
        assert produced.dtype == np.int64
        np.testing.assert_array_equal(produced, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=_graph_strategy(),
        target=_target_strategy(),
        pick_fact=st.integers(-1, 29),
        same_entity=st.booleans(),
        num_hops=st.integers(1, 3),
    )
    def test_matches_extracted_disclosing_subgraph(
        self, rows, target, pick_fact, same_entity, num_hops
    ):
        graph = KnowledgeGraph(TripleSet(rows), num_entities=8, num_relations=4)
        if 0 <= pick_fact < len(rows):
            target = rows[pick_fact]  # a fact of the graph (its copies drop)
        if same_entity:
            target = (target[0], target[1], target[0])  # u == v
        self._check(graph, target, num_hops)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_graph_strategy(),
        targets=st.lists(_target_strategy(), min_size=0, max_size=12),
    )
    def test_batch_matches_one_at_a_time(self, rows, targets):
        graph = KnowledgeGraph(TripleSet(rows), num_entities=8, num_relations=4)
        targets = targets + rows[:4] + targets[:2]  # facts and repeats
        produced = disclosing_relations_many(graph, targets)
        assert len(produced) == len(targets)
        for target, neighbors in zip(targets, produced):
            self._check(graph, target, 1)
            np.testing.assert_array_equal(
                neighbors, disclosing_relations_many(graph, [target])[0]
            )

    def test_edge_cases(self):
        rows = [
            (0, 1, 1), (0, 1, 1), (1, 1, 0),  # parallel copies + reverse
            (0, 2, 0), (0, 1, 0),  # self-loops on the head
            (1, 3, 2), (2, 0, 3), (3, 0, 3),
        ]
        graph = KnowledgeGraph(TripleSet(rows), num_entities=5, num_relations=4)
        for target in [
            (0, 1, 1),  # fact with a parallel copy: both copies drop
            (1, 1, 0),  # the reverse edge is a different fact
            (0, 1, 0),  # u == v and the target is a self-loop fact
            (0, 3, 0),  # u == v, not a fact
            (4, 0, 4),  # isolated entity
            (2, 0, 4),
        ]:
            for num_hops in (1, 2):
                self._check(graph, target, num_hops)
        assert disclosing_relations_many(graph, [(0, 1, 1)])[0].tolist() == [1, 2, 1, 3]

    def test_empty_graph_and_empty_batch(self):
        graph = KnowledgeGraph(TripleSet([]), num_entities=3, num_relations=2)
        assert disclosing_relations_many(graph, [(0, 1, 2)])[0].shape == (0,)
        assert disclosing_relations_many(graph, []) == []

    def test_rejects_out_of_range_entities(self):
        graph = KnowledgeGraph(TripleSet([(0, 0, 1)]), num_entities=2, num_relations=1)
        with pytest.raises(ValueError):
            disclosing_relations_many(graph, [(0, 0, 1), (0, 0, 2)])
        with pytest.raises(ValueError):
            disclosing_relations_many(graph, [(-1, 0, 1)])
