"""Tests for SubgraphScoringModel base behaviour and fused training."""

import numpy as np
import pytest

from repro.core import RMPI, RMPIConfig
from repro.train import TrainingConfig, train_model


class TestBaseModelBehaviour:
    def test_score_triples_restores_training_mode(self, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        model.train()
        model.score_triples(family_graph, [(0, 0, 1)])
        assert model.training  # restored

    def test_score_triples_runs_in_eval_mode(self, family_graph):
        # Dropout must be off during score_triples even from train mode:
        # repeated calls give identical values.
        model = RMPI(
            family_graph.num_relations,
            np.random.default_rng(0),
            RMPIConfig(dropout=0.9),
        )
        model.train()
        a = model.score_triples(family_graph, [(0, 0, 1)])
        b = model.score_triples(family_graph, [(0, 0, 1)])
        assert a == pytest.approx(b)

    def test_cache_distinguishes_graphs(self, family_graph, tiny_partial_benchmark):
        model = RMPI(
            max(family_graph.num_relations, tiny_partial_benchmark.num_relations),
            np.random.default_rng(0),
        )
        triple = (0, 0, 1)
        a = model.prepared(family_graph, triple)
        b = model.prepared(tiny_partial_benchmark.train_graph, triple)
        assert a is not b
        assert model.cache_size() == 2

    def test_single_triple_batch_shape(self, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        scores = model.score_batch(family_graph, [(0, 0, 1)])
        assert scores.shape == (1, 1)


class TestFusedTraining:
    def test_fused_training_converges(self, tiny_partial_benchmark):
        b = tiny_partial_benchmark
        model = RMPI(
            b.num_relations, np.random.default_rng(0), RMPIConfig(embed_dim=16)
        )
        history = train_model(
            model,
            b.train_graph,
            b.train_triples,
            config=TrainingConfig(epochs=6, seed=0),
        )
        assert history.losses[-1] < history.losses[0]

    def test_generic_fallback_trains(self, tiny_partial_benchmark):
        # Models without a true disjoint-union forward (TACT here) train
        # through the generic score_batch_fused fallback (batched prepare +
        # per-sample scores).
        from repro.baselines import TACTBase

        b = tiny_partial_benchmark
        model = TACTBase(b.num_relations, np.random.default_rng(0), embed_dim=8)
        history = train_model(
            model,
            b.train_graph,
            b.train_triples,
            config=TrainingConfig(epochs=1, seed=0, max_triples_per_epoch=20),
        )
        assert np.isfinite(history.losses).all()
