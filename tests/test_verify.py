import dataclasses

import numpy as np

from otclu import clustering, trainer
from otclu import encoder as enc
from otclu.clustering import SolverConfig
from otclu.trainer import TrainConfig
from otclu.verify import purity


class TestDefaults:
    def test_solver_defaults(self):
        # when a solve stops is the solver's own rule, not a setting
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "epsilon", "lam", "num_clusters"]
        assert (clustering.MAX_ITERS, clustering.TOL) == (1000, 1e-6)
        solver = SolverConfig()
        assert solver.epsilon == 1e-3
        assert solver.lam == 0.5
        assert solver.num_clusters == 64

    def test_train_defaults(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "lr", "seed", "solver", "encoder"]
        config = TrainConfig()
        assert config.batch_size == 32
        assert config.lr == 0.001
        assert (trainer.LR_DECAY, trainer.DECAY_EVERY) == (0.7, 20)
        assert trainer.WEIGHT_DECAY == 0.01
        assert (trainer.BETA1, trainer.BETA2, trainer.ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_encoder_defaults(self):
        cfg = enc.EncoderConfig()
        assert cfg.layer_sizes == (3, 64, 128, 128)
        assert cfg.num_clusters == 64


class TestPurity:
    def test_perfect_and_degenerate(self):
        assert purity(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0
        assert purity(np.zeros(4, dtype=int), np.array([0, 0, 1, 1])) == 0.5
