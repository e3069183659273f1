import math
import tracemalloc

import numpy as np
import pytest

from otclu.clustering import Prototypes
from otclu.errors import NumericalError, ShapeError
from otclu.losses import ORTH_WEIGHT, logit_gradient, orth_loss, soft_ce_loss, total_loss
from otclu.oracle import grad_check


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestSoftCeLoss:
    def test_uniform_matching_is_log_j(self):
        for j in (2, 5, 64):
            m = np.full((7, j), 1.0 / j)
            loss = soft_ce_loss(m, m.copy())
            assert loss == pytest.approx(math.log(j), abs=1e-12)

    def test_near_perfect_prediction(self):
        gamma = np.array([[1.0, 0.0]])
        s = np.array([[1.0 - 1e-9, 1e-9]])
        loss = soft_ce_loss(gamma, s)
        assert loss == pytest.approx(1e-9, abs=1e-12)

    def test_hand_value(self):
        gamma = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.array([[0.5, 0.5], [0.25, 0.75]])
        loss = soft_ce_loss(gamma, s)
        expected = (-math.log(0.5) - math.log(0.75)) / 2
        assert loss == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.49041, abs=1e-5)
        # at the logits: s * rowsum(gamma) / N - gamma / N, rows of gamma summing to 1
        d_z = logit_gradient(gamma, s, np.zeros((2, 2)))
        np.testing.assert_allclose(d_z, (s - gamma) / 2, atol=1e-15)

    def test_rejects_nonpositive_scores(self):
        with pytest.raises(NumericalError):
            soft_ce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            soft_ce_loss(np.full((2, 2), 0.5), np.full((3, 2), 0.5))

    def test_paper_shape_fills_one_buffer(self, rng):
        gamma = rng.dirichlet(np.ones(64), size=2048)
        scores = rng.dirichlet(np.ones(64), size=2048)
        tracemalloc.start()
        try:
            soft_ce_loss(gamma, scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * scores.nbytes, f"{peak / scores.nbytes:.2f} (N, J) arrays"

    def test_gradient_through_softmax_matches_fd(self, rng):
        # Compose with a softmax so the finite-difference path runs over
        # unconstrained logits.
        n, j = 4, 3
        gamma = rng.dirichlet(np.ones(j), size=n)
        z = rng.normal(size=(n, j))
        s = softmax_rows(z)
        for a in (np.zeros((n, j)), rng.normal(size=(n, j))):  # a fixed linear term on s
            d_z = logit_gradient(gamma, s, a.copy())
            report = grad_check(
                lambda p: soft_ce_loss(gamma, softmax_rows(p["z"])) + (a * softmax_rows(p["z"])).sum(),
                {"z": z}, {"z": d_z}, h=1e-6, rel_tol=1e-5)
            assert report.passed, f"{report.worst_param}: {report.max_rel_error}"

    def test_gibbs_inequality(self, rng):
        # Mean cross-entropy dominates the mean row entropy of the targets,
        # with equality exactly when the predictions equal the targets.
        for _ in range(20):
            n, j = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            gamma = rng.dirichlet(np.ones(j), size=n)
            scores = rng.dirichlet(np.ones(j), size=n)
            entropy = float(-(gamma * np.log(np.where(gamma > 0, gamma, 1.0))).sum() / n)
            loss = soft_ce_loss(gamma, scores)
            assert loss >= entropy - 1e-12
        gamma = rng.dirichlet(np.ones(4), size=6)
        loss = soft_ce_loss(gamma, gamma.copy())
        entropy = float(-(gamma * np.log(gamma)).sum() / 6)
        assert loss == pytest.approx(entropy, abs=1e-12)


class TestOrthLoss:
    def test_orthonormal_prototypes_zero(self, rng):
        loss, d_geo = orth_loss(Prototypes(geo=np.eye(3)[:2], feat=rng.normal(size=(2, 4))))
        assert loss == 0.0
        assert not d_geo.any()

    def test_identical_unit_prototypes(self):
        # Both prototypes equal and unit-norm: the Gram matrix is all-ones,
        # so the penalty is |[[0,1],[1,0]]|_F = sqrt(2).
        v = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        loss, _ = orth_loss(Prototypes(geo=v, feat=np.eye(2)))
        assert loss == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zero_norm_rows_guarded(self, rng):
        geo = rng.normal(size=(3, 3))
        geo[1] = 0.0
        loss, d_geo = orth_loss(Prototypes(geo=geo, feat=rng.normal(size=(3, 4))))
        assert np.isfinite(loss)
        assert not d_geo[1].any()

    def test_all_zero_rows(self):
        loss, d_geo = orth_loss(Prototypes(geo=np.zeros((2, 3)), feat=np.zeros((2, 4))))
        assert loss == 0.0
        assert not d_geo.any()

    def test_gradients_match_finite_differences(self, rng):
        geo = rng.normal(size=(4, 3))
        feat = rng.normal(size=(4, 8))
        _, d_geo = orth_loss(Prototypes(geo=geo, feat=feat))
        report = grad_check(lambda p: orth_loss(Prototypes(geo=p["geo"], feat=feat))[0],
                            {"geo": geo}, {"geo": d_geo}, h=1e-6, rel_tol=1e-5)
        assert report.passed, f"{report.worst_param}: {report.max_rel_error}"

    def test_scale_invariance_of_normalized_gram(self, rng):
        geo = rng.normal(size=(4, 3))
        feat = rng.normal(size=(4, 5))
        a, _ = orth_loss(Prototypes(geo=geo, feat=feat))
        b, _ = orth_loss(Prototypes(geo=geo * 7.5, feat=feat))
        assert a == pytest.approx(b, rel=1e-12)


class TestTotalLoss:
    def test_orthonormal_prototypes_reduce_to_soft(self, rng):
        gamma = rng.dirichlet(np.ones(3), size=5)
        scores = rng.dirichlet(np.ones(3), size=5)
        protos = Prototypes(geo=np.eye(3), feat=rng.normal(size=(3, 4)))
        report, _ = total_loss(gamma, scores, protos)
        assert report.l_total == report.l_soft

    def test_components_recomputed_independently(self, rng):
        gamma = rng.dirichlet(np.ones(4), size=6)
        scores = rng.dirichlet(np.ones(4), size=6)
        protos = Prototypes(geo=rng.normal(size=(4, 3)), feat=rng.normal(size=(4, 5)))
        report, d_geo = total_loss(gamma, scores, protos)
        l_soft = soft_ce_loss(gamma, scores)
        l_orth, d_geo_ref = orth_loss(protos)
        assert report.l_soft == l_soft
        assert report.l_total == pytest.approx(l_soft + ORTH_WEIGHT * l_orth, abs=1e-12)
        assert report.l_total == report.l_soft + ORTH_WEIGHT * report.l_orth
        np.testing.assert_allclose(d_geo, ORTH_WEIGHT * d_geo_ref, atol=1e-15)

    def test_feature_prototypes_are_not_read(self, rng):
        # The penalty is on the geometric prototypes only: random feature
        # prototypes change no bit of the report or the gradient.
        gamma = rng.dirichlet(np.ones(4), size=6)
        scores = rng.dirichlet(np.ones(4), size=6)
        protos = Prototypes(geo=rng.normal(size=(4, 3)), feat=rng.normal(size=(4, 5)))
        report, d_geo = total_loss(gamma, scores, protos)
        for _ in range(3):
            other = Prototypes(geo=protos.geo, feat=rng.normal(scale=10.0, size=(4, 5)))
            other_report, other_d_geo = total_loss(gamma, scores, other)
            assert other_report == report
            assert other_d_geo.tobytes() == d_geo.tobytes()
