import time
import tracemalloc

import numpy as np
import pytest

from otclu import clustering
from otclu import encoder as enc
from otclu.clustering import (Prototypes, assign_l2_labels, assign_soft_labels,
                              compute_cost, compute_prototypes, point_block,
                              prototypes_backward, sinkhorn)
from otclu.errors import NumericalError, ShapeError
from otclu.oracle import exact_ot
from otclu.verify import ball_cloud


def paper_shape_inputs(seed=0):
    """The point block [F | X | 1] (d=128), scores (J=64) and prototypes of a
    seeded default-encoder forward on a 2048-point cloud: the paper's E-step
    shape."""
    points = ball_cloud(np.random.default_rng(seed), 2048).points
    trace = enc.forward(enc.init_params(enc.EncoderConfig(), seed), points)
    return trace.block, trace.scores, compute_prototypes(trace.block, trace.scores)


def row_shifted(cost):
    """The cost less each row's minimum: what every consumer of it sees."""
    return cost - cost.min(axis=1, keepdims=True)


def broadcast_sq_dists(x, centers):
    """Squared distances through the (N, J, d) difference tensor."""
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestComputePrototypes:
    def test_identity_scores_pick_points(self, rng):
        pts = rng.normal(size=(4, 3))
        feats = rng.normal(size=(4, 5))
        protos = compute_prototypes(point_block(pts, feats), np.eye(4))
        np.testing.assert_allclose(protos.geo, pts, atol=1e-15)
        np.testing.assert_allclose(protos.feat, feats, atol=1e-15)

    def test_uniform_scores_give_centroid(self, rng):
        pts = rng.normal(size=(10, 3))
        feats = rng.normal(size=(10, 4))
        protos = compute_prototypes(point_block(pts, feats), np.full((10, 3), 1 / 3))
        for j in range(3):
            np.testing.assert_allclose(protos.geo[j], pts.mean(axis=0), atol=1e-12)
            np.testing.assert_allclose(protos.feat[j], feats.mean(axis=0), atol=1e-12)

    def test_hand_case(self):
        pts = np.array([[0.0, 0, 0], [2, 0, 0], [5, 5, 5]])
        scores = np.array([[1.0, 0], [1, 0], [0, 1]])
        protos = compute_prototypes(point_block(pts, pts.copy()), scores)
        np.testing.assert_allclose(protos.geo, [[1, 0, 0], [5, 5, 5]], atol=1e-15)

    def test_empty_column_is_a_numerical_error(self, rng):
        pts = rng.normal(size=(5, 3))
        feats = rng.normal(size=(5, 2))
        scores = np.zeros((5, 3))
        scores[:, 0] = 1.0
        scores[0, 2] = 1e-13
        with pytest.raises(NumericalError, match=r"^cluster 1 has score mass 0 \(< 1e-12\); "
                                                 r"its prototypes are undefined$"):
            compute_prototypes(point_block(pts, feats), scores)
        scores[0, 1] = 1e-12  # a mass at the threshold is kept
        with pytest.raises(NumericalError, match=r"^cluster 2 has score mass 1e-13 "):
            compute_prototypes(point_block(pts, feats), scores)

    def test_nan_mass_reaches_the_cost_check(self, rng):
        pts = rng.normal(size=(5, 3))
        feats = rng.normal(size=(5, 2))
        scores = np.full((5, 2), 0.5)
        scores[3, 1] = np.nan
        block = point_block(pts, feats)
        protos = compute_prototypes(block, scores)
        assert np.isnan(protos.geo[1]).all() and np.isfinite(protos.geo[0]).all()
        with pytest.raises(NumericalError, match="non-finite entries"):
            sinkhorn(compute_cost(block, protos, 0.5))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            point_block(rng.normal(size=(4, 3)), rng.normal(size=(5, 2)))
        with pytest.raises(ShapeError):
            compute_prototypes(point_block(rng.normal(size=(5, 3)), rng.normal(size=(5, 2))),
                               np.eye(4))

    def test_rows_stay_in_convex_hull(self, rng):
        pts = rng.uniform(-1, 1, size=(20, 3))
        scores = rng.dirichlet(np.ones(4), size=20)
        protos = compute_prototypes(point_block(pts, pts.copy()), scores)
        assert protos.geo.min() >= pts.min() - 1e-12
        assert protos.geo.max() <= pts.max() + 1e-12


class TestComputeCost:
    def test_zero_distance(self, rng):
        # The cost is defined up to a constant per row. A point on prototype
        # 0 is that row's minimum, and the other entry sits above it by the
        # blended squared distance to prototype 1, also at |f|^2 ~ 1e6,
        # where the expansion cancels to within rounding of |f|^2.
        for scale, tol in ((1.0, 1e-12), (1e3, 1e-9)):
            feats = rng.normal(size=(1, 128))
            feats *= scale / np.linalg.norm(feats)
            pts = rng.normal(size=(1, 3))
            protos = Prototypes(geo=np.vstack([pts, pts + 0.5]),
                                feat=np.vstack([feats, feats + 0.5]))
            cost = compute_cost(point_block(pts, feats), protos, 0.5)
            assert cost[0, 0] < cost[0, 1]
            expected = 0.5 * 3 * 0.25 + 0.5 * 128 * 0.25
            assert cost[0, 1] - cost[0, 0] == pytest.approx(expected, abs=tol)

    def test_pure_geometric_squared_norm(self):
        protos = Prototypes(geo=np.array([[3.0, 4, 0]]), feat=np.array([[100.0]]))
        cost = compute_cost(point_block(np.zeros((1, 3)), np.zeros((1, 1))), protos, 1.0)
        assert cost[0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_matches_double_loop(self, rng):
        # Up to a constant per row: both sides less their row minima.
        pts = rng.normal(size=(5, 3))
        feats = rng.normal(size=(5, 4))
        protos = Prototypes(geo=rng.normal(size=(3, 3)), feat=rng.normal(size=(3, 4)))
        lam = 0.3
        cost = row_shifted(compute_cost(point_block(pts, feats), protos, lam))
        expected = np.array([[lam * sum((pts[i, k] - protos.geo[j, k]) ** 2 for k in range(3))
                              + (1 - lam) * sum((feats[i, k] - protos.feat[j, k]) ** 2
                                                for k in range(4))
                              for j in range(3)] for i in range(5)])
        shifted = row_shifted(expected)
        for i in range(5):
            for j in range(3):
                assert cost[i, j] == pytest.approx(shifted[i, j], abs=1e-12)

        # the paper's shape, against the broadcast-difference form
        block, _, protos = paper_shape_inputs()
        cost = compute_cost(block, protos, lam)
        expected = (lam * broadcast_sq_dists(block[:, -4:-1], protos.geo)
                    + (1 - lam) * broadcast_sq_dists(block[:, :-4], protos.feat))
        assert cost.shape == (2048, 64)
        assert (np.abs(row_shifted(cost) - row_shifted(expected)).max()
                <= 1e-12 * np.abs(expected).max())

    def test_paper_shape_builds_no_difference_tensor(self):
        # An (N, J, d) float64 tensor at N=2048, J=64, d=128 is 134 MB.
        block, _, protos = paper_shape_inputs()
        tracemalloc.start()
        try:
            compute_cost(block, protos, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_lambda_endpoints_drop_the_other_term(self, rng):
        # Prototypes are recomputed from the perturbed input, so the term
        # the endpoint drops changes completely; the cost must not move a bit.
        n = 24
        points, feats = rng.normal(size=(n, 3)), rng.normal(size=(n, 6))
        scores = rng.dirichlet(np.ones(4), size=n)

        def cost(lam, p, f):
            block = point_block(p, f)
            return compute_cost(block, compute_prototypes(block, scores), lam)

        np.testing.assert_array_equal(cost(1.0, points, feats),
                                      cost(1.0, points, rng.normal(size=(n, 6))))
        np.testing.assert_array_equal(cost(0.0, points, feats),
                                      cost(0.0, rng.normal(size=(n, 3)), feats))

    def test_lambda_out_of_range(self, rng):
        protos = Prototypes(geo=np.zeros((2, 3)), feat=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            compute_cost(point_block(np.zeros((1, 3)), np.zeros((1, 2))), protos, 1.5)


class TestSinkhorn:
    def test_constant_cost_gives_uniform_plan(self):
        plan = sinkhorn(np.full((4, 3), 2.0), 1e-3, iters=20)
        np.testing.assert_allclose(plan.matrix, 1 / 12, atol=1e-12)

    def test_dominant_diagonal(self):
        plan = sinkhorn(np.array([[0.0, 10.0], [10.0, 0.0]]), 1e-3, iters=20)
        np.testing.assert_allclose(plan.matrix, [[0.5, 0], [0, 0.5]], atol=1e-9)

    def test_close_to_lp_for_small_epsilon(self, rng):
        for _ in range(5):
            cost = rng.uniform(0, 0.05, size=(6, 3))
            best = exact_ot(cost)
            plan = sinkhorn(cost, 1e-3, iters=100_000, tol=1e-8).matrix
            assert (plan * cost).sum() - best.objective <= 1e-3

    def test_gap_decreases_with_epsilon(self, rng):
        for _ in range(5):
            cost = rng.uniform(0, 0.05, size=(8, 4))
            best = exact_ot(cost)
            gaps = []
            for eps in (1e-1, 1e-2, 1e-3):
                plan = sinkhorn(cost, eps, iters=100_000, tol=1e-8).matrix
                gaps.append((plan * cost).sum() - best.objective)
            assert gaps[0] + 1e-9 >= gaps[1] >= gaps[2] - 1e-9

    def test_marginals_converge(self, rng):
        cost = rng.uniform(0, 0.01, size=(32, 8))
        plan = sinkhorn(cost, 1e-3, iters=100_000, tol=1e-8)
        assert plan.marginal_residual() < 1e-8
        assert plan.iterations < 1000  # stopped at tol, far below the cap
        assert sinkhorn(cost, 1e-3, iters=3, tol=1e-8).iterations == 3

    def test_cost_shift_invariance(self, rng):
        cost = rng.uniform(0, 0.02, size=(10, 4))
        a = sinkhorn(cost, 1e-3, iters=50).matrix
        for shift in (5.0, rng.normal(scale=5.0, size=(10, 1))):  # one, or one per row
            b = sinkhorn(cost + shift, 1e-3, iters=50).matrix
            assert np.abs(a - b).max() < 1e-9

    def test_non_finite_cost_is_named(self, rng):
        cost = rng.uniform(0, 0.5, size=(64, 8))
        cost[5, 3] = np.nan
        with pytest.raises(NumericalError, match="cost matrix has 1 non-finite") as info:
            sinkhorn(cost, 1e-3, iters=50)
        assert "epsilon" not in str(info.value)

    def test_nan_cost_raises_without_running_to_the_cap(self):
        cost = np.array([[0.0, 1.0], [1.0, np.nan], [0.5, 0.5], [1.0, 0.0]])
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="cost matrix has 1 non-finite"):
            sinkhorn(cost, 1e-3, iters=10**6)
        assert time.perf_counter() - start < 1.0

    def test_wide_cost_spread_stays_finite(self):
        # A row (then a column) sits 2000 epsilons above the rest: its part of
        # exp(-cost/eps) underflows, but the shifted kernel keeps a 1 in it.
        for cost in ([[0.0, 0.0], [2.0, 2.0]], [[0.0, 2.0], [0.0, 2.0]]):
            plan = sinkhorn(np.array(cost), 1e-3)
            np.testing.assert_allclose(plan.matrix, 0.25, atol=1e-15)

        # Entry (1, 1) underflows and the plan must drive entry (0, 0) to 0,
        # which scaling only approaches: the cap stops it, finite and flagged.
        plan = sinkhorn(np.array([[0.0, 1.0], [0.0, 2.0]]), 1e-3, iters=1000, tol=1e-6)
        assert np.all(np.isfinite(plan.matrix))
        assert plan.iterations == 1000
        assert plan.marginal_residual() >= 1e-6

    def test_overflow_names_the_widest_row_spread(self):
        # Three rows can reach only column 0 inside the kernel's range, so
        # the balanced plan has no support there and the scaling vectors
        # overflow. The message gives row 0's spread, 1.5, over epsilon.
        cost = np.array([[0.0, 1.5], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match=r"epsilon 0\.001 is too small for the cost "
                                                 r"spread: the widest row spans 1500 times "
                                                 r"epsilon$"):
            sinkhorn(cost, 1e-3, iters=10**5)

    def test_paper_shape_builds_the_plan_in_the_kernel(self):
        block, _, protos = paper_shape_inputs()
        cost = compute_cost(block, protos, 0.5)
        tracemalloc.start()
        try:
            sinkhorn(cost)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * cost.nbytes, f"{peak / cost.nbytes:.2f} (N, J) arrays"

    def test_overflowing_warm_start_restarts_cold(self):
        # Started from this potential the second column's scaling underflows
        # to 0 and the first iteration's plan is not finite; the solve
        # restarts from v = 1 and returns the cold plan byte for byte.
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        cold = sinkhorn(cost, 1e-3)
        for potential in ([0.0, -1.0], [np.nan, 0.0], [0.0, np.inf]):
            plan = sinkhorn(cost, 1e-3, potential=potential)
            assert plan.matrix.tobytes() == cold.matrix.tobytes()
            assert plan.potential.tobytes() == cold.potential.tobytes()
            assert plan.iterations == cold.iterations
        assert cost.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_warm_start_keeps_the_non_finite_cost_error(self):
        # The message counts the cost's entries, which the solve leaves as they were.
        cost = np.array([[0.0, 1.0], [1.0, np.nan], [0.5, 0.5], [1.0, 0.0]])
        for potential in (None, [0.0, 0.0]):
            with pytest.raises(NumericalError, match="cost matrix has 1 non-finite"):
                sinkhorn(cost, 1e-3, potential=potential)

    def test_warm_start_from_its_own_potential(self, rng):
        # One Sinkhorn iteration starts within tol, and the landing Newton
        # step is taken. The cold plan is at the float64 floor, so the first
        # polishing step cannot raise F: its line search fails, is not
        # counted, and the landed plan is returned as done.
        cost = rng.uniform(0, 0.02, size=(32, 8))
        cold = sinkhorn(cost, 1e-3)
        assert cold.iterations > 10
        warm = sinkhorn(cost, 1e-3, potential=cold.potential)
        assert warm.iterations == 2
        assert warm.marginal_residual() < 1e-9
        assert np.abs(warm.matrix - cold.matrix).max() < 1e-6
        # the potential does not depend on the shifts: a shifted cost starts as
        # well, and there the landing step and the first polishing step are
        # taken; the second, the last, fails and returns the once-polished plan
        shifted = sinkhorn(cost + 5.0, 1e-3, potential=cold.potential)
        assert shifted.iterations == 3
        assert shifted.marginal_residual() < 1e-9

    def test_newton_steps_converge_at_the_paper_shape(self):
        block, _, protos = paper_shape_inputs()
        plan = sinkhorn(compute_cost(block, protos, 0.5))
        assert plan.iterations <= 20
        assert plan.marginal_residual() < 1e-9
        # Newton steps hold the rows exact: the plan ends on a row scaling
        np.testing.assert_allclose(plan.matrix.sum(axis=1), 1 / 2048, rtol=1e-14, atol=0)

    def test_a_failed_polishing_step_returns_the_landed_plan(self, monkeypatch):
        # The last two linear solves of a solve are its two polishing steps'.
        # Where one fails, the plan it started from is returned as done: the
        # step is not counted, and the solve is not handed back to Sinkhorn.
        block, _, protos = paper_shape_inputs()
        cost = compute_cost(block, protos, 0.5)
        solve, calls = np.linalg.solve, []

        def solve_unless_failing(h, g):
            calls.append(None)
            if len(calls) == failing:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(h, g)

        failing = 0
        monkeypatch.setattr(np.linalg, "solve", solve_unless_failing)
        polished = sinkhorn(cost)
        plans, last = [], len(calls)
        for failing in (last, last - 1):  # the second polishing step's, then the first's
            calls[:] = []
            plans.append(sinkhorn(cost))
        once, landed = plans
        assert once.iterations == polished.iterations - 1
        assert landed.iterations == polished.iterations - 2
        assert (polished.marginal_residual() < once.marginal_residual() < 1e-14
                < landed.marginal_residual() < 1e-9)
        # the plans still end on a row scaling, not on Sinkhorn's column one
        for plan in plans:
            np.testing.assert_allclose(plan.matrix.sum(axis=1), 1 / 2048, rtol=1e-14, atol=0)

    def test_newton_steps_hand_back_to_sinkhorn(self, monkeypatch):
        # spread/epsilon near 1000 on 16 points: the plan is near-hard and the
        # Newton step's line search fails, so Sinkhorn iterations finish the
        # solve, here at the cap.
        cost = np.random.default_rng(0).uniform(0, 1.0, size=(16, 4))
        newton, done = clustering._newton_steps, []

        def newton_steps(*args):
            result = newton(*args)
            done.append(result[3])
            return result

        monkeypatch.setattr(clustering, "_newton_steps", newton_steps)
        plan = sinkhorn(cost, 1e-3, iters=1000, tol=1e-6)
        assert done == [False]
        assert np.all(np.isfinite(plan.matrix))
        assert plan.iterations == 1000
        # the last update was a column scaling: the columns are exact, and
        # the rows carry the residual the cap left
        np.testing.assert_allclose(plan.matrix.sum(axis=0), 1 / 4, rtol=1e-14, atol=0)
        assert 1e-6 <= plan.marginal_residual() < 1e-3
        for iters in (900, 930, 2000):
            capped = sinkhorn(cost, 1e-3, iters=iters, tol=1e-6)
            assert capped.iterations <= iters
            assert np.all(np.isfinite(capped.matrix))
            assert capped.marginal_residual() < 1e-6 or capped.iterations == iters

    def test_potential_of_the_wrong_length_is_refused(self):
        with pytest.raises(ShapeError, match="potential"):
            sinkhorn(np.zeros((3, 2)), 1e-3, potential=np.zeros(3))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 2)), epsilon=0.0)
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 2)), epsilon=1e-3, iters=0)
        for tol in (0.0, -1e-6, float("nan"), float("inf"), None):
            with pytest.raises(ValueError):
                sinkhorn(np.zeros((2, 2)), epsilon=1e-3, tol=tol)
        for shape in ((0, 3), (3, 0)):
            with pytest.raises(ShapeError, match=rf"shape \({shape[0]}, {shape[1]}\)"):
                sinkhorn(np.zeros(shape), epsilon=1e-3)
        with pytest.raises(ShapeError, match=r"shape \(3, 0\)"):
            assign_l2_labels(np.zeros((3, 0)), temperature=0.1)


class TestAssignLabels:
    def test_uniform_plan_scales(self):
        plan = sinkhorn(np.full((4, 2), 1.0), 1e-3, iters=5)
        gamma = assign_soft_labels(plan)
        np.testing.assert_allclose(gamma, 0.5, atol=1e-12)

    def test_diagonal_plan_scales_to_identity(self):
        plan = sinkhorn(np.array([[0.0, 10.0], [10.0, 0.0]]), 1e-3, iters=20)
        gamma = assign_soft_labels(plan)
        np.testing.assert_allclose(gamma, np.eye(2), atol=1e-9)

    def test_column_sums_hit_quota(self, rng):
        cost = rng.uniform(0, 0.01, size=(24, 4))
        gamma = assign_soft_labels(sinkhorn(cost, 1e-3, iters=200, tol=1e-9))
        np.testing.assert_allclose(gamma.sum(axis=0), 6.0, atol=24 * 1e-6)

    def test_l2_dominant_entry(self):
        gamma = assign_l2_labels(np.array([[0.0, 10.0]]), temperature=1e-3)
        np.testing.assert_allclose(gamma, [[1.0, 0.0]], atol=1e-12)

    def test_l2_constant_cost_uniform(self):
        gamma = assign_l2_labels(np.full((3, 4), 7.0), temperature=0.1)
        np.testing.assert_allclose(gamma, 0.25, atol=1e-12)

    def test_l2_ignores_equipartition(self, rng):
        # Random instances generically leave column sums far from N/J.
        cost = rng.uniform(0, 1, size=(40, 4))
        gamma = assign_l2_labels(cost, temperature=0.05)
        deviation = np.abs(gamma.sum(axis=0) - 10.0).max()
        assert deviation > 10 * 1e-6 * 40

    def test_l2_rows_sum_to_one(self, rng):
        gamma = assign_l2_labels(rng.uniform(0, 5, size=(13, 6)), temperature=0.7)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


class TestPrototypesBackward:
    def test_matches_finite_differences(self, rng):
        n, d, j = 7, 4, 3
        pts = rng.normal(size=(n, 3))
        feats = rng.normal(size=(n, d))
        scores = rng.dirichlet(np.ones(j), size=n)
        w_geo = rng.normal(size=(j, 3))

        def loss(scores_arr):
            protos = compute_prototypes(point_block(pts, feats), scores_arr)
            return float((w_geo * protos.geo).sum())

        block = point_block(pts, feats)
        protos = compute_prototypes(block, scores)
        d_scores = prototypes_backward(block, protos, w_geo)

        h = 1e-6
        for k in range(scores.size):
            orig = scores.flat[k]
            scores.flat[k] = orig + h
            plus = loss(scores)
            scores.flat[k] = orig - h
            minus = loss(scores)
            scores.flat[k] = orig
            fd = (plus - minus) / (2 * h)
            assert d_scores.flat[k] == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_matches_einsum_at_paper_shape(self):
        block, scores, protos = paper_shape_inputs()
        points = block[:, -4:-1]
        rng = np.random.default_rng(5)
        d_geo = rng.normal(size=protos.geo.shape)
        d_scores = prototypes_backward(block, protos, d_geo)

        weights = scores.sum(axis=0)
        ref = ((np.einsum("ik,jk->ij", points, d_geo)
                - np.einsum("jk,jk->j", protos.geo, d_geo)[None, :]) / weights[None, :])
        assert np.abs(d_scores - ref).max() <= 1e-12 * np.abs(ref).max()
