import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from otclu.clustering import sinkhorn
from otclu.errors import DivisibilityError, SizeError
from otclu.oracle import balanced_hard_assign, exact_ot, grad_check


def scipy_ot_objective(cost):
    """Independent LP solution via scipy's HiGHS backend."""
    n, m = cost.shape
    a_eq = []
    for i in range(n):  # row marginals
        row = np.zeros((n, m))
        row[i, :] = 1
        a_eq.append(row.ravel())
    for j in range(m):  # column marginals
        col = np.zeros((n, m))
        col[:, j] = 1
        a_eq.append(col.ravel())
    b_eq = [1.0 / n] * n + [1.0 / m] * m
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


class TestExactOt:
    def test_constant_cost(self):
        plan = exact_ot(np.full((4, 2), 3.0))
        assert plan.objective == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(plan.plan.sum(axis=1), 0.25, atol=1e-12)
        np.testing.assert_allclose(plan.plan.sum(axis=0), 0.5, atol=1e-12)

    def test_diagonal_optimum(self):
        plan = exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(plan.plan, [[0.5, 0], [0, 0.5]], atol=1e-12)
        assert plan.objective == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy_on_random_instances(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(2, 7))
            cost = rng.uniform(0, 1, size=(n, m))
            mine = exact_ot(cost)
            assert mine.objective == pytest.approx(scipy_ot_objective(cost), abs=1e-9)
            np.testing.assert_allclose(mine.plan.sum(axis=1), 1 / n, atol=1e-10)
            np.testing.assert_allclose(mine.plan.sum(axis=0), 1 / m, atol=1e-10)

    def test_degenerate_marginals_exact(self, rng):
        # N a multiple of J exercises the degenerate northwest-corner path.
        for n, m in ((8, 4), (12, 6), (6, 3), (9, 3)):
            cost = rng.uniform(0, 1, size=(n, m))
            plan = exact_ot(cost)
            assert np.abs(plan.plan.sum(axis=1) - 1 / n).max() < 1e-10
            assert np.abs(plan.plan.sum(axis=0) - 1 / m).max() < 1e-10
            assert plan.objective == pytest.approx(scipy_ot_objective(cost), abs=1e-9)

    def test_lower_bounds_sinkhorn(self, rng):
        for _ in range(10):
            cost = rng.uniform(0, 0.05, size=(6, 3))
            best = exact_ot(cost)
            for eps in (1e-1, 1e-2, 1e-3):
                plan = sinkhorn(cost, eps, iters=100_000, tol=1e-8).matrix
                assert (plan * cost).sum() >= best.objective - 1e-9

    def test_size_cap(self):
        with pytest.raises(SizeError):
            exact_ot(np.zeros((13, 2)))
        with pytest.raises(SizeError):
            exact_ot(np.zeros((4, 7)))


class TestBalancedHardAssign:
    def test_diagonal(self):
        labels = balanced_hard_assign(np.array([[0.0, 9.0], [9.0, 0.0]]))
        np.testing.assert_array_equal(labels, [0, 1])

    def test_four_points_two_clusters_enumerated(self, rng):
        # Exhaustively verify against all 3 balanced pairings by hand.
        cost = rng.uniform(0, 1, size=(4, 2))
        best_cost, best_labels = np.inf, None
        for pair in itertools.combinations(range(4), 2):
            labels = np.ones(4, dtype=int)
            labels[list(pair)] = 0
            total = cost[np.arange(4), labels].sum()
            if total < best_cost:
                best_cost, best_labels = total, labels
        got = balanced_hard_assign(cost)
        assert cost[np.arange(4), got].sum() == pytest.approx(best_cost, abs=1e-12)
        np.testing.assert_array_equal(got, best_labels)

    def test_column_permutation_relabels(self, rng):
        cost = rng.uniform(0, 1, size=(6, 3))
        base = balanced_hard_assign(cost)
        perm = np.array([2, 0, 1])
        permuted = balanced_hard_assign(cost[:, perm])
        np.testing.assert_array_equal(perm[permuted], base)

    def test_row_constants_change_no_label(self, rng):
        # A cost defined up to per-row constants, as compute_cost's is, may
        # hold negative entries; the minimizer is that of the shifted cost.
        for _ in range(20):
            cost = rng.uniform(0, 1, size=(8, 4))
            shifted = cost + rng.normal(-5.0, 3.0, size=(8, 1))
            np.testing.assert_array_equal(balanced_hard_assign(shifted),
                                          balanced_hard_assign(cost))

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            balanced_hard_assign(np.zeros((5, 2)))

    def test_size_cap(self):
        with pytest.raises(SizeError):
            balanced_hard_assign(np.zeros((16, 2)))

    def test_is_feasible_transport_vertex(self, rng):
        # The balanced assignment, scaled to mass 1/N, is a feasible plan,
        # so the LP optimum can only be at most its cost.
        cost = rng.uniform(0, 1, size=(8, 4))
        labels = balanced_hard_assign(cost)
        assign_cost = cost[np.arange(8), labels].sum() / 8
        assert exact_ot(cost).objective <= assign_cost + 1e-12


class TestGradCheck:
    def test_quadratic_exact(self):
        params = {"theta": np.asarray(3.0)}
        report = grad_check(lambda p: float(p["theta"]) ** 2, params,
                            {"theta": np.asarray(6.0)}, h=1e-5, rel_tol=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_corrupted_gradient_fails(self):
        params = {"theta": np.asarray(3.0)}
        report = grad_check(lambda p: float(p["theta"]) ** 2, params,
                            {"theta": np.asarray(6.6)}, h=1e-5, rel_tol=1e-4)
        assert not report.passed
        assert report.worst_param == "theta"

    def test_multi_array_params(self, rng):
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=3)

        def loss(p):
            return float(np.sum((x @ p["w"] + p["b"]) ** 2))

        grads = {"w": np.outer(x, 2 * (x @ w + b)), "b": 2 * (x @ w + b)}
        report = grad_check(loss, {"w": w, "b": b}, grads)
        assert report.passed
