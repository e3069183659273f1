"""The check registry behind `otclu verify` and the acceptance suite.

Each check tests one of the numerical contracts the method rests on
(balanced Sinkhorn labels close to the exact LP, exact loss gradients, a
training run that lowers the loss) on one seeded family of instances,
against an independent oracle (exact LP, exhaustive balanced assignment,
finite differences) or a stated bound. Structural invariants (shift
invariance, equivariance, file round trips, normalization, determinism)
are unit tests of the modules they belong to. A check that overruns its
time budget fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cloud as pc
from . import encoder as enc
from . import oracle
from .clustering import (TOL, Prototypes, SolverConfig, assign_l2_labels, assign_soft_labels,
                         compute_cost, compute_prototypes, point_block, sinkhorn)
from .losses import total_loss
from .trainer import TrainConfig, TrainState, cloud_gradients, e_step, pretrain


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def random_cost(rng, n: int, m: int, scale: float = 0.5) -> np.ndarray:
    """Random nonnegative cost with spread compatible with epsilon=1e-3."""
    return rng.uniform(0.0, scale, size=(n, m))


def ball_cloud(rng, n: int):
    """n points uniform in the unit ball.

    Bounded, unlike heavy-tailed Gaussian clouds, which keeps the cost
    spread seen by the transport solver small.
    """
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return pc.PointCloud(dirs * rng.uniform(size=(n, 1)) ** (1.0 / 3.0))


def blob_cloud(rng, n_blobs: int, per_blob: int, radius: float = 0.04,
               separation: float = 1.0):
    """Well-separated equal-size blobs; separation >= 10x radius by default."""
    centers = separation * _simplex_directions(n_blobs)
    points, membership = [], []
    for k in range(n_blobs):
        offsets = rng.normal(scale=radius / 2.0, size=(per_blob, 3))
        offsets = np.clip(offsets, -radius, radius)
        points.append(centers[k] + offsets)
        membership.extend([k] * per_blob)
    return pc.PointCloud(np.concatenate(points)), np.asarray(membership)


def _simplex_directions(k: int) -> np.ndarray:
    """k well-spread unit-scale directions in R^3."""
    base = np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        [0.577, 0.577, 0.577], [-0.577, -0.577, 0.577],
    ])
    if k > len(base):
        raise ValueError(f"at most {len(base)} blobs supported, got {k}")
    return base[:k]


def purity(labels: np.ndarray, membership: np.ndarray) -> float:
    """Fraction of points whose true group is the majority group of their
    cluster; several clusters may map to the same group."""
    labels = np.asarray(labels)
    membership = np.asarray(membership)
    clusters = np.unique(labels)
    correct = 0
    for c in clusters:
        groups, counts = np.unique(membership[labels == c], return_counts=True)
        correct += counts.max()
    return correct / len(labels)


CONVERGED_TOL = 1e-7


def misses_detail(plans: list) -> str:
    """How many solves run at CONVERGED_TOL stopped at their cap short of it."""
    misses = sum(plan.marginal_residual() >= CONVERGED_TOL for plan in plans)
    return f"{misses} of {len(plans)} solves stopped above tol {CONVERGED_TOL:g}"


# ---------------------------------------------------------------------------
# end-to-end gradient path

def toy_problem(seed: int = 7, n: int = 16, num_clusters: int = 4, dim: int = 8):
    """A seeded cloud, a fresh training state, and its E-step for gradient
    checks."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 3))
    cloud = pc.normalize(pc.PointCloud(raw))
    config = TrainConfig(
        seed=seed,
        solver=SolverConfig(num_clusters=num_clusters, epsilon=1e-2),
        encoder=enc.EncoderConfig(hidden_sizes=(12,), feature_dim=dim,
                                  num_clusters=num_clusters))
    state = TrainState.initial(config)
    return cloud, state, e_step(state.params, cloud, config.solver)


def total_loss_of_params(params: enc.EncoderParams, points: np.ndarray, gamma) -> float:
    """L_tot as a function of the parameters with labels held constant."""
    trace = enc.forward(params, points)
    report, _ = total_loss(gamma, trace.scores, compute_prototypes(trace.block, trace.scores))
    return report.l_total


# ---------------------------------------------------------------------------
# checks: each runs its whole seeded family

def check_sinkhorn_feasibility() -> tuple[bool, str]:
    # Cost spread a few multiples of epsilon: the residual reached under a
    # small cap grows with spread/epsilon. 5x epsilon keeps a cap of 20
    # iterations, Sinkhorn and Newton together, within the 1e-3 contract.
    rng = np.random.default_rng(101)
    grid = [(n, m) for n in (8, 64, 512) for m in (2, 8, 64)]
    count, worst_20, plans = 100, 0.0, []
    for i in range(count):
        d = random_cost(rng, *grid[i % len(grid)], scale=5e-3)
        plans.append(sinkhorn(d, 1e-3, iters=200_000, tol=CONVERGED_TOL))
        worst_20 = max(worst_20, sinkhorn(d, 1e-3, iters=20).marginal_residual())
    worst_conv = max(plan.marginal_residual() for plan in plans)
    ok = worst_conv < 1e-6 and worst_20 < 1e-3
    return ok, (f"{count} instances: converged residual {worst_conv:.2e} (<1e-6), "
                f"capped at 20 iterations {worst_20:.2e} (<1e-3); {misses_detail(plans)}")


def check_lp_gap() -> tuple[bool, str]:
    rng = np.random.default_rng(202)
    count, bound_ok, monotone, worst, plans = 50, True, True, 0.0, []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 5))
        d = random_cost(rng, n, m, scale=0.05)
        best = oracle.exact_ot(d)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            plan = sinkhorn(d, eps, iters=200_000, tol=CONVERGED_TOL)
            plans.append(plan)
            gaps.append(float((plan.matrix * d).sum()) - best.objective)
        bound_ok = bound_ok and gaps[2] <= 1e-3 * np.log(n * m) + 1e-6
        monotone = monotone and gaps[0] + 1e-9 >= gaps[1] >= gaps[2] - 1e-9
        worst = max(worst, gaps[2])
    return bound_ok and monotone, (f"{count} instances: gap <= eps*log(NJ) at eps=1e-3 "
                                   f"{bound_ok} (worst {worst:.2e}), monotone={monotone}; "
                                   f"{misses_detail(plans)}")


def check_gradients() -> tuple[bool, str]:
    # The analytic side is the trainer's own per-cloud gradient chain, which
    # pretrain runs.
    cloud, state, result = toy_problem()
    gamma = result.gamma
    _, grads = cloud_gradients(state, result)
    params = state.params

    def closure(tensors):
        return total_loss_of_params(enc.EncoderParams(params.config, tensors), cloud.points, gamma)

    report = oracle.grad_check(closure, params.tensors, grads, h=1e-5, rel_tol=1e-4)
    return report.passed, f"max rel error {report.max_rel_error:.2e} (<1e-4) at {report.worst_param}"


def check_equipartition() -> tuple[bool, str]:
    rng = np.random.default_rng(404)
    count = 20
    cfg = enc.EncoderConfig(hidden_sizes=(16,), feature_dim=16, num_clusters=8)
    # the equipartition contract is epsilon-independent
    solver = SolverConfig(epsilon=2e-3)
    worst = 0.0
    for trial in range(count):
        params = enc.init_params(cfg, 400 + trial)
        cloud = pc.normalize(ball_cloud(rng, 96))
        g = e_step(params, cloud, solver).gamma
        n, m = g.shape
        worst = max(worst, np.abs(g.sum(axis=0) - n / m).max() / n)
    return worst < 1e-5, f"{count} clouds: max |colsum(labels) - N/J| / N = {worst:.2e} (<1e-5)"


def check_blob_purity() -> tuple[bool, str]:
    rng = np.random.default_rng(505)
    details = []
    ok = True
    for j in (2, 4):
        cloud, membership = blob_cloud(rng, j, 12 // j)
        cloud = pc.normalize(cloud)
        cfg = enc.EncoderConfig(hidden_sizes=(8,), feature_dim=8, num_clusters=j)
        params = enc.init_params(cfg, 50 + j)
        solver = SolverConfig(lam=1.0)
        hard = e_step(params, cloud, solver).gamma.argmax(axis=1)
        p = purity(hard, membership)
        trace = enc.forward(params, cloud.points)
        protos = compute_prototypes(trace.block, trace.scores)
        ref = oracle.balanced_hard_assign(compute_cost(trace.block, protos, 1.0))
        agree = bool(np.array_equal(hard, ref))
        ok = ok and p == 1.0 and agree
        details.append(f"J={j}: purity {p:.2f}, matches oracle: {agree}")
    return ok, "; ".join(details)


def check_learning_signal() -> tuple[bool, str]:
    # Committed oracle run (data seed 606, train seed 17, lr 0.01,
    # epsilon 2e-3): l_total 2.082 -> 0.040 (98.1% reduction), l_orth, the
    # geometric penalty, 4.148 -> 3.818. The contract requires >= 30% and a
    # lower final l_orth.
    rng = np.random.default_rng(606)
    clouds = [pc.normalize(blob_cloud(rng, 8, 32, radius=0.06)[0]) for _ in range(64)]
    config = TrainConfig(
        epochs=20, batch_size=32, lr=0.01, seed=17,
        solver=SolverConfig(num_clusters=8, epsilon=2e-3),
        encoder=enc.EncoderConfig(hidden_sizes=(32,), feature_dim=32, num_clusters=8),
    )
    history = pretrain(clouds, config).history
    first, last = history[0], history[-1]
    reduction = 1.0 - last["l_total"] / first["l_total"]
    ok = reduction >= 0.30 and last["l_orth"] < first["l_orth"]
    capped = sum(m["capped_solves"] for m in history)
    return ok, (f"l_total {first['l_total']:.4f} -> {last['l_total']:.4f} "
                f"({100 * reduction:.1f}% >= 30%), l_orth {first['l_orth']:.3f} -> "
                f"{last['l_orth']:.3f}; {capped} of {len(clouds) * config.epochs} solves "
                f"stopped at the cap above tol {TOL:g}")


def check_ablation_mechanics() -> tuple[bool, str]:
    rng = np.random.default_rng(707)

    # (a) unconstrained softmax assignment piles mass on a cheap cluster
    n, m = 60, 4
    d = rng.uniform(0.2, 0.4, size=(n, m))
    d[:, 0] = rng.uniform(0.0, 0.02, size=n)
    l2 = assign_l2_labels(d, temperature=1e-3)
    plans = [sinkhorn(d, 1e-3, iters=200_000, tol=CONVERGED_TOL)]
    ot = assign_soft_labels(plans[0])
    l2_dev = np.abs(l2.sum(axis=0) - n / m).max() / n
    ot_dev = np.abs(ot.sum(axis=0) - n / m).max() / n
    part_a = l2_dev > 10 * 1e-6 and ot_dev < 1e-5

    # (b) two geometric halves with identical feature multisets: the true
    # feature prototypes coincide, so a feature-only cost cannot separate
    # the halves while an even geometric blend can.
    per_half = 12
    offsets = rng.normal(scale=0.1, size=(per_half, 3))
    offsets[:, 0] = 0.0
    points = np.concatenate([offsets + [-0.5, 0.0, 0.0], offsets + [0.5, 0.0, 0.0]])
    membership = np.repeat([0, 1], per_half)
    pair_feats = rng.normal(scale=0.15, size=(per_half, 4))
    feats = np.concatenate([pair_feats, pair_feats])
    protos = Prototypes(geo=np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                        feat=np.tile(feats.mean(axis=0), (2, 1)))
    purities = {}
    for lam in (0.0, 0.5):
        plan = sinkhorn(compute_cost(point_block(points, feats), protos, lam), 1e-3,
                        iters=200_000, tol=CONVERGED_TOL)
        plans.append(plan)
        purities[lam] = purity(assign_soft_labels(plan).argmax(axis=1), membership)
    part_b = purities[0.0] < 0.6 and purities[0.5] >= 0.99

    return part_a and part_b, (
        f"(a) L2 colsum deviation {l2_dev:.2e} (>1e-5), OT {ot_dev:.2e} (<1e-5); "
        f"(b) purity lam=0 {purities[0.0]:.2f} (<0.6), lam=0.5 {purities[0.5]:.2f} (>=0.99); "
        f"{misses_detail(plans)}")


@dataclass(frozen=True)
class Check:
    """One seeded instance family; `run()` checks all of it."""

    name: str
    run: Callable[[], tuple[bool, str]]
    budget: float       # seconds the check may take


CHECKS = [
    Check("sinkhorn-feasibility", check_sinkhorn_feasibility, 10.0),
    Check("sinkhorn-vs-lp", check_lp_gap, 5.0),
    Check("gradient-exactness", check_gradients, 60.0),
    Check("equipartition", check_equipartition, 10.0),
    Check("blob-purity", check_blob_purity, 10.0),
    Check("learning-signal", check_learning_signal, 300.0),
    Check("ablation-mechanics", check_ablation_mechanics, 10.0),
]


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = check.run()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if seconds >= check.budget:
        passed, detail = False, f"{detail}; took {seconds:.1f}s, budget {check.budget:g}s"
    return CheckResult(check.name, passed, detail, seconds)


def run_checks() -> list[CheckResult]:
    return [run_check(check) for check in CHECKS]
