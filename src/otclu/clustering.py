"""Balanced soft clustering of point features via entropic optimal transport.

Each cluster is represented by two prototypes: a score-weighted centroid of
the 3D coordinates and one of the per-point features, defined only while the
cluster holds score mass (its column sum of the (N, J) score matrix); a
cluster without any is a `NumericalError`. Points are softly assigned to
clusters by solving a transport problem whose marginals force every cluster
to receive the same total mass (N/J points' worth), so no cluster can
swallow the whole cloud. The plain softmax-over-distance assignment is kept
as a baseline; it carries no such guarantee. Both read the cost only up to a
constant per row (see `compute_cost`). The transport problem is solved by
Sinkhorn scaling and then by Newton steps on the J column potentials, which
finish it quadratically (see `sinkhorn`).

Every function here allocates the arrays it builds and never writes its
arguments. The (N, k) arrays a training step builds here are column-major
(see `trainer.EStepResult`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, check_int, check_real

EMPTY_CLUSTER_EPS = 1e-12
MAX_ITERS = 1000           # cap on a solve's Sinkhorn iterations and Newton steps together
TOL = 1e-6                 # marginal residual a solve stops within (see `sinkhorn`)
NEWTON_SWITCH = 1e-4       # Sinkhorn's row residual at which Newton steps take over
LINE_SEARCH_HALVINGS = 10  # a Newton step cut below 2**-10 fails (see `_newton_steps`)


@dataclass(frozen=True)
class SolverConfig:
    """The assignment problem's settings; when a solve stops is the
    solver's own rule, `MAX_ITERS` and `TOL`."""

    epsilon: float = 1e-3
    lam: float = 0.5
    num_clusters: int = 64

    def __post_init__(self):
        check_real("epsilon", self.epsilon, 0.0, strict=True)
        check_real("lambda", self.lam, 0.0, 1.0)
        check_int("num_clusters", self.num_clusters, 2)


@dataclass
class Prototypes:
    """Per-cluster centroids: geo is (J, 3), feat is (J, d); mass (J,) is
    the score mass each was built from, which `prototypes_backward` reads."""

    geo: np.ndarray
    feat: np.ndarray
    mass: np.ndarray | None = None


@dataclass
class TransportPlan:
    """Coupling matrix (N, J) with total mass 1, the iterations it took
    (Sinkhorn iterations and Newton steps), and the column potential (J,)
    that `sinkhorn` can start a later solve from."""

    matrix: np.ndarray
    iterations: int
    potential: np.ndarray

    def marginal_residual(self) -> float:
        """Max deviation of row sums from 1/N and column sums from 1/J."""
        n, j = self.matrix.shape
        row = np.abs(self.matrix.sum(axis=1) - 1.0 / n).max()
        col = np.abs(self.matrix.sum(axis=0) - 1.0 / j).max()
        return float(max(row, col))


def point_block(points, features) -> np.ndarray:
    """The (N, d + 4) column-major point block [F | X | 1]: features,
    coordinates and a ones column, the layout `encoder.forward` builds its
    features in. Every (N, ·) product of the clustering step is one matmul
    of it: against scores its ones column gives the cluster masses, and
    against a (d + 4, J) matrix its last row adds a constant per cluster."""
    points = np.asarray(points, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if points.shape != (n, 3):
        raise ShapeError(f"points {points.shape} and features ({n}, {d}) must agree on N")
    block = np.empty((n, d + 4), order="F")
    block[:, :d] = features
    block[:, d:-1] = points
    block[:, -1] = 1.0
    return block


def compute_prototypes(block: np.ndarray, scores: np.ndarray) -> Prototypes:
    """Score-weighted centroids of coordinates and features.

    Column j of the score matrix weights point i by scores[i, j], and
    prototype j divides by the column sum, the cluster's score mass: one
    matmul scores^T [F | X | 1] (see `point_block`) gives the weighted sums
    and the masses. Raises NumericalError naming the first cluster whose
    mass is below `EMPTY_CLUSTER_EPS`: its centroid is undefined. A NaN mass
    passes, so the cost it makes reaches `sinkhorn`'s check for non-finite
    entries.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != block.shape[0]:
        raise ShapeError(f"point block ({block.shape[0]}) and scores ({scores.shape[0]}) "
                         f"must agree on N")
    # (J, d + 4); as scores^T block, OpenBLAS's bits would change with its thread count
    sums = (block.T @ scores).T
    weights = sums[:, -1]
    empty = np.flatnonzero(weights < EMPTY_CLUSTER_EPS)
    if empty.size:
        j = empty[0]
        raise NumericalError(f"cluster {j} has score mass {weights[j]:g} "
                             f"(< {EMPTY_CLUSTER_EPS:g}); its prototypes are undefined")
    centroids = sums[:, :-1] / weights[:, None]
    return Prototypes(geo=centroids[:, -3:], feat=centroids[:, :-3], mass=weights)


def compute_cost(block: np.ndarray, protos: Prototypes, lam: float) -> np.ndarray:
    """The blend lam*|x_i - c_j|^2 + (1-lam)*|f_i - c'_j|^2 up to per-row constants, (N, J).

    Expanding each squared distance leaves the row norms lam*|x_i|^2 +
    (1-lam)*|f_i|^2, one constant per row, which no consumer reads: the
    Sinkhorn plan and the L2-softmax labels do not change when a row is
    shifted, and a balanced hard assignment takes one entry per row. So
    C = -2(1-lam) f.c'^T - 2 lam x.c^T + (lam|c|^2 + (1-lam)|c'|^2), one
    matmul of the point block [F | X | 1] (see `point_block`) whose ones
    column adds the last term, with no (N, J, d) difference tensor. Entries
    may be negative.
    """
    check_real("lambda", lam, 0.0, 1.0)
    d, j = protos.feat.shape[1], protos.feat.shape[0]
    factor = np.empty((d + 4, j))
    np.multiply(-2.0 * (1.0 - lam), protos.feat.T, out=factor[:d])
    np.multiply(-2.0 * lam, protos.geo.T, out=factor[d:-1])
    factor[-1] = (lam * np.einsum("jk,jk->j", protos.geo, protos.geo)
                  + (1.0 - lam) * np.einsum("jk,jk->j", protos.feat, protos.feat))
    return np.matmul(block, factor, out=np.empty((block.shape[0], j), order="F"))


def _cost_matrix(cost) -> np.ndarray:
    d = np.asarray(cost, dtype=np.float64)
    if d.ndim != 2 or 0 in d.shape:
        raise ShapeError(f"cost must be a non-empty matrix, got shape {d.shape}")
    return d


def sinkhorn(cost, epsilon: float = SolverConfig.epsilon, iters: int = MAX_ITERS,
             tol: float = TOL, potential=None) -> TransportPlan:
    """Entropically regularized balanced transport: Sinkhorn scaling, then
    Newton steps on the J column potentials.

    The kernel is built once on a shifted cost, K = exp((f_i + g_j - C_ij)/eps)
    with f the row minima of C and g the column minima of C - f, so every
    row and every column of K holds an exact 1 and no row can underflow
    (Peyre & Cuturi, Computational Optimal Transport, 2019, sec. 4.4); the
    shifts do not change the plan. The scaling vectors iterate
    u = a / (K v), v = b / (K^T u) until the row residual
    max |u * (K v) - 1/N| is below `NEWTON_SWITCH` or `tol`. Newton steps on
    log v then hold the rows exact and take the column residual
    max |c - 1/J| down quadratically (Brauer, Clason, Lorenz & Wirth, "A
    Sinkhorn-Newton method for entropic optimal transport", 2017), each
    taken at the first length 2**-k, k = 0..10, that raises the concave
    semi-dual; on a direction that is not one of ascent, none does. The first
    step that starts within `tol` lands the solve, and two more steps on
    that step's Hessian take the plan to the float64 floor: at the paper's
    shape, column residuals below 3e-16, and rows at 4e-18 or below. Where
    the steps stall, as they do on near-hard plans, the solve goes back to
    Sinkhorn iterations until the row residual is below `tol`. `iters` caps
    Sinkhorn iterations and Newton steps together and the plan's
    `iterations` counts both: a solve that reaches the cap returns its plan
    with the residual it reached. Every E-step solves at the defaults,
    `MAX_ITERS` and `TOL`.

    The plan carries its column potential psi_j = g_j + eps * log v_j, which
    does not depend on the shifts (ibid., ch. 4). Given a finite `potential`
    from an earlier solve on a similar cost, the solve starts from
    v = exp((psi - g)/eps - max) instead of v = 1 and stops at the same
    `tol`. If that start ends in a plan that is not finite while the cost is
    finite, the cost is solved again from v = 1, and that plan, equal byte
    for byte to a solve without `potential`, is returned.

    Raises NumericalError if the plan is not finite, naming the cause: NaN or
    infinite cost entries, or scaling vectors that overflowed, which they do
    once the cost spread is of the order of 1e4 * epsilon; that message
    gives the widest row's spread, max_i (max_j C_ij - min_j C_ij), over
    epsilon.
    """
    d = _cost_matrix(cost)
    check_real("epsilon", epsilon, 0.0, strict=True)
    check_real("tol", tol, 0.0, strict=True)
    check_int("iters", iters, 1)
    if potential is not None:
        potential = np.asarray(potential, dtype=np.float64)
        if potential.shape != d.shape[1:]:
            raise ShapeError(f"potential shape {potential.shape} does not match "
                             f"the cost's {d.shape[1]} columns")
        if not np.all(np.isfinite(potential)):
            potential = None

    plan = _scale(d, epsilon, iters, tol, potential)
    finite = np.all(np.isfinite(plan.matrix))
    if not finite and potential is not None and np.all(np.isfinite(d)):
        plan = _scale(d, epsilon, iters, tol, None)  # the warm start overflowed
        finite = np.all(np.isfinite(plan.matrix))
    if not finite:
        bad = d.size - np.count_nonzero(np.isfinite(d))
        if bad:
            raise NumericalError(f"cost matrix has {bad} non-finite entries (NaN or "
                                 f"infinity) of {d.size}; the transport plan is not finite")
        spread = (d.max(axis=1) - d.min(axis=1)).max() / epsilon
        raise NumericalError(
            f"transport plan became non-finite after {plan.iterations} iterations (Sinkhorn "
            f"iterations and Newton steps); epsilon {epsilon:g} is too small for the cost "
            f"spread: the widest row spans {spread:.4g} times epsilon")
    return plan


def _scale(d: np.ndarray, epsilon: float, iters: int, tol: float,
           potential: np.ndarray | None) -> TransportPlan:
    """One solve of `sinkhorn`, from v = 1 or from a finite column potential;
    the plan is built in the kernel's array."""
    n, m = d.shape
    switch = max(NEWTON_SWITCH, tol)
    with np.errstate(all="ignore"):  # a NaN or an overflow must reach sinkhorn's check
        shifted = np.subtract(d, d.min(axis=1, keepdims=True), order="F")
        g = shifted.min(axis=0)
        shifted -= g
        shifted /= -epsilon
        kernel = np.exp(shifted, out=shifted)
        if potential is None:
            kv = kernel.sum(axis=1)
        else:
            start = (potential - g) / epsilon
            kv = kernel @ np.exp(start - start.max())
        iterations, u, v, kv, residual = _sinkhorn_steps(kernel, kv, switch, 0, iters)
        if residual < switch and iterations < iters:
            iterations, v, kv, done = _newton_steps(kernel, v, kv, tol, iterations, iters)
            if done:
                u = (1.0 / n) / kv
            else:
                iterations, u, v, kv, _ = _sinkhorn_steps(kernel, kv, tol, iterations, iters)
        plan = kernel  # diag(u) K diag(v), scaled in place
        plan *= u[:, None]
        plan *= v
        psi = g + epsilon * np.log(v)
    return TransportPlan(matrix=plan, iterations=iterations, potential=psi)


def _sinkhorn_steps(kernel, kv, stop, iterations, iters):
    """Sinkhorn iterations u = a / (K v), v = b / (K^T u) after `iterations`
    (< `iters`) done, until the row residual max |u * (K v) - a| is below
    `stop` (or NaN) or `iters` are done. Returns the count, u, v, K v and
    that residual."""
    n, m = kernel.shape
    a, b = 1.0 / n, 1.0 / m
    while True:
        iterations += 1
        u = a / kv
        v = b / (u @ kernel)
        kv = kernel @ v
        residual = np.abs(u * kv - a).max()
        # not >=, so a NaN residual stops too: the plan is then not finite
        if not residual >= stop or iterations == iters:
            return iterations, u, v, kv, residual


def _newton_steps(kernel, v, kv, tol, iterations, iters):
    """Newton steps on x = log v, the rows held exact (u = a / K v), for the
    concave semi-dual F(x) = (1/J) sum_j x_j - (1/N) sum_i log (K v)_i.

    Its gradient is b - c, with c the column sums of the plan
    P = diag(u) K diag(v), and its negated Hessian H = diag(c) - N P^T P is
    singular along the constant direction, which each step fixes by leaving
    x_J alone. A step along the Newton direction delta is taken at the first
    t of 1, 1/2, ..., 2**-LINE_SEARCH_HALVINGS at which F rises and v stays
    positive. F is concave, so every t fails on a delta that does not ascend.

    A fresh H is built for the first step, for a step after one that did
    not halve the residual max |c - b|, and for the landing step, the first
    that starts within `tol`; the other steps reuse it. Two polishing steps
    on the landing step's H, with no rebuild, end the solve: at the
    paper's shape the first leaves column residuals of up to 1.6e-15, and
    the second takes them below 3e-16. Building H scales the rows of
    `kernel` in place by u, so that K^T K is diag(v)^-1 P^T P diag(v)^-1;
    the K v passed in and out is always that of the kernel as it stands.

    Returns the count, v, K v and whether the solve is done (landed, or at
    `iters`). A step whose solve raises or whose 11 trials all fail, as at
    the float64 floor, is not taken or counted. If it started within `tol`
    (a landing or a polishing step), the v it started from is returned as
    done; otherwise False hands the solve back to Sinkhorn iterations, as
    do two steps in a row that did not halve the residual.
    """
    n, m = kernel.shape
    a, b = 1.0 / n, 1.0 / m
    hessian, previous, slow = None, np.inf, False
    landed = 0  # steps taken on the landing step's H: the landing step, then two polishing
    while iterations < iters:
        u = a / kv
        col = v * (u @ kernel)
        grad = b - col
        residual = np.abs(grad).max()
        last = residual < tol
        if not landed:  # the polishing steps reuse the landing step's H
            if not (last or residual < 0.5 * previous):
                if slow:
                    return iterations, v, kv, False
                hessian, slow = None, True
            else:
                slow = False
            if hessian is None or last:
                kernel *= u[:, None]
                kv = kv * u
                hessian = kernel.T @ kernel
                hessian *= -n * v[:, None]
                hessian *= v
                hessian.flat[::m + 1] += col
        try:
            delta = np.append(np.linalg.solve(hessian[:-1, :-1], grad[:-1]), 0.0)
        except np.linalg.LinAlgError:
            return iterations, v, kv, landed > 0 or last
        for halving in range(LINE_SEARCH_HALVINGS + 1):
            t = 0.5 ** halving
            w = v * np.expm1(t * delta)  # the step in v, to full precision
            dk = kernel @ w              # and in K v
            # F(x + t delta) - F(x), as accurate as it is small; not finite
            # where a row of K v reached 0
            gain = t * delta.mean() - np.log1p(dk / kv).mean()
            stepped = v + w
            if 0.0 < gain < np.inf and stepped.min() > 0.0:
                break
        else:
            return iterations, v, kv, landed > 0 or last
        iterations += 1
        v, kv, previous = stepped, kv + dk, residual
        if landed or last:
            landed += 1
            if landed == 3:
                return iterations, v, kv, True
    return iterations, v, kv, True


def assign_soft_labels(plan: TransportPlan) -> np.ndarray:
    """Scale a transport plan to per-point distributions: labels (N, J) = N * plan."""
    return float(plan.matrix.shape[0]) * plan.matrix


def assign_l2_labels(cost, temperature: float) -> np.ndarray:
    """Per-row softmax over negative cost (N, J): the unconstrained baseline.

    Rows sum to 1, but column sums are unconstrained, so clusters may
    receive arbitrarily unbalanced mass.
    """
    check_real("temperature", temperature, 0.0, strict=True)
    d = _cost_matrix(cost)
    logits = -d / temperature
    logits -= logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return expd / expd.sum(axis=1, keepdims=True)


def prototypes_backward(block: np.ndarray, protos: Prototypes, d_geo: np.ndarray) -> np.ndarray:
    """Chain a loss gradient at the geometric prototypes back to the scores.

    For a weighted centroid c_j = sum_i s_ij x_i / w_j of mass w_j = sum_i s_ij,
      dL/ds_ij = dL/dc_j . (x_i - c_j) / w_j,
    an (N, J) score term: one matmul of the [X | 1] columns of the point
    block (see `point_block`) by a (4, J) factor whose ones row subtracts
    the dL/dc_j . c_j / w_j. `protos` carry the masses w_j that
    `compute_prototypes` has already checked against `EMPTY_CLUSTER_EPS`.
    """
    j = protos.geo.shape[0]
    per_geo = d_geo / protos.mass[:, None]
    factor = np.empty((4, j))
    factor[:-1] = per_geo.T
    factor[-1] = -(protos.geo * per_geo).sum(axis=1)
    return np.matmul(block[:, -4:], factor, out=np.empty((block.shape[0], j), order="F"))
