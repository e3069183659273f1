"""Exact reference solvers and checkers, used only for verification.

Everything here is deliberately independent of the production solver code:
the LP solver is a transportation simplex over exact rational allocations,
the balanced assignment solver is exhaustive enumeration, and the gradient
checker uses central finite differences. None of them share scaling or
backprop routines with the modules they certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DivisibilityError, SizeError

MAX_OT_POINTS = 12
MAX_OT_CLUSTERS = 6
MAX_ASSIGN_POINTS = 12
MAX_ASSIGN_CLUSTERS = 4

_RC_TOL = 1e-12
_MAX_PIVOTS = 10_000


@dataclass
class ExactPlan:
    """A provably optimal transport plan on a small instance."""

    plan: np.ndarray
    objective: float


def _northwest_corner(n: int, m: int):
    """Initial basic feasible solution with exactly n + m - 1 basic cells.

    Allocations are Fractions, so the marginals hold exactly. When a supply
    and a demand are exhausted simultaneously (degenerate step), a zero
    allocation is kept basic to preserve the spanning-tree structure.
    """
    supply = [Fraction(1, n) for _ in range(n)]
    demand = [Fraction(1, m) for _ in range(m)]
    alloc: dict[tuple[int, int], Fraction] = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        alloc[(i, j)] = q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        # On simultaneous exhaustion move down only; the next cell then
        # receives a zero allocation, which keeps the staircase connected.
        if supply[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1
    return alloc, basis


def _compute_duals(cost: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    n, m = cost.shape
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    u[0] = 0.0
    pending = list(basis)
    while pending:
        progressed = False
        remaining = []
        for (i, j) in pending:
            if not np.isnan(u[i]):
                v[j] = cost[i, j] - u[i]
                progressed = True
            elif not np.isnan(v[j]):
                u[i] = cost[i, j] - v[j]
                progressed = True
            else:
                remaining.append((i, j))
        pending = remaining
        if not progressed and pending:
            raise RuntimeError("basis does not form a spanning tree")
    return u, v


def _find_cycle(basis, entering):
    """Unique cycle in basis + entering, alternating row and column moves."""
    cells = set(basis) | {entering}
    by_row: dict[int, list] = {}
    by_col: dict[int, list] = {}
    for (i, j) in cells:
        by_row.setdefault(i, []).append((i, j))
        by_col.setdefault(j, []).append((i, j))

    # Depth-first search over cells; steps alternate between moving along a
    # row and moving along a column, starting with a row move.
    def search(path, along_row):
        cur = path[-1]
        neighbors = by_row.get(cur[0], []) if along_row else by_col.get(cur[1], [])
        for nxt in neighbors:
            if nxt == cur:
                continue
            if nxt == entering and len(path) >= 3 and not along_row:
                return path
            if nxt in path:
                continue
            found = search(path + [nxt], not along_row)
            if found is not None:
                return found
        return None

    cycle = search([entering], True)
    if cycle is None:
        raise RuntimeError("no pivot cycle found")
    return cycle


def exact_ot(cost) -> ExactPlan:
    """Globally optimal plan for min <plan, cost> with uniform marginals.

    Marginals are 1/N per row and 1/M per column. Solved with a
    transportation simplex; Bland's rule on the entering cell prevents
    cycling through degenerate pivots.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > MAX_OT_POINTS or m > MAX_OT_CLUSTERS:
        raise SizeError(f"exact_ot supports at most {MAX_OT_POINTS}x{MAX_OT_CLUSTERS}, got {n}x{m}")

    alloc, basis = _northwest_corner(n, m)
    for _ in range(_MAX_PIVOTS):
        u, v = _compute_duals(cost, basis)
        reduced = cost - u[:, None] - v[None, :]
        entering = None
        for i in range(n):  # Bland: first cell in row-major order
            for j in range(m):
                if (i, j) not in alloc and reduced[i, j] < -_RC_TOL:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            break
        cycle = _find_cycle(basis, entering)
        givers = cycle[1::2]
        theta = min(alloc[c] for c in givers)
        leaving = min(c for c in givers if alloc[c] == theta)  # Bland: lex-min tie-break
        for k, c in enumerate(cycle):
            if k % 2 == 0:
                alloc[c] = alloc.get(c, Fraction(0)) + theta
            else:
                alloc[c] -= theta
        del alloc[leaving]
        basis.remove(leaving)
        basis.append(entering)
    else:
        raise RuntimeError("transportation simplex failed to terminate")

    plan = np.zeros((n, m))
    for (i, j), q in alloc.items():
        plan[i, j] = float(q)
    return ExactPlan(plan=plan, objective=float((plan * cost).sum()))


def balanced_hard_assign(cost) -> np.ndarray:
    """Exact minimizer of sum_i cost[i, label[i]] with exactly N/J points per label.

    Exhaustive search over all balanced label vectors; ties resolve to the
    lexicographically smallest label vector. The search prunes a partial
    sum that already reaches the best total, which is sound only while no
    entry is negative, so it runs on the cost less its row minima: every
    label vector takes one entry per row, so its total shifts by the same
    constant and the minimizer is that of the cost as given.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > MAX_ASSIGN_POINTS or m > MAX_ASSIGN_CLUSTERS:
        raise SizeError(
            f"balanced_hard_assign supports at most {MAX_ASSIGN_POINTS}x{MAX_ASSIGN_CLUSTERS}, got {n}x{m}"
        )
    if n % m != 0:
        raise DivisibilityError(f"{m} clusters do not divide {n} points evenly")
    quota = n // m
    cost = cost - cost.min(axis=1, keepdims=True)

    best_cost = np.inf
    best: np.ndarray | None = None
    labels = np.empty(n, dtype=np.int64)
    remaining = [quota] * m

    def recurse(i: int, partial: float):
        nonlocal best_cost, best
        if partial >= best_cost:
            return
        if i == n:
            best_cost = partial
            best = labels.copy()
            return
        for j in range(m):
            if remaining[j] == 0:
                continue
            remaining[j] -= 1
            labels[i] = j
            recurse(i + 1, partial + cost[i, j])
            remaining[j] += 1

    recurse(0, 0.0)
    assert best is not None
    return best


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    max_rel_error: float
    worst_param: str
    passed: bool


def grad_check(loss_fn, params: dict, grads: dict, h: float = 1e-5,
               rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn is called with the params dict; entries are perturbed in place
    (and restored) one scalar at a time. Relative error for each scalar is
    |g - fd| / (|g| + 1e-8).
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    per_param: dict[str, float] = {}
    for name in params:
        g = np.atleast_1d(np.asarray(grads[name], dtype=np.float64))
        size = np.asarray(params[name]).size
        worst = 0.0
        for k in range(size):
            orig = float(np.asarray(params[name]).flat[k])
            _assign(params, name, k, orig + h)
            plus = loss_fn(params)
            _assign(params, name, k, orig - h)
            minus = loss_fn(params)
            _assign(params, name, k, orig)
            fd = (plus - minus) / (2.0 * h)
            rel = abs(g.flat[k] - fd) / (abs(g.flat[k]) + 1e-8)
            worst = max(worst, rel)
        per_param[name] = worst
    worst_param = max(per_param, key=per_param.get)
    max_rel = per_param[worst_param]
    return GradCheckReport(max_rel, worst_param, max_rel < rel_tol)


def _assign(params: dict, name: str, flat_index: int, value: float):
    arr = params[name]
    if np.isscalar(arr) or getattr(arr, "ndim", 1) == 0:
        params[name] = np.asarray(value, dtype=np.float64)
    else:
        arr.flat[flat_index] = value
