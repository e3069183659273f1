"""Training losses and their exact gradients.

The primary objective is the cross-entropy between the transport-derived
soft labels (treated as constants) and the predicted score matrix. A small
orthogonality penalty on the normalized geometric prototypes is added,
weighted by the constant `ORTH_WEIGHT`. It is not what keeps clusters from
collapsing onto one centroid: the labels' equipartition already rules that
out. Its measured role is the solver's work: it keeps the transport solves
of a default 20-epoch run cheap (README gives the measurement). The
feature prototypes carry no penalty: on that run one sat near its ceiling
throughout, the normalized feature prototypes being nearly parallel, and
made no difference to the solves. The gradient reaches the encoder at its
logits, in closed form (`logit_gradient`), with no gradient at the scores
built on the way.

Every function here allocates the arrays it builds and never writes its
arguments, with one exception: `logit_gradient` spends the score term it
is handed. The (N, J) arrays built here take the layout of the scores
(see `trainer.EStepResult`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Prototypes
from .errors import NumericalError, ShapeError

ZERO_NORM_EPS = 1e-12
ORTH_WEIGHT = 0.01  # the orthogonality penalty's weight in the total loss


@dataclass
class LossReport:
    l_soft: float
    l_orth: float
    l_total: float


def soft_ce_loss(gamma, scores: np.ndarray) -> float:
    """Mean cross-entropy -(1/N) sum_ij gamma_ij log s_ij.

    gamma is a constant target: no gradient flows into it. A NaN score
    passes to a NaN loss.
    """
    g = np.asarray(gamma, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if g.shape != s.shape:
        raise ShapeError(f"soft labels {g.shape} and scores {s.shape} must match")
    if s.min() <= 0.0:
        raise NumericalError("scores must be strictly positive for log-loss")
    # einsum, not vdot: OpenBLAS splits a long ddot by its thread count, and so its bits
    return float(-np.einsum("ij,ij->", g, np.log(s)) / s.shape[0])


def logit_gradient(gamma, scores: np.ndarray, score_term: np.ndarray) -> np.ndarray:
    """dL/dlogits, (N, J), of l_soft plus a loss whose gradient at the
    scores is score_term T, where scores are the row softmax of the logits.

    With dL/dS = T - gamma / (N s), the softmax Jacobian gives
    s * (dL/dS - rowsum(s * dL/dS)), which is, in closed form,
      s * (T + rowsum(gamma) / N - rowsum(s * T)) - gamma / N,
    so no gradient at the scores is built and no score is divided by.
    score_term is overwritten.
    """
    g = np.asarray(gamma, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    t = score_term
    n = s.shape[0]
    if not (g.shape == s.shape == t.shape):
        raise ShapeError(f"soft labels {g.shape}, scores {s.shape} and score term "
                         f"{t.shape} must match")
    shift = g.sum(axis=1) / n
    shift -= np.einsum("ij,ij->i", s, t)
    t += shift[:, None]
    t *= s
    d_logits = g * (-1.0 / n)
    d_logits += t
    return d_logits


def orth_loss(protos: Prototypes) -> tuple[float, np.ndarray]:
    """Frobenius distance of the normalized Gram matrix of the geometric
    prototypes from identity, and its gradient at them.

    Rows with tiny norm are left out of the Gram matrix (their unit row is
    zero, and so is their diagonal entry of the identity) and get zero
    gradient; at the exact orthonormal optimum the (subgradient) is zero.
    The feature prototypes are not read.
    """
    geo = np.asarray(protos.geo, dtype=np.float64)
    norms = np.sqrt(np.einsum("jk,jk->j", geo, geo))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= ZERO_NORM_EPS)
    unit = geo * inv[:, None]
    gram_err = unit @ unit.T
    gram_err.flat[::inv.size + 1] -= inv > 0.0
    loss = float(np.sqrt(np.vdot(gram_err, gram_err)))
    if loss == 0.0:
        return 0.0, np.zeros_like(unit)
    d_unit = (2.0 / loss) * (gram_err @ unit)
    d_unit -= np.einsum("jk,jk->j", d_unit, unit)[:, None] * unit
    d_unit *= inv[:, None]
    return loss, d_unit


def total_loss(gamma, scores: np.ndarray, protos: Prototypes) -> tuple[LossReport, np.ndarray]:
    """Combined objective l_soft + ORTH_WEIGHT * l_orth with its gradient
    at the geometric prototypes.

    Returns (report, dL/dC_geo); the prototype gradient is already scaled
    by ORTH_WEIGHT and still needs chaining through the weighted centroids:
    `clustering.prototypes_backward` turns it into a score term for
    `logit_gradient`.
    """
    l_soft = soft_ce_loss(gamma, scores)
    l_orth, d_geo = orth_loss(protos)
    report = LossReport(l_soft=l_soft, l_orth=l_orth, l_total=l_soft + ORTH_WEIGHT * l_orth)
    return report, ORTH_WEIGHT * d_geo
