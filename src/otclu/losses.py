"""Training losses and their exact gradients.

The primary objective is the cross-entropy between the transport-derived
soft labels (treated as constants) and the predicted score matrix. A small
orthogonality penalty on the normalized prototypes, weighted by the constant
`ORTH_WEIGHT`, keeps clusters from collapsing onto a single centroid.

Every function here fills buffers it owns and never writes its arguments,
with one exception: `soft_ce_loss` and `total_loss` build the log buffer,
and then dL/dS in its place, in an `out` array handed in to be overwritten
(`trainer.StepBuffers` gives the plan of which buffer holds what in a
training step, where dL/dS then gains the prototype chain's score
gradient, and the column-major layout of every (N, k) array; the arrays
built here take the layout of the scores).
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


def soft_ce_loss(gamma, scores: np.ndarray, out: np.ndarray | None = None
                 ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy -(1/N) sum_ij gamma_ij log s_ij and dL/dS.

    gamma is a constant target: no gradient flows into it. The log buffer,
    and then dL/dS in its place, is built in `out` when given, an (N, J)
    array to overwrite that is neither gamma nor the scores.
    """
    g = np.asarray(gamma, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if g.shape != s.shape:
        raise ShapeError(f"soft labels {g.shape} and scores {s.shape} must match")
    if np.any(s <= 0.0):
        raise NumericalError("scores must be strictly positive for log-loss")
    n = s.shape[0]
    buf = np.log(s, out=out)
    buf *= g
    loss = float(-buf.sum() / n)
    np.multiply(n, s, out=buf)
    d_scores = np.divide(g, buf, out=buf)
    np.negative(d_scores, out=d_scores)  # -(g / ns) is -g / ns exactly
    return loss, d_scores


def _orth_one(protos: np.ndarray) -> tuple[float, np.ndarray]:
    """Frobenius distance of the normalized Gram matrix from identity.

    Rows with tiny norm are excluded from the Gram matrix and get zero
    gradient; at the exact orthonormal optimum the (subgradient) is zero.
    """
    norms = np.linalg.norm(protos, axis=1)
    valid = norms >= ZERO_NORM_EPS
    grad = np.zeros_like(protos)
    if valid.sum() == 0:
        return 0.0, grad
    unit = protos[valid] / norms[valid, None]
    gram_err = unit @ unit.T - np.eye(unit.shape[0])
    loss = float(np.sqrt((gram_err ** 2).sum()))
    if loss > 0.0:
        d_unit = 2.0 * (gram_err / loss) @ unit
        proj = (d_unit * unit).sum(axis=1, keepdims=True)
        grad[valid] = (d_unit - proj * unit) / norms[valid, None]
    return loss, grad


def orth_loss(protos: Prototypes) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of the geometric- and feature-space orthogonality penalties."""
    loss_geo, d_geo = _orth_one(np.asarray(protos.geo, dtype=np.float64))
    loss_feat, d_feat = _orth_one(np.asarray(protos.feat, dtype=np.float64))
    return loss_geo + loss_feat, d_geo, d_feat


def total_loss(gamma, scores: np.ndarray, protos: Prototypes, out: np.ndarray | None = None
               ) -> tuple[LossReport, np.ndarray, np.ndarray, np.ndarray]:
    """Combined objective l_soft + ORTH_WEIGHT * l_orth with upstream gradients.

    Returns (report, dL/dS, dL/dC_geo, dL/dC_feat); the prototype gradients
    are already scaled by ORTH_WEIGHT and still need chaining through the
    weighted centroids to reach scores and features:
    `clustering.prototypes_backward` adds the score part to dL/dS and
    returns the feature part as a (J, d) factor for `encoder.backward`.
    dL/dS is built in `out` when given (see `soft_ce_loss`).
    """
    l_soft, d_scores = soft_ce_loss(gamma, scores, out=out)
    l_orth, d_geo, d_feat = orth_loss(protos)
    report = LossReport(l_soft=l_soft, l_orth=l_orth, l_total=l_soft + ORTH_WEIGHT * l_orth)
    return report, d_scores, ORTH_WEIGHT * d_geo, ORTH_WEIGHT * d_feat
