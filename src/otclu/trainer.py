"""EM-style self-training loop.

E-step: run the encoder, build prototypes and the blended cost, and solve
the balanced transport problem for soft labels (on a constant copy of the
cost; no gradient flows through the solver or the labels). Each cloud's
loss gradient is taken right after its E-step and only the batch's running
gradient sum is kept. M-step: one AdamW update with decoupled weight decay
from the batch-mean gradient. Learning rate follows a step-decay schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from .clustering import (TOL, SolverConfig, Prototypes, assign_soft_labels,
                         compute_cost, compute_prototypes, prototypes_backward, sinkhorn)
from .encoder import EncoderConfig, EncoderParams, ForwardTrace
from .errors import ConfigError, NumericalError, check_int, check_real
from .losses import LossReport, logit_gradient, total_loss

# AdamW (Loshchilov & Hutter, 2019) at Adam's published defaults (Kingma & Ba,
# 2015), and the step schedule: lr * LR_DECAY ** (epoch // DECAY_EVERY).
BETA1, BETA2, ADAM_EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01
LR_DECAY, DECAY_EVERY = 0.7, 20


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.001
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        for name, minimum in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        check_real("lr", self.lr, 0.0, strict=True)
        if self.solver.num_clusters != self.encoder.num_clusters:
            raise ConfigError(f"solver.num_clusters {self.solver.num_clusters} differs from "
                              f"encoder.num_clusters {self.encoder.num_clusters}")


@dataclass
class EStepResult:
    """Everything one E-step produces for a single cloud. `cloud_gradients`
    spends its trace (see `encoder.backward`).

    Every (N, k) float array of a step is column-major (Fortran order):
    products and the Sinkhorn kernel are allocated so, and elementwise
    results take the layout of their inputs, which in a step is this one.
    Then the per-point and per-channel loops of numpy's broadcasts and
    reductions (softmax and Sinkhorn row and column sums, the pool's
    argmax) each run along N in contiguous memory, and `matmul` fills such
    an array through BLAS by swapping its operands. Float results
    (reduction order, BLAS kernels) follow the layout an array is built
    in, so the one layout also fixes a step's bits.
    """

    trace: ForwardTrace
    protos: Prototypes
    gamma: np.ndarray    # soft labels (N, J): N times the transport plan
    marginal_residual: float
    iterations: int      # Sinkhorn iterations and Newton steps the solve took
    potential: np.ndarray  # the plan's column potential (J,), to warm-start the next solve


@dataclass
class TrainState:
    params: EncoderParams
    m: dict
    v: dict
    step: int = 0
    epoch: int = 0
    lr: float = 0.0
    history: list = field(default_factory=list)

    @classmethod
    def initial(cls, config: TrainConfig) -> "TrainState":
        params = enc.init_params(config.encoder, config.seed)
        return cls(params=params, m=params.zeros_like(), v=params.zeros_like(), lr=config.lr)


def e_step(params: EncoderParams, cloud, solver: SolverConfig, potential=None) -> EStepResult:
    """Forward pass, prototypes, cost, and balanced soft-label assignment.

    The cost matrix handed to the transport solver is a constant: the
    returned labels carry no gradient information, and the cost is
    released once they are solved. `potential` is a column potential the
    solve starts from (see `sinkhorn`).
    """
    trace = enc.forward(params, cloud.points)
    protos = compute_prototypes(trace.block, trace.scores)
    plan = sinkhorn(compute_cost(trace.block, protos, solver.lam), epsilon=solver.epsilon,
                    potential=potential)
    return EStepResult(trace=trace, protos=protos, gamma=assign_soft_labels(plan),
                       marginal_residual=plan.marginal_residual(),
                       iterations=plan.iterations, potential=plan.potential)


def cloud_gradients(state: TrainState, result: EStepResult) -> tuple[LossReport, dict]:
    """The loss on one cloud's E-step labels and its exact parameter gradient.

    The result's trace is spent (see `encoder.backward`).
    """
    trace = result.trace
    report, d_geo = total_loss(result.gamma, trace.scores, result.protos)
    if not np.isfinite(report.l_total):
        raise NumericalError(f"non-finite loss: l_soft={report.l_soft} l_orth={report.l_orth}")
    d_logits = logit_gradient(result.gamma, trace.scores,
                              prototypes_backward(trace.block, result.protos, d_geo))
    return report, enc.backward(trace, state.params, d_logits)


def m_step(state: TrainState, grads: dict) -> TrainState:
    """One AdamW update from the batch-mean loss gradient."""
    t = state.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, theta in state.params.tensors.items():
        g = grads[name]
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        update = (state.m[name] / bc1) / (np.sqrt(state.v[name] / bc2) + ADAM_EPS)
        state.params.tensors[name] = theta - state.lr * (update + WEIGHT_DECAY * theta)
    state.step += 1
    return state


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr * LR_DECAY^(epoch // DECAY_EVERY), 0-indexed."""
    return config.lr * LR_DECAY ** (epoch // DECAY_EVERY)


def pretrain(clouds: list, config: TrainConfig, on_epoch=None) -> TrainState:
    """Run the full EM loop over a dataset of prepared point clouds.

    Clouds are shuffled every epoch under the run seed. Each cloud of a
    batch runs its E-step and then its backward, and only the running sum
    of gradients is kept, so memory does not grow with `batch_size`. The
    run is bit-reproducible for a fixed seed. A cloud's E-step result and
    gradients are released before the next cloud's E-step.

    Each cloud's Sinkhorn solve starts from the column potential of that
    cloud's previous solve in the call (its first solve starts cold), so
    the labels differ from cold solves within `clustering.TOL` and the
    history stays bit-reproducible for a fixed seed.

    A `NumericalError` raised by a cloud's E-step or gradient ends the
    call, its message prefixed with "epoch E, M-step S, cloud i: ": the
    epoch (0-indexed, as in the metrics), the M-steps taken before it and
    the cloud's index in `clouds`.

    `on_epoch` is called with the metrics dict after each epoch. The call
    writes no files: the caller saves what it keeps of the returned state.
    """
    if not clouds:
        raise ValueError("pretrain needs at least one cloud")
    state = TrainState.initial(config)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    potentials = [None] * len(clouds)  # each cloud's last column potential

    for epoch in range(config.epochs):
        state.epoch = epoch
        state.lr = lr_at_epoch(config, epoch)
        order = shuffle_rng.permutation(len(clouds))
        reports, residuals, iterations = [], [], []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            scale = 1.0 / len(chunk)
            grads = state.params.zeros_like()
            for i in chunk:
                try:
                    result = e_step(state.params, clouds[i], config.solver,
                                    potential=potentials[i])
                    report, cloud_grads = cloud_gradients(state, result)
                except NumericalError as exc:
                    raise NumericalError(f"epoch {epoch}, M-step {state.step}, cloud {i}: "
                                         f"{exc}") from exc
                residuals.append(result.marginal_residual)
                iterations.append(result.iterations)
                potentials[i] = result.potential
                reports.append(report)
                for name, g in cloud_grads.items():
                    grads[name] += scale * g
                del result, cloud_grads
            m_step(state, grads)

        metrics = {
            "epoch": epoch,
            "l_soft": float(np.mean([r.l_soft for r in reports])),
            "l_orth": float(np.mean([r.l_orth for r in reports])),
            "l_total": float(np.mean([r.l_total for r in reports])),
            "lr": state.lr,
            "max_marginal_residual": float(max(residuals)),
            "sinkhorn_iters_median": float(np.median(iterations)),
            "sinkhorn_iters_max": max(iterations),
            # a solve can end above TOL only by reaching the iteration cap
            "capped_solves": sum(r >= TOL for r in residuals),
        }
        state.history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)

    return state
