"""Per-point feature encoder and segmentation head with exact gradients.

The encoder is a weight-shared MLP applied to every point (PointNet-style).
A linear head sees each point's feature next to the max-pooled global
feature and produces per-cluster logits. Forward keeps what the analytic
backward pass reads; no autodiff framework is involved, which keeps
gradients exact and runs bit-reproducible. Backward takes the gradient at
the features in factored form, scores @ P for a (J, d) matrix P, and
carries it through the linear last layer and head without building an
(N, d) array.

Every function here fills buffers it owns and never writes its arguments,
with one exception: `forward` refills the arrays of an `out` trace, and
`backward` with an `out` array builds d_logits in it and spends the trace
it differentiates (see each function; `trainer.StepBuffers` gives the plan
of which buffer holds what in a training step, and the column-major layout
of every (N, k) array, buffered or fresh).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CheckpointError, ShapeError, check_int

CHECKPOINT_MAGIC = b"OTCLUCKP"
CHECKPOINT_VERSION = 2

IN_DIM = 3


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the point MLP and segmentation head."""

    hidden_sizes: tuple[int, ...] = (64, 128)
    feature_dim: int = 128
    num_clusters: int = 64

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        for size in (*self.hidden_sizes, self.feature_dim):
            check_int("layer size", size, 1)
        check_int("num_clusters", self.num_clusters, 2)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (IN_DIM, *self.hidden_sizes, self.feature_dim)

    @property
    def linear_maps(self) -> list[tuple[str, int, int]]:
        """(name, fan_in, fan_out) of every weight; head.w stacks the weights
        on the point feature over those on the pooled feature."""
        sizes = self.layer_sizes
        return [*((f"mlp{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)),
                ("head", 2 * self.feature_dim, self.num_clusters)]


@dataclass
class EncoderParams:
    """Named parameter tensors plus the architecture they belong to."""

    config: EncoderConfig
    tensors: dict[str, np.ndarray]

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


@dataclass
class ForwardTrace:
    """What backward and the E-step read of one forward pass."""

    inputs: np.ndarray                 # (N, 3)
    acts: list                         # per MLP layer after activation
    features: np.ndarray               # (N, d)
    pooled: np.ndarray                 # (d,) max over points
    pool_rows: np.ndarray              # argmax row per feature dim
    scores: np.ndarray                 # (N, J), rows sum to 1


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, fan_in, fan_out in config.linear_maps:
        bound = 1.0 / np.sqrt(fan_in)
        tensors[f"{name}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        tensors[f"{name}.b"] = np.zeros(fan_out)
    return EncoderParams(config=config, tensors=tensors)


def forward(params: EncoderParams, points, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the encoder and head on a non-empty (N, 3) array; returns scores
    with rows summing to 1.

    Hidden layers use ReLU; the final feature layer is linear. The head
    sees each point's feature f_i next to the per-dimension max over all
    points, p, so its logits are f_i·W[:d] + p·W[d:] + b. The pooled term
    is one row shared by every point and is computed once. Ties at the max
    resolve to the lowest row index when gradients are routed back.

    Each layer and the logits are built in the matching array of `out`, a
    spent trace of the same N and architecture whose arrays are
    overwritten; numpy refuses one of another shape.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != IN_DIM or x.shape[0] == 0:
        raise ShapeError(f"expected a non-empty (N, {IN_DIM}) input, got shape {x.shape}")
    t = params.tensors
    n, n_layers = x.shape[0], len(params.config.layer_sizes) - 1

    acts, a = [], x
    for i in range(n_layers):
        w = t[f"mlp{i}.w"]
        a = np.matmul(a, w, out=np.empty((n, w.shape[1]), order="F") if out is None
                      else out.acts[i])
        a += t[f"mlp{i}.b"]
        if i < n_layers - 1:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    features = a
    d = features.shape[1]

    # argmax takes the first of tied rows; gathering at them keeps the sign of a zero
    pool_rows = features.argmax(axis=0)
    pooled = features[pool_rows, np.arange(d)]
    w = t["head.w"]
    # the logits, turned into a row softmax in place
    scores = np.matmul(features, w[:d], out=np.empty((n, w.shape[1]), order="F")
                       if out is None else out.scores)
    scores += pooled @ w[d:] + t["head.b"]
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return ForwardTrace(inputs=x, acts=acts, features=features, pooled=pooled,
                        pool_rows=pool_rows, scores=scores)


def backward(trace: ForwardTrace, params: EncoderParams, d_scores: np.ndarray,
             d_features_per_score: np.ndarray,
             out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter.

    d_scores (N, J) is the loss gradient at the score matrix. The gradient
    at the feature matrix comes in factored form, as the (J, d) matrix
    d_features_per_score P whose product trace.scores @ P it is (see
    `clustering.prototypes_backward`). The max-pool subgradient routes each
    pooled dimension's gradient to the argmax row recorded in the trace.
    The pooled term of the logits is shared by every point, so its
    gradients need only the column sums of d_logits.

    The last MLP layer and the head are both linear, so no (N, d) array is
    built: with `a` the last layer's input, W and b its weights and Wh the
    head's point block, the gradient at the features is
    d_logits Wh^T + scores P + (pool rows), and
      dWh = W^T (a^T d_logits) + b (sum_i d_logits_i),
      dW  = (a^T d_logits) Wh^T + (a^T scores) P + (pool rows),
      the gradient at a = d_logits (W Wh)^T + scores (W P^T)^T + (pool rows).

    With `out`, an (N, J) array to overwrite that shares no memory with the
    scores, d_scores or P, d_logits is built in `out` and `trace` is spent,
    so that no (N, k) array is allocated: the features, which are never
    read, hold the gradient at `a`; the scores, after their last read,
    hold d_logits (W Wh)^T a block of J columns at a time; and each hidden
    activation, after its last read, becomes its own ReLU mask (1.0 or 0.0)
    and then holds the gradient at the layer below. An array too narrow for
    its role is replaced by a fresh one.
    """
    t = params.tensors
    n, d = trace.features.shape
    j = trace.scores.shape[1]
    if d_scores.shape != trace.scores.shape:
        raise ShapeError(f"d_scores shape {d_scores.shape} != scores shape {trace.scores.shape}")
    p = d_features_per_score
    if p.shape != (j, d):
        raise ShapeError(f"d_features_per_score shape {p.shape} != (clusters, feature dim) "
                         f"{(j, d)}")
    s = trace.scores
    if out is not None and any(np.may_share_memory(out, a) for a in (s, d_scores, p)):
        raise ValueError("backward's out, the d_logits buffer, shares memory with the "
                         "scores, d_scores or d_features_per_score it is built from")

    # a fresh d_logits takes the layout of d_scores and s (see trainer.StepBuffers)
    d_logits = np.multiply(d_scores, s, out=out)
    row_dot = d_logits.sum(axis=1, keepdims=True)
    np.subtract(d_scores, row_dot, out=d_logits)
    d_logits *= s
    d_logits_sum = d_logits.sum(axis=0)

    last = len(trace.acts) - 1
    a = trace.inputs if last == 0 else trace.acts[last - 1]
    w_last, b_last = t[f"mlp{last}.w"], t[f"mlp{last}.b"]
    w = t["head.w"]
    w_point = w[:d]
    pool_grad = w[d:] @ d_logits_sum  # (d,): lands on row pool_rows[k] of column k
    a_d_logits = a.T @ d_logits
    d_head_w = np.empty_like(w)
    np.matmul(w_last.T, a_d_logits, out=d_head_w[:d])
    d_head_w[:d] += np.outer(b_last, d_logits_sum)
    np.outer(trace.pooled, d_logits_sum, out=d_head_w[d:])
    d_w_last = a_d_logits @ w_point.T
    del a_d_logits
    d_w_last += (a.T @ s) @ p
    d_w_last += a[trace.pool_rows].T * pool_grad
    grads = {"head.w": d_head_w, "head.b": d_logits_sum, f"mlp{last}.w": d_w_last,
             f"mlp{last}.b": w_point @ d_logits_sum + s.sum(axis=0) @ p + pool_grad}
    if last == 0:  # nothing reads the gradient at the input points
        return grads

    fresh = out is None

    def spent(buffer, width):
        """An (N, width) array to overwrite: the first columns of a spent
        buffer of the trace, or a fresh array without `out`."""
        if fresh or buffer.shape[1] < width:
            return np.empty((n, width), order="F")
        return buffer[:, :width]

    h = a.shape[1]
    d_z = np.matmul(s, (w_last @ p.T).T, out=spent(trace.features, h))
    np.add.at(d_z, trace.pool_rows, (w_last * pool_grad).T)
    w_logits = w_last @ w_point
    block = spent(s, min(j, h))
    for c in range(0, h, j):
        d_z[:, c:c + j] += np.matmul(d_logits, w_logits[c:c + j].T,
                                     out=block[:, :min(j, h - c)])
    for i in reversed(range(last)):
        # acts[i] > 0 exactly where the ReLU's input was > 0
        mask = np.greater(trace.acts[i], 0.0, out=None if fresh else trace.acts[i])
        np.multiply(d_z, mask, out=d_z)
        below = trace.inputs if i == 0 else trace.acts[i - 1]
        grads[f"mlp{i}.w"] = below.T @ d_z
        grads[f"mlp{i}.b"] = d_z.sum(axis=0)
        if i > 0:  # nothing reads the gradient at the input points
            d_z = np.matmul(d_z, t[f"mlp{i}.w"].T, out=spent(mask, below.shape[1]))
    return grads


def _tensor_table(config: EncoderConfig) -> list[dict]:
    """The checkpoint header's entry for every tensor `config` implies: each
    stored as <f8, sorted by name, back to back, shaped by `linear_maps`."""
    shapes = {}
    for name, fan_in, fan_out in config.linear_maps:
        shapes.update({f"{name}.w": [fan_in, fan_out], f"{name}.b": [fan_out]})
    table, offset = [], 0
    for name in sorted(shapes):
        nbytes = 8 * math.prod(shapes[name])
        table.append({"dtype": "<f8", "name": name, "nbytes": nbytes, "offset": offset,
                      "shape": shapes[name]})  # a parsed header's key order
        offset += nbytes
    return table


def save_checkpoint(params: EncoderParams, path, meta: dict | None = None) -> None:
    """Write parameters to a flat, byte-deterministic container.

    Layout: 8-byte magic, uint32 format version, uint64 header length, a
    canonical-JSON header holding config, meta and the tensor table of the
    config's architecture, then the raw little-endian tensor bytes in table
    order. Params whose tensor names or shapes differ from those their
    architecture implies raise CheckpointError and nothing is written.

    The file is written as `<path>.tmp` and then renamed over `path`, so a
    write that fails leaves any earlier file at `path` whole and no `.tmp`.
    """
    table = _tensor_table(params.config)
    shapes = {name: list(np.shape(arr)) for name, arr in params.tensors.items()}
    needed = {entry["name"]: entry["shape"] for entry in table}
    for name in sorted(shapes.keys() | needed.keys()):
        if shapes.get(name) != needed.get(name):
            raise CheckpointError(f"{path}: not written: tensor {name} has shape "
                                  f"{shapes.get(name)}, the architecture needs {needed.get(name)}")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "meta": meta or {},
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for entry in table:
                fh.write(np.asarray(params.tensors[entry["name"]], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # tmp may not exist, or be a directory
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    """Read a checkpoint written by save_checkpoint; returns (params, meta).

    A file that is short, damaged (a meta that is not a JSON object
    included) or of another format version, whose header's tensor table
    differs from the one its architecture implies, or whose data is not
    exactly as long as that table, raises CheckpointError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        prefix = fh.read(12)
        if len(prefix) != 12:
            raise CheckpointError(f"{path}: truncated before the header")
        version, header_len = struct.unpack("<IQ", prefix)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version} "
                                  f"(expected {CHECKPOINT_VERSION})")
        rest = fh.read()
    if len(rest) < header_len:
        raise CheckpointError(f"{path}: truncated inside the {header_len}-byte header")
    header_bytes, data = rest[:header_len], rest[header_len:]
    try:
        header = json.loads(header_bytes.decode())
        cfg = header["config"]
        config = EncoderConfig(**{f.name: cfg[f.name] for f in fields(EncoderConfig)})
        table = _tensor_table(config)
        for stored, needed in itertools.zip_longest(header["tensors"], table):
            if stored != needed:
                name = (needed or stored)["name"]
                raise CheckpointError(f"{path}: tensor {name}: the header has {stored}, "
                                      f"the architecture needs {needed}")
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError(f"meta must be a JSON object, got {meta!r}")
    except (ValueError, KeyError, TypeError) as exc:  # ConfigError is a ValueError
        raise CheckpointError(f"{path}: damaged header: {exc!r}") from None
    end = table[-1]["offset"] + table[-1]["nbytes"]
    if len(data) != end:
        raise CheckpointError(f"{path}: the tensor data is {len(data)} bytes; it must end "
                              f"with tensor {table[-1]['name']} at byte {end}")
    tensors = {entry["name"]: np.frombuffer(data, "<f8", entry["nbytes"] // 8, entry["offset"])
               .reshape(entry["shape"]).copy() for entry in table}
    return EncoderParams(config=config, tensors=tensors), meta
