"""Per-point feature encoder and segmentation head with exact gradients.

The encoder is a weight-shared MLP applied to every point (PointNet-style).
A linear head sees each point's feature next to the max-pooled global
feature and produces per-cluster logits. Forward keeps what the analytic
backward pass reads; no autodiff framework is involved, which keeps
gradients exact and runs bit-reproducible. Biases ride in ones columns,
so each layer is one matmul. Backward takes the gradient at the logits
and carries it through the linear last layer and head without building
an (N, d) array.

Every function here allocates the arrays it builds and never writes its
arguments, with one exception: `backward` spends the trace it
differentiates (see its docstring). Every (N, k) array here is
column-major (see `trainer.EStepResult`).
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
    """What backward and the E-step read of one forward pass.

    Each layer reads its input with a ones column beside it, so that one
    matmul against the weights stacked over the bias, [W; b], computes the
    layer: the points as [X | 1], a hidden layer's output as [a | 1]. The
    features sit in the point block [F | X | 1], whose last four columns are
    the first layer's input; the E-step reads coordinates, features and a
    ones column from it (see `clustering.point_block`).

    The activations, the point block and the scores are column blocks of
    one column-major array, allocated at once. Its size is what glibc's
    malloc reads: freeing an mmapped chunk raises the mmap threshold to
    that chunk's size and the trim threshold to twice that. Once the first
    trace is freed, a training step's arrays come from the heap and the
    next step reuses them. Built as separate arrays, of which the 2 MiB
    point block is the largest, a step's 10 MiB is above the trim
    threshold, and the heap's top is trimmed and faulted back in at every
    step (README gives the measurement).
    """

    acts: list                         # per hidden layer: (N, h + 1), [ReLU output | 1]
    block: np.ndarray                  # (N, d + 4): [features | points | 1]
    pooled: np.ndarray                 # (d,) max over points
    pool_rows: np.ndarray              # argmax row per feature dim
    scores: np.ndarray                 # (N, J), rows sum to 1

    @property
    def features(self) -> np.ndarray:  # (N, d)
        return self.block[:, :-4]


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, fan_in, fan_out in config.linear_maps:
        bound = 1.0 / np.sqrt(fan_in)
        tensors[f"{name}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        tensors[f"{name}.b"] = np.zeros(fan_out)
    return EncoderParams(config=config, tensors=tensors)


def _stacked(t: dict, i: int) -> np.ndarray:
    """Layer i's weights over its bias, [W; b]: (fan_in + 1, fan_out)."""
    return np.vstack((t[f"mlp{i}.w"], t[f"mlp{i}.b"]))


def forward(params: EncoderParams, points) -> ForwardTrace:
    """Run the encoder and head on a non-empty (N, 3) array; returns scores
    with rows summing to 1.

    Hidden layers use ReLU; the final feature layer is linear. The head
    sees each point's feature f_i next to the per-dimension max over all
    points, p, so its logits are f_i·W[:d] + p·W[d:] + b. The pooled term
    is one row shared by every point, so it rides with the bias in the
    ones column: the logits are [F | X | 1] times [W[:d]; 0; p·W[d:] + b].
    Ties at the max resolve to the lowest row index when gradients are
    routed back.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != IN_DIM or x.shape[0] == 0:
        raise ShapeError(f"expected a non-empty (N, {IN_DIM}) input, got shape {x.shape}")
    t, config = params.tensors, params.config
    n, hidden, d = x.shape[0], config.hidden_sizes, config.feature_dim
    widths = [*(h + 1 for h in hidden), d + 4, config.num_clusters]
    whole = np.empty((n, sum(widths)), order="F")
    *acts, block, scores = np.split(whole, np.cumsum(widths[:-1]), axis=1)
    for part in (*acts, block):
        part[:, -1] = 1.0
    block[:, d:-1] = x

    a = block[:, d:]
    for i, act in enumerate(acts):
        np.maximum(np.matmul(a, _stacked(t, i), out=act[:, :-1]), 0.0, out=act[:, :-1])
        a = act
    features = np.matmul(a, _stacked(t, len(hidden)), out=block[:, :d])

    # argmax takes the first of tied rows; gathering at them keeps the sign of a zero
    pool_rows = features.argmax(axis=0)
    pooled = features[pool_rows, np.arange(d)]
    w = t["head.w"]
    head = np.zeros((d + 4, scores.shape[1]))
    head[:d] = w[:d]
    head[-1] = pooled @ w[d:] + t["head.b"]
    # the logits, turned into a row softmax in place
    np.matmul(block, head, out=scores)
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores *= 1.0 / scores.sum(axis=1, keepdims=True)
    return ForwardTrace(acts=acts, block=block, pooled=pooled, pool_rows=pool_rows,
                        scores=scores)


def backward(trace: ForwardTrace, params: EncoderParams,
             d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter, from its
    gradient at the logits, d_logits (N, J).

    The max-pool subgradient routes each pooled dimension's gradient to
    the argmax row recorded in the trace. The pooled term of the logits is
    shared by every point, so its gradients need only the column sums of
    d_logits.

    The last MLP layer and the head are both linear, so no (N, d) array is
    built: with `a` the last layer's input and its ones column, [W; b] its
    weights over its bias and Wh the head's point block, the gradient at
    the features is d_logits Wh^T + (pool rows), and
      a^T d_logits holds the weight products, its ones row the column sums,
      dWh     = [W; b]^T (a^T d_logits),
      d[W; b] = (a^T d_logits) Wh^T + (pool rows),
      the gradient at a = d_logits (W Wh)^T + (pool rows).
    Each hidden layer's weight gradient [a | 1]^T d_z holds its bias
    gradient in its last row.

    The trace is spent, so that no (N, k) float array is allocated: the
    features, which are never read, hold the gradient at `a`, and each
    hidden activation, after its last read, holds the gradient at the
    layer below. An array too narrow for its role is replaced by a fresh
    one. Each hidden layer's ReLU mask is a fresh boolean array. The
    ones columns, the scores and d_logits are never written. Fresh
    scratch in their place raises a training step's `tracemalloc` peak
    from 10.53 to 12.83 MiB at the paper's shape (README gives its cost
    in page faults and time).
    """
    t = params.tensors
    n = d_logits.shape[0]
    d = trace.block.shape[1] - 4

    last = len(trace.acts)
    a = trace.block[:, d:] if last == 0 else trace.acts[-1]
    w_last = t[f"mlp{last}.w"]
    w = t["head.w"]
    w_point = w[:d]
    a_d = a.T @ d_logits
    d_logits_sum = a_d[-1].copy()
    pool_grad = w[d:] @ d_logits_sum  # (d,): lands on row pool_rows[k] of column k
    d_head_w = np.empty_like(w)
    np.matmul(w_last.T, a_d[:-1], out=d_head_w[:d])
    d_head_w[:d] += np.outer(t[f"mlp{last}.b"], d_logits_sum)
    np.outer(trace.pooled, d_logits_sum, out=d_head_w[d:])
    d_wb_last = a_d @ w_point.T
    del a_d
    pool_in = a[trace.pool_rows]  # (d, h + 1): the input row each pooled dimension came from
    pool_in *= pool_grad[:, None]
    d_wb_last += pool_in.T
    del pool_in
    grads = {"head.w": d_head_w, "head.b": d_logits_sum, f"mlp{last}.w": d_wb_last[:-1],
             f"mlp{last}.b": d_wb_last[-1]}
    if last == 0:  # nothing reads the gradient at the input points
        return grads

    def spent(buffer, width):
        """An (N, width) array to overwrite: the first columns of a spent
        buffer of the trace, or a fresh array where that is too narrow."""
        if buffer.shape[1] < width:
            return np.empty((n, width), order="F")
        return buffer[:, :width]

    h = a.shape[1] - 1
    d_z = np.matmul(d_logits, (w_last @ w_point).T, out=spent(trace.features, h))
    np.add.at(d_z, trace.pool_rows, (w_last * pool_grad).T)
    for i in reversed(range(last)):
        act = trace.acts[i][:, :-1]
        d_z *= act > 0.0  # the activation > 0 exactly where the ReLU's input was > 0
        below = trace.block[:, d:] if i == 0 else trace.acts[i - 1]
        d_wb = below.T @ d_z
        grads[f"mlp{i}.w"], grads[f"mlp{i}.b"] = d_wb[:-1], d_wb[-1]
        if i > 0:  # nothing reads the gradient at the input points
            d_z = np.matmul(d_z, t[f"mlp{i}.w"].T, out=spent(act, below.shape[1] - 1))
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
