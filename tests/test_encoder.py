import json
import struct
import tracemalloc

import numpy as np
import pytest

from otclu.encoder import (EncoderConfig, EncoderParams, backward, forward,
                           init_params, load_checkpoint, save_checkpoint)
from otclu.errors import CheckpointError, ConfigError, ShapeError
from otclu.losses import logit_gradient
from otclu.oracle import grad_check

from conftest import join_checkpoint, split_checkpoint, with_tensors

SMALL = EncoderConfig(hidden_sizes=(6,), feature_dim=4, num_clusters=3)


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(SMALL, seed=1)
        b = init_params(SMALL, seed=1)
        assert set(a.tensors) == set(b.tensors)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k], b.tensors[k])

    def test_seed_changes_weights(self):
        a = init_params(SMALL, seed=1)
        b = init_params(SMALL, seed=2)
        assert not np.array_equal(a.tensors["mlp0.w"], b.tensors["mlp0.w"])

    def test_fan_in_bound(self):
        params = init_params(EncoderConfig(hidden_sizes=(64,), feature_dim=8,
                                           num_clusters=4), seed=0)
        assert np.abs(params.tensors["mlp0.w"]).max() <= 1 / np.sqrt(3)
        assert np.abs(params.tensors["mlp1.w"]).max() <= 1 / np.sqrt(64)

    def test_biases_zero(self):
        params = init_params(SMALL, seed=3)
        assert not params.tensors["mlp0.b"].any()
        assert not params.tensors["head.b"].any()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(hidden_sizes=(0,), feature_dim=4, num_clusters=3)
        with pytest.raises(ConfigError):
            EncoderConfig(feature_dim=-1)
        with pytest.raises(ConfigError):
            EncoderConfig(num_clusters=1)


class TestForward:
    def test_logit_shape_follows_head(self, rng):
        params = init_params(EncoderConfig(hidden_sizes=(16,), feature_dim=128,
                                           num_clusters=64), seed=0)
        trace = forward(params, rng.normal(size=(10, 3)))
        assert trace.scores.shape == (10, 64)
        assert trace.features.shape == (10, 128)

    def test_score_rows_sum_to_one(self, rng):
        params = init_params(SMALL, seed=0)
        trace = forward(params, rng.normal(size=(33, 3)))
        np.testing.assert_allclose(trace.scores.sum(axis=1), 1.0, atol=1e-9)
        assert trace.scores.min() > 0.0

    def test_identical_points_identical_rows(self, rng):
        params = init_params(SMALL, seed=0)
        x = np.tile(rng.normal(size=(1, 3)), (5, 1))
        trace = forward(params, x)
        for row in range(1, 5):
            np.testing.assert_array_equal(trace.features[row], trace.features[0])
            np.testing.assert_array_equal(trace.scores[row], trace.scores[0])

    def test_permutation_equivariance(self, rng):
        params = init_params(SMALL, seed=0)
        x = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        a = forward(params, x)
        b = forward(params, x[perm])
        np.testing.assert_allclose(a.features[perm], b.features, atol=1e-12)
        np.testing.assert_allclose(a.scores[perm], b.scores, atol=1e-12)

    def test_rejects_bad_shape(self, rng):
        params = init_params(SMALL, seed=0)
        with pytest.raises(ShapeError):
            forward(params, rng.normal(size=(4, 2)))

    def test_rejects_an_empty_input(self):
        with pytest.raises(ShapeError, match=r"non-empty \(N, 3\) input, got shape \(0, 3\)"):
            forward(init_params(SMALL, seed=0), np.empty((0, 3)))


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params = init_params(SMALL, seed=0)
        trace = forward(params, rng.normal(size=(7, 3)))
        grads = backward(trace, params, np.zeros((7, 3)))
        for name, g in grads.items():
            assert not np.asarray(g).any(), name

    def test_leaves_d_logits_as_it_was(self, rng):
        # backward spends its trace but writes nothing in the d_logits it
        # is handed: its ReLU masks are arrays of their own
        params = init_params(EncoderConfig(), seed=3)
        trace = forward(params, rng.uniform(-1.0, 1.0, size=(256, 3)))
        gamma = rng.dirichlet(np.ones(64), size=256)
        d_logits = logit_gradient(gamma, trace.scores, rng.normal(size=(256, 64)))
        before = d_logits.tobytes()
        backward(trace, params, d_logits)
        assert d_logits.tobytes() == before

    def test_single_point_linear_encoder_hand_chain(self, rng):
        # One point, one linear layer (3 -> 1), head 2 -> 2: with N=1 the
        # pooled feature is the point's own feature, so every gradient can
        # be written in closed form.
        cfg = EncoderConfig(hidden_sizes=(), feature_dim=1, num_clusters=2)
        params = init_params(cfg, seed=5)
        x = rng.normal(size=(1, 3))
        dz = rng.normal(size=2)  # the gradient at the logits

        trace = forward(params, x)
        grads = backward(trace, params, dz[None])

        w0 = params.tensors["mlp0.w"]          # (3, 1)
        wh = params.tensors["head.w"]          # (2, 2): point row, pooled row
        f = float((x @ w0 + params.tensors["mlp0.b"]).item())
        z = f * (wh[0] + wh[1]) + params.tensors["head.b"]
        e = np.exp(z - z.max())
        s = e / e.sum()
        d_wh = np.stack([f * dz, f * dz])
        d_bh = dz
        df = float(dz @ (wh[0] + wh[1]))
        d_w0 = x[0] * df
        d_b0 = df

        np.testing.assert_allclose(trace.scores[0], s, atol=1e-12)
        np.testing.assert_allclose(grads["head.w"], d_wh, atol=1e-12)
        np.testing.assert_allclose(grads["head.b"], d_bh, atol=1e-12)
        np.testing.assert_allclose(grads["mlp0.w"], d_w0[:, None], atol=1e-12)
        np.testing.assert_allclose(grads["mlp0.b"], [d_b0], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        # Also with no hidden layer, so the last layer's input is the points,
        # and with every feature dimension pooled at one row: a point far
        # out along positive weights is the argmax of each.
        for hidden, shared in (((5,), False), ((), False), ((5,), True)):
            cfg = EncoderConfig(hidden_sizes=hidden, feature_dim=4, num_clusters=3)
            params = init_params(cfg, seed=11)
            x = rng.normal(size=(9, 3))
            if shared:
                params.tensors["mlp0.w"] = np.abs(params.tensors["mlp0.w"])
                params.tensors["mlp1.w"] = np.abs(params.tensors["mlp1.w"])
                x[4] = np.abs(x[4]) + 3.0
            a = rng.normal(size=(9, 3))  # fixed weights on scores

            trace = forward(params, x)
            assert (set(trace.pool_rows.tolist()) == {4}) == shared
            s = trace.scores
            grads = backward(trace, params, s * (a - (a * s).sum(axis=1, keepdims=True)))

            def loss(tensors):
                return float((a * forward(EncoderParams(cfg, tensors), x).scores).sum())

            report = grad_check(loss, params.tensors, grads, h=1e-5, rel_tol=1e-4)
            assert report.passed, f"{hidden}, {shared}: {report.worst_param}: " \
                                  f"{report.max_rel_error}"

    def test_maxpool_ties_route_to_lowest_row(self, rng):
        # Rows 0 and 1 tie at the pooled maximum; the pooled gradient must
        # land on row 0, which is observable in the layer-weight gradient
        # because the tied points have different coordinates.
        cfg = EncoderConfig(hidden_sizes=(), feature_dim=1, num_clusters=2)
        params = init_params(cfg, seed=2)
        params.tensors["mlp0.w"] = np.array([[1.0], [0.0], [0.0]])
        params.tensors["mlp0.b"] = np.zeros(1)
        wh = np.array([[0.3, -0.2], [0.5, 0.4]])
        params.tensors["head.w"] = wh
        params.tensors["head.b"] = np.zeros(2)
        x = np.array([[1.0, 0.0, 0.0], [1.0, 5.0, 0.0], [0.0, 0.0, 3.0]])

        trace = forward(params, x)
        np.testing.assert_array_equal(trace.features.ravel(), [1.0, 1.0, 0.0])
        assert trace.pool_rows.tolist() == [0]

        dz = rng.normal(size=(3, 2))
        grads = backward(trace, params, dz)

        d_head_in = dz @ wh.T
        d_feat = d_head_in[:, :1].copy()
        d_feat[0, 0] += d_head_in[:, 1].sum()  # pooled gradient to row 0
        np.testing.assert_allclose(grads["mlp0.w"], x.T @ d_feat, atol=1e-12)

        routed_to_row1 = d_head_in[:, :1].copy()
        routed_to_row1[1, 0] += d_head_in[:, 1].sum()
        assert not np.allclose(grads["mlp0.w"], x.T @ routed_to_row1)


def concatenated_head_reference(params, x, d_logits):
    """Scores and gradients with the head input built as the (N, 2d) matrix
    [F, pooled repeated N times] and every bias added and summed on its own,
    independent of forward/backward."""
    t = params.tensors
    n_layers = len(params.config.layer_sizes) - 1
    pre, acts, a = [], [], x
    for i in range(n_layers):
        z = a @ t[f"mlp{i}.w"] + t[f"mlp{i}.b"]
        pre.append(z)
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(a)
    n, d = a.shape
    rows = a.argmax(axis=0)
    head_input = np.concatenate([a, np.tile(a[rows, np.arange(d)], (n, 1))], axis=1)
    logits = head_input @ t["head.w"] + t["head.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    dz = d_logits
    grads = {"head.w": head_input.T @ dz, "head.b": dz.sum(axis=0)}
    d_head_input = dz @ t["head.w"].T
    d_a = d_head_input[:, :d].copy()
    d_a[rows, np.arange(d)] += d_head_input[:, d:].sum(axis=0)
    for i in reversed(range(n_layers)):
        d_z = d_a if i == n_layers - 1 else d_a * (pre[i] > 0.0)
        grads[f"mlp{i}.w"] = (x if i == 0 else acts[i - 1]).T @ d_z
        grads[f"mlp{i}.b"] = d_z.sum(axis=0)
        d_a = d_z @ t[f"mlp{i}.w"].T
    return s, grads


class TestPaperShapeHead:
    """N=2048 points, d=128 features, J=64 clusters: the paper's shape."""

    def test_rank1_head_matches_concatenated_input(self, rng):
        # Also with no hidden layer, where the last layer's input is the points.
        for config in (EncoderConfig(), EncoderConfig(hidden_sizes=())):
            params = init_params(config, seed=4)
            x = rng.uniform(-1.0, 1.0, size=(2048, 3))
            d_logits = rng.normal(size=(2048, 64))

            trace = forward(params, x)
            grads = backward(trace, params, d_logits)
            ref_scores, ref_grads = concatenated_head_reference(params, x, d_logits)

            def rel(a, b):
                return np.abs(a - b).max() / np.abs(b).max()

            assert rel(trace.scores, ref_scores) <= 1e-12
            assert set(grads) == set(ref_grads)
            for name, ref in ref_grads.items():
                assert grads[name].shape == ref.shape, name
                assert rel(grads[name], ref) <= 1e-12, name

    def test_forward_trace_memory(self, rng):
        params = init_params(EncoderConfig(), seed=4)
        x = rng.uniform(-1.0, 1.0, size=(2048, 3))
        tracemalloc.start()
        try:
            trace = forward(params, x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.scores.shape == (2048, 64)
        assert held <= 8 * 2**20, f"{held / 2**20:.1f} MiB"
        # every layer and the logits are built in the one array the trace keeps
        assert peak <= 1.05 * held, f"peak {peak / held:.2f} x held"
        whole = trace.block.base
        assert whole.nbytes > 0.75 * held
        assert all(a.base is whole for a in (*trace.acts, trace.scores))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(SMALL, seed=8)
        path = tmp_path / "p.otck"
        save_checkpoint(params, path, meta={"note": "round-trip"})
        loaded, meta = load_checkpoint(path)
        assert meta["note"] == "round-trip"
        assert loaded.config == params.config
        for k in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[k], params.tensors[k])

    def test_bytes_deterministic(self, tmp_path):
        params = init_params(SMALL, seed=8)
        p1, p2 = tmp_path / "a.otck", tmp_path / "b.otck"
        save_checkpoint(params, p1, meta={"k": 1})
        save_checkpoint(params, p2, meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.otck"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.otck"
        save_checkpoint(init_params(SMALL, seed=8), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 1 "):
            load_checkpoint(path)

    def test_golden_layout(self, tmp_path):
        params = init_params(SMALL, seed=8)
        path = tmp_path / "p.otck"
        save_checkpoint(params, path, meta={"note": "golden"})
        table = [("head.b", [3], 0, 24), ("head.w", [8, 3], 24, 192), ("mlp0.b", [6], 216, 48),
                 ("mlp0.w", [3, 6], 264, 144), ("mlp1.b", [4], 408, 32),
                 ("mlp1.w", [6, 4], 440, 192)]
        header = {"config": {"feature_dim": 4, "hidden_sizes": [6], "num_clusters": 3},
                  "format_version": 2, "meta": {"note": "golden"},
                  "tensors": [{"dtype": "<f8", "name": name, "nbytes": nbytes,
                               "offset": offset, "shape": shape}
                              for name, shape, offset, nbytes in table]}
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        data = b"".join(struct.pack(f"<{nbytes // 8}d", *params.tensors[name].ravel())
                        for name, _, _, nbytes in table)
        assert path.read_bytes() == (b"OTCLUCKP" + struct.pack("<IQ", 2, len(header_bytes))
                                     + header_bytes + data)

    @pytest.mark.parametrize("meta", [[1, 2], "note", None])
    def test_meta_that_is_not_an_object_rejected(self, tmp_path, meta):
        path = tmp_path / "p.otck"
        save_checkpoint(init_params(SMALL, seed=8), path)
        header, data = split_checkpoint(path.read_bytes())
        header["meta"] = meta
        path.write_bytes(join_checkpoint(path.read_bytes(), header, data))
        with pytest.raises(CheckpointError, match="damaged header: .*meta must be a JSON object"):
            load_checkpoint(path)

    def test_truncated_tensor_set_rejected(self, tmp_path):
        params = init_params(SMALL, seed=8)
        path = tmp_path / "p.otck"
        save_checkpoint(params, path)
        del params.tensors["head.b"]
        path.write_bytes(with_tensors(path.read_bytes(), params.tensors))
        with pytest.raises(CheckpointError, match="head.b"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, tensor", [("head.b", None), ("head.w", np.zeros((4, 3))),
                                              ("extra.w", np.zeros(2))])
    def test_save_refuses_params_that_do_not_fit(self, tmp_path, name, tensor):
        params = init_params(SMALL, seed=8)
        if tensor is None:
            del params.tensors[name]
        else:
            params.tensors[name] = tensor
        path = tmp_path / "p.otck"
        with pytest.raises(CheckpointError, match=f"not written: tensor {name} "):
            save_checkpoint(params, path)
        assert not path.exists()

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        # The last tensor in table order cannot be converted, so the save
        # raises after the header and the other tensors are written.
        params = init_params(SMALL, seed=8)
        path = tmp_path / "p.otck"
        save_checkpoint(params, path)
        before = path.read_bytes()
        params.tensors["mlp1.w"] = np.full((6, 4), "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(params, path, meta={"note": "second"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.otck"]
