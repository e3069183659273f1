import json
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from otclu import cli
from otclu import cloud as pc
from otclu import encoder as enc
from otclu import losses, trainer
from otclu.clustering import (MAX_ITERS, TOL, Prototypes, SolverConfig, assign_soft_labels,
                              compute_cost, compute_prototypes, prototypes_backward, sinkhorn)
from otclu.errors import ConfigError, NumericalError
from otclu.losses import logit_gradient, soft_ce_loss, total_loss
from otclu.oracle import balanced_hard_assign
from otclu.trainer import (WEIGHT_DECAY, TrainConfig, TrainState,
                           cloud_gradients, e_step, lr_at_epoch, m_step, pretrain)
from otclu.verify import ball_cloud

from conftest import two_blob_points, write_cloud


SRC = str(Path(__file__).resolve().parents[1] / "src")

# A default `pretrain` call on paper-shape clouds, run by `fresh_run` in its
# own interpreter: prints the sha256 of the history and the final params and,
# for each epoch, the process's minor page faults when it ends.
PAPER_SHAPE_RUN = """
import hashlib, json, resource, sys
import numpy as np
from otclu import cloud as pc
from otclu.trainer import TrainConfig, pretrain
from otclu.verify import ball_cloud

num_clouds, epochs = map(int, sys.argv[1:])
rng = np.random.default_rng(5)
clouds = [pc.normalize(ball_cloud(rng, 2048)) for _ in range(num_clouds)]
faults = []
state = pretrain(clouds, TrainConfig(epochs=epochs), on_epoch=lambda metrics: faults.append(
    resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
digest = hashlib.sha256(json.dumps(state.history).encode())
for name in sorted(state.params.tensors):
    digest.update(state.params.tensors[name].tobytes())
print(json.dumps({"sha256": digest.hexdigest(), "faults": faults}))
"""


def fresh_run(num_clouds, epochs, **env):
    """`PAPER_SHAPE_RUN` in a new interpreter with `env` added to its
    environment; returns its printed record."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PAPER_SHAPE_RUN, str(num_clouds), str(epochs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def toy_config(num_clusters=2, epsilon=2e-3, **overrides):
    defaults = dict(
        epochs=2, batch_size=4, lr=0.01, seed=21,
        solver=SolverConfig(num_clusters=num_clusters, epsilon=epsilon),
        encoder=enc.EncoderConfig(hidden_sizes=(8,), feature_dim=8,
                                  num_clusters=num_clusters),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestEStep:
    def test_a_cluster_without_score_mass_is_named(self, rng):
        # a head bias of -1e4 makes cluster 1's softmax column exactly 0
        config = toy_config(num_clusters=3)
        params = enc.init_params(config.encoder, 0)
        params.tensors["head.b"][1] = -1e4
        cloud = pc.normalize(ball_cloud(rng, 32))
        assert not enc.forward(params, cloud.points).scores[:, 1].any()
        with pytest.raises(NumericalError, match=r"^cluster 1 has score mass 0 \(< 1e-12\); "
                                                 r"its prototypes are undefined$"):
            e_step(params, cloud, config.solver)

    def test_two_blobs_lambda_one_separates(self, rng):
        pts, membership = two_blob_points(rng, 6)  # 12 points: oracle-sized
        cloud = pc.normalize(pc.PointCloud(pts))
        config = toy_config()
        params = enc.init_params(config.encoder, 3)
        solver = SolverConfig(num_clusters=2, lam=1.0)
        result = e_step(params, cloud, solver)
        hard = result.gamma.argmax(axis=1)
        # blob labels up to cluster naming
        assert (np.array_equal(hard, membership)
                or np.array_equal(hard, 1 - membership))
        # and exactly the balanced-assignment optimum on the same cost
        trace = enc.forward(params, cloud.points)
        protos = compute_prototypes(trace.block, trace.scores)
        cost = compute_cost(trace.block, protos, 1.0)
        np.testing.assert_array_equal(hard, balanced_hard_assign(cost))

    def test_column_sums_meet_quota(self, rng):
        # The scaled labels meet both quotas within N * TOL: the solves
        # reach TOL well inside the default cap.
        config = toy_config(num_clusters=4)
        params = enc.init_params(config.encoder, 1)
        for _ in range(5):
            cloud = pc.normalize(ball_cloud(rng, 64))
            result = e_step(params, cloud, config.solver)
            assert result.iterations < MAX_ITERS
            g = result.gamma
            assert np.abs(g.sum(axis=0) - 16.0).max() < 64 * TOL
            np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=64 * TOL)

    def test_paper_shape_plans_land_at_the_float64_floor(self, rng):
        # A Newton-finished solve takes two polishing steps past the one that
        # lands within TOL, so at the paper's shape a cold solve and a warm
        # one from its own potential meet both quotas to rounding.
        config = TrainConfig()
        params = enc.init_params(config.encoder, 0)
        cloud = pc.normalize(ball_cloud(rng, 2048))
        cold = e_step(params, cloud, config.solver)
        warm = e_step(params, cloud, config.solver, potential=cold.potential)
        assert cold.marginal_residual < 1e-14
        assert warm.marginal_residual < 1e-14

    def test_deterministic(self, rng):
        config = toy_config()
        params = enc.init_params(config.encoder, 5)
        cloud = pc.normalize(ball_cloud(rng, 32))
        # a Fortran-ordered copy of the same values is stored in C order
        fortran = pc.PointCloud(np.asfortranarray(cloud.points))
        a = e_step(params, cloud, config.solver)
        for other in (cloud, fortran):
            b = e_step(params, other, config.solver)
            np.testing.assert_array_equal(a.gamma, b.gamma)
            np.testing.assert_array_equal(a.trace.scores, b.trace.scores)


    def test_nan_feature_column_aborts(self, rng):
        # An infinite weight (a checkpoint can hold one) gives 0 * inf = NaN
        # at the points whose hidden unit is off and inf at the others.
        config = toy_config()
        params = enc.init_params(config.encoder, 5)
        params.tensors["mlp1.w"][0, 0] = np.inf
        cloud = pc.normalize(ball_cloud(rng, 32))
        with np.errstate(invalid="ignore", over="ignore"):
            column = enc.forward(params, cloud.points).features[:, 0]
            assert np.isnan(column).any() and not np.isnan(column).all()
            with pytest.raises(NumericalError, match="cost matrix has .* non-finite entries"):
                e_step(params, cloud, config.solver)


class TestMStep:
    def test_critical_point_leaves_only_weight_decay(self, rng, monkeypatch):
        # A zeroed head gives exactly uniform scores (J and N powers of
        # two), so gamma == scores with the orthogonality penalty off makes
        # every gradient exactly zero and the update reduces to the
        # decoupled decay term.
        monkeypatch.setattr(losses, "ORTH_WEIGHT", 0.0)
        config = toy_config()
        state = TrainState.initial(config)
        state.lr = config.lr
        state.params.tensors["head.w"][:] = 0.0
        cloud = pc.normalize(ball_cloud(rng, 16))
        result = e_step(state.params, cloud, config.solver)
        assert np.all(result.trace.scores == 0.5)
        result = replace(result, gamma=result.trace.scores.copy(),
                         marginal_residual=0.0)
        before = {k: v.copy() for k, v in state.params.tensors.items()}
        _, grads = cloud_gradients(state, result)
        m_step(state, grads)
        for name, old in before.items():
            expected = old - config.lr * (WEIGHT_DECAY * old)
            np.testing.assert_array_equal(state.params.tensors[name], expected)

    def test_zero_lr_freezes_params_but_not_moments(self, rng):
        config = toy_config()
        state = TrainState.initial(config)
        state.lr = 0.0
        cloud = pc.normalize(ball_cloud(rng, 16))
        result = e_step(state.params, cloud, config.solver)
        before = {k: v.copy() for k, v in state.params.tensors.items()}
        _, grads = cloud_gradients(state, result)
        m_step(state, grads)
        for name, old in before.items():
            np.testing.assert_array_equal(state.params.tensors[name], old)
        assert any(state.m[k].any() for k in state.m)

    def test_fifty_steps_reduce_soft_loss(self, rng):
        # Committed oracle run (seed 21/99): l_soft 0.6273 -> 0.00027,
        # a 99.96% reduction; the contract asserts at least 30%.
        data_rng = np.random.default_rng(99)
        pts, _ = two_blob_points(data_rng, 8)
        cloud = pc.normalize(pc.PointCloud(pts))
        config = toy_config()
        state = TrainState.initial(config)
        state.lr = config.lr
        losses = []
        for _ in range(50):
            result = e_step(state.params, cloud, config.solver)
            report, grads = cloud_gradients(state, result)
            m_step(state, grads)
            losses.append(report.l_soft)
        assert losses[-1] <= 0.7 * losses[0]

    def test_an_unbuffered_e_step_allocates_each_array_where_it_is_built(self, rng):
        # Each array is allocated where it is built and the cost is released
        # once the labels are solved, so at the paper's shape the E-step
        # peaks less than 1.5 (N, J) arrays above what its result keeps;
        # allocating an (N, d) array up front would add 2 (N, J) ones.
        config = TrainConfig()
        params = enc.init_params(config.encoder, 0)
        cloud = pc.normalize(ball_cloud(rng, 2048))
        e_step(params, cloud, config.solver)
        tracemalloc.start()
        try:
            result = e_step(params, cloud, config.solver)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 1.5 * result.gamma.nbytes, (peak - kept) / result.gamma.nbytes

    def test_a_nan_score_reaches_the_non_finite_loss_error(self, rng):
        # The log-loss refuses a score <= 0 but lets a NaN through, so that
        # the step names the non-finite loss it makes.
        config = toy_config()
        state = TrainState.initial(config)
        result = e_step(state.params, pc.normalize(ball_cloud(rng, 8)), config.solver)
        result.trace.scores[3, 1] = np.nan
        with pytest.raises(NumericalError, match=r"^non-finite loss: l_soft=nan "):
            cloud_gradients(state, result)
        result.trace.scores[3, 1] = 0.0
        with pytest.raises(NumericalError, match="strictly positive"):
            cloud_gradients(state, result)

    def test_paper_shape_gradient_matches_the_unfactored_route(self, rng):
        # One cloud's gradient at the paper's shape by the unfactored route:
        # a forward with each bias added on its own, dL/dS = -gamma / (N s)
        # plus the prototype chain's score term, the softmax Jacobian, and a
        # layer-by-layer backward with explicit column sums for the biases.
        # The trainer's step matches it to 1e-12 relative.
        config = TrainConfig()
        state = TrainState.initial(config)
        cloud = pc.normalize(ball_cloud(rng, 2048))
        result = e_step(state.params, cloud, config.solver)
        gamma = result.gamma
        t, x = state.params.tensors, cloud.points

        layers = len(config.encoder.hidden_sizes) + 1
        acts, a = [], x
        for i in range(layers):
            z = a @ t[f"mlp{i}.w"] + t[f"mlp{i}.b"]
            a = np.maximum(z, 0.0) if i < layers - 1 else z
            acts.append(a)
        f = a
        n, d = f.shape
        rows = f.argmax(axis=0)
        pooled = f[rows, np.arange(d)]
        logits = f @ t["head.w"][:d] + pooled @ t["head.w"][d:] + t["head.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)

        mass = s.sum(axis=0)
        geo, feat = (s.T @ x) / mass[:, None], (s.T @ f) / mass[:, None]
        _, d_geo = losses.orth_loss(Prototypes(geo=geo, feat=feat))
        per_geo = losses.ORTH_WEIGHT * d_geo / mass[:, None]
        d_s = -gamma / (n * s) + x @ per_geo.T - (geo * per_geo).sum(axis=1)
        dz = s * (d_s - (d_s * s).sum(axis=1, keepdims=True))

        ref = {"head.w": np.vstack([f.T @ dz, np.outer(pooled, dz.sum(axis=0))]),
               "head.b": dz.sum(axis=0)}
        d_head_in = dz @ t["head.w"].T
        d_a = d_head_in[:, :d].copy()
        d_a[rows, np.arange(d)] += d_head_in[:, d:].sum(axis=0)
        for i in reversed(range(layers)):
            d_z = d_a if i == layers - 1 else d_a * (acts[i] > 0.0)
            ref[f"mlp{i}.w"] = (x if i == 0 else acts[i - 1]).T @ d_z
            ref[f"mlp{i}.b"] = d_z.sum(axis=0)
            d_a = d_z @ t[f"mlp{i}.w"].T

        _, grads = cloud_gradients(state, result)
        assert grads.keys() == ref.keys()
        for name, g in ref.items():
            assert grads[name].shape == g.shape, name
            assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_nonfinite_loss_aborts(self, rng, monkeypatch):
        # Infinite labels at the tenth E-step, the second cloud of the last
        # M-step of epoch 2: pretrain names the epoch, the M-steps taken
        # and the cloud's index in its list.
        clouds = [pc.normalize(ball_cloud(rng, 8)) for _ in range(4)]
        seen = []

        def poisoned(params, cloud, *args, **kwargs):
            result = e_step(params, cloud, *args, **kwargs)
            seen.append(next(i for i, c in enumerate(clouds) if c is cloud))
            if len(seen) == 10:
                return replace(result, gamma=result.gamma * np.inf)
            return result

        monkeypatch.setattr(trainer, "e_step", poisoned)
        with pytest.raises(NumericalError) as info:
            pretrain(clouds, toy_config(epochs=3, batch_size=2))
        assert len(seen) == 10
        assert re.fullmatch(rf"epoch 2, M-step 4, cloud {seen[-1]}: non-finite loss: "
                            r"l_soft=inf l_orth=\S+", str(info.value))


class TestSchedule:
    def test_default_schedule_at_epoch_40(self):
        config = TrainConfig()
        assert lr_at_epoch(config, 40) == pytest.approx(0.001 * 0.7 ** 2, abs=1e-12)

    def test_decay_boundaries(self):
        config = TrainConfig()
        assert lr_at_epoch(config, 0) == 0.001
        assert lr_at_epoch(config, 19) == 0.001
        assert lr_at_epoch(config, 20) == pytest.approx(0.0007)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="num_clusters"):
            TrainConfig(solver=SolverConfig(num_clusters=8))
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lr"):
                TrainConfig(lr=value)


class TestPretrain:
    def test_zero_epochs_noop(self, rng):
        config = toy_config(epochs=0)
        clouds = [pc.normalize(ball_cloud(rng, 16))]
        state = pretrain(clouds, config)
        reference = enc.init_params(config.encoder, config.seed)
        for k in reference.tensors:
            np.testing.assert_array_equal(state.params.tensors[k], reference.tensors[k])
        assert state.history == []

    def test_history_one_record_per_epoch(self, rng):
        config = toy_config(epochs=3)
        clouds = [pc.normalize(ball_cloud(rng, 16)) for _ in range(6)]
        state = pretrain(clouds, config)
        assert [m["epoch"] for m in state.history] == [0, 1, 2]
        for record in state.history:
            assert set(record) == {"epoch", "l_soft", "l_orth", "l_total", "lr",
                                   "max_marginal_residual", "sinkhorn_iters_median",
                                   "sinkhorn_iters_max", "capped_solves"}

    def test_bit_reproducible(self, rng):
        config = toy_config(epochs=2)
        clouds = [pc.normalize(ball_cloud(rng, 16)) for _ in range(5)]
        s1 = pretrain(clouds, config)
        s2 = pretrain(clouds, config)
        for k in s1.params.tensors:
            assert s1.params.tensors[k].tobytes() == s2.params.tensors[k].tobytes()
        assert s1.history == s2.history

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits some products (a long ddot, some GEMMs) by its
        # thread count, and the partial sums then round differently; the step
        # avoids those forms. With `scores.T @ block` in `compute_prototypes`
        # and `np.vdot` in `soft_ce_loss`, the two runs here hash differently.
        runs = [fresh_run(2, 2, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
                for threads in (1, 2)]
        assert runs[0]["sha256"] == runs[1]["sha256"]

    @pytest.mark.skipif(not (sys.platform.startswith("linux")
                             and platform.libc_ver()[0] == "glibc"),
                        reason="the fault counts are glibc malloc's: its dynamic mmap and "
                               "trim thresholds decide whether a step reuses its pages")
    def test_steps_after_epoch_1_reuse_their_pages(self):
        # A step reuses the pages the last one freed only while its arrays
        # stay below glibc's trim threshold, which the trace's array sets;
        # past it, every step maps its pages afresh (about 1,070 minor
        # faults a step with one more 6 MiB array alive through it). Epoch 1
        # may still grow the heap, so epochs 2 and 3 are bounded.
        faults = fresh_run(8, 4)["faults"]
        per_step = [(after - before) / 8 for before, after in zip(faults[1:], faults[2:])]
        assert max(per_step) <= 200, per_step

    def test_loss_trend_down(self, rng):
        data_rng = np.random.default_rng(7)
        clouds = []
        for _ in range(8):
            pts, _ = two_blob_points(data_rng, 16)
            clouds.append(pc.normalize(pc.PointCloud(pts)))
        config = toy_config(epochs=8, batch_size=4)
        state = pretrain(clouds, config)
        assert state.history[-1]["l_total"] < state.history[0]["l_total"]

    def test_numerical_abort_propagates(self, rng, monkeypatch):
        # At epsilon 1e-9 the kernel is a 0/1 pattern with no balanced plan
        # on its support, so the scaling vectors grow without bound. Under
        # the default cap they stay finite and every solve is flagged; a cap
        # twenty times larger lets them overflow, and the abort must surface.
        clouds = [pc.normalize(ball_cloud(rng, 16))]
        history = pretrain(clouds, toy_config(epsilon=1e-9)).history
        assert all(m["capped_solves"] == 1 for m in history)
        assert all(m["sinkhorn_iters_max"] == MAX_ITERS for m in history)
        monkeypatch.setattr(trainer, "sinkhorn", partial(sinkhorn, iters=20_000))
        with pytest.raises(NumericalError, match=r"^epoch 0, M-step 0, cloud 0: transport "
                                                 r"plan became non-finite"):
            pretrain(clouds, toy_config(epsilon=1e-9))

    def test_default_solver_trains_fifty_steps(self, rng):
        # The default solver and encoder at the paper's N=2048. 50 steps at
        # lr 4e-4 move the parameters as far as the default 20 epochs at lr
        # 1e-3 with one step per epoch. Training longer makes the cost
        # spread grow until solves reach the cap (ROADMAP item 2).
        clouds = [pc.normalize(ball_cloud(rng, 2048)) for _ in range(2)]
        config = TrainConfig(epochs=25, batch_size=1, lr=4e-4)
        start = time.perf_counter()
        state = pretrain(clouds, config)
        assert time.perf_counter() - start < 30.0
        assert state.step == 50
        for record in state.history:
            assert record["max_marginal_residual"] <= TOL
            assert record["capped_solves"] == 0

    def test_memory_does_not_grow_with_batch_size(self, rng):
        # Each cloud's backward runs right after its E-step and only the
        # gradient sum is kept, so the peak is one cloud's work at any batch size.
        clouds = [pc.normalize(ball_cloud(rng, 512)) for _ in range(8)]
        peaks = {}
        for batch_size in (8, 1):
            config = TrainConfig(epochs=1, batch_size=batch_size)
            tracemalloc.start()
            try:
                pretrain(clouds, config)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.25 * peaks[1]

    def test_reused_traces_equal_a_loop_of_default_steps(self, rng):
        # pretrain on clouds of two sizes equals a loop of default steps that
        # carries only each cloud's last column potential from one step to
        # the next.
        clouds = [pc.normalize(ball_cloud(rng, n)) for n in (512, 300, 512, 300, 512)]
        config = TrainConfig(epochs=2, batch_size=2)
        state = pretrain(clouds, config)

        ref = TrainState.initial(config)
        shuffle_rng = np.random.default_rng([config.seed, 1])
        potentials = [None] * len(clouds)
        for epoch in range(config.epochs):
            ref.epoch, ref.lr = epoch, lr_at_epoch(config, epoch)
            order = shuffle_rng.permutation(len(clouds))
            reports, residuals, iterations = [], [], []
            for start in range(0, len(order), config.batch_size):
                chunk = order[start:start + config.batch_size]
                grads = ref.params.zeros_like()
                for i in chunk:
                    result = e_step(ref.params, clouds[i], config.solver,
                                    potential=potentials[i])
                    potentials[i] = result.potential
                    residuals.append(result.marginal_residual)
                    iterations.append(result.iterations)
                    report, cloud_grads = cloud_gradients(ref, result)
                    reports.append(report)
                    for name, g in cloud_grads.items():
                        grads[name] += (1.0 / len(chunk)) * g
                m_step(ref, grads)
            ref.history.append({
                "epoch": epoch,
                "l_soft": float(np.mean([r.l_soft for r in reports])),
                "l_orth": float(np.mean([r.l_orth for r in reports])),
                "l_total": float(np.mean([r.l_total for r in reports])),
                "lr": ref.lr,
                "max_marginal_residual": float(max(residuals)),
                "sinkhorn_iters_median": float(np.median(iterations)),
                "sinkhorn_iters_max": max(iterations),
                "capped_solves": sum(r >= TOL for r in residuals),
            })
        assert state.history == ref.history
        assert state.step == ref.step
        for name, tensor in ref.params.tensors.items():
            assert state.params.tensors[name].tobytes() == tensor.tobytes(), name

    def test_warm_starts_take_no_more_iterations_than_cold(self, rng, monkeypatch):
        # Every warm-started solve of a short run is repeated cold on the
        # same cost; the run itself follows the warm plans.
        clouds = [pc.normalize(ball_cloud(rng, 256)) for _ in range(4)]
        config = TrainConfig(
            epochs=10, batch_size=2, solver=SolverConfig(num_clusters=8),
            encoder=enc.EncoderConfig(hidden_sizes=(16,), feature_dim=16, num_clusters=8))
        warm, cold = [], []

        def both(cost, *args, potential=None, **kwargs):
            plan = sinkhorn(cost, *args, potential=potential, **kwargs)
            if potential is not None:
                warm.append(plan.iterations)
                cold.append(sinkhorn(cost, *args, **kwargs).iterations)
            return plan

        monkeypatch.setattr(trainer, "sinkhorn", both)
        history = pretrain(clouds, config).history
        assert len(warm) == (config.epochs - 1) * len(clouds)
        assert sum(m["capped_solves"] for m in history) == 0
        assert sum(warm) <= sum(cold), (sum(warm), sum(cold))

    def test_the_cost_outlives_its_solve(self, rng, monkeypatch):
        # The solve's restart and error message, and a caller such as a
        # tracer, read the cost after the kernel is built: not in its buffer.
        clouds = [pc.normalize(ball_cloud(rng, n)) for n in (64, 64, 48)]
        kept = []

        def solve(cost, *args, **kwargs):
            before = cost.copy()
            plan = sinkhorn(cost, *args, **kwargs)
            kept.append(cost.tobytes() == before.tobytes())
            return plan

        monkeypatch.setattr(trainer, "sinkhorn", solve)
        pretrain(clouds, toy_config(num_clusters=4))
        assert len(kept) == 6 and all(kept)

    @pytest.mark.parametrize("batch_size", [32, 1])
    def test_paper_shape_peak_memory(self, rng, batch_size):
        # A step takes 10.5 MiB, at its height in `logit_gradient`: the
        # trace, the labels, the prototype chain's score term and the loss
        # gradient. The only (N, d) arrays are the trace's, which the
        # backward spends as scratch; an (N, d) feature gradient of its own
        # would add 2 MiB.
        clouds = [pc.normalize(ball_cloud(rng, 2048)) for _ in range(4)]
        config = TrainConfig(epochs=2, batch_size=batch_size)
        tracemalloc.start()
        try:
            pretrain(clouds, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.75 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_memory_does_not_grow_with_epochs(self, rng):
        # Each cloud's E-step result and gradients are released before the
        # next cloud's E-step, so a 3-epoch call peaks no higher than a
        # 1-epoch call, but for its two more history records.
        clouds = [pc.normalize(ball_cloud(rng, 2048)) for _ in range(4)]
        peaks = {}
        for epochs in (1, 3):
            tracemalloc.start()
            try:
                pretrain(clouds, TrainConfig(epochs=epochs))
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= peaks[1] + 2**16, peaks

    def test_every_ones_column_reads_one_after_each_step(self, rng, monkeypatch, tmp_path):
        # The ones columns carry every bias and per-cluster constant, so no
        # step may write them: not a pretrain step, which spends its trace,
        # and not `otclu cluster`'s E-step.
        def ones_columns(trace):
            return [a[:, -1] for a in (trace.block, *trace.acts)]

        seen = []

        def step(state, result):
            out = cloud_gradients(state, result)
            seen.append(all(np.all(c == 1.0) for c in ones_columns(result.trace)))
            return out

        monkeypatch.setattr(trainer, "cloud_gradients", step)
        clouds = [pc.normalize(ball_cloud(rng, 256)) for _ in range(3)]
        pretrain(clouds, TrainConfig(epochs=2, batch_size=2))
        assert seen == [True] * 6

        def cluster_e_step(*args, **kwargs):
            result = e_step(*args, **kwargs)
            seen.append(all(np.all(c == 1.0) for c in ones_columns(result.trace)))
            return result

        monkeypatch.setattr(cli, "e_step", cluster_e_step)
        ckpt, src = tmp_path / "p.otck", tmp_path / "c.xyz"
        enc.save_checkpoint(enc.init_params(enc.EncoderConfig(), seed=0), ckpt)
        write_cloud(ball_cloud(rng, 300).points, src)
        assert cli.main(["cluster", str(ckpt), str(src), str(tmp_path / "x.ply"),
                         "--points", "256"]) == 0
        assert seen == [True] * 7

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            pretrain([], toy_config())


def reachable_arrays(obj):
    """Every array reachable from obj through dataclass fields, dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from reachable_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from reachable_arrays(value)


def step_inputs(rng, num_clusters=5):
    """A toy config (d = 8) and every input of one cloud step on 64 points."""
    config = toy_config(num_clusters=num_clusters)
    state = TrainState.initial(config)
    cloud = pc.normalize(ball_cloud(rng, 64))
    trace = enc.forward(state.params, cloud.points)
    protos = compute_prototypes(trace.block, trace.scores)
    cost = compute_cost(trace.block, protos, config.solver.lam)
    plan = sinkhorn(cost, config.solver.epsilon)
    gamma = assign_soft_labels(plan)
    psi = plan.potential + rng.normal(scale=config.solver.epsilon, size=plan.potential.shape)
    _, d_geo = total_loss(gamma, trace.scores, protos)
    term = prototypes_backward(trace.block, protos, d_geo)
    d_logits = logit_gradient(gamma, trace.scores, term.copy(order="F"))
    return SimpleNamespace(config=config, state=state, cloud=cloud, trace=trace, protos=protos,
                           cost=cost, plan=plan, gamma=gamma, psi=psi, d_geo=d_geo,
                           term=term, d_logits=d_logits)


def test_step_arrays_are_column_major(rng):
    # Every (N, k) float array of a step is column-major (see EStepResult):
    # the trace's arrays and the arrays the step functions build, from a
    # C-ordered cost too; the backward's scratch, the first columns of the
    # spent features and activations, is column-major.
    x = step_inputs(rng)
    trace = x.trace
    result = e_step(x.state.params, x.cloud, x.config.solver)
    arrays = [*trace.acts, trace.block, trace.scores, trace.features, x.cost, x.plan.matrix,
              sinkhorn(np.ascontiguousarray(x.cost), x.config.solver.epsilon).matrix,
              x.gamma, result.gamma, x.term, x.d_logits]
    assert all(a.ndim == 2 and a.flags.f_contiguous for a in arrays)
    h = trace.acts[-1].shape[1] - 1
    for buffer, width in ((trace.block, h), (trace.acts[0], trace.acts[0].shape[1] - 1)):
        lent = buffer[:, :width]
        assert lent.flags.f_contiguous and np.shares_memory(lent, buffer)


def test_no_step_function_writes_its_arguments(rng):
    # The step functions build their results in arrays of their own; only
    # the backward's trace and logit_gradient's score term are spent. None
    # may write any other array it was handed as an argument, however deep
    # in a trace, params or state it sits.
    x = step_inputs(rng)
    params, trace, solver = x.state.params, x.trace, x.config.solver
    result = e_step(params, x.cloud, solver)
    own = enc.forward(params, x.cloud.points)  # a trace of its own for the backward to spend
    term = x.term.copy(order="F")  # logit_gradient spends it
    calls = [
        (enc.forward, params, x.cloud.points),
        (soft_ce_loss, x.gamma, trace.scores),
        (total_loss, x.gamma, trace.scores, x.protos),
        (compute_prototypes, trace.block, trace.scores),
        (compute_cost, trace.block, x.protos, solver.lam),
        (sinkhorn, x.cost, solver.epsilon),
        (sinkhorn, x.cost, solver.epsilon, MAX_ITERS, TOL, x.psi),
        (assign_soft_labels, x.plan),
        (prototypes_backward, trace.block, x.protos, x.d_geo),
        (e_step, params, x.cloud, solver),
        (e_step, params, x.cloud, solver, x.psi),
    ]
    calls = [(fn, args, []) for fn, *args in calls] + [
        (logit_gradient, (x.gamma, trace.scores, term), [term]),
        (enc.backward, (own, params, x.d_logits), [own.block, *own.acts]),
        (cloud_gradients, (x.state, result), [result.trace.block, *result.trace.acts]),
    ]
    for fn, args, spent in calls:
        spent_ids = {id(a) for a in reachable_arrays(spent)}
        before = [a.copy() for a in reachable_arrays(args) if id(a) not in spent_ids]
        fn(*args)
        after = [a for a in reachable_arrays(args) if id(a) not in spent_ids]
        assert len(after) == len(before), fn.__name__
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes(), fn.__name__
