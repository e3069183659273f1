import json

import numpy as np
import pytest

from otclu import cli
from otclu.cloud import PointCloud, load_cloud, save_cloud
from otclu.encoder import EncoderConfig, init_params, load_checkpoint, save_checkpoint
from otclu.verify import CheckResult

from conftest import two_blob_points


def write_config(path, **overrides):
    config = {
        "train": {"epochs": 2, "batch_size": 4, "lr": 0.01, "seed": 11},
        "solver": {"num_clusters": 2, "epsilon": 2e-3},
        "encoder": {"hidden_sizes": [8], "feature_dim": 8},
        "data": {"num_points": 24},
    }
    for section, keys in overrides.items():
        config.setdefault(section, {}).update(keys)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def blob_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    rng = np.random.default_rng(314)
    for i in range(6):
        pts, _ = two_blob_points(rng, 16)
        fmt = ["OFF", "PLY_ASCII", "XYZ"][i % 3]
        suffix = {"OFF": ".off", "PLY_ASCII": ".ply", "XYZ": ".xyz"}[fmt]
        save_cloud(PointCloud(pts), root / f"cloud{i}{suffix}", fmt)
    return root


@pytest.fixture(scope="module")
def trained_run(blob_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = write_config(out / "config.json")
    code = cli.main(["pretrain", str(config), str(blob_dataset), str(out / "out")])
    assert code == 0
    return out / "out", config


class TestPretrainCommand:
    def test_artifacts_written(self, trained_run):
        out_dir, _ = trained_run
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["finished_at"] is not None
        assert len(manifest["inputs"]) == 6
        lines = (out_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2  # one record per epoch
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "l_soft", "l_orth", "l_total", "lr",
                               "max_marginal_residual"}
        params, meta = load_checkpoint(out_dir / "checkpoint_final.otck")
        assert meta["config_hash"] == manifest["config_hash"]

    def test_deterministic_final_checkpoint(self, blob_dataset, tmp_path):
        config = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(a)]) == 0
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(b)]) == 0
        assert (a / "checkpoint_final.otck").read_bytes() == \
            (b / "checkpoint_final.otck").read_bytes()

    def test_empty_data_dir_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["pretrain", str(config), str(empty), str(tmp_path / "out")]) == 3
        assert "0 cloud files" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, blob_dataset, capsys):
        config = tmp_path / "config.json"
        for raw, key in (({"train": {"epochz": 2}}, "epochz"),
                         ({"solver": {"learn_lambda": False}}, "learn_lambda")):
            config.write_text(json.dumps(raw))
            assert cli.main(["pretrain", str(config), str(blob_dataset), str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, blob_dataset):
        config = write_config(tmp_path / "config.json", train={"lr": -1.0})
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(tmp_path / "o")]) == 2

    def test_out_dir_env_override(self, blob_dataset, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.json", train={"epochs": 1})
        override = tmp_path / "redirected"
        monkeypatch.setenv("OTCLU_OUT_DIR", str(override))
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(tmp_path / "ignored")]) == 0
        assert (override / "checkpoint_final.otck").exists()
        assert not (tmp_path / "ignored").exists()


class TestClusterCommand:
    def test_blob_cloud_equipartition(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        rng = np.random.default_rng(555)
        pts, _ = two_blob_points(rng, 12)
        cloud_path = tmp_path / "probe.xyz"
        save_cloud(PointCloud(pts), cloud_path, "XYZ")
        out_ply = tmp_path / "labeled.ply"
        code = cli.main(["cluster", str(out_dir / "checkpoint_final.otck"),
                         str(cloud_path), str(out_ply), "--epsilon", "2e-3"])
        assert code == 0
        sidecar = json.loads(out_ply.with_suffix(".json").read_text())
        assert sidecar["cluster_counts"] == [12, 12]
        assert sidecar["marginal_residual"] < 1e-5
        assert 0.0 <= sidecar["mean_confidence"] <= 1.0
        back = load_cloud(out_ply)
        assert back.n_points == 24

    def test_cluster_count_mismatch_exits_5(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        rng = np.random.default_rng(556)
        pts, _ = two_blob_points(rng, 8)
        cloud_path = tmp_path / "probe.xyz"
        save_cloud(PointCloud(pts), cloud_path, "XYZ")
        code = cli.main(["cluster", str(out_dir / "checkpoint_final.otck"),
                         str(cloud_path), str(tmp_path / "x.ply"), "--clusters", "8"])
        assert code == 5

    def test_corrupt_checkpoint_exits_5(self, tmp_path, capsys):
        good = tmp_path / "good.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), good)
        whole = good.read_bytes()
        (tmp_path / "c.xyz").write_text("0 0 0\n1 1 1\n")
        bad = tmp_path / "bad.otck"
        # garbage, a file cut 16 bytes short, and one cut inside the fixed header
        for blob in (b"garbage" * 10, whole[:-16], whole[:10]):
            bad.write_bytes(blob)
            code = cli.main(["cluster", str(bad), str(tmp_path / "c.xyz"),
                             str(tmp_path / "x.ply")])
            assert code == 5
            assert "checkpoint error" in capsys.readouterr().err

    def test_missing_cloud_exits_3(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        code = cli.main(["cluster", str(out_dir / "checkpoint_final.otck"),
                         str(tmp_path / "nope.xyz"), str(tmp_path / "x.ply")])
        assert code == 3


class TestExportCommand:
    def test_conversion_round_trip(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(30, 3))
        src = tmp_path / "a.xyz"
        save_cloud(PointCloud(pts), src, "XYZ")
        dst = tmp_path / "a.ply"
        assert cli.main(["export", str(src), str(dst)]) == 0
        assert np.abs(load_cloud(dst).points - pts).max() < 2e-6

    def test_normalize_and_downsample(self, tmp_path, rng):
        pts = rng.normal(size=(100, 3)) * 5 + 3
        src = tmp_path / "a.xyz"
        save_cloud(PointCloud(pts), src, "XYZ")
        dst = tmp_path / "b.xyz"
        assert cli.main(["export", str(src), str(dst), "--normalize",
                         "--points", "40", "--seed", "4"]) == 0
        out = load_cloud(dst)
        assert out.n_points == 40
        assert np.linalg.norm(out.points, axis=1).max() <= 1 + 1e-6

    def test_missing_input_exits_3(self, tmp_path, capsys):
        assert cli.main(["export", str(tmp_path / "nope.xyz"),
                         str(tmp_path / "out.ply")]) == 3
        # a malformed file exits 3 as well, with the line in the message
        src = tmp_path / "bad.off"
        src.write_text("OFF\n-2 0 0\n")
        assert cli.main(["export", str(src), str(tmp_path / "out.ply")]) == 3
        assert "bad.off:2" in capsys.readouterr().err

    def test_unknown_output_extension_exits_2(self, tmp_path):
        src = tmp_path / "a.xyz"
        src.write_text("0 0 0\n")
        assert cli.main(["export", str(src), str(tmp_path / "out.bin")]) == 2


class TestVerifyCommand:
    def test_table_and_exit_codes(self, monkeypatch, capsys):
        fake = [CheckResult("alpha", True, "fine", 0.01),
                CheckResult("beta", True, "also fine", 0.02)]
        monkeypatch.setattr(cli, "run_checks", lambda level: fake)
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS  alpha" in out and "2/2" in out

        fake[1] = CheckResult("beta", False, "broken", 0.02)
        assert cli.main(["verify", "--level", "full"]) == 1
        assert "FAIL  beta" in capsys.readouterr().out

    def test_sign_flipped_solver_fails_lp_check(self, monkeypatch):
        # A corrupted build that exponentiates +cost/epsilon must be caught
        # by the LP comparison.
        import otclu.verify as verify
        from otclu.clustering import TransportPlan

        def flipped(cost, epsilon=1e-3, iters=20, tol=None):
            d = np.asarray(cost, dtype=float)
            gamma = np.exp((d / epsilon) - (d / epsilon).max())
            gamma /= gamma.sum()
            n, m = gamma.shape
            for _ in range(200):
                gamma *= (1.0 / n) / gamma.sum(axis=1, keepdims=True)
                gamma *= (1.0 / m) / gamma.sum(axis=0, keepdims=True)
            return TransportPlan(matrix=gamma)

        monkeypatch.setattr(verify, "sinkhorn", flipped)
        lp = next(check for check in verify.CHECKS if check.name == "sinkhorn-vs-lp")
        assert not verify.run_check(lp, "fast").passed
