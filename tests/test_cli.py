import argparse
import importlib
import inspect
import json
import math
import re
import struct
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from otclu import cli, trainer, verify
from otclu import cloud as pc
from otclu.cloud import CLOUD_SUFFIXES, PointCloud, load_cloud
from otclu.clustering import MAX_ITERS, SolverConfig, sinkhorn
from otclu.encoder import EncoderConfig, init_params, load_checkpoint, save_checkpoint
from otclu.errors import CheckpointError, ConfigError, NumericalError, ParseError, ShapeError
from otclu.trainer import TrainConfig, TrainState
from otclu.verify import CheckResult

from conftest import join_checkpoint, split_checkpoint, two_blob_points, with_tensors, write_cloud


def with_offset(checkpoint: bytes, name: str, offset: int) -> bytes:
    """The checkpoint with tensor `name`'s header offset replaced."""
    header, data = split_checkpoint(checkpoint)
    for entry in header["tensors"]:
        if entry["name"] == name:
            entry["offset"] = offset
    return join_checkpoint(checkpoint, header, data)


def readme_names(after: str, until: str) -> list[str]:
    """The backticked names in README.md from the first `after` to the next
    `until`, line breaks read as spaces."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    return re.findall(r"`(\w+)`", text.split(after, 1)[1].split(until, 1)[0])


def tour_mismatches(readme: str) -> tuple[int, list[str]]:
    """How many backticked `name(arg, ...)` calls README's "Library tour"
    table holds, and each one that does not name a function of its row's
    module whose leading parameters are those arguments, in order."""
    table = readme.split("## Library tour\n", 1)[1].split("\n\n", 1)[0].strip()
    count, wrong = 0, []
    for row in table.splitlines()[2:]:
        module_name, contents = re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", row).groups()
        module = importlib.import_module(module_name)
        for name, arglist in re.findall(r"`([A-Za-z_]\w*)\(([^`]*)\)`", contents):
            count += 1
            args = [a.split("=")[0].strip() for a in arglist.split(",") if a.strip()]
            fn = getattr(module, name, None)
            params = list(inspect.signature(fn).parameters) if callable(fn) else None
            if params is None or params[:len(args)] != args:
                wrong.append(f"{module_name}.{name}({arglist}): {params}")
    return count, wrong


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
        write_cloud(pts, root / f"cloud{i}{CLOUD_SUFFIXES[i % 3]}")
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
                               "max_marginal_residual", "sinkhorn_iters_median",
                               "sinkhorn_iters_max", "capped_solves"}
        for line in lines:
            record = json.loads(line)
            median = record["sinkhorn_iters_median"]
            assert math.isfinite(median) and 1 <= median <= record["sinkhorn_iters_max"]
        params, meta = load_checkpoint(out_dir / "checkpoint_final.otck")
        assert meta["config_hash"] == manifest["config_hash"]
        assert meta["solver"] == manifest["config"]["solver"]
        # the last epoch of two, after two M-steps an epoch (6 clouds in batches of 4)
        assert (meta["epoch"], meta["step"]) == (1, 2 * 2)

    def test_manifest_and_sidecar_record_numpy_and_blas(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        src = write_cloud([[0, 0, 0], [1, 1, 1], [2, 0, 1], [1, 2, 0]], tmp_path / "c.xyz")
        assert cli.main(["cluster", str(out_dir / "checkpoint_final.otck"), str(src),
                         str(tmp_path / "x.ply")]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        sidecar = json.loads((tmp_path / "x.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expected = {"numpy": np.__version__, "blas": blas["name"],
                    "blas_version": blas["version"]}
        assert manifest["environment"] == sidecar["environment"] == expected

    def test_environment_without_a_blas_record_reads_unknown(self, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {}})
        assert cli.environment() == {"numpy": np.__version__, "blas": "unknown",
                                     "blas_version": "unknown"}

    def test_manifest_config_reloads_to_the_run_config(self, trained_run, tmp_path):
        out_dir, config_path = trained_run
        manifest = json.loads((out_dir / "manifest.json").read_text())
        resolved = tmp_path / "resolved.json"
        resolved.write_text(json.dumps(manifest["config"]))
        config, data = cli.load_config(resolved)
        assert config == cli.load_config(config_path)[0]
        assert cli.config_hash(cli.resolved_config_dict(config, data)) == manifest["config_hash"]

    def test_deterministic_final_checkpoint(self, blob_dataset, tmp_path):
        config = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(a)]) == 0
        assert cli.main(["pretrain", str(config), str(blob_dataset), str(b)]) == 0
        assert (a / "checkpoint_final.otck").read_bytes() == \
            (b / "checkpoint_final.otck").read_bytes()

    def test_trains_on_normalized_clouds(self, tmp_path, rng, monkeypatch):
        # pretrain normalizes every cloud, as cluster does, so a checkpoint
        # is never trained on coordinates that cluster would not feed it
        data = tmp_path / "data"
        data.mkdir()
        write_cloud(rng.normal(size=(24, 3)) * 5 + 3, data / "a.xyz")
        seen = []
        monkeypatch.setattr(cli, "pretrain", lambda clouds, config, **k:
                            seen.extend(clouds) or TrainState.initial(config))
        config = write_config(tmp_path / "config.json")
        assert cli.main(["pretrain", str(config), str(data), str(tmp_path / "out")]) == 0
        [cloud] = seen
        assert cloud.points.tobytes() == pc.normalize(load_cloud(data / "a.xyz")).points.tobytes()

    def test_numerical_abort_leaves_the_manifest_and_metrics(self, tmp_path, rng, capsys,
                                                              monkeypatch):
        # At epsilon 1e-9 and a 20000-iteration cap the scaling vectors of
        # the first solve overflow (see test_trainer's
        # test_numerical_abort_propagates): no epoch completes, so the run
        # writes no metrics record and no checkpoint.
        data = tmp_path / "data"
        data.mkdir()
        write_cloud(verify.ball_cloud(rng, 16).points, data / "ball.xyz")
        config = write_config(tmp_path / "config.json",
                              train={"seed": 21},
                              solver={"epsilon": 1e-9},
                              data={"num_points": 16})
        monkeypatch.setattr(trainer, "sinkhorn", partial(sinkhorn, iters=20_000))
        out = tmp_path / "out"
        assert cli.main(["pretrain", str(config), str(data), str(out)]) == 4
        assert re.fullmatch(r"numerical abort: epoch 0, M-step 0, cloud 0: transport plan "
                            r"became non-finite after \d+ "
                            r"iterations \(Sinkhorn iterations and Newton steps\); epsilon "
                            r"1e-09 is too small for the cost spread: the widest row spans "
                            r"\S+ times epsilon\n", capsys.readouterr().err)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "metrics.jsonl"]
        assert json.loads((out / "manifest.json").read_text())["finished_at"] is None
        assert (out / "metrics.jsonl").read_text() == ""

    def test_empty_data_dir_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "readme.txt").write_text("0 0 0\n1 1 1\n")  # .txt is not a cloud format
        assert cli.main(["pretrain", str(config), str(empty), str(tmp_path / "out")]) == 3
        listed = capsys.readouterr().err.split("found 0 cloud files (", 1)[1].split(")", 1)[0]
        assert listed.split(", ") == [f"*{suffix}" for suffix in CLOUD_SUFFIXES]

    def test_subdirectory_with_a_cloud_suffix_is_skipped(self, tmp_path, monkeypatch):
        # only regular files are clouds, whatever their name
        data = tmp_path / "data"
        (data / "sub.xyz").mkdir(parents=True)
        (data / "a.xyz").write_text("0 0 0\n1 1 1\n")
        seen = []
        monkeypatch.setattr(cli, "pretrain", lambda clouds, config, **k:
                            seen.extend(clouds) or TrainState.initial(config))
        config = write_config(tmp_path / "config.json")
        assert cli.main(["pretrain", str(config), str(data), str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"] == [str(data / "a.xyz")] and len(seen) == 1

    def test_non_finite_cloud_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "a.xyz").write_text("0 0 0\n1 1 1\n")
        (data / "b.xyz").write_text("0 0 0\nnan 1 1\n")
        config = write_config(tmp_path / "config.json")
        assert cli.main(["pretrain", str(config), str(data), str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert str(data / "b.xyz") in err and "a.xyz" not in err, err

    def test_unknown_config_key_exits_2(self, tmp_path, blob_dataset, capsys):
        config = tmp_path / "config.json"
        for raw, key in (({"train": {"epochz": 2}}, "epochz"),
                         ({"solver": {"learn_lambda": False}}, "learn_lambda"),
                         ({"encoder": {"global_context": True}}, "global_context"),
                         ({"data": {"points": 24}}, "points"),
                         ({"model": {}}, "model"),
                         # the optimizer, the schedule, the orthogonality weight and
                         # normalization are fixed, and a run saves only its final checkpoint
                         ({"train": {"beta1": 0.9}}, "beta1"),
                         ({"train": {"beta2": 0.999}}, "beta2"),
                         ({"train": {"adam_eps": 1e-8}}, "adam_eps"),
                         ({"train": {"weight_decay": 0.01}}, "weight_decay"),
                         ({"train": {"lr_decay": 0.7}}, "lr_decay"),
                         ({"train": {"decay_every": 20}}, "decay_every"),
                         ({"train": {"eta": 0.01}}, "eta"),
                         ({"train": {"checkpoint_every": 2}}, "checkpoint_every"),
                         # when a solve stops is the solver's rule, not a setting
                         ({"solver": {"iters": 1000}}, "iters"),
                         ({"solver": {"tol": 1e-6}}, "tol"),
                         ({"data": {"normalize": True}}, "normalize")):
            config.write_text(json.dumps(raw))
            assert cli.main(["pretrain", str(config), str(blob_dataset), str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err

    def test_every_resolved_key_round_trips(self, tmp_path):
        # one value per key, none of them its default
        written = {
            "train": {"epochs": 3, "batch_size": 5, "lr": 0.002, "seed": 4},
            "solver": {"epsilon": 0.002, "lambda": 0.25, "num_clusters": 5},
            "encoder": {"hidden_sizes": [7, 9], "feature_dim": 6, "num_clusters": 5},
            "data": {"num_points": 100},
        }
        defaults = cli.resolved_config_dict(TrainConfig(), cli._DATA_DEFAULTS)
        assert {s: set(keys) for s, keys in written.items()} == \
            {s: set(keys) for s, keys in defaults.items()}
        assert all(value != defaults[s][key]
                   for s, keys in written.items() for key, value in keys.items())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(written))
        assert cli.resolved_config_dict(*cli.load_config(path)) == written

    def test_readme_defaults_block_loads_to_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Defaults shown:\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "defaults.json"
        path.write_text(block)
        assert cli.load_config(path) == (TrainConfig(), cli._DATA_DEFAULTS)

    def test_readme_lists_the_metrics_keys(self, trained_run):
        out_dir, _ = trained_run
        record = json.loads((out_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert readme_names("one JSON line per epoch to `metrics.jsonl` (", ")") == list(record)

    def test_invalid_value_exits_2(self, tmp_path, blob_dataset, capsys):
        for section, keys in (("train", {"lr": -1.0}),
                              ("solver", {"epsilon": None}), ("solver", {"epsilon": -1e-6}),
                              ("data", {"num_points": "abc"}), ("data", {"num_points": 2.5}),
                              ("data", {"num_points": True}), ("data", {"num_points": 0}),
                              ("train", {"seed": -1}), ("train", {"seed": 1.5}),
                              ("train", {"epochs": 2.5}), ("train", {"batch_size": 2.5}),
                              ("solver", {"num_clusters": 2.5}),
                              ("encoder", {"feature_dim": 2.5}),
                              ("encoder", {"num_clusters": 3}),
                              ("train", {"lr": float("nan")}), ("train", {"lr": float("inf")})):
            config = write_config(tmp_path / "config.json", **{section: keys})
            code = cli.main(["pretrain", str(config), str(blob_dataset), str(tmp_path / "o")])
            assert code == 2, (section, keys)
            assert "config error" in capsys.readouterr().err


class TestClusterCommand:
    def test_blob_cloud_equipartition(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        rng = np.random.default_rng(555)
        pts, _ = two_blob_points(rng, 12)
        cloud_path = tmp_path / "probe.xyz"
        write_cloud(pts, cloud_path)
        out_ply = tmp_path / "labeled.ply"
        code = cli.main(["cluster", str(out_dir / "checkpoint_final.otck"),
                         str(cloud_path), str(out_ply)])
        assert code == 0
        sidecar = json.loads(out_ply.with_suffix(".json").read_text())
        assert sidecar["epsilon"] == 2e-3  # the training run's, from the checkpoint
        assert sidecar["cluster_counts"] == [12, 12]
        assert sidecar["marginal_residual"] < 1e-5
        assert 1 <= sidecar["iterations"] <= MAX_ITERS
        assert 0.0 <= sidecar["mean_confidence"] <= 1.0
        back = load_cloud(out_ply)
        assert back.n_points == 24

    def test_readme_lists_the_sidecar_keys(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        src = write_cloud([[0, 0, 0], [1, 1, 1], [2, 0, 1], [1, 2, 0]], tmp_path / "c.xyz")
        assert cli.main(["cluster", str(out_dir / "checkpoint_final.otck"), str(src),
                         str(tmp_path / "x.ply")]) == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert readme_names("a JSON sidecar with the keys", ":") == list(sidecar)

    @pytest.mark.parametrize("stored, expected", [
        (None, SolverConfig(num_clusters=2)),  # a library-written checkpoint: the defaults
        ({"epsilon": 0.004, "lambda": 0.25, "num_clusters": 2},
         SolverConfig(epsilon=0.004, lam=0.25, num_clusters=2)),
    ], ids=["none", "stored"])
    def test_solves_with_the_stored_solver(self, tmp_path, stored, expected):
        ckpt = tmp_path / "p.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), ckpt,
                        meta=None if stored is None else {"solver": stored})
        src = tmp_path / "c.xyz"
        src.write_text("0 0 0\n1 1 1\n2 0 1\n1 2 0\n")
        assert cli.main(["cluster", str(ckpt), str(src), str(tmp_path / "x.ply")]) == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert (sidecar["epsilon"], sidecar["lambda"]) == (expected.epsilon, expected.lam)
        assert sidecar["iterations"] <= MAX_ITERS

    def test_a_stored_cap_and_tol_are_ignored(self, tmp_path, rng):
        # Checkpoints written while the cap and tol were settings store them
        # in their meta's solver section; they cluster as if the two were absent.
        params = init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4, num_clusters=2),
                             seed=0)
        src = write_cloud(two_blob_points(rng, 8)[0], tmp_path / "c.xyz")
        solver = {"epsilon": 0.004, "lambda": 0.25, "num_clusters": 2}
        outputs = []
        for name, stored in (("old", {**solver, "iters": 7, "tol": 1e-4}), ("new", solver)):
            ckpt = tmp_path / f"{name}.otck"
            save_checkpoint(params, ckpt, meta={"solver": stored})
            out = tmp_path / f"{name}.ply"
            assert cli.main(["cluster", str(ckpt), str(src), str(out)]) == 0
            sidecar = json.loads(out.with_suffix(".json").read_text())
            assert (sidecar["epsilon"], sidecar["lambda"]) == (0.004, 0.25)
            outputs.append((out.read_bytes(), sidecar["iterations"]))
        assert outputs[0] == outputs[1]

    def test_a_cluster_without_score_mass_exits_4_before_writing(self, tmp_path, capsys):
        # a head bias of -1e4 makes cluster 1's softmax column exactly 0
        params = init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4, num_clusters=3),
                             seed=0)
        params.tensors["head.b"][1] = -1e4
        ckpt = tmp_path / "p.otck"
        save_checkpoint(params, ckpt)
        src = write_cloud([[0, 0, 0], [1, 1, 1], [2, 0, 1], [1, 2, 0]], tmp_path / "c.xyz")
        before = sorted(tmp_path.iterdir())
        assert cli.main(["cluster", str(ckpt), str(src), str(tmp_path / "x.ply")]) == 4
        assert capsys.readouterr().err == ("numerical abort: cluster 1 has score mass 0 "
                                           "(< 1e-12); its prototypes are undefined\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("stored, cause", [
        ({"epsilon": -1e-3}, "epsilon must be"),
        ({"epsilon": 1e-3, "mu": 1.0}, "'mu'"),
        ([["epsilon", 1e-3]], "not a mapping"),
    ], ids=["negative-epsilon", "unknown-key", "list"])
    def test_bad_stored_solver_exits_5_before_the_cloud_is_read(self, tmp_path, capsys,
                                                                 stored, cause):
        ckpt = tmp_path / "p.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), ckpt,
                        meta={"solver": stored})
        src = tmp_path / "c.xyz"
        src.write_text("0 0 0\n1 1 1\n")
        before = sorted(tmp_path.iterdir())
        for cloud in (src, tmp_path / "nope.xyz"):  # a missing cloud would exit 3
            assert cli.main(["cluster", str(ckpt), str(cloud), str(tmp_path / "x.ply")]) == 5
            err = capsys.readouterr().err
            assert err.startswith(f"checkpoint error: {ckpt}: ") and cause in err, err
            assert sorted(tmp_path.iterdir()) == before

    def test_corrupt_checkpoint_exits_5(self, tmp_path, capsys):
        params = init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                           num_clusters=2), seed=0)
        good = tmp_path / "good.otck"
        save_checkpoint(params, good)
        whole = good.read_bytes()
        # a head without the pooled-feature rows, as a context-off encoder had
        narrow_head = with_tensors(whole, {**params.tensors, "head.w": params.tensors["head.w"][:4]})
        as_float32 = with_tensors(whole, {k: v.astype("<f4") for k, v in params.tensors.items()})
        (tmp_path / "c.xyz").write_text("0 0 0\n1 1 1\n")
        bad = tmp_path / "bad.otck"
        # garbage, a file cut 16 bytes short, one cut inside the fixed header,
        # one whose header length field reads 2**40, one whose tensors are
        # float32, and a well-formed file whose head.w shape does not fit its config
        huge_header = whole[:12] + struct.pack("<Q", 2**40) + whole[20:]
        # and head.b (stored first) at an offset counted back from the end of
        # the data (the same bytes), at mlp0.b's offset, or with bytes left over
        header, data = split_checkpoint(whole)
        mlp0_b = next(e["offset"] for e in header["tensors"] if e["name"] == "mlp0.b")
        from_end = with_offset(whole, "head.b", -len(data))
        overlapping = with_offset(whole, "head.b", mlp0_b)
        errs = []
        for blob in (b"garbage" * 10, whole[:-16], whole[:10], huge_header, as_float32,
                     narrow_head, from_end, overlapping, whole + bytes(8)):
            bad.write_bytes(blob)
            code = cli.main(["cluster", str(bad), str(tmp_path / "c.xyz"),
                             str(tmp_path / "x.ply")])
            assert code == 5
            errs.append(capsys.readouterr().err)
            assert "checkpoint error" in errs[-1]
        assert "not a checkpoint file" in errs[0]
        assert f"tensor data is {len(data) - 16} bytes" in errs[1] and "tensor mlp1.w" in errs[1]
        assert "truncated before the header" in errs[2]
        assert f"truncated inside the {2**40}-byte header" in errs[3]
        assert "tensor head.b: the header has" in errs[4] and "'dtype': '<f4'" in errs[4]
        assert "tensor head.w: the header has" in errs[5]
        assert "'shape': [4, 2]" in errs[5] and "'shape': [8, 2]" in errs[5]
        assert "tensor head.b: the header has" in errs[6] and f"'offset': {-len(data)}," in errs[6]
        assert "tensor head.b: the header has" in errs[7] and f"'offset': {mlp0_b}," in errs[7]
        assert f"tensor data is {len(data) + 8} bytes" in errs[8] and "tensor mlp1.w" in errs[8]

    # Tensor entries in stored order: head.b, head.w, mlp0.b, mlp0.w, mlp1.b, mlp1.w.
    @pytest.mark.parametrize("named, edit, extra_bytes", [
        ("mlp0.b", lambda entries: entries[2].update(name="mlp0.bias"), 0),
        ("head.w", lambda entries: entries[1].update(dtype="<f4"), 0),
        ("mlp0.w", lambda entries: entries[3].update(shape=[4, 3]), 0),
        ("mlp1.b", lambda entries: entries[4].update(offset=entries[4]["offset"] + 8), 0),
        ("mlp1.w", lambda entries: entries[5].update(nbytes=entries[5]["nbytes"] - 8), 0),
        ("head.b", lambda entries: entries.pop(0), 0),
        ("mlp2.b", lambda entries: entries.append(dict(entries[4], name="mlp2.b")), 0),
        ("mlp1.w", lambda entries: None, -8),
        ("mlp1.w", lambda entries: None, 8),
    ], ids=["name", "dtype", "shape", "offset", "nbytes", "drop", "add", "short", "long"])
    def test_tensor_table_corruption_names_the_tensor(self, tmp_path, capsys, named, edit,
                                                      extra_bytes):
        good = tmp_path / "good.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), good)
        header, data = split_checkpoint(good.read_bytes())
        edit(header["tensors"])
        data = data[:len(data) + extra_bytes] + bytes(max(extra_bytes, 0))
        bad = tmp_path / "bad.otck"
        bad.write_bytes(join_checkpoint(good.read_bytes(), header, data))
        (tmp_path / "c.xyz").write_text("0 0 0\n1 1 1\n")
        assert cli.main(["cluster", str(bad), str(tmp_path / "c.xyz"), str(tmp_path / "x.ply")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and f"tensor {named}" in err, err

    def test_points_below_one_is_an_argument_error(self, tmp_path, capsys):
        ckpt = tmp_path / "p.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), ckpt)
        src = tmp_path / "c.xyz"
        src.write_text("0 0 0\n1 1 1\n")
        argv = ["cluster", str(ckpt), str(src), str(tmp_path / "x.ply")]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--points", "0"])
        assert exc.value.code == 2
        assert "--points: must be >= 1, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_clusters_is_an_argument_error(self, tmp_path, capsys):
        # the checkpoint's head fixes the cluster count and its stored solver the
        # other solver settings; there is no option for any of them
        for flag, value in (("--clusters", "8"), ("--epsilon", "2e-3"), ("--lam", "0.5"),
                            ("--lambda", "0.5"), ("--iters", "100")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["cluster", str(tmp_path / "p.otck"), str(tmp_path / "c.xyz"),
                          str(tmp_path / "x.ply"), flag, value])
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_output_must_be_ply(self, tmp_path, capsys):
        # the sidecar is written beside the PLY as <stem>.json
        ckpt = tmp_path / "p.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), ckpt)
        src = tmp_path / "c.xyz"
        src.write_text("0 0 0\n1 1 1\n")
        before = sorted(tmp_path.iterdir())
        for name in ("labels.json", "labels.xyz", "labels"):
            out = tmp_path / name
            assert cli.main(["cluster", str(ckpt), str(src), str(out)]) == 2, name
            assert capsys.readouterr().err.startswith(f"config error: {out}: "), name
            assert sorted(tmp_path.iterdir()) == before, name
        # the output name is checked before the checkpoint is read
        assert cli.main(["cluster", str(tmp_path / "nope.otck"), str(src),
                         str(tmp_path / "labels.json")]) == 2
        assert cli.main(["cluster", str(ckpt), str(src), str(tmp_path / "labels.PLY")]) == 0
        assert load_cloud(tmp_path / "labels.PLY").n_points == 2
        assert json.loads((tmp_path / "labels.json").read_text())["num_points"] == 2

    def test_missing_cloud_exits_3(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        code = cli.main(["cluster", str(out_dir / "checkpoint_final.otck"),
                         str(tmp_path / "nope.xyz"), str(tmp_path / "x.ply")])
        assert code == 3

    def test_malformed_cloud_exits_3_naming_the_line(self, trained_run, tmp_path, capsys):
        out_dir, _ = trained_run
        src = tmp_path / "bad.off"
        src.write_text("OFF\n-2 0 0\n")
        assert cli.main(["cluster", str(out_dir / "checkpoint_final.otck"), str(src),
                         str(tmp_path / "x.ply")]) == 3
        assert "bad.off:2" in capsys.readouterr().err
        assert not (tmp_path / "x.ply").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("suffix", CLOUD_SUFFIXES)
    def test_non_finite_coordinate_exits_3_naming_the_file(self, trained_run, tmp_path, capsys,
                                                            suffix, value):
        out_dir, _ = trained_run
        src = write_cloud([[0, 0, 0], [1, 1, 1], [1, float(value), 1]], tmp_path / f"bad{suffix}")
        assert cli.main(["cluster", str(out_dir / "checkpoint_final.otck"), str(src),
                         str(tmp_path / "x.ply")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: vertex 2 (counting from 0) has a non-finite")
        assert str(src) in err, err


class TestPreparedCloud:
    """`cli._prepared_cloud`, the preparation of `cluster` and `pretrain`."""

    @pytest.mark.parametrize("n, points", [
        (500, 64),    # fewer kept than in the file
        (40, 64),     # more: sampled with replacement
        (64, 64),     # as many: file order kept
        (64, None),   # no --points
    ])
    def test_equals_normalize_then_resample(self, tmp_path, rng, n, points):
        path = write_cloud(rng.normal(size=(n, 3)) * 5 + 3, tmp_path / "a.xyz")
        expected = pc.normalize(load_cloud(path))
        if points is not None and points != n:
            expected = pc.downsample_random(expected, points, 9)
        got = cli._prepared_cloud(path, points, 9)
        assert got.points.tobytes() == expected.points.tobytes()

    def test_coincident_points_go_to_origin(self, tmp_path):
        path = write_cloud(np.full((100, 3), 2.5), tmp_path / "a.xyz")
        got = cli._prepared_cloud(path, 32, 0)
        assert got.points.tobytes() == np.zeros((32, 3)).tobytes()

    def test_scratch_is_below_the_cloud_size(self, rng, monkeypatch):
        # normalizing every point before resampling peaked at about 2.7x the cloud's bytes
        whole = PointCloud(rng.normal(size=(200_000, 3)))
        monkeypatch.setattr(pc, "load_cloud", lambda path: whole)
        tracemalloc.start()
        try:
            cli._prepared_cloud("in-memory", 2048, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * whole.points.nbytes


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, prefix", [
        (ConfigError("bad value"), 2, "config error"),
        (NumericalError("plan not finite"), 4, "numerical abort"),
        (CheckpointError("damaged header"), 5, "checkpoint error"),
        (ParseError("bad row", "a.off", 3), 3, "data error"),
        (ShapeError("wrong width"), 3, "data error"),
        (IsADirectoryError(21, "Is a directory", "some/dir"), 3, "data error"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_each_failure_kind_maps_to_its_code(self, monkeypatch, capsys, exc, code, prefix):
        def failing_command(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_verify", failing_command)
        assert cli.main(["verify"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_an_array_too_large_to_allocate_exits_3(self, tmp_path, monkeypatch, capsys):
        # numpy raises MemoryError for a huge --points; the stand-in raises it
        # without a real allocation. A bare MemoryError still names a cause.
        ckpt = tmp_path / "p.otck"
        save_checkpoint(init_params(EncoderConfig(hidden_sizes=(4,), feature_dim=4,
                                                  num_clusters=2), seed=0), ckpt)
        src = write_cloud([[0, 0, 0], [1, 1, 1], [2, 0, 1]], tmp_path / "c.xyz")
        argv = ["cluster", str(ckpt), str(src), str(tmp_path / "x.ply"),
                "--points", "10000000000000"]
        for exc, message in ((MemoryError("Unable to allocate 72.8 TiB"),
                              "Unable to allocate 72.8 TiB"), (MemoryError(), "MemoryError")):
            def downsample(*args, exc=exc):
                raise exc
            monkeypatch.setattr(pc, "downsample_random", downsample)
            assert cli.main(argv) == 3
            assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "x.ply").exists()

    def test_unusable_paths_exit_with_their_code(self, blob_dataset, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        cloud = tmp_path / "c.xyz"
        cloud.write_text("0 0 0\n1 1 1\n")
        metrics = tmp_path / "m" / "metrics.jsonl"
        final = tmp_path / "f" / "checkpoint_final.otck"
        for blocked in (metrics, final):
            blocked.mkdir(parents=True)

        def pretrain(config, out_dir):
            return ["pretrain", str(config), str(blob_dataset), str(out_dir)]

        for argv, code, path in (
                (pretrain(config, a_file), 3, a_file),
                (pretrain(a_dir, tmp_path / "o"), 2, a_dir),
                (["cluster", str(a_dir), str(cloud), str(tmp_path / "x.ply")], 3, a_dir),
                (pretrain(config, metrics.parent), 3, metrics),
                (pretrain(config, final.parent), 3, final)):
            assert cli.main(argv) == code, argv
            err = capsys.readouterr().err
            assert err.startswith({2: "config error: ", 3: "data error: "}[code]), err
            assert str(path) in err, err
        assert not (final.parent / "checkpoint_final.otck.tmp").exists()


class TestCommands:
    def test_docs_name_the_registered_commands(self):
        # the module docstring's "Commands:" block and README's CLI code block
        parser = cli.build_parser()
        registered = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        block = cli.__doc__.split("Commands:\n", 1)[1].split("\n\n", 1)[0]
        documented = [line.split()[0] for line in block.splitlines()]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        in_readme = [line.split()[1] for line in code.splitlines() if line.startswith("otclu ")]
        assert documented == list(registered) == in_readme

    def test_library_tour_calls_match_signatures(self):
        # Each `name(arg, ...)` in README's "Library tour" names a function of
        # its row's module, with arguments leading its signature; a stale
        # signature, such as backward's before it dropped its feature
        # gradient factor, is caught.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        count, wrong = tour_mismatches(readme)
        assert count >= 8 and wrong == []
        stale = readme.replace("`backward(trace, params, d_logits)`",
                               "`backward(trace, params, d_features_per_score)`")
        assert stale != readme
        assert len(tour_mismatches(stale)[1]) == 1

    def test_export_is_an_argument_error(self, tmp_path, capsys):
        # converting cloud files is not a command; `cluster` writes the one output format
        (tmp_path / "a.xyz").write_text("0 0 0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["export", str(tmp_path / "a.xyz"), str(tmp_path / "b.ply")])
        assert exc.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err
        assert not (tmp_path / "b.ply").exists()


class TestVerifyCommand:
    def test_table_and_exit_codes(self, monkeypatch, capsys):
        fake = [CheckResult("alpha", True, "fine", 0.01),
                CheckResult("beta", True, "also fine", 0.02)]
        monkeypatch.setattr(verify, "run_checks", lambda: fake)
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS  alpha" in out and "2/2" in out

        fake[1] = CheckResult("beta", False, "broken", 0.02)
        assert cli.main(["verify"]) == 1
        assert "FAIL  beta" in capsys.readouterr().out

        # each check has one size; there is no level to choose
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--level", "full"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --level full" in capsys.readouterr().err

    def test_sign_flipped_solver_fails_lp_check(self, monkeypatch):
        # A corrupted build that exponentiates +cost/epsilon must be caught
        # by the LP comparison.
        from otclu.clustering import TransportPlan

        def flipped(cost, epsilon=1e-3, iters=1000, tol=1e-6):
            d = np.asarray(cost, dtype=float)
            gamma = np.exp((d / epsilon) - (d / epsilon).max())
            gamma /= gamma.sum()
            n, m = gamma.shape
            for _ in range(200):
                gamma *= (1.0 / n) / gamma.sum(axis=1, keepdims=True)
                gamma *= (1.0 / m) / gamma.sum(axis=0, keepdims=True)
            return TransportPlan(matrix=gamma, iterations=200, potential=np.zeros(m))

        monkeypatch.setattr(verify, "sinkhorn", flipped)
        lp = next(check for check in verify.CHECKS if check.name == "sinkhorn-vs-lp")
        assert not verify.run_check(lp).passed
