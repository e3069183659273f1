"""Command-line front end.

Commands:
  pretrain  <config.json> <data-dir> <out-dir>   full EM training run
  cluster   <checkpoint> <cloud> <out.ply>       one-shot soft clustering
  verify                                         run the self-check suite

`cluster` solves with the settings `pretrain` stores in each checkpoint's
meta as "solver", less the "iters" and "tol" that older checkpoints store
there; a checkpoint without them gets the SolverConfig defaults.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 data error, 4 numerical abort, 5 checkpoint error.

Commands only raise. `main` maps each failure to its code through
`EXIT_CODES`, the one table of that policy, and prints "<prefix>: <cause>":
a ConfigError, an unreadable config file included, exits 2; a
NumericalError 4; a CheckpointError 5; any other package error, an
OSError from a file or directory that cannot be read or written (the
message names the path), or a MemoryError from an array too large to
allocate (a huge `--points` or config size), exits 3. A bad command-line
argument exits 2 from argparse.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import cloud as pc
from . import encoder as enc
from .clustering import SolverConfig
from .errors import CheckpointError, ConfigError, NumericalError, OtcluError, check_int
from .trainer import TrainConfig, e_step, pretrain

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5

# (exception kinds, exit code, message prefix); the first matching row wins.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (NumericalError, EXIT_NUMERICAL, "numerical abort"),
    (CheckpointError, EXIT_MISMATCH, "checkpoint error"),
    ((OtcluError, OSError, MemoryError), EXIT_DATA, "data error"),
)

_DATA_DEFAULTS = {"num_points": 2048}


def load_config(path) -> tuple[TrainConfig, dict]:
    """Parse the JSON run config; returns (TrainConfig, data section).

    The accepted sections and keys are those `resolved_config_dict` writes
    for the defaults; any other is rejected so a typo cannot silently fall
    back to a default. The cluster count lives in the solver section and
    also sizes the encoder head; `encoder.num_clusters`, as the manifest
    writes it, is accepted when it equals `solver.num_clusters`. Any
    failure, reading the file included, raises ConfigError.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    accepted = resolved_config_dict(TrainConfig(), _DATA_DEFAULTS)
    for section, keys in raw.items():
        if section not in accepted:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = set(keys) - set(accepted[section])
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")

    train = dict(raw.get("train", {}))
    encoder_keys = dict(raw.get("encoder", {}))
    data = {**_DATA_DEFAULTS, **raw.get("data", {})}
    check_int("data.num_points", data["num_points"], 1)

    try:
        solver = solver_config(raw.get("solver", {}))
        encoder_cfg = enc.EncoderConfig(**{"num_clusters": solver.num_clusters, **encoder_keys})
        config = TrainConfig(solver=solver, encoder=encoder_cfg, **train)
    except (ValueError, TypeError) as exc:  # a value of the wrong type fails a comparison
        raise ConfigError(str(exc)) from None
    return config, data


def solver_config(section) -> SolverConfig:
    """The SolverConfig of a solver section as `resolved_config_dict` writes
    it, which names `lam` "lambda". The `iters` and `tol` of checkpoints
    from when these were settings are ignored; `load_config` refuses them."""
    keys = {key: value for key, value in dict(section).items() if key not in ("iters", "tol")}
    if "lambda" in keys:
        keys["lam"] = keys.pop("lambda")
    return SolverConfig(**keys)


def resolved_config_dict(config: TrainConfig, data: dict) -> dict:
    """Every setting materialized, defaults included."""
    train = dataclasses.asdict(config)
    solver = train.pop("solver")
    solver["lambda"] = solver.pop("lam")
    encoder_cfg = train.pop("encoder")
    encoder_cfg["hidden_sizes"] = list(encoder_cfg["hidden_sizes"])
    return {"train": train, "solver": solver, "encoder": encoder_cfg, "data": dict(data)}


def config_hash(resolved: dict) -> str:
    import hashlib  # only `pretrain` hashes; `cluster` and `verify` start without OpenSSL

    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def environment() -> dict:
    """numpy's version and the name and version of the BLAS it was built
    with, as `np.show_config(mode="dicts")` reports them, "unknown" where
    it does not: with the CPU, they decide a run's bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def _prepared_cloud(path, points: int | None, seed: int) -> pc.PointCloud:
    """Load a cloud, resample it with `seed` to `points` points unless it
    already has that many, and normalize the kept points with the center and
    scale of the whole file.

    The result equals normalizing the whole file, then resampling it, bit for
    bit; only the kept points are transformed.
    """
    cloud = pc.load_cloud(path)
    kept = cloud
    if points is not None and points != cloud.n_points:
        kept = pc.downsample_random(cloud, points, seed)
    return pc.normalize(kept, stats_from=cloud)


def cmd_pretrain(args) -> int:
    config, data = load_config(args.config)

    data_dir = Path(args.data_dir)
    files = sorted(p for p in data_dir.iterdir()
                   if p.suffix.lower() in pc.CLOUD_SUFFIXES and p.is_file())
    if not files:
        patterns = ", ".join(f"*{suffix}" for suffix in pc.CLOUD_SUFFIXES)
        raise FileNotFoundError(f"found 0 cloud files ({patterns}) in {data_dir}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clouds = [_prepared_cloud(path, data["num_points"], config.seed * 100003 + i)
              for i, path in enumerate(files)]

    resolved = resolved_config_dict(config, data)
    digest = config_hash(resolved)
    manifest = {
        "tool_version": __version__,
        "config": resolved,
        "config_hash": digest,
        "seed": config.seed,
        "inputs": [str(p) for p in files],
        "environment": environment(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "finished_at": None,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "w") as metrics_fh:
        def on_epoch(metrics):
            metrics_fh.write(json.dumps(metrics) + "\n")
            metrics_fh.flush()
            print(f"epoch {metrics['epoch']:4d}  l_total {metrics['l_total']:.6f}  "
                  f"l_soft {metrics['l_soft']:.6f}  l_orth {metrics['l_orth']:.6f}  "
                  f"lr {metrics['lr']:.6g}")

        state = pretrain(clouds, config, on_epoch=on_epoch)

    enc.save_checkpoint(state.params, out_dir / "checkpoint_final.otck",
                        meta={"config_hash": digest, "solver": resolved["solver"],
                              "epoch": state.epoch, "step": state.step})
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"done: checkpoint and metrics in {out_dir}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    out_ply = Path(args.out_ply)
    if out_ply.suffix.lower() != ".ply":  # the sidecar takes the same name with .json
        raise ConfigError(f"{out_ply}: the labeled output must be a .ply file")
    params, meta = enc.load_checkpoint(args.checkpoint)
    head_width = params.config.num_clusters
    try:
        solver = solver_config({**meta.get("solver", {}), "num_clusters": head_width})
    except (ValueError, TypeError) as exc:  # a non-object section fails the unpacking
        raise CheckpointError(f"{args.checkpoint}: stored solver settings: {exc}") from None

    cloud = _prepared_cloud(args.cloud, args.points, args.seed)
    result = e_step(params, cloud, solver)

    labels = result.gamma.argmax(axis=1)
    pc.export_labeled_ply(cloud, labels, out_ply, pc.default_palette(head_width))

    counts = np.bincount(labels, minlength=head_width)
    sidecar = {
        "num_points": cloud.n_points,
        "num_clusters": head_width,
        "epsilon": solver.epsilon,
        "lambda": solver.lam,
        "cluster_counts": counts.tolist(),
        "mean_confidence": float(result.gamma.max(axis=1).mean()),
        "marginal_residual": result.marginal_residual,
        "iterations": result.iterations,
        "checkpoint_meta": meta,
        "environment": environment(),
    }
    sidecar_path = out_ply.with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {out_ply} and {sidecar_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks  # the check registry and its oracles load only here
    results = run_checks()
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.seconds:6.2f}s  {r.detail}")
        all_ok = all_ok and r.passed
    print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otclu",
        description="Unsupervised point-cloud feature learning via balanced "
                    "optimal-transport soft clustering.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the EM training loop on a directory of clouds")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("data_dir", help=f"directory of {'/'.join(pc.CLOUD_SUFFIXES)} files")
    p.add_argument("out_dir", help="output directory")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("cluster", help="soft-cluster one cloud with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("cloud")
    p.add_argument("out_ply")
    p.add_argument("--points", type=int_at_least(1), default=None,
                   help="downsample to this many points")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("verify", help="run the oracle-backed self-check suite")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OtcluError, OSError, MemoryError) as exc:
        code, prefix = next((code, prefix) for kinds, code, prefix in EXIT_CODES
                            if isinstance(exc, kinds))
        print(f"{prefix}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
