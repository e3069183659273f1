"""One benchmark workload in one process: set up, run a closed loop, check outputs.

`run.py` starts this script once per workload so that peak memory and
set-up time belong to that workload alone:

    python3 bench/worker.py --root ROOT --workload NAME --seed N \
        --units K --trace 0|1 --result PATH

It imports the library from ROOT/src, builds its inputs from the seed only,
drives the library through its public entry points (`otclu.trainer.pretrain`
and `otclu.cli.main`) with one caller and no think time, checks every
output, and writes raw counts and samples to PATH as JSON. The work is fixed:
K whole `pretrain` calls, or K timed passes over the cluster input files
after one untimed warm-up pass. So the same seed and K always give the same
operations, and the same counts of attempted and failed ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

PRETRAIN_LAYERS = (
    "encoder.forward", "encoder.backward", "clustering.compute_cost",
    "clustering.compute_prototypes", "clustering.assign_soft_labels",
    "clustering.prototypes_backward", "clustering.sinkhorn", "losses.total_loss",
    "trainer.e_step", "trainer.m_step", "trainer.pretrain",
)
CLUSTER_LAYERS = (
    "cloud.load_cloud", "cloud.normalize", "cloud.downsample_random",
    "cloud.export_labeled_ply", "encoder.forward", "encoder.load_checkpoint",
    "clustering.compute_cost", "clustering.compute_prototypes",
    "clustering.assign_soft_labels", "clustering.sinkhorn", "trainer.e_step", "cli.main",
)

CLUSTER_POINTS = 2048
# (points, format) in a Latin-square order: every run of three consecutive
# requests covers each size and each format once.
CLUSTER_FILES = [(20_000, "off"), (50_000, "ply"), (100_000, "xyz"),
                 (50_000, "off"), (100_000, "ply"), (20_000, "xyz"),
                 (100_000, "off"), (20_000, "ply"), (50_000, "xyz")]


def _small_config():
    from otclu.clustering import SolverConfig
    from otclu.encoder import EncoderConfig
    from otclu.trainer import TrainConfig
    return TrainConfig(epochs=20, batch_size=8,
                       solver=SolverConfig(num_clusters=8, epsilon=2e-3),
                       encoder=EncoderConfig(hidden_sizes=(32,), feature_dim=32,
                                             num_clusters=8))


def _paper_config():
    from otclu.trainer import TrainConfig
    return TrainConfig()


@dataclass
class Tally:
    """Counts and samples from the timed loop of one workload."""

    attempted: int = 0      # operations due: epochs of every pretrain call, or requests
    failed: int = 0         # attempted operations that did not complete with a correct output
    wrong: int = 0          # failed operations that did complete but with a wrong output
    started: int = 0        # operations that began running
    clouds: int = 0         # clouds processed by completed operations
    busy_s: float = 0.0     # wall time of completed operations, warm-up excluded
    wall_s: float = 0.0     # wall time inside the library's entry point, all operations
    op_ms: list = field(default_factory=list)   # per completed timed operation, ms per cloud
    residual_max: float = 0.0
    errors: dict = field(default_factory=dict)     # failure reason -> count

    def complete(self, seconds: float, clouds: int, residual: float) -> None:
        self.op_ms.append(1e3 * seconds / clouds)
        self.busy_s += seconds
        self.clouds += clouds
        self.residual_max = max(self.residual_max, residual)

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.errors[reason] = self.errors.get(reason, 0) + 1


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# -- pretrain ---------------------------------------------------------------

def setup_pretrain(spec, seed, work):
    from otclu import cloud
    import inputs
    raw = [inputs.primitive_cloud(seed, i, spec["points"]) for i in range(spec["clouds"])]
    clouds = [cloud.normalize(cloud.PointCloud(points)) for points in raw]
    return clouds, {"inputs_sha256": _sha256(p.tobytes() for p in raw)}


def run_pretrain(spec, clouds, units, tracer) -> Tally:
    """`units` whole `pretrain` calls back to back on the same clouds.

    An operation is one epoch. A call always runs to its end, so a call
    that aborts with NumericalError is seen and fails every epoch it did
    not reach. Every call must repeat the first one's epoch metrics and
    outcome bit for bit; an epoch of a call that does not fails as wrong.
    """
    from otclu import trainer
    from otclu.errors import NumericalError
    config = spec["config"]()
    tally = Tally()
    reference = None
    for _ in range(units):
        epochs = []     # (seconds, l_total, residual) of each epoch reached
        mark = time.perf_counter()

        def on_epoch(metrics):
            nonlocal mark
            epochs.append((time.perf_counter() - mark, metrics["l_total"],
                           metrics["max_marginal_residual"]))
            if tracer is not None:
                tracer.op += 1
            mark = time.perf_counter()

        start = time.perf_counter()
        tally.attempted += config.epochs
        abort = None
        try:
            trainer.pretrain(clouds, config, on_epoch=on_epoch)
        except NumericalError as exc:
            abort = f"NumericalError: {exc}"
            if tracer is not None:
                tracer.op += 1
        tally.wall_s += time.perf_counter() - start
        tally.started += len(epochs) + (abort is not None)

        outcome = ([e[1:] for e in epochs], abort)
        reference = reference or outcome
        repeat_ok = outcome == reference
        for elapsed, l_total, residual in epochs:
            if not repeat_ok:
                tally.fail("repeat pretrain call diverged from the first call", wrong=True)
            elif math.isfinite(l_total) and math.isfinite(residual):
                tally.complete(elapsed, len(clouds), residual)
            else:
                tally.fail(f"non-finite epoch metrics: l_total={l_total} "
                           f"residual={residual}", wrong=True)
        for _ in range(config.epochs - len(epochs)):
            tally.fail(abort, wrong=False)
    return tally


# -- cluster ----------------------------------------------------------------

def setup_cluster(spec, seed, work):
    from otclu import encoder
    import inputs
    data = work / "inputs"
    data.mkdir(parents=True, exist_ok=True)
    files, blobs = [], []
    for i, (points, fmt) in enumerate(CLUSTER_FILES):
        blob = inputs.cloud_text(inputs.primitive_cloud(seed, i, points), fmt)
        path = data / f"cloud{i}_{points}.{fmt}"
        path.write_bytes(blob)
        files.append(path)
        blobs.append(blob)
    checkpoint = data / "init.otck"
    encoder.save_checkpoint(encoder.init_params(encoder.EncoderConfig(), seed), checkpoint)
    return (files, checkpoint), {"inputs_sha256": _sha256(blobs),
                                 "checkpoint_sha256": _sha256([checkpoint.read_bytes()])}


def _check_cluster(ply: Path, first: dict, key: int, reload):
    """Return (problem or None, marginal residual) for one written response."""
    try:
        body = ply.read_bytes()
        sidecar = json.loads(ply.with_suffix(".json").read_text())
    except (OSError, ValueError) as exc:
        return f"response not readable: {exc}", None
    n = reload(ply).n_points
    if n != CLUSTER_POINTS:
        return f"PLY re-loads with {n} vertices, expected {CLUSTER_POINTS}", None
    counts = sum(sidecar["cluster_counts"])
    if counts != CLUSTER_POINTS:
        return f"sidecar cluster_counts sum to {counts}, expected {CLUSTER_POINTS}", None
    residual = sidecar["marginal_residual"]
    if not math.isfinite(residual):
        return f"sidecar marginal_residual is {residual}", None
    digest = _sha256([body])
    if first.setdefault(key, digest) != digest:
        return "repeat request wrote a PLY that differs from the first response", None
    return None, residual


def run_cluster(spec, state, units, tracer) -> Tally:
    """`otclu cluster` requests in process: passes over every input file.

    An operation is one request; its output is checked after the clock stops.
    The first pass is a warm-up: it is checked and counted, and it gives each
    file's reference response, but its times are not kept. Then `units`
    timed passes follow, each a repeat of the first.
    """
    from otclu import cli
    from otclu.cloud import load_cloud
    reload = getattr(load_cloud, "__wrapped__", load_cloud)  # checks stay untraced
    files, checkpoint = state
    out = checkpoint.parent.parent / "out"
    out.mkdir(exist_ok=True)
    first: dict = {}
    tally = Tally()
    for i in range((units + 1) * len(files)):
        key = i % len(files)
        ply = out / f"labeled{key}.ply"
        ply.unlink(missing_ok=True)
        ply.with_suffix(".json").unlink(missing_ok=True)
        argv = ["cluster", str(checkpoint), str(files[key]), str(ply),
                "--points", str(CLUSTER_POINTS)]
        stderr = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        warm_up = i < len(files)
        tally.wall_s += elapsed
        tally.attempted += 1
        tally.started += 1
        if tracer is not None:
            tracer.op += 1
        if code != 0:
            tally.fail(f"exit {code}: {stderr.getvalue().strip()}", wrong=False)
            continue
        problem, residual = _check_cluster(ply, first, key, reload)
        if problem:
            tally.fail(problem, wrong=True)
        elif warm_up:
            tally.residual_max = max(tally.residual_max, residual)
        else:
            tally.complete(elapsed, 1, residual)
    return tally


# -- process ----------------------------------------------------------------

WORKLOADS = {
    "pretrain-paper": {"points": 2048, "clouds": 8, "config": _paper_config,
                       "setup": setup_pretrain, "setup_repeats": 5, "run": run_pretrain,
                       "layers": PRETRAIN_LAYERS},
    "pretrain-small": {"points": 256, "clouds": 32, "config": _small_config,
                       "setup": setup_pretrain, "setup_repeats": 5, "run": run_pretrain,
                       "layers": PRETRAIN_LAYERS},
    "cluster-files": {"setup": setup_cluster, "setup_repeats": 3, "run": run_cluster,
                      "layers": CLUSTER_LAYERS},
}


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = {k: v for k, v in os.environ.items()
                   if "THREADS" in k or k in ("GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_thread_env": thread_vars}


def _import_library(root: Path) -> None:
    """Import otclu from ROOT/src, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import otclu.cli  # noqa: F401  (pulls in every layer)
    if Path(otclu.__file__).resolve().parent != src / "otclu":
        raise SystemExit(f"imported otclu from {otclu.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True,
                        help="pretrain calls, or timed passes over the cluster files")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    _import_library(args.root)
    spec = WORKLOADS[args.workload]
    work = args.result.with_suffix(".work")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, records = [], []
        for _ in range(spec["setup_repeats"]):
            start = time.perf_counter()
            state, record = spec["setup"](spec, args.seed, work)
            setup_s.append(time.perf_counter() - start)
            records.append(record)
        if any(r != records[0] for r in records):
            raise SystemExit(f"set-up is not reproducible for seed {args.seed}: {records}")

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            tally = spec["run"](spec, state, args.units, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": args.workload, "seed": args.seed, "units": args.units,
              "trace": args.trace, "setup_s": setup_s,
              **records[0], "env": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              **asdict(tally)}
    if tracer is not None:
        tracer.check_fired(spec["layers"])
        result.update(layers=tracer.summary(), load_bytes=tracer.load_bytes,
                      spread_over_eps_max=tracer.spread_over_eps_max)
        if args.spans is not None:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
