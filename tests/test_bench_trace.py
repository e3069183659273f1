"""The benchmark's traced runs must still see every layer they time.

`bench/worker.py` raises MissingLayer (and exits non-zero) when a layer
function it wraps is renamed or bypassed, so a refactor that routes around
`compute_cost`, `sinkhorn`, `load_checkpoint` or another traced name fails
here. The cluster-files run also exercises `otclu cluster` end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pretrain-small", "cluster-files"])
def test_traced_run_fires_every_layer(tmp_path, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", "0", "--units", "1",
         "--trace", "1", "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["attempted"] > 0
    assert record["failed"] == 0, record
