"""The benchmark's traced run must still see every layer it times.

`bench/worker.py` raises MissingLayer (and exits non-zero) when a layer
function it wraps is renamed or bypassed, so a refactor that routes around
`compute_cost`, `sinkhorn` or another traced name fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pretrain_fires_every_layer(tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--root", str(ROOT),
         "--workload", "pretrain-small", "--seed", "0", "--units", "1",
         "--trace", "1", "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert result.exists()
