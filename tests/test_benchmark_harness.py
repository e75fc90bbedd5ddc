"""The benchmark harness still measures every layer it names.

perfbench wraps library functions by name to time each layer; when a wrapped
name disappears, its metrics silently read null. The harness's own smoke
test catches that, so it runs here as part of the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
