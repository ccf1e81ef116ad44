"""The benchmark in perfbench/ still runs against this package.

perfbench/selftest.py runs every workload at tiny sizes in both trace modes.
It calls lozo through the public names the benchmark depends on and patches
the sampling and projection calls through the optimizers module's globals,
so a renamed function or a moved call fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
