"""The bit-identity digest that performance changes compare against their parent's."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import digest

# tests/digest.py under one BLAS thread; a change that alters any trajectory or draw updates it and says so
PINNED_ONE_THREAD = "e9c024c1fd436b7ca490006b2f28f28827c7e0d29f622856f47a012bb234b375"


def test_one_thread_digest_is_pinned():
    # a fresh interpreter, so the thread count is set before OpenBLAS loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    out = subprocess.run(
        [sys.executable, digest.__file__], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == PINNED_ONE_THREAD


def test_planted_runs_parse_readmes_run_example():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = readme.split("```\nlozo-bench run ", 1)[1].split("\n\n", 1)[0]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[: argv.index("--out")] == digest.README_RUN
