"""The bit-identity digest that performance changes compare against their parent's."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import digest

# tests/digest.py under one and under two BLAS threads; a change that alters any trajectory or draw updates
# both and says so. Whole-layer np.vdot calls split across threads, which is why the two differ.
PINNED_ONE_THREAD = "e9c024c1fd436b7ca490006b2f28f28827c7e0d29f622856f47a012bb234b375"
PINNED_TWO_THREADS = "809195ae643825f4223ed70193589d625ca619e57a595b86fe05dfc9b8e6f61b"


def digest_under(threads: int) -> str:
    # a fresh interpreter, so the thread count is set before OpenBLAS loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    out = subprocess.run(
        [sys.executable, digest.__file__], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_one_thread_digest_is_pinned():
    assert digest_under(1) == PINNED_ONE_THREAD


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
def test_two_thread_digest_is_pinned():
    assert digest_under(2) == PINNED_TWO_THREADS


def test_parts_name_every_block_the_digest_hashes():
    problems = [f"problem:{name}" for name in ("mlp", "quadratic", "planted", "quadratic-256")]
    cli = [f"cli:{p}-{a}" for p in ("planted", "mlp", "quadratic") for a in ("zo-sgd", "lozo", "lozo-m")]
    parts = digest.parts()
    assert list(parts) == [*problems, *cli, "compare"]
    assert len(set(parts.values())) == len(parts)


def test_planted_runs_parse_readmes_run_example():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = readme.split("```\nlozo-bench run ", 1)[1].split("\n\n", 1)[0]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[: argv.index("--out")] == digest.README_RUN
