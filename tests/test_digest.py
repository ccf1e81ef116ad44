"""The bit-identity digest that performance changes compare with their parent's, and reruns under two thread counts."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import digest
import reruns

# tests/digest.py's value, the same under any BLAS thread count; a change that alters any trajectory or draw
# updates it and says so
PINNED = "77d2fa17b4279bd1e1ae1413023e2c6c3a191b93dc5ab8e921da2040bd2e8937"


def python_under(threads: int, script: str) -> str:
    # a fresh interpreter, so the thread count is set before OpenBLAS loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    out = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_one_thread_digest_is_pinned():
    assert python_under(1, digest.__file__).strip() == PINNED


def test_two_thread_digest_is_pinned():
    assert python_under(2, digest.__file__).strip() == PINNED


def test_reruns_do_not_depend_on_the_thread_count():
    # one line per run: its name and the hash of its output; tests/reruns.py says which sums each run covers
    one, two = (python_under(threads, reruns.__file__).splitlines() for threads in (1, 2))
    assert len(one) == 18
    assert one == two


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
