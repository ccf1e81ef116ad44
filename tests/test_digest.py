"""The bit-identity digest that performance changes compare against their parent's."""

import re
import shlex
from pathlib import Path

import digest


def test_digest_runs_and_is_a_sha256():
    assert re.fullmatch(r"[0-9a-f]{64}", digest.digest())


def test_planted_runs_parse_readmes_run_example():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = readme.split("```\nlozo-bench run ", 1)[1].split("\n\n", 1)[0]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[: argv.index("--out")] == digest.README_RUN
