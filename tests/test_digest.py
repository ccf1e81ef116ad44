"""The bit-identity digest that performance changes compare against their parent's."""

import re

import digest


def test_digest_runs_and_is_a_sha256():
    assert re.fullmatch(r"[0-9a-f]{64}", digest.digest())
