import sys
from pathlib import Path

import pytest

# make the shared test oracles importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).parent))

from lozo.problems import LossOracle  # noqa: E402


@pytest.fixture
def evaluate_calls(monkeypatch) -> list:
    """A list that grows by one sample index at each LossOracle.evaluate call the test makes."""
    calls, evaluate = [], LossOracle.evaluate

    def counted(self, x, xi):
        calls.append(xi)
        return evaluate(self, x, xi)

    monkeypatch.setattr(LossOracle, "evaluate", counted)
    return calls
