import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


@pytest.fixture(scope="session", autouse=True)
def pinned_environment():
    from perfbench import run

    run.pin_environment()
