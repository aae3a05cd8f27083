"""The benchmark's traced run wraps every name that ``perfbench.spans``
lists; a rename or a move in the package that leaves one of them
unresolved fails here instead of in the traced run."""

import importlib
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not (ROOT / "perfbench" / "spans.py").is_file(), reason="perfbench/ is absent"
)


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_recorder_wraps_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans

    originals = [resolve(module_name, attr) for module_name, attr, _ in spans.TRACED]
    eig = np.linalg.eig
    recorder = spans.Recorder()
    recorder.install()
    try:
        for (module_name, attr, name), original in zip(spans.TRACED, originals):
            traced = resolve(module_name, attr)
            assert traced is not original and traced.__wrapped__ is original, name
    finally:
        recorder.uninstall()
    assert [resolve(module_name, attr) for module_name, attr, _ in spans.TRACED] == originals
    assert np.linalg.eig is eig
