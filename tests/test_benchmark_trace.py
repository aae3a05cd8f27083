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


def test_traced_attributes_read_real_results(monkeypatch):
    # The per-call counts of the traced run read attributes of each traced
    # function's result; a change to what a function returns fails here.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans

    from filtered_rf import EmitterParams, GaussianIRF, filtered_g2, qmath

    em = EmitterParams(gamma=1.0, rabi=0.5)
    taus = np.linspace(0.0, 10.0, 101)
    eig = qmath.Propagator(np.diag([-1.0, -2.0j, 0.0]))
    expm = qmath.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert (eig.method, expm.method) == ("eig", "expm")
    inputs = {
        "qmath.Propagator.apply_grid": [(eig, np.ones(3), taus), (expm, np.ones(2), taus[:7])],
        "instrument.irf_convolve": [(filtered_g2(em, 1.0, taus=taus), GaussianIRF(1.0))],
        "filtercorr.eta_convergence": [(em, 1.0)],
    }
    assert set(inputs) == set(spans.ATTRS)
    called = set()
    for module_name, attr, name in spans.TRACED:
        for args in inputs.get(name, ()):
            called.add(name)
            result = resolve(module_name, attr)(*args)
            attrs = spans.ATTRS[name](args, {}, result)
            assert attrs and all(type(value) is int for value in attrs.values()), name
            if name == "qmath.Propagator.apply_grid":
                prop, _, grid = args
                dim = len(prop.matrix)
                assert attrs == {"taus": grid.size, "bytes_computed": 16 * dim * grid.size}
    assert called == set(spans.ATTRS)
