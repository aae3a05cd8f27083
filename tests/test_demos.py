"""Smoke test of the narrative scripts in demos/: each runs and writes its CSV."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import filtered_rf

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(filtered_rf.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, csv",
    [
        ("demo_bunching_sweep.py", "demo_bunching_vs_width.csv"),
        ("demo_component_fractions.py", "demo_fractions_vs_drive.csv"),
        ("demo_filter_width_sweep.py", "demo_filter_width_sweep.csv"),
        ("demo_mollow_spectrum.py", "demo_mollow_spectrum_rabi2.0.csv"),
        ("demo_time_broadening.py", "demo_time_broadening.csv"),
    ],
)
def test_demo_runs(tmp_path, demo, csv):
    # The demos write their CSVs next to themselves, so each runs from a copy.
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / csv).is_file()
