import json
import os
import subprocess
import sys

import numpy as np
import pytest

import filtered_rf
from filtered_rf.cli import main


def run(tmp_path, *argv, name="out.csv"):
    path = tmp_path / name
    code = main([*argv, "-o", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestG2Trace:
    def test_basic_trace(self, tmp_path):
        code, text = run(
            tmp_path, "g2-trace", "--filter-width", "0.29", "--n-tau", "201"
        )
        assert code == 0
        header, rows = data_rows(text)
        assert header == ["tau_ps", "g2"]
        assert len(rows) == 201
        assert float(rows[0][0]) == 0.0
        assert 0.7 < float(rows[0][1]) < 0.9

    def test_irf_and_band_columns(self, tmp_path):
        code, text = run(
            tmp_path,
            "g2-trace",
            "--filter-width",
            "0.29",
            "--beta-lo",
            "0.0",
            "--beta-hi",
            "0.2",
            "--irf",
            "--rabi",
            "2.0",
            "--n-tau",
            "2001",
        )
        assert code == 0
        header, rows = data_rows(text)
        assert header == ["tau_ps", "g2", "g2_irf", "g2_lo", "g2_hi"]
        first = dict(zip(header, map(float, rows[0])))
        assert first["g2_hi"] > first["g2_lo"]  # background strengthens bunching

    def test_units_header_present(self, tmp_path):
        code, text = run(tmp_path, "g2-trace", "--preset", "etalon", "--n-tau", "101")
        assert code == 0
        assert any(line.startswith("# units: tau_ps=ps") for line in text.splitlines())


class TestG2Sweep:
    def test_weak_drive_dataset(self, tmp_path):
        code, text = run(
            tmp_path,
            "g2-sweep",
            "--axis",
            "filter-width",
            "--values",
            "150,0.29,0.01",
        )
        assert code == 0
        header, rows = data_rows(text)
        assert header[0] == "filter_width_over_gamma"
        values = [float(r[1]) for r in rows]
        assert values[0] < 0.02 and 0.9 < values[2] < 1.1

    def test_single_point_matches_trace(self, tmp_path):
        code, text = run(tmp_path, "g2-sweep", "--axis", "filter-width", "--values", "0.29")
        _, rows = data_rows(text)
        code2, text2 = run(
            tmp_path, "g2-trace", "--filter-width", "0.29", "--n-tau", "101", name="t.csv"
        )
        _, trace_rows = data_rows(text2)
        assert float(rows[0][1]) == pytest.approx(float(trace_rows[0][1]), abs=1e-9)

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        # one sabotaged point must produce an error record and exit 2 while
        # the good point still computes
        import filtered_rf.cli as cli
        from filtered_rf.filtercorr import sweep_point as real_sweep_point

        def flaky(emitter, axis, x, *rest):
            if x == pytest.approx(2.0 * emitter.gamma):
                raise RuntimeError("sabotaged point")
            return real_sweep_point(emitter, axis, x, *rest)

        monkeypatch.setattr(cli, "sweep_point", flaky)
        code, text = run(tmp_path, "g2-sweep", "--axis", "filter-width", "--values", "1.0,2.0")
        assert code == 2
        header, rows = data_rows(text)
        assert rows[0][header.index("error")] == ""
        assert rows[1][header.index("error")] == "RuntimeError: sabotaged point"
        assert rows[1][header.index("g2_ideal")] == ""

    def test_preset_equals_explicit_width(self, tmp_path):
        code, a = run(tmp_path, "g2-sweep", "--axis", "rabi", "--values", "2.0", "--preset", "etalon", name="a.csv")
        code2, b = run(tmp_path, "g2-sweep", "--axis", "rabi", "--values", "2.0", "--filter-width", "0.29", name="b.csv")
        assert code == code2 == 0
        _, rows_a = data_rows(a)
        _, rows_b = data_rows(b)
        assert float(rows_a[0][1]) == pytest.approx(float(rows_b[0][1]), abs=1e-10)


class TestSpectrum:
    def test_weak_drive_coherent_weight(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--rabi", "0.5", "--n-omega", "801")
        assert code == 0
        comp_line = next(l for l in text.splitlines() if l.startswith("# components: "))
        components = json.loads(comp_line[len("# components: ") :])
        coherent = next(c for c in components if c["kind"] == "coherent")
        assert coherent["weight"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_spectral_irf_column(self, tmp_path):
        code, text = run(
            tmp_path,
            "spectrum",
            "--rabi",
            "0.5",
            "--n-omega",
            "4001",
            "--spectral-irf-uev",
            "1.5",
        )
        assert code == 0
        header, rows = data_rows(text)
        assert header == ["omega_ueV", "s_per_ueV", "s_irf_per_ueV"]
        peak_plain = max(float(r[1]) for r in rows)
        peak_smeared = max(float(r[2]) for r in rows)
        assert peak_smeared < peak_plain  # elastic spike is broadened

    def test_json_format_mirrors_schema(self, tmp_path):
        path = tmp_path / "spec.json"
        code = main(
            ["spectrum", "--rabi", "2.0", "--n-omega", "801", "--format", "json", "-o", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["subcommand"] == "spectrum"
        assert payload["columns"][0] == "omega_ueV"
        assert len(payload["rows"]) == 801
        assert {c["kind"] for c in payload["components"]} >= {"coherent", "rayleigh"}
        assert payload["config"]["emitter"]["rabi_over_gamma"] == 2.0


class TestTransmission:
    def test_matched_width_values(self, tmp_path):
        code, text = run(tmp_path, "transmission", "--values", "1.0")
        assert code == 0
        header, rows = data_rows(text)
        row = dict(zip(header, map(float, rows[0])))
        assert row["t_incoherent"] == pytest.approx(0.5, abs=1e-12)
        assert row["t_coherent"] == pytest.approx(0.9995, abs=1e-4)


class TestFractions:
    def test_fig_style_dataset(self, tmp_path):
        code, text = run(
            tmp_path,
            "fractions",
            "--axis",
            "filter-width",
            "--values",
            "0.01,150",
            "--rabi",
            "0.5",
        )
        assert code == 0
        header, rows = data_rows(text)
        narrow = dict(zip(header, rows[0]))
        broad = dict(zip(header, rows[1]))
        assert float(narrow["coherent"]) > 0.99
        assert float(broad["coherent"]) < 0.7


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"emitter": {"rabi_over_gamma": 2.0}}))
        code, text = run(
            tmp_path, "g2-trace", "--config", str(cfg), "--filter-width", "0.29", "--n-tau", "101"
        )
        assert code == 0
        embedded = json.loads(
            next(l for l in text.splitlines() if l.startswith("# config: "))[len("# config: ") :]
        )
        assert embedded["emitter"]["rabi_over_gamma"] == 2.0

    def test_round_trip_from_output_file(self, tmp_path):
        code, first = run(
            tmp_path, "g2-trace", "--filter-width", "0.29", "--rabi", "2.0", "--n-tau", "101"
        )
        assert code == 0
        code2, second = run(
            tmp_path, "g2-trace", "--config", str(tmp_path / "out.csv"), name="again.csv"
        )
        assert code2 == 0
        assert first == second

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"emitter": {"gamma_uev_typo": 1.0}}))
        code = main(["g2-trace", "--config", str(cfg), "--filter-width", "1.0", "-o", "-"])
        assert code == 1

    def test_invalid_values_exit_one(self, tmp_path):
        assert main(["g2-trace", "--gamma-uev", "-3", "--filter-width", "1.0", "-o", "-"]) == 1
        assert main(["g2-trace", "-o", "-"]) == 1  # missing filter width
        assert main(["g2-sweep", "--axis", "rabi", "--values", "", "--filter-width", "1.0", "-o", "-"]) == 1
        assert main(["g2-trace", "--filter-width", "1.0", "--beta", "0.5", "-o", "-"]) == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("emitter", "detuning_over_gamma", "x"),
            ("emitter", "detuning_over_gamma", None),
            ("filter", "center_over_gamma", None),
            ("filter", "center_over_gamma", "nan"),
        ],
    )
    def test_invalid_offsets_exit_one(self, tmp_path, section, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert main(["g2-trace", "--config", str(cfg), "--filter-width", "1.0", "-o", "-"]) == 1

    def test_negative_offsets_allowed(self, tmp_path):
        code, _ = run(
            tmp_path, "g2-trace", "--filter-width", "0.5", "--detuning", "-1.0",
            "--filter-center", "-2.0", "--n-tau", "11",
        )
        assert code == 0

    def test_unknown_subcommand_exits_one(self):
        assert main(["not-a-command"]) == 1
        assert main([]) == 1


@pytest.mark.slow
class TestSelftest:
    def test_selftest_reports_known_state(self, tmp_path, capsys):
        # three criteria are documented reference-target misses, so the suite
        # honestly exits 3; everything else must pass.
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 3
        failing = {
            int(line.split()[2]) for line in out.splitlines() if line.startswith("[FAIL]")
        }
        assert failing == {5, 6, 8}
        assert out.count("[PASS]") == 9


def loaded_modules(code, prefixes):
    """Top-level packages among ``prefixes`` that a fresh interpreter has
    loaded after running ``code``."""
    src = os.path.dirname(os.path.dirname(filtered_rf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] in {prefixes!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # Only the expm fallback and selftest need scipy; a cold CLI start that
    # takes neither path should not pay for importing it.  Sweeps run
    # in-process, so no process-pool machinery is loaded either.
    assert loaded_modules("import filtered_rf.cli", ("scipy", "multiprocessing", "concurrent")) == "[]"


def test_figure_traffic_loads_no_scipy():
    # The expm fallback imports scipy.linalg (+26 MB RSS in one process).
    # The fig2a IRF sweeps, default-grid traces, and a narrow filter on a
    # Mollow sideband (where the 64-dim two-sensor generator needs expm)
    # must all stay on the eigendecomposition path.
    code = """
from filtered_rf import EmitterParams, GaussianIRF, HBAR_UEV_PS, filtered_g2
from filtered_rf.filtercorr import sweep_point
gamma = 20.0 / HBAR_UEV_PS
irf = GaussianIRF(fwhm=37.5)
for rabi in (0.5, 2.0):
    em = EmitterParams(gamma=gamma, rabi=rabi * gamma)
    for width in (150.0, 23.0, 4.85, 0.85, 0.29, 0.0125):
        sweep_point(em, "filter_width", width * gamma, None, 0.0, 0.0, 0.2, irf)
em = EmitterParams(gamma=gamma, rabi=0.5 * gamma)
for width in (0.29, 0.85, 4.85):
    filtered_g2(em, width * gamma)
filtered_g2(EmitterParams(gamma=1.0, rabi=2.0), 0.01, filter_center=2.0)
"""
    assert loaded_modules(code, ("scipy",)) == "[]"
