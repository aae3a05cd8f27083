import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filtered_rf
from filtered_rf import EmitterParams, GaussianIRF, HBAR_UEV_PS, filtered_g2, irf_convolve, sweep_point
from filtered_rf.cli import SETTINGS, main

FLAG = {f"{s.section}.{s.key}": s.flags.split()[-1] for s in SETTINGS}
NUMERIC_SETTINGS = [s for s in SETTINGS if s.kind in (float, int)]
# A valid value of every numeric setting, as text.
NUMERIC_STRINGS = {
    "emitter.gamma_ueV": "15",
    "emitter.rabi_over_gamma": "2",
    "emitter.detuning_over_gamma": "0.5",
    "emitter.laser_linewidth_neV": "5",
    "filter.width_over_gamma": "0.85",
    "filter.center_over_gamma": "-0.5",
    "background.beta_lo": "0.05",
    "background.beta_hi": "0.15",
    "irf.fwhm_ps": "30",
    "irf.spectral_fwhm_ueV": "1.5",
    "grid.tau_max_ps": "50",
    "grid.n_tau": "11",
    "grid.omega_max_ueV": "250",
    "grid.n_omega": "11",
}
BASE_FLAGS = {  # what each command needs besides the setting under test
    "g2-trace": {"filter.width_over_gamma": "0.29", "grid.n_tau": "21", "background.beta_hi": "0.2"},
    "spectrum": {"background.beta_hi": "0.2"},
    "transmission": {"background.beta_hi": "0.2", "sweep.values": "0.5,2"},
}


def run(tmp_path, *argv, name="out.csv"):
    path = tmp_path / name
    code = main([*argv, "-o", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def columns(text):
    header, rows = data_rows(text)
    return dict(zip(header, map(list, zip(*rows))))


def lab_emitter(rabi):
    """The CLI's default emitter at drive rabi (over gamma), in 1/ps."""
    gamma = 20.0 / HBAR_UEV_PS
    return EmitterParams(gamma=gamma, rabi=rabi * gamma, laser_linewidth=10.0 / 1000.0 / HBAR_UEV_PS)


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

    def test_preset_contradicting_the_width_exits_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "g2-trace", "--preset", "etalon", "--filter-width", "0.5")
        assert code == 1
        err = capsys.readouterr().err
        assert "filter.preset" in err and "filter.width_over_gamma" in err

    def test_irf_longer_than_the_delay_grid_exits_one(self, tmp_path, capsys):
        # A 37.5 ps IRF reaches 79.6 ps on each side, past a 10 ps grid.
        code, _ = run(tmp_path, "g2-trace", "--filter-width", "150", "--irf", "--tau-max-ps", "10")
        assert code == 1
        assert "short of the IRF kernel's reach" in capsys.readouterr().err

    def test_preset_artifact_replays_to_the_same_bytes(self, tmp_path):
        # The embedded config holds both the preset and the width it set.
        code, first = run(tmp_path, "g2-trace", "--preset", "etalon", "--n-tau", "101")
        assert code == 0
        code, again = run(tmp_path, "g2-trace", "--config", str(tmp_path / "out.csv"), name="again.csv")
        assert code == 0
        assert again == first

    @pytest.mark.parametrize("irf", [False, True])
    def test_columns_are_filtered_g2(self, tmp_path, irf):
        # Each background bound is one filtered_g2 trace on the CLI's grid,
        # smeared by irf_convolve, to the last digit.
        argv = ["--filter-width", "0.85", "--filter-center", "0.3", "--beta-lo", "0.05", "--beta-hi", "0.2"]
        code, text = run(tmp_path, "g2-trace", *argv, "--n-tau", "401", *(["--irf"] if irf else []))
        assert code == 0
        table = columns(text)
        taus = np.array([float(t) for t in table["tau_ps"]])
        em = lab_emitter(0.5)
        lo, hi = (filtered_g2(em, 0.85 * em.gamma, 0.3 * em.gamma, beta, taus) for beta in (0.05, 0.2))
        if irf:
            smeared = [irf_convolve(trace, GaussianIRF(37.5)).values for trace in (lo, hi)]
            expected = {"g2": lo.values, "g2_irf": smeared[0], "g2_lo": smeared[0], "g2_hi": smeared[1]}
        else:
            expected = {"g2": lo.values, "g2_lo": lo.values, "g2_hi": hi.values}
        assert list(table) == ["tau_ps", *expected]
        for name, values in expected.items():
            assert table[name] == [repr(v) for v in values.tolist()], name

    def test_trace_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # A product split across BLAS threads may add in another order; the
        # traces add their poles elementwise, so the bytes are the same.
        src = os.path.dirname(os.path.dirname(filtered_rf.__file__))
        for width in ("0.29", "0.85", "4.85"):
            texts = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
                path = tmp_path / f"w{width}-t{threads}.csv"
                argv = ["g2-trace", "--filter-width", width, "--rabi", "0.5", "--irf", "--beta-hi", "0.2"]
                proc = subprocess.run([sys.executable, "-m", "filtered_rf.cli", *argv, "-o", str(path)],
                                      env=env, capture_output=True, text=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
                texts.append(path.read_bytes())
            assert texts[0] == texts[1], width


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

    def test_error_cell_is_quoted(self, tmp_path, monkeypatch):
        # A message with a comma, a quote or a line break stays one cell.
        import filtered_rf.cli as cli

        message = 'need max(1, |g2|), got "2"\nsee above'

        def broken(*args):
            raise RuntimeError(message)

        monkeypatch.setattr(cli, "sweep_point", broken)
        code, text = run(tmp_path, "g2-sweep", "--axis", "filter-width", "--values", "1.0,2.0")
        assert code == 2
        header, *rows = csv.reader(l for l in text.splitlines(keepends=True) if not l.startswith("#"))
        assert [len(row) for row in rows] == [len(header)] * 2
        assert [row[header.index("error")] for row in rows] == [f"RuntimeError: {message}"] * 2

    @pytest.mark.parametrize("axis", ["filter-width", "rabi"])
    def test_rows_are_sweep_point_rows(self, tmp_path, axis):
        # The CLI loop resolves each value as sweep_point does and writes
        # its row to the last digit.
        band = ["--filter-center", "0.7", "--beta-lo", "0.05", "--beta-hi", "0.2", "--irf"]
        code, text = run(tmp_path, "g2-sweep", "--axis", axis, "--values", "0.5,3", "--filter-width", "0.29", *band)
        assert code == 0
        table = columns(text)
        em = lab_emitter(0.5)
        gamma = em.gamma
        for i, x in enumerate((0.5, 3.0)):
            row = sweep_point(em, axis.replace("-", "_"), x * gamma, 0.29 * gamma, 0.7 * gamma, 0.05, 0.2,
                              GaussianIRF(37.5))
            assert [table[c][i] for c in ("g2_ideal", "g2_lo", "g2_hi")] == [
                repr(row[c]) for c in ("g2_ideal", "g2_lo", "g2_hi")
            ]

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

    def test_default_grid_spans_detuned_sidebands(self, tmp_path):
        # Under detuned drive the sidebands sit near +-hypot(rabi, detuning);
        # the default grid spans +-(2 hypot(rabi, detuning) + 10 gamma).
        code, text = run(tmp_path, "spectrum", "--detuning", "20", "--rabi", "0.5", "--n-omega", "801")
        assert code == 0
        omegas = [float(w) for w in columns(text)["omega_ueV"]]
        gamma_ueV = 20.0
        assert omegas[-1] == -omegas[0] == pytest.approx((2.0 * np.hypot(0.5, 20.0) + 10.0) * gamma_ueV)
        comp_line = next(l for l in text.splitlines() if l.startswith("# components: "))
        components = json.loads(comp_line[len("# components: ") :])
        centers = sorted(c["center_ueV"] for c in components if c["kind"].startswith("mollow"))
        assert centers == pytest.approx([-400.125, 400.125], abs=1e-3)
        assert omegas[0] + 10.0 * gamma_ueV < centers[0] and centers[1] < omegas[-1] - 10.0 * gamma_ueV

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


    def test_filter_center_exits_one(self, tmp_path, capsys):
        # The filtered fractions are those of a filter on the laser line.
        code, _ = run(tmp_path, "fractions", "--axis", "rabi", "--values", "0.5,1", "--preset", "etalon",
                      "--filter-center", "2")
        assert code == 1
        assert "error: filter.center_over_gamma " in capsys.readouterr().err


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
        assert main(["g2-trace", "--filter-width", "1.0", "--beta-hi", "0.5", "-o", "-"]) == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("emitter", "detuning_over_gamma", "x"),
            ("emitter", "detuning_over_gamma", None),
            ("filter", "center_over_gamma", None),
            ("filter", "center_over_gamma", "nan"),
            ("irf", "enabled", "false"),
            ("filter", "preset", 5),
            ("grid", "n_tau", 3.7),
            ("irf", "spectral_fwhm_ueV", "abc"),
            ("emitter", "rabi_over_gamma", True),
            ("sweep", "axis", "bogus"),
        ],
    )
    def test_invalid_settings_exit_one_naming_the_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert main(["g2-trace", "--config", str(cfg), "--filter-width", "1.0", "-o", "-"]) == 1
        assert f"error: {section}.{key} " in capsys.readouterr().err

    @pytest.mark.parametrize("setting", NUMERIC_SETTINGS, ids=lambda s: f"{s.section}.{s.key}")
    @pytest.mark.parametrize("subcommand", ["g2-trace", "spectrum", "transmission"])
    def test_numeric_strings_compute_as_numbers(self, tmp_path, setting, subcommand):
        # Every numeric setting given as a string in a config file computes
        # and embeds exactly as the same value given by its flag.
        where = f"{setting.section}.{setting.key}"
        value = NUMERIC_STRINGS[where]
        base = [arg for name, v in BASE_FLAGS[subcommand].items() if name != where for arg in (FLAG[name], v)]
        cfg = tmp_path / "strings.json"
        cfg.write_text(json.dumps({setting.section: {setting.key: value}}))
        code, text = run(tmp_path, subcommand, "--config", str(cfg), *base)
        assert code == 0
        code, expected = run(tmp_path, subcommand, FLAG[where], value, *base, name="flags.csv")
        assert code == 0
        assert text == expected

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["spectrum", "--tau-max-ps", "-5"], "grid.tau_max_ps"),
            (["g2-trace", "--preset", "etalon", "--filter-width", "-1"], "filter.width_over_gamma"),
            (["transmission", "--n-omega", "2"], "grid.n_omega"),
        ],
    )
    def test_settings_the_command_ignores_are_checked(self, capsys, argv, key):
        assert main([*argv, "-o", "-"]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err

    # nan <= 0 is false: unchecked, nan and inf reached the sweep and the
    # '# config:' line, which is then not valid JSON.
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("subcommand", ["g2-sweep", "fractions", "transmission"])
    def test_nonpositive_sweep_values_exit_one(self, capsys, subcommand, value):
        assert main([subcommand, "--axis", "filter-width", f"--values=0.29,{value}", "-o", "-"]) == 1
        assert "error: sweep.values must be finite and positive" in capsys.readouterr().err

    def test_negative_offsets_allowed(self, tmp_path):
        code, _ = run(
            tmp_path, "g2-trace", "--filter-width", "0.5", "--detuning", "-1.0",
            "--filter-center", "-2.0", "--n-tau", "11",
        )
        assert code == 0

    def test_zero_drive_is_a_configuration_error(self, tmp_path, capsys):
        assert main(["g2-trace", "--filter-width", "0.29", "--rabi", "0", "-o", str(tmp_path / "t.csv")]) == 1
        assert main(["spectrum", "--rabi", "0", "-o", str(tmp_path / "s.csv")]) == 1
        # A background bound without drive has no emission to calibrate against.
        band = ["--beta-lo", "0.1", "--beta-hi", "0.1", "-o", str(tmp_path / "b.csv")]
        assert main(["g2-trace", "--filter-width", "0.29", "--rabi", "0", *band]) == 1
        assert capsys.readouterr().err.count("no emission without drive") == 3
        code, text = run(tmp_path, "fractions", "--values", "0.5,1", "--rabi", "0")
        assert code == 2
        header, rows = data_rows(text)
        assert all(r[header.index("error")].startswith("ValueError: no emission without drive") for r in rows)

    def test_unknown_subcommand_exits_one(self):
        assert main(["not-a-command"]) == 1
        assert main([]) == 1

    def test_narrow_filter_warning_is_one_line(self, tmp_path, capsys):
        code, _ = run(tmp_path, "g2-trace", "--filter-width", "5e-5", "--filter-center", "1", "--n-tau", "11")
        assert code == 0
        assert capsys.readouterr().err == (
            "filtered-rf: warning: filter width 5e-05 gamma is below 1e-4 gamma; "
            "make sure the tau grid resolves the filter response\n"
        )


def readme_commands():
    """Arguments of each `filtered-rf` line in the README's command-line
    block, without `selftest` (test_acceptance covers it) and its `-o` path."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```bash\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        argv = shlex.split(line)
        if argv[:1] == ["filtered-rf"] and argv[1:] != ["selftest"]:
            if "-o" in argv:
                del argv[argv.index("-o") : argv.index("-o") + 2]
            commands.append(argv[1:])
    return commands


def test_readme_command_block_is_found():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_writes_matching_csv_and_json(tmp_path, argv):
    assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 0
    assert main([*argv, "--format", "json", "-o", str(tmp_path / "out.json")]) == 0
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    header, *rows = csv.reader(l for l in text.splitlines(keepends=True) if not l.startswith("#"))
    payload = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert payload["columns"] == header
    parsed = [
        [None if cell == "" else cell if name == "error" else float(cell) for name, cell in zip(header, row)]
        for row in rows
    ]
    assert payload["rows"] == parsed


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


def settings_row(s):
    """One SETTINGS row as the README's settings table writes it."""
    bound = "" if s.minimum is None else f" {'>' if s.strict else '>='} {s.minimum}"
    if isinstance(s.kind, tuple):
        accepts = " or ".join(f"`{choice}`" for choice in s.kind)
    else:
        names = {float: "number", int: "integer", bool: "true or false", str: "text"}
        accepts = names.get(s.kind, "parsed by the subcommand") + bound
    default = "unset" if s.default is None else f"`{json.dumps(s.default)}`"
    flags = ", ".join(f"`{flag}`" for flag in s.flags.split())
    return [f"`{s.section}.{s.key}`", flags, default, accepts, s.help]


def test_readme_lists_every_setting():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| config key | flags | default | accepts | meaning |\n", 1)[1]
    rows = []
    for line in table.splitlines()[1:]:  # below the separator row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    assert rows == [settings_row(s) for s in SETTINGS]
