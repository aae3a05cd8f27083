"""Command-line interface: reproduction sweeps and traces to CSV or JSON.

Physical inputs use laboratory units (ueV, neV, ps); they are converted to
rate units (hbar = 1) at this boundary and never inside the library.
Every output embeds the fully resolved configuration, and ``--config``
accepts either a plain JSON config or a previous output file, so runs are
reproducible from their own artifacts.

Exit codes: 0 success, 1 configuration error, 2 computation failure
(partial sweep failures are recorded per point), 3 acceptance-suite
failure (selftest only).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from .filtercorr import _axis_point, filtered_g2, sweep_point
from .instrument import GaussianIRF, filter_preset, irf_convolve, spectral_irf_convolve
from .spectrum import emission_spectrum, filtered_fractions, lorentzian_transmission
from .system import HBAR_UEV_PS, EmitterParams


class Setting(NamedTuple):
    """One config key: its default, its flags (space separated), the values
    it accepts and its meaning.  ``kind`` is float, int, bool, str, a tuple
    of choices, or None for a value that its command parses (``sweep.values``).
    A number must be at least ``minimum``, or greater than it when ``strict``."""

    section: str
    key: str
    default: object
    flags: str
    kind: object
    help: str
    minimum: float | None = None
    strict: bool = False


SETTINGS = [
    Setting("emitter", "gamma_ueV", 20.0, "--gamma-uev", float, "emission rate in ueV", 0, True),
    Setting("emitter", "rabi_over_gamma", 0.5, "--rabi", float, "drive strength over gamma", 0),
    Setting("emitter", "detuning_over_gamma", 0.0, "--detuning", float, "detuning over gamma"),
    Setting("emitter", "laser_linewidth_neV", 10.0, "--laser-linewidth-nev", float, "laser FWHM in neV", 0),
    Setting("filter", "width_over_gamma", None, "--filter-width", float, "filter FWHM over gamma", 0, True),
    Setting("filter", "preset", None, "--preset", str, "named filter, sets the width"),
    Setting("filter", "center_over_gamma", 0.0, "--filter-center", float, "filter center over gamma"),
    Setting("background", "beta_lo", 0.0, "--beta-lo", float, "lower laser background fraction", 0),
    Setting("background", "beta_hi", 0.0, "--beta-hi", float, "upper laser background fraction", 0),
    Setting("irf", "fwhm_ps", 37.5, "--irf-fwhm-ps", float, "detector response FWHM in ps", 0, True),
    Setting("irf", "enabled", False, "--irf", bool, "apply the detector response"),
    Setting("irf", "spectral_fwhm_ueV", None, "--spectral-irf-uev", float, "spectral FWHM in ueV", 0, True),
    Setting("grid", "tau_max_ps", None, "--tau-max-ps", float, "largest delay in ps", 0, True),
    Setting("grid", "n_tau", 2001, "--n-tau", int, "number of delays", 3),
    Setting("grid", "omega_max_ueV", None, "--omega-max-uev", float, "largest frequency in ueV", 0, True),
    Setting("grid", "n_omega", 4001, "--n-omega", int, "number of frequencies", 3),
    Setting("sweep", "axis", None, "--axis", ("filter-width", "rabi"), "swept parameter"),
    Setting("sweep", "values", [], "--values", None, "sweep points over gamma, comma separated"),
    Setting("output", "path", "-", "-o --output", str, "output path, '-' for stdout"),
    Setting("output", "format", "csv", "--format", ("csv", "json"), "artifact format"),
]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise ConfigError(message)


# --- configuration handling -------------------------------------------------


def _load_config_file(path):
    """Read a JSON config, or recover the embedded config of an output file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("#"):
        for line in text.splitlines():
            if line.startswith("# config: "):
                return json.loads(line[len("# config: ") :])
        raise ConfigError(f"{path}: no '# config:' line found in CSV header")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data.get("config", data)


def _merge(base, override, context=""):
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{context}.{key}" if context else key
        if key not in merged:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(merged[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a section")
            merged[key] = _merge(merged[key], value, where)
        else:
            merged[key] = value
    return merged


def _check(setting, value):
    """A given value checked against its row and returned in the form the
    commands use: a number (a numeric string counts) as float or int."""
    where = f"{setting.section}.{setting.key}"
    kind = setting.kind
    if value is None:
        if setting.default is None:
            return None
        raise ConfigError(f"{where} is required")
    if kind is None:
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where} must be {' or '.join(kind)}, got {value!r}")
        return value
    if kind in (bool, str):
        if not isinstance(value, kind):
            wanted = "true or false" if kind is bool else "text"
            raise ConfigError(f"{where} must be {wanted}, got {value!r}")
        return value
    try:
        if isinstance(value, bool):  # JSON true is not the number 1
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        number = int(number)
    low = setting.minimum
    if low is not None and (number < low or (setting.strict and number == low)):
        bound = "greater than" if setting.strict else "at least"
        raise ConfigError(f"{where} must be {bound} {low}, got {number}")
    return number


def resolve_config(args):
    """Merge defaults, optional config file, and command-line flags, then
    check every setting against its row, whichever subcommand runs."""
    config = {}
    for s in SETTINGS:
        config.setdefault(s.section, {})[s.key] = copy.deepcopy(s.default)
    if getattr(args, "config", None):
        config = _merge(config, _load_config_file(args.config))
    for s in SETTINGS:
        value = getattr(args, f"{s.section}.{s.key}", None)
        if value is not None:
            config[s.section][s.key] = value
    for s in SETTINGS:
        config[s.section][s.key] = _check(s, config[s.section][s.key])

    beta_lo, beta_hi = config["background"]["beta_lo"], config["background"]["beta_hi"]
    if beta_lo > 0.2 or beta_hi > 0.2:
        raise ConfigError("background.beta_lo/beta_hi must lie in [0, 0.2]")
    if beta_lo > beta_hi:
        raise ConfigError(f"background.beta_lo = {beta_lo} exceeds beta_hi = {beta_hi}")
    return config


def build_emitter(config):
    """EmitterParams in 1/ps rate units from the laboratory-unit config."""
    gamma = config["emitter"]["gamma_ueV"] / HBAR_UEV_PS
    return EmitterParams(
        gamma=gamma,
        rabi=config["emitter"]["rabi_over_gamma"] * gamma,
        detuning=config["emitter"]["detuning_over_gamma"] * gamma,
        laser_linewidth=config["emitter"]["laser_linewidth_neV"] / 1000.0 / HBAR_UEV_PS,
    )


def resolve_filter_width(config, emitter):
    """Filter width in rate units from width_over_gamma or a named preset.

    A preset sets the width; a width that is also given must be the
    preset's, as in the embedded config of a preset run's artifact."""
    width_rel = config["filter"]["width_over_gamma"]
    preset_name = config["filter"]["preset"]
    if preset_name is not None:
        try:
            preset = filter_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
        width = preset.fwhm_ueV / HBAR_UEV_PS
        if width_rel is not None and not math.isclose(width_rel, width / emitter.gamma, rel_tol=1e-12):
            raise ConfigError(
                f"filter.preset {preset.name!r} sets filter.width_over_gamma to "
                f"{width / emitter.gamma!r}, which contradicts the given {width_rel!r}"
            )
        config["filter"]["preset"] = preset.name
        config["filter"]["width_over_gamma"] = width / emitter.gamma
        return width
    if width_rel is None:
        raise ConfigError("either filter.width_over_gamma or filter.preset is required")
    return width_rel * emitter.gamma


def tau_grid(config, emitter, width):
    grid = config["grid"]
    if grid["tau_max_ps"] is None:
        grid["tau_max_ps"] = max(20.0 / emitter.gamma, 20.0 / width)
    return np.linspace(0.0, grid["tau_max_ps"], grid["n_tau"])


def omega_grid(config, emitter):
    grid = config["grid"]
    if grid["omega_max_ueV"] is None:
        sidebands = math.hypot(emitter.rabi, emitter.detuning)
        grid["omega_max_ueV"] = (2.0 * sidebands + 10.0 * emitter.gamma) * HBAR_UEV_PS
    return np.linspace(-grid["omega_max_ueV"], grid["omega_max_ueV"], grid["n_omega"]) / HBAR_UEV_PS


def sweep_values(config):
    values = config["sweep"]["values"]
    if isinstance(values, str):
        values = [v for v in values.replace(",", " ").split() if v]
    try:
        values = [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"sweep.values must be numbers, got {config['sweep']['values']!r}") from None
    if not values:
        raise ConfigError("sweep.values must not be empty")
    if not all(0.0 < v < math.inf for v in values):
        raise ConfigError("sweep.values must be finite and positive")
    config["sweep"]["values"] = values
    return values


# --- output writing ----------------------------------------------------------


def _text_cell(text):
    """Text as a CSV cell, quoted (RFC 4180) when it holds a comma, a double
    quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values):
    """One column's CSV cells: the shortest round-trip repr of each number,
    "" for None, and text through :func:`_text_cell`."""
    return ["" if v is None else _text_cell(v) if isinstance(v, str) else repr(float(v)) for v in values]


def _embeddable(config):
    embedded = copy.deepcopy(config)
    embedded.pop("output", None)  # keep artifacts relocatable
    return embedded


def write_output(subcommand, config, table, units, extra=None):
    """Write a table, column name -> 1-D array or list in column order, as
    CSV with '#' metadata headers, or as mirrored JSON; units follow that order."""
    columns = list(table)
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in table.values()]
    config_json = json.dumps(_embeddable(config), sort_keys=True)
    if config["output"]["format"] == "csv":
        lines = [f"# filtered-rf {subcommand}", f"# config: {config_json}"]
        lines.append("# units: " + ", ".join(f"{c}={u}" for c, u in zip(columns, units)))
        if extra:
            for key, value in extra.items():
                lines.append(f"# {key}: {json.dumps(value, sort_keys=True)}")
        lines.append(",".join(columns))
        lines.extend(map(",".join, zip(*map(_cells, values))))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "tool": "filtered-rf",
            "subcommand": subcommand,
            "config": json.loads(config_json),
            "columns": columns,
            "units": dict(zip(columns, units)),
            "rows": list(zip(*values)),
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True, indent=1, default=float) + "\n"

    path = config["output"]["path"]
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- subcommands --------------------------------------------------------------


def cmd_g2_trace(config):
    """Each background bound is one :func:`filtered_g2` trace on the
    command's delay grid, smeared by :func:`irf_convolve` with ``--irf``."""
    emitter = build_emitter(config)
    width = resolve_filter_width(config, emitter)
    center = config["filter"]["center_over_gamma"] * emitter.gamma
    beta_lo = config["background"]["beta_lo"]
    beta_hi = config["background"]["beta_hi"]
    taus = tau_grid(config, emitter, width)
    irf = GaussianIRF(config["irf"]["fwhm_ps"]) if config["irf"]["enabled"] else None

    lo = filtered_g2(emitter, width, center, beta_lo, taus)
    table = {"tau_ps": taus, "g2": lo.values}
    if irf is not None:
        table["g2_irf"] = irf_convolve(lo, irf).values
    if beta_hi > beta_lo:
        hi = filtered_g2(emitter, width, center, beta_hi, taus)
        table["g2_lo"] = lo.values if irf is None else table["g2_irf"]
        table["g2_hi"] = hi.values if irf is None else irf_convolve(hi, irf).values
    write_output("g2-trace", config, table, ["ps"] + ["dimensionless"] * (len(table) - 1))
    return 0


def _run_sweep(subcommand, config, columns, point):
    """The g2-sweep and fractions loop: one row per sweep value, in order.

    Each value becomes an (emitter, filter width) pair through
    :func:`filtercorr._axis_point`, as in :func:`sweep_point`, and
    ``point(emitter, width)`` returns the row's columns.  A failing point
    records "<Type>: <message>" in its error column instead of stopping the
    sweep, and any failure makes the exit code 2.
    """
    emitter = build_emitter(config)
    axis = config["sweep"]["axis"]
    if axis not in ("filter-width", "rabi"):
        raise ConfigError(f"sweep.axis must be filter-width or rabi, got {axis!r}")
    values = sweep_values(config)
    axis = axis.replace("-", "_")
    width = resolve_filter_width(config, emitter) if axis == "rabi" else None

    rows, errors = [], []
    for x in values:
        try:
            row, error = point(*_axis_point(emitter, axis, x * emitter.gamma, width)), None
        except Exception as exc:  # per-point failure record
            row, error = {}, f"{type(exc).__name__}: {exc}"
        rows.append(row)
        errors.append(error)
    table = {f"{axis}_over_gamma": values, **{c: [row.get(c) for row in rows] for c in columns}, "error": errors}
    write_output(subcommand, config, table, ["dimensionless"] * (len(table) - 1) + ["text"])
    return 2 if any(errors) else 0


def cmd_g2_sweep(config):
    beta_lo = config["background"]["beta_lo"]
    beta_hi = config["background"]["beta_hi"]
    irf = GaussianIRF(config["irf"]["fwhm_ps"]) if config["irf"]["enabled"] else None

    def point(emitter, width):
        center = config["filter"]["center_over_gamma"] * emitter.gamma
        return sweep_point(emitter, "filter_width", width, None, center, beta_lo, beta_hi, irf)

    return _run_sweep("g2-sweep", config, ["g2_ideal", "g2_lo", "g2_hi"], point)


def cmd_spectrum(config):
    emitter = build_emitter(config)
    omegas = omega_grid(config, emitter)
    decomposition = emission_spectrum(emitter, omegas)
    table = {"omega_ueV": omegas * HBAR_UEV_PS, "s_per_ueV": decomposition.values / HBAR_UEV_PS}
    spectral_fwhm = config["irf"]["spectral_fwhm_ueV"]
    if spectral_fwhm is not None:
        irf = GaussianIRF(spectral_fwhm / HBAR_UEV_PS)
        table["s_irf_per_ueV"] = spectral_irf_convolve(omegas, decomposition.values, irf) / HBAR_UEV_PS
    components = [
        {
            "kind": c.kind,
            "center_ueV": c.center * HBAR_UEV_PS,
            "fwhm_ueV": 2.0 * c.hwhm * HBAR_UEV_PS,
            "weight": c.weight,
        }
        for c in decomposition.components
    ]
    units = ["ueV"] + ["1/ueV"] * (len(table) - 1)
    write_output("spectrum", config, table, units, extra={"components": components})
    return 0


def cmd_transmission(config):
    emitter = build_emitter(config)
    if not config["sweep"]["values"]:
        config["sweep"]["values"] = [float(v) for v in np.logspace(-2.0, 3.0, 101)]
    rels = sweep_values(config)
    widths = [rel * emitter.gamma for rel in rels]
    table = {
        "filter_width_over_gamma": rels,
        "filter_width_ueV": [w * HBAR_UEV_PS for w in widths],
        "t_coherent": [lorentzian_transmission(emitter.laser_linewidth, w, 0.0) for w in widths],
        "t_incoherent": [lorentzian_transmission(emitter.gamma, w, 0.0) for w in widths],
    }
    write_output("transmission", config, table, ["dimensionless", "ueV", "dimensionless", "dimensionless"])
    return 0


def cmd_fractions(config):
    center = config["filter"]["center_over_gamma"]
    if center != 0.0:  # filtered_fractions takes a filter on the laser line
        raise ConfigError(f"filter.center_over_gamma must be 0 for fractions, got {center!r}")
    config["sweep"]["axis"] = config["sweep"]["axis"] or "filter-width"
    kinds = ["coherent", "rayleigh", "mollow_red", "mollow_blue", "other"]
    return _run_sweep("fractions", config, kinds, filtered_fractions)


def cmd_selftest(config):
    # Deferred: acceptance pulls in scipy.integrate, which no other command needs.
    from . import acceptance

    results = acceptance.run_all(report=print)
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 3 if failures else 0


# --- entry point ---------------------------------------------------------------


COMMANDS = {  # name: (function, help, takes the sweep flags)
    "g2-trace": (cmd_g2_trace, "filtered g2(tau) at one parameter point", False),
    "g2-sweep": (cmd_g2_sweep, "g2(0) along a filter-width or drive sweep", True),
    "spectrum": (cmd_spectrum, "emission spectrum and its decomposition", False),
    "transmission": (cmd_transmission, "elastic/inelastic filter transmission vs width", True),
    "fractions": (cmd_fractions, "filtered component fractions", True),
    "selftest": (cmd_selftest, "run the acceptance suite", False),
}


def _flag_options(kind):
    if kind is bool:
        return {"action": "store_true", "default": None}
    return {"choices": kind} if isinstance(kind, tuple) else {"type": kind or str}


def build_parser():
    parser = _Parser(prog="filtered-rf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_text, takes_sweep) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file, or a previous output file")
        for s in SETTINGS:
            if takes_sweep or s.section != "sweep":
                options = _flag_options(s.kind)
                p.add_argument(*s.flags.split(), dest=f"{s.section}.{s.key}", help=s.help, **options)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ConfigError("a subcommand is required (see --help)")
        command = COMMANDS[args.subcommand][0]
        config = resolve_config(args)
        with warnings.catch_warnings():  # library warnings, one line each
            warnings.showwarning = lambda message, *_: print(f"filtered-rf: warning: {message}", file=sys.stderr)
            return command(config)
    except (ConfigError, ValueError) as exc:
        print(f"filtered-rf: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures and the like
        print(f"filtered-rf: computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
