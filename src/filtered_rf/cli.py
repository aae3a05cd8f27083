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
import dataclasses
import json
import sys

import numpy as np

from .filtercorr import CorrelationTrace, SensorPipeline, calibrate_background, sweep_point
from .instrument import GaussianIRF, filter_preset, irf_convolve, spectral_irf_convolve
from .spectrum import emission_spectrum, filtered_fractions, lorentzian_transmission
from .system import HBAR_UEV_PS, EmitterParams

DEFAULTS = {
    "emitter": {
        "gamma_ueV": 20.0,
        "rabi_over_gamma": 0.5,
        "detuning_over_gamma": 0.0,
        "laser_linewidth_neV": 10.0,
    },
    "filter": {"width_over_gamma": None, "preset": None, "center_over_gamma": 0.0},
    "background": {"beta_lo": 0.0, "beta_hi": 0.0},
    "irf": {"fwhm_ps": 37.5, "enabled": False, "spectral_fwhm_ueV": None},
    "grid": {"tau_max_ps": None, "n_tau": 2001, "omega_max_ueV": None, "n_omega": 4001},
    "sweep": {"axis": None, "values": []},
    "output": {"path": "-", "format": "csv"},
}


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


def _require_number(config, section, key, minimum=None, strict=False, optional=False):
    value = config[section][key]
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{section}.{key} is required")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite")
    if minimum is not None and (value < minimum or (strict and value == minimum)):
        bound = "greater than" if strict else "at least"
        raise ConfigError(f"{section}.{key} must be {bound} {minimum}, got {value}")
    return value


def resolve_config(args):
    """Merge defaults, optional config file, and command-line flags."""
    config = copy.deepcopy(DEFAULTS)
    if getattr(args, "config", None):
        config = _merge(config, _load_config_file(args.config))

    flag_map = {
        "gamma_uev": ("emitter", "gamma_ueV"),
        "rabi": ("emitter", "rabi_over_gamma"),
        "detuning": ("emitter", "detuning_over_gamma"),
        "laser_linewidth_nev": ("emitter", "laser_linewidth_neV"),
        "filter_width": ("filter", "width_over_gamma"),
        "preset": ("filter", "preset"),
        "filter_center": ("filter", "center_over_gamma"),
        "beta": ("background", "beta_lo"),
        "beta_lo": ("background", "beta_lo"),
        "beta_hi": ("background", "beta_hi"),
        "irf_fwhm_ps": ("irf", "fwhm_ps"),
        "spectral_irf_uev": ("irf", "spectral_fwhm_ueV"),
        "tau_max_ps": ("grid", "tau_max_ps"),
        "n_tau": ("grid", "n_tau"),
        "omega_max_uev": ("grid", "omega_max_ueV"),
        "n_omega": ("grid", "n_omega"),
        "axis": ("sweep", "axis"),
        "values": ("sweep", "values"),
        "output": ("output", "path"),
        "format": ("output", "format"),
    }
    for flag, (section, key) in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            config[section][key] = value
    if getattr(args, "irf", None) is not None:
        config["irf"]["enabled"] = args.irf
    if getattr(args, "beta", None) is not None and getattr(args, "beta_hi", None) is None:
        config["background"]["beta_hi"] = args.beta

    # validation of scalar fields used by every subcommand
    _require_number(config, "emitter", "gamma_ueV", minimum=0.0, strict=True)
    _require_number(config, "emitter", "rabi_over_gamma", minimum=0.0)
    _require_number(config, "emitter", "detuning_over_gamma")
    _require_number(config, "emitter", "laser_linewidth_neV", minimum=0.0)
    _require_number(config, "filter", "center_over_gamma")
    beta_lo = _require_number(config, "background", "beta_lo", minimum=0.0)
    beta_hi = _require_number(config, "background", "beta_hi", minimum=0.0)
    if beta_lo > 0.2 or beta_hi > 0.2:
        raise ConfigError("background.beta_lo/beta_hi must lie in [0, 0.2]")
    if beta_lo > beta_hi:
        raise ConfigError(f"background.beta_lo = {beta_lo} exceeds beta_hi = {beta_hi}")
    _require_number(config, "irf", "fwhm_ps", minimum=0.0, strict=True)
    n_tau = int(_require_number(config, "grid", "n_tau", minimum=3))
    config["grid"]["n_tau"] = n_tau
    config["grid"]["n_omega"] = int(_require_number(config, "grid", "n_omega", minimum=3))
    if config["output"]["format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {config['output']['format']!r}")
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
    """Filter width in rate units from width_over_gamma or a named preset."""
    width_rel = config["filter"]["width_over_gamma"]
    preset_name = config["filter"]["preset"]
    if preset_name is not None:
        try:
            preset = filter_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
        config["filter"]["preset"] = preset.name
        width = preset.fwhm_ueV / HBAR_UEV_PS
        config["filter"]["width_over_gamma"] = width / emitter.gamma
        return width
    if width_rel is None:
        raise ConfigError("either filter.width_over_gamma or filter.preset is required")
    width_rel = _require_number(config, "filter", "width_over_gamma", minimum=0.0, strict=True)
    return width_rel * emitter.gamma


def tau_grid(config, emitter, width):
    tau_max = config["grid"]["tau_max_ps"]
    if tau_max is None:
        tau_max = max(20.0 / emitter.gamma, 20.0 / width)
        config["grid"]["tau_max_ps"] = tau_max
    tau_max = _require_number(config, "grid", "tau_max_ps", minimum=0.0, strict=True)
    return np.linspace(0.0, tau_max, config["grid"]["n_tau"])


def omega_grid(config, emitter):
    omega_max = config["grid"]["omega_max_ueV"]
    if omega_max is None:
        omega_max = (2.0 * emitter.rabi + 10.0 * emitter.gamma) * HBAR_UEV_PS
        config["grid"]["omega_max_ueV"] = omega_max
    omega_max = _require_number(config, "grid", "omega_max_ueV", minimum=0.0, strict=True)
    return np.linspace(-omega_max, omega_max, config["grid"]["n_omega"]) / HBAR_UEV_PS


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
    if any(v <= 0.0 for v in values):
        raise ConfigError("sweep.values must be positive")
    config["sweep"]["values"] = values
    return values


# --- output writing ----------------------------------------------------------


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    return repr(float(value))


def _embeddable(config):
    embedded = copy.deepcopy(config)
    embedded.pop("output", None)  # keep artifacts relocatable
    return embedded


def write_output(subcommand, config, columns, rows, units, extra=None):
    """Write rows as CSV with '#' metadata headers, or as mirrored JSON."""
    config_json = json.dumps(_embeddable(config), sort_keys=True)
    if config["output"]["format"] == "csv":
        lines = [f"# filtered-rf {subcommand}", f"# config: {config_json}"]
        lines.append("# units: " + ", ".join(f"{c}={u}" for c, u in zip(columns, units)))
        if extra:
            for key, value in extra.items():
                lines.append(f"# {key}: {json.dumps(value, sort_keys=True)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "tool": "filtered-rf",
            "subcommand": subcommand,
            "config": json.loads(config_json),
            "columns": columns,
            "units": dict(zip(columns, units)),
            "rows": [[None if row.get(c) is None else row.get(c) for c in columns] for row in rows],
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
    emitter = build_emitter(config)
    width = resolve_filter_width(config, emitter)
    center = config["filter"]["center_over_gamma"] * emitter.gamma
    beta_lo = config["background"]["beta_lo"]
    beta_hi = config["background"]["beta_hi"]
    taus = tau_grid(config, emitter, width)
    irf = GaussianIRF(config["irf"]["fwhm_ps"]) if config["irf"]["enabled"] else None

    # Both background bounds calibrate from the one b = 0 pipeline.
    ideal = SensorPipeline(emitter, width, center)
    lo_values = calibrate_background(ideal, beta_lo).g2_values(taus)

    def smeared(values):
        return irf_convolve(CorrelationTrace(taus=taus, values=values), irf).values

    columns = ["tau_ps", "g2"]
    units = ["ps", "dimensionless"]
    series = {"g2": lo_values}
    if irf is not None:
        series["g2_irf"] = smeared(lo_values)
        columns.append("g2_irf")
        units.append("dimensionless")
    if beta_hi > beta_lo:
        hi_values = calibrate_background(ideal, beta_hi).g2_values(taus)
        series["g2_lo"] = lo_values if irf is None else series["g2_irf"]
        series["g2_hi"] = hi_values if irf is None else smeared(hi_values)
        columns += ["g2_lo", "g2_hi"]
        units += ["dimensionless", "dimensionless"]

    rows = [
        {"tau_ps": taus[i], **{name: vals[i] for name, vals in series.items()}}
        for i in range(taus.size)
    ]
    write_output("g2-trace", config, columns, rows, units)
    return 0


def _run_sweep(subcommand, config, columns, point):
    """The g2-sweep and fractions loop: one row per sweep value, in order.

    The axis is resolved once; each value becomes an (emitter, filter width)
    pair, and ``point(emitter, width)`` returns the row's columns.  A failing
    point records "<Type>: <message>" in its error column instead of stopping
    the sweep, and any failure makes the exit code 2.
    """
    emitter = build_emitter(config)
    axis = config["sweep"]["axis"]
    if axis not in ("filter-width", "rabi"):
        raise ConfigError(f"sweep.axis must be filter-width or rabi, got {axis!r}")
    values = sweep_values(config)
    if axis == "rabi":
        width = resolve_filter_width(config, emitter)
        x_column = "rabi_over_gamma"
        points = [(dataclasses.replace(emitter, rabi=x * emitter.gamma), width) for x in values]
    else:
        x_column = "filter_width_over_gamma"
        points = [(emitter, x * emitter.gamma) for x in values]

    rows = []
    for x, args in zip(values, points):
        try:
            row, error = point(*args), None
        except Exception as exc:  # per-point failure record
            row, error = {}, f"{type(exc).__name__}: {exc}"
        rows.append({**row, x_column: x, "error": error})
    columns = [x_column, *columns, "error"]
    units = ["dimensionless"] * (len(columns) - 1) + ["text"]
    write_output(subcommand, config, columns, rows, units)
    return 2 if any(row["error"] for row in rows) else 0


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
    columns = ["omega_ueV", "s_per_ueV"]
    units = ["ueV", "1/ueV"]
    values_per_uev = decomposition.values / HBAR_UEV_PS
    series = {"s_per_ueV": values_per_uev}
    spectral_fwhm = config["irf"]["spectral_fwhm_ueV"]
    if spectral_fwhm is not None:
        irf = GaussianIRF(float(spectral_fwhm) / HBAR_UEV_PS)
        series["s_irf_per_ueV"] = spectral_irf_convolve(omegas, decomposition.values, irf) / HBAR_UEV_PS
        columns.append("s_irf_per_ueV")
        units.append("1/ueV")
    rows = [
        {"omega_ueV": omegas[i] * HBAR_UEV_PS, **{k: v[i] for k, v in series.items()}}
        for i in range(omegas.size)
    ]
    components = [
        {
            "kind": c.kind,
            "center_ueV": c.center * HBAR_UEV_PS,
            "fwhm_ueV": 2.0 * c.hwhm * HBAR_UEV_PS,
            "weight": c.weight,
        }
        for c in decomposition.components
    ]
    write_output("spectrum", config, columns, rows, units, extra={"components": components})
    return 0


def cmd_transmission(config):
    emitter = build_emitter(config)
    if config["sweep"]["values"]:
        sweep_values(config)
    else:
        config["sweep"]["values"] = [float(v) for v in np.logspace(-2.0, 3.0, 101)]
    rows = []
    for rel in config["sweep"]["values"]:
        width = rel * emitter.gamma
        rows.append(
            {
                "filter_width_over_gamma": rel,
                "filter_width_ueV": width * HBAR_UEV_PS,
                "t_coherent": lorentzian_transmission(emitter.laser_linewidth, width, 0.0),
                "t_incoherent": lorentzian_transmission(emitter.gamma, width, 0.0),
            }
        )
    columns = ["filter_width_over_gamma", "filter_width_ueV", "t_coherent", "t_incoherent"]
    units = ["dimensionless", "ueV", "dimensionless", "dimensionless"]
    write_output("transmission", config, columns, rows, units)
    return 0


def cmd_fractions(config):
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


def build_parser():
    parser = _Parser(prog="filtered-rf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, help_text, needs_sweep=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file, or a previous output file")
        p.add_argument("--gamma-uev", dest="gamma_uev", type=float, help="emission rate in ueV")
        p.add_argument("--rabi", type=float, help="drive strength over gamma")
        p.add_argument("--detuning", type=float, help="emitter-laser detuning over gamma")
        p.add_argument("--laser-linewidth-nev", dest="laser_linewidth_nev", type=float)
        p.add_argument("--filter-width", dest="filter_width", type=float, help="filter FWHM over gamma")
        p.add_argument("--preset", help="named filter preset (see README)")
        p.add_argument("--filter-center", dest="filter_center", type=float, help="filter center over gamma")
        p.add_argument("--beta", type=float, help="laser background fraction")
        p.add_argument("--beta-lo", dest="beta_lo", type=float)
        p.add_argument("--beta-hi", dest="beta_hi", type=float)
        p.add_argument("--irf", dest="irf", action="store_true", default=None, help="apply the detector response")
        p.add_argument("--irf-fwhm-ps", dest="irf_fwhm_ps", type=float)
        p.add_argument("--spectral-irf-uev", dest="spectral_irf_uev", type=float)
        p.add_argument("--tau-max-ps", dest="tau_max_ps", type=float)
        p.add_argument("--n-tau", dest="n_tau", type=int)
        p.add_argument("--omega-max-uev", dest="omega_max_uev", type=float)
        p.add_argument("--n-omega", dest="n_omega", type=int)
        if needs_sweep:
            p.add_argument("--axis", choices=["filter-width", "rabi"])
            p.add_argument("--values", help="sweep points (over gamma), comma or space separated")
        p.add_argument("-o", "--output", help="output path, '-' for stdout")
        p.add_argument("--format", choices=["csv", "json"])
        return p

    add("g2-trace", "filtered g2(tau) at one parameter point")
    add("g2-sweep", "g2(0) along a filter-width or drive sweep", needs_sweep=True)
    add("spectrum", "emission spectrum and its decomposition")
    add("transmission", "elastic/inelastic filter transmission vs width", needs_sweep=True)
    add("fractions", "filtered component fractions", needs_sweep=True)
    add("selftest", "run the acceptance suite")
    return parser


COMMANDS = {
    "g2-trace": cmd_g2_trace,
    "g2-sweep": cmd_g2_sweep,
    "spectrum": cmd_spectrum,
    "transmission": cmd_transmission,
    "fractions": cmd_fractions,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ConfigError("a subcommand is required (see --help)")
        command = COMMANDS[args.subcommand]
        config = resolve_config(args)
        return command(config)
    except ConfigError as exc:
        print(f"filtered-rf: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"filtered-rf: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures and the like
        print(f"filtered-rf: computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
