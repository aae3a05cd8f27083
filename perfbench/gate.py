"""Reference gate: compare each op's output with the stored reference.

Tolerances.  g2, fractions, transmissions and every grid column use an
absolute tolerance of 1e-5 * max(1, |ref|).  It admits the two documented
shifts a correct refactor may make: the exact vanishing-coupling limit
moves filtered g2 by at most 1.1e-6 against today's finite protocol
coupling, and the closed-form Gaussian-IRF convolution moves it by at most
4.4e-7 against today's grid convolution.  It still catches a wrong
calibration: beta off by 1 % moves g2(0) by 4e-5 (width 0.01 gamma) to
6e-3 (150 gamma) on these pools.  A changed tau or omega grid fails on
the grid column of the CLI artifact itself.  Spectra span many decades,
so their values and pole components use a relative tolerance of 1e-6
(plus 1e-12 of the largest value, for entries that are exactly zero).
"""

from __future__ import annotations

import json
import re

import numpy as np

ABS_TOL = 1e-5
SPECTRUM_RTOL = 1e-6
SPECTRUM_FLOOR = 1e-12
SPECTRUM_COLUMNS = ("s_per_ueV", "s_irf_per_ueV")
COMPONENT_FIELDS = ("center_ueV", "fwhm_ueV", "weight")

_CRITERION_LINE = re.compile(r"^\[(PASS|FAIL)\] criterion\s+(\d+) ")


class Mismatch(Exception):
    """An op's output differs from its reference."""


def _check(what, got, ref, allowed):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise Mismatch(f"{what}: shape {got.shape} != reference {ref.shape}")
    bad = ~(np.abs(got - ref) <= allowed(ref))
    if bad.any():
        i = int(np.argmax(bad))
        raise Mismatch(f"{what}[{i}] = {got.flat[i]!r}, reference {ref.flat[i]!r}")


def check_abs(what, got, ref):
    _check(what, got, ref, lambda r: ABS_TOL * np.maximum(1.0, np.abs(r)))


def check_rel(what, got, ref):
    _check(what, got, ref,
           lambda r: SPECTRUM_RTOL * np.abs(r) + SPECTRUM_FLOOR * np.max(np.abs(r), initial=0.0))


# --- CLI artifacts -------------------------------------------------------------


def parse_csv(text):
    """Columns (numbers as floats, the error column as text) and pole components."""
    lines = text.splitlines()
    components = None
    body = []
    for line in lines:
        if line.startswith("# components: "):
            components = json.loads(line[len("# components: "):])
        elif not line.startswith("#"):
            body.append(line)
    header = body[0].split(",")
    cells = [row.split(",") for row in body[1:]]
    columns = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in cells]
        columns[name] = raw if name == "error" else [float(v) for v in raw]
    return {"header": header, "columns": columns, "components": components}


def check_artifact(op_id, got, ref):
    """Compare a parsed CLI artifact with its reference (same structure)."""
    if got["header"] != ref["header"]:
        raise Mismatch(f"{op_id}: columns {got['header']} != reference {ref['header']}")
    for name in ref["header"]:
        what = f"{op_id}:{name}"
        if name == "error":
            if got["columns"][name] != ref["columns"][name]:
                errors = [e for e in got["columns"][name] if e]
                raise Mismatch(f"{what}: {errors[:1] or got['columns'][name][:1]}")
        elif name in SPECTRUM_COLUMNS:
            check_rel(what, got["columns"][name], ref["columns"][name])
        else:
            check_abs(what, got["columns"][name], ref["columns"][name])
    if (got["components"] is None) != (ref["components"] is None):
        raise Mismatch(f"{op_id}: components present in only one of output and reference")
    if ref["components"] is not None:
        kinds = [c["kind"] for c in got["components"]]
        ref_kinds = [c["kind"] for c in ref["components"]]
        if kinds != ref_kinds:
            raise Mismatch(f"{op_id}: component kinds {kinds} != reference {ref_kinds}")
        for field in COMPONENT_FIELDS:
            check_rel(
                f"{op_id}:components.{field}",
                [c[field] for c in got["components"]],
                [c[field] for c in ref["components"]],
            )


# --- sweep rows and selftest -----------------------------------------------------


def check_row(op_id, got, ref):
    for key, value in ref.items():
        check_abs(f"{op_id}:{key}", got[key], value)


def parse_selftest(returncode, stdout):
    """Exit code and per-criterion PASS/FAIL of a selftest process."""
    status = {}
    for line in stdout.splitlines():
        match = _CRITERION_LINE.match(line)
        if match:
            status[match.group(2)] = match.group(1)
    return {"returncode": returncode, "status": status}


def check_selftest(got, ref):
    """Same exit code and the same failing criteria (today 5, 6 and 8 of 12)."""
    if got["returncode"] != ref["returncode"]:
        raise Mismatch(f"selftest exit code {got['returncode']}, expected {ref['returncode']}")
    if got["status"] != ref["status"]:
        failing = sorted(int(i) for i, st in got["status"].items() if st == "FAIL")
        expected = sorted(int(i) for i, st in ref["status"].items() if st == "FAIL")
        raise Mismatch(
            f"selftest criteria {sorted(map(int, got['status']))} failing {failing}, "
            f"expected {sorted(map(int, ref['status']))} failing {expected}"
        )
