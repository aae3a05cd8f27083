"""The benchmark workloads: input pools, seeded rounds and their ops.

Every workload is a closed loop with one client.  The seed drives a
``random.Random`` that deals the ops in rounds: each round draws a subset
of the fixed input pool in a shuffled order, stratified so that every
round costs about the same (a round of ``sweep-irf`` holds every filter
width once, with a drawn drive strength).  Reference outputs exist for
the whole pool, so every seed is checked.  Op ids read
``<kind>:<variant>``; a round of ``cli-figures`` takes one variant of
each kind.

Inputs follow the README figure commands: gamma = 20 ueV, laser linewidth
10 neV, detector IRF 37.5 ps, background fraction from 0 to 0.2, and the
etalon preset width 5.8 ueV = 0.29 gamma.

This module imports only the standard library at load time, so the
set-up probe in ``child.py`` can import it before starting its clock.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references"

GAMMA_UEV = 20.0
LASER_LINEWIDTH_UEV = 0.010
IRF_FWHM_PS = 37.5
ETALON_UEV = 5.8
BETA_HI = 0.2
FIG2A_WIDTHS = (150.0, 23.0, 4.85, 0.85, 0.29, 0.0125)
CLI_TIMEOUT_S = 60.0


def _log_pool(lo, hi, n):
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return [float(f"{10 ** (math.log10(lo) + i * step):.4g}") for i in range(n)]


def _lin_pool(lo, hi, n):
    return [float(f"{lo + i * (hi - lo) / (n - 1):.4g}") for i in range(n)]


def child_env():
    """Environment of every child process: this checkout's sources, pinned threads."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(args):
    """Run a child in its own process group, so a timeout also stops its pool workers."""
    with subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


class Workload:
    """Base: a named pool of ops, dealt in seeded rounds."""

    name = ""
    in_process = False
    trace_rounds = 1
    trace_extra = ()

    def __init__(self):
        self.pool = self.make_pool()

    def make_pool(self):
        raise NotImplementedError

    def next_round(self, rng):
        raise NotImplementedError

    def rounds(self, rng):
        while True:
            yield self.next_round(rng)

    def trace_ops(self, seed):
        """The fixed op list of a traced run: the first trace_rounds rounds."""
        rounds = self.rounds(random.Random(seed))
        return [op for _ in range(self.trace_rounds) for op in next(rounds)] + list(self.trace_extra)

    def set_up(self):
        """What the user pays before the first op: import (and a warm-up op)."""
        raise NotImplementedError

    def run(self, op_id, workdir, spans_dir=None):
        """Execute one op; return its output in reference form."""
        raise NotImplementedError

    def check(self, op_id, output, references):
        raise NotImplementedError

    def load_references(self):
        return json.loads(gzip.decompress((REFERENCES / f"{self.name}.json.gz").read_bytes()))

    def save_references(self, outputs):
        text = json.dumps(outputs, sort_keys=True)
        (REFERENCES / f"{self.name}.json.gz").write_bytes(gzip.compress(text.encode(), mtime=0))


# --- cold CLI processes ----------------------------------------------------------


class CliFigures(Workload):
    """README commands as cold processes, one variant of each per round.

    The timed rounds hold the figure commands.  ``selftest`` runs only in
    the traced list: at about 10 s a process it would starve the figure
    commands of samples, and it is the only op that reaches ``acceptance``
    and ``dynamics.two_time_correlator``.
    """

    name = "cli-figures"
    trace_extra = ("selftest",)

    def make_pool(self):
        pool = {}
        for w in (0.29, 0.85, 4.85):
            trace = ["g2-trace", "--filter-width", f"{w:g}", "--rabi", "0.5"]
            pool[f"g2-trace:w{w:g}"] = trace
            pool[f"g2-trace-irf-band:w{w:g}"] = [*trace, "--irf", "--beta-hi", "0.2"]
        pool["g2-sweep-fig2a-irf"] = [
            "g2-sweep", "--axis", "filter-width", "--values", "150,23,4.85,0.85,0.29,0.0125", "--irf",
        ]
        pool["g2-sweep-fig4a"] = ["g2-sweep", "--axis", "rabi", "--values", "1,2,3,4,5,6", "--preset", "etalon"]
        pool["g2-sweep-band"] = [
            "g2-sweep", "--axis", "filter-width", "--values", "0.05,0.1,0.29,1", "--beta-hi", "0.2",
        ]
        for r in (0.5, 2.0, 4.0):
            pool[f"spectrum:r{r:g}"] = ["spectrum", "--rabi", f"{r:g}"]
        for r in (0.5, 2.0):
            pool[f"spectrum-irf:r{r:g}"] = ["spectrum", "--rabi", f"{r:g}", "--spectral-irf-uev", "1.5"]
        pool["transmission"] = ["transmission"]
        pool["fractions-fig4b"] = ["fractions", "--axis", "rabi", "--values", "0.5,1,2,4", "--preset", "etalon"]
        pool["selftest"] = ["selftest"]
        return pool

    def next_round(self, rng):
        kinds = {}
        for op_id in self.pool:
            if op_id not in self.trace_extra:
                kinds.setdefault(op_id.split(":")[0], []).append(op_id)
        ops = [rng.choice(variants) for variants in kinds.values()]
        rng.shuffle(ops)
        return ops

    def set_up(self):
        import filtered_rf.cli  # noqa: F401

    def run(self, op_id, workdir, spans_dir=None):
        from perfbench import gate

        if spans_dir is None:
            command = ["-m", "filtered_rf.cli", *self.pool[op_id]]
        else:
            command = ["-m", "perfbench.child", "cli", str(spans_dir), *self.pool[op_id]]
        if op_id == "selftest":
            proc = _run_child(command)
            return gate.parse_selftest(proc.returncode, proc.stdout)
        out = Path(workdir) / "artifact.csv"
        out.unlink(missing_ok=True)
        proc = _run_child([*command, "-o", str(out)])
        if proc.returncode != 0:
            raise gate.Mismatch(f"{op_id}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return gate.parse_csv(out.read_text(encoding="utf-8"))

    def check(self, op_id, output, references):
        from perfbench import gate

        if op_id == "selftest":
            gate.check_selftest(output, references[op_id])
        else:
            gate.check_artifact(op_id, output, references[op_id])


# --- in-process sweep points ------------------------------------------------------


class SweepWorkload(Workload):
    """One ``filtercorr.sweep_point`` call per op, background 0 to 0.2."""

    in_process = True
    irf = False
    warm_up_op = ""

    def set_up(self):
        self.run(self.warm_up_op, None)

    def run(self, op_id, workdir, spans_dir=None):
        from filtered_rf import filtercorr
        from filtered_rf.instrument import GaussianIRF
        from filtered_rf.system import HBAR_UEV_PS, EmitterParams

        axis, x, rabi, width = self.pool[op_id]
        gamma = GAMMA_UEV / HBAR_UEV_PS
        emitter = EmitterParams(
            gamma=gamma, rabi=rabi * gamma, laser_linewidth=LASER_LINEWIDTH_UEV / HBAR_UEV_PS
        )
        irf = GaussianIRF(IRF_FWHM_PS) if self.irf else None
        row = filtercorr.sweep_point(
            emitter, axis, x * gamma, None if width is None else width / HBAR_UEV_PS,
            0.0, 0.0, BETA_HI, irf,
        )
        return {key: float(row[key]) for key in ("g2_ideal", "g2_lo", "g2_hi")}

    def check(self, op_id, output, references):
        from perfbench import gate

        gate.check_row(op_id, output, references[op_id])


class SweepIrf(SweepWorkload):
    """Filter-width sweep points with the 37.5 ps detector response."""

    name = "sweep-irf"
    irf = True
    warm_up_op = "w0.29:r0.5"
    rabis = (0.5, 2.0)

    def make_pool(self):
        self.widths = sorted(set(_log_pool(0.0125, 150.0, 10)) | set(FIG2A_WIDTHS))
        return {
            f"w{w:g}:r{r:g}": ("filter_width", w, r, None)
            for w in self.widths for r in self.rabis
        }

    def next_round(self, rng):
        ops = [f"w{w:g}:r{rng.choice(self.rabis):g}" for w in self.widths]
        rng.shuffle(ops)
        return ops


class SweepZero(SweepWorkload):
    """Zero-delay sweep points without IRF: rabi axis at the etalon, width axis."""

    name = "sweep-zero"
    trace_rounds = 2
    warm_up_op = "rabi2:w5.8ueV"
    per_axis = 12

    def make_pool(self):
        pool = {f"rabi{r:g}:w5.8ueV": ("rabi", r, 0.5, ETALON_UEV) for r in _lin_pool(0.3, 6.0, 16)}
        pool["rabi2:w5.8ueV"] = ("rabi", 2.0, 0.5, ETALON_UEV)
        self.rabi_ops = sorted(pool)
        widths = {f"w{w:g}:r0.5": ("filter_width", w, 0.5, None) for w in _log_pool(0.01, 150.0, 16)}
        self.width_ops = sorted(widths)
        pool.update(widths)
        return pool

    def next_round(self, rng):
        ops = rng.sample(self.rabi_ops, self.per_axis) + rng.sample(self.width_ops, self.per_axis)
        rng.shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (CliFigures, SweepIrf, SweepZero)}


def get(name):
    return WORKLOADS[name]()
