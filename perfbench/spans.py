"""Span recorder for the traced benchmark run.

A span is one timed call into a public function of ``filtered_rf``: its
name, start, end, the span that made the call, whether it raised, and a
few per-call counts.  The recorder wraps each traced function in every
module namespace that bound it (``cli`` does ``from .filtercorr import
sweep_point``, several modules import ``build_liouvillian`` and
``steady_state`` directly), so patching only the defining module would
miss calls.  Classes are traced by wrapping methods on the class object,
which every binding shares.

Spans stay in memory and are written out when the run ends.  A process
forked from a traced process (the CLI's worker pool) starts with an empty
recorder of its own and appends its spans to ``spans-<pid>.jsonl`` each
time one of its root spans closes, because pool workers leave through
``os._exit`` and run no exit hooks; the parent merges those files.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# (defining module, attribute, span name).  Dotted attributes are methods.
TRACED = [
    ("filtered_rf.cli", "main", "cli.main"),
    ("filtered_rf.filtercorr", "sweep_point", "filtercorr.sweep_point"),
    ("filtered_rf.filtercorr", "calibrate_background", "filtercorr.calibrate_background"),
    ("filtered_rf.filtercorr", "eta_convergence", "filtercorr.eta_convergence"),
    ("filtered_rf.filtercorr", "SensorPipeline.__init__", "filtercorr.SensorPipeline"),
    ("filtered_rf.filtercorr", "filtered_g2", "filtercorr.filtered_g2"),
    ("filtered_rf.system", "build_liouvillian", "system.build_liouvillian"),
    ("filtered_rf.qmath", "steady_vector", "qmath.steady_vector"),
    ("filtered_rf.qmath", "Propagator.__init__", "qmath.Propagator"),
    ("filtered_rf.qmath", "Propagator.apply_grid", "qmath.Propagator.apply_grid"),
    ("filtered_rf.instrument", "irf_convolve", "instrument.irf_convolve"),
    ("filtered_rf.instrument", "spectral_irf_convolve", "instrument.spectral_irf_convolve"),
    ("filtered_rf.spectrum", "emission_spectrum", "spectrum.emission_spectrum"),
    ("filtered_rf.spectrum", "filtered_fractions", "spectrum.filtered_fractions"),
    ("filtered_rf.dynamics", "steady_state", "dynamics.steady_state"),
    ("filtered_rf.dynamics", "two_time_correlator", "dynamics.two_time_correlator"),
]
TRACED_NAMES = [name for _, _, name in TRACED]

# Spans whose totals are reported as calls and self time.
TIMED_NAMES = [name for name in TRACED_NAMES if name != "cli.main"]

COMPLEX_BYTES = 16  # one complex128 entry of a propagated state


def _attrs_apply_grid(args, kwargs, result):
    taus = int(result.shape[1])
    return {"taus": taus, "bytes_computed": COMPLEX_BYTES * int(result.shape[0]) * taus}


def _attrs_irf_convolve(args, kwargs, result):
    return {"taus": int(result.taus.size)}


def _attrs_eta_convergence(args, kwargs, result):
    return {"halvings": int(result.halvings)}


ATTRS = {
    "qmath.Propagator.apply_grid": _attrs_apply_grid,
    "instrument.irf_convolve": _attrs_irf_convolve,
    "filtercorr.eta_convergence": _attrs_eta_convergence,
}


class Recorder:
    """In-memory span store with a call stack per process."""

    def __init__(self, spans_dir=None, clock=time.perf_counter):
        self.spans = []  # [id, parent, name, start, end, error, attrs]
        self.marks = []  # [name, start, end]: intervals outside the call tree
        self.stack = []
        self.spans_dir = None if spans_dir is None else Path(spans_dir)
        self.flush_each_root = False
        self.clock = clock
        self._next_id = 0
        self._restore = []

    # --- recording -----------------------------------------------------

    def open(self, name):
        span = [self._next_id, self.stack[-1][0] if self.stack else None, name,
                self.clock(), None, False, {}]
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span, error=False, attrs=None):
        span[4] = self.clock()
        span[5] = error
        if attrs:
            span[6].update(attrs)
        self.stack.pop()
        self.spans.append(span)
        if self.flush_each_root and not self.stack:
            self.flush()

    def mark(self, name, start, end):
        self.marks.append([name, start, end])

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span, attrs=attrs_of(args, kwargs, result) if attrs_of else None)
            return result

        return traced

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name wherever it is bound; undo with uninstall()."""
        import numpy as np

        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "filtered_rf" or mod_name.startswith("filtered_rf.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

        # Eigendecomposition time inside Propagator, for its eig_share.
        eig = np.linalg.eig

        @functools.wraps(eig)
        def timed_eig(*args, **kwargs):
            start = self.clock()
            try:
                return eig(*args, **kwargs)
            finally:
                if self.stack and self.stack[-1][2] == "qmath.Propagator":
                    attrs = self.stack[-1][6]
                    attrs["eig_s"] = attrs.get("eig_s", 0.0) + self.clock() - start

        np.linalg.eig = timed_eig
        self._restore.append((np.linalg, "eig", eig))
        self._time_criteria(importlib.import_module("filtered_rf.acceptance"))
        os.register_at_fork(after_in_child=self._after_fork)

    def _time_criteria(self, acceptance):
        """Mark each acceptance criterion from the report callback of run_all."""
        run_all = acceptance.run_all

        @functools.wraps(run_all)
        def timed_run_all(report=None):
            indices = iter(idx for idx, _, _ in acceptance.CRITERIA)
            last = self.clock()

            def timed_report(line):
                nonlocal last
                self.mark(f"acceptance.criterion_{next(indices):02d}", last, self.clock())
                if report is not None:
                    report(line)
                last = self.clock()

            return run_all(report=timed_report)

        acceptance.run_all = timed_run_all
        self._restore.append((acceptance, "run_all", run_all))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def _after_fork(self):
        if not self._restore:
            return  # uninstalled: the fork hook cannot be unregistered
        self.spans = []
        self.marks = []
        self.stack = []
        self.flush_each_root = True

    # --- output ------------------------------------------------------------

    def flush(self):
        """Append this process's spans to its file in spans_dir and clear them."""
        if self.spans_dir is None or not (self.spans or self.marks):
            return
        path = self.spans_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "spans": self.spans, "marks": self.marks}) + "\n")
        self.spans = []
        self.marks = []

    def records(self):
        """Spans and marks of this process, in the merged format."""
        pid = os.getpid()
        return [[pid, *s] for s in self.spans], [list(m) for m in self.marks]


def read_spans_dir(spans_dir):
    """Merge every process's span file in spans_dir."""
    spans, marks = [], []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            block = json.loads(line)
            spans.extend([block["pid"], *s] for s in block["spans"])
            marks.extend(block["marks"])
    return spans, marks


# --- aggregation -------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` are merged records [pid, id, parent, name, start, end, error,
    attrs]; parents are looked up within the same pid.  Returns a list of
    self times in the order given.
    """
    children = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault((s[0], s[2]), []).append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get((s[0], s[1]), ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, marks):
    """Per-layer metrics from merged spans and criterion marks."""
    selfs = self_times(spans)
    by_key = {(s[0], s[1]): s for s in spans}
    calls = dict.fromkeys(TRACED_NAMES, 0)
    self_ms = dict.fromkeys(TRACED_NAMES, 0.0)
    errors = dict.fromkeys(TRACED_NAMES, 0)
    attr_sums = {}
    durations = dict.fromkeys(TRACED_NAMES, 0.0)
    pipelines_in_points = 0
    for s, own in zip(spans, selfs):
        name = s[3]
        calls[name] += 1
        self_ms[name] += own * 1e3
        durations[name] += s[5] - s[4]
        errors[name] += bool(s[6])
        for key, value in s[7].items():
            attr_sums[(name, key)] = attr_sums.get((name, key), 0) + value
        if name == "filtercorr.SensorPipeline":
            parent = by_key.get((s[0], s[2]))
            while parent is not None and parent[3] != "filtercorr.sweep_point":
                parent = by_key.get((parent[0], parent[2]))
            pipelines_in_points += parent is not None

    m = {"cli.main.self_ms": self_ms["cli.main"]}
    for name in TIMED_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = self_ms[name]
    m["filtercorr.eta_convergence.halvings"] = attr_sums.get(("filtercorr.eta_convergence", "halvings"), 0)
    points = calls["filtercorr.sweep_point"]
    m["filtercorr.pipelines_per_point"] = pipelines_in_points / points if points else 0.0
    prop = durations["qmath.Propagator"]
    m["qmath.Propagator.eig_share"] = (
        attr_sums.get(("qmath.Propagator", "eig_s"), 0.0) / prop if prop else 0.0
    )
    m["qmath.Propagator.apply_grid.taus"] = attr_sums.get(("qmath.Propagator.apply_grid", "taus"), 0)
    m["qmath.Propagator.apply_grid.bytes_computed"] = attr_sums.get(
        ("qmath.Propagator.apply_grid", "bytes_computed"), 0
    )
    m["instrument.irf_convolve.taus"] = attr_sums.get(("instrument.irf_convolve", "taus"), 0)
    m["acceptance.criterion_02.ms"] = sum(
        (end - start) * 1e3 for name, start, end in marks if name == "acceptance.criterion_02"
    )
    m["acceptance.criteria_other.ms"] = sum(
        (end - start) * 1e3 for name, start, end in marks if name != "acceptance.criterion_02"
    )
    for name in TRACED_NAMES:
        m[f"{name}.errors"] = errors[name]
    return m
