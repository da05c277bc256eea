"""In-memory span tracer that wraps crackwave's layer functions from the
outside.

Each wrap point names a function (or a method of CauchyFactorization) by its
defining module.  Installing the tracer replaces that function at every
crackwave module that holds a reference to it -- every import site -- so
calls are traced whichever module makes them; uninstalling puts the
original object back at each of those sites.  Single-threaded: spans nest
on one stack, each span records its caller's span as parent, and a span's
self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name).  "{site}" in a span name is the
# short name of the module the call goes through, so one function imported
# in two layers is reported per layer.
FUNCTIONS = (
    ("crackwave.cli", "main", "cli.main"),
    ("crackwave.kernel", "factorize", "kernel.factorize"),
    ("crackwave.loading", "build_split", "loading.build_split"),
    ("crackwave.loading", "split_coefficients", "loading.split_coefficients"),
    ("crackwave.loading", "liouville_constant", "loading.liouville_constant"),
    ("crackwave.numerics", "oscillatory_halfline", "numerics.oscillatory_halfline"),
    ("crackwave.numerics", "power_tail", "numerics.power_tail"),
    ("crackwave.numerics", "panel_sums", "numerics.panel_sums"),
    ("crackwave.numerics", "contour_coefficients", "numerics.contour_coefficients"),
    ("crackwave.numerics", "fit_power_tail", "numerics.fit_power_tail"),
    ("crackwave.numerics", "bracketed_root", "{site}.bracketed_root"),
    ("crackwave.fields", "crack_opening", "fields.crack_opening"),
    ("crackwave.fields", "traction_ahead", "fields.traction_ahead"),
    ("crackwave.fields", "stresses_on_line", "fields.stresses_on_line"),
    ("crackwave.fields", "field_profile", "fields.field_profile"),
    ("crackwave.fields", "max_total_shear", "fields.max_total_shear"),
    ("crackwave.fields", "neartip_coefficients", "fields.neartip_coefficients"),
    ("crackwave.fields", "balance_integral", "fields.balance_integral"),
    ("crackwave.energy", "err_result", "energy.err_result"),
    ("crackwave.dispersion", "trace_curve", "dispersion.trace_curve"),
    ("crackwave.material", "critical_speed", "material.critical_speed"),
    ("crackwave.material", "h0_star", "material.h0_star"),
)

# (defining module, class, method, span name); both boundary-value methods
# are one layer, the fast evaluation path of the factorization.
METHODS = (
    ("crackwave.kernel", "CauchyFactorization", "theta_exact", "kernel.theta_exact"),
    ("crackwave.kernel", "CauchyFactorization", "cauchy_integral", "kernel.cauchy_integral"),
    ("crackwave.kernel", "CauchyFactorization", "k_plus", "kernel.k_plus"),
    ("crackwave.kernel", "CauchyFactorization", "k_plus_line", "kernel.k_line"),
    ("crackwave.kernel", "CauchyFactorization", "k_minus_line", "kernel.k_line"),
)


def _panel_nodes(fn):
    """Counter: quadrature nodes of one panel_sums call, (len(edges)-1)*order."""
    sig = inspect.signature(fn)

    def probe(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counters["numerics.panel_nodes"] += (len(bound.arguments["edges"]) - 1) \
            * bound.arguments["order"]
    return probe


def _dispersion_points(fn):
    def probe(tracer, args, kwargs, result):
        tracer.counters["dispersion.points"] += len(result)
    return probe


def _crosscheck(fn):
    """Gauge: largest |F - F_alt|/|F| over the splits built."""
    def probe(tracer, args, kwargs, result):
        if result.F_alt is not None and result.F != 0:
            rel = abs(result.F - result.F_alt) / abs(result.F)
            key = "loading.F_crosscheck_rel_max"
            tracer.gauges[key] = max(tracer.gauges.get(key, 0.0), rel)
    return probe


PROBES = {
    "numerics.panel_sums": _panel_nodes,
    "dispersion.trace_curve": _dispersion_points,
    "loading.build_split": _crosscheck,
}


def _crackwave_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "crackwave" or name.startswith("crackwave."))]


class Tracer:
    """Collects spans and counters while installed (see ``installed``)."""

    def __init__(self):
        self.spans = []      # (span id, parent id or -1, name, start, end, self)
        self.counters = defaultdict(int)
        self.gauges = {}
        self._stack = []     # [span id, name, start, child time]
        self._ids = itertools.count()
        self._patched = []   # (owner, attribute, original)

    # -- spans ----------------------------------------------------------
    def _wrap(self, fn, name):
        probe = PROBES.get(name)
        probe = probe(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[2]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[3] += dur
                self.spans.append((frame[0], parent[0] if parent else -1, name,
                                   frame[2], end, dur - frame[3]))
            if probe is not None:
                probe(self, args, kwargs, result)
            return result
        return traced

    # -- install / uninstall ----------------------------------------------
    def sites(self):
        """(owner, attribute, original, span name) for every wrap point at
        every import site currently loaded."""
        out = []
        modules = _crackwave_modules()
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    site = mod.__name__.rpartition(".")[2]
                    out.append((mod, attr, original, name.format(site=site)))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            out.append((cls, meth, cls.__dict__[meth], name))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block; the originals are
        restored on exit, also when the block raises."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, original, name in self.sites():
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    # -- aggregation -----------------------------------------------------
    def summary(self, passes: int = 1) -> dict:
        """Per-pass figures per span name: calls, total_s, self_s, and the
        median duration p50_ms over all spans of that name."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durs = defaultdict(list)
        for _, _, name, start, end, own in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            durs[name].append(end - start)
        out = {}
        for name in calls:
            out[name] = {
                "calls": calls[name] / passes,
                "total_s": total[name] / passes,
                "self_s": self_s[name] / passes,
                "p50_ms": 1e3 * statistics.median(durs[name]),
            }
        return out
