"""Spans around the program's public functions, recorded from outside.

install() replaces each listed function in its defining module and in
every maxchar module that imported it by name (level_sets.oscillation_field,
decay.maximal_values_at, cli.run_verify, ...), plus the listed Measure
methods.  uninstall() puts the originals back.  Spans stay in memory.

A span's self time is its duration minus the wrapped durations of its
child spans.  The wrapper's own bookkeeping lies outside both, and is
summed separately, so that self times plus bookkeeping plus the time
outside any span give the traced wall time.  Calls made on other threads
(verify's determinism check runs one sweep with two) overlap that wall
time: they add to the counts and to thread_s, not to the self times.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(points)


def _count_sweep(counts, args, kwargs):
    _, points, rg = args[:3]
    n = _rows(points)
    radii = rg.radii
    variant = args[3] if len(args) > 3 else kwargs.get("variant", "M")
    if variant == "Mtau":
        tau = args[4] if len(args) > 4 else kwargs.get("tau")
        radii = radii[radii < tau]
    counts["maximal.nodes"] += n
    counts["maximal.node_radius_pairs"] += n * len(radii)


def _count_oscillation(counts, args, kwargs):
    f, rg = args[:2]
    n = f.grid.node_count
    counts["maximal.nodes"] += n
    counts["maximal.node_radius_pairs"] += n * rg.count


def _count_ball_masses(counts, args, kwargs):
    counts["measure.ball_masses_calls"] += 1
    counts["measure.points_queried"] += _rows(args[1])


def _count_curve(counts, args, kwargs):
    lg = args[1] if len(args) > 1 else kwargs["lg"]
    counts["level_sets.levels"] += len(lg.lambdas)


def _count_write(counts, args, kwargs):
    content = args[1] if len(args) > 1 else kwargs["content"]
    counts["specio.bytes_written"] += len(content.encode())


# (module, function, layer, counter); a layer names the per-layer metric
# its self time feeds, a counter adds to the count metrics
FUNCTIONS = (
    ("maximal", "maximal_values_at", "maximal.sweep", _count_sweep),
    ("maximal", "maximal_field", "maximal.sweep", None),
    ("maximal", "maximal_point", "maximal.sweep", None),
    ("maximal", "oscillation_field", "maximal.oscillation",
     _count_oscillation),
    ("level_sets", "evaluation_grid", "level_sets.window", None),
    ("level_sets", "distribution_curve", "level_sets.curve", _count_curve),
    ("level_sets", "tail_verdict", "level_sets.verdict", None),
    ("level_sets", "semigroup_check", "level_sets.semigroup", None),
    ("level_sets", "distribution_experiment", "level_sets.pipeline", None),
    ("level_sets", "sobolev_experiment", "level_sets.pipeline", None),
    ("level_sets", "reverse_weak11_check", "level_sets.pipeline", None),
    ("decay", "decay_sweep", "decay.sweep", None),
    ("decay", "level_integral_slice", "decay.sweep", None),
    ("bv", "reverse_poincare_check", "bv.calculus", None),
    ("bv", "any_vector_penalty_check", "bv.calculus", None),
    ("specio", "load_measure", "specio.load", None),
    ("specio", "load_bv", "specio.load", None),
    ("specio", "load_timefield", "specio.load", None),
    ("specio", "write_text", "specio.write", _count_write),
    ("specio", "distribution_csv", "specio.write", None),
    ("specio", "decay_csv", "specio.write", None),
    ("specio", "verdict_block", "specio.write", None),
    ("specio", "decay_block", "specio.write", None),
    ("svgplot", "line_plot_svg", "svgplot.svg", None),
    ("verify", "run_verify", "verify", None),
    ("cli", "main", "cli", None),
)

MEASURE_METHODS = (
    ("ball_masses", "measure.ball_masses", _count_ball_masses),
    ("singular_support_distance", "measure.support_distance", None),
    ("mollified_density_points", "measure.mollified", None),
    ("mollified_density", "measure.mollified", None),
)

MODULES = ("maxchar", "maxchar.bv", "maxchar.cli", "maxchar.corpus",
           "maxchar.decay", "maxchar.level_sets", "maxchar.maximal",
           "maxchar.measure", "maxchar.specio", "maxchar.svgplot",
           "maxchar.verify")

SELF_METRIC = {
    "maximal.sweep": "maximal.sweep_self_s",
    "maximal.oscillation": "maximal.oscillation_s",
    "measure.ball_masses": "measure.ball_masses_s",
    "measure.support_distance": "measure.support_distance_s",
    "measure.mollified": "measure.mollified_s",
    "level_sets.window": "level_sets.window_s",
    "level_sets.curve": "level_sets.curve_s",
    "level_sets.verdict": "level_sets.verdict_s",
    "level_sets.semigroup": "level_sets.semigroup_s",
    "level_sets.pipeline": "level_sets.pipeline_self_s",
    "decay.sweep": "decay.sweep_self_s",
    "bv.calculus": "bv.calculus_s",
    "specio.load": "specio.load_s",
    "specio.write": "specio.write_s",
    "svgplot.svg": "svgplot.svg_s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}

COUNT_METRICS = ("maximal.nodes", "maximal.node_radius_pairs",
                 "measure.ball_masses_calls", "measure.points_queried",
                 "level_sets.levels", "specio.bytes_written")


class Tracer:
    def __init__(self):
        self._patches = []
        self._stack = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.thread_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []   # (layer, depth, start, end)
        self.bookkeeping_s = 0.0

    def _in_thread(self, fn, layer, counter, args, kwargs):
        b = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            c = time.perf_counter()
            with self._lock:
                self.thread_s[layer] += c - b
                if counter is not None:
                    counter(self.counts, args, kwargs)

    def _wrap(self, fn, layer, counter):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return self._in_thread(fn, layer, counter, args, kwargs)
            a = clock()
            frame = [0.0]
            stack.append(frame)
            b = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                c = clock()
                stack.pop()
                self.self_s[layer] += (c - b) - frame[0]
                self.spans.append((layer, len(stack), b, c))
                if counter is not None:
                    counter(self.counts, args, kwargs)
                d = clock()
                if stack:
                    stack[-1][0] += d - a
                self.bookkeeping_s += (b - a) + (d - c)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for mod_name, fn_name, layer, counter in FUNCTIONS:
            home = importlib.import_module(f"maxchar.{mod_name}")
            original = getattr(home, fn_name)
            wrapped = self._wrap(original, layer, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        measure = importlib.import_module("maxchar.measure").Measure
        for name, layer, counter in MEASURE_METHODS:
            original = vars(measure)[name]
            self._patches.append((measure, name, original))
            setattr(measure, name, self._wrap(original, layer, counter))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def metrics(self) -> dict:
        out = {metric: self.self_s.get(layer, 0.0)
               for layer, metric in SELF_METRIC.items()}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out
