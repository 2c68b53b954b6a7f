"""The names the benchmark's tracer and worker reach into the package by.

perfbench/tracer.py wraps functions and Measure methods by name and reads
some of their positional arguments; perfbench/worker.py rebinds three
experiments in the cli module.  A rename or deletion there breaks a traced
benchmark run, so these tests install the tracer against the live package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from maxchar import cli
from maxchar.measure import Measure

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# positional parameters the tracer's counters read, by wrapped name
COUNTED = {
    "maximal_values_at": ("mu", "points", "rg", "variant", "tau"),
    "oscillation_field": ("f", "rg"),
    "distribution_curve": ("field", "lg"),
    "write_text": ("path", "content"),
    "ball_masses": ("self", "points"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = {}
    for mod_name, fn_name, _, _ in tracer.FUNCTIONS:
        home = importlib.import_module(f"maxchar.{mod_name}")
        originals[mod_name, fn_name] = getattr(home, fn_name)
    methods = {name: vars(Measure)[name]
               for name, _, _ in tracer.MEASURE_METHODS}
    t = tracer.Tracer()
    t.install()
    try:
        for (mod_name, fn_name), fn in originals.items():
            home = importlib.import_module(f"maxchar.{mod_name}")
            assert getattr(home, fn_name).__wrapped__ is fn, fn_name
        for name, fn in methods.items():
            assert vars(Measure)[name].__wrapped__ is fn, name
    finally:
        t.uninstall()
    for (mod_name, fn_name), fn in originals.items():
        home = importlib.import_module(f"maxchar.{mod_name}")
        assert getattr(home, fn_name) is fn, fn_name
    for name, fn in methods.items():
        assert vars(Measure)[name] is fn, name


def test_counted_arguments_keep_their_positions():
    tracer = _load_tracer()
    functions = {fn_name: getattr(importlib.import_module(
        f"maxchar.{mod_name}"), fn_name)
        for mod_name, fn_name, _, _ in tracer.FUNCTIONS}
    functions.update({name: vars(Measure)[name]
                      for name, _, _ in tracer.MEASURE_METHODS})
    for name, params in COUNTED.items():
        got = tuple(inspect.signature(functions[name]).parameters)
        assert got[:len(params)] == params, name


def test_worker_rebinds_cli_experiments():
    for name in ("distribution_experiment", "sobolev_experiment",
                 "decay_sweep"):
        assert callable(getattr(cli, name)), name
