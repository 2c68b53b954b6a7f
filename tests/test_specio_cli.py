"""Spec-file IO, artifact writers, and the command line contract."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from maxchar import cli, decay
from maxchar.bv import BVFunction1D
from maxchar.cli import main
from maxchar.decay import DecayReport, TimeField
from maxchar.errors import SpecSchemaError
from maxchar.geometry import UniformGrid
from maxchar.level_sets import PERSISTS, DistributionCurve, TailVerdict
from maxchar.measure import Measure
from maxchar.specio import (
    decay_block,
    decay_csv,
    distribution_csv,
    fmt,
    load_bv,
    load_measure,
    load_timefield,
    verdict_block,
    write_text,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _experiment_cases():
    """CASES of scripts/run_experiments.py, the one list of golden runs."""
    path = SPECS.parent / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


EXPERIMENT_CASES = _experiment_cases()


_BAD = object()  # the one bad value of a drawn spec


@st.composite
def _spec_with_one_bad_value(draw):
    """A measure spec's text with random whitespace, \\uXXXX escapes of key
    characters and key order; one value, a top-level dimension or an
    atom's weight, is a string.  Also the line of that value's key and
    the error it raises."""
    atoms = draw(st.integers(0, 3))
    bad = draw(st.integers(0, atoms))  # atoms: the dimension
    spec = {"dimension": _BAD if bad == atoms else 1,
            "note": draw(st.sampled_from(['weight', '{"weight": [', ''])),
            "atoms": [{"location": [0.5 * i],
                       "weight": _BAD if i == bad else 1.0}
                      for i in range(atoms)]}
    out, lines = [], []

    def space():
        out.append(draw(st.text(" \t\n", max_size=3)))

    def emit(value):
        if isinstance(value, dict):
            out.append("{")
            for i, key in enumerate(draw(st.permutations(list(value)))):
                out.append("," * bool(i))
                space()
                if value[key] is _BAD:
                    lines.append("".join(out).count("\n") + 1)
                out.append('"' + "".join(
                    f"\\u{ord(c):04x}" if draw(st.booleans()) else c
                    for c in key) + '"')
                space()
                out.append(":")
                space()
                emit("x" if value[key] is _BAD else value[key])
                space()
            out.append("}")
        elif isinstance(value, list):
            out.append("[")
            for i, item in enumerate(value):
                out.append("," * bool(i))
                space()
                emit(item)
            space()
            out.append("]")
        else:
            out.append(json.dumps(value))

    emit(spec)
    message = ("key 'dimension' in measure has type string" if bad == atoms
               else "key 'weight' in atom has type string")
    return "".join(out), lines[0], message


class TestLoaders:
    def test_unit_atom_spec(self):
        mu = load_measure(SPECS / "unit_atom.json")
        assert isinstance(mu, Measure)
        assert mu.atoms == (((0.0,), 1.0),)
        assert mu.total_variation() == 1.0

    def test_density_spec(self):
        mu = load_measure(SPECS / "chi_density.json")
        assert mu.density is not None
        assert mu.total_variation() == pytest.approx(1.0)

    def test_bv_spec(self):
        f = load_bv(SPECS / "tent.json")
        assert isinstance(f, BVFunction1D)
        assert f.value(0.0) == pytest.approx(1.0)
        assert f.total_variation() == pytest.approx(2.0)

    def test_timefield_spec(self):
        tf = load_timefield(SPECS / "sign_field.json")
        assert isinstance(tf, TimeField)
        assert tf.times == (0.5,)
        assert tf.ball_center == (0.5,)
        assert tf.slices[0].total_variation() == pytest.approx(2.0)

    def test_bad_value_reports_key_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "dimension": 1,\n'
                     '  "atoms": [{"location": "zero", "weight": 1.0}]\n}\n')
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert f"{p}:3:" in str(exc.value)
        assert "type str" in str(exc.value)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "syntax.json"
        p.write_text('{\n  "dimension": 1,\n  "atoms": [\n}\n')
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert "invalid JSON" in str(exc.value)
        assert ":4:" in str(exc.value)

    def test_key_line_skips_equal_values(self, tmp_path):
        # the string "dimension" on line 2 is a value, not the key
        p = tmp_path / "d3.json"
        p.write_text('{\n  "note": "dimension",\n  "dimension": 3\n}\n')
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert str(exc.value).startswith(f"{p}:3: dimension must be 1 or 2")

    @pytest.mark.parametrize("lines,line,message", [
        # the second atom's location, not the first's
        (['{', '  "dimension": 1,', '  "atoms": [',
          '    {"location": [0.0], "weight": 1.0},',
          '    {"location": ["abc"], "weight": 1.0}', '  ]', '}'],
         5, "key 'location' must hold numbers"),
        # the measure's density, not the curve's density key above it
        (['{', '  "dimension": 2,',
          '  "curves": [{"points": [[0, 0], [1, 1]], "density": 1.0}],',
          '  "density": {"origin": [0, 0], "spacing": -0.1,',
          '              "values": [[1.0]]}', '}'],
         4, "bad density grid"),
        # the curve's density, not the measure's density key above it
        (['{', '  "dimension": 2,',
          '  "density": {"origin": [0, 0], "spacing": 0.1,',
          '              "values": [[1.0]]},',
          '  "curves": [{"points": [[0, 0], [1, 1]], "density": "x"}]',
          '}'],
         5, "key 'density' in curve has type string"),
        # a key written with a JSON escape is the key JSON reads
        (['{', '  "note": 1,', '  "dim\\u0065nsion": "a"', '}'],
         3, "key 'dimension' in measure has type string"),
        # a missing key: the brace of the object that lacks it
        (['{', '  "dimension": 1,', '  "atoms": [',
          '    {"location": 0.0, "weight": 1.0},', '    {"weight": 1.0}',
          '  ]', '}'],
         5, "missing required key 'location' in atom"),
    ], ids=["second-atom", "density-after-curve", "curve-after-density",
            "escaped-key", "missing-key"])
    def test_error_names_the_entry_at_fault(self, tmp_path, capsys, lines,
                                            line, message):
        p = tmp_path / "entry.json"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert str(exc.value).startswith(f"{p}:{line}: {message}")
        assert main(["distcurve", "--input", str(p)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}:{line}: ")

    def test_error_names_the_slice_at_fault(self, tmp_path):
        # two 2D density slices; the second's values hold a string
        p = tmp_path / "tf.json"
        slice_2d = ('    {{"dimension": 2, "density": {{"origin": [0, 0], '
                    '"spacing": 0.1, "values": [[{}]]}}}}')
        p.write_text("\n".join([
            '{', '  "times": [0.25, 0.75],', '  "slices": [',
            slice_2d.format("1.0") + ",", slice_2d.format('"a"'), '  ],',
            '  "ball": {"center": [0.0, 0.0], "radius": 1.0}', '}']) + "\n")
        with pytest.raises(SpecSchemaError) as exc:
            load_timefield(p)
        assert str(exc.value).startswith(
            f"{p}:5: key 'values' must hold numbers")

    @pytest.mark.parametrize("lines,line,key", [
        # the repeat in the second atom, not the first atom's line
        (['{', '  "dimension": 1,',
          '  "atoms": [{"location": 0.0, "weight": 1.0},',
          '    {"location": 1.0, "weight": 1.0, "weight": "x"}]', '}'],
         4, "weight"),
        # a repeat in the first atom, ahead of the second atom's bad value
        (['{', '  "dimension": 1,', '  "atoms": [',
          '    {"location": [0.0], "location": [0.5], "weight": 1.0},',
          '    {"location": ["abc"], "weight": 1.0}', '  ]', '}'],
         4, "location"),
        # the first repeat in the text, though the inner object closes first
        (['{"dimension": 1,', ' "dimension": 1,',
          ' "atoms": [{"location": 0.0, "weight": 1.0, "weight": 2.0}]}'],
         2, "dimension"),
        # keys are compared as JSON reads them; strings are not keys
        (['{"dimension": 1, "note": "{\\"atoms\\": [",',
          ' "atoms": [{"location": 0.0, "weight": 1.0,',
          '            "w\\u0065ight": 2.0}]}'],
         3, "weight"),
        # seen before the parser reaches the stray brace after it
        (['{"dimension": 1,', ' "dimension": 1}}'], 2, "dimension"),
    ], ids=["second-atom", "first-atom", "text-order", "escaped-key",
            "trailing-junk"])
    def test_duplicate_key_names_the_repeat(self, tmp_path, capsys, lines,
                                            line, key):
        p = tmp_path / "dup.json"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert str(exc.value) == f"{p}:{line}: duplicate key '{key}'"
        assert main(["distcurve", "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}:{line}: duplicate key '{key}'\n")

    def test_duplicate_config_key_names_the_repeat(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "h": 0.01,\n  "h": 0.02\n}\n')
        assert main(["distcurve", "--input", str(SPECS / "unit_atom.json"),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: duplicate key 'h'\n")

    # each case is named by the value and the Python type it parses to
    @pytest.mark.parametrize("value,kind", [
        pytest.param('"false"', "string", id='"false"-str'),
        pytest.param("0", "number", id="0-int")])
    def test_compact_support_must_be_a_bool(self, tmp_path, capsys, value,
                                            kind):
        p = tmp_path / "ramp.json"
        p.write_text('{"breakpoints": [0.0, 1.0], "slopes": [1.0],\n'
                     f' "compact_support": {value}}}\n')
        message = f"{p}:2: key 'compact_support' in function has type {kind}"
        with pytest.raises(SpecSchemaError) as exc:
            load_bv(p)
        assert str(exc.value) == message
        assert main(["sobolev", "--input", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_walk_past_the_recursion_limit_names_a_line(self, tmp_path,
                                                        capsys):
        # nesting deeper than the interpreter's recursion limit allows a
        # recursive walk: the key's line is still found, with no traceback
        p = tmp_path / "deep.json"
        p.write_text('{"x": ' + "[" * 900 + "]" * 900
                     + ',\n "dimension": "a"}\n')
        assert main(["distcurve", "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}:2: key 'dimension' in measure has type string\n")

    def test_escaped_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "expect": "persists",\n  "\\u0068": "x"\n}\n')
        assert main(["distcurve", "--input", str(SPECS / "unit_atom.json"),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: config key 'h' must be a number\n")

    # each case is named by the value and the Python type it parses to
    @pytest.mark.parametrize("value,kind", [
        pytest.param("null", "null", id="null-NoneType"),
        pytest.param("true", "boolean", id="true-bool"),
        pytest.param("5", "number", id="5-int"),
        pytest.param("{}", "object", id="{}-dict"),
        pytest.param('"ab"', "string", id='"ab"-str')])
    @pytest.mark.parametrize("command,head,key,where", [
        ("distcurve", '"dimension": 1', "atoms", "measure"),
        ("distcurve", '"dimension": 2', "curves", "measure"),
        ("sobolev", '"breakpoints": [0.0, 1.0], "slopes": [1.0]', "jumps",
         "function"),
    ], ids=["atoms", "curves", "jumps"])
    def test_optional_lists_must_be_lists(self, tmp_path, capsys, command,
                                          head, key, where, value, kind):
        p = tmp_path / "spec.json"
        p.write_text(f'{{\n  {head},\n  "{key}": {value}\n}}\n')
        assert main([command, "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}:3: key '{key}' in {where} has type {kind}\n")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_error_line_is_the_bad_keys_line(self, tmp_path_factory, data):
        text, line, message = data.draw(_spec_with_one_bad_value())
        p = tmp_path_factory.getbasetemp() / "one_bad_value.json"
        p.write_text(text)
        with pytest.raises(SpecSchemaError) as exc:
            load_measure(p)
        assert str(exc.value) == f"{p}:{line}: {message}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecSchemaError):
            load_measure(tmp_path / "absent.json")

    def test_dimension_must_be_low(self, tmp_path):
        p = tmp_path / "d3.json"
        p.write_text('{"dimension": 3}\n')
        with pytest.raises(SpecSchemaError, match="1 or 2"):
            load_measure(p)

    def test_slice_count_mismatch(self, tmp_path):
        p = tmp_path / "tf.json"
        p.write_text(json.dumps({
            "times": [0.25, 0.75],
            "slices": [{"dimension": 1, "atoms": []}],
            "ball": {"center": [0.0], "radius": 1.0},
        }))
        with pytest.raises(SpecSchemaError, match="2 times but 1 slices"):
            load_timefield(p)

    def test_jump_entries_are_pairs(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('{"breakpoints": [], "jumps": [[0.0]]}\n')
        with pytest.raises(SpecSchemaError, match="pair"):
            load_bv(p)

    def test_timefield_slices_accept_functions(self, tmp_path):
        p = tmp_path / "tf.json"
        p.write_text(json.dumps({
            "times": [0.5],
            "slices": [{"breakpoints": [-1.0, 0.0, 1.0],
                        "slopes": [1.0, -1.0], "compact_support": True}],
            "ball": {"center": 0.0, "radius": 1.0},
        }))
        tf = load_timefield(p)
        assert tf.slices[0].total_variation() == pytest.approx(2.0,
                                                               rel=1e-12)

    def test_2d_measure_with_curve(self, tmp_path):
        p = tmp_path / "curve.json"
        p.write_text(json.dumps({
            "dimension": 2,
            "curves": [{"points": [[-1.0, 0.0], [1.0, 0.0]],
                        "density": 1.5}],
        }))
        mu = load_measure(p)
        assert mu.total_variation() == pytest.approx(3.0)


class TestWriters:
    def test_fmt(self):
        assert fmt(1.0) == "1"
        assert fmt(0.5) == "0.5"
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(1e-06) == "1e-06"

    def test_distribution_csv(self):
        curve = DistributionCurve(lambdas=(1.0, 2.0), volumes=(1.0, 0.25),
                                  flags=(False, True))
        assert distribution_csv(curve) == (
            "lambda,volume,product,flag\n1,1,1,0\n2,0.25,0.5,1\n")

    def test_decay_csv(self):
        rep = DecayReport(deltas=(0.1, 0.01), q_values=(0.5, 0.25),
                          liminf_est=0.25, limsup_est=0.5,
                          verdict="inconclusive",
                          singular_mass_timeintegral=0.0,
                          singular_mass_timeintegral_closed=0.0,
                          threshold=0.1)
        assert decay_csv(rep) == "delta,Q\n0.1,0.5\n0.01,0.25\n"
        block = decay_block(rep)
        assert block.startswith("verdict=inconclusive\n")
        assert "liminf_est=0.25" in block

    def test_verdict_block_reason_is_optional(self):
        v = TailVerdict(PERSISTS, 1.0, 2.0, 1.5, True, 0.05)
        block = verdict_block(v)
        assert block == ("classification=bounded_away_from_zero\n"
                         "tail_min=1\ntail_max=2\ntail_last=1.5\n"
                         "threshold=0.05\n")
        flagged = TailVerdict("inconclusive", 1.0, 2.0, 1.5, True, 0.05,
                              reason="why not")
        assert verdict_block(flagged).endswith("reason=why not\n")

    def test_write_text_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        write_text(target, "payload\n")
        assert target.read_text() == "payload\n"


def run_cli(*argv):
    return main(list(argv))


class TestGridBudgetCli:
    @pytest.mark.parametrize("decades, window", [
        ("400", "evaluation window [-inf, inf] at h=0.001 holds about inf"),
        ("8", "evaluation window [-"),
    ])
    @pytest.mark.parametrize("command, spec", [("distcurve", "unit_atom"),
                                               ("sobolev", "tent")])
    def test_lambda_decades_past_the_budget(self, monkeypatch, capsys,
                                            command, spec, decades, window):
        # the grid is never built: its construction fails the test
        def built(self):
            raise AssertionError("grid built")

        monkeypatch.setattr(UniformGrid, "__post_init__", built)
        code = run_cli(command, "--input", str(SPECS / f"{spec}.json"),
                       "--lambda-decades", decades)
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: " + window)
        assert "h=0.001" in err

    @pytest.mark.parametrize("h", ["1e200", "1e-200"])
    def test_2d_h_past_the_float_range(self, monkeypatch, capsys, h):
        # (5h)^2 overflows at 1e200 and underflows to 0 at 1e-200
        def built(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(UniformGrid, "cover_cells", built)
        code = run_cli("distcurve", "--input",
                       str(SPECS / "square_2d.json"), "--h", h)
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: h={float(h):g} puts the top level")


    def test_decay_background_past_the_budget(self, monkeypatch, capsys):
        # the 1D background of B(0.5, 0.5) at h = 2e-7 would hold 5e6 cells
        def swept(*args):
            raise AssertionError("mesh built")

        monkeypatch.setattr(decay, "maximal_values_at", swept)
        code = run_cli("decay", "--input", str(SPECS / "sign_field.json"),
                       "--h", "2e-7")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: evaluation window [0, 1] at h=2e-07 holds "
                       "about 5e+06 nodes, over 2097152\n")

    def test_decay_2d_mesh_past_the_budget(self, tmp_path, monkeypatch,
                                           capsys):
        # a unit density on [-0.5, 0.5]^2 in B(0, 0.3): 6,000^2 nodes
        def built(self):
            raise AssertionError("mesh built")

        spec = tmp_path / "square_field.json"
        spec.write_text(json.dumps({
            "times": [0.5], "ball": {"center": [0.0, 0.0], "radius": 0.3},
            "slices": [{"dimension": 2, "density": {
                "origin": [-0.45, -0.45], "spacing": 0.1,
                "values": [[1.0] * 10] * 10}}]}))
        monkeypatch.setattr(UniformGrid, "points", built)
        assert run_cli("decay", "--input", str(spec), "--h", "1e-4") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: evaluation window [-0.3, 0.3] x [-0.3, 0.3] "
                       "at h=0.0001 holds about 3.6e+07 nodes, over "
                       "2097152\n")


class _GridBuilt(Exception):
    """Raised in place of building an evaluation grid."""


def _workload_inputs(tmp_path, monkeypatch):
    """(workload-seed, case, argv) of every distinct distcurve and sobolev
    case that perfbench/workloads.py builds for seeds 0-3."""
    path = SPECS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    distinct = {}
    for workload in workloads.WORKLOADS:
        for seed in range(4):
            for case in workloads.build(workload, seed, SPECS.parent):
                if case.command in ("distcurve", "sobolev"):
                    key = (case.command, json.dumps(case.spec), case.flags)
                    distinct.setdefault(key, (f"{workload}-{seed}", case))
    for where, case in distinct.values():
        path = tmp_path / f"{where}-{case.name}.json"
        path.write_text(json.dumps(case.spec))
        yield where, case.name, workloads.argv(case, path, tmp_path / "out")


class TestWindowResolution:
    @pytest.mark.parametrize("location, gap", [(1e15, "0.125"), (1e16, "2")],
                             ids=["1e15", "1e16"])
    def test_far_atom_exits_with_one_line(self, tmp_path, capsys, location,
                                          gap):
        # floats near 1e15 are 0.125 = 125 h apart, too coarse to place
        # nodes h apart; near 1e16 the window's diameter rounds to 0
        spec = tmp_path / "far_atom.json"
        spec.write_text(json.dumps({"dimension": 1, "atoms": [
            {"location": location, "weight": 1.0}]}))
        assert run_cli("distcurve", "--input", str(spec)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: evaluation window [{location:g}, "
                       f"{location:g}] cannot resolve h=0.001: floats there "
                       f"are {gap} apart\n")

    def test_every_committed_input_resolves(self, tmp_path, monkeypatch):
        """The golden runs' specs and every perfbench distcurve and sobolev
        input of seeds 0-3 get past the resolution rule to the grid.  The
        tests and verify pass through the rule in their own tests."""
        cover_cells = UniformGrid.cover_cells

        def built(*args):
            cover_cells(*args)  # the guard refuses or the grid is built
            raise _GridBuilt

        monkeypatch.setattr(UniformGrid, "cover_cells", built)
        runs = [("runs", run, [command, "--input", str(SPECS.parent / spec),
                               *extra])
                for run, command, spec, _, extra in EXPERIMENT_CASES
                if command != "decay"]
        runs += list(_workload_inputs(tmp_path, monkeypatch))
        assert len(runs) > 50
        refused = []
        for where, name, argv in runs:
            try:
                main(argv)
            except _GridBuilt:
                continue
            refused.append(f"{where}/{name}")
        assert refused == []


class TestUnresolvedStep:
    @pytest.mark.parametrize("h", ["2", "5", "10", "100"])
    def test_step_between_samples_exits_inconclusive(self, capsys, h):
        # no node lands in [0, 1): every sample is 0 and A = 0, so the
        # grid cannot tell the step from a constant
        code = run_cli("sobolev", "--input", str(SPECS / "step.json"),
                       "--h", h)
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("verdict=inconclusive\n"
                              "classification=inconclusive\n")
        assert out.endswith(f"reason=no grid sample at h={h} differs from "
                            "the left-tail value of f\n")


class TestCliExitCodes:
    def test_conclusive_match(self, capsys):
        code = run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       "--h", "0.005", "--radii", "32",
                       "--expect", "persists")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=bounded_away_from_zero" in out

    def test_expect_synonym(self):
        code = run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       "--h", "0.005", "--radii", "32",
                       "--expect", "bounded_away_from_zero")
        assert code == 0

    def test_conclusive_mismatch(self):
        code = run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       "--h", "0.005", "--radii", "32",
                       "--expect", "vanishes")
        assert code == 3

    def test_inconclusive(self, tmp_path, capsys):
        # five far-apart unit atoms: the default level ceiling keys off the
        # total mass, but each superlevel component is carried by a single
        # atom, so the top decade outruns the grid resolution
        p = tmp_path / "spread.json"
        p.write_text(json.dumps({
            "dimension": 1,
            "atoms": [{"location": float(2 * k), "weight": 1.0}
                      for k in range(5)],
        }))
        code = run_cli("distcurve", "--input", str(p), "--h", "0.002",
                       "--radii", "32", "--expect", "persists")
        assert code == 2
        assert "classification=inconclusive" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        atom = str(SPECS / "unit_atom.json")
        cases = [
            ("distcurve", "--input", str(tmp_path / "missing.json")),
            ("distcurve", "--input", str(SPECS / "unit_atom.json"),
             "--variant", "Mtau"),
            ("distcurve", "--input", str(SPECS / "unit_atom.json"),
             "--frobnicate"),
            ("distcurve", "--input", str(SPECS / "unit_atom.json"),
             "--h", "-1"),
            ("distcurve", "--input", str(SPECS / "unit_atom.json"),
             "--h", "0.01", "--radii", "16", "--expect", "sideways"),
            ("verify", "--corpus-size", "0"),
            (),
            ("distcurve", "--input", atom, "--h", "inf"),
            ("decay", "--input", str(SPECS / "sign_field.json"),
             "--h", "inf"),
            ("distcurve", "--input", atom, "--threshold", "1e400"),
            ("distcurve", "--input", atom, "--lambda-decades", "0.5"),
            ("sobolev", "--input", str(SPECS / "tent.json"),
             "--lambda-decades", "0.5"),
            ("distcurve", "--input", atom, "--variant", "Mtau",
             "--tau", "1e-9"),
        ]
        for argv in cases:
            assert run_cli(*argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("ball,horizon,reason", [
        ('{"center": [0.5], "radius": 1e309}', "",
         "ball radius must be finite and positive"),
        ('{"center": [1e309], "radius": 0.5}', "",
         "non-finite coordinates: (inf,)"),
        ('{"center": [0.5], "radius": 0.5}', ',\n  "T": 1e309',
         "horizon must be finite"),
    ], ids=["radius", "center", "horizon"])
    def test_non_finite_time_field(self, tmp_path, capsys, ball, horizon,
                                   reason):
        # JSON reads 1e309 as inf
        p = tmp_path / "tf.json"
        p.write_text('{\n  "times": [0.5],\n'
                     '  "slices": [{"dimension": 1, "atoms": []}],\n'
                     f'  "ball": {ball}{horizon}\n}}\n')
        assert run_cli("decay", "--input", str(p)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {p}:2: invalid time field: {reason}\n"

    @pytest.mark.parametrize("argv,config", [
        (("distcurve", "unit_atom.json", "--threads", "2"), None),
        (("distcurve", "unit_atom.json"),
         '{\n  "h": 0.005,\n  "threads": 2\n}\n'),
        (("sobolev", "tent.json", "--variant", "A"), None),
    ], ids=["threads-flag", "threads-config", "sobolev-variant"])
    def test_removed_knobs_fail_cleanly(self, tmp_path, argv, config):
        command, spec, *extra = argv
        args = [command, "--input", str(SPECS / spec), *extra]
        expected = "unrecognized arguments: " + " ".join(extra)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
            expected = (f"{cfg}:3: config key 'threads' is not recognized "
                        f"for {command}")
        proc = subprocess.run([sys.executable, "-m", "maxchar", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {expected}\n"

    def test_overflowing_weights_fail_without_warnings(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dimension": 1, "atoms": [
            {"location": 0.0, "weight": 1e308},
            {"location": 1.0, "weight": 1e308}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "maxchar", "distcurve", "--input", str(p)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {p}:1: invalid measure: "
                               "total variation must be finite\n")

    @pytest.mark.parametrize("content,message", [
        # json.loads raises a plain ValueError past Python's digit limit
        (b'{"dimension": ' + b"1" * 5000 + b"}",
         "invalid JSON: Exceeds the limit"),
        (b"\xff\xfe{}", ""),  # not UTF-8
        (b'{"dimension": ' + b"[" * 100000 + b"]" * 100000 + b"}",
         "invalid JSON: maximum recursion depth exceeded"),
    ], ids=["long-integer", "not-utf8", "deep-nesting"])
    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_undecodable_file_fails_with_one_line(self, tmp_path, capsys,
                                                  content, message, flag):
        p = tmp_path / "undecodable.json"
        p.write_bytes(content)
        argv = ["distcurve", flag, str(p)]
        if flag == "--config":
            argv += ["--input", str(SPECS / "unit_atom.json")]
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {p}: {message}")
        assert err.count("\n") == 1

    def test_config_key_line_skips_equal_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "expect": "h",\n  "h": -1\n}')
        assert run_cli("sobolev", "--input", str(SPECS / "tent.json"),
                       "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: config key 'h': must be positive and finite, "
            "got -1.0\n")

    def test_broken_spec_reports_line(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{\n"dimension": 1,\n'
                     '"atoms": [{"location": "x", "weight": 1}]\n}\n')
        assert run_cli("distcurve", "--input", str(p)) == 1
        err = capsys.readouterr().err
        assert f"{p}:3:" in err

    @pytest.mark.parametrize("command,spec,message", [
        ("distcurve", '"dimension": 1,\n"atoms": [\n'
         '  {"location": [[0.5]], "weight": 1}]',
         "4: key 'location' must hold numbers, got array"),
        ("distcurve", '"dimension": 1,\n"atoms": [\n'
         '  {"location": ["abc"], "weight": 1}]',
         "4: key 'location' must hold numbers, got string"),
        ("decay", '"times": [0.5],\n"slices": [{"dimension": 1}],\n'
         '"ball": {"center": [[0.5]], "radius": 0.5}',
         "4: key 'center' must hold numbers, got array"),
        ("sobolev", '"breakpoints": [],\n"jumps": [[[0.5], 1.0]]',
         "3: key 'jumps' must hold numbers, got array"),
        ("sobolev", '"breakpoints": [0, 1],\n"slopes": [[1]]',
         "3: key 'slopes' must hold numbers, got array"),
        ("distcurve", '"dimension": 1,\n"atoms": [\n'
         '  {"location": 0.5, "weight": true}]',
         "4: key 'weight' in atom has type boolean"),
    ], ids=["nested-location", "string-location", "nested-center",
            "nested-jump", "nested-slope", "bool-weight"])
    def test_non_numbers_fail_with_one_line(self, tmp_path, capsys, command,
                                            spec, message):
        p = tmp_path / "spec.json"
        p.write_text("{\n" + spec + "\n}\n")
        assert run_cli(command, "--input", str(p)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {p}:{message}\n"


# Each command's two inputs, the first line it prints for each, and the
# --expect words it accepts, split by the verdict they name.
_SOLID = ("bounded_away_from_zero", "persists")
_FADES = ("decays_to_zero", "vanishes")
_VOCABULARY = {
    "distcurve": {
        "persists": (("unit_atom.json", "--h", "0.005", "--radii", "32"),
                     "classification=bounded_away_from_zero", _SOLID),
        "fades": (("chi_density.json", "--h", "0.005", "--radii", "32"),
                  "classification=decays_to_zero", _FADES),
    },
    "sobolev": {
        "persists": (("step.json", "--h", "0.002"), "verdict=BV-with-jumps",
                     _SOLID + ("bv-with-jumps", "bv_with_jumps",
                               "BV-with-jumps")),
        "fades": (("tent.json", "--h", "0.002"), "verdict=W11",
                  _FADES + ("w11", "W11")),
    },
    "decay": {
        "persists": (("sign_field.json", "--radii", "32"), "verdict=persists",
                     _SOLID),
        "fades": (("tent_field.json", "--radii", "32"), "verdict=vanishes",
                  _FADES),
    },
}
_CHOICES = {
    "distcurve": "bounded_away_from_zero, decays_to_zero, persists, vanishes",
    "sobolev": "bounded_away_from_zero, bv-with-jumps, bv_with_jumps, "
               "decays_to_zero, persists, vanishes, w11",
    "decay": "bounded_away_from_zero, decays_to_zero, persists, vanishes",
}


def _vocabulary_cases():
    for command, sides in _VOCABULARY.items():
        for side, (_, _, words) in sides.items():
            other = "fades" if side == "persists" else "persists"
            for word in words:
                yield pytest.param(command, side, word, 0,
                                   id=f"{command}-{word}-match")
                yield pytest.param(command, other, word, 3,
                                   id=f"{command}-{word}-mismatch")


def _cli_args(command, side):
    spec, *extra = _VOCABULARY[command][side][0]
    return (command, "--input", str(SPECS / spec), *extra)


class TestExpectVocabulary:
    """The --expect words, printed verdicts and exit codes of the three
    verdict commands."""

    @pytest.mark.parametrize("command,side,word,code", _vocabulary_cases())
    def test_expect_word(self, capsys, command, side, word, code):
        assert run_cli(*_cli_args(command, side), "--expect", word) == code
        out = capsys.readouterr().out
        assert out.splitlines()[0] == _VOCABULARY[command][side][1]

    @pytest.mark.parametrize("command", sorted(_CHOICES))
    def test_unknown_word_lists_the_choices(self, capsys, tmp_path, command):
        # the word is checked before the experiment runs: no verdict block
        # and no artifacts
        out = tmp_path / "out"
        assert run_cli(*_cli_args(command, "persists"), "--expect",
                       "sideways", "--out", str(out)) == 1
        assert capsys.readouterr() == ("", (
            "error: unknown expectation 'sideways' "
            f"(choices: {_CHOICES[command]})\n"))
        assert not out.exists()

    def test_sobolev_names_are_not_distcurve_words(self, capsys):
        assert run_cli(*_cli_args("distcurve", "fades"), "--expect",
                       "w11") == 1
        assert capsys.readouterr().err == (
            "error: unknown expectation 'w11' "
            f"(choices: {_CHOICES['distcurve']})\n")


class TestCliArtifacts:
    def test_distcurve_artifacts_and_determinism(self, tmp_path):
        args = ("distcurve", "--input", str(SPECS / "unit_atom.json"),
                "--h", "0.005", "--radii", "32")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        for name in ("curve.csv", "verdict.txt", "curve.svg"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name
        header, first = (out1 / "curve.csv").read_text().splitlines()[:2]
        assert header == "lambda,volume,product,flag"
        assert first.endswith(",0")
        assert (out1 / "curve.svg").read_text().startswith("<svg")

    def test_sobolev_verdict_names(self, tmp_path, capsys):
        code = run_cli("sobolev", "--input", str(SPECS / "tent.json"),
                       "--h", "0.002", "--expect", "W11",
                       "--out", str(tmp_path / "tent"))
        assert code == 0
        assert capsys.readouterr().out.startswith("verdict=W11\n")
        code = run_cli("sobolev", "--input", str(SPECS / "step.json"),
                       "--h", "0.002", "--expect", "bv-with-jumps")
        assert code == 0
        assert capsys.readouterr().out.startswith("verdict=BV-with-jumps\n")
        code = run_cli("sobolev", "--input", str(SPECS / "tent.json"),
                       "--h", "0.002", "--expect", "bv_with_jumps")
        assert code == 3

    @pytest.mark.parametrize("run,command,spec,expect,extra",
                             EXPERIMENT_CASES,
                             ids=[case[0] for case in EXPERIMENT_CASES])
    def test_experiment_runs_match_committed_artifacts(
            self, tmp_path, run, command, spec, expect, extra):
        """The distcurve, sobolev and decay runs of
        scripts/run_experiments.py rebuild runs/ byte for byte."""
        repo = SPECS.parent
        assert run_cli(command, "--input", str(repo / spec), "--expect",
                       expect, *extra, "--out", str(tmp_path)) == 0
        committed = repo / "runs" / run
        artifacts = sorted(p.name for p in committed.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == artifacts
        for artifact in artifacts:
            assert (tmp_path / artifact).read_bytes() == \
                (committed / artifact).read_bytes(), artifact

    def test_decay_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sign"
        code = run_cli("decay", "--input", str(SPECS / "sign_field.json"),
                       "--radii", "32", "--expect", "persists",
                       "--out", str(out))
        assert code == 0
        assert capsys.readouterr().out.startswith("verdict=persists\n")
        assert (out / "decay.csv").read_text().startswith("delta,Q\n0.1,")
        assert (out / "report.txt").exists()
        assert (out / "decay.svg").exists()
        code = run_cli("decay", "--input", str(SPECS / "tent_field.json"),
                       "--radii", "32", "--expect", "vanishes")
        assert code == 0
        code = run_cli("decay", "--input", str(SPECS / "sign_field.json"),
                       "--radii", "32", "--expect", "vanishes")
        assert code == 3

    def test_config_file_merge_and_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "Mbar", "h": 0.005,
                                   "radii": 24,
                                   "input": str(SPECS / "cancel_pair.json")}))
        out1 = tmp_path / "from-config"
        assert run_cli("distcurve", "--config", str(cfg),
                       "--out", str(out1)) == 0
        assert "variant Mbar" in (out1 / "curve.svg").read_text()
        out2 = tmp_path / "flag-wins"
        assert run_cli("distcurve", "--config", str(cfg), "--variant", "M",
                       "--out", str(out2)) == 0
        assert "variant M<" in (out2 / "curve.svg").read_text()

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"thresholdd": 0.1}\n')
        assert run_cli("distcurve", "--config", str(cfg),
                       "--input", str(SPECS / "unit_atom.json")) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:1:" in err and "thresholdd" in err

    @pytest.mark.parametrize("variant", ["Q", "A"])
    def test_config_variant_obeys_the_flag_choices(self, tmp_path, capsys,
                                                   variant):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": variant}, indent=2) + "\n")
        assert run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       "--config", str(cfg)) == 1
        assert capsys.readouterr() == ("", (
            f"error: {cfg}:2: config key 'variant': invalid choice "
            f"'{variant}' (choose from M, Mbar, Mtau)\n"))


    @pytest.mark.parametrize("command,text", [
        ("distcurve", '{"radii": 1e400}'),
        ("distcurve", '{"radii": NaN}'),
        ("distcurve", '{"radii": -1e400}'),
        ("verify", '{"corpus_size": 1e400}'),
    ])
    def test_config_rejects_non_finite_integers(self, tmp_path, capsys,
                                                command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text + "\n")
        argv = ["--input", str(SPECS / "unit_atom.json")] \
            if command == "distcurve" else []
        assert run_cli(command, "--config", str(cfg), *argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "must be an integer" in err


# The config keys of each command, written out here rather than read from
# the parser, and one valid value of each.
_CONFIG_KEYS = {
    "distcurve": ("input", "variant", "tau", "h", "radii", "lambda_decades",
                  "threshold", "expect", "out"),
    "sobolev": ("input", "h", "radii", "lambda_decades", "threshold",
                "expect", "out"),
    "decay": ("input", "h", "radii", "threshold", "expect", "out"),
    "verify": ("out", "corpus_size"),
}
_SPEC = {"distcurve": "unit_atom.json", "sobolev": "tent.json",
         "decay": "sign_field.json"}
_VALUES = {"variant": "Mtau", "tau": 0.01, "h": 0.005, "radii": 8,
           "lambda_decades": 1.5, "threshold": 0.1, "expect": "persists",
           "corpus_size": 2}
# the keyword each experiment receives for a config key or flag
_KEYWORDS = {"radii": "radii_per_decade"}
# the function main calls for each command, looked up in cli at call time
_EXPERIMENT = {"distcurve": "distribution_experiment",
               "sobolev": "sobolev_experiment", "decay": "decay_sweep",
               "verify": "run_verify"}


class _Reached(Exception):
    """Raised by a stand-in experiment with the keywords it was given."""


def _reroute(monkeypatch, command):
    def reached(*args, **kwargs):
        raise _Reached(kwargs)

    monkeypatch.setattr(cli, _EXPERIMENT[command], reached)


class TestConfigSchema:
    @pytest.mark.parametrize("sep", ["_", "-"])
    @pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
    def test_every_key_is_accepted(self, tmp_path, monkeypatch, command,
                                   sep):
        values = {**_VALUES, "out": str(tmp_path / "out")}
        if command in _SPEC:
            values["input"] = str(SPECS / _SPEC[command])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key.replace("_", sep): values[key]
                                   for key in _CONFIG_KEYS[command]}))
        _reroute(monkeypatch, command)
        with pytest.raises(_Reached) as reached:
            main([command, "--config", str(cfg)])
        harness = {"input", "expect", "out"}
        assert reached.value.args[0] == {
            _KEYWORDS.get(key, key): values[key]
            for key in _CONFIG_KEYS[command] if key not in harness}

    @pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
    def test_other_keys_are_not_recognized(self, tmp_path, capsys, command):
        every = set().union(*_CONFIG_KEYS.values())
        others = sorted(every - set(_CONFIG_KEYS[command]))
        others += ["config", "radii_per_decade", "h_background"]
        cfg = tmp_path / "cfg.json"
        for key in others:
            cfg.write_text(json.dumps({key: 1}, indent=2) + "\n")
            assert main([command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}:2: config key '{key}' is not recognized for "
                f"{command}\n")

    @pytest.mark.parametrize("key,value,flag,rule", [
        ("h", -1, "0.01", "positive and finite, got -1.0"),
        ("radii", 0, "8", "at least 1, got 0"),
    ])
    @pytest.mark.parametrize("overridden", [False, True])
    def test_range_is_checked_also_under_a_flag(self, tmp_path, capsys,
                                                monkeypatch, key, value,
                                                flag, rule, overridden):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.1, key: value},
                                  indent=2) + "\n")
        _reroute(monkeypatch, "distcurve")
        argv = ["distcurve", "--input", str(SPECS / "unit_atom.json"),
                "--config", str(cfg)]
        if overridden:
            argv += [f"--{key}", flag]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {cfg}:3: config key '{key}': must be {rule}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--h", "-1"), "argument --h: must be positive and finite, "
                        "got -1.0"),
        (("--tau", "inf"), "argument --tau: must be positive and finite, "
                           "got inf"),
        (("--radii", "0"), "argument --radii: must be at least 1, got 0"),
        (("--lambda-decades", "0.5"),
         "argument --lambda-decades: must be finite and at least 1, "
         "got 0.5"),
        (("--h", "abc"), "argument --h: invalid float value: 'abc'"),
        (("--radii", "2.5"), "argument --radii: invalid int value: '2.5'"),
    ])
    def test_flag_types_check_the_range(self, capsys, argv, message):
        assert run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       *argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["distcurve", "sobolev", "decay"])
    def test_main_calls_the_experiment_bound_in_cli(self, monkeypatch,
                                                    command):
        # perfbench rebinds these names in cli to capture the results
        _reroute(monkeypatch, command)
        with pytest.raises(_Reached) as reached:
            run_cli(command, "--input", str(SPECS / _SPEC[command]),
                    "--h", "0.005", "--radii", "8")
        assert reached.value.args[0] == {"h": 0.005, "radii_per_decade": 8}


class TestParserReuse:
    RUNS = {
        "distcurve": ("distcurve", "--input", str(SPECS / "unit_atom.json"),
                      "--h", "0.005", "--radii", "24"),
        "sobolev": ("sobolev", "--input", str(SPECS / "tent.json"),
                    "--h", "0.002"),
    }

    @staticmethod
    def _run(argv, out, capsys):
        code = run_cli(*argv, "--out", str(out))
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return code, capsys.readouterr().out, artifacts

    def test_repeated_calls_build_one_parser(self, tmp_path, capsys,
                                             monkeypatch):
        first = {}
        for name, argv in self.RUNS.items():
            cli._parser.cache_clear()
            first[name] = self._run(argv, tmp_path / f"first-{name}", capsys)
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert run_cli("distcurve", "--input", str(SPECS / "unit_atom.json"),
                       "--frobnicate") == 1
        assert capsys.readouterr().err.startswith("error: ")
        for i, name in enumerate(("distcurve", "sobolev", "distcurve")):
            again = self._run(self.RUNS[name], tmp_path / f"{i}-{name}",
                              capsys)
            assert again == first[name], name
        assert first["distcurve"][0] == 0 and first["sobolev"][0] == 0
        assert len(builds) == 1


class TestCliVerify:
    def test_verify_artifacts_are_reproducible(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("MAXCHAR_SEED", "20260814")
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert run_cli("verify", "--corpus-size", "2",
                       "--out", str(out1)) == 0
        assert run_cli("verify", "--corpus-size", "2",
                       "--out", str(out2)) == 0
        rep = (out1 / "report.txt").read_bytes()
        assert rep == (out2 / "report.txt").read_bytes()
        assert b"result: PASS 12/12" in rep
        constants = json.loads((out1 / "constants.json").read_text())
        assert constants == json.loads((out2 / "constants.json").read_text())
        assert all(isinstance(v, (int, float)) for v in constants.values())
        assert "seed=20260814" in capsys.readouterr().out

    def test_verify_matches_committed_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAXCHAR_SEED", raising=False)
        assert run_cli("verify", "--out", str(tmp_path)) == 0
        committed = SPECS.parent / "runs" / "verify"
        for name in ("report.txt", "constants.json"):
            assert (tmp_path / name).read_bytes() == \
                (committed / name).read_bytes(), name
        assert (tmp_path / "constants.json").read_bytes() == \
            (SPECS.parent / "calibration" / "constants.json").read_bytes()

    def test_bad_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MAXCHAR_SEED", "not-a-number")
        assert run_cli("verify", "--corpus-size", "1") == 1
        assert "MAXCHAR_SEED" in capsys.readouterr().err

    def test_seed_env_is_read_by_verify_only(self, monkeypatch, capsys):
        args = _cli_args("distcurve", "persists")
        monkeypatch.delenv("MAXCHAR_SEED", raising=False)
        assert run_cli(*args) == 0
        want = capsys.readouterr()
        monkeypatch.setenv("MAXCHAR_SEED", "abc")
        assert run_cli(*args) == 0
        assert capsys.readouterr() == want

    def test_bad_seed_env_in_calibration_script(self, tmp_path):
        out = tmp_path / "constants.json"
        proc = subprocess.run(
            [sys.executable, str(SPECS.parent / "scripts"
                                 / "calibrate_constants.py"),
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ,
                                                 "MAXCHAR_SEED": "abc"})
        assert proc.returncode == 1
        assert proc.stderr == ("error: MAXCHAR_SEED must be an integer, "
                               "got 'abc'\n")
        assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maxchar", "distcurve",
         "--input", str(SPECS / "unit_atom.json"),
         "--h", "0.005", "--radii", "24", "--expect", "persists"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "classification=bounded_away_from_zero" in proc.stdout
