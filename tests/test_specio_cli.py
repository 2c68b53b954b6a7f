"""Spec-file IO, artifact writers, and the command line contract."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxchar import cli
from maxchar.bv import BVFunction1D
from maxchar.cli import main
from maxchar.decay import DecayReport, TimeField
from maxchar.errors import SpecSchemaError
from maxchar.geometry import Box, UniformGrid
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
                                  flags=(False, True),
                                  window=Box((0.0,), (1.0,)), variant="M")
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
        def built(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(UniformGrid, "cover_cells", built)
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
        def built(*args):
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

    def test_broken_spec_reports_line(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{\n"dimension": 1,\n'
                     '"atoms": [{"location": "x", "weight": 1}]\n}\n')
        assert run_cli("distcurve", "--input", str(p)) == 1
        err = capsys.readouterr().err
        assert f"{p}:3:" in err


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
