"""The benchmark's workloads: seeded cases, one CLI invocation each.

A case names the subcommand, the spec it reads (written at set-up), the
extra flags, the verdict known from construction, and the numbers its
oracle needs.  build(workload, seed) returns the same cases for the same
seed; the seed only moves values that the verdict does not depend on.
bv-sobolev and the square of measure-2d are fixed inputs; there the seed
only picks the nodes the checks sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("bv-sobolev", "cli-1d", "measure-2d", "verify")

W11 = "W11"
JUMPS = "BV-with-jumps"
PERSISTS = "bounded_away_from_zero"
DECAYS = "decays_to_zero"

# seeds whose verify report is 12/12; MAXCHAR_SEED is picked among them
VERIFY_SEEDS = (1, 2, 3, 20260814)


@dataclass(frozen=True)
class Case:
    name: str
    command: str                   # distcurve | sobolev | decay | verify
    spec: Optional[dict] = None    # input file contents, written at set-up
    flags: tuple = ()
    expect: tuple = ()             # verdicts that are correct
    oracle: str = ""               # which independent check to run
    params: dict = field(default_factory=dict)
    fault: str = ""                # kept program fault: fails on every run
    fault_check: str = ""          # what shows it: "verdict" or a check


def _bv(breakpoints=(), slopes=(), jumps=(), initial=0.0, compact=False):
    spec = {"breakpoints": [float(b) for b in breakpoints],
            "slopes": [float(s) for s in slopes]}
    if jumps:
        spec["jumps"] = [[float(x), float(h)] for x, h in jumps]
    if initial:
        spec["initial_value"] = float(initial)
    if compact:
        spec["compact_support"] = True
    return spec


def _sobolev(name, spec, flags=(), fault=""):
    expect = (JUMPS,) if spec.get("jumps") else (W11,)
    return Case(name, "sobolev", spec, tuple(flags), expect, "oscillation",
                fault=fault, fault_check="verdict" if fault else "")


# Members of the bundled BV corpus whose verdict is conclusive and right at
# h = 5e-3.  The other members are inconclusive there (ramp_plateau_n4,
# n8, n16, tent_plus_jump, small_jump), or come out BV-with-jumps although
# they are continuous (ramp_plateau_n64; see CHANGES.md).  At h = 1e-2 only
# 15 members are conclusive and most of them take 0.03-0.12 s; the median
# case was one of those, and case_p50_s spread by 16 % IQR/median over ten
# runs.  At 5e-3 the median case takes about 0.35 s and spread by 5-10 %.
CORPUS_H = 5e-3
BV_CORPUS = (
    ("ramp_plateau_n1", _bv((-1.0, 1.0), (1.0,), initial=-1.0)),
    ("ramp_plateau_n2", _bv((-1.0, -0.5, 0.5, 1.0), (2.0, 0.0, 2.0),
                            initial=-1.0)),
    ("tent", _bv((-1.0, 0.0, 1.0), (1.0, -1.0))),
    ("wide_tent", _bv((-2.0, 0.0, 2.0), (0.5, -0.5))),
    ("negative_tent", _bv((-1.0, 0.0, 1.0), (-1.0, 1.0))),
    ("offset_tent", _bv((3.0, 4.0, 5.0), (2.0, -2.0))),
    ("two_bumps", _bv((-3.0, -2.0, -1.0, 1.0, 2.0, 3.0),
                      (1.0, -1.0, 0.0, 1.0, -1.0))),
    ("zigzag", _bv((-1.0, -0.5, 0.0, 0.5, 1.0), (1.0, -1.0, 1.0, -1.0))),
    ("asym_ramp", _bv((-1.0, 0.0, 2.0), (2.0, -1.0))),
    ("affine_window", _bv((-3.0, 3.0), (1.0,), initial=-3.0)),
    ("indicator_unit", _bv(jumps=((0.0, 1.0), (1.0, -1.0)))),
    ("step_up", _bv(jumps=((0.0, 2.0),), initial=-1.0)),
    ("staircase", _bv(jumps=((-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)))),
    ("mixed_sign_jumps", _bv(jumps=((-0.5, 1.0), (0.5, -1.0)))),
    ("ramp_with_drop", _bv((0.0, 1.0), (1.0,), jumps=((1.0, -1.0),))),
    ("sawtooth_jumps", _bv((-1.0, 0.0, 1.0), (1.0, 1.0),
                           jumps=((0.0, -1.0), (1.0, -1.0)))),
    ("plateau_box", _bv((-2.0, -1.5, 1.5, 2.0), (2.0, 0.0, -2.0))),
    ("shifted_step", _bv(jumps=((2.0, 1.5),))),
    ("double_step", _bv(jumps=((-1.0, 1.0), (1.0, -2.0)))),
)


def _bv_sobolev(repo: Path):
    tent = json.loads((repo / "specs" / "tent.json").read_text())
    step = json.loads((repo / "specs" / "step.json").read_text())
    half = dict(step, jumps=[[x, 0.5 * h] for x, h in step["jumps"]])
    cases = [
        _sobolev("tent", tent),
        _sobolev("step", step),
        _sobolev("tent-h5e-4", tent, ("--h", "5e-4")),
        _sobolev("step-h5e-4", step, ("--h", "5e-4")),
        # continuous, so W11 or inconclusive is right; reported BV-with-jumps
        Case("thin-spike", "sobolev",
             _bv((0.0, 1e-9, 1.0), (1e9, -1e-9)), (), (W11, "inconclusive"),
             "oscillation",
             fault="feature narrower than the radius floor reads as a jump",
             fault_check="verdict"),
        _sobolev("step-half", half,
                 fault="level range ignores the amplitude of f, so f -> f/2 "
                       "turns BV-with-jumps into inconclusive"),
    ]
    return cases + [_sobolev(f"corpus-{name}", spec, ("--h", repr(CORPUS_H)))
                    for name, spec in BV_CORPUS]


def _atom_spec(loc, weight):
    return {"dimension": 1,
            "atoms": [{"location": float(loc), "weight": float(weight)}]}


def _shifted(spec, shift, sign):
    """spec translated by shift and multiplied by sign (+1 or -1)."""
    out = dict(spec, breakpoints=[b + shift for b in spec["breakpoints"]],
               slopes=[sign * s for s in spec["slopes"]])
    if "jumps" in spec:
        out["jumps"] = [[x + shift, sign * h] for x, h in spec["jumps"]]
    return out


def _zigzag(teeth, width, slope):
    bp = 0.5 * width * np.arange(2 * teeth + 1)
    slopes = [slope if k % 2 == 0 else -slope for k in range(2 * teeth)]
    return _bv(bp, slopes, compact=True)


def _sawtooth(teeth, width, drop):
    jumps = [((k + 1) * width, -drop) for k in range(teeth)]
    return _bv((0.0, teeth * width), (drop / width,), jumps=jumps,
               compact=True)


# Rough BV shapes at h = 0.004.  Zigzag teeth are 10 and 12.5 cells wide
# with slopes below 1/(80h), so the oscillation stays under the top level
# decade (W11).  Sawtooth teeth are 40 and 50 cells wide with drops above
# 1, which keeps the jump part above the threshold over that decade;
# narrower teeth or smaller drops come out inconclusive (the step-half
# kept fault).  The seed translates them and flips their sign, which
# leaves the grid sizes, and so the work, the same for every seed.
ROUGH_BV = (("zigzag-0", _zigzag(16, 0.04, 1.0)),
            ("zigzag-1", _zigzag(12, 0.05, 1.5)),
            ("sawtooth-0", _sawtooth(7, 0.16, 1.2)),
            ("sawtooth-1", _sawtooth(5, 0.2, 1.5)))


def _cli_1d(rng):
    # Sizes are fixed and the seed moves locations, weights and heights
    # only: the evaluation window of an atom or a step density scales with
    # its mass, so the number of nodes, radii and levels is the same for
    # every seed.
    cases = []
    for k in range(4):
        loc, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)
        cases.append(Case(f"atom-M-{k}", "distcurve", _atom_spec(loc, w),
                          ("--variant", "M"), (PERSISTS,), "atom",
                          {"mass": w}))
    for k in range(2):
        loc, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)
        tau = rng.uniform(0.8, 1.0)
        cases.append(Case(f"atom-Mtau-{k}", "distcurve", _atom_spec(loc, w),
                          ("--variant", "Mtau", "--tau", repr(tau)),
                          (PERSISTS,), "atom", {"mass": w}))
    for k in range(2):
        # dyadic centre: both atoms lie exactly 1 from it
        c = np.round(rng.uniform(-1.0, 1.0) * 1024) / 1024
        m = rng.uniform(0.5, 2.0)
        spec = {"dimension": 1,
                "atoms": [{"location": c - 1.0, "weight": m},
                          {"location": c + 1.0, "weight": -m}]}
        cases.append(Case(f"cancel-Mbar-{k}", "distcurve", spec,
                          ("--variant", "Mbar"), (PERSISTS,), "pair",
                          {"mass": 2.0 * m, "centre": c}))
    for k in range(2):
        height, start = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        cells, spacing = 500, 0.002
        spec = {"dimension": 1,
                "density": {"origin": [start + 0.5 * spacing],
                            "spacing": spacing,
                            "values": [height] * cells}}
        cases.append(Case(f"step-M-{k}", "distcurve", spec,
                          ("--variant", "M", "--h", "0.002",
                           "--lambda-decades", "3"),
                          (DECAYS,), "step",
                          {"height": height, "length": cells * spacing}))
    for k in range(2):
        loc, w = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0)
        spec = {"times": [0.5], "slices": [_atom_spec(loc, w)],
                "ball": {"center": [0.0], "radius": 1.0}}
        cases.append(Case(f"decay-atom-{k}", "decay", spec, (),
                          ("persists",), "decay"))
    for k in range(2):
        c, b, s = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0), \
            rng.uniform(0.5, 2.0)
        spec = {"times": [0.5],
                "slices": [_bv((c - b, c, c + b), (s, -s), compact=True)],
                "ball": {"center": [c], "radius": b}}
        cases.append(Case(f"decay-tent-{k}", "decay", spec, (),
                          ("vanishes",), "decay_flat"))
    for name, spec in ROUGH_BV:
        shifted = _shifted(spec, rng.uniform(-1.0, 1.0), rng.choice([-1, 1]))
        cases.append(_sobolev(name, shifted, ("--h", "0.004")))
    return cases


SQUARE_CELLS = 50   # unit square, density spacing 0.02
H_2D = "0.025"      # the coarsest h at which the square is conclusive


def _square_spec():
    spacing = 1.0 / SQUARE_CELLS
    return {"dimension": 2,
            "density": {"origin": [0.5 * spacing, 0.5 * spacing],
                        "spacing": spacing,
                        "values": [[1.0] * SQUARE_CELLS] * SQUARE_CELLS}}


def _measure_2d(rng):
    square = _square_spec()
    cases = [Case("square", "distcurve", square, ("--h", H_2D), (DECAYS,),
                  "square",
                  fault="2D density ball masses count whole cells by their "
                        "centres, so M exceeds the density's sup of 1",
                  fault_check="unit_sup")]
    x, y = rng.uniform(0.2, 0.8, 2)
    with_atom = dict(square, atoms=[{"location": [x, y], "weight": 1.0}])
    cases.append(Case("square-atom", "distcurve", with_atom, ("--h", H_2D),
                      (PERSISTS,), "square_atom",
                      {"atoms": [((x, y), 1.0)]}))
    # 32 atoms in a 0.05-wide square with two of them on opposite corners:
    # the support box, and so the grid, has the same extents for every seed
    for k in range(3):
        centre = rng.uniform(-1.0, 1.0, 2)
        offsets = np.vstack([[0.0, 0.0], [0.05, 0.05],
                             rng.uniform(0.0, 0.05, (30, 2))])
        weights = rng.uniform(0.5, 2.0, len(offsets))
        atoms = [(tuple(centre + o), float(w))
                 for o, w in zip(offsets, weights)]
        spec = {"dimension": 2,
                "atoms": [{"location": list(p), "weight": w}
                          for p, w in atoms]}
        cases.append(Case(f"cluster-{k}", "distcurve", spec, ("--h", H_2D),
                          (PERSISTS,), "atoms", {"atoms": atoms}))
    return cases


def _verify(seed: int):
    env_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    return [Case(f"verify-{env_seed}", "verify", None, (), ("PASS",),
                 "verify", {"env_seed": env_seed})]


def build(workload: str, seed: int, repo: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "bv-sobolev":
        return _bv_sobolev(repo)
    if workload == "cli-1d":
        return _cli_1d(rng)
    if workload == "measure-2d":
        return _measure_2d(rng)
    return _verify(seed)


def write_specs(cases, spec_dir: Path) -> dict:
    """Write each case's spec file; returns name -> path."""
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for case in cases:
        if case.spec is None:
            continue
        path = spec_dir / f"{case.name}.json"
        path.write_text(json.dumps(case.spec, indent=1))
        paths[case.name] = path
    return paths


def argv(case: Case, spec_path: Optional[Path], out: Path) -> list:
    args = [case.command]
    if spec_path is not None:
        args += ["--input", str(spec_path)]
    return args + list(case.flags) + ["--out", str(out)]

