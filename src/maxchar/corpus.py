"""Bundled test corpora: named functions, measures, and flow fields.

Everything here is deterministic; randomized draws take an explicit
numpy Generator so harness seeding controls reproduction exactly.
"""

from __future__ import annotations

import numpy as np

from .bv import BVFunction1D, derivative_measure, ramp_plateau_counterexample
from .decay import TimeField
from .geometry import UniformGrid
from .level_sets import DECAYS, PERSISTS
from .measure import Measure, unit_atom


def bv_corpus():
    """Named 1D functions of bounded variation, mixing continuous
    piecewise-affine profiles with jump-carrying ones."""
    entries = []
    for n in (1, 2, 4, 8, 16, 64):
        entries.append((f"ramp_plateau_n{n}", ramp_plateau_counterexample(n)))
    entries += [
        ("tent", BVFunction1D((-1.0, 0.0, 1.0), (1.0, -1.0))),
        ("wide_tent", BVFunction1D((-2.0, 0.0, 2.0), (0.5, -0.5))),
        ("negative_tent", BVFunction1D((-1.0, 0.0, 1.0), (-1.0, 1.0))),
        ("offset_tent", BVFunction1D((3.0, 4.0, 5.0), (2.0, -2.0))),
        ("two_bumps", BVFunction1D((-3.0, -2.0, -1.0, 1.0, 2.0, 3.0),
                                   (1.0, -1.0, 0.0, 1.0, -1.0))),
        ("zigzag", BVFunction1D((-1.0, -0.5, 0.0, 0.5, 1.0),
                                (1.0, -1.0, 1.0, -1.0))),
        ("asym_ramp", BVFunction1D((-1.0, 0.0, 2.0), (2.0, -1.0))),
        ("affine_window", BVFunction1D((-3.0, 3.0), (1.0,),
                                       initial_value=-3.0)),
        ("indicator_unit", BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)))),
        ("step_up", BVFunction1D(jumps=((0.0, 2.0),), initial_value=-1.0)),
        ("staircase", BVFunction1D(jumps=((-1.0, 1.0), (0.0, 1.0),
                                          (1.0, 1.0)))),
        ("mixed_sign_jumps", BVFunction1D(jumps=((-0.5, 1.0), (0.5, -1.0)))),
        ("tent_plus_jump", BVFunction1D((-1.0, 0.0, 1.0), (1.0, -1.0),
                                        jumps=((0.25, 0.5),))),
        ("ramp_with_drop", BVFunction1D((0.0, 1.0), (1.0,),
                                        jumps=((1.0, -1.0),))),
        ("small_jump", BVFunction1D((-1.0, 1.0), (0.2,),
                                    jumps=((0.0, 0.1),),
                                    initial_value=-0.2)),
        ("sawtooth_jumps", BVFunction1D((-1.0, 0.0, 1.0), (1.0, 1.0),
                                        jumps=((0.0, -1.0), (1.0, -1.0)),
                                        initial_value=0.0)),
        ("plateau_box", BVFunction1D((-2.0, -1.5, 1.5, 2.0),
                                     (2.0, 0.0, -2.0))),
        ("shifted_step", BVFunction1D(jumps=((2.0, 1.5),))),
        ("double_step", BVFunction1D(jumps=((-1.0, 1.0), (1.0, -2.0)))),
    ]
    return entries


def _grid_density(lo: float, hi: float, cells: int, values) -> Measure:
    grid = UniformGrid.cover_cells([lo], [hi], (hi - lo) / cells)
    return Measure(1, density=(grid, np.asarray(values, dtype=float)))


def chi_unit_density() -> Measure:
    return _grid_density(0.0, 1.0, 1000, np.ones(1000))


def tent_density() -> Measure:
    grid = UniformGrid.cover_cells([-1.0], [1.0], 2.0 / 512)
    x = grid.axis(0)
    return Measure(1, density=(grid, np.maximum(0.0, 1.0 - np.abs(x))))


def bump_density() -> Measure:
    """C^1 bump (1 - x^2)^2 on (-1, 1)."""
    grid = UniformGrid.cover_cells([-1.0], [1.0], 2.0 / 512)
    x = grid.axis(0)
    return Measure(1, density=(grid, (1.0 - x ** 2) ** 2))


def measure_corpus():
    """Named measures for the distribution-curve experiments."""
    return [
        ("unit_atom", unit_atom(0.0)),
        ("heavy_atom", Measure(1, atoms=(((2.0,), 3.0),))),
        ("atoms_k2", Measure(1, atoms=(((0.0,), 1.0), ((10.0,), 1.0)))),
        ("atoms_k3", Measure(1, atoms=(((0.0,), 1.0), ((10.0,), 1.0),
                                       ((20.0,), 1.0)))),
        ("atoms_k5", Measure(1, atoms=tuple(((7.0 * k,), 1.0)
                                            for k in range(5)))),
        ("uneven_atoms", Measure(1, atoms=(((-3.0,), 0.5), ((0.0,), 2.0),
                                           ((4.0,), 1.5)))),
        ("chi_unit", chi_unit_density()),
        ("tent_density", tent_density()),
        ("bump_density", bump_density()),
        ("atom_plus_density", unit_atom(0.0) + _grid_density(
            2.0, 3.0, 256, np.ones(256))),
        ("cancel_pair", Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0)))),
        ("signed_mixed", Measure(1, atoms=(((-2.0,), 1.0), ((2.0,), -0.5)))),
        ("atom_2d", Measure(2, atoms=(((0.0, 0.0), 1.0),))),
        ("pair_2d", Measure(2, atoms=(((-1.0, 0.0), 1.0),
                                      ((1.0, 0.5), 2.0)))),
        ("segment_2d", Measure(2, curves=((np.array([[-1.0, 0.0],
                                                     [1.0, 0.0]]), 1.0),))),
    ]


def density_corpus():
    """Nonnegative 1D densities for the reverse weak (1,1) sweep."""
    return [
        ("chi_unit", chi_unit_density()),
        ("tent", tent_density()),
        ("bump", bump_density()),
        ("tall_box", _grid_density(0.0, 0.25, 128, 4.0 * np.ones(128))),
        ("two_boxes", _grid_density(-2.0, 2.0, 512,
                                    np.where(np.abs(np.arange(512) - 128)
                                             < 64, 1.0, 0.0)
                                    + np.where(np.abs(np.arange(512) - 384)
                                               < 32, 2.0, 0.0))),
    ]


def flow_corpus():
    """Named time fields with their expected decay verdicts."""
    sign_jump = TimeField.steady(Measure(1, atoms=(((0.0,), 2.0),)),
                                 (0.5,), 0.5)
    tent_tf = TimeField.steady(derivative_measure(
        BVFunction1D((-1.0, 0.0, 1.0), (1.0, -1.0))), (0.0,), 1.0)
    sigma = 0.25
    moll = TimeField.steady(_grid_density(-sigma, sigma, 128,
                                          np.full(128, 1.0 / sigma)),
                            (0.0,), 1.0)
    modulated = TimeField(times=(0.25, 0.75),
                          slices=(Measure(1, atoms=(((0.0,), 1.6),)),
                                  Measure(1, atoms=(((0.0,), -2.4),))),
                          ball_center=(0.0,), ball_radius=1.0)
    atom_pair = TimeField.steady(Measure(1, atoms=(((-0.3,), 1.0),
                                                   ((0.3,), 1.0))),
                                 (0.0,), 1.0)
    smooth = TimeField.steady(_grid_density(-1.0, 1.0, 256,
                                            np.full(256, 0.5)), (0.0,), 1.0)
    zero = TimeField.steady(Measure(1), (0.0,), 1.0)
    return [
        ("sign_jump", sign_jump, PERSISTS),
        ("tent", tent_tf, DECAYS),
        ("mollified_jump", moll, DECAYS),
        ("modulated_jump", modulated, PERSISTS),
        ("atom_pair", atom_pair, PERSISTS),
        ("smooth_ramp", smooth, DECAYS),
        ("zero", zero, DECAYS),
    ]


def random_atomic(rng: np.random.Generator, dimension: int = 1,
                  max_atoms: int = 5,
                  weight_range=(0.1, 3.0)) -> Measure:
    """1 to max_atoms positive atoms, uniform on [-2, 2]^d."""
    k = int(rng.integers(1, max_atoms + 1))
    locs = [tuple(float(c) for c in rng.uniform(-2.0, 2.0, dimension))
            for _ in range(k)]
    weights = rng.uniform(weight_range[0], weight_range[1], k)
    return Measure(dimension,
                   atoms=tuple((p, float(w)) for p, w in zip(locs, weights)))


def random_measure(rng: np.random.Generator, dimension: int = 1) -> Measure:
    """Atoms plus an optional coarse nonnegative density."""
    mu = random_atomic(rng, dimension)
    if dimension == 1 and rng.uniform() < 0.5:
        cells = 64
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        vals = rng.uniform(0.0, 2.0, cells)
        mu = mu + _grid_density(lo, hi, cells, vals)
    return mu
