"""Self-verification suite: named checks over the bundled corpora.

Each check reproduces a closed-form value or sweeps a property over a
corpus, returning pass/fail plus measured empirical constants.  The report
is fully deterministic for a fixed seed (no timestamps, fixed formatting,
per-check child generators), so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Optional

import numpy as np

from . import corpus
from .bv import BVFunction1D, ramp_plateau_counterexample, \
    reverse_poincare_check, any_vector_penalty_check
from .decay import decay_sweep, level_integral_slice
from .errors import MaxcharError, SpecSchemaError
from .geometry import UniformGrid
from .level_sets import (LambdaGrid, distribution_curve, tail_verdict,
                         superlevel_volume, evaluation_grid, weak11_constant,
                         reverse_weak11_check, semigroup_check,
                         distribution_experiment, sobolev_experiment,
                         DECAYS, PERSISTS)
from .maximal import RadiusGrid, maximal_field, maximal_point
from .measure import Measure, GridFunction, unit_atom
from .specio import fmt

DEFAULT_SEED = 20260814


def seed_from_env() -> int:
    """MAXCHAR_SEED as an integer, DEFAULT_SEED when it is unset."""
    raw = os.environ.get("MAXCHAR_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise SpecSchemaError(f"MAXCHAR_SEED must be an integer, got '{raw}'")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str


class VerifyReport(NamedTuple):
    text: str
    passed: bool
    constants: dict


def _rng(seed: int, check: int) -> np.random.Generator:
    return np.random.default_rng([seed, check])


def _size(corpus_size: Optional[int], full: int) -> int:
    if corpus_size is None:
        return full
    return max(1, min(full, corpus_size))


# ----------------------------------------------------------------------
# individual checks; each returns (passed, details, constants)


def _check_atom_normalization(seed, corpus_size):
    mu = unit_atom(0.0)
    grid = UniformGrid.cover_cells([-2.0], [2.0], 1e-3)
    fld = maximal_field(mu, grid, RadiusGrid.geometric(1e-3, 4.0, 64), "M")
    curve = distribution_curve(fld, LambdaGrid.geometric(1.0, 100.0, 64))
    err = float(np.max(np.abs(curve.products - 1.0)))
    passed = err <= 0.02
    return passed, f"max_product_error={fmt(err)}", {
        "weak11_sup_atom": weak11_constant(curve, 1.0)}


def _check_multi_atom_mass(seed, corpus_size):
    worst = 0.0
    c_low = math.inf
    c_up = 0.0
    for name in ("atoms_k2", "atoms_k3", "atoms_k5"):
        mu = dict(corpus.measure_corpus())[name]
        k = mu.total_variation()
        # The default lam_max rule keys off total mass, which is only safe
        # when the mass sits in one cluster.  These atoms are far apart, so
        # each superlevel component is carried by a single unit atom and the
        # resolved regime ends at 1/(2*5h) = 100 regardless of k.
        res = distribution_experiment(mu, "M", h=1e-3, lam_max=100.0)
        rel = abs(res.verdict.tail_last - k) / k
        worst = max(worst, rel)
        c_low = min(c_low, res.verdict.tail_min / k)
        c_up = max(c_up, res.verdict.tail_max / k)
        if res.verdict.classification != PERSISTS:
            return False, f"{name} classified {res.verdict.classification}", {}
    passed = worst <= 0.05
    return passed, f"worst_tail_rel_error={fmt(worst)}", {
        "tail_c_low": c_low, "tail_c_up": c_up}


_CHI_PRODUCT_PROBES = (0.05, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9)


def _chi_product_law(lam: float) -> float:
    """Verified closed form for f = chi_[0,1]: the maximal field is 1 on
    (0,1) and 1/(2(1+s)) at distance s, so the product is 1 - lam up to
    lam = 1/2 and lam itself between 1/2 and 1."""
    if lam >= 1.0:
        return 0.0
    return 1.0 - lam if lam <= 0.5 else lam


def _check_ac_decay(seed, corpus_size):
    chi = corpus.chi_unit_density()
    grid = evaluation_grid(chi, 0.05, 1e-3)
    rg = RadiusGrid.geometric(1e-3, 1.2 * grid.cell_box().diameter(), 64)
    fld = maximal_field(chi, grid, rg, "M")
    worst = 0.0
    for lam in _CHI_PRODUCT_PROBES:
        vol, _ = superlevel_volume(fld, lam)
        expect = _chi_product_law(lam)
        worst = max(worst, abs(lam * vol - expect) / expect)
    vol_above, _ = superlevel_volume(fld, 1.03)
    curve = distribution_curve(fld, LambdaGrid.geometric(0.05, 10.0, 48))
    verdict = tail_verdict(curve, 0.05 * chi.total_variation())
    passed = (worst <= 0.03 and vol_above == 0.0
              and verdict.classification == DECAYS)
    return passed, (f"worst_product_rel_error={fmt(worst)} "
                    f"volume_at_1.03={fmt(vol_above)}"), {
        "weak11_sup_chi": weak11_constant(curve, 1.0)}


def _check_signed_cancellation(seed, corpus_size):
    dip = Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0)))
    res = distribution_experiment(dip, "Mbar", h=1e-3)
    rg = RadiusGrid.geometric(1e-3, 10.0, 64)
    at0_bar = maximal_point(dip, (0.0,), rg, "Mbar")
    at0_full = maximal_point(dip, (0.0,), rg, "M")
    passed = (res.verdict.classification == PERSISTS
              and res.verdict.tail_min >= 1.9
              and at0_bar < 1e-12 and abs(at0_full - 1.0) < 1e-12)
    return passed, (f"tail_min={fmt(res.verdict.tail_min)} "
                    f"signed_at_origin={fmt(at0_bar)} "
                    f"full_at_origin={fmt(at0_full)}"), {
        "signed_tail_c_low": res.verdict.tail_min
        / dip.total_variation()}


def _check_sobolev_verdicts(seed, corpus_size):
    tent = BVFunction1D((-1.0, 0.0, 1.0), (1.0, -1.0))
    chi = BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)))
    res_t = sobolev_experiment(tent, h=1e-3)
    res_c = sobolev_experiment(chi, h=1e-3)
    tent_max = float(res_t.field.values.max())
    jump_mass = chi.jump_variation()
    plateau = res_c.verdict.tail_min / jump_mass
    passed = (res_t.verdict.classification == DECAYS
              and tent_max <= 0.56
              and res_c.verdict.classification == PERSISTS
              and res_c.verdict.tail_min >= 0.5)
    return passed, (f"tent_field_max={fmt(tent_max)} "
                    f"chi_tail_min={fmt(res_c.verdict.tail_min)}"), {
        "oscillation_jump_plateau": plateau}


def _check_ramp_counterexample(seed, corpus_size):
    for n in (1, 4, 16, 64):
        f = ramp_plateau_counterexample(n)
        mean = f.integral(-1.0, 1.0) / 2.0
        if abs(mean) >= 1e-12:
            return False, f"n={n} mean={fmt(mean)}", {}
        if abs(f.l1_norm(-1.0, 1.0) - 1.0 / n) > 1e-13:
            return False, f"n={n} l1 mismatch", {}
        if abs(f.total_variation() - 2.0) > 1e-13:
            return False, f"n={n} tv mismatch", {}
    held = [bool(reverse_poincare_check(ramp_plateau_counterexample(n), 0.0,
                                        1.0, nu=1.0, c1=0.5, c2=1.0).holds)
            for n in (1, 2, 4, 16, 64)]
    passed = held[0] and not any(held[1:])
    return passed, f"matched_ball_holds={held}", {}


_POINCARE_PAIRS = ((0.0, 0.5), (0.0, 1.0), (0.3, 0.7), (-0.5, 0.25),
                   (1.0, 1.5), (0.1, 2.0), (-1.0, 0.8), (0.7, 0.3),
                   (-0.2, 1.2), (2.0, 1.0))


def _check_penalized_poincare(seed, corpus_size):
    entries = corpus.bv_corpus()
    entries = entries[:_size(corpus_size, len(entries))]
    # every pair twice: nu = 1, -1 and v = 0, 0.5 in one call each
    x, r = np.repeat(np.array(_POINCARE_PAIRS), 2, axis=0).T
    nu = np.tile([1.0, -1.0], len(_POINCARE_PAIRS))
    v = np.tile([0.0, 0.5], len(_POINCARE_PAIRS))
    min_ratio = math.inf
    tested = 0
    for _, f in entries:
        directional = reverse_poincare_check(f, x, r, nu, c1=1e-3, c2=2.0)
        any_vector = any_vector_penalty_check(f, x, r, v, c1=1e-3, c2=2.0)
        tested += int(np.count_nonzero(directional.rhs > 1e-12))
        for res in (directional, any_vector):
            live = res.rhs > 1e-12
            min_ratio = min([min_ratio,
                             *(res.lhs[live] / res.rhs[live]).tolist()])
    passed = tested > 0 and min_ratio >= 1e-3
    return passed, (f"cases={tested} measured_c1={fmt(min_ratio)}"), {
        "penalized_poincare_c1": min_ratio}


_SEMIGROUP_FACTORS = (1.0, 0.5, 0.25, 2.0, 4.0, 1.0 / 3.0)


def _semigroup_draws(rng, n_draws, dimension):
    results = []
    for _ in range(n_draws):
        mu = corpus.random_measure(rng, dimension)
        x = rng.uniform(-2.5, 2.5, dimension)
        r = float(rng.uniform(0.02, 1.5))
        eps = r * float(rng.choice(_SEMIGROUP_FACTORS))
        results.append(semigroup_check(mu, x, r, eps))
    return results


def _check_semigroup(seed, corpus_size):
    rng = _rng(seed, 8)
    per_dim = 250 if corpus_size is None else max(20, 12 * corpus_size)
    results = _semigroup_draws(rng, per_dim, 1)
    results += _semigroup_draws(rng, per_dim, 2)
    failures = sum(0 if res.holds else 1 for res in results)
    ratios = [res.avg / res.bound for res in results if res.bound > 0]
    worst = max(ratios) if ratios else 0.0
    passed = failures == 0
    return passed, (f"draws={len(results)} failures={failures} "
                    f"max_avg_to_bound={fmt(worst)}"), {
        "semigroup_max_ratio": worst}


def _check_reverse_weak11(seed, corpus_size):
    grid = UniformGrid.cover_cells([0.0], [1.0], 1e-3)
    res = reverse_weak11_check(GridFunction(grid, np.ones(1000)), t=0.5)
    if abs(res.rhs - 1.0) > 1e-12 or abs(res.lhs - 0.5) > 0.01:
        return False, f"chi lhs={fmt(res.lhs)} rhs={fmt(res.rhs)}", {}
    c_measured = res.ratio
    for _, mu in corpus.density_corpus():
        grid_d, values = mu.density
        gf = GridFunction(grid_d, values)
        vmax = float(np.max(values))
        for q in (0.3, 0.6, 0.9):
            r = reverse_weak11_check(gf, t=q * vmax)
            if r.rhs > 0:
                c_measured = min(c_measured, r.ratio)
            if not r.holds:
                return False, f"fails at t={fmt(q * vmax)}", {}
    passed = c_measured >= 0.1
    return passed, (f"chi_lhs={fmt(res.lhs)} measured_c={fmt(c_measured)}"), {
        "reverse_weak11_c": c_measured}


def _check_stopped_scale(seed, corpus_size):
    rng = _rng(seed, 10)
    n_measures = 20 if corpus_size is None else max(4, corpus_size)
    compared = 0
    for _ in range(n_measures):
        mu = corpus.random_atomic(rng, 1, max_atoms=4,
                                  weight_range=(0.5, 2.0))
        total = mu.total_variation()
        for tau in (0.1, 0.5):
            bound = total / (2.0 * tau)
            grid = evaluation_grid(mu, bound, 1e-3)
            rg = RadiusGrid.geometric(1e-3,
                                      1.2 * grid.cell_box().diameter(), 48)
            full = maximal_field(mu, grid, rg, "M")
            stopped = maximal_field(mu, grid, rg, "Mtau", tau=tau)
            for lam in np.geomspace(bound * 1.01, bound * 101.0, 13):
                if not np.array_equal(full.values > lam,
                                      stopped.values > lam):
                    return False, f"sets differ at lambda={fmt(lam)}", {}
                compared += 1
    return True, f"identical_node_sets={compared}", {}


def _check_decay(seed, corpus_size):
    entries = corpus.flow_corpus()
    entries = entries[:_size(corpus_size, len(entries))]
    c1 = math.inf
    c2 = 0.0
    reports = {}
    for name, tf, expected in entries:
        rep = decay_sweep(tf)
        reports[name] = rep
        if rep.verdict.classification != expected:
            return False, f"{name} verdict={rep.verdict.classification}", {}
        sing = rep.singular_mass_timeintegral_closed
        if sing > 0:
            c1 = min(c1, rep.verdict.tail_min / sing)
            c2 = max(c2, rep.verdict.tail_max / sing)
    sign_rep = reports.get("sign_jump")
    details = []
    if sign_rep is not None:
        q3 = sign_rep.q_values[2]
        q6 = sign_rep.q_values[5]
        if abs(q3 - 1.1448) > 0.03 * 1.1448 or abs(q6 - 1.0724) > 0.03 * 1.0724:
            return False, f"sign Q values {fmt(q3)} {fmt(q6)}", {}
        details.append(f"sign_Q3={fmt(q3)} sign_Q6={fmt(q6)}")
    tent_rep = reports.get("tent")
    if tent_rep is not None:
        ratio = tent_rep.q_values[0] / tent_rep.q_values[3]
        if abs(ratio - 4.0) > 0.8:
            return False, f"tent ratio {fmt(ratio)}", {}
        # zero singular part: the un-normalized integral stays bounded
        unnorm = [q * abs(math.log(d))
                  for q, d in zip(tent_rep.q_values, tent_rep.deltas)]
        if max(unnorm) / min(unnorm) > 1.02:
            return False, "tent unnormalized integral drifts", {}
        details.append(f"tent_ratio={fmt(ratio)}")
    diag = level_integral_slice(Measure(1, atoms=(((0.0,), 2.0),)),
                                (0.0,), 1.0, 1e-3)
    expected_diag = abs(math.log(1e-3))
    if abs(diag - expected_diag) > 0.02 * expected_diag:
        return False, f"level integral {fmt(diag)}", {}
    consts = {}
    if math.isfinite(c1):
        consts["decay_c1"] = c1
        consts["decay_c2"] = c2
        details.append(f"c1={fmt(c1)} c2={fmt(c2)}")
    return True, " ".join(details), consts


def _check_determinism(seed, corpus_size):
    first = _semigroup_draws(_rng(seed, 8), 20, 1)
    second = _semigroup_draws(_rng(seed, 8), 20, 1)
    same = all(a.avg == b.avg and a.bound == b.bound
               for a, b in zip(first, second))
    grid = UniformGrid.cover_cells([0.0], [1.0], 1e-3)
    gf = GridFunction(grid, np.ones(1000))
    r1 = reverse_weak11_check(gf, t=0.5)
    r2 = reverse_weak11_check(gf, t=0.5)
    same = same and r1.lhs == r2.lhs and r1.rhs == r2.rhs
    return same, f"replays_identical={int(same)}", {}


_CHECKS = (
    ("atom_normalization", _check_atom_normalization),
    ("multi_atom_mass", _check_multi_atom_mass),
    ("ac_decay", _check_ac_decay),
    ("signed_cancellation", _check_signed_cancellation),
    ("sobolev_verdicts", _check_sobolev_verdicts),
    ("ramp_counterexample", _check_ramp_counterexample),
    ("penalized_poincare", _check_penalized_poincare),
    ("semigroup", _check_semigroup),
    ("reverse_weak11", _check_reverse_weak11),
    ("stopped_scale", _check_stopped_scale),
    ("decay_sandwich", _check_decay),
    ("determinism", _check_determinism),
)


def run_verify(corpus_size: Optional[int] = None,
               seed: Optional[int] = None) -> VerifyReport:
    if corpus_size is not None and corpus_size < 1:
        raise ValueError("corpus size must be at least 1")
    if seed is None:
        seed = seed_from_env()
    results = []
    constants = {}
    for idx, (name, fn) in enumerate(_CHECKS, start=1):
        try:
            passed, details, consts = fn(seed, corpus_size)
        except MaxcharError as e:
            passed, details, consts = False, f"error: {e}", {}
        results.append(CheckResult(name, passed, details))
        constants.update(consts)
    n_pass = sum(1 for r in results if r.passed)
    lines = ["verification report",
             f"seed={seed}",
             f"corpus_size={'full' if corpus_size is None else corpus_size}",
             ""]
    for idx, r in enumerate(results, start=1):
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{idx:02d} {r.name:<24s} {status} {r.details}".rstrip())
    lines.append("")
    for key in sorted(constants):
        lines.append(f"constant {key}={fmt(constants[key])}")
    lines.append("")
    lines.append(f"result: {'PASS' if n_pass == len(results) else 'FAIL'} "
                 f"{n_pass}/{len(results)}")
    text = "\n".join(lines) + "\n"
    return VerifyReport(text, n_pass == len(results), constants)


def constants_json(constants: dict) -> str:
    lines = ["{"]
    keys = sorted(constants)
    for i, key in enumerate(keys):
        comma = "," if i < len(keys) - 1 else ""
        lines.append(f'  "{key}": {fmt(constants[key])}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
