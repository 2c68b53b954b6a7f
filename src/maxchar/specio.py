"""Spec-file loading and artifact serialization.

Input specs are JSON: "breakpoints" marks a piecewise-affine function,
"times" a time-dependent derivative field, "dimension" a measure (and
tells the two kinds of time-field slice apart).  Schema problems raise
SpecSchemaError carrying the file path and the line of the offending key,
so CLI diagnostics stay line-precise: on error paths alone, one walk over
the text's strings and brackets gives each object json.loads built the
offsets of its keys and of its brace.

Output artifacts are CSV with fixed 12-significant-digit formatting and
key=value verdict blocks; identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .bv import BVFunction1D, derivative_measure
from .decay import DecayReport, TimeField
from .errors import SpecSchemaError
from .geometry import UniformGrid
from .level_sets import WORDS, DistributionCurve, TailVerdict
from .measure import Measure


def fmt(x) -> str:
    return format(float(x), ".12g")


# the JSON word for each type json.loads builds, for schema errors
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number",
               float: "number", str: "string", list: "array", dict: "object"}


class _Ctx:
    """Carries the raw text and the objects parsed from it, so errors name
    key lines."""

    def __init__(self, path, text: str):
        self.path = str(path)
        self.text = text
        self.built = []  # each object json.loads built, in that order
        self.holder = {}  # each key read, and the object it was read from

    def build(self, pairs):
        """json.loads's object_pairs_hook; a repeated key fails."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            # fails at the text's first repeat, in text the parser has read
            self._objects()
        self.built.append(obj)
        return obj

    def _objects(self):
        """(brace offset, {key: offset}) of each object of the text, in the
        order of the closing braces, which is the order json.loads builds
        them in: a walk over the strings and brackets, where a string that
        a colon follows is a key.  The first repeated key fails."""
        opened, closed = [], []  # the open objects and arrays; the objects
        for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[][{}]',
                             self.text):
            if m.group(2):
                key, keys = json.loads(m.group(1)), opened[-1][1]
                if key in keys:
                    raise self.error(f"duplicate key '{key}'", m.start())
                keys[key] = m.start()
            elif m.group() in ("{", "["):
                opened.append((m.start(), {}))
            elif m.group() == "}":
                closed.append(opened.pop())
            elif m.group() == "]":
                opened.pop()
        return closed

    def error(self, message: str, at: int) -> SpecSchemaError:
        return SpecSchemaError(message, path=self.path,
                               line=self.text.count("\n", 0, at) + 1)

    def fail(self, message: str, key: str) -> SpecSchemaError:
        """An error on the line of key in the object it was read from (a
        config key: the top level), or of that object's brace if key is
        missing from it."""
        obj = self.holder.get(key, self.built[-1])  # the root closes last
        brace, keys = next(found for built, found
                           in zip(self.built, self._objects())
                           if built is obj)
        return self.error(message, keys.get(key, brace))

    def get(self, obj: dict, key: str, default=None):
        self.holder[key] = obj
        return obj.get(key, default)

    def need(self, obj: dict, key: str, kinds, where: str, default=None):
        """obj[key] of one of kinds, a bool only where kinds is bool; a
        key left out reads as default, and fails where that is None."""
        val = self.get(obj, key, default)
        if key not in obj and default is None:
            raise self.fail(f"missing required key '{key}' in {where}", key)
        if (isinstance(val, bool) and kinds is not bool
                or not isinstance(val, kinds)):
            raise self.fail(f"key '{key}' in {where} has type "
                            f"{_JSON_TYPES[type(val)]}", key)
        return val

    def numbers(self, val, key: str, depth: int = 1):
        """val as floats: a JSON number at depth 0, else a list of items of
        depth - 1, rows of one length.  Bools, strings, other nesting and
        integers past the float range fail on the key's line."""
        if depth:
            if not isinstance(val, list):
                raise self.fail(f"key '{key}' must be a list, got "
                                f"{_JSON_TYPES[type(val)]}", key)
            items = [self.numbers(v, key, depth - 1) for v in val]
            if depth > 1 and len({len(v) for v in items}) > 1:
                raise self.fail(f"key '{key}' has rows of unequal length",
                                key)
            return items
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise self.fail(f"key '{key}' must hold numbers, got "
                            f"{_JSON_TYPES[type(val)]}", key)
        try:
            return float(val)
        except OverflowError:
            raise self.fail(f"key '{key}' holds an integer past the float "
                            "range", key)


def _parse_density(spec: dict, dimension: int, ctx: _Ctx):
    origin = ctx.numbers(ctx.need(spec, "origin", list, "density"), "origin")
    spacing = ctx.numbers(ctx.need(spec, "spacing", (int, float), "density"),
                          "spacing", 0)
    # a flat list in 1D, a list of rows in 2D
    values = np.asarray(ctx.numbers(ctx.need(spec, "values", list, "density"),
                                    "values", dimension), dtype=float)
    try:
        grid = UniformGrid(tuple(origin), spacing, values.shape)
    except ValueError as e:
        raise ctx.fail(f"bad density grid: {e}", "density")
    return (grid, values)


def _parse_measure(obj: dict, ctx: _Ctx) -> Measure:
    d = ctx.need(obj, "dimension", int, "measure")
    if d not in (1, 2):
        raise ctx.fail(f"dimension must be 1 or 2, got {d}", "dimension")
    atoms = []
    for i, entry in enumerate(ctx.need(obj, "atoms", list, "measure", [])):
        if not isinstance(entry, dict):
            raise ctx.fail(f"atom #{i} must be an object", "atoms")
        loc = ctx.need(entry, "location", (list, int, float), "atom")
        w = ctx.need(entry, "weight", (int, float), "atom")
        loc = loc if isinstance(loc, list) else [loc]
        atoms.append((tuple(ctx.numbers(loc, "location")),
                      ctx.numbers(w, "weight", 0)))
    density = None
    if obj.get("density") is not None:
        density = _parse_density(ctx.need(obj, "density", dict, "measure"),
                                 d, ctx)
    curves = []
    for i, entry in enumerate(ctx.need(obj, "curves", list, "measure", [])):
        if not isinstance(entry, dict):
            raise ctx.fail(f"curve #{i} must be an object", "curves")
        pts = ctx.numbers(ctx.need(entry, "points", list, "curve"),
                          "points", 2)
        rho = ctx.numbers(ctx.need(entry, "density", (int, float), "curve"),
                          "density", 0)
        curves.append((pts, rho))
    try:
        return Measure(d, atoms=tuple(atoms), density=density,
                       curves=tuple(curves))
    except ValueError as e:
        raise ctx.fail(f"invalid measure: {e}", "dimension")


def _parse_bv(obj: dict, ctx: _Ctx) -> BVFunction1D:
    bp = tuple(ctx.numbers(ctx.need(obj, "breakpoints", list, "function"),
                           "breakpoints"))
    slopes = tuple(ctx.numbers(ctx.get(obj, "slopes", []), "slopes"))
    jumps = []
    for i, entry in enumerate(ctx.need(obj, "jumps", list, "function", [])):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ctx.fail(f"jump #{i} must be a [location, height] pair",
                           "jumps")
        jumps.append(tuple(ctx.numbers(entry, "jumps")))
    compact = ctx.need(obj, "compact_support", bool, "function", False)
    try:
        return BVFunction1D(
            breakpoints=bp, slopes=slopes, jumps=tuple(jumps),
            initial_value=ctx.numbers(ctx.get(obj, "initial_value", 0.0),
                                      "initial_value", 0),
            compact_support=compact)
    except ValueError as e:
        raise ctx.fail(f"invalid function: {e}", "breakpoints")


def _parse_timefield(obj: dict, ctx: _Ctx) -> TimeField:
    times = ctx.need(obj, "times", list, "time field")
    raw_slices = ctx.need(obj, "slices", list, "time field")
    if len(raw_slices) != len(times):
        raise ctx.fail(
            f"{len(times)} times but {len(raw_slices)} slices", "slices")
    slices = []
    for i, entry in enumerate(raw_slices):
        if not isinstance(entry, dict):
            raise ctx.fail(f"slice #{i} must be an object", "slices")
        if "breakpoints" in entry:
            slices.append(derivative_measure(_parse_bv(entry, ctx)))
        elif "dimension" in entry:
            slices.append(_parse_measure(entry, ctx))
        else:
            raise ctx.fail(
                f"slice #{i} is neither a function (breakpoints) nor a "
                "measure (dimension)", "slices")
    ball = ctx.need(obj, "ball", dict, "time field")
    center = ctx.need(ball, "center", (list, int, float), "ball")
    center = center if isinstance(center, list) else [center]
    radius = ctx.numbers(ctx.need(ball, "radius", (int, float), "ball"),
                         "radius", 0)
    horizon = ctx.numbers(ctx.get(obj, "T", 1.0), "T", 0)
    try:
        return TimeField(times=tuple(ctx.numbers(times, "times")),
                         slices=tuple(slices),
                         ball_center=tuple(ctx.numbers(center, "center")),
                         ball_radius=radius, horizon=horizon)
    except ValueError as e:
        raise ctx.fail(f"invalid time field: {e}", "times")


def read_object(path):
    """(object, context) of a JSON file whose top level is an object and
    whose objects repeat no key; the context's errors name the file and
    the line of a key."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecSchemaError(str(e), path=str(path))

    ctx = _Ctx(p, text)
    try:
        obj = json.loads(text, object_pairs_hook=ctx.build)
    except json.JSONDecodeError as e:
        raise SpecSchemaError(f"invalid JSON: {e.msg}", path=str(p),
                              line=e.lineno)
    except (ValueError, RecursionError) as e:
        # an integer past Python's digit limit, or nesting too deep
        raise SpecSchemaError(f"invalid JSON: {e}", path=str(p))
    if not isinstance(obj, dict):
        raise ctx.error("top level must be a JSON object", 0)
    return obj, ctx


def load_measure(path) -> Measure:
    return _parse_measure(*read_object(path))


def load_bv(path) -> BVFunction1D:
    return _parse_bv(*read_object(path))


def load_timefield(path) -> TimeField:
    return _parse_timefield(*read_object(path))


# ----------------------------------------------------------------------
# artifact writers


def distribution_csv(curve: DistributionCurve) -> str:
    lines = ["lambda,volume,product,flag"]
    for lam, vol, flag in zip(curve.lambdas, curve.volumes, curve.flags):
        lines.append(f"{fmt(lam)},{fmt(vol)},{fmt(lam * vol)},{int(flag)}")
    return "\n".join(lines) + "\n"


def decay_csv(report: DecayReport) -> str:
    lines = ["delta,Q"]
    for d, q in zip(report.deltas, report.q_values):
        lines.append(f"{fmt(d)},{fmt(q)}")
    return "\n".join(lines) + "\n"


def verdict_block(v: TailVerdict) -> str:
    lines = [f"classification={v.classification}",
             f"tail_min={fmt(v.tail_min)}",
             f"tail_max={fmt(v.tail_max)}",
             f"tail_last={fmt(v.tail_last)}",
             f"threshold={fmt(v.threshold)}"]
    if v.reason:
        lines.append(f"reason={v.reason}")
    return "\n".join(lines) + "\n"


def decay_block(r: DecayReport) -> str:
    v = r.verdict
    word = WORDS["decay"].get(v.classification, v.classification)
    lines = [f"verdict={word}",
             f"liminf_est={fmt(v.tail_min)}",
             f"limsup_est={fmt(v.tail_max)}",
             f"singular_mass_timeintegral={fmt(r.singular_mass_timeintegral)}",
             "singular_mass_timeintegral_closed="
             + fmt(r.singular_mass_timeintegral_closed),
             f"threshold={fmt(v.threshold)}"]
    if v.reason:
        lines.append(f"reason={v.reason}")
    return "\n".join(lines) + "\n"


def write_text(path, content: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(content)
