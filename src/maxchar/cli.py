"""Command line experiment harness.

Four subcommands load JSON spec files, run an experiment end to end, and
write CSV/SVG/verdict artifacts into the --out directory:

  maxchar distcurve --input atom.json --variant M --expect persists --out runs/atom
  maxchar sobolev   --input tent.json --expect W11 --out runs/tent
  maxchar decay     --input sign.json --expect persists --out runs/sign
  maxchar verify    --out runs/verify

Exit codes: 0 when the verdict is conclusive and matches --expect (or no
expectation was given), 2 when it is inconclusive, 3 on a conclusive
mismatch, 1 on usage, I/O, or schema errors.  Identical inputs produce
byte-identical artifacts; MAXCHAR_SEED pins the verify corpus draws.

The parser is the one schema: each flag's type checks its range, its
dest is the experiment's keyword, and a --config file's keys are the
long flag names, each value checked by its flag's type and choices.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional

from . import specio
from .decay import decay_sweep
from .errors import MaxcharError, SpecSchemaError
from .level_sets import (DECAYS, INCONCLUSIVE, PERSISTS, WORDS,
                         distribution_experiment, sobolev_experiment)
from .svgplot import line_plot_svg
from .verify import constants_json, run_verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """Flag errors exit 1: this tool reserves status 2 for inconclusive."""

    def error(self, message):
        raise SpecSchemaError(message)


def _checked(kind, valid, rule: str):
    """A flag type: the text read as `kind`, refused unless `valid`.  It
    takes the name of `kind`, so that a malformed number still reads
    `invalid int value: 'abc'`, and `kind` is what a config value must be.
    """
    def parse(text):
        value = kind(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__
    parse.kind = kind
    return parse


_POSITIVE = _checked(float, lambda v: 0 < v < math.inf,
                     "positive and finite")
# the tail verdict reads the top decade of levels
_DECADES = _checked(float, lambda v: 1 <= v < math.inf,
                    "finite and at least 1")
_COUNT = _checked(int, lambda v: v >= 1, "at least 1")


def _input_file(text: str) -> Path:
    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"{text}: input file not found")
    return Path(text)


def _config_value(ctx, key: str, value, flag: argparse.Action):
    """A config entry checked as the flag's own text would be: for the
    JSON kind its type reads, then by that type and the flag's choices."""
    kind = getattr(flag.type, "kind", str)
    if kind is str:
        if not isinstance(value, str):
            raise ctx.fail(f"config key '{key}' must be a string", key)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ctx.fail(f"config key '{key}' must be a number", key)
    elif kind is int:
        # inf and nan are floats that are not integers
        if isinstance(value, float) and not value.is_integer():
            raise ctx.fail(f"config key '{key}' must be an integer", key)
        value = int(value)
    if flag.type is not None:
        try:
            value = flag.type(str(value))
        except argparse.ArgumentTypeError as e:
            raise ctx.fail(f"config key '{key}': {e}", key)
    if flag.choices and value not in flag.choices:
        raise ctx.fail(f"config key '{key}': invalid choice '{value}' "
                       f"(choose from {', '.join(flag.choices)})", key)
    return value


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser):
    """Fill the flags left unset from the --config file.  Its keys are the
    command's long flag names, with - or _; every entry is checked, also
    one that a flag overrides."""
    obj, ctx = specio.read_object(args.config)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)
               ).choices[args.command]
    flags = {opt[2:]: a for a in sub._actions for opt in a.option_strings
             if opt.startswith("--") and a.dest not in ("help", "config")}
    for key, value in obj.items():
        flag = flags.get(key.replace("_", "-"))
        if flag is None:
            raise ctx.fail(f"config key '{key}' is not recognized for "
                           f"{args.command}", key)
        if value is None:
            continue
        value = _config_value(ctx, key, value, flag)
        if getattr(args, flag.dest) is None:
            setattr(args, flag.dest, value)


# --expect words for the shared verdicts: the constants and decay's words;
# sobolev also takes the names it prints, and one alias
_EXPECT = {w.lower(): c for c in (DECAYS, PERSISTS)
           for w in (c, WORDS["decay"][c])}
_EXPECT_SOBOLEV = {**_EXPECT, "bv_with_jumps": PERSISTS,
                   **{w.lower(): c for c, w in WORDS["sobolev"].items()}}


def _expected(args: argparse.Namespace,
              table: dict = _EXPECT) -> Optional[str]:
    if args.expect is None:
        return None
    key = args.expect.lower()
    if key not in table:
        choices = ", ".join(sorted(set(table)))
        raise SpecSchemaError(
            f"unknown expectation '{args.expect}' (choices: {choices})")
    return table[key]


def _verdict_exit(classification: str, expected: Optional[str]) -> int:
    if classification == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    if expected is not None and classification != expected:
        return EXIT_MISMATCH
    return EXIT_OK


def _require_input(args: argparse.Namespace) -> Path:
    if args.input is None:
        raise SpecSchemaError("missing --input (flag or config file)")
    return args.input


# dests of the flags that steer the harness rather than the experiment
_HARNESS = frozenset({"command", "input", "expect", "out", "config"})


def _experiment_args(args: argparse.Namespace) -> dict:
    """The given flags by their dests, which are the experiment's keywords;
    an unset one falls through to the experiment's default."""
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in _HARNESS}


def _write_curve(args: argparse.Namespace, curve, block: str, title: str):
    """curve.csv, verdict.txt and curve.svg into --out, if given."""
    if args.out is None:
        return
    specio.write_text(args.out / "curve.csv", specio.distribution_csv(curve))
    specio.write_text(args.out / "verdict.txt", block)
    svg = line_plot_svg(curve.lambdas, curve.products, title=title,
                        xlabel="lambda", ylabel="lambda * volume")
    specio.write_text(args.out / "curve.svg", svg)


def _cmd_distcurve(args: argparse.Namespace) -> int:
    expected = _expected(args)
    mu = specio.load_measure(_require_input(args))
    if args.variant == "Mtau" and args.tau is None:
        raise SpecSchemaError("variant Mtau requires --tau")
    res = distribution_experiment(mu, **_experiment_args(args))
    block = specio.verdict_block(res.verdict)
    _write_curve(args, res.curve, block,
                 f"level products, variant {args.variant or 'M'}")
    sys.stdout.write(block)
    return _verdict_exit(res.verdict.classification, expected)


def _cmd_sobolev(args: argparse.Namespace) -> int:
    expected = _expected(args, _EXPECT_SOBOLEV)
    f = specio.load_bv(_require_input(args))
    res = sobolev_experiment(f, **_experiment_args(args))
    cls = res.verdict.classification
    block = (f"verdict={WORDS['sobolev'].get(cls, cls)}\n"
             + specio.verdict_block(res.verdict))
    _write_curve(args, res.curve, block, "oscillation level products")
    sys.stdout.write(block)
    return _verdict_exit(cls, expected)


def _cmd_decay(args: argparse.Namespace) -> int:
    expected = _expected(args)
    tf = specio.load_timefield(_require_input(args))
    report = decay_sweep(tf, **_experiment_args(args))
    block = specio.decay_block(report)
    if args.out is not None:
        specio.write_text(args.out / "decay.csv", specio.decay_csv(report))
        specio.write_text(args.out / "report.txt", block)
        svg = line_plot_svg(report.deltas, report.q_values,
                            title="clipped decay quantity",
                            xlabel="delta", ylabel="Q")
        specio.write_text(args.out / "decay.svg", svg)
    sys.stdout.write(block)
    return _verdict_exit(report.verdict.classification, expected)


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = run_verify(**_experiment_args(args))
    if args.out is not None:
        specio.write_text(args.out / "report.txt", rep.text)
        specio.write_text(args.out / "constants.json",
                          constants_json(rep.constants))
    sys.stdout.write(rep.text)
    return EXIT_OK if rep.passed else EXIT_ERROR


_HANDLERS = {
    "distcurve": _cmd_distcurve,
    "sobolev": _cmd_sobolev,
    "decay": _cmd_decay,
    "verify": _cmd_verify,
}


def _add_common(p, *, variants=None, spectral=True):
    p.add_argument("--input", type=_input_file,
                   help="JSON spec file to load")
    if variants is not None:
        p.add_argument("--variant", choices=variants,
                       help="maximal operator to evaluate")
    p.add_argument("--h", type=_POSITIVE,
                   help="grid spacing (background cell size for decay)")
    p.add_argument("--radii", type=_COUNT, dest="radii_per_decade",
                   metavar="RADII", help="radius samples per decade")
    if spectral:
        p.add_argument("--lambda-decades", type=_DECADES,
                       help="level range span in decades")
    p.add_argument("--threshold", type=_POSITIVE,
                   help="absolute persistence threshold")
    p.add_argument("--expect", help="expected verdict; mismatch exits 3")
    _add_output(p)


def _add_output(p):
    p.add_argument("--out", type=Path,
                   help="directory for CSV/SVG/verdict artifacts")
    p.add_argument("--config", type=Path,
                   help="JSON config file; flags win on conflict")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxchar",
                     description="maximal function experiment harness")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("distcurve",
                       help="distribution curve and tail verdict of a "
                            "maximal field")
    _add_common(p, variants=("M", "Mbar", "Mtau"))
    p.add_argument("--tau", type=_POSITIVE,
                   help="radius cutoff for the Mtau variant")

    p = sub.add_parser("sobolev",
                       help="oscillation-field test for absolute continuity "
                            "of the derivative")
    _add_common(p)

    p = sub.add_parser("decay",
                       help="clipped decay sweep for a time-dependent "
                            "derivative field")
    _add_common(p, spectral=False)

    p = sub.add_parser("verify",
                       help="run the bundled verification corpus")
    p.add_argument("--corpus-size", type=_COUNT,
                   help="randomized draw count per check (default full)")
    _add_output(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept for the
    process: parse_args leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _merge_config(args, parser)
        return _HANDLERS[args.command](args)
    except MaxcharError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
