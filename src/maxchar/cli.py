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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import specio
from .decay import decay_sweep
from .errors import MaxcharError, SpecSchemaError
from .level_sets import (DECAYS, INCONCLUSIVE, PERSISTS,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters for one subcommand run.

    Flags win over config-file entries; None falls through to the library
    default of the experiment being run.
    """

    command: str
    input: Optional[Path] = None
    variant: Optional[str] = None
    tau: Optional[float] = None
    h: Optional[float] = None
    radii: Optional[int] = None
    lambda_decades: Optional[float] = None
    threshold: Optional[float] = None
    expect: Optional[str] = None
    out: Optional[Path] = None
    corpus_size: Optional[int] = None

    def __post_init__(self):
        for name in ("tau", "h", "radii", "lambda_decades", "threshold"):
            val = getattr(self, name)
            if val is not None and not 0 < val < math.inf:
                raise SpecSchemaError(
                    f"{name} must be positive and finite, got {val}")
        if self.lambda_decades is not None and self.lambda_decades < 1:
            # the tail verdict reads the top decade of levels
            raise SpecSchemaError("lambda_decades must be at least 1, got "
                                  f"{self.lambda_decades}")
        if self.corpus_size is not None and self.corpus_size < 1:
            raise SpecSchemaError("corpus size must be at least 1")
        if self.input is not None and not Path(self.input).is_file():
            raise SpecSchemaError("input file not found", path=self.input)


_COMMAND_KEYS = {
    "distcurve": frozenset({"input", "variant", "tau", "h", "radii",
                            "lambda_decades", "threshold", "expect", "out"}),
    "sobolev": frozenset({"input", "h", "radii", "lambda_decades",
                          "threshold", "expect", "out"}),
    "decay": frozenset({"input", "h", "radii", "threshold", "expect", "out"}),
    "verify": frozenset({"out", "corpus_size"}),
}

_PATH_KEYS = frozenset({"input", "out"})
_STR_KEYS = frozenset({"variant", "expect"})
_INT_KEYS = frozenset({"radii", "corpus_size"})


def _coerce(name: str, value, path):
    if name in _PATH_KEYS or name in _STR_KEYS:
        if not isinstance(value, str):
            raise SpecSchemaError(f"config key '{name}' must be a string",
                                  path=path)
        return Path(value) if name in _PATH_KEYS else value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecSchemaError(f"config key '{name}' must be a number",
                              path=path)
    if name in _INT_KEYS:
        # inf and nan are floats that are not integers
        if isinstance(value, float) and not value.is_integer():
            raise SpecSchemaError(f"config key '{name}' must be an integer",
                                  path=path)
        return int(value)
    return float(value)


def _key_line(text: str, key: str) -> Optional[int]:
    """Line of the first occurrence of "key" in a config file's text."""
    needle = f'"{key}"'
    return (text[:text.index(needle)].count("\n") + 1
            if needle in text else None)


def _flag_choices(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> choices of the command's flags that have them, read from the
    parser so that config-file values obey the same lists."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {a.dest: a.choices for a in sub._actions if a.choices}


def _load_config_file(path, command: str, choices: dict) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise SpecSchemaError(f"cannot read config: {e.strerror or e}",
                              path=path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecSchemaError(f"invalid JSON: {e.msg}", path=path,
                              line=e.lineno)
    if not isinstance(data, dict):
        raise SpecSchemaError("config root must be an object", path=path,
                              line=1)
    allowed = _COMMAND_KEYS[command]
    out = {}
    for key, value in data.items():
        canon = key.replace("-", "_")
        if canon not in allowed:
            raise SpecSchemaError(
                f"config key '{key}' is not recognized for {command}",
                path=path, line=_key_line(text, key))
        if value is None:
            continue
        value = _coerce(canon, value, path)
        if canon in choices and value not in choices[canon]:
            raise SpecSchemaError(
                f"config key '{key}': invalid choice '{value}' (choose from "
                f"{', '.join(choices[canon])})", path=path,
                line=_key_line(text, key))
        out[canon] = value
    return out


def _resolve(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> ExperimentConfig:
    from_file = {}
    if getattr(args, "config", None) is not None:
        from_file = _load_config_file(args.config, args.command,
                                      _flag_choices(parser, args.command))
    merged = {}
    for name in _COMMAND_KEYS[args.command]:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            merged[name] = flag_val
        elif name in from_file:
            merged[name] = from_file[name]
    return ExperimentConfig(command=args.command, **merged)


# --expect words for the shared verdicts; sobolev also takes the names it
# prints
_EXPECT = {
    "persists": PERSISTS,
    "bounded_away_from_zero": PERSISTS,
    "vanishes": DECAYS,
    "decays_to_zero": DECAYS,
}
_EXPECT_SOBOLEV = {**_EXPECT, "w11": DECAYS, "bv-with-jumps": PERSISTS,
                   "bv_with_jumps": PERSISTS}


def _expected(cfg: ExperimentConfig, table: dict = _EXPECT) -> Optional[str]:
    if cfg.expect is None:
        return None
    key = cfg.expect.lower()
    if key not in table:
        choices = ", ".join(sorted(set(table)))
        raise SpecSchemaError(
            f"unknown expectation '{cfg.expect}' (choices: {choices})")
    return table[key]


def _verdict_exit(classification: str, expected: Optional[str]) -> int:
    if classification == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    if expected is not None and classification != expected:
        return EXIT_MISMATCH
    return EXIT_OK


def _require_input(cfg: ExperimentConfig) -> Path:
    if cfg.input is None:
        raise SpecSchemaError("missing --input (flag or config file)")
    return cfg.input


def _experiment_kwargs(cfg: ExperimentConfig) -> dict:
    kwargs = {}
    if cfg.h is not None:
        kwargs["h"] = cfg.h
    if cfg.radii is not None:
        kwargs["radii_per_decade"] = cfg.radii
    if cfg.lambda_decades is not None:
        kwargs["lambda_decades"] = cfg.lambda_decades
    if cfg.threshold is not None:
        kwargs["threshold"] = cfg.threshold
    return kwargs


def _write_curve(cfg: ExperimentConfig, curve, block: str, title: str):
    """curve.csv, verdict.txt and curve.svg into --out, if given."""
    if cfg.out is None:
        return
    out = Path(cfg.out)
    specio.write_text(out / "curve.csv", specio.distribution_csv(curve))
    specio.write_text(out / "verdict.txt", block)
    svg = line_plot_svg(curve.lambdas, curve.products, title=title,
                        xlabel="lambda", ylabel="lambda * volume")
    specio.write_text(out / "curve.svg", svg)


def _cmd_distcurve(cfg: ExperimentConfig) -> int:
    expected = _expected(cfg)
    mu = specio.load_measure(_require_input(cfg))
    variant = cfg.variant or "M"
    if variant == "Mtau" and cfg.tau is None:
        raise SpecSchemaError("variant Mtau requires --tau")
    res = distribution_experiment(mu, variant, tau=cfg.tau,
                                  **_experiment_kwargs(cfg))
    block = specio.verdict_block(res.verdict)
    _write_curve(cfg, res.curve, block, f"level products, variant {variant}")
    sys.stdout.write(block)
    return _verdict_exit(res.verdict.classification, expected)


# the sobolev verdict names
_SOBOLEV_WORDS = {DECAYS: "W11", PERSISTS: "BV-with-jumps",
                  INCONCLUSIVE: "inconclusive"}


def _cmd_sobolev(cfg: ExperimentConfig) -> int:
    expected = _expected(cfg, _EXPECT_SOBOLEV)
    f = specio.load_bv(_require_input(cfg))
    res = sobolev_experiment(f, **_experiment_kwargs(cfg))
    name = _SOBOLEV_WORDS[res.verdict.classification]
    block = f"verdict={name}\n" + specio.verdict_block(res.verdict)
    _write_curve(cfg, res.curve, block, "oscillation level products")
    sys.stdout.write(block)
    return _verdict_exit(res.verdict.classification, expected)


def _cmd_decay(cfg: ExperimentConfig) -> int:
    expected = _expected(cfg)
    tf = specio.load_timefield(_require_input(cfg))
    kwargs = {}
    if cfg.h is not None:
        kwargs["h_background"] = cfg.h
    if cfg.radii is not None:
        kwargs["per_decade"] = cfg.radii
    if cfg.threshold is not None:
        kwargs["threshold"] = cfg.threshold
    report = decay_sweep(tf, **kwargs)
    block = specio.decay_block(report)
    if cfg.out is not None:
        out = Path(cfg.out)
        specio.write_text(out / "decay.csv", specio.decay_csv(report))
        specio.write_text(out / "report.txt", block)
        svg = line_plot_svg(report.deltas, report.q_values,
                            title="clipped decay quantity",
                            xlabel="delta", ylabel="Q")
        specio.write_text(out / "decay.svg", svg)
    sys.stdout.write(block)
    return _verdict_exit(report.verdict, expected)


def _cmd_verify(cfg: ExperimentConfig) -> int:
    rep = run_verify(corpus_size=cfg.corpus_size)
    if cfg.out is not None:
        out = Path(cfg.out)
        specio.write_text(out / "report.txt", rep.text)
        specio.write_text(out / "constants.json",
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
    p.add_argument("--input", type=Path, default=None,
                   help="JSON spec file to load")
    if variants is not None:
        p.add_argument("--variant", choices=variants, default=None,
                       help="maximal operator to evaluate")
    p.add_argument("--h", type=float, default=None,
                   help="grid spacing (background cell size for decay)")
    p.add_argument("--radii", type=int, default=None,
                   help="radius samples per decade")
    if spectral:
        p.add_argument("--lambda-decades", type=float, default=None,
                       dest="lambda_decades",
                       help="level range span in decades")
    p.add_argument("--threshold", type=float, default=None,
                   help="absolute persistence threshold")
    p.add_argument("--expect", default=None,
                   help="expected verdict; mismatch exits 3")
    _add_output(p)


def _add_output(p):
    p.add_argument("--out", type=Path, default=None,
                   help="directory for CSV/SVG/verdict artifacts")
    p.add_argument("--config", type=Path, default=None,
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
    p.add_argument("--tau", type=float, default=None,
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
    p.add_argument("--corpus-size", type=int, default=None,
                   dest="corpus_size",
                   help="randomized draw count per check (default full)")
    _add_output(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args, parser)
        return _HANDLERS[cfg.command](cfg)
    except MaxcharError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
