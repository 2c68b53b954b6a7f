#!/usr/bin/env python3
"""Drive the CLI over the bundled spec files and collect the artifacts.

Each case writes its CSV/SVG/verdict files under runs/<name>/ and the
script prints one line per case with the exit status.  Overall exit is 0
only if every case matched its expected verdict.
"""

import sys
from pathlib import Path

from maxchar.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent

# name, command, spec, expected verdict, extra flags
CASES = (
    ("atom-M", "distcurve", "specs/unit_atom.json", "persists", ()),
    ("chi-M", "distcurve", "specs/chi_density.json", "vanishes", ()),
    ("cancel-Mbar", "distcurve", "specs/cancel_pair.json", "persists",
     ("--variant", "Mbar")),
    ("square-M", "distcurve", "specs/square_2d.json", "persists",
     ("--h", "0.025")),
    ("segment-M", "distcurve", "specs/segment_2d.json", "persists",
     ("--h", "0.05")),
    ("tent-A", "sobolev", "specs/tent.json", "W11", ()),
    ("step-A", "sobolev", "specs/step.json", "bv-with-jumps", ()),
    ("sign-decay", "decay", "specs/sign_field.json", "persists", ()),
    ("tent-decay", "decay", "specs/tent_field.json", "vanishes", ()),
)


def main() -> int:
    worst = 0
    for name, command, spec, expect, extra in CASES:
        code = cli_main([command, "--input", str(REPO / spec), "--expect",
                         expect, *extra, "--out", str(REPO / "runs" / name)])
        print(f"[{name}] exit={code}")
        worst = max(worst, code)
    code = cli_main(["verify", "--out", str(REPO / "runs" / "verify")])
    print(f"[verify] exit={code}")
    worst = max(worst, code)
    print(f"artifacts under {REPO / 'runs'}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
