#!/usr/bin/env python3
"""Regenerate calibration/constants.json from a full verification run.

The recorded constants are the empirically measured bounds (penalized
lower-bound constant, semigroup ratio, weak-type normalizations, decay
levels).  The acceptance suite compares live runs against this file, so
regenerate it only when an intentional change shifts a constant, and
commit the diff.
"""

import argparse
import sys
from pathlib import Path

from maxchar.errors import MaxcharError
from maxchar.verify import constants_json, run_verify

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path,
                    default=REPO / "calibration" / "constants.json")
    ap.add_argument("--seed", type=int, default=None,
                    help="override MAXCHAR_SEED / the default seed")
    args = ap.parse_args()
    try:
        rep = run_verify(seed=args.seed)
    except MaxcharError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(rep.text)
    if not rep.passed:
        print("verification failed; constants not written", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(constants_json(rep.constants))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
