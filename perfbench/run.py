#!/usr/bin/env python3
"""Benchmark entry point: run one workload of maxchar and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The program is imported from src/ of
that checkout.  Set-up is timed by starting a fresh interpreter that
imports maxchar and writes the workload's seeded spec files, several
times, and taking the median.  Bytecode is read from and written to a
cache of the run's own (PYTHONPYCACHEPREFIX), filled by one untimed
set-up first, so every timed set-up starts from the same warm cache
whatever __pycache__ directories the checkout holds.  A further fresh
interpreter (worker.py)
then runs the workload single-threaded for --seconds.  The last line of
stdout is one JSON object with correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Work files go under perfbench/out/ and are removed at the
end; a traced run leaves its spans in perfbench/out/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30.0   # one set-up; it takes well under a second
# Time a worker may take beyond --seconds: the rounds every run completes
# (a warm-up, an untraced and a traced round with --trace 1; a bv-sobolev
# round takes about 17 s) and the overrun of the last round.
RUN_MARGIN_S = 90.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env(repo: Path, pycache: Path) -> dict:
    env = dict(os.environ)
    src = str(repo / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPYCACHEPREFIX=str(pycache),
               PYTHONHASHSEED="0")
    env.pop("MAXCHAR_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(cmd, env, repo, timeout):
    """Run a child to completion; kill it and wait if it overruns."""
    with subprocess.Popen(cmd, cwd=repo, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{cmd[1]} exceeded its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    repo = Path.cwd().resolve()
    if not (repo / "src" / "maxchar" / "__init__.py").is_file():
        print("error: src/maxchar not found; run from the root of a maxchar "
              "checkout", file=sys.stderr)
        return 2
    out_root = HERE / "out"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = out_root / f"work-{tag}"
    pycache = out_root / f"pycache-{tag}"
    env = _child_env(repo, pycache)
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work)]
    try:
        setups = []
        for k in range(1 + SETUP_REPEATS):   # the first fills the cache
            t0 = time.perf_counter()
            _run(worker + ["--setup-only"], env, repo, SETUP_TIMEOUT_S)
            if k:
                setups.append(time.perf_counter() - t0)
            shutil.rmtree(work, ignore_errors=True)
        cmd = worker + ["--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-file", str(
                out_root / f"trace-{args.workload}-{args.seed}.json")]
        out = _run(cmd, env, repo, args.seconds + RUN_MARGIN_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(pycache, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    rounds = result.pop("round_solve_s")
    print(f"{len(rounds)} rounds, solve_s " + " ".join(
        f"{t:.4g}" for t in rounds), file=sys.stderr)
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups),
                                         "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
