"""Run one workload in this interpreter and print its result as JSON.

Started by run.py from the root of a checkout, with src/ on PYTHONPATH.
Each round runs every case of the workload through maxchar.cli.main with
--out under the work directory, back to back, then checks each case's
outputs.  Rounds repeat while the next one still fits in --seconds, two
at least.  With --trace 1 a first warm-up round is left out of the
metrics, then untraced and traced rounds alternate, so that the overhead
is measured against warm rounds of the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

MAX_SPANS_WRITTEN = 20000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True,
                   help="scratch directory for specs and artifacts")
    p.add_argument("--trace-file", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true",
                   help="import maxchar, write the specs, and exit")
    return p.parse_args(argv)


def _import_program(repo: Path):
    import maxchar
    import maxchar.cli
    import maxchar.decay
    import maxchar.level_sets
    src = (repo / "src").resolve()
    if Path(maxchar.__file__).resolve().parents[1] != src:
        raise SystemExit(f"maxchar imported from {maxchar.__file__}, "
                         f"not from {src}")
    return maxchar


class Runner:
    """Runs rounds of cases; keeps the result each CLI call computed."""

    def __init__(self, maxchar, cases, spec_paths, art_root: Path):
        self.maxchar = maxchar
        self.cases = cases
        self.spec_paths = spec_paths
        self.art_root = art_root
        self.captured = []
        cli = maxchar.cli
        # The CLI does not print the field; keep its experiment result so
        # the checks can compare the field itself.  The lookup goes through
        # the defining module, so the traced version is used when installed.
        cli.distribution_experiment = self._capture(
            maxchar.level_sets, "distribution_experiment")
        cli.sobolev_experiment = self._capture(maxchar.level_sets,
                                               "sobolev_experiment")
        cli.decay_sweep = self._capture(maxchar.decay, "decay_sweep")

    def _capture(self, module, name):
        def call(*args, **kwargs):
            result = getattr(module, name)(*args, **kwargs)
            self.captured.append(result)
            return result
        return call

    def run_round(self):
        shutil.rmtree(self.art_root, ignore_errors=True)
        clock = time.perf_counter
        records = []
        start = clock()
        for case in self.cases:
            if case.command == "verify":
                os.environ["MAXCHAR_SEED"] = str(case.params["env_seed"])
            out = self.art_root / case.name
            argv = workloads.argv(case, self.spec_paths.get(case.name), out)
            self.captured.clear()
            buf = io.StringIO()
            error = None
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.maxchar.cli.main(argv)
            except Exception:
                code, error = None, traceback.format_exc()
            t1 = clock()
            result = self.captured[-1] if self.captured else None
            records.append((t1 - t0, checks.Outcome(
                code, buf.getvalue(), out, result,
                self.spec_paths.get(case.name)), error))
        return clock() - start, records

    def check_round(self, records, rng_seed):
        """Returns (case, problems, fault) per case; see checks.check_case.
        A case that raised has a problem, kept fault or not."""
        out = []
        for idx, (case, (_, outcome, error)) in enumerate(
                zip(self.cases, records)):
            if error is not None:
                out.append((case, [error.strip().splitlines()[-1]], []))
                continue
            rng = np.random.default_rng(rng_seed + [idx])
            try:
                found, fault = checks.check_case(case, outcome, rng,
                                                 self.maxchar)
            except Exception:
                found, fault = ["check raised: " + traceback.format_exc()
                                .strip().splitlines()[-1]], []
            out.append((case, found, fault))
        return out


def main(argv=None) -> int:
    args = _parse(argv)
    repo = Path.cwd()
    maxchar = _import_program(repo)
    cases = workloads.build(args.workload, args.seed, repo)
    spec_paths = workloads.write_specs(cases, args.work / "specs")
    if args.setup_only:
        return 0

    runner = Runner(maxchar, cases, spec_paths, args.work / "artifacts")
    tr = tracer.Tracer()
    rounds = []
    attempted = failed = 0
    correct = True
    faults_seen = {}
    warmup = 1 if args.trace else 0
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        traced = bool(args.trace) and len(rounds) >= 2 \
            and len(rounds) % 2 == 0
        tr.reset()
        if traced:
            tr.install()
        try:
            solve, records = runner.run_round()
        finally:
            tr.uninstall()
        if not rounds:
            # Peak memory of set-up plus one pass over every case, before
            # the checks.  Later rounds repeat the same cases and only add
            # allocator fragmentation (+8 MB on bv-sobolev's second round),
            # which would tie the figure to the number of rounds that fit.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for case, found, fault in runner.check_round(
                records, [args.seed, len(rounds)]):
            attempted += 1
            if found or fault:
                failed += 1
            if found:
                correct = False
                print(f"[{case.name}] " + "; ".join(found), file=sys.stderr)
            elif fault:
                faults_seen[case.name] = fault
        rounds.append({"traced": traced, "solve_s": solve,
                       "case_s": [r[0] for r in records],
                       "round_s": time.perf_counter() - round_began})
        if traced:
            rounds[-1].update(layers=tr.metrics(),
                              bookkeeping_s=tr.bookkeeping_s,
                              thread_s=dict(tr.thread_s))
            last_spans = tr.spans
        longest = max(r["round_s"] for r in rounds)
        # two timed rounds at least, so that a run's medians never rest on
        # a single round (a bv-sobolev round takes about 17 s, so its runs
        # last two rounds, longer than --seconds 28)
        enough = len(rounds) >= warmup + 2
        if enough and time.perf_counter() - began + longest > args.seconds:
            break
    for name, found in sorted(faults_seen.items()):
        print(f"[{name}] kept fault: " + "; ".join(found), file=sys.stderr)

    plain = [r for r in rounds[warmup:] if not r["traced"]]
    solve_plain = statistics.median(r["solve_s"] for r in plain)
    if args.trace:
        metrics, counts_repeat = _layer_metrics(rounds, solve_plain, args,
                                                last_spans)
        correct = correct and counts_repeat
    else:
        metrics = {
            "solve_s": {"value": solve_plain, "unit": "s"},
            "case_p50_s": {"value": statistics.median(
                t for r in plain for t in r["case_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "round_solve_s": [r["solve_s"] for r in rounds]}))
    return 0


def _layer_metrics(rounds, solve_plain, args, spans) -> tuple:
    traced = [r for r in rounds if r["traced"]]
    counts = {name: traced[0]["layers"][name]
              for name in tracer.COUNT_METRICS}
    counts_repeat = True
    for r in traced[1:]:
        for name in tracer.COUNT_METRICS:
            if r["layers"][name] != counts[name]:
                counts_repeat = False
                print(f"count {name} differs between traced rounds",
                      file=sys.stderr)
    solve_traced = statistics.median(r["solve_s"] for r in traced)
    metrics = {}
    for name in tracer.SELF_METRIC.values():
        metrics[name] = {"value": statistics.median(
            r["layers"][name] for r in traced), "unit": "s"}
    for name, value in counts.items():
        unit = "bytes" if name.endswith("bytes_written") else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": solve_traced - solve_plain,
                                   "unit": "s"}
    if args.trace_file is not None:
        _write_trace(args, traced[-1], spans, solve_plain, solve_traced,
                     metrics)
    return metrics, counts_repeat


def _write_trace(args, last, spans, solve_plain, solve_traced, metrics):
    self_sum = sum(v for k, v in last["layers"].items()
                   if k in tracer.SELF_METRIC.values())
    t0 = min((s[2] for s in spans), default=0.0)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "solve_s": {"untraced_median": solve_plain,
                    "traced_median": solve_traced},
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "last_traced_round": {
            "solve_s": last["solve_s"],
            "layer_self_sum_s": self_sum,
            "bookkeeping_s": last["bookkeeping_s"],
            "outside_spans_s": last["solve_s"] - self_sum
            - last["bookkeeping_s"],
            "span_count": len(spans),
            "other_thread_s": last["thread_s"],
        },
        "spans": [[layer, depth, round(b - t0, 9), round(c - b, 9)]
                  for layer, depth, b, c in spans[:MAX_SPANS_WRITTEN]],
    }
    args.trace_file.parent.mkdir(parents=True, exist_ok=True)
    args.trace_file.write_text(json.dumps(doc, indent=None))


if __name__ == "__main__":
    sys.exit(main())
