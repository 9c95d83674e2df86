"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload route --seed 1 --seconds 25 --trace 0

A run repeats whole passes over the workload's solve calls (closed loop,
one process, one call at a time) until ``--seconds`` have elapsed, then
checks every output independently (see ``checks.py``). With ``--trace 0``
it reports the end-to-end metrics: ``solve_s`` (median pass), ``setup_s``
(median of several fresh-process imports of ``crewroute`` plus instance
generation) and ``peak_rss_mb``. With ``--trace 1`` it runs an untraced
warm-up pass, then alternates passes with and without the layer hooks of
``hooks.py``, and reports the per-layer metrics of the traced passes plus
the tracing overhead (median traced pass minus median untraced pass). The
last line of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# The program solves one model at a time on one thread. With more BLAS
# threads the dense simplex rounds differently, so its pivot path and work
# would depend on the machine's core count (and a second core only spins).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 7

from workloads import WORKLOADS  # noqa: E402  (after the path set-up)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true",
                   help="time one import of crewroute plus instance "
                        "generation and print the seconds (internal)")
    return p.parse_args(argv)


def setup_sample(workload: str) -> float:
    t0 = time.perf_counter()
    from workloads import instances

    instances(workload)
    return time.perf_counter() - t0


def measure_setup(workload: str) -> list[float]:
    """Set-up time in fresh processes, so every sample imports from scratch."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


class Runner:
    """Runs passes over the calls and keeps the first output of each call."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.reports: dict[str, str] = {}
        self.unsteady: list[str] = []

    def run_pass(self, tracer=None) -> float:
        if tracer is not None:
            from hooks import ROOT_COUNTS
        done = []
        t0 = time.perf_counter()
        for call in self.plan:
            self.attempted += 1
            try:
                if tracer is None:
                    res = call.run()
                else:
                    res = tracer.call(f"bench.{call.kind}", call.run,
                                      ROOT_COUNTS.get(call.kind))
            except Exception:  # a failed solve is counted, the run goes on
                self.failed += 1
                traceback.print_exc()
                continue
            done.append((call, res))
        elapsed = time.perf_counter() - t0
        for call, res in done:
            report = json.dumps(res.as_dict(), sort_keys=True)
            if self.reports.setdefault(call.name, report) != report:
                self.unsteady.append(call.name)
            self.first.setdefault(call.name, res)
        return elapsed


def check_all(runner: Runner) -> list[str]:
    from checks import CHECKS, CheckFailed

    errors = [f"{name}: report differs between passes"
              for name in sorted(set(runner.unsteady))]
    for call in runner.plan:
        if call.name not in runner.first:
            continue
        try:
            CHECKS[call.kind](call, runner.first[call.name])
        except CheckFailed as exc:
            errors.append(f"{call.name}: {exc}")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_sample:
        print(setup_sample(args.workload))
        return 0
    try:
        import crewroute
    except ImportError as exc:
        print(f"cannot import crewroute from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(crewroute.__file__).resolve().parents[1] != ROOT / "src":
        print(f"crewroute was imported from {crewroute.__file__}, not from "
              f"this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import calls, instances

    setup = [] if args.trace else measure_setup(args.workload)
    runner = Runner(calls(args.workload, instances(args.workload), args.seed))
    start = time.perf_counter()
    passes: list[float] = []
    untraced: list[float] = []
    tracer = None
    if args.trace:
        from hooks import Tracer, layer_metrics

        tracer = Tracer()
        # The first pass of a process runs slower, so it is left out of the
        # overhead; traced and untraced passes then alternate.
        runner.run_pass()
    while True:
        if tracer is None:
            passes.append(runner.run_pass())
        else:
            tracer.install()
            passes.append(runner.run_pass(tracer))
            tracer.uninstall()
            untraced.append(runner.run_pass())
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = check_all(runner)
    for line in errors:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    solve_s = statistics.median(passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(runner.plan)} calls, pass times "
          + " ".join(f"{p:.3f}" for p in passes) + " s")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("setup samples " + " ".join(f"{s:.3f}" for s in setup) + " s")
    else:
        layers, absent = layer_metrics(tracer, len(passes))
        metrics = {}
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": metric_unit(name)}
        plain_s = statistics.median(untraced)
        metrics["trace.overhead_ms"] = {
            "value": (solve_s - plain_s) * 1000.0, "unit": "ms"}
        print(f"tracing overhead: traced pass {solve_s:.3f} s, untraced "
              f"pass {plain_s:.3f} s")
        if absent:
            print("absent (hook target gone): " + " ".join(absent))
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.parent, s.start, s.end,
                                     s.counts]) + "\n")
    result = {"correct": not errors, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"passes_s": passes, "untraced_passes_s": untraced,
                   "setup_s": setup, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return {"pairing.column_yield": "cols/solve",
            "rcsp.paths_per_solve": "paths/solve"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
