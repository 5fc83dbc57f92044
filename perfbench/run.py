"""End-to-end benchmark of the two interpolation engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client solves a fresh instance per
call, in a closed loop: each call starts when the previous one returns.
Every instance is solved by ``popov_mib`` (the paper's engine) and by
``iterative_mib`` (the baseline), verified through the public path, and
passed through the correctness gate in ``gate.py``.

``--trace 0`` times the untraced calls for at least S seconds and at
least ``MIN_CALLS`` instances, and prints the end-to-end metrics.
``--trace 1`` solves a fixed set of ``TRACE_CALLS`` instances, each once
untraced and once traced, and prints the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``.  The last line of the
output is one JSON object; the exit code is 1 when any instance failed.
"""

from __future__ import annotations

import os

# one thread for every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from gate import certify, krylov_rank, verify
from spans import Tracer, summarize, unit_of
from workloads import WORKLOADS, instance_seed, load_library

MIN_CALLS = 100  # p90 keeps ten samples beyond it
TRACE_CALLS = 20
SETUP_REPEATS = 5
MAX_LOOP_SECONDS = 150.0  # ends a run early if the engines slow down badly

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1000.0


def set_up(wl, seed: int):
    """Import the library, make the shared modulus and warm up both engines.

    Returns the library, the modulus and the seconds this took.
    """
    start = time.perf_counter()
    lib = load_library()
    field = lib.ff_poly.Modulus(wl.prime)
    warm = wl.generate(lib, field, instance_seed(seed, -1))
    wl.popov(lib, warm)
    lib.mib_engine.iterative_mib(wl.encode(lib, warm))
    return lib, field, time.perf_counter() - start


class Run:
    """Samples and failures of one run."""

    def __init__(self):
        self.ms = defaultdict(list)  # popov, iterative, verify, and untraced in a traced run
        self.sigma = 0
        self.attempted = 0
        self.failed = 0
        self.layers = defaultdict(float)

    def instance(self, lib, wl, field, seed: int, index: int, tracer=None) -> None:
        """Solve, verify and gate one instance; a failure never stops the run."""
        self.attempted += 1
        try:
            failures = self._solve(lib, wl, field, seed, index, tracer)
        except Exception:  # the run goes on and reports the instance as failed
            failures = [traceback.format_exc()]
        if failures:
            self.failed += 1
            print(f"instance {index} of {wl.name} seed {seed} failed: {failures}", file=sys.stderr)

    def _solve(self, lib, wl, field, seed, index, tracer):
        prob = wl.generate(lib, field, instance_seed(seed, index))
        inst = wl.encode(lib, prob)
        samples = {}
        if tracer is None:
            (basis, delta), samples["popov"] = timed(wl.popov, lib, prob)
            (ibasis, idelta), samples["iterative"] = timed(lib.mib_engine.iterative_mib, inst)
            verified, samples["verify"] = timed(verify, lib, basis, inst)
        else:
            (ubasis, udelta), samples["untraced"] = timed(wl.popov, lib, prob)
            tracer.install()
            try:
                with tracer.root("popov"):
                    (basis, delta), samples["popov"] = timed(wl.popov, lib, prob)
                with tracer.root("iterative"):
                    ibasis, idelta = lib.mib_engine.iterative_mib(inst)
                with tracer.root("verify"):
                    verified = verify(lib, basis, inst)
            finally:
                tracer.uninstall()
                for key, value in summarize(tracer.spans).items():
                    if key.endswith("depth_max"):
                        self.layers[key] = max(self.layers[key], value)
                    else:
                        self.layers[key] += value
                tracer.spans.clear()
        failures = certify(inst, basis, delta, verified, krylov_rank(lib, inst))
        if ibasis.rows != basis.rows or tuple(idelta) != tuple(delta):
            failures.append("popov_mib and iterative_mib outputs differ")
        if tracer is not None and (ubasis.rows != basis.rows or udelta != delta):
            failures.append("traced and untraced outputs differ")
        if not failures:
            for key, value in samples.items():
                self.ms[key].append(value)
            self.sigma += inst.sigma
        return failures


def p90(values):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run, setup_times):
    """Every end-to-end figure of the report, declared in ``BENCHMARK.json`` or not.

    The declared centre of each timing is its mean, not its median.  A
    shared host can run at one of two speeds for tens of seconds at a
    time; the median of a run that spans both jumps between them, while
    the mean moves with the share of the run spent at each.  Medians are
    printed too.
    """
    out = {}
    for name in ("popov", "iterative", "verify"):
        ms = run.ms[name]
        out[f"{name}_ms.mean"] = (statistics.fmean(ms), "ms", len(ms))
        out[f"{name}_ms.p50"] = (statistics.median(ms), "ms", len(ms))
        out[f"{name}_ms.p90"] = (p90(ms), "ms", len(ms))
    popov = run.ms["popov"]
    return {
        **out,
        "popov_sigma_per_s": (run.sigma / (sum(popov) / 1000.0), "1/s", len(popov)),
        "failed_frac": (run.failed / run.attempted, "frac", run.attempted),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(run: Run):
    out = {key: (value, unit_of(key), run.attempted) for key, value in run.layers.items()}
    overhead = statistics.median(run.ms["popov"]) / statistics.median(run.ms["untraced"]) - 1
    out["trace.overhead_frac"] = (overhead, unit_of("trace.overhead_frac"), len(run.ms["popov"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    lib, field, setup_s = set_up(wl, args.seed)
    setup_times = [setup_s]
    run = Run()
    start = time.perf_counter()
    if args.trace:
        tracer = Tracer()
        for index in range(TRACE_CALLS):
            run.instance(lib, wl, field, args.seed, index, tracer)
    else:
        while run.attempted < MIN_CALLS or time.perf_counter() - start < args.seconds:
            if time.perf_counter() - start > MAX_LOOP_SECONDS:
                print(f"stopped after {run.attempted} instances", file=sys.stderr)
                break
            # the set-up is repeated across the run, so that its median
            # does not depend on the speed of the host at one moment
            if (len(setup_times) < SETUP_REPEATS
                    and time.perf_counter() - start >= len(setup_times) * args.seconds / SETUP_REPEATS):
                lib, field, setup_s = set_up(wl, args.seed)
                setup_times.append(setup_s)
            run.instance(lib, wl, field, args.seed, run.attempted)
    loop_s = time.perf_counter() - start
    if not run.ms["popov"]:
        print("no instance passed the correctness gate", file=sys.stderr)
        return 1

    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values = per_layer(run) if args.trace else end_to_end(run, setup_times)
    print(f"# {wl.name} seed {args.seed}: {run.attempted} instances, {run.failed} failed, "
          f"{loop_s:.1f} s measured, trace {args.trace}")
    for name in sorted(values):
        value, unit, n = values[name]
        print(f"{name:56s} {value:14.4f} {unit:5s} (n={n})")
    if not args.trace:
        ratio = values["popov_ms.p50"][0] / values["iterative_ms.p50"][0]
        print(f"crossover popov_ms.p50 / iterative_ms.p50 = {ratio:.2f} (reported, not gated)")
    metrics = {}
    for m in declared:
        # a per-layer pair that did not occur on this workload reads 0
        value = values.get(m["name"], (0,))[0] if args.trace else values[m["name"]][0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
