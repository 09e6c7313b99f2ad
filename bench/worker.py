"""One cold pass of one workload, in a process of its own.

    python3 bench/worker.py --workload lq_sweep --seed 1 [--trace]

`run.py` starts this with `src` on PYTHONPATH.  It builds the inputs,
runs every check of the workload once and prints one JSON line: the time
the first check began (time.monotonic, shared by all processes), the
duration and outcome of each check, peak RSS and CPU time.  A fresh
process per pass matters: the library keeps module-level caches
(`groupcoh._RESOLUTIONS`, `lq._COSET_DIMS`, `lq._SUB_DIMS`) for the life
of the process, and no `proflq` invocation starts with them warm.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time

MAX_ORDER = 24  # the largest group order in the inputs: the whole catalog
SPEED_EVERY_S = 0.1  # the least time between two speed samples
SPEED_TAIL = 20      # samples taken after the last check


class SpeedProbe:
    """Times a fixed piece of interpreter work between checks.

    The host's speed drifts by tens of percent over minutes, and every
    check of a pass slows with it.  `run.py` divides a pass's check times
    by the speed this probe saw in the same pass.  The work does not touch
    proflq, so no change to the library moves it: list indexing and integer
    arithmetic, then building a set of small frozensets.  A sample is its
    duration in seconds.
    """

    def __init__(self):
        self.table = [[(a * 7 + b * 13) % 24 for b in range(24)] for a in range(24)]
        self.samples = []
        self.last = -float("inf")

    def sample(self):
        t0 = time.perf_counter()
        t, s = self.table, 0
        for _ in range(16):
            for row in t:
                for x in row:
                    s ^= t[x][s % 24]
        sets = {frozenset((i, i * 7 % 31, i * 13 % 17, s)) for i in range(1000)}
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return len(sets)

    def __call__(self):
        if time.perf_counter() - self.last >= SPEED_EVERY_S:
            self.sample()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--relabel", action="store_true",
                    help="rename the elements of every group, drawn from the seed")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--spans", help="file to write the spans to (with --trace)")
    ap.add_argument("--record", action="store_true",
                    help="record results instead of checking them")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import numpy
    import workloads

    sweep = workloads.WORKLOADS[args.workload]
    if sweep is workloads.module_towers:
        inputs = workloads.towers_inputs(args.seed)
    else:
        inputs = workloads.catalog_inputs(args.seed, MAX_ORDER, args.relabel)
    units = sweep(inputs)
    expected = None if args.record else workloads.load_expected()
    probe = SpeedProbe()
    first_check = time.monotonic()
    out = {"first_check": first_check, "python": platform.python_version(),
           "numpy": numpy.__version__}
    out.update(workloads.run_checks(units, expected, probe))
    out["wall_s"] = time.monotonic() - first_check
    for _ in range(SPEED_TAIL):
        probe.sample()
    out["speed_s"] = probe.samples
    if not args.record:
        del out["recorded"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["rss_kb"] = usage.ru_maxrss
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
