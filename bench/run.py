"""The proflq benchmark: cold-process sweeps, checked, timed and traced.

    python3 bench/run.py --workload lq_sweep --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout that holds `src/proflq`.  Each pass of
the workload runs in a fresh child process (`worker.py`), one thread, as
a closed loop: each check starts when the previous one ends.  A run
makes `--seconds // NOMINAL_PASS_S[workload]` passes, at least two, each
in a new process, so that it lasts about `--seconds` at this commit.

The host's speed drifts by tens of percent over minutes.  Between checks
each pass times a fixed piece of interpreter work that does not touch
proflq, and its check and set-up times are divided by its `slowness`:
how much longer that work took than on the reference machine
(`SPEED_REF_S`).  Times are thus in seconds at the reference speed.
`checks_per_s` and the latency percentiles pool the scaled check times of
all passes; `setup_s` is the median scaled set-up of the passes and
`peak_rss_mb` the median peak RSS.  The run report holds the unscaled
figures and each pass's slowness too.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
With `--trace 1` the run makes one untraced and one traced pass and
reports the per-layer metrics; the spans go to `.bench_out/`.  The line
before the last is a report with the environment stamp, sample counts,
`fail_frac` and the first failures.  The exit code is 0 when every pass
ran, whatever the checks found, and 2 when the run itself could not
happen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
# Wall seconds of one pass on a 2-vCPU Xeon at 2.1 GHz at the commit that
# added the benchmark.  A run makes seconds // NOMINAL_PASS_S passes (at
# least two), so the number of passes, and with it the number of samples,
# depends only on --seconds and stays the same on every commit, unless
# the passes get so slow that the run would overrun.
NOMINAL_PASS_S = {"coh_shapiro": 24, "lq_sweep": 15, "sep_sweep": 12, "module_towers": 12}
# Time of worker.SpeedProbe's work on the reference machine, the same
# Xeon, when the benchmark was added: over 34 passes, the median of the
# trimmed mean that slowness() takes.
SPEED_REF_S = 1.44e-3
OVERRUN = 1.25            # past MIN_PASSES, start no pass that could end
                          # after OVERRUN * --seconds
TIME_LIMIT_S = 150        # start no pass that could end past this
PASS_TIMEOUT_S = 170


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process; return its report with `setup_s` added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["first_check"] - started
    report["slowness"] = slowness(report["speed_s"])
    return report


def slowness(samples) -> float:
    """How many times longer the speed probe's work took than on the reference.

    The mean of the middle 80 % of the samples: it follows the share of
    time the host spent in its slow state, which a median would not (the
    samples fall in two clusters, and the median jumps between them).
    """
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut]) / SPEED_REF_S


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    count = max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))
    passes = []
    start = time.monotonic()
    while len(passes) < count:
        passes.append(spawn(workload, seed))
        projected = (time.monotonic() - start) * (len(passes) + 1) / len(passes)
        if projected > TIME_LIMIT_S or (len(passes) >= MIN_PASSES
                                        and projected > OVERRUN * seconds):
            break
    metrics = {
        **time_metrics(passes, scaled=True),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        "pass_frac": (sum(p["status"]["ok"] for p in passes)
                      / sum(len(p["check_s"]) for p in passes), "frac"),
    }
    return metrics, passes


def time_metrics(passes: list, scaled: bool) -> dict:
    """The time metrics of a run, in reference seconds or, unscaled, as timed.

    The check times of all passes are pooled.  The host switches between a
    fast and a slow state many times a second, so a check's time is a draw
    from a mixture, and the share of slow time varies from pass to pass
    with the load of other tenants.  Pooled percentiles of scaled times
    follow that share far more steadily than a per-check best, which jumps
    with the luck of a few draws.
    """
    speed = [p["slowness"] if scaled else 1.0 for p in passes]
    times = [t / f for p, f in zip(passes, speed) for t in p["check_s"]]
    ok = sum(p["status"]["ok"] for p in passes)
    return {
        "checks_per_s": (ok / sum(times), "1/s"),
        "check_ms_p50": (percentile(times, 50) * 1e3, "ms"),
        "check_ms_p90": (percentile(times, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(p["setup_s"] / f for p, f in zip(passes, speed)), "s"),
    }


def traced_run(workload: str, seed: int) -> tuple[dict, list]:
    from tracing import PER_LAYER

    OUT.mkdir(exist_ok=True)
    plain = spawn(workload, seed)
    traced = spawn(workload, seed, "--trace",
                   "--spans", str(OUT / f"spans-{workload}-seed{seed}.npz"))
    layers = dict(traced["layers"])
    layers["proc.cpu_s"] = plain["cpu_s"]
    layers["trace.overhead_frac"] = (sum(traced["check_s"]) / traced["slowness"]
                                     / (sum(plain["check_s"]) / plain["slowness"]) - 1)
    metrics = {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER}
    return metrics, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "proflq" / "__init__.py").is_file():
        print(f"bench: no src/proflq in {ROOT}; run from a proflq checkout",
              file=sys.stderr)
        return 2
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg_start": os.getloadavg(), "seed": args.seed,
             "workload": args.workload, "trace": args.trace}
    try:
        if args.trace:
            metrics, passes = traced_run(args.workload, args.seed)
        else:
            metrics, passes = timed_run(args.workload, args.seed, args.seconds)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    stamp["numpy"] = passes[0]["numpy"]
    stamp["loadavg_end"] = os.getloadavg()
    status = {k: sum(p["status"][k] for p in passes) for k in passes[0]["status"]}
    attempted = sum(status.values())
    failed = attempted - status["ok"]
    report = {
        "env": stamp, "passes": len(passes), "checks_per_pass": len(passes[0]["check_s"]),
        "latency_samples": sum(len(p["check_s"]) for p in passes),
        "status": status, "fail_frac": failed / attempted,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_samples_s": [round(p["setup_s"], 4) for p in passes],
        "slowness": [round(p["slowness"], 4) for p in passes],
        "failures": [f for p in passes for f in p["failures"]][:10],
    }
    if not args.trace:
        report["unscaled"] = {k: v for k, (v, _) in
                              time_metrics(passes, scaled=False).items()}
    print(json.dumps(report))
    print(json.dumps({
        "correct": status["mismatch"] + status["error"] == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
