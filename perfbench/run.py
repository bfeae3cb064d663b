"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1

Runs from the root of a source checkout of nilkilling (the library is
imported from ./src).  Every run starts fresh worker processes with BLAS
pinned to one thread.  With --trace 0 it first starts workers that stop
after set-up (for more set-up samples), then one measuring worker, and
reports the end-to-end metrics; with --trace 1 it starts one worker that
also runs a traced batch and reports the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 only when every task of the run passed its answer gate.

Times are scaled to a machine of fixed speed: each task's CPU time is
multiplied by REF_UNIT_S over the median time of the reference units
(worker.reference_unit) run next to it, within REF_WINDOW tasks either side;
set-up CPU time by REF_UNIT_S over the median of all reference units of the
run, since set-up is too short to time reference units during it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0
# set-up-only workers: at least SETUP_MIN, more while their set-up CPU time
# sums to less than SETUP_BUDGET_S, at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 8, 3.0
# the speed all task times are scaled to: one reference unit takes 1.5 ms
REF_UNIT_S = 1.5e-3
REF_WINDOW = 10
WORKLOADS = ("oracle-ladder", "structure-sweep", "cli-small")


def start_worker(args, deadline, setup_only=False):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(args.blas_threads)
    # a fixed glibc mmap threshold: large arrays are always mapped and
    # unmapped, so ru_maxrss is the peak of live memory, not of heap history
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--launched", repr(time.monotonic())]
    # subprocess.run kills and reaps the worker when the timeout expires
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS threads of the worker (default 1)")
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of the n<=6 tasks only")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "nilkilling" / "__init__.py").is_file():
        print(f"no nilkilling source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        while not args.trace and len(setups) < SETUP_MAX and (
                len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S):
            setups.append(start_worker(args, deadline, True)["setup_s"])
        res = start_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    setups.append(res["setup_s"])

    # timed[p]: (slot, task CPU s, reference unit CPU s) in the order run
    timed = [t for p in res["timed"] for t in p]
    lat = [t[1] for t in timed]
    ref = [t[2] for t in timed]
    ref_med = statistics.median(ref)
    scaled_ms = [1e3 * x * REF_UNIT_S / statistics.median(
                     ref[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
                 for i, x in enumerate(lat)]
    deciles = statistics.quantiles(scaled_ms, n=10, method="inclusive")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes "
          f"of {len(res['timed'][0])} tasks; p50/p90 over {len(lat)} task "
          f"latencies; set-up over {len(setups)} starts")
    print(f"unscaled: tasks_per_s {len(lat) / sum(lat):.4g}, reference unit "
          f"median {1e3 * ref_med:.4g} ms (scaled to {1e3 * REF_UNIT_S:g} "
          f"ms), set-up CPU time {statistics.median(setups):.4g} s, set-up "
          f"wall time {res['setup_wall_s']:.4g} s")
    print("answers " + json.dumps(res["answers"], sort_keys=True))

    if args.trace:
        metrics = {name: {"value": val, "unit": unit}
                   for name, (val, unit) in sorted(res["layers"].items())}
    else:
        metrics = {
            "tasks_per_s": {"value": 1e3 * len(scaled_ms) / sum(scaled_ms),
                            "unit": "1/s"},
            "task_ms_p50": {"value": deciles[4], "unit": "ms"},
            "task_ms_p90": {"value": deciles[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups) * REF_UNIT_S
                        / ref_med, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
