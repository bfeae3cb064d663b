"""One benchmark run of one workload, in a fresh process (started by run.py).

Phases: import the library, generate the warm-up pass and run one task of
each distinct problem shape, then run whole timed passes in a closed loop
(one task at a time, the next only after the previous one returns), as
many as end closest to `--seconds`, and at least MIN_PASSES.  Right before
each timed task the worker times one `reference_unit()`, a fixed piece of
work that does not use the library, so that run.py can tell the machine's
speed at the moment the task ran.  With `--trace 1` the first MIN_PASSES
passes are run a second time with the tracer patched in, for the per-layer
metrics.

Prints one JSON object on the last line of stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import nilkilling
import tracer as tr
import workloads as wl

# every task kind is timed in at least this many passes; the traced batch
# repeats exactly this many, so that the work counts depend on the seed only,
# not on the machine's speed
MIN_PASSES = 2

_REF_MATRIX = np.random.default_rng(0).normal(size=(40, 40))


def reference_unit():
    """Fixed work, about 1.5 ms: an interpreter loop and three small LAPACK
    SVDs, the two kinds of work the library's time is spent in.  It never
    calls the library, so its time follows only the speed of the machine,
    which on a shared virtual machine drifts by tens of percent within
    seconds as other tenants come and go."""
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(3):
        np.linalg.svd(_REF_MATRIX)
    return s


def machine_facts():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nilkilling": nilkilling.__version__,
        "machine": platform.machine(),
    }


def run_pass(tasks, traced=None, first_id=0):
    """Run tasks back to back; returns latencies, reference-unit times, the
    wall time of the tasks and their outputs.

    A task's latency is the CPU time the process spent on it.  The worker is
    single-threaded (BLAS pinned to one thread) and does no I/O, so on a
    dedicated machine this equals its wall time; on a virtual machine it
    leaves out the time the hypervisor gives the CPU to other guests.  The
    untraced passes time one reference unit right before each task; the
    wall time leaves those out.
    """
    lat, ref, outs = [], [], []
    clock = time.process_time
    wall = 0.0
    for i, task in enumerate(tasks):
        if not traced:
            t0 = clock()
            reference_unit()
            ref.append(clock() - t0)
        w0, t0 = time.perf_counter(), clock()
        try:
            out = traced.run_task(first_id + i, task.run) if traced else task.run()
        except Exception as exc:   # a failed task is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        lat.append(clock() - t0)
        wall += time.perf_counter() - w0
        outs.append(out)
    return lat, ref, wall, outs


def check_pass(tasks, outs, answers):
    """Answer gate; returns the number of failed tasks."""
    failed = 0
    for task, out in zip(tasks, outs):
        if isinstance(out, Exception):
            answer, problems = {"error": type(out).__name__}, [repr(out)]
        else:
            answer, problems = task.check(out)
        if problems:
            failed += 1
            print(f"WRONG {task.label}: {'; '.join(problems)}", file=sys.stderr)
        prev = answers.setdefault(task.label, answer)
        if prev != answer:
            failed += 1
            print(f"UNSTABLE {task.label}: {prev} then {answer}", file=sys.stderr)
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    warm = wl.make_pass(args.workload, args.seed, 0, args.smoke)
    seen = set()
    for _, task in warm:
        if task.shape not in seen:
            seen.add(task.shape)
            task.run()
    # set-up is timed as CPU time from interpreter start, like the tasks
    result = {"setup_s": time.process_time(),
              "setup_wall_s": time.monotonic() - args.launched,
              "machine": machine_facts()}
    reference_unit()   # its first call pays one-time costs: keep them untimed
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes, timed, pass_walls = [], [], []
    answers, failed = {}, 0
    while True:
        slots, tasks = zip(*wl.make_pass(args.workload, args.seed,
                                         len(passes) + 1, args.smoke))
        p_lat, p_ref, wall, outs = run_pass(tasks)
        failed += check_pass(tasks, outs, answers)
        passes.append(tasks)
        timed.append(list(zip(slots, p_lat, p_ref)))
        pass_walls.append(wall)
        if args.smoke:
            break
        # stop when one more pass would end further from --seconds than now
        if (sum(pass_walls) + wall / 2 >= args.seconds
                and len(passes) >= MIN_PASSES):
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # timed[p]: (slot, task CPU s, reference unit CPU s) of pass p, in the
    # order the tasks ran
    result.update(passes=len(passes), pass_walls=pass_walls, timed=timed,
                  answers=answers)
    attempted = sum(len(t) for t in passes)

    if args.trace:
        tracer = tr.Tracer()
        tracer.patch()
        traced_wall, next_id = 0.0, 0
        try:
            for tasks in passes[:MIN_PASSES]:
                _, _, wall, outs = run_pass(tasks, tracer, next_id)
                next_id += len(tasks)
                traced_wall += wall
                failed += check_pass(tasks, outs, answers)
                attempted += len(tasks)
        finally:
            tracer.unpatch()
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        result["layers"] = tr.layer_metrics(
            tracer.names, tracer.arrays(), tracer.errors,
            sum(pass_walls[:MIN_PASSES]), traced_wall)

    result.update(attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
