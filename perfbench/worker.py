"""One benchmark process: set up, then run a workload's round in a closed loop.

Started by ``run.py`` as a fresh single-threaded child process, from the
root of a source checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --run-dir DIR --result FILE [--setup-only]

Set-up is everything from process start until ``subtail.cli`` is imported
and the round's config files are written.  Its end is reported twice: as
the process's CPU time so far, and as a ``time.perf_counter`` reading, a
system-wide monotonic clock on Linux, so the parent can subtract its own
reading taken just before the spawn.

The closed loop times each CLI call alone, in CPU seconds (``cpu_time``)
and in wall seconds.  Each call writes into its own output directory, which
the parent checks after this process has ended.

From the start of ``main``, before the program is imported, until the loop
ends (unless ``--trace 1``), the process samples the host's speed: a timer
signal interrupts it every ``SETUP_EVERY_S`` during set-up and
``WORK_EVERY_S`` after it, and the handler times ``reference()`` in CPU
seconds.  ``run.py`` scales each CPU
time by the samples taken during it (see README, "Host speed").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_EVERY_S = 0.01
WORK_EVERY_S = 0.1
samples = []  # (perf_counter at start, CPU seconds) of each host-speed sample


def reference():
    """A fixed mix of interpreted work, ~0.8 ms: arithmetic, float math, a dict."""
    d = {}
    acc = 0.0
    for i in range(2000):
        x = i * 0.001
        acc += math.exp(-x) * math.sqrt(x + 1.0) + i * i
        d[i & 255] = acc
    return acc


def _sample(signum, frame):
    t0, c0 = time.perf_counter(), time.process_time()
    reference()
    samples.append((t0, time.process_time() - c0))


def _argv(call, config_path):
    argv = [call["subcommand"], "--seed", str(call["seed"])]
    if config_path:
        argv += ["--config", config_path]
    return argv


def _setup(args):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from subtail import cli

    import workloads

    calls = workloads.build(args.workload, args.seed)
    cfg_dir = os.path.join(args.run_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    argvs = []
    for i, call in enumerate(calls):
        path = None
        if call["config"] is not None:
            path = os.path.join(cfg_dir, "%d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(call["config"], fh)
        argvs.append(_argv(call, path))
    return cli, argvs


def cpu_time():
    """CPU seconds of this process and of the child processes it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, SETUP_EVERY_S, SETUP_EVERY_S)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli, argvs = _setup(args)
    result = {"ready": time.perf_counter(), "ready_cpu": cpu_time(), "samples": samples}
    if args.setup_only:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tr = None
    if args.trace:
        # traced runs measure layers, not the host: no samples inside them
        signal.setitimer(signal.ITIMER_REAL, 0)
        import tracer

        result["wrapper_ns"] = tracer.calibrate()
        tr = tracer.install()
    else:
        signal.setitimer(signal.ITIMER_REAL, WORK_EVERY_S, WORK_EVERY_S)

    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        calls = []
        for i, argv in enumerate(argvs):
            out = os.path.join(args.run_dir, "out", "r%d" % k, "c%d" % i)
            error = None
            t0, c0 = time.perf_counter(), cpu_time()
            try:
                rc = cli.main(argv + ["--out", out])
            except Exception as exc:  # a failed call is counted, not fatal
                rc, error = None, "%s: %s" % (type(exc).__name__, exc)
            calls.append({"rc": rc, "t0": t0, "cpu_s": cpu_time() - c0,
                          "wall_s": time.perf_counter() - t0, "error": error, "out": out})
        rounds.append({"calls": calls})
        if tr is not None:
            tr.end_round()
            rounds[-1]["layers"] = tr.rounds[-1]["metrics"]
        if time.perf_counter() - start >= args.seconds:
            break
    signal.setitimer(signal.ITIMER_REAL, 0)

    result.update(
        rounds=rounds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=_versions(),
    )
    if tr is not None:
        spans_path = os.path.join(args.run_dir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([r["spans"] for r in tr.rounds], fh, separators=(",", ":"))
        result["spans"] = spans_path
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
