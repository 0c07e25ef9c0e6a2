"""subtail benchmark: one run of one workload.

    python3 perfbench/run.py --workload report|mc|fundsol --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run starts fresh single-threaded child processes
(``worker.py``): two that only set up, then one that runs the workload's
round of CLI calls in a closed loop until ``--seconds`` have passed (at
least one round).  The gated times, ``cpu_s`` and ``setup_s``, are CPU
seconds of those processes, scaled to a nominal host speed by the samples
``worker.reference()`` gives while they run (see README, "Host speed").
This process then checks every output, prints one line
per metric, and prints the result JSON as its last line.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json; with
``--trace 1`` the worker wraps the program's layers (``tracer.py``) and the
metrics are the ``per_layer`` ones.

State kept in ``.perfbench/`` of the checkout, per hash of the program's
and the benchmark's sources: output digests (every later run with the same
inputs must reproduce them, traced or not).  Full records of each run go
to ``.perfbench/results/``, spans of traced runs to ``.perfbench/trace/``.

Exit status 0 means a result was printed; it is 2 when the checkout holds
no program, 1 when a child process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 2  # set-up-only processes, plus the working one
DEADLINE_S = 170.0  # the whole run, every child included
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
Z_MAX = 5.0  # half-Caputo MC rows vs the closed form, in standard errors
SYM_RTOL = 1e-8  # p(t,x,y) vs p(t,y,x)
UNSTABLE_OUTPUTS = ("manifest.json", "report_timing.json")  # hold wall-clock times
# CPU times are scaled to seconds at this CPU time of worker.reference(),
# about its median on the 2-CPU Xeon box the benchmark was built on.
NOMINAL_REF_S = 0.00077


class RunFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _spawn(root, args, run_dir, tag, trace, setup_only, deadline):
    result = os.path.join(run_dir, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--run-dir", run_dir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    with open(os.path.join(run_dir, tag + ".log"), "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed("%s did not finish in time" % tag) from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        with open(os.path.join(run_dir, tag + ".log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RunFailed("%s exited with %d:\n%s" % (tag, proc.returncode, tail))
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["t_spawn"] = t0
    return res


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _check_report(call, out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        crits = json.load(fh)["criteria"]
    with open(os.path.join(out, "report_timing.json"), encoding="utf-8") as fh:
        secs = json.load(fh)["seconds"]
    c8 = sum(v for k, v in secs.items() if k.startswith("8 "))
    extra = {"c8_s": c8, "c_rest_s": sum(secs.values()) - c8}
    return len(crits), sum(1 for c in crits if not c["passed"]), extra


def _check_tails(call, out):
    rows = _read_csv(os.path.join(out, "tails.csv"))
    closed_form = call["config"]["kernel"] == workloads.HALF_CAPUTO
    bad = 0
    for row in rows:
        r, t = float(row["r"]), float(row["t"])
        ok = True
        for side in ("upper", "lower"):
            p, se = float(row[side + "_p"]), float(row[side + "_se"])
            ok = ok and 0.0 <= p <= 1.0 and math.isfinite(se) and se > 0.0
            if ok and closed_form:
                x = r / (2.0 * math.sqrt(t))
                exact = math.erf(x) if side == "upper" else math.erfc(x)
                ok = abs(p - exact) <= Z_MAX * se
        bad += not ok
    return len(rows), bad, {"tail_rows": len(rows)}


def _check_fundsol(call, out):
    rows = _read_csv(os.path.join(out, "fundsol.csv"))
    ps = [float(row["p"]) for row in rows]
    bad = [not (math.isfinite(p) and p > 0.0) for p in ps]
    if call["kind"] == "fundsol":
        # the last point swaps x and y of an earlier one
        pts = call["config"]["points"]
        last = pts[-1]
        j = next(i for i, q in enumerate(pts[:-1])
                 if (q["t"], q["x"], q["y"]) == (last["t"], last["y"], last["x"]))
        if not abs(ps[-1] - ps[j]) <= SYM_RTOL * abs(ps[j]):
            bad[-1] = True
        return len(rows), sum(bad), {"points": len(rows)}
    se_ok = all(math.isfinite(float(row["se"])) and float(row["se"]) >= 0.0 for row in rows)
    return len(rows), sum(bad) + (not se_ok), {"mc_points": len(rows)}


def _check_probe(call, out):
    rows = _read_csv(os.path.join(out, "fundsol.csv"))
    bad = sum(not (math.isfinite(float(row["p"])) and float(row["p"]) > 0.0) for row in rows)
    return len(rows), bad, {}


def _expected_ops(call):
    cfg = call["config"]
    if call["subcommand"] == "report":
        return 11
    if call["subcommand"] == "tails":
        return len(cfg["grid"]["r"]) * len(cfg["grid"]["t"])
    return len(cfg["points"])


_CHECKS = {"report": _check_report, "tails": _check_tails, "fundsol": _check_fundsol,
           "fundsol-mc": _check_fundsol, "fundsol-probe": _check_probe}


def _digest(out):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name in UNSTABLE_OUTPUTS:
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _bytes(out):
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


def _in(samples, t0, t1):
    """CPU seconds of the host-speed samples that started in [t0, t1)."""
    return [c for start, c in samples if t0 <= start < t1]


def _speed(durations):
    """Host speed relative to nominal, from the samples of a span (1 if none)."""
    if not durations:
        return 1.0
    return statistics.mean(NOMINAL_REF_S / d for d in durations)


def evaluate(workload, seed, res):
    """Check every call of every round; return per-round records and totals.

    CPU times are net of the host-speed samples taken inside the calls.  A
    call the plan marks ``known_error`` is a known defect of the program:
    that error is reported apart (``known``), not as a failure; any other
    outcome is checked like every call.
    """
    plan = workloads.build(workload, seed)
    attempted = failed = 0
    problems, known = [], []
    rounds = []
    for k, rnd in enumerate(res["rounds"]):
        rec = {"cpu_s": 0.0, "wall_s": 0.0, "digest": hashlib.sha256(), "bytes": 0, "extra": {}}
        for call, got in zip(plan, rnd["calls"]):
            cpu = got["cpu_s"] - sum(_in(res["samples"], got["t0"], got["t0"] + got["wall_s"]))
            rec["cpu_s"] += cpu
            rec["wall_s"] += got["wall_s"]
            key = call["kind"]
            rec["extra"][key + "_s"] = rec["extra"].get(key + "_s", 0.0) + cpu
            n_ops = _expected_ops(call)
            if got["error"] and got["error"].split(":")[0] == call["known_error"]:
                known.append("round %d %s: %s" % (k, call["label"], got["error"]))
                rec["digest"].update(got["error"].encode())
                continue
            try:
                if got["rc"] not in (0, 1):  # 1: a budget failed, outputs still written
                    raise ValueError("rc=%s %s" % (got["rc"], got["error"] or ""))
                n, bad, extra = _CHECKS[key](call, got["out"])
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                attempted += n_ops
                failed += n_ops
                problems.append("round %d %s: %s" % (k, call["label"], exc))
                continue
            attempted += n
            failed += bad
            if bad:
                problems.append("round %d %s: %d of %d checks failed" % (k, call["label"], bad, n))
            for name, v in extra.items():
                rec["extra"][name] = rec["extra"].get(name, 0) + v
            rec["digest"].update(_digest(got["out"]).encode())
            rec["bytes"] += _bytes(got["out"])
        rec["digest"] = rec["digest"].hexdigest()
        rounds.append(rec)
    if len({r["digest"] for r in rounds}) > 1:
        problems.append("rounds of one run wrote different outputs")
    return rounds, attempted, failed, problems, known


def workload_metrics(workload, rounds, attempted, failed):
    """The workload's own end-to-end numbers (medians over rounds)."""

    def med(fn):
        vals = []
        for r in rounds:
            try:
                vals.append(fn(r["extra"]))
            except (KeyError, ZeroDivisionError):  # a call of this round failed
                pass
        return statistics.median(vals) if vals else math.nan

    out = {"fail_frac": (failed / attempted, "ratio")}
    if workload == "report":
        out["c8_s"] = (med(lambda e: e["c8_s"]), "s")
        out["c_rest_s"] = (med(lambda e: e["c_rest_s"]), "s")
    elif workload == "mc":
        out["tail_rows_per_s"] = (med(lambda e: e["tail_rows"] / e["tails_s"]), "1/s")
        out["mc_points_per_s"] = (med(lambda e: e["mc_points"] / e["fundsol-mc_s"]), "1/s")
    else:
        out["points_per_s"] = (med(lambda e: e["points"] / e["fundsol_s"]), "1/s")
    return out


# ---------------------------------------------------------------------------
# State, environment, output
# ---------------------------------------------------------------------------


def code_hash(root):
    """Hash of the program's and this benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _load_state(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def environment(root, versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return dict(versions, nproc=len(os.sched_getaffinity(0)), cpu=cpu, commit=commit,
                code=code_hash(root), threads=SINGLE_THREAD)


def _bench_metrics(root, key):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="one run of one subtail benchmark workload")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # a terminated run still stops its child (the finally in _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subtail", "cli.py")):
        print("no program: %s/src/subtail/cli.py is missing" % root, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wanted = _bench_metrics(root, "per_layer" if args.trace else "end_to_end")
    state_dir = os.path.join(root, ".perfbench")
    run_dir = os.path.join(state_dir, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    for d in ("results", "trace"):
        os.makedirs(os.path.join(state_dir, d), exist_ok=True)
    os.makedirs(run_dir)
    try:
        return _run(root, args, run_dir, state_dir, wanted, deadline)
    except RunFailed as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(root, args, run_dir, state_dir, wanted, deadline):
    code = code_hash(root)
    state_path = os.path.join(state_dir, "state.json")
    state = _load_state(state_path)
    mine = state.setdefault(code, {"digests": {}})
    # report ignores the seed (see workloads), so its digest has one key
    dkey = args.workload if args.workload == "report" else "%s-%d" % (args.workload, args.seed)

    children = []
    if not args.trace:
        children = [_spawn(root, args, run_dir, "setup%d" % i, 0, True, deadline)
                    for i in range(SETUP_RUNS)]
    res = _spawn(root, args, run_dir, "work", args.trace, False, deadline)
    children.append(res)
    setup_cpus, setups = [], []
    for c in children:
        during = _in(c["samples"], c["t_spawn"], c["ready"])
        setup_cpus.append(c["ready_cpu"])
        setups.append((c["ready_cpu"] - sum(during)) * _speed(during))
    setup_walls = [c["ready"] - c["t_spawn"] for c in children]
    rounds, attempted, failed, problems, known = evaluate(args.workload, args.seed, res)
    for rec, rnd in zip(rounds, res["rounds"]):
        first, last = rnd["calls"][0], rnd["calls"][-1]
        rec["speed"] = _speed(_in(res["samples"], first["t0"], last["t0"] + last["wall_s"]))
        rec["cpu_raw_s"] = sum(c["cpu_s"] for c in rnd["calls"])
        rec["cpu_s"] *= rec["speed"]
        rec["extra"] = {k: v * rec["speed"] if k.endswith("_s") else v
                        for k, v in rec["extra"].items()}

    digest = rounds[0]["digest"]
    kept = mine["digests"].get(dkey)
    if kept is not None and kept != digest:
        problems.append("outputs differ from an earlier run of this source: %s != %s"
                        % (digest[:16], kept[:16]))
    elif not problems:
        mine["digests"][dkey] = digest

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in res["rounds"])
                  for name in res["rounds"][0]["layers"]}
        layers["cli.bytes_written"] = statistics.median(r["bytes"] for r in rounds)
        counter_ns, span_ns = res["wrapper_ns"]
        layers["trace.counter_ns_per_call"], layers["trace.span_ns_per_call"] = counter_ns, span_ns
        # the wrappers' calibrated cost per call times the calls they wrapped
        layers["trace.overhead_s"] = 1e-9 * (counter_ns * layers["trace.counted_calls"]
                                             + span_ns * layers["trace.spans"])
        values = layers
        spans_dst = os.path.join(state_dir, "trace", "%s-%d.json" % (args.workload, args.seed))
        os.replace(res["spans"], spans_dst)
    else:
        values = {"setup_s": statistics.median(setups),
                  "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                  "peak_rss_mb": res["peak_rss_mb"]}
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RunFailed("metrics not measured: %s" % ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    extra = workload_metrics(args.workload, rounds, attempted, failed)
    extra["cpu_raw_s"] = (statistics.median(r["cpu_raw_s"] for r in rounds), "s")
    extra["setup_cpu_raw_s"] = (statistics.median(setup_cpus), "s")
    extra["host_speed"] = (statistics.median(r["speed"] for r in rounds), "ratio")
    extra["wall_s"] = (statistics.median(r["wall_s"] for r in rounds), "s")
    extra["setup_wall_s"] = (statistics.median(setup_walls), "s")
    env = environment(root, res["versions"])

    _write_json(state_path, state)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "digest": digest, "problems": problems,
        "attempted": attempted, "failed": failed, "known_failures": known, "metrics": metrics,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_s_samples": setups, "setup_cpu_raw_s_samples": setup_cpus,
        "setup_wall_s_samples": setup_walls,
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_cpu_raw_s": [r["cpu_raw_s"] for r in rounds],
        "round_speed": [r["speed"] for r in rounds],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "calls": [[(c["t0"], c["cpu_s"], c["wall_s"], c["rc"]) for c in rnd["calls"]]
                  for rnd in res["rounds"]],
        "samples": [c["samples"] for c in children],
    }
    _write_json(os.path.join(state_dir, "results", "%s-seed%d-trace%d.json"
                             % (args.workload, args.seed, args.trace)), record)

    print("workload %s  seed %d  trace %d  rounds %d" % (args.workload, args.seed, args.trace,
                                                      len(rounds)))
    print("env " + " ".join("%s=%s" % (k, env[k]) for k in
                            ("nproc", "cpu", "python", "numpy", "scipy", "commit", "code")))
    print("digest %s" % digest)
    for name, m in sorted(metrics.items()):
        print("%-44s %.6g %s" % (name, m["value"], m["unit"]))
    for name, (v, u) in sorted(extra.items()):
        print("%-44s %.6g %s" % (name, v, u))
    for k in known:
        print("known defect, expected to fail at this commit: %s" % k)
    for p in problems:
        print("problem: %s" % p)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
