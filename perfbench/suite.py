"""Run every benchmark workload over several seeds and summarise.

    python3 perfbench/suite.py [--seeds 1,2,3] [--traced 1] \
        [--baseline perfbench/baseline.json]

From the root of a source checkout.  Each (workload, seed) is one untraced
``run.py`` run of BENCHMARK.json's ``run_seconds``; then each workload gets
``--traced`` traced runs on the first seed.  Prints, per workload, every
end-to-end metric (BENCHMARK.json's and the workload's own) as median and
quartiles with the quartile spread as a share of the median, the failure
fraction, and the per-layer metrics of the traced runs; counts that differ
between traced runs are flagged.  ``--baseline`` also writes all of it as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench", "results", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return last, record


def _summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        e2e, own, fails, digests, known = {}, {}, [], set(), 0
        for seed in seeds:
            last, rec = _run(workload, seed, seconds, 0)
            out["env"] = rec["env"]
            fails.append((last["failed"], last["attempted"], last["correct"]))
            for name, m in last["metrics"].items():
                e2e.setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, m in rec["workload_metrics"].items():
                own.setdefault(name, (m["unit"], []))[1].append(m["value"])
            digests.add(rec["digest"])
            known += len(rec["known_failures"])
        layers, unstable = {}, []
        for _ in range(args.traced):
            last, rec = _run(workload, seeds[0], seconds, 1)
            fails.append((last["failed"], last["attempted"], last["correct"]))
            for name, m in last["metrics"].items():
                layers.setdefault(name, (m["unit"], []))[1].append(m["value"])
        for name, (unit, vals) in layers.items():
            if unit == "count" and len(set(vals)) > 1:
                unstable.append(name)

        w = out["workloads"][workload] = {
            "end_to_end": {n: dict(_summary(v), unit=u) for n, (u, v) in e2e.items()},
            "workload_metrics": {n: dict(_summary(v), unit=u) for n, (u, v) in own.items()},
            "per_layer": {n: {"unit": u, "values": v} for n, (u, v) in layers.items()},
            "failed": sum(f[0] for f in fails),
            "attempted": sum(f[1] for f in fails),
            "all_correct": all(f[2] for f in fails),
            "known_failures": known,
            "distinct_digests": len(digests),
            "counts_differ_between_traced_runs": unstable,
        }
        print("== %s  (%d seeds, %d traced runs, %d s each)" % (workload, len(seeds), args.traced,
                                                             seconds))
        for kind in ("end_to_end", "workload_metrics"):
            for name, s in w[kind].items():
                flag = ""
                if name in bounds and s["spread"] >= bounds[name] / 3:
                    flag = "  spread >= bound/3"
                print("%-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f %s%s"
                      % (name, s["median"], s["q1"], s["q3"], s["spread"], s["unit"], flag))
        print("failed %d of %d, all correct: %s; known defect hit %d times"
              % (w["failed"], w["attempted"], w["all_correct"], known))
        for name, l in w["per_layer"].items():
            print("  %-40s %s %s" % (name, " ".join("%.6g" % v for v in l["values"]), l["unit"]))
        if unstable:
            print("counts that differ between traced runs: %s" % ", ".join(unstable))
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
