"""Acceptance gate: every golden criterion at its stated tolerance.

The suite is executed through the CLI `report` subcommand twice (which is
itself criterion 12's determinism requirement); the per-criterion tests
assert the frozen tolerances against the recorded details and print one
pass/fail line each.  The first run's `report.json` and `report.txt` must
equal the committed reference in `tests/golden/` byte for byte.
"""

import json
import math
import platform
import time
from pathlib import Path

import numpy
import pytest
import scipy

from subtail.bernstein import BernsteinTable
from subtail.cli import main


@pytest.fixture(scope="module")
def report_runs(tmp_path_factory):
    outs = []
    seconds = []
    builds = []
    build = BernsteinTable.__init__

    def counted(self, *args, **kwargs):
        builds[-1] += 1
        build(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BernsteinTable, "__init__", counted)
        for name in ("run_a", "run_b"):
            out = tmp_path_factory.mktemp(name)
            builds.append(0)
            t0 = time.time()
            status = main(["report", "--out", str(out), "--seed", "20240612"])
            seconds.append(time.time() - t0)
            assert status == 0, "golden report failed"
            outs.append(out)
    report = json.loads((outs[0] / "report.json").read_text())
    timing = json.loads((outs[0] / "report_timing.json").read_text())["seconds"]
    return {"outs": outs, "report": report, "timing": timing, "wall": seconds, "builds": builds}


def _crit(report_runs, prefix):
    for c in report_runs["report"]["criteria"]:
        if c["name"].startswith(prefix):
            return c
    raise AssertionError("criterion %s missing from report" % prefix)


def _announce(c, extra=""):
    print("[%s] %s %s" % ("PASS" if c["passed"] else "FAIL", c["name"], extra))


def test_criterion_01_stable_identity(report_runs):
    c = _crit(report_runs, "1 ")
    _announce(c, "phi_err=%.2e H_err=%.2e" % (c["max_rel_err_phi"], c["max_rel_err_H"]))
    assert c["max_rel_err_phi"] <= 1e-8
    assert c["max_rel_err_H"] <= 1e-7
    assert report_runs["timing"][c["name"]] < 5.0
    assert c["passed"]


def test_criterion_02_b_sandwich(report_runs):
    c = _crit(report_runs, "2 ")
    _announce(c, "bracket=%s" % (c["achieved_bracket"],))
    assert c["violations"] == []
    lo, hi = c["achieved_bracket"]
    assert 1.0 - 1e-9 <= lo and hi <= 6.49569
    assert report_runs["timing"][c["name"]] < 30.0
    assert c["passed"]


def test_criterion_03_mc_closed_form(report_runs):
    c = _crit(report_runs, "3 ")
    _announce(c, "worst|z|=%.2f ks=%.4f" % (c["worst_abs_z"], c["ks_vs_exact_sampler"]))
    assert c["n_grid"] == 20
    assert c["worst_abs_z"] <= 3.0
    assert c["ks_vs_exact_sampler"] < 0.01
    assert report_runs["timing"][c["name"]] < 120.0
    assert c["passed"]


def test_criterion_04_two_sidedness(report_runs):
    c = _crit(report_runs, "4 ")
    _announce(c, "spreads=%s" % {k: round(v["spread"], 2) for k, v in c["kernels"].items()})
    for res in c["kernels"].values():
        assert res["spread"] <= 10.0
        assert res["lower_bound_ok"]
        assert res["verdict_stable"]
    assert report_runs["timing"][c["name"]] < 300.0
    assert c["passed"]


def test_criterion_05_truncated_structure(report_runs):
    c = _crit(report_runs, "5 ")
    _announce(c, "residual=%.3f dip_ratio=%.2f" % (c["regression_residual"], c["dip_ratio"]))
    assert c["regression_residual"] <= 0.5
    assert 0.1 <= c["dip_ratio"] <= 10.0
    assert report_runs["timing"][c["name"]] < 5.0
    assert c["passed"]


def test_criterion_06_variational(report_runs):
    c = _crit(report_runs, "6 ")
    _announce(c, "M_err=%.2e N_err=%.2e" % (c["max_rel_err_M"], c["max_rel_err_N"]))
    assert c["max_rel_err_M"] <= 1e-6
    assert c["max_rel_err_N"] <= 1e-12
    for key in ("relation_M_bracket", "relation_N_bracket"):
        lo, hi = c[key]
        assert 0.125 <= lo <= hi <= 8.0
    assert report_runs["timing"][c["name"]] < 10.0
    assert c["passed"]


def test_criterion_07_dgamma(report_runs):
    c = _crit(report_runs, "7 ")
    _announce(c, "spreads=%s" % {k: round(v["spread"], 2) for k, v in c["cases"].items()})
    assert set(c["cases"]) == set("abcdefg")
    for case in c["cases"].values():
        assert case["n_points"] >= 60
        assert case["spread"] <= 8.0
        assert case["scenarios"] == ["Sc.1", "Sc.2", "Sc.3"]
    assert report_runs["timing"][c["name"]] < 60.0
    assert c["passed"]


def test_criterion_08_mainsmall_quadrature(report_runs):
    c = _crit(report_runs, "8 ")
    _announce(
        c,
        "spreads=%s" % {k: round(v["spread"], 2) for k, v in c["branches"].items()},
    )
    for branch in c["branches"].values():
        assert branch["n_points"] >= 100
        assert branch["spread"] <= 50.0
        assert branch["spread_refined"] <= 50.0
        assert branch["refinement_drift"] <= 0.20
    assert c["passed"]


def test_criterion_09_exponential_constant(report_runs):
    c = _crit(report_runs, "9 ")
    _announce(c, "c=%.3f residual=%.3f t=%.0f" % (c["c"], c["residual"], c["t_stat"]))
    assert 0.2 <= c["c"] <= 5.0
    assert c["residual"] <= 1.0
    assert c["t_stat"] >= 5.0
    assert c["passed"]


def test_criterion_10_diagonal_finiteness(report_runs):
    c = _crit(report_runs, "10 ")
    _announce(c, "t=1.5 %s, t=2.5 %s" % (c["probe_t_1_5"], c["probe_t_2_5"]))
    assert c["probe_t_1_5"] == "diverged"
    assert c["probe_t_2_5"] == "converged"
    assert c["estimate_growth"][0] < c["estimate_growth"][1] < c["estimate_growth"][2]
    assert math.isfinite(c["diagonal_value_t_2_5"])
    assert c["passed"]


def test_criterion_11_boundary_decay(report_runs):
    c = _crit(report_runs, "11 ")
    _announce(c, "bands=%s" % {k: round(v["band"], 2) for k, v in c["sweeps"].items()})
    assert len(c["sweeps"]) == 2
    for sweep in c["sweeps"].values():
        assert sweep["band"] <= 4.0
    assert c["passed"]


def test_criterion_12_determinism_and_runtime(report_runs):
    out_a, out_b = report_runs["outs"]
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("report.json", "report.txt")
    )
    print("[%s] 12 determinism+runtime wall=%.0fs/%.0fs" % (
        "PASS" if same else "FAIL", *report_runs["wall"]))
    assert same, "report outputs are not byte-identical across reruns"
    assert max(report_runs["wall"]) < 1200.0, "golden suite exceeded the 20-minute budget"


def test_each_run_builds_each_table_once(report_runs):
    # ten distinct (kernel, grid) tables; the second run in the same process
    # builds them all again, so no table outlives its run
    assert report_runs["builds"] == [10, 10]


def test_overall_verdict(report_runs):
    assert report_runs["report"]["passed"]


GOLDEN = Path(__file__).resolve().parent / "golden"


def _host():
    """What the reference's bits depend on besides the code."""
    cpu, flags = platform.processor(), ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info = dict(map(str.strip, line.split(":", 1)) for line in fh if ":" in line)
        cpu, flags = info.get("model name", cpu), info.get("flags", "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "cpu": cpu,
            "avx512f": "avx512f" in flags.split()}


def _first_difference(ref, new, path="$"):
    """The JSON path of the first value, in sorted-key order, where ``new``
    differs from ``ref`` (floats to the last digit), or None."""
    if isinstance(ref, dict) and isinstance(new, dict):
        for key in sorted(set(ref) | set(new)):
            if key not in ref or key not in new:
                return "%s.%s (only in %s)" % (path, key, "the reference" if key in ref else "this run")
            diff = _first_difference(ref[key], new[key], "%s.%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(new, list) and len(ref) == len(new):
        for i, (a, b) in enumerate(zip(ref, new)):
            diff = _first_difference(a, b, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    return None if repr(ref) == repr(new) else "%s: reference %r, this run %r" % (path, ref, new)


def _mismatch(name, ref, new):
    if name.endswith(".json"):
        diff = _first_difference(json.loads(ref), json.loads(new))
        return "first difference at %s" % diff if diff else "same values, different bytes"
    lines = list(zip(ref.decode().splitlines(), new.decode().splitlines()))
    i = next((i for i, (a, b) in enumerate(lines) if a != b), len(lines))
    return "first difference on line %d" % (i + 1)


def test_report_matches_the_golden_reference(report_runs):
    # a change that moves a golden number updates the reference with it
    problems = []
    for name in ("report.json", "report.txt"):
        ref, new = (GOLDEN / name).read_bytes(), (report_runs["outs"][0] / name).read_bytes()
        if new != ref:
            problems.append("%s differs from tests/golden/%s: %s" % (name, name, _mismatch(name, ref, new)))
    if problems:
        recorded, host = json.loads((GOLDEN / "host.json").read_text()), _host()
        changed = {k: (recorded.get(k), host[k]) for k in host if recorded.get(k) != host[k]}
        if changed:
            problems.append("this host differs from the reference's (recorded, now): %s" % changed)
    assert not problems, "\n".join(problems)
