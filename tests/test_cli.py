import copy
import dataclasses
import importlib.util
import json
import math
import os
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtail import bernstein, cli, golden
from subtail.cli import main
from subtail.estimates import CASE_TAGS
from subtail.simulate import SimConfig


def run_cli(tmp_path, sub, cfg=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [sub, "--out", str(tmp_path / "out")]
    if cfg is not None:
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(cfg))
        argv += ["--config", str(cpath)]
    argv += list(extra)
    return main(argv), tmp_path / "out"


def _workloads():
    """The benchmark's workloads module, which this file only reads."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


_MC_TAILS = [call for call in _workloads().build("mc", 1) if call["subcommand"] == "tails"]


_PHI_TABLE = {
    "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
    "lambdas": {"lo": 1e-2, "hi": 1e2, "n": 9},
}


class TestPhiTable:
    def test_caputo_column_is_sqrt(self, tmp_path):
        status, out = run_cli(tmp_path, "phi-table", _PHI_TABLE)
        assert status == 0
        lines = (out / "phi_table.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "lambda,phi,phi_prime,H,b"
        for row in lines[2:]:
            lam, phi, *_ = map(float, row.split(","))
            assert phi == pytest.approx(lam**0.5, rel=1e-8)
        brackets = json.loads((out / "phi_table.json").read_text())
        assert 0.25 <= brackets["achieved_brackets"]["phi"][0]

    def test_schema_violation_exits_2(self, tmp_path):
        status, _ = run_cli(tmp_path, "phi-table", {"kernel": {"kind": "gaussian"}})
        assert status == 2

    @pytest.mark.parametrize("call", _MC_TAILS, ids=lambda call: call["config"]["kernel"]["kind"])
    def test_csv_equals_a_scalar_loop(self, tmp_path, call):
        # the table is queried with arrays; each value is the scalar query's
        cfg = {"kernel": call["config"]["kernel"], "lambdas": {"lo": 1e-4, "hi": 1e4, "n": 17}}
        status, out = run_cli(tmp_path, "phi-table", cfg)
        assert status == 0
        got = (out / "phi_table.csv").read_bytes()
        tab = bernstein.BernsteinTable(cli.kernel_from_config(cfg["kernel"]))
        rows = [(float(lam), tab.phi(lam), tab.phi_prime(lam), tab.H(lam), tab.b_fun(lam))
                for lam in np.geomspace(1e-4, 1e4, 17)]
        manifest = {"hash": got.split(b"\n", 1)[0].split()[-1].decode()}
        cli._write_csv(str(tmp_path / "ref.csv"), ["lambda", "phi", "phi_prime", "H", "b"], rows,
                       manifest)
        assert got == (tmp_path / "ref.csv").read_bytes()


_POWER = {"kind": "power", "beta": 0.5}
_HALF_CAPUTO = {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)}
_J1 = {"family": "J1", "alpha": 1.0, "d": 1.0, "geometry": {"kind": "interval", "length": 1.0}}
_SUBEXP = {"kind": "subexp", "beta": 0.5, "theta": 1.0}
_HK_J_FREE = {"family": "HK_J", "alpha": 1.0, "d": 1.0, "gamma": 0.3, "lambda": 0.0, "k": 1,
              "geometry": {"kind": "free"}}


# configs that break the schemas under Draft 2020-12 too
_INVALID = [
    ("tails", {"kernel": _POWER, "sim": {"bogus": 2}, "grid": {"r": [0.5], "t": [1.0]}}, "$.sim"),
    ("tails", {"kernel": _POWER, "grid": {"r": ["0.5"], "t": [1.0]}}, "$.grid.r[0]"),
    ("fundsol", {"kernel": _POWER, "model": _J1, "points": [{"x": 0.3, "y": 0.6}]}, "$.points[0]"),
    ("conditions", {"kernel": {"kind": "power"}}, "$.kernel"),
    ("conditions", {"kernel": {"kind": "distributed", "weights": [0.5]}}, "$.kernel.weights[0]"),
    ("conditions", {"kernel": {"kind": "tabulated", "knots": [[1.0, 2.0, 3.0]]}},
     "$.kernel.knots[0]"),
    ("boundary", {"t_values": ["0.1"]}, "$.t_values[0]"),
    # the seed comes from the manifest, so a sim seed would be ignored
    ("tails", {"kernel": _POWER, "sim": {"seed": 5}, "grid": {"r": [0.5], "t": [1.0]}}, "$.sim"),
    # values the program cannot run on: each used to end in a traceback
    ("phi-table", {"kernel": _POWER, "lambdas": {"lo": 0}}, "$.lambdas.lo"),
    ("phi-table", {"kernel": _POWER, "lambdas": {"n": -3}}, "$.lambdas.n"),
    ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1, "points": [{"t": 0, "x": 0.3, "y": 0.6}]},
     "$.points[0].t"),
    ("estimate", {"kernel": _HALF_CAPUTO, "model": _J1,
                  "case": {"tag": "mainsmall-i", "t": 0, "x": 0.3, "y": 0.6}}, "$.case.t"),
    ("boundary", {"t_values": [-1]}, "$.t_values[0]"),
    ("boundary", {"deltas": []}, "$.deltas"),
    # a zero margin or horizon ended in a ZeroDivisionError traceback
    ("estimate", {"kernel": _HALF_CAPUTO, "model": _J1,
                  "case": {"tag": "mainsmall-i", "t": 0.05, "x": 0.3, "y": 0.6, "margin": 0}},
     "$.case.margin"),
    ("estimate", {"kernel": _HALF_CAPUTO, "model": _J1,
                  "case": {"tag": "mainsmall-i", "t": 0.05, "x": 0.3, "y": 0.6, "horizon_T": 0}},
     "$.case.horizon_T"),
    # True is not the k = 1 of the enum
    ("estimate", {"kernel": _HALF_CAPUTO, "model": {**_HK_J_FREE, "k": True},
                  "case": {"tag": "mainsmall-i", "t": 0.05, "x": 0.3, "y": 0.6}}, "$.model.k"),
]
# configs that Draft 2020-12 accepts and the CLI's validator refuses
_TIGHTENED = [
    # an integral float is not an integer: both ended in a TypeError traceback
    ("tails", {"kernel": _POWER, "sim": {"n_paths": 1000.0}, "grid": {"r": [0.5], "t": [1.0]}},
     "$.sim.n_paths"),
    ("phi-table", {"kernel": _POWER, "lambdas": {"n": 5.0}}, "$.lambdas.n"),
    # NaN and Infinity are not numbers: p = nan with exit 0, and exit 4 from
    # inside the evaluator
    ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1,
                 "points": [{"t": math.nan, "x": 0.3, "y": 0.6}]}, "$.points[0].t"),
    ("phi-table", {"kernel": _POWER, "lambdas": {"hi": math.inf}}, "$.lambdas.hi"),
    ("conditions", {"kernel": {"kind": "power", "beta": math.nan}}, "$.kernel.beta"),
]


# a top-level seed that is not an integer literal, under Draft 2020-12 too:
# "abc" ended in a ValueError traceback and 1.5 ran.  Kept apart from _INVALID
# so that the rows above keep their test ids.
_INVALID_SEEDS = [
    ("tails", {"kernel": _POWER, "grid": {"r": [0.5], "t": [1.0]}, "seed": "abc"}, "$.seed"),
    ("tails", {"kernel": _POWER, "grid": {"r": [0.5], "t": [1.0]}, "seed": 1.5}, "$.seed"),
]
# spread budgets of 0 or below: "budget": 0 ran with the default 8 and a
# negative one always failed; kept apart for the same reason
_NON_POSITIVE_BUDGETS = [
    ("compare", {"case": "dgamma-f", "budget": 0}, "$.budget"),
    ("compare", {"case": "dgamma-f", "budget": -3}, "$.budget"),
    ("boundary", {"band_budget": 0}, "$.band_budget"),
]


@pytest.mark.parametrize("sub, cfg, path",
                         _INVALID + _TIGHTENED + _INVALID_SEEDS + _NON_POSITIVE_BUDGETS)
def test_config_the_program_cannot_run_exits_2_with_its_path(tmp_path, capsys, sub, cfg, path):
    status, _ = run_cli(tmp_path, sub, cfg)
    assert status == 2
    assert "config schema violation at %s:" % path in capsys.readouterr().err


_QUAD_FUNDSOL = ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1,
                             "points": [{"t": 0.1, "x": 0.3, "y": 0.6}]})
_MC_FUNDSOL = ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1, "method": "mc",
                           "sim": {"cutoff_eps": 1e-2, "n_paths": 200},
                           "points": [{"t": 0.1, "x": 0.3, "y": 0.6}, {"t": 0.4, "x": 0.3, "y": 0.6}]})
_BOUNDARY = ("boundary", {"t_values": [0.2], "deltas": [1e-2, 1e-1]})
_NO_TABLE = [_QUAD_FUNDSOL, _BOUNDARY]


@pytest.mark.parametrize("sub, cfg", _NO_TABLE)
def test_commands_that_read_no_bernstein_table_build_none(tmp_path, monkeypatch, sub, cfg):
    # p, u and the boundary sweep need the E_t law, not phi, H or b
    def refuse(*args, **kwargs):
        raise AssertionError("BernsteinTable built")

    monkeypatch.setattr(bernstein.BernsteinTable, "__init__", refuse)
    status, _ = run_cli(tmp_path, sub, cfg)
    assert status == 0


def test_mc_fundsol_reads_phi_once_per_level_and_builds_no_grid(tmp_path, monkeypatch):
    # the E_t walk sizes its budgets from phi(1/t): one scalar evaluation per level
    calls = []
    evaluate = bernstein._bernstein_values

    def counting(kernel, lam, rtol):
        calls.append(lam.tolist())
        return evaluate(kernel, lam, rtol)

    monkeypatch.setattr(bernstein, "_bernstein_values", counting)
    status, _ = run_cli(tmp_path, *_MC_FUNDSOL)
    assert status == 0
    assert calls == [[1.0 / 0.1], [1.0 / 0.4]]


@pytest.mark.parametrize("call", _MC_TAILS, ids=lambda call: call["label"])
def test_tails_builds_a_grid_only_for_the_truncated_r0(tmp_path, monkeypatch, call):
    # the tail forms need r phi(1/t) at a few points, and the truncated
    # kernel's r_0 root probes phi only at the nodes that pick its first
    # bracket, so no kernel builds its grid, the truncated one included
    calls = []
    evaluate = bernstein._bernstein_values

    def counting(kernel, lam, rtol):
        if lam.size > 1:
            calls.append(lam.size)
        return evaluate(kernel, lam, rtol)

    monkeypatch.setattr(bernstein, "_bernstein_values", counting)
    status, _ = run_cli(tmp_path, "tails", call["config"], extra=["--seed", str(call["seed"])])
    assert status == 0
    assert calls == []


def test_sim_schema_sets_every_sim_config_field_but_the_seed():
    # the seed is the manifest's; every other field is settable, and no key
    # is accepted that SimConfig would not use
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    assert set(cli._SIM_SCHEMA["properties"]) == fields - {"seed"}


_TRUNCATED = {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0}


class TestConditions:
    def test_truncated_report(self, tmp_path):
        status, out = run_cli(tmp_path, "conditions", {"kernel": _TRUNCATED})
        assert status == 0
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["trunc"]["t_f"] == 1.0
        assert rep["spoly"]["t_s"] == pytest.approx(0.5)


_TAILS = {
    "kernel": _HALF_CAPUTO,
    "sim": {"cutoff_eps": 1e-3, "n_paths": 5000},
    "grid": {"r": [0.001], "t": [0.5]},
}
_TAILS_TRUNCATED = {"kernel": _TRUNCATED, "sim": {"cutoff_eps": 1e-3, "n_paths": 1000},
                    "grid": {"r": [0.5, 2.0], "t": [0.3, 1.0, 4.0]}}


class TestTails:
    def test_rows_and_bound_tags(self, tmp_path):
        status, out = run_cli(tmp_path, "tails", _TAILS, extra=["--seed", "5"])
        assert status == 0
        lines = (out / "tails.csv").read_text().splitlines()
        hdr = lines[1].split(",")
        row = dict(zip(hdr, lines[2].split(",")))
        assert row["bound_tag"] in ("small-t-poly", "large-t-poly")
        assert float(row["upper_p"]) + float(row["lower_p"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cfg, extra", [
        ({**_TAILS, "sim": {"cutoff_eps": 1e-3, "n_paths": 0}}, []),
        (_TAILS, ["--paths", "0"]),
    ], ids=["config", "flag"])
    def test_zero_paths_exits_4(self, tmp_path, cfg, extra):
        # --paths overrides the config's count whatever its value, 0 included
        status, out = run_cli(tmp_path, "tails", cfg, extra=extra)
        assert status == 4
        err = json.loads((out / "manifest.json").read_text())["error"]
        assert err == {"type": "DomainError", "message": "n_paths must be at least 100"}

    def test_an_overflowing_sharp_subexp_form_exits_3(self, tmp_path, capsys):
        # r exp(-theta t^beta + k r) at r = 1000 is exp(~1000): it ended in a
        # bare OverflowError traceback
        cfg = {"kernel": {"kind": "subexp", "beta": 0.5, "theta": 1e-6},
               "sim": {"n_paths": 100}, "grid": {"r": [1000.0], "t": [1e4]}}
        status, out = run_cli(tmp_path, "tails", cfg)
        assert status == 3
        err = json.loads((out / "manifest.json").read_text())["error"]
        assert err["type"] == "RangeError"
        assert "r=1000, t=10000" in err["message"]
        assert "RangeError" in capsys.readouterr().err

    def test_one_ensemble_per_clock_gives_the_per_point_estimates(self, tmp_path, monkeypatch):
        from subtail.kernels import kernel_from_config
        from subtail.simulate import sample_S_at, tail_estimate

        calls = []
        sample = cli.sample_S_at
        monkeypatch.setattr(cli, "sample_S_at", lambda *a: calls.append(a[2]) or sample(*a))
        status, out = run_cli(tmp_path, "tails", _TAILS_TRUNCATED, extra=["--seed", "5"])
        assert status == 0 and calls == [0.5, 2.0]
        kern, sim = kernel_from_config(_TRUNCATED), SimConfig(cutoff_eps=1e-3, n_paths=1000, seed=5)
        rows = [row.split(",") for row in (out / "tails.csv").read_text().splitlines()[2:]]
        assert len(rows) == 6
        for row in rows:
            r, t = float(row[0]), float(row[1])
            up, lo = (tail_estimate(kern, sample_S_at(kern, sim, r), t, side)
                      for side in ("upper", "lower"))
            assert row[2:6] == ["%.17g" % v for v in (up.p_hat, up.se, lo.p_hat, lo.se)]


_FUNDSOL = {
    "kernel": _HALF_CAPUTO,
    "model": _J1,
    "points": [{"t": 0.05, "x": 0.3, "y": 0.6}, {"t": 0.1, "x": 0.2, "y": 0.25}],
}
_HK_J_EX1 = {"family": "HK_J", "alpha": 2.0, "d": 1.0, "gamma": 0.0, "lambda": 0.0, "k": 1,
             "geometry": {"kind": "free"}}
_ESTIMATE = {"kernel": _TRUNCATED, "model": _HK_J_EX1,
             "case": {"tag": "example1-small", "t": 0.25, "x": 0.0, "y": 0.05}}


class TestFundsolEstimate:
    def test_fundsol_csv(self, tmp_path):
        status, out = run_cli(tmp_path, "fundsol", _FUNDSOL)
        assert status == 0
        lines = (out / "fundsol.csv").read_text().splitlines()
        assert lines[1] == "t,x,y,p,se,method"
        assert len(lines) == 4
        assert float(lines[2].split(",")[3]) > 0.0

    def test_estimate_json(self, tmp_path):
        status, out = run_cli(tmp_path, "estimate", _ESTIMATE)
        assert status == 0
        res = json.loads((out / "estimate.json").read_text())
        assert res["value"] == pytest.approx(0.25**-0.25, rel=1e-9)
        assert res["branch"] == "on-diagonal d<alpha"

    def test_estimate_out_of_regime_exits_3(self, tmp_path):
        cfg = {**_ESTIMATE, "case": {**_ESTIMATE["case"], "t": 5.0}}
        status, out = run_cli(tmp_path, "estimate", cfg)
        assert status == 3
        assert json.loads((out / "manifest.json").read_text())["error"]["type"] == "RegimeError"




@pytest.mark.parametrize("kernel", [_HALF_CAPUTO, _SUBEXP], ids=["half-caputo", "subexp"])
@pytest.mark.parametrize("tag", CASE_TAGS)
def test_every_tag_gives_a_value_or_a_typed_error(tmp_path, kernel, tag):
    # most tags are stated for other kernels or regimes: those exit 3 or 4,
    # never 1 (a budget failure) and never with an untyped exception
    for i, (model, t) in enumerate(((_J1, 0.05), (_HK_J_FREE, 5.0))):
        cfg = {"kernel": kernel, "model": model, "case": {"tag": tag, "t": t, "x": 0.3, "y": 0.6}}
        status, out = run_cli(tmp_path / str(i), "estimate", cfg)
        assert status in (0, 3, 4), (model["family"], t, status)
        if tag.startswith("example1-"):
            err = json.loads((out / "manifest.json").read_text())["error"]
            assert status == 4 and "Truncated" in err["message"], err


_D1 = {"family": "D1", "alpha": 2.0, "d": 1.0, "geometry": {"kind": "interval", "length": 1.0}}


class TestTypedExits:
    # a SubtailError exits with its type's code, and the manifest is still
    # written, naming the error
    def _fundsol(self, tmp_path, kernel, x):
        cfg = {"kernel": kernel, "model": _D1, "points": [{"t": 0.1, "x": x, "y": 0.5}]}
        status, out = run_cli(tmp_path, "fundsol", cfg)
        return status, json.loads((out / "manifest.json").read_text())["error"]

    def test_point_outside_geometry_exits_4(self, tmp_path):
        status, err = self._fundsol(tmp_path, _HALF_CAPUTO, 1.3)
        assert status == 4
        assert err["type"] == "DomainError" and "x=1.3" in err["message"]

    def test_truncated_kernel_quadrature_exits_4(self, tmp_path):
        status, err = self._fundsol(tmp_path, _TRUNCATED, 0.3)
        assert status == 4
        assert err["type"] == "DomainError" and 'method="mc"' in err["message"]

    def test_mc_fundsol_beyond_the_jump_budget_exits_4(self, tmp_path):
        # at t = 1e80 the E_t walk would never end; it is refused up front
        cfg = {"kernel": _HALF_CAPUTO, "model": _D1, "method": "mc",
               "sim": {"cutoff_eps": 1e-2, "n_paths": 100},
               "points": [{"t": 1e80, "x": 0.3, "y": 0.5}]}
        status, out = run_cli(tmp_path, "fundsol", cfg)
        err = json.loads((out / "manifest.json").read_text())["error"]
        assert status == 4
        assert err["type"] == "DomainError" and "raise cutoff_eps" in err["message"]

    @pytest.mark.parametrize("model, named", [({**_J1, "gamma": 0.9, "k": 2}, "J1 fixes gamma, k;"),
                                              ({**_D1, "exp_c": -1}, "exp_c must be a finite number > 0")])
    def test_a_model_parameter_that_would_be_dropped_exits_4(self, tmp_path, model, named):
        # J1 fixes gamma and k, and exp_c is q^d's rate, so only a finite rate > 0 is read
        cfg = {"kernel": _HALF_CAPUTO, "model": model, "points": [{"t": 0.01, "x": 0.3, "y": 0.6}]}
        status, out = run_cli(tmp_path, "fundsol", cfg)
        err = json.loads((out / "manifest.json").read_text())["error"]
        assert status == 4
        assert err["type"] == "DomainError" and named in err["message"]

    def test_quadrature_error_exits_5(self, tmp_path, monkeypatch):
        from subtail.errors import QuadratureError

        def fail(req):
            raise QuadratureError("p quadrature achieved 1e-3, target 1e-8")

        monkeypatch.setattr(cli, "p_quadrature", fail)
        status, err = self._fundsol(tmp_path, _HALF_CAPUTO, 0.3)
        assert status == 5
        assert err == {"type": "QuadratureError",
                       "message": "p quadrature achieved 1e-3, target 1e-8"}


class TestCompare:
    def test_dgamma_case_passes(self, tmp_path):
        status, out = run_cli(tmp_path, "compare", {}, extra=["--case", "dgamma-g"])
        assert status == 0
        rep = json.loads((out / "compare_dgamma-g.json").read_text())
        assert rep["passed"] and rep["spread"] <= 8.0
        txt = (out / "compare_dgamma-g.txt").read_text()
        assert "verdict       pass" in txt

    def test_unknown_dgamma_case_exits_3(self, tmp_path):
        status, out = run_cli(tmp_path, "compare", {"case": "dgamma-zzz"})
        assert status == 3
        err = json.loads((out / "manifest.json").read_text())["error"]
        assert err["type"] == "RegimeError" and "dgamma-<case>" in err["message"]

    def test_budget_failure_exits_1_with_report(self, tmp_path):
        status, out = run_cli(
            tmp_path, "compare", {}, extra=["--case", "dgamma-g", "--budget", "1.0001"]
        )
        assert status == 1
        rep = json.loads((out / "compare_dgamma-g.json").read_text())
        assert not rep["passed"]

    @pytest.mark.parametrize("budget", ["0", "-3", "nan", "inf"])
    def test_budget_flag_not_finite_and_positive_exits_2(self, tmp_path, capsys, budget):
        status, out = run_cli(tmp_path, "compare", {}, extra=["--case", "dgamma-f", "--budget", budget])
        assert status == 2
        assert capsys.readouterr().err == "--budget must be a finite number > 0; got %r\n" % float(
            budget)
        assert not out.exists()

    def test_budget_flag_and_config_budget_are_used_as_given(self, tmp_path):
        # the flag's 8 is the default's and passes; the config's 1.0001 fails
        status, out = run_cli(tmp_path / "flag", "compare", {}, extra=["--case", "dgamma-f",
                                                                       "--budget", "8"])
        assert status == 0
        assert json.loads((out / "compare_dgamma-f.json").read_text())["budget"] == 8.0
        status, out = run_cli(tmp_path / "cfg", "compare", {"case": "dgamma-f", "budget": 1.0001})
        assert status == 1
        assert json.loads((out / "compare_dgamma-f.json").read_text())["budget"] == 1.0001


_GOLDEN = json.loads((Path(__file__).parent / "golden" / "report.json").read_text())["criteria"]


class TestGoldenCases:
    # compare and boundary rerun criteria 7, 8 and 11 through golden's own
    # case runners, so they reproduce the committed report bit for bit

    @pytest.mark.parametrize("tag", ["dgamma-g", "mainsmall-i", "mainsmall-ii-a"])
    def test_compare_gives_the_criterion_s_spread(self, tmp_path, tag):
        status, out = run_cli(tmp_path, "compare", {}, extra=["--case", tag])
        assert status == 0
        rep = json.loads((out / ("compare_%s.json" % tag)).read_text())
        want = _GOLDEN[6]["cases"]["g"] if tag == "dgamma-g" else _GOLDEN[7]["branches"][tag]
        assert (rep["spread"], rep["n_points"]) == (want["spread"], want["n_points"])

    def test_boundary_keeps_t_values_that_agree_to_six_digits_apart(self, tmp_path):
        # each t keeps its own band, though both print as 0.123456 under %g
        cfg = {"t_values": [0.1234561, 0.1234562], "deltas": [0.01, 0.1]}
        status, out = run_cli(tmp_path, "boundary", cfg)
        assert status == 0
        bands = json.loads((out / "boundary.json").read_text())["bands"]
        assert sorted(bands) == ["t=0.1234561", "t=0.1234562"]

    def test_boundary_gives_criterion_11_s_bands(self, tmp_path):
        status, out = run_cli(tmp_path, "boundary")
        assert status == 0
        bands = json.loads((out / "boundary.json").read_text())["bands"]
        assert bands == {t: sweep["band"] for t, sweep in _GOLDEN[10]["sweeps"].items()}


class TestReportRuntimeBudget:
    # criterion 1 (runtime_s 5) and criterion 10 (no runtime_s) on a clock
    # that moves `step` seconds per reading, so each takes `step` seconds

    def _report(self, tmp_path, monkeypatch, step):
        ticks = iter(range(0, 1000, step))
        monkeypatch.setattr(golden, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(golden, "CRITERIA", (golden.crit_1_stable_identity,
                                                 golden.crit_10_diagonal_finiteness))
        status, out = run_cli(tmp_path, "report")
        return status, out, json.loads((out / "report_timing.json").read_text())

    def test_a_criterion_over_its_runtime_budget_exits_1_and_is_named(self, tmp_path, monkeypatch,
                                                                      capsys):
        status, out, timing = self._report(tmp_path, monkeypatch, 6)
        assert status == 1
        assert timing["seconds"] == {"1 stable identity": 6, "10 diagonal finiteness threshold": 6}
        assert timing["over_budget"] == ["1 stable identity"]
        assert json.loads((out / "report.json").read_text())["passed"]
        assert capsys.readouterr().err == "over their runtime_s budget: 1 stable identity\n"

    def test_under_budget_the_report_passes(self, tmp_path, monkeypatch):
        status, out, timing = self._report(tmp_path, monkeypatch, 5)
        assert status == 0
        assert timing["over_budget"] == []


_UNIT_POWER = {"kind": "power", "beta": 0.5, "scale": 1.0}
_PHI_TABLE_SHORT = {"kernel": _UNIT_POWER, "lambdas": {"lo": 0.1, "hi": 10.0, "n": 5}}


class TestManifest:
    def test_outputs_cite_manifest_hash(self, tmp_path):
        status, out = run_cli(tmp_path, "conditions", {"kernel": _UNIT_POWER})
        assert status == 0
        man = json.loads((out / "manifest.json").read_text())
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["manifest"] == man["hash"]
        assert "conditions.json" in man["outputs"]

    def test_same_manifest_byte_identical(self, tmp_path):
        s1, out1 = run_cli(tmp_path / "a", "phi-table", _PHI_TABLE_SHORT)
        s2, out2 = run_cli(tmp_path / "b", "phi-table", _PHI_TABLE_SHORT)
        assert s1 == s2 == 0
        assert (out1 / "phi_table.csv").read_bytes() == (out2 / "phi_table.csv").read_bytes()
        assert (out1 / "phi_table.json").read_bytes() == (out2 / "phi_table.json").read_bytes()


class TestUnreadFlags:
    # a flag the subcommand does not read is refused before anything runs;
    # it used to be ignored, so the run silently did something else
    @pytest.mark.parametrize("sub, cfg, flag, value, readers", [
        ("estimate", _ESTIMATE, "--case", "mainsmall-ii-a", "compare"),
        ("boundary", None, "--budget", "1.0", "compare"),
        ("conditions", {"kernel": _UNIT_POWER}, "--paths", "100", "fundsol and tails"),
    ], ids=["case", "budget", "paths"])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, sub, cfg, flag, value, readers):
        status, out = run_cli(tmp_path, sub, cfg, extra=[flag, value])
        assert status == 2
        assert capsys.readouterr().err == "%s is not read by %s, only by %s\n" % (flag, sub, readers)
        assert not out.exists()

    @pytest.mark.parametrize("method", [None, "quadrature"])
    def test_paths_on_a_quadrature_fundsol_exits_2(self, tmp_path, capsys, method):
        # a quadrature run draws no paths, so it would ignore the flag
        cfg = dict(_FUNDSOL, **({"method": method} if method else {}))
        status, out = run_cli(tmp_path, "fundsol", cfg, extra=["--paths", "5"])
        assert status == 2
        assert capsys.readouterr().err == ("--paths is not read by fundsol with method quadrature, "
                                           "only by fundsol with method mc and tails\n")
        assert not out.exists()


class TestUnreadableConfig:
    # exit 2 and one line on stderr, like a schema violation, not a traceback
    def _run(self, tmp_path, capsys, path):
        status = main(["conditions", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        return status, err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        status, err = self._run(tmp_path, capsys, path)
        assert status == 2
        assert err == "config %s unreadable: No such file or directory\n" % path

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kernel": ')
        status, err = self._run(tmp_path, capsys, path)
        assert status == 2
        assert err.startswith("config %s unreadable: Expecting value" % path)
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# The config validator, against jsonschema's Draft 2020-12 as an oracle
# ---------------------------------------------------------------------------


def _workload_configs():
    """(subcommand, config) of every call the benchmark's workloads make."""
    workloads = _workloads()
    calls = [call for name in workloads.WORKLOADS for seed in (1, 2)
             for call in workloads.build(name, seed)]
    kernels = [{"kernel": kern} for kern in workloads.KERNELS.values()]
    return ([(call["subcommand"], call["config"] or {}) for call in calls]
            + [(sub, cfg) for sub in ("conditions", "phi-table") for cfg in kernels])


_VALID_CONFIGS = [
    ("phi-table", _PHI_TABLE), ("phi-table", _PHI_TABLE_SHORT),
    ("conditions", {"kernel": _TRUNCATED}), ("conditions", {"kernel": _UNIT_POWER}),
    ("tails", _TAILS), ("tails", _TAILS_TRUNCATED),
    ("fundsol", _FUNDSOL), ("fundsol", {"kernel": _TRUNCATED, "model": _D1,
                                        "points": [{"t": 0.1, "x": 0.3, "y": 0.5}]}),
    ("estimate", _ESTIMATE), ("phi-table", {"kernel": _POWER, "lambdas": {"n": 1}}),
    *[("estimate", {"kernel": kern, "model": model, "case": {"tag": tag, "t": 0.05, "x": 0.3,
                                                             "y": 0.6, "margin": 2}})
      for kern in (_HALF_CAPUTO, _SUBEXP) for model in (_J1, _HK_J_FREE) for tag in CASE_TAGS[:3]],
    _QUAD_FUNDSOL, _MC_FUNDSOL, _BOUNDARY,
    ("compare", {}), ("compare", {"case": "dgamma-g", "budget": 8}),
    ("boundary", {}), ("report", {}),
    *_workload_configs(),
]


@pytest.fixture(scope="module")
def draft202012():
    return pytest.importorskip("jsonschema").Draft202012Validator


def _agree(draft202012, sub, cfg):
    # what main prints: the violations sorted by path, stable within a path
    schema = cli.SCHEMAS[sub]
    ours = sorted(cli._schema_errors(schema, cfg), key=lambda e: e[0])
    theirs = sorted(draft202012(schema).iter_errors(cfg), key=lambda e: e.json_path)
    assert ours == [(e.json_path, e.message) for e in theirs], (sub, cfg)
    return ours


@pytest.mark.parametrize("sub, cfg", _VALID_CONFIGS)
def test_every_valid_config_passes_both_validators(draft202012, sub, cfg):
    assert _agree(draft202012, sub, cfg) == []


@pytest.mark.parametrize("sub, cfg, path", _INVALID + _INVALID_SEEDS + _NON_POSITIVE_BUDGETS)
def test_invalid_configs_fail_both_validators_at_the_same_paths(draft202012, sub, cfg, path):
    assert path in [p for p, _ in _agree(draft202012, sub, cfg)]


@pytest.mark.parametrize("sub, cfg, path", _TIGHTENED)
def test_the_tightened_configs_pass_draft_2020_12(draft202012, sub, cfg, path):
    assert list(draft202012(cli.SCHEMAS[sub]).iter_errors(cfg)) == []


def _nodes(schema, value, path=()):
    """(path, schema, value) of the config and of every value in it that the
    schema describes."""
    yield path, schema, value
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _nodes(sub, value[key], path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _nodes(schema["items"], item, path + (i,))


def _replace(cfg, path, new):
    if not path:
        return new
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return cfg


# Values of another type, or out of range, for any value.  None of them is a
# float with an integral value or a non-finite one: there the validator
# deliberately differs from Draft 2020-12 (the exit-2 rows above).
_OTHER_VALUES = ["x", None, [], {}, ["x"], {"kind": "x"}, 0.5, 0, -2, 3]


def _draw(data, nodes):
    """One of ``nodes``, drawn by schema first, so that the few values with
    their own schema weigh as much as the many points that share one."""
    by_schema = {}
    for node in nodes:
        by_schema.setdefault(id(node[1]), []).append(node)
    return data.draw(st.sampled_from(data.draw(st.sampled_from(list(by_schema.values())))))


def _mutate(data, sub, cfg):
    """``cfg`` with one mutation applied, where the config has a target for it."""
    nodes = list(_nodes(cli.SCHEMAS[sub], cfg))
    kind = data.draw(st.sampled_from(
        ["drop-key", "retype", "bool", "extra-sim-key", "empty-array", "off-enum", "pair-length",
         "at-bound"]))
    if kind == "extra-sim-key":
        # SimConfig's own seed is set by the manifest, so "seed" is extra too
        if "sim" in cli.SCHEMAS[sub]["properties"] and isinstance(cfg, dict) and isinstance(
                cfg.get("sim", {}), dict):
            cfg.setdefault("sim", {})[data.draw(st.sampled_from(["bogus", "seed"]))] = 5
        return cfg
    targets = [n for n in nodes if {
        "drop-key": lambda p, s, v: isinstance(v, dict) and v,
        "retype": lambda p, s, v: True,
        "bool": lambda p, s, v: s.get("type") in ("number", "integer") or "enum" in s,
        "empty-array": lambda p, s, v: isinstance(v, list),
        "off-enum": lambda p, s, v: "enum" in s,
        "pair-length": lambda p, s, v: (len(p) >= 2 and p[-2] in ("weights", "knots")
                                        and isinstance(v, list) and v),
        "at-bound": lambda p, s, v: "minimum" in s or "exclusiveMinimum" in s,
    }[kind](*n)]
    if not targets:
        return cfg
    path, schema, value = _draw(data, targets)
    if kind == "drop-key":
        del value[data.draw(st.sampled_from(sorted(value)))]
    elif kind == "pair-length":
        value.append(1.0) if data.draw(st.booleans()) else value.pop()
    elif kind == "at-bound":
        low = schema.get("minimum", schema.get("exclusiveMinimum"))
        cfg = _replace(cfg, path, data.draw(st.sampled_from([low - 1, low, low + 1])))
    else:
        # 2.0 is k's 2, as JSON sees it
        new = {"retype": st.sampled_from(_OTHER_VALUES), "bool": st.booleans(),
               "empty-array": st.just([]), "off-enum": st.sampled_from(["zzz", 0, 1.5, 2.0])}[kind]
        # a copy: a later mutation must not edit the shared _OTHER_VALUES
        cfg = _replace(cfg, path, copy.deepcopy(data.draw(new)))
    return cfg


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_configs_fail_both_validators_at_the_same_paths(draft202012, data):
    sub = data.draw(st.sampled_from(sorted(cli.SCHEMAS)))
    cfg = copy.deepcopy(data.draw(st.sampled_from([c for s, c in _VALID_CONFIGS if s == sub])))
    for _ in range(data.draw(st.integers(1, 3))):
        cfg = _mutate(data, sub, cfg)
    _agree(draft202012, sub, cfg)


def test_paths_are_written_as_jsonschema_writes_them():
    schema = {"properties": {"a b": {"type": "number"}, "it's": {"type": "number"},
                             "x1_y": {"items": {"type": "number"}}}}
    errors = list(cli._schema_errors(schema, {"a b": "s", "it's": "s", "x1_y": [0, "s"]}))
    assert [path for path, _ in errors] == ["$['a b']", "$['it\\'s']", "$.x1_y[1]"]


def test_integers_are_integer_literals_and_numbers_are_finite():
    integer, number = {"type": "integer"}, {"type": "number"}
    assert list(cli._schema_errors(integer, 3)) == []
    for value in (3.0, True):
        assert list(cli._schema_errors(integer, value)) == [
            ("$", "%r is not of type 'integer'" % value)]
    for value in (math.nan, math.inf, -math.inf):
        assert list(cli._schema_errors(number, value)) == [
            ("$", "%r is not a finite number" % value)]
    assert list(cli._schema_errors(number, False)) == [("$", "False is not of type 'number'")]
    # enum and const compare as JSON does
    assert list(cli._schema_errors({"enum": [1, 2]}, 1.0)) == []
    assert list(cli._schema_errors({"const": 1}, True)) == [("$", "1 was expected")]


def _keywords(schema):
    yield from schema
    for keyword, arg in schema.items():
        subs = {"properties": list(arg.values()) if keyword == "properties" else [],
                "items": [arg], "allOf": arg, "if": [arg], "then": [arg]}.get(keyword, [])
        for sub in subs:
            yield from _keywords(sub)


def test_an_unimplemented_keyword_raises():
    with pytest.raises(ValueError, match="pattern"):
        list(cli._schema_errors({"type": "string", "pattern": "^a"}, "abc"))
    # also where the instance is not of the keyword's type
    with pytest.raises(ValueError, match="pattern"):
        list(cli._schema_errors({"pattern": "^a"}, 1))
    with pytest.raises(ValueError, match="additionalProperties"):
        list(cli._schema_errors({"additionalProperties": {"type": "number"}}, {"a": 1}))
    # and no schema of the CLI uses one, even in a branch no config reaches
    for schema in cli.SCHEMAS.values():
        assert set(_keywords(schema)) <= set(cli._KEYWORDS)
