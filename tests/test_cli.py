import dataclasses
import json
import math
import os

import numpy as np
import pytest

from subtail import bernstein, cli
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


class TestPhiTable:
    def test_caputo_column_is_sqrt(self, tmp_path):
        cfg = {
            "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
            "lambdas": {"lo": 1e-2, "hi": 1e2, "n": 9},
        }
        status, out = run_cli(tmp_path, "phi-table", cfg)
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


_POWER = {"kind": "power", "beta": 0.5}
_HALF_CAPUTO = {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)}
_J1 = {"family": "J1", "alpha": 1.0, "d": 1.0, "geometry": {"kind": "interval", "length": 1.0}}


@pytest.mark.parametrize("sub, cfg, path", [
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
])
def test_config_the_program_cannot_run_exits_2_with_its_path(tmp_path, capsys, sub, cfg, path):
    status, _ = run_cli(tmp_path, sub, cfg)
    assert status == 2
    assert "config schema violation at %s:" % path in capsys.readouterr().err


@pytest.mark.parametrize("sub, cfg", [
    ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1, "points": [{"t": 0.1, "x": 0.3, "y": 0.6}]}),
    ("fundsol", {"kernel": _HALF_CAPUTO, "model": _J1, "method": "mc",
                 "sim": {"cutoff_eps": 1e-2, "n_paths": 200},
                 "points": [{"t": 0.1, "x": 0.3, "y": 0.6}]}),
    ("boundary", {"t_values": [0.2], "deltas": [1e-2, 1e-1]}),
])
def test_commands_that_read_no_bernstein_table_build_none(tmp_path, monkeypatch, sub, cfg):
    # p, u and the boundary sweep need the E_t law, not phi, H or b
    def refuse(*args, **kwargs):
        raise AssertionError("BernsteinTable built")

    monkeypatch.setattr(bernstein.BernsteinTable, "__init__", refuse)
    status, _ = run_cli(tmp_path, sub, cfg)
    assert status == 0


def test_sim_schema_sets_every_sim_config_field_but_the_seed():
    # the seed is the manifest's; every other field is settable, and no key
    # is accepted that SimConfig would not use
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    assert set(cli._SIM_SCHEMA["properties"]) == fields - {"seed"}


class TestConditions:
    def test_truncated_report(self, tmp_path):
        cfg = {"kernel": {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0}}
        status, out = run_cli(tmp_path, "conditions", cfg)
        assert status == 0
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["trunc"]["t_f"] == 1.0
        assert rep["spoly"]["t_s"] == pytest.approx(0.5)


class TestTails:
    def test_rows_and_bound_tags(self, tmp_path):
        cfg = {
            "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
            "sim": {"cutoff_eps": 1e-3, "n_paths": 5000},
            "grid": {"r": [0.001], "t": [0.5]},
        }
        status, out = run_cli(tmp_path, "tails", cfg, extra=["--seed", "5"])
        assert status == 0
        lines = (out / "tails.csv").read_text().splitlines()
        hdr = lines[1].split(",")
        row = dict(zip(hdr, lines[2].split(",")))
        assert row["bound_tag"] in ("small-t-poly", "large-t-poly")
        assert float(row["upper_p"]) + float(row["lower_p"]) == pytest.approx(1.0, abs=1e-9)

    def test_one_ensemble_per_clock_gives_the_per_point_estimates(self, tmp_path, monkeypatch):
        from subtail.kernels import kernel_from_config
        from subtail.simulate import sample_S_at, tail_estimate

        kcfg = {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0}
        cfg = {"kernel": kcfg, "sim": {"cutoff_eps": 1e-3, "n_paths": 1000},
               "grid": {"r": [0.5, 2.0], "t": [0.3, 1.0, 4.0]}}
        calls = []
        sample = cli.sample_S_at
        monkeypatch.setattr(cli, "sample_S_at", lambda *a: calls.append(a[2]) or sample(*a))
        status, out = run_cli(tmp_path, "tails", cfg, extra=["--seed", "5"])
        assert status == 0 and calls == [0.5, 2.0]
        kern, sim = kernel_from_config(kcfg), SimConfig(cutoff_eps=1e-3, n_paths=1000, seed=5)
        rows = [row.split(",") for row in (out / "tails.csv").read_text().splitlines()[2:]]
        assert len(rows) == 6
        for row in rows:
            r, t = float(row[0]), float(row[1])
            up, lo = (tail_estimate(kern, sample_S_at(kern, sim, r), t, side)
                      for side in ("upper", "lower"))
            assert row[2:6] == ["%.17g" % v for v in (up.p_hat, up.se, lo.p_hat, lo.se)]


class TestFundsolEstimate:
    def test_fundsol_csv(self, tmp_path):
        cfg = {
            "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
            "model": {"family": "J1", "alpha": 1.0, "d": 1.0,
                      "geometry": {"kind": "interval", "length": 1.0}},
            "points": [{"t": 0.05, "x": 0.3, "y": 0.6}, {"t": 0.1, "x": 0.2, "y": 0.25}],
        }
        status, out = run_cli(tmp_path, "fundsol", cfg)
        assert status == 0
        lines = (out / "fundsol.csv").read_text().splitlines()
        assert lines[1] == "t,x,y,p,se,method"
        assert len(lines) == 4
        assert float(lines[2].split(",")[3]) > 0.0

    def test_estimate_json(self, tmp_path):
        cfg = {
            "kernel": {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0},
            "model": {"family": "HK_J", "alpha": 2.0, "d": 1.0, "gamma": 0.0,
                      "lambda": 0.0, "k": 1, "geometry": {"kind": "free"}},
            "case": {"tag": "example1-small", "t": 0.25, "x": 0.0, "y": 0.05},
        }
        status, out = run_cli(tmp_path, "estimate", cfg)
        assert status == 0
        res = json.loads((out / "estimate.json").read_text())
        assert res["value"] == pytest.approx(0.25**-0.25, rel=1e-9)
        assert res["branch"] == "on-diagonal d<alpha"

    def test_estimate_out_of_regime_exits_3(self, tmp_path):
        cfg = {
            "kernel": {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0},
            "model": {"family": "HK_J", "alpha": 2.0, "d": 1.0, "gamma": 0.0,
                      "lambda": 0.0, "k": 1, "geometry": {"kind": "free"}},
            "case": {"tag": "example1-small", "t": 5.0, "x": 0.0, "y": 0.05},
        }
        status, out = run_cli(tmp_path, "estimate", cfg)
        assert status == 3
        assert json.loads((out / "manifest.json").read_text())["error"]["type"] == "RegimeError"


_SUBEXP = {"kind": "subexp", "beta": 0.5, "theta": 1.0}
_HK_J_FREE = {"family": "HK_J", "alpha": 1.0, "d": 1.0, "gamma": 0.3, "lambda": 0.0, "k": 1,
              "geometry": {"kind": "free"}}


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


class TestTypedExits:
    # a SubtailError exits with its type's code, and the manifest is still
    # written, naming the error
    def _fundsol(self, tmp_path, kernel, x):
        cfg = {
            "kernel": kernel,
            "model": {"family": "D1", "alpha": 2.0, "d": 1.0,
                      "geometry": {"kind": "interval", "length": 1.0}},
            "points": [{"t": 0.1, "x": x, "y": 0.5}],
        }
        status, out = run_cli(tmp_path, "fundsol", cfg)
        return status, json.loads((out / "manifest.json").read_text())["error"]

    def test_point_outside_geometry_exits_4(self, tmp_path):
        half = {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)}
        status, err = self._fundsol(tmp_path, half, 1.3)
        assert status == 4
        assert err["type"] == "DomainError" and "x=1.3" in err["message"]

    def test_truncated_kernel_quadrature_exits_4(self, tmp_path):
        trunc = {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0}
        status, err = self._fundsol(tmp_path, trunc, 0.3)
        assert status == 4
        assert err["type"] == "DomainError" and 'method="mc"' in err["message"]

    def test_quadrature_error_exits_5(self, tmp_path, monkeypatch):
        from subtail.errors import QuadratureError

        def fail(req):
            raise QuadratureError("p quadrature achieved 1e-3, target 1e-8")

        monkeypatch.setattr(cli, "p_quadrature", fail)
        half = {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)}
        status, err = self._fundsol(tmp_path, half, 0.3)
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


class TestManifest:
    def test_outputs_cite_manifest_hash(self, tmp_path):
        cfg = {"kernel": {"kind": "power", "beta": 0.5, "scale": 1.0}}
        status, out = run_cli(tmp_path, "conditions", cfg)
        assert status == 0
        man = json.loads((out / "manifest.json").read_text())
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["manifest"] == man["hash"]
        assert "conditions.json" in man["outputs"]

    def test_same_manifest_byte_identical(self, tmp_path):
        cfg = {
            "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0},
            "lambdas": {"lo": 0.1, "hi": 10.0, "n": 5},
        }
        s1, out1 = run_cli(tmp_path / "a", "phi-table", cfg)
        s2, out2 = run_cli(tmp_path / "b", "phi-table", cfg)
        assert s1 == s2 == 0
        assert (out1 / "phi_table.csv").read_bytes() == (out2 / "phi_table.csv").read_bytes()
        assert (out1 / "phi_table.json").read_bytes() == (out2 / "phi_table.json").read_bytes()
