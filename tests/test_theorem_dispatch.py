"""Every theorem tag dispatches, returns a positive finite form in-regime,
and example2's distributed-order cases reduce to the displayed specials."""

import math

import numpy as np
import pytest

from subtail.bernstein import BernsteinTable
from subtail.errors import RegimeError
from subtail.estimates import CASE_TAGS, EstimateCase, theorem_estimate
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import DistributedOrder, Subexp, Truncated, caputo

INTERVAL = Geometry("interval", 1.0)
FREE = Geometry("free")
EXTERIOR = Geometry("exterior")


@pytest.fixture(scope="module")
def tabs():
    kernels = {
        "caputo": caputo(0.5),
        "trunc": Truncated(beta=0.5, delta=1.0, scale=1.0),
        "subexp": Subexp(beta=0.5, theta=1.0),
        "distributed": DistributedOrder(weights=((0.3, 1.0), (0.7, 1.0))),
    }
    return {name: BernsteinTable(k, points_per_decade=16) for name, k in kernels.items()}


# (tag, kernel name, model ctor args, geometry, t, x, y, extra kwargs)
DISPATCH_MATRIX = [
    ("specialsmall-i-a", "caputo", ("J1", 1.0, 1.0), INTERVAL, 0.01, 0.4, 0.401, {}),
    ("specialsmall-i-b", "caputo", ("J4", 1.5, 1.0), INTERVAL, 0.01, 0.4, 0.401, {}),
    ("specialsmall-ii-a", "caputo", ("J1", 1.0, 1.0), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("specialsmall-ii-b", "caputo", ("J4", 1.5, 1.0), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("specialsmall-ii-c", "caputo", ("D1", 2.0, 1.0), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("speciallarge-i", "distributed", ("J1", 1.0, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("speciallarge-ii", "distributed", ("J4", 1.5, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("speciallarge-iii", "distributed", ("J2", 1.0, 1.0), Geometry("half-line"), 9.0, 2.0, 2.4, {}),
    ("speciallarge-iv", "distributed", ("D2", 2.0, 1.0), Geometry("half-line"), 9.0, 2.0, 2.4, {}),
    ("speciallarge-v", "distributed", ("J3", 1.0, 1.0), EXTERIOR, 9.0, 2.0, 2.4, {}),
    ("specialsub-i", "subexp", ("J1", 1.0, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("specialsub-ii", "subexp", ("J4", 1.5, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("specialtrunc-i", "trunc", ("J1", 1.0, 1.0), INTERVAL, 1.2, 0.3, 0.6, {}),
    ("specialtrunc-ii", "trunc", ("J4", 1.5, 1.0), INTERVAL, 1.2, 0.3, 0.6, {}),
    ("specialtrunc-iii", "trunc", ("J2", 1.0, 1.0), Geometry("half-line"), 1.2, 2.0, 2.4, {}),
    ("mainsmall-i", "caputo", ("HK_J", 1.0, 1.0, 0.5, 0.0, 1), INTERVAL, 0.01, 0.4, 0.401, {}),
    ("mainsmall-ii-a", "caputo", ("HK_J", 1.0, 1.0, 0.5, 0.0, 1), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("mainsmall-ii-b", "caputo", ("HK_D", 2.0, 1.0, 0.5, 0.0, 1), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("mainsmall-ii-c", "caputo", ("HK_M", 2.0, 1.0, 0.5, 0.0, 1), INTERVAL, 0.001, 0.2, 0.8, {}),
    ("mainlarge-i", "distributed", ("HK_J", 1.0, 1.0, 0.5, 0.0, 1), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("mainlarge-ii", "distributed", ("J1", 1.0, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("mainsub-i", "subexp", ("HK_J", 1.0, 1.0, 0.5, 0.0, 1), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("mainsub-ii", "subexp", ("J1", 1.0, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
    ("main2-i", "trunc", ("HK_J", 1.0, 1.0, 0.5, 0.0, 1), Geometry("half-line"), 1.2, 2.0, 2.4, {}),
    ("main2-ii", "trunc", ("J1", 1.0, 1.0), INTERVAL, 1.2, 0.3, 0.6, {}),
    ("example1-small", "trunc", ("HK_J", 2.0, 1.0, 0.0, 0.0, 1), FREE, 0.25, 0.0, 0.05, {}),
    ("example1-large", "trunc", ("HK_J", 1.0, 2.0, 0.0, 0.0, 1), FREE, 2.5, 0.0, 0.3, {}),
    ("example2-i", "distributed", ("J1", 1.0, 1.0), INTERVAL, 0.05, 0.4, 0.4005, {}),
    ("example2-ii", "distributed", ("J1", 1.0, 1.0), INTERVAL, 0.004, 0.2, 0.8, {}),
    ("example2-iii", "distributed", ("J1", 1.0, 1.0), INTERVAL, 9.0, 0.3, 0.6, {}),
]


def _model(args):
    if len(args) == 3:
        return HKModel(args[0], alpha=args[1], d=args[2])
    fam, alpha, d, gamma, lam, k = args
    return HKModel(fam, alpha=alpha, d=d, gamma=gamma, lam=lam, k=k)


@pytest.mark.parametrize("row", DISPATCH_MATRIX, ids=[r[0] for r in DISPATCH_MATRIX])
def test_dispatch_in_regime(row, tabs):
    tag, kname, margs, geo, t, x, y, kw = row
    case = EstimateCase(tag, tabs[kname], _model(margs), geo, t, x, y, **kw)
    out = theorem_estimate(case)
    assert out["branch"]
    assert math.isfinite(out["value"]) and out["value"] > 0.0, (tag, out)
    assert 0.0 < out["lower"] <= out["upper"] or out["lower"] == out["upper"]


def test_every_tag_covered():
    assert {r[0] for r in DISPATCH_MATRIX} == set(CASE_TAGS)


class TestExample2Reduction:
    def test_near_diagonal_matches_special(self, tabs):
        tab = tabs["distributed"]
        m = HKModel("J1", alpha=1.0, d=1.0)
        a = theorem_estimate(EstimateCase("example2-i", tab, m, INTERVAL, 0.05, 0.4, 0.4005))
        b = theorem_estimate(EstimateCase("specialsmall-i-a", tab, m, INTERVAL, 0.05, 0.4, 0.4005))
        assert a["value"] == pytest.approx(b["value"], rel=1e-12)

    def test_large_time_tracks_w(self, tabs):
        # for t >= 1 the bound scale is w(t) itself
        tab = tabs["distributed"]
        m = HKModel("J1", alpha=1.0, d=1.0)
        v1 = theorem_estimate(EstimateCase("example2-iii", tab, m, INTERVAL, 4.0, 0.3, 0.6))
        v2 = theorem_estimate(EstimateCase("example2-iii", tab, m, INTERVAL, 40.0, 0.3, 0.6))
        ratio = v1["value"] / v2["value"]
        want = float(tab.kernel.w(4.0) / tab.kernel.w(40.0))
        assert ratio == pytest.approx(want, rel=1e-9)

    def test_off_diagonal_uses_alpha_branch(self, tabs):
        out = theorem_estimate(
            EstimateCase("example2-ii", tabs["distributed"], HKModel("J1", alpha=1.0, d=1.0),
                  INTERVAL, 0.004, 0.2, 0.8)
        )
        assert "off-diagonal" in out["branch"]


class TestMainsubTwoSided:
    def test_bounds_ordered(self, tabs):
        out = theorem_estimate(
            EstimateCase("mainsub-i", tabs["subexp"],
                  HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1),
                  INTERVAL, 9.0, 0.3, 0.6)
        )
        assert out["lower"] <= out["value"] <= out["upper"]

    def test_out_of_regime_raises(self, tabs):
        with pytest.raises(RegimeError):
            theorem_estimate(
                EstimateCase("mainsub-i", tabs["subexp"],
                      HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1),
                      INTERVAL, 0.5, 0.3, 0.6)
            )
