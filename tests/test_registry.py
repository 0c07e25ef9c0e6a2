"""The regime registry of subtail.estimates: regime_grid admits a point
exactly when theorem_estimate does, regime edges follow the tie rule, the
large-time delegations agree inside the margin band, and the regime
constants are written once."""

import math
import pathlib
import re

import numpy as np
import pytest

from subtail.comparability import regime_grid
from subtail.errors import DomainError
from subtail.estimates import CASE_TAGS, EstimateCase, regime_failure, theorem_estimate
from subtail.heat_kernel import Geometry, HKModel
from subtail.tail_bounds import QUARTER_E2
from test_theorem_dispatch import DISPATCH_MATRIX, _model, tabs  # noqa: F401 (fixture)

ROWS = {row[0]: row for row in DISPATCH_MATRIX}


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_grid_points_pass_the_theorem(tag, tabs):
    _, kname, margs, geo, t, _, _, _ = ROWS[tag]
    tab = tabs[kname]
    model = _model(margs)
    pts = regime_grid(tag, tab, model, geo, resolution=4, t_window=(t / 2.0, 2.0 * t))
    for pt in pts:
        out = theorem_estimate(EstimateCase(tag, tab, model, geo, *pt))
        assert math.isfinite(out["value"]) and out["value"] > 0.0, (tag, pt, out)


@pytest.mark.parametrize("tag, model, geo, n_points", [
    ("mainsub-i", HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1), Geometry("free"), 320),
    ("specialsub-i", HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0), 310),
])
def test_sub_tags_read_the_tables_own_certificate(tag, model, geo, n_points, tabs):
    # (Sub.) is the Subexp table's own certified condition; nothing passed
    # beside the table can leave it out
    tab = tabs["subexp"]
    assert tab.conditions.sub == {"beta": 0.5, "theta": 1.0, "c0": tab.kernel.c0}
    pts = regime_grid(tag, tab, model, geo, t_window=(1.0, 10.0))
    assert len(pts) == n_points
    for pt in (pts[0], pts[-1]) + (((2.0, 0.0, 0.5),) if geo.kind == "free" else ()):
        out = theorem_estimate(EstimateCase(tag, tab, model, geo, *pt))
        assert math.isfinite(out["value"]) and out["value"] > 0.0, (tag, pt, out)


def test_unknown_tag_is_domain_error(tabs):
    tab = tabs["caputo"]
    m = HKModel("J1", alpha=1.0, d=1.0)
    for tag in ("mainlarge-i-near", "no-such-tag"):
        with pytest.raises(DomainError):
            regime_grid(tag, tab, m, Geometry("interval", 1.0), resolution=4)


def _rho_with_product(target, phi_t):
    """A rho whose product rho * phi_t rounds to exactly ``target``."""
    rho = target / phi_t
    for _ in range(64):
        prod = rho * phi_t
        if prod == target:
            return rho
        rho = np.nextafter(rho, -np.inf if prod > target else np.inf)
    raise AssertionError("no float rho with rho * phi_t == %r" % target)


def test_near_diagonal_edge_is_admitted(tabs):
    # free space, alpha = 1, x = 0: Phi(rho) phi(1/t) is y * phi(1/t) exactly
    tab = tabs["caputo"]
    m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
    g = Geometry("free")
    t, margin = 0.01, 2.0
    phi_t = tab.phi(1.0 / t)
    edge = QUARTER_E2 / margin
    for target in (edge, np.nextafter(edge, np.inf)):
        y = float(_rho_with_product(float(target), phi_t))
        case = EstimateCase("mainsmall-i", tab, m, g, t, 0.0, y, margin=margin)
        assert y * phi_t == target
        assert regime_failure(case, phi_t) is None  # the grid's admission test
        out = theorem_estimate(case)
        assert math.isfinite(out["value"]) and out["value"] > 0.0
    # well past the edge the point is refused by both
    case = EstimateCase("mainsmall-i", tab, m, g, t, 0.0, 1.01 * edge / phi_t, margin=margin)
    assert regime_failure(case, phi_t) is not None


@pytest.mark.parametrize("tag, family, near_branch", [
    ("speciallarge-iii", "J2", "near-diagonal jump/diffusion"),
    ("speciallarge-iv", "D2", "near-diagonal jump/diffusion"),
    ("mainlarge-i", "J2", "near-diagonal J form"),
])
@pytest.mark.parametrize("ratio", [0.75, 1.5])
def test_large_time_delegation_inside_margin_band(tag, family, near_branch, ratio, tabs):
    # Phi(rho) phi(1/t) = ratio/(4e^2) lies inside the margin-2 band; the
    # large-time tags pick the sub-display by the bare inequality and
    # evaluate it at margin 1, so both points get a value
    tab = tabs["distributed"]
    m = HKModel(family, alpha=1.0 if family == "J2" else 2.0, d=1.0)
    g = Geometry("half-line")
    t, x = 9.0, 2.0
    phi_t = tab.phi(1.0 / t)
    rho = (ratio * QUARTER_E2 / phi_t) ** (1.0 / m.alpha)
    out = theorem_estimate(EstimateCase(tag, tab, m, g, t, x, x + rho))
    assert math.isfinite(out["value"]) and out["value"] > 0.0
    assert out["branch"].endswith(near_branch) == (ratio < 1.0), out["branch"]


def test_regime_constants_written_once():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "subtail"
    spelled = [p.name for p in sorted(src.glob("*.py"))
               if re.search(r"math\.e\s*\*\*\s*2", p.read_text(encoding="utf-8"))]
    assert spelled == ["tail_bounds.py"]
