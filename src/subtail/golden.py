"""The golden verification suite.

Each criterion runs one frozen acceptance case end to end and returns a
JSON-serializable verdict dict {"name", "passed", "budget", details...}
whose pass test reads its thresholds from that "budget".  ``run_all`` times
the criteria and returns their seconds beside the report, which holds no
wall time; ``over_budget`` checks those seconds against each criterion's
``runtime_s`` budget.  The CLI `report` subcommand renders the pass/fail
matrix from it, and its `compare` and `boundary` rerun criteria 7, 8 and
11 through ``compare`` and ``boundary_sweep``.  All parameters (grids,
seeds, budgets, path counts) are frozen here; nothing is tuned at run
time.  The criteria of one ``run_all`` share one ``TableCache``, so each
(kernel, grid) table is built once per run and dropped with it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bernstein import BernsteinTable, calM, calN
from .comparability import RatioReport, exp_constant_fit, regime_grid, two_sided_check
from .errors import RegimeError
from .estimates import EstimateCase, I_gamma_quadrature, J_gamma, closed_I_gamma, theorem_estimate
from .fundamental import SolutionRequest, diagonal_probe, p_quadrature, solve_u
from .heat_kernel import Geometry, HKModel, a_gamma_delta
from .kernels import DistributedOrder, Subexp, Tabulated, Truncated, caputo
from .simulate import (
    SimConfig,
    exact_stable_sampler,
    sample_S_at,
    sample_S_tilted,
    stable_half_lower_cdf,
    stable_half_upper_cdf,
    tail_estimate,
)
from .tail_bounds import MARGIN, QUARTER_E2, lower_bound_universal, near_diagonal, upper_bound_form

GOLDEN_SEED = 20240612
B_UPPER = 6.49569  # frozen sandwich constant of the acceptance criteria


def builtin_kernel_set():
    tab_s = np.geomspace(1e-6, 1e6, 61)
    tab_w = 0.7 * tab_s**-0.4 + 0.05 * tab_s**-0.8
    return {
        "power": caputo(0.5),
        "truncated": Truncated(beta=0.5, delta=1.0, scale=1.0),
        "subexp": Subexp(beta=0.5, theta=1.0, c0=1.0, smallBeta=0.5),
        "distributed": DistributedOrder(weights=((0.3, 1.0), (0.7, 1.0))),
        "tabulated": Tabulated(knots=tuple(zip(tab_s, tab_w)), tail="power"),
    }


class TableCache:
    """The BernsteinTables of one run, one per (kernel, points per decade).

    Kernels are frozen dataclasses, so equal parameters share a table.  A
    table builds its grid at the first read, so a criterion that only
    queries phi or H never pays for it.  A cache lives as long as the run
    that made it, never longer.
    """

    def __init__(self):
        self._tables = {}

    def __call__(self, kernel, points_per_decade=96):
        key = (kernel, points_per_decade)
        tab = self._tables.get(key)
        if tab is None:
            tab = self._tables[key] = BernsteinTable(kernel, points_per_decade=points_per_decade)
        return tab


def half_caputo_table(tables):
    """The 1/2-Caputo table of criteria 6-8 and ``compare``."""
    return tables(caputo(0.5), points_per_decade=24)


def crit_1_stable_identity(tables):
    """phi = lam^beta to 1e-8 and H = (1-beta) lam^beta to 1e-7."""
    budget = {"phi": 1e-8, "H": 1e-7, "runtime_s": 5.0}
    lams = np.geomspace(1e-3, 1e3, 64)
    worst_phi = worst_H = 0.0
    for beta in (0.3, 0.5, 0.8):
        tab = tables(caputo(beta))
        for lam in lams:
            worst_phi = max(worst_phi, abs(tab.phi(lam) - lam**beta) / lam**beta)
            wantH = (1.0 - beta) * lam**beta
            worst_H = max(worst_H, abs(tab.H(lam) - wantH) / wantH)
    return {
        "name": "1 stable identity",
        "passed": worst_phi <= budget["phi"] and worst_H <= budget["H"],
        "max_rel_err_phi": worst_phi,
        "max_rel_err_H": worst_H,
        "budget": budget,
    }


def crit_2_b_sandwich(tables):
    """phi(1/s)^{-1} <= b^{-1}(s) <= 6.49569 phi(1/s)^{-1}, all five kernels."""
    budget = {"low": 1.0, "high": B_UPPER, "runtime_s": 30.0}
    svals = np.geomspace(1e-3, 1e3, 48)
    violations = []
    worst = {"low": math.inf, "high": 0.0}
    for name, kern in builtin_kernel_set().items():
        tab = tables(kern)
        ratios = tab.invert("b", svals) * tab.phi(1.0 / svals)
        for s, ratio in zip(svals, ratios.tolist()):
            worst["low"] = min(worst["low"], ratio)
            worst["high"] = max(worst["high"], ratio)
            if not (budget["low"] - 1e-9 <= ratio <= budget["high"]):
                violations.append({"kernel": name, "s": float(s), "ratio": float(ratio)})
    return {
        "name": "2 b-inverse sandwich",
        "passed": not violations,
        "violations": violations,
        "achieved_bracket": [worst["low"], worst["high"]],
        "budget": budget,
    }


def crit_3_mc_vs_closed_form(seed=GOLDEN_SEED):
    """MC tails vs erf/erfc within 3 se on a 20-point grid; KS < 0.01."""
    budget = {"z": 3.0, "ks": 0.01, "runtime_s": 120.0}
    kern = caputo(0.5)
    rs = (0.5, 1.0, 2.0, 3.0)
    ts = (0.25, 0.5, 1.0, 2.0, 4.0)
    n = 100_000
    worst_z = 0.0
    rows = []
    for i, r in enumerate(rs):
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=n, seed=seed + i)
        ens = sample_S_at(kern, cfg, r)
        for t in ts:
            up, lo = (tail_estimate(kern, ens, t, side) for side in ("upper", "lower"))
            z_up = (up.p_hat - stable_half_upper_cdf(r, t)) / up.se
            z_lo = (lo.p_hat - stable_half_lower_cdf(r, t)) / lo.se
            worst_z = max(worst_z, abs(z_up), abs(z_lo))
            rows.append({"r": r, "t": t, "z_upper": z_up, "z_lower": z_lo})
    # Kolmogorov-Smirnov: compound-Poisson ensemble vs exact stable sampler
    cfg = SimConfig(cutoff_eps=1e-4, n_paths=n, seed=seed + 17)
    approx = np.sort(sample_S_at(kern, cfg, 2.0).values)
    exact = np.sort(exact_stable_sampler(0.5, 2.0, n, seed=seed + 23))
    grid = np.concatenate([approx, exact])
    f1 = np.searchsorted(approx, grid, side="right") / n
    f2 = np.searchsorted(exact, grid, side="right") / n
    ks = float(np.max(np.abs(f1 - f2)))
    return {
        "name": "3 MC vs closed form (beta=1/2)",
        "passed": worst_z <= budget["z"] and ks < budget["ks"],
        "worst_abs_z": worst_z,
        "ks_vs_exact_sampler": ks,
        "n_grid": len(rows),
        "budget": budget,
    }


C4_SPREAD = 10.0  # criterion 4's spread budget, which _tail_ratio_grid checks


def _tail_ratio_grid(tab, t_vals, seed, n_paths):
    """MC tails P(S_r >= t) against the ``tail_bounds`` form r w(t) and the
    universal lower bound at L = r phi(1/t), on r = 0.1, 0.3 and 1 times the
    classifier's margin edge.  Returns the ratio report and whether every
    point clears the lower bound; a point outside the r w(t) form leaves the
    criterion without a prediction, so it fails with an infinite spread."""
    kern = tab.kernel
    obs, pred, ses, coords = [], [], [], []
    lower_ok = True
    for i, t in enumerate(t_vals):
        phi_t = tab.phi(1.0 / t)
        r_edge = QUARTER_E2 / (MARGIN * phi_t)
        for j, frac in enumerate((0.1, 0.3, 1.0)):
            r = frac * r_edge
            form = upper_bound_form(tab, r, t)
            if form.get("form") != "r*w(t)":
                return RatioReport("", 0, math.nan, math.nan, math.inf, C4_SPREAD, False), False
            cfg = SimConfig(cutoff_eps=min(1e-4, t * 1e-3), n_paths=n_paths, seed=seed + 37 * i + j)
            est = tail_estimate(kern, sample_S_at(kern, cfg, r), t, "upper")
            lower = lower_bound_universal(tab, r, t, r * phi_t)
            lower_ok = lower_ok and est.p_hat + 3.0 * est.se >= lower
            obs.append(est.p_hat)
            pred.append(form["value"])
            ses.append(est.se)
            coords.append((float(t), float(r)))
    rep = two_sided_check(np.array(obs), np.array(pred), C4_SPREAD, se=np.array(ses), coords=coords)
    return rep, lower_ok


def crit_4_tail_two_sidedness(tables, seed=GOLDEN_SEED):
    """P(S_r >= t)/(r w(t)) spread <= 10 and above e^{-eL}, Caputo+Truncated."""
    results = {}
    ok = True
    for name, kern, t_vals in (
        ("caputo", caputo(0.5), np.geomspace(0.05, 0.8, 5)),
        ("truncated", Truncated(beta=0.5, delta=1.0, scale=1.0), (0.06, 0.12, 0.24)),
    ):
        tab = tables(kern, points_per_decade=24)
        rep, lower_ok = _tail_ratio_grid(tab, t_vals, seed, 100_000)
        rep2, lower_ok2 = _tail_ratio_grid(tab, t_vals, seed + 1000, 200_000)
        stable = rep.passed == rep2.passed
        results[name] = {
            "spread": rep.spread,
            "spread_doubled_paths": rep2.spread,
            "lower_bound_ok": bool(lower_ok and lower_ok2),
            "verdict_stable": bool(stable),
            "n_points": rep.n_points,
        }
        ok = ok and rep.passed and lower_ok and lower_ok2 and stable
    return {
        "name": "4 poly-regime two-sidedness",
        "passed": ok,
        "kernels": results,
        "budget": {"spread": C4_SPREAD, "runtime_s": 300.0},
    }


def crit_5_truncated_structure(seed=GOLDEN_SEED):
    """log P affine in n_t log n_t (residual <= 0.5) and the (n t_f - t)^n dip.

    Every tail is a tilted estimate (``sample_S_tilted``); the path counts
    put each se below that of the plain 1M-8M-path estimate at its point.
    """
    budget = {"residual": 0.5, "dip_spread": 10.0, "runtime_s": 5.0}
    kern = Truncated(beta=0.5, delta=1.0, scale=1.0)

    def tail(r, t, n, seed):
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=n, seed=seed)
        return tail_estimate(kern, sample_S_tilted(kern, cfg, r, t), t, "upper").p_hat

    r = 0.3
    pts = ((0.5, 2**19), (1.5, 2**16), (2.5, 2**16), (3.5, 2**16))
    X, Y = [], []
    for i, (t, n) in enumerate(pts):
        p = tail(r, t, n, seed + 7 * i)
        n_t = math.floor(t) + 1
        X.append(n_t * math.log(n_t))
        Y.append(math.log(p))
    A = np.vstack([X, np.ones(4)]).T
    sol, *_ = np.linalg.lstsq(A, np.array(Y), rcond=None)
    resid = float(np.max(np.abs(np.array(Y) - A @ sol)))
    slope = float(sol[0])

    # dip of the (n t_f - t)^n factor as t -> n t_f, at n = 2
    r2 = 0.05
    ps = {t: tail(r2, t, 2**16, seed + 101 + off) for t, off in ((1.5, 0), (1.95, 1))}
    # n_t log n_t tracks t log t affinely over this window, so the fitted
    # slope doubles as the exponential rate; the factor-10 dip budget
    # absorbs the affine mismatch
    c_fit = -slope
    form = lambda t: (r2 + (2.0 - t) ** 2) * math.exp(-c_fit * t * math.log(t))
    pred_ratio = form(1.95) / form(1.5)
    meas_ratio = ps[1.95] / ps[1.5]
    dip_ok = 1.0 / budget["dip_spread"] <= meas_ratio / pred_ratio <= budget["dip_spread"]
    return {
        "name": "5 truncated-kernel structure",
        "passed": resid <= budget["residual"] and dip_ok,
        "regression_residual": resid,
        "slope": slope,
        "dip_measured": meas_ratio,
        "dip_predicted": pred_ratio,
        "dip_ratio": meas_ratio / pred_ratio,
        "budget": budget,
    }


def crit_6_variational(tables):
    """M and N against their closed forms for Phi(s) = s^2, phi(lam) = lam^{1/2}
    to 1e-6 and 1e-12; defining relations within [1/8, 8]."""
    budget = {"rel_err": 1e-6, "rel_err_N": 1e-12, "ratio": [0.125, 8.0], "runtime_s": 10.0}
    lo, hi = budget["ratio"]
    ts = np.geomspace(0.05, 20.0, 10)
    ls = np.geomspace(0.05, 20.0, 10)
    tab = half_caputo_table(tables)
    rel_ok = True
    worst = 0.0
    worst_m = (math.inf, 0.0)
    worst_n = (math.inf, 0.0)
    Ns = calN(tab, 2.0, ts[:, None], ls[None, :]).tolist()
    # phi(lam) = lam^{1/2}, Phi(s) = s^2: N(t,l) = (3/4) l (l/(4t))^{1/3}
    closed = [[0.75 * l * (l / (4.0 * t)) ** (1.0 / 3.0) for l in ls.tolist()] for t in ts.tolist()]
    worst_N = max(abs(N - c) / c for N_t, c_t in zip(Ns, closed) for N, c in zip(N_t, c_t))
    for t, N_t in zip(ts, Ns):
        for l, N in zip(ls, N_t):
            M = calM(2.0, t, l)
            # Phi(s) = s^2: the sup of l/s - t/s^2 sits at s = 2t/l, M(t,l) = l^2/(4t)
            worst = max(worst, abs(M - l * l / (4.0 * t)) / (l * l / (4.0 * t)))
            rM = (t / M) / (l / M) ** 2.0
            worst_m = (min(worst_m[0], rM), max(worst_m[1], rM))
            rN = (1.0 / tab.phi(N / t)) / (l / N) ** 2.0
            worst_n = (min(worst_n[0], rN), max(worst_n[1], rN))
            rel_ok = rel_ok and lo <= rM <= hi and lo <= rN <= hi
    return {
        "name": "6 variational M/N oracles",
        "passed": worst <= budget["rel_err"] and worst_N <= budget["rel_err_N"] and rel_ok,
        "max_rel_err_M": worst,
        "max_rel_err_N": worst_N,
        "relation_M_bracket": list(worst_m),
        "relation_N_bracket": list(worst_n),
        "budget": budget,
    }


DGAMMA_CASES = {
    "a": (2.0, 0.5, 0.2),
    "b": (2.0, 1.0, 0.25),
    "c": (2.0, 0.8, 0.4),
    "d": (2.0, 1.0, 0.5),
    "e": (2.0, 1.5, 0.5),
    "f": (1.0, 1.0, 0.5),
    "g": (1.0, 2.0, 0.5),
}
C7_SPREAD = 8.0


def dgamma_report(tab, case, budget):
    """Criterion 7's check of one exponent case of ``DGAMMA_CASES``:
    closed_I_gamma against the quadrature of I_1^gamma on the margin-2
    near-diagonal grid of (0, 1).  Returns the ratio report, named
    ``dgamma-<case>``, and the set of scenarios the closed form took."""
    alpha, d, gamma = DGAMMA_CASES[case]
    g = Geometry("interval", 1.0)
    m = HKModel("HK_J", alpha=alpha, d=d, gamma=gamma, lam=0.0, k=1)
    obs, pred, coords = [], [], []
    scen = set()
    for t in (0.003, 0.02, 0.12, 0.7, 5.0):
        phi_t = tab.phi(1.0 / t)
        for dx in (0.012, 0.02, 0.045, 0.08, 0.15, 0.25, 0.45):
            for rho in (0.001, 0.004, 0.012, 0.03, 0.09, 0.2, 0.4):
                y = dx + rho
                if y >= 1.0 - 1e-9:
                    continue
                if not near_diagonal(rho**alpha * phi_t, 2.0, tab.quad_rtol):
                    continue
                closed, _, sc = closed_I_gamma(m, g, tab, t, dx, y)
                quadv = I_gamma_quadrature(m, g, tab, 1, t, dx, y)
                if quadv <= 0.0 or closed <= 0.0:
                    continue
                obs.append(quadv)
                pred.append(closed)
                coords.append((t, dx, y))
                scen.add(sc)
    obs, pred = np.array(obs), np.array(pred)
    return two_sided_check(obs, pred, budget, coords=coords, case="dgamma-" + case), scen


def crit_7_dgamma(tables):
    """closed_I_gamma vs quadrature: spread <= 8 per case on >= 60 points."""
    budget = {"spread": C7_SPREAD, "min_points": 60, "runtime_s": 60.0}
    tab = half_caputo_table(tables)
    out = {}
    ok = True
    for case in DGAMMA_CASES:
        rep, scen = dgamma_report(tab, case, budget["spread"])
        out[case] = {
            "n_points": rep.n_points,
            "spread": rep.spread,
            "scenarios": sorted(scen),
        }
        ok = ok and rep.passed and rep.n_points >= budget["min_points"] and len(scen) == 3
    return {
        "name": "7 closed near-diagonal integral",
        "passed": ok,
        "cases": out,
        "budget": budget,
    }


# criterion 8's branches and the margin each is sampled with
C8_MARGINS = {"mainsmall-i": 2.0, "mainsmall-ii-a": 40.0}
C8_SPREAD = 50.0


def mainsmall_report(tab, tag, resolution, budget, values=None):
    """Criterion 8's check of branch ``tag`` at one grid resolution:
    p_quadrature vs the theorem form for J1 on the interval (0, 1).  A
    point's pair is read from the dict ``values`` if there, else added to it."""
    kern = tab.kernel
    m = HKModel("J1", alpha=1.0, d=1.0)
    g = Geometry("interval", 1.0)
    margin = C8_MARGINS[tag]
    pts = regime_grid(tag, tab, m, g, resolution=resolution, margin=margin, t_window=(1e-3, 0.1))
    values = {} if values is None else values
    for (t, x, y) in pts:
        if (t, x, y) in values:
            continue
        obs = p_quadrature(SolutionRequest(kern, m, g, t, x, y)).value
        if tag == "mainsmall-i":
            values[t, x, y] = obs, J_gamma(m, g, tab, m.k, t, x, y)
        else:
            case = EstimateCase(tag, tab, m, g, t, x, y, margin=margin)
            values[t, x, y] = obs, theorem_estimate(case)["value"]
    obs, pred = zip(*(values[pt] for pt in pts))
    return two_sided_check(np.array(obs), np.array(pred), budget, case=tag)


def crit_8_mainsmall_quadrature(tables):
    """p_quadrature vs the J / off-diagonal forms: spread <= 50, stable.

    ``regime_grid``'s axes at resolution 15 halve the log steps of those at
    8, exactly in binary, so every resolution-8 point is bitwise a
    resolution-15 point, and its values are computed once for both checks.
    """
    budget = {"spread": C8_SPREAD, "min_points": 100, "refinement_drift": 0.20}
    tab = half_caputo_table(tables)
    out = {}
    ok = True
    for tag, margin in C8_MARGINS.items():
        values = {}
        rep = mainsmall_report(tab, tag, 8, budget["spread"], values)
        rep_fine = mainsmall_report(tab, tag, 15, budget["spread"], values)
        drift = abs(rep_fine.spread / rep.spread - 1.0)
        out[tag] = {
            "n_points": rep.n_points,
            "spread": rep.spread,
            "spread_refined": rep_fine.spread,
            "refinement_drift": drift,
            "margin": margin,
        }
        ok = (ok and rep.passed and rep_fine.passed and rep.n_points >= budget["min_points"]
              and drift <= budget["refinement_drift"])
    return {
        "name": "8 near/off-diagonal quadrature comparability",
        "passed": ok,
        "branches": out,
        "budget": budget,
    }


def compare(tag, budget=None):
    """The ratio report of case ``dgamma-<case>`` of criterion 7, or of
    branch mainsmall-i or mainsmall-ii-a of criterion 8 at resolution 8, on
    a table of its own; ``budget`` replaces the criterion's spread budget."""
    dgamma = tag[len("dgamma-"):] if tag.startswith("dgamma-") else None
    if dgamma not in DGAMMA_CASES and tag not in C8_MARGINS:
        raise RegimeError("compare supports mainsmall-i, mainsmall-ii-a and dgamma-<case>, "
                          "<case> one of %s" % ", ".join(DGAMMA_CASES))
    tab = half_caputo_table(TableCache())
    if dgamma:
        return dgamma_report(tab, dgamma, C7_SPREAD if budget is None else budget)[0]
    return mainsmall_report(tab, tag, 8, C8_SPREAD if budget is None else budget)


def crit_9_exponential_constant(tables):
    """exp-constant fit of p vs the D2 form against N(t, rho)."""
    budget = {"c": [0.2, 5.0], "residual": 1.0, "t_stat": 5.0}
    kern = caputo(0.5)
    tab = tables(kern, points_per_decade=24)
    m = HKModel("D2", alpha=2.0, d=1.0)
    g = Geometry("half-line")
    x0 = 10.0
    X, LR = [], []
    ts, rhos = (0.02, 0.1, 0.5), np.geomspace(2.0, 14.0, 10)
    Ns = calN(tab, m.alpha, np.array(ts)[:, None], rhos).tolist()
    for t, N_t in zip(ts, Ns):
        inv = 1.0 / tab.phi(1.0 / t)
        for rho, N in zip(rhos, N_t):
            if N > 80.0:
                continue
            p = p_quadrature(SolutionRequest(kern, m, g, t, x0, x0 + rho)).value
            if p <= 0.0:
                continue
            a = a_gamma_delta(m.gamma, m.alpha, m.k, inv, g.delta(x0), g.delta(x0 + rho))
            X.append(N)
            LR.append(math.log(p / (a / inv**0.5)))
    fit = exp_constant_fit(np.array(LR), np.array(X))
    c_lo, c_hi = budget["c"]
    ok = c_lo <= fit.c <= c_hi and fit.residual <= budget["residual"] and fit.t_stat >= budget["t_stat"]
    return {
        "name": "9 off-diagonal exponential constant",
        "passed": ok,
        "c": fit.c,
        "residual": fit.residual,
        "t_stat": fit.t_stat,
        "n_points": len(X),
        "budget": budget,
    }


def crit_10_diagonal_finiteness(tables):
    """p(t,x,x) < inf iff t >= floor(d/alpha) delta, via probe + branches."""
    kern = Truncated(beta=0.5, delta=1.0, scale=1.0)
    tab = tables(kern, points_per_decade=16)
    m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
    g = Geometry("free")
    probe_bad = diagonal_probe(kern, m, 1.5)
    probe_good = diagonal_probe(kern, m, 2.5)
    seq = [
        theorem_estimate(EstimateCase("example1-large", tab, m, g, 1.5, 0.0, eps))["value"]
        for eps in (1e-3, 1e-9, 1e-15)
    ]
    diag_val = theorem_estimate(EstimateCase("example1-large", tab, m, g, 2.5, 0.0, 0.0))
    ok = (
        probe_bad["verdict"] == "diverged"
        and probe_good["verdict"] == "converged"
        and seq[0] < seq[1] < seq[2]
        and math.isfinite(diag_val["value"])
    )
    return {
        "name": "10 diagonal finiteness threshold",
        "passed": ok,
        "probe_t_1_5": probe_bad["verdict"],
        "probe_t_2_5": probe_good["verdict"],
        "estimate_growth": seq,
        "diagonal_value_t_2_5": diag_val["value"],
        "budget": {"threshold": 2.0},
    }


C11_T_VALUES = (0.05, 0.2)
C11_DELTAS = (1e-4, 1e-3, 1e-2, 1e-1)
C11_BAND = 4.0


def boundary_sweep(t_values, deltas, band_budget):
    """Criterion 11's u(t, delta) for J1 on (0, 1), f = 1, 1/2-Caputo kernel:
    the (t, delta, u, u/delta^{alpha gamma}) rows, the {"band", "ratios"} of
    each "t=<t>" (t's repr, so distinct t never share a band), and whether
    every band max/min is within ``band_budget``."""
    kern = caputo(0.5)
    m = HKModel("J1", alpha=1.0, d=1.0)
    g = Geometry("interval", 1.0)
    rows, sweeps = [], {}
    ok = True
    for t in t_values:
        ratios = []
        for dlt in deltas:
            u = solve_u(SolutionRequest(kern, m, g, t, dlt, f=lambda y: 1.0)).value
            ratios.append(u / dlt ** (m.alpha * m.gamma))
            rows.append((float(t), float(dlt), u, ratios[-1]))
        band = max(ratios) / min(ratios)
        sweeps["t=" + repr(float(t))] = {"band": band, "ratios": ratios}
        ok = ok and band <= band_budget
    return rows, sweeps, ok


def crit_11_boundary_decay():
    """u(t,x)/delta^{alpha gamma} stays in a factor-4 band near the wall."""
    budget = {"band": C11_BAND}
    _, sweeps, ok = boundary_sweep(C11_T_VALUES, C11_DELTAS, budget["band"])
    return {
        "name": "11 boundary decay order",
        "passed": ok,
        "sweeps": sweeps,
        "budget": budget,
    }


CRITERIA = (
    crit_1_stable_identity,
    crit_2_b_sandwich,
    crit_3_mc_vs_closed_form,
    crit_4_tail_two_sidedness,
    crit_5_truncated_structure,
    crit_6_variational,
    crit_7_dgamma,
    crit_8_mainsmall_quadrature,
    crit_9_exponential_constant,
    crit_10_diagonal_finiteness,
    crit_11_boundary_decay,
)


def run_all(seed=GOLDEN_SEED):
    """Run every golden criterion; criterion 12 (determinism) is the caller
    re-running this very function and comparing bytes.  The criteria share
    one TableCache, made here and dropped on return.  Returns the report and,
    beside it, each criterion's wall time in seconds by name."""
    shared = {"seed": seed, "tables": TableCache()}
    results, seconds = [], {}
    for fn in CRITERIA:
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        t0 = time.perf_counter()
        verdict = fn(**{k: v for k, v in shared.items() if k in params})
        seconds[verdict["name"]] = round(time.perf_counter() - t0, 3)
        results.append(verdict)
    return {"seed": seed, "passed": all(r["passed"] for r in results), "criteria": results}, seconds


def over_budget(report, seconds):
    """The names of the criteria of a ``run_all`` report whose wall time in
    ``seconds`` exceeds their ``runtime_s`` budget, in report order (a
    criterion without one has no time budget)."""
    return [c["name"] for c in report["criteria"]
            if seconds[c["name"]] > c["budget"].get("runtime_s", math.inf)]
