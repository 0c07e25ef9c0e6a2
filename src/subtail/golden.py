"""The golden verification suite.

Each function runs one frozen acceptance case end to end and returns a
JSON-serializable verdict dict: {"name", "passed", "seconds", details...}.
The CLI `report` subcommand renders the pass/fail matrix from `run_all`;
tests assert the same dicts.  All parameters (grids, seeds, budgets, path
counts) are frozen here; nothing is tuned at run time.  The criteria of one
``run_all`` share one ``TableCache``, so each (kernel, grid) table is built
once per run and dropped with it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bernstein import BernsteinTable, calM, calN
from .comparability import RatioReport, exp_constant_fit, regime_grid, two_sided_check
from .estimates import EstimateCase, I_gamma_quadrature, J_gamma, closed_I_gamma, theorem_estimate
from .fundamental import SolutionRequest, diagonal_probe, p_quadrature, solve_u
from .heat_kernel import Geometry, HKModel, a_gamma_delta
from .kernels import (
    DistributedOrder,
    Subexp,
    Tabulated,
    Truncated,
    caputo,
    check_conditions,
)
from .shapes import PowerLaw
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


def _half_caputo_table(tables):
    return tables(caputo(0.5), points_per_decade=24)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    out["seconds"] = round(time.perf_counter() - t0, 3)
    return out


def crit_1_stable_identity(tables):
    """phi = lam^beta to 1e-8 and H = (1-beta) lam^beta to 1e-7."""

    def run():
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
            "passed": worst_phi <= 1e-8 and worst_H <= 1e-7,
            "max_rel_err_phi": worst_phi,
            "max_rel_err_H": worst_H,
            "budget": {"phi": 1e-8, "H": 1e-7, "runtime_s": 5.0},
        }

    return _timed(run)


def crit_2_b_sandwich(tables):
    """phi(1/s)^{-1} <= b^{-1}(s) <= 6.49569 phi(1/s)^{-1}, all five kernels."""

    def run():
        svals = np.geomspace(1e-3, 1e3, 48)
        violations = []
        worst = {"low": math.inf, "high": 0.0}
        for name, kern in builtin_kernel_set().items():
            tab = tables(kern)
            ratios = tab.invert("b", svals) * tab.phi(1.0 / svals)
            for s, ratio in zip(svals, ratios.tolist()):
                worst["low"] = min(worst["low"], ratio)
                worst["high"] = max(worst["high"], ratio)
                if not (1.0 - 1e-9 <= ratio <= B_UPPER):
                    violations.append({"kernel": name, "s": float(s), "ratio": float(ratio)})
        return {
            "name": "2 b-inverse sandwich",
            "passed": not violations,
            "violations": violations,
            "achieved_bracket": [worst["low"], worst["high"]],
            "budget": {"low": 1.0, "high": B_UPPER, "runtime_s": 30.0},
        }

    return _timed(run)


def crit_3_mc_vs_closed_form(seed=GOLDEN_SEED):
    """MC tails vs erf/erfc within 3 se on a 20-point grid; KS < 0.01."""

    def run():
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
            "passed": worst_z <= 3.0 and ks < 0.01,
            "worst_abs_z": worst_z,
            "ks_vs_exact_sampler": ks,
            "n_grid": len(rows),
            "budget": {"z": 3.0, "ks": 0.01, "runtime_s": 120.0},
        }

    return _timed(run)


def _tail_ratio_grid(kern, tab, t_vals, seed, n_paths):
    """MC tails P(S_r >= t) against the ``tail_bounds`` form r w(t) and the
    universal lower bound at L = r phi(1/t), on r = 0.1, 0.3 and 1 times the
    classifier's margin edge.  Returns the ratio report and whether every
    point clears the lower bound; a point outside the r w(t) form leaves the
    criterion without a prediction, so it fails with an infinite spread."""
    conditions = check_conditions(kern)
    obs, pred, ses, coords = [], [], [], []
    lower_ok = True
    for i, t in enumerate(t_vals):
        phi_t = tab.phi(1.0 / t)
        r_edge = QUARTER_E2 / (MARGIN * phi_t)
        for j, frac in enumerate((0.1, 0.3, 1.0)):
            r = frac * r_edge
            form = upper_bound_form(kern, tab, r, t, conditions=conditions)
            if form.get("form") != "r*w(t)":
                return RatioReport("", 0, math.nan, math.nan, math.inf, 10.0, False), False
            cfg = SimConfig(cutoff_eps=min(1e-4, t * 1e-3), n_paths=n_paths, seed=seed + 37 * i + j)
            est = tail_estimate(kern, sample_S_at(kern, cfg, r), t, "upper")
            lower = lower_bound_universal(tab, kern, r, t, r * phi_t)
            lower_ok = lower_ok and est.p_hat + 3.0 * est.se >= lower
            obs.append(est.p_hat)
            pred.append(form["value"])
            ses.append(est.se)
            coords.append((float(t), float(r)))
    rep = two_sided_check(np.array(obs), np.array(pred), 10.0, se=np.array(ses), coords=coords)
    return rep, lower_ok


def crit_4_tail_two_sidedness(tables, seed=GOLDEN_SEED):
    """P(S_r >= t)/(r w(t)) spread <= 10 and above e^{-eL}, Caputo+Truncated."""

    def run():
        results = {}
        ok = True
        for name, kern, t_vals in (
            ("caputo", caputo(0.5), np.geomspace(0.05, 0.8, 5)),
            ("truncated", Truncated(beta=0.5, delta=1.0, scale=1.0), (0.06, 0.12, 0.24)),
        ):
            tab = tables(kern, points_per_decade=24)
            rep, lower_ok = _tail_ratio_grid(kern, tab, t_vals, seed, 100_000)
            rep2, lower_ok2 = _tail_ratio_grid(kern, tab, t_vals, seed + 1000, 200_000)
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
            "budget": {"spread": 10.0, "runtime_s": 300.0},
        }

    return _timed(run)


def crit_5_truncated_structure(seed=GOLDEN_SEED):
    """log P affine in n_t log n_t (residual <= 0.5) and the (n t_f - t)^n dip.

    Every tail is a tilted estimate (``sample_S_tilted``); the path counts
    put each se below that of the plain 1M-8M-path estimate at its point.
    """

    def run():
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
        dip_ok = 0.1 <= meas_ratio / pred_ratio <= 10.0
        return {
            "name": "5 truncated-kernel structure",
            "passed": resid <= 0.5 and dip_ok,
            "regression_residual": resid,
            "slope": slope,
            "dip_measured": meas_ratio,
            "dip_predicted": pred_ratio,
            "dip_ratio": meas_ratio / pred_ratio,
            "budget": {"residual": 0.5, "dip_spread": 10.0, "runtime_s": 5.0},
        }

    return _timed(run)


def crit_6_variational(tables):
    """M and N against their closed forms for Phi(s) = s^2, phi(lam) = lam^{1/2}
    to 1e-6 and 1e-12; defining relations within [1/8, 8]."""

    def run():
        ts = np.geomspace(0.05, 20.0, 10)
        ls = np.geomspace(0.05, 20.0, 10)
        shape = PowerLaw(2.0)
        tab = _half_caputo_table(tables)
        rel_ok = True
        worst = 0.0
        worst_m = (math.inf, 0.0)
        worst_n = (math.inf, 0.0)
        Ns = calN(tab, shape, ts[:, None], ls[None, :]).tolist()
        # phi(lam) = lam^{1/2}, Phi(s) = s^2: N(t,l) = (3/4) l (l/(4t))^{1/3}
        closed = [[0.75 * l * (l / (4.0 * t)) ** (1.0 / 3.0) for l in ls.tolist()] for t in ts.tolist()]
        worst_N = max(abs(N - c) / c for N_t, c_t in zip(Ns, closed) for N, c in zip(N_t, c_t))
        for t, N_t in zip(ts, Ns):
            for l, N in zip(ls, N_t):
                M = calM(shape, t, l)
                # Phi(s) = s^2: the sup of l/s - t/s^2 sits at s = 2t/l, M(t,l) = l^2/(4t)
                worst = max(worst, abs(M - l * l / (4.0 * t)) / (l * l / (4.0 * t)))
                rM = (t / M) / shape(l / M)
                worst_m = (min(worst_m[0], rM), max(worst_m[1], rM))
                rN = (1.0 / tab.phi(N / t)) / shape(l / N)
                worst_n = (min(worst_n[0], rN), max(worst_n[1], rN))
                rel_ok = rel_ok and 0.125 <= rM <= 8.0 and 0.125 <= rN <= 8.0
        return {
            "name": "6 variational M/N oracles",
            "passed": worst <= 1e-6 and worst_N <= 1e-12 and rel_ok,
            "max_rel_err_M": worst,
            "max_rel_err_N": worst_N,
            "relation_M_bracket": list(worst_m),
            "relation_N_bracket": list(worst_n),
            "budget": {"rel_err": 1e-6, "rel_err_N": 1e-12, "ratio": [0.125, 8.0], "runtime_s": 10.0},
        }

    return _timed(run)


DGAMMA_CASES = {
    "a": (2.0, 0.5, 0.2),
    "b": (2.0, 1.0, 0.25),
    "c": (2.0, 0.8, 0.4),
    "d": (2.0, 1.0, 0.5),
    "e": (2.0, 1.5, 0.5),
    "f": (1.0, 1.0, 0.5),
    "g": (1.0, 2.0, 0.5),
}


def _c7_case(tab, alpha, d, gamma):
    """Criterion 7 for one exponent case: (quadrature, closed form, coords,
    scenarios) of I_1^gamma on the margin-2 near-diagonal grid of (0, 1)."""
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
    return obs, pred, coords, scen


def crit_7_dgamma(tables):
    """closed_I_gamma vs quadrature: spread <= 8 per case on >= 60 points."""

    def run():
        tab = _half_caputo_table(tables)
        out = {}
        ok = True
        for case, (alpha, d, gamma) in DGAMMA_CASES.items():
            obs, pred, coords, scen = _c7_case(tab, alpha, d, gamma)
            rep = two_sided_check(np.array(obs), np.array(pred), 8.0, coords=coords, case=case)
            out[case] = {
                "n_points": rep.n_points,
                "spread": rep.spread,
                "scenarios": sorted(scen),
            }
            ok = ok and rep.passed and rep.n_points >= 60 and len(scen) == 3
        return {
            "name": "7 closed near-diagonal integral",
            "passed": ok,
            "cases": out,
            "budget": {"spread": 8.0, "min_points": 60, "runtime_s": 60.0},
        }

    return _timed(run)


# criterion 8's branches and the margin each is sampled with
C8_MARGINS = {"mainsmall-i": 2.0, "mainsmall-ii-a": 40.0}


def _c8_grid_spread(tab, tag, resolution, budget, values=None):
    """p_quadrature vs the theorem form of ``tag`` for J1 on the interval (0, 1);
    a point's pair is read from the dict values if there, else added to it."""
    kern = tab.kernel
    m = HKModel("J1", alpha=1.0, d=1.0)
    g = Geometry("interval", 1.0)
    margin = C8_MARGINS[tag]
    pts = regime_grid(tag, kern, tab, m, g, resolution=resolution, margin=margin,
                      t_window=(1e-3, 0.1))
    values = {} if values is None else values
    for (t, x, y) in pts:
        if (t, x, y) in values:
            continue
        obs = p_quadrature(SolutionRequest(kern, m, g, t, x, y)).value
        if tag == "mainsmall-i":
            values[t, x, y] = obs, J_gamma(m, g, tab, kern, m.k, t, x, y)
        else:
            case = EstimateCase(tag, kern, tab, m, g, t, x, y, margin=margin)
            values[t, x, y] = obs, theorem_estimate(case)["value"]
    obs, pred = zip(*(values[pt] for pt in pts))
    return two_sided_check(np.array(obs), np.array(pred), budget, case=tag)


def crit_8_mainsmall_quadrature(tables):
    """p_quadrature vs the J / off-diagonal forms: spread <= 50, stable.

    ``regime_grid``'s axes at resolution 15 halve the log steps of those at
    8, exactly in binary, so every resolution-8 point is bitwise a
    resolution-15 point, and its values are computed once for both checks.
    """

    def run():
        tab = _half_caputo_table(tables)
        out = {}
        ok = True
        for tag, margin in C8_MARGINS.items():
            values = {}
            rep = _c8_grid_spread(tab, tag, 8, 50.0, values)
            rep_fine = _c8_grid_spread(tab, tag, 15, 50.0, values)
            drift = abs(rep_fine.spread / rep.spread - 1.0)
            out[tag] = {
                "n_points": rep.n_points,
                "spread": rep.spread,
                "spread_refined": rep_fine.spread,
                "refinement_drift": drift,
                "margin": margin,
            }
            ok = ok and rep.passed and rep_fine.passed and rep.n_points >= 100 and drift <= 0.20
        return {
            "name": "8 near/off-diagonal quadrature comparability",
            "passed": ok,
            "branches": out,
            "budget": {"spread": 50.0, "min_points": 100, "refinement_drift": 0.20},
        }

    return _timed(run)


def crit_9_exponential_constant(tables):
    """exp-constant fit of p vs the D2 form against N(t, rho)."""

    def run():
        kern = caputo(0.5)
        tab = tables(kern, points_per_decade=24)
        m = HKModel("D2", alpha=2.0, d=1.0)
        g = Geometry("half-line")
        x0 = 10.0
        X, LR = [], []
        ts, rhos = (0.02, 0.1, 0.5), np.geomspace(2.0, 14.0, 10)
        Ns = calN(tab, m.Phi, np.array(ts)[:, None], rhos).tolist()
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
        ok = 0.2 <= fit.c <= 5.0 and fit.residual <= 1.0 and fit.t_stat >= 5.0
        return {
            "name": "9 off-diagonal exponential constant",
            "passed": ok,
            "c": fit.c,
            "residual": fit.residual,
            "t_stat": fit.t_stat,
            "n_points": len(X),
            "budget": {"c": [0.2, 5.0], "residual": 1.0, "t_stat": 5.0},
        }

    return _timed(run)


def crit_10_diagonal_finiteness(tables):
    """p(t,x,x) < inf iff t >= floor(d/alpha) delta, via probe + branches."""

    def run():
        kern = Truncated(beta=0.5, delta=1.0, scale=1.0)
        tab = tables(kern, points_per_decade=16)
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
        g = Geometry("free")
        probe_bad = diagonal_probe(kern, m, 1.5)
        probe_good = diagonal_probe(kern, m, 2.5)
        seq = [
            theorem_estimate(EstimateCase("example1-large", kern, tab, m, g, 1.5, 0.0, eps))["value"]
            for eps in (1e-3, 1e-9, 1e-15)
        ]
        diag_val = theorem_estimate(EstimateCase("example1-large", kern, tab, m, g, 2.5, 0.0, 0.0))
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

    return _timed(run)


C11_T_VALUES = (0.05, 0.2)
C11_DELTAS = (1e-4, 1e-3, 1e-2, 1e-1)
C11_BAND = 4.0


def _c11_sweep(kern, t, deltas):
    """(u(t, delta), u/delta^{alpha gamma}) lists for J1 on (0, 1) with f = 1."""
    m = HKModel("J1", alpha=1.0, d=1.0)
    g = Geometry("interval", 1.0)
    us, ratios = [], []
    for dlt in deltas:
        u = solve_u(SolutionRequest(kern, m, g, t, dlt, f=lambda y: 1.0)).value
        us.append(u)
        ratios.append(u / dlt ** (m.alpha * m.gamma))
    return us, ratios


def crit_11_boundary_decay():
    """u(t,x)/delta^{alpha gamma} stays in a factor-4 band near the wall."""

    def run():
        kern = caputo(0.5)
        bands = {}
        ok = True
        for t in C11_T_VALUES:
            _, ratios = _c11_sweep(kern, t, C11_DELTAS)
            band = max(ratios) / min(ratios)
            bands["t=%g" % t] = {"band": band, "ratios": ratios}
            ok = ok and band <= C11_BAND
        return {
            "name": "11 boundary decay order",
            "passed": ok,
            "sweeps": bands,
            "budget": {"band": C11_BAND},
        }

    return _timed(run)


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
    one TableCache, made here and dropped on return."""
    shared = {"seed": seed, "tables": TableCache()}
    results = []
    for fn in CRITERIA:
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        results.append(fn(**{k: v for k, v in shared.items() if k in params}))
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
