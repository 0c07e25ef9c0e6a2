"""Seeded inputs of the three benchmark workloads.

Each workload is a *round*: a fixed list of ``subtail`` CLI calls, made one
after the other by a single caller.  The benchmark repeats the round in a
closed loop until its measuring time is used up, so every round of one run
has the same inputs and must produce the same bytes.

The seed changes the Monte Carlo streams and jitters the evaluation points,
but not the amount of work: clock values that set the number of simulated
jumps are held within 2% of fixed values, and the point count per family is
fixed.  That keeps run-to-run timing spread a property of the program, not
of the inputs drawn.

This module uses only the standard library, so the parent process can build
and check inputs without importing the program.
"""

from __future__ import annotations

import math
import random

GOLDEN_SEED = 20240612

WORKLOADS = ("report", "mc", "fundsol")

# The five built-in kernels of the golden suite, as CLI config dicts.
_TAB_S = [10.0 ** (-6.0 + 12.0 * i / 60.0) for i in range(61)]
KERNELS = {
    "power": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
    "truncated": {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0},
    "subexp": {"kind": "subexp", "beta": 0.5, "theta": 1.0, "c0": 1.0, "smallBeta": 0.5},
    "distributed": {"kind": "distributed", "weights": [[0.3, 1.0], [0.7, 1.0]]},
    "tabulated": {
        "kind": "tabulated",
        "knots": [[s, 0.7 * s**-0.4 + 0.05 * s**-0.8] for s in _TAB_S],
        "tail": "power",
    },
}
HALF_CAPUTO = KERNELS["power"]

# mc: the jump cutoff, paths per tails call, and the p_mc call's points and
# paths (enough that p_mc's sampling and per-path q outweigh the call's
# table build).
MC_EPS = 1e-3
MC_PATHS = 1000
P_MC_POINTS = 16
P_MC_PATHS = 4000

# fundsol: every model family on a geometry it is valid on.
_INTERVAL = {"kind": "interval", "length": 1.0}
_HALF_LINE = {"kind": "half-line"}
_EXTERIOR = {"kind": "exterior"}
FAMILIES = {
    "J1": {"family": "J1", "alpha": 1.0, "d": 1.0, "geometry": _INTERVAL},
    "J2": {"family": "J2", "alpha": 1.0, "d": 1.0, "geometry": _HALF_LINE},
    "J3": {"family": "J3", "alpha": 1.0, "d": 1.0, "geometry": _EXTERIOR},
    "J4": {"family": "J4", "alpha": 1.5, "d": 1.0, "geometry": _INTERVAL},
    "D1": {"family": "D1", "alpha": 2.0, "d": 1.0, "geometry": _INTERVAL},
    "D2": {"family": "D2", "alpha": 2.0, "d": 1.0, "geometry": _HALF_LINE},
    "D3": {"family": "D3", "alpha": 2.0, "d": 1.0, "geometry": _EXTERIOR},
    "HK_J": {"family": "HK_J", "alpha": 1.0, "d": 1.0, "gamma": 0.3, "lambda": 0.0, "k": 1,
             "geometry": _HALF_LINE},
    "HK_D": {"family": "HK_D", "alpha": 2.0, "d": 1.0, "gamma": 0.25, "lambda": 0.0, "k": 2,
             "geometry": _HALF_LINE},
    "HK_M": {"family": "HK_M", "alpha": 1.5, "d": 1.0, "gamma": 0.5, "lambda": 0.5, "k": 1,
             "geometry": _INTERVAL},
}
# Points per family, before the one swapped point that checks symmetry.  A
# J/D point costs ~0.02 s and an HK_D/HK_M point ~0.4 s (each q calls calM),
# so the two halves of a round take comparable time.
POINTS_JD = 8
POINTS_HK_DM = 2
_POINT_RANGE = {"interval": (0.05, 0.95), "half-line": (0.05, 2.0), "exterior": (1.05, 3.0)}
# Nearly coincident x and y (|x - y| below ~1e-5 for D1-D3, 1e-6 for J4,
# 1e-8 for J1) make p_quadrature miss its 1e-8 target and raise
# QuadratureError, which escapes the CLI.  Seeded points keep at least this
# separation, so that no seed fails by chance; the defect stays in view
# through NEAR_DIAGONAL instead.
MIN_SEPARATION = 0.01
# A known defect of the program, one call of every fundsol round: this D1
# point (|x - y| = 4e-6, first met at one seed) raises QuadratureError.
# run.py reports that error apart as expected, and checks the point like any
# other once the program returns it; fundamental.quadrature_errors counts it.
NEAR_DIAGONAL = {"t": 0.064, "x": 0.5, "y": 0.500004}


def _call(label, subcommand, seed, config=None, kind=None, known_error=None):
    return {"label": label, "subcommand": subcommand, "seed": seed, "config": config,
            "kind": kind or subcommand, "known_error": known_error}


def _report(seed):
    # The golden verdicts are pinned to the golden seed: criteria 3-5 hold
    # 3-standard-error budgets that a fresh seed fails by chance.  So the
    # report round is the same on every seed, and its outputs must be
    # byte-identical on every run of one commit.
    return [_call("report", "report", GOLDEN_SEED)]


def _mc(seed):
    rng = random.Random(seed)
    calls = []
    for i, (name, kern) in enumerate(KERNELS.items()):
        # two distinct clocks, three levels: tails draws S_r per (r, t, side)
        r = [0.5 * (1.0 + rng.uniform(-0.02, 0.02)), 2.0 * (1.0 + rng.uniform(-0.02, 0.02))]
        t = [rng.uniform(0.2, 0.4), rng.uniform(0.8, 1.5), rng.uniform(3.0, 5.0)]
        cfg = {"kernel": kern, "sim": {"cutoff_eps": MC_EPS, "n_paths": MC_PATHS},
               "grid": {"r": r, "t": t}}
        calls.append(_call("tails-" + name, "tails", seed + i, cfg))
    pts = [{"t": 10.0 ** rng.uniform(-1.7, -0.3), "x": rng.uniform(0.05, 0.95),
            "y": rng.uniform(0.05, 0.95)} for _ in range(P_MC_POINTS)]
    cfg = {"kernel": HALF_CAPUTO, "model": FAMILIES["J1"], "method": "mc",
           "sim": {"cutoff_eps": MC_EPS, "n_paths": P_MC_PATHS}, "points": pts}
    calls.append(_call("fundsol-mc-J1", "fundsol", seed + len(KERNELS), cfg, kind="fundsol-mc"))
    return calls


def _fundsol(seed):
    rng = random.Random(seed)
    calls = []
    for fam, model in FAMILIES.items():
        lo, hi = _POINT_RANGE[model["geometry"]["kind"]]
        n = POINTS_HK_DM if fam in ("HK_D", "HK_M") else POINTS_JD
        pts = []
        while len(pts) < n:
            t, x, y = 10.0 ** rng.uniform(-2.0, 0.0), rng.uniform(lo, hi), rng.uniform(lo, hi)
            if abs(x - y) >= MIN_SEPARATION:
                pts.append({"t": t, "x": x, "y": y})
        j = rng.randrange(n)
        pts.append({"t": pts[j]["t"], "x": pts[j]["y"], "y": pts[j]["x"]})
        cfg = {"kernel": HALF_CAPUTO, "model": model, "points": pts}
        calls.append(_call("fundsol-" + fam, "fundsol", seed, cfg))
    cfg = {"kernel": HALF_CAPUTO, "model": FAMILIES["D1"], "points": [NEAR_DIAGONAL]}
    calls.append(_call("fundsol-D1-near-diagonal", "fundsol", seed, cfg, kind="fundsol-probe",
                       known_error="QuadratureError"))
    return calls


def build(workload, seed):
    """The round of CLI calls of ``workload`` for ``seed``."""
    return {"report": _report, "mc": _mc, "fundsol": _fundsol}[workload](seed)
