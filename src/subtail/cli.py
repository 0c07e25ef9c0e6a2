"""Batch command-line front end.

Subcommands:

* ``phi-table``  dump (lambda, phi, phi', H, b) rows as CSV, plus the
                 achieved comparability brackets of the moment identities
* ``conditions`` certify the structural conditions of a kernel
* ``tails``      MC tail estimates with the matching structural bound forms
* ``fundsol``    (t, x, y, p, se, method) rows for the fundamental solution
* ``estimate``   evaluate one theorem branch from a JSON request
* ``compare``    regime grid -> (MC | quadrature) -> theorem form ->
                 two-sided ratio report (exit 1 on budget failure)
* ``boundary``   the boundary-decay sweep u(t,x)/delta^{alpha gamma}
* ``report``     the full golden suite as one pass/fail matrix, and each
                 criterion's seconds in ``report_timing.json``

Exit codes: 0 success; 1 budget failure (the ratio report is still
written), for ``report`` a failed criterion or one over its ``runtime_s``
(named under ``over_budget`` in ``report_timing.json``); 2 an unreadable
config file, a config schema violation (with the value's JSON path), a
``--budget`` that is not a finite number > 0 or a flag the subcommand does
not read (``--case`` and ``--budget`` are ``compare``'s, ``--paths`` is
``tails``' and ``fundsol``'s with method mc);
3 empty or violated regime, or a target outside a map's range
(RegimeError, RangeError); 4 an argument outside its domain (DomainError,
AtomError); 5 a quadrature that missed its target (QuadratureError).  On
3-5 the manifest is still written, with the error's type and message.

Every run resolves its parameters into a manifest whose SHA-256 hash is
cited by each output file; wall-clock time lives only in the manifest run
log, so outputs are byte-identical across reruns.  Files are written
atomically (temp + rename).  All randomness flows from the manifest seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, golden
from .bernstein import BernsteinTable
from .errors import AtomError, DomainError, QuadratureError, RangeError, RegimeError, SubtailError
from .estimates import CASE_TAGS, EstimateCase, theorem_estimate
from .fundamental import SolutionRequest, p_mc, p_quadrature
from .heat_kernel import model_from_config
from .kernels import check_conditions, kernel_from_config
from .simulate import SimConfig, sample_S_at, tail_estimate
from .tail_bounds import upper_bound_form

_NUMBERS = {"type": "array", "items": {"type": "number"}}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVES = {"type": "array", "minItems": 1, "items": _POSITIVE}
_NUMBER_PAIRS = {"type": "array", "items": {**_NUMBERS, "minItems": 2, "maxItems": 2}}
# the manifest seed of every subcommand, which --seed overrides
_SEED = {"type": "integer"}
# the parameters kernel_from_config has no default for, per kernel kind
_KERNEL_REQUIRED = {
    "power": ["beta"],
    "truncated": ["beta"],
    "subexp": ["beta", "theta"],
    "distributed": ["weights"],
    "tabulated": ["knots"],
}

_KERNEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_KERNEL_REQUIRED)},
        "beta": {"type": "number"},
        "scale": {"type": "number"},
        "delta": {"type": "number"},
        "theta": {"type": "number"},
        "c0": {"type": "number"},
        "smallBeta": {"type": "number"},
        "weights": _NUMBER_PAIRS,
        "knots": _NUMBER_PAIRS,
        "tail": {"enum": ["power", "zero"]},
    },
    "allOf": [
        {"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
         "then": {"required": params}}
        for kind, params in _KERNEL_REQUIRED.items()
    ],
}

_MODEL_SCHEMA = {
    "type": "object",
    "required": ["family", "alpha", "d"],
    "properties": {
        "family": {
            "enum": ["J1", "J2", "J3", "J4", "D1", "D2", "D3", "HK_J", "HK_D", "HK_M"]
        },
        "alpha": {"type": "number"},
        "d": {"type": "number"},
        "gamma": {"type": "number"},
        "lambda": {"type": "number"},
        "k": {"enum": [1, 2]},
        "psi_alpha": {"type": "number"},
        "exp_c": {"type": "number"},
        "geometry": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["interval", "half-line", "exterior", "free"]},
                "length": {"type": "number"},
            },
        },
    },
}

_SIM_SCHEMA = {
    "type": "object",
    "properties": {
        "cutoff_eps": {"type": "number"},
        "n_paths": {"type": "integer"},
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "phi-table": {
        "type": "object",
        "required": ["kernel"],
        "properties": {
            "seed": _SEED,
            "kernel": _KERNEL_SCHEMA,
            "lambdas": {
                "type": "object",
                "properties": {
                    "lo": _POSITIVE,
                    "hi": _POSITIVE,
                    "n": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
    "conditions": {
        "type": "object",
        "required": ["kernel"],
        "properties": {"seed": _SEED, "kernel": _KERNEL_SCHEMA},
    },
    "tails": {
        "type": "object",
        "required": ["kernel", "grid"],
        "properties": {
            "seed": _SEED,
            "kernel": _KERNEL_SCHEMA,
            "sim": _SIM_SCHEMA,
            "grid": {
                "type": "object",
                "required": ["r", "t"],
                "properties": {"r": _NUMBERS, "t": _NUMBERS},
            },
        },
    },
    "fundsol": {
        "type": "object",
        "required": ["kernel", "model", "points"],
        "properties": {
            "seed": _SEED,
            "kernel": _KERNEL_SCHEMA,
            "model": _MODEL_SCHEMA,
            "sim": _SIM_SCHEMA,
            "method": {"enum": ["quadrature", "mc"]},
            "points": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["t", "x", "y"],
                    "properties": {"t": _POSITIVE, "x": {"type": "number"}, "y": {"type": "number"}},
                },
            },
        },
    },
    "estimate": {
        "type": "object",
        "required": ["kernel", "model", "case"],
        "properties": {
            "seed": _SEED,
            "kernel": _KERNEL_SCHEMA,
            "model": _MODEL_SCHEMA,
            "case": {
                "type": "object",
                "required": ["tag", "t", "x", "y"],
                "properties": {
                    "tag": {"enum": list(CASE_TAGS)},
                    "t": _POSITIVE,
                    "x": {"type": "number"},
                    "y": {"type": "number"},
                    "horizon_T": _POSITIVE,
                    "margin": _POSITIVE,
                },
            },
        },
    },
    "compare": {
        "type": "object",
        "properties": {"seed": _SEED, "case": {"type": "string"}, "budget": _POSITIVE},
    },
    "boundary": {
        "type": "object",
        "properties": {
            "seed": _SEED,
            "t_values": _POSITIVES,
            "deltas": _POSITIVES,
            "band_budget": _POSITIVE,
        },
    },
    "report": {"type": "object", "properties": {"seed": _SEED}},
}


# ---------------------------------------------------------------------------
# Config checking: the JSON Schema (Draft 2020-12) keywords SCHEMAS uses
# ---------------------------------------------------------------------------


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# "integer" is a JSON integer literal and "number" a finite one: json.load
# gives 1000.0, NaN and Infinity, which the commands cannot count or compute
# with.  bool is neither.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": _is_int,
    "number": lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
}


def _equal(a, b):
    # as JSON values: True is not 1, and 1.0 is 1
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _json_path(path, key):
    # written as jsonschema's ValidationError.json_path writes it
    if re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", key):
        return path + "." + key
    return "%s['%s']" % (path, key.replace("\\", "\\\\").replace("'", "\\'"))


# the instance type a keyword applies to; the other keywords apply to any value
_APPLIES_TO = {"required": "object", "properties": "object", "additionalProperties": "object",
               "items": "array", "minItems": "array", "maxItems": "array",
               "minimum": "number", "exclusiveMinimum": "number"}
_KEYWORDS = {*_APPLIES_TO, "type", "enum", "const", "allOf", "if", "then"}


def _schema_errors(schema, value, path="$"):
    """Yield ``(json_path, message)`` for each way ``value`` breaks
    ``schema``, with jsonschema's paths and messages.  Only the keywords in
    ``_KEYWORDS`` are implemented; a schema with any other raises ValueError."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise ValueError("schema keywords not implemented: %s" % ", ".join(unknown))
    for keyword, arg in schema.items():
        if keyword in _APPLIES_TO and not _TYPES[_APPLIES_TO[keyword]](value):
            continue
        if keyword == "type":
            if not _TYPES[arg](value):
                finite = arg == "number" and isinstance(value, float)
                yield path, "%r is %s" % (value, "not a finite number" if finite
                                          else "not of type %r" % arg)
        elif keyword == "required":
            yield from ((path, "%r is a required property" % k) for k in arg if k not in value)
        elif keyword == "properties":
            for key, sub in arg.items():
                if key in value:
                    yield from _schema_errors(sub, value[key], _json_path(path, key))
        elif keyword == "additionalProperties":
            if arg is not False:
                raise ValueError("only additionalProperties: false is implemented")
            extras = sorted(k for k in value if k not in schema.get("properties", {}))
            if extras:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif keyword == "items":
            for i, item in enumerate(value):
                yield from _schema_errors(arg, item, "%s[%d]" % (path, i))
        elif keyword == "minItems" and len(value) < arg:
            yield path, "%r %s" % (value, "should be non-empty" if arg == 1 else "is too short")
        elif keyword == "maxItems" and len(value) > arg:
            yield path, "%r %s" % (value, "is expected to be empty" if arg == 0 else "is too long")
        elif keyword == "enum" and not any(_equal(value, v) for v in arg):
            yield path, "%r is not one of %r" % (value, arg)
        elif keyword == "const" and not _equal(value, arg):
            yield path, "%r was expected" % (arg,)
        elif keyword == "minimum" and value < arg:
            yield path, "%r is less than the minimum of %r" % (value, arg)
        elif keyword == "exclusiveMinimum" and value <= arg:
            yield path, "%r is less than or equal to the minimum of %r" % (value, arg)
        elif keyword == "allOf":
            for sub in arg:
                yield from _schema_errors(sub, value, path)
        elif keyword == "if" and "then" in schema and not any(_schema_errors(arg, value, path)):
            yield from _schema_errors(schema["then"], value, path)
        # "then" is applied by "if"


def _np_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError("not JSON serializable: %r" % (o,))


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True,
                      default=_np_default)


def _manifest(subcommand, resolved, seed, config_path):
    payload = {
        "subcommand": subcommand,
        "resolved": resolved,
        "seed": seed,
        "version": __version__,
    }
    h = hashlib.sha256(_canonical(payload).encode()).hexdigest()[:16]
    return {
        "hash": h,
        "config_path": config_path,
        **payload,
    }


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path, payload, manifest):
    body = dict(payload)
    body["manifest"] = manifest["hash"]
    _atomic_write(path, json.dumps(body, sort_keys=True, indent=1, default=_np_default) + "\n")


def _write_csv(path, header, rows, manifest):
    lines = ["# manifest %s" % manifest["hash"], ",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_phi_table(cfg, out, seed, manifest, args):
    kern = kernel_from_config(cfg["kernel"])
    lam_cfg = cfg.get("lambdas", {})
    lams = np.geomspace(lam_cfg.get("lo", 1e-3), lam_cfg.get("hi", 1e3), lam_cfg.get("n", 97))
    tab = BernsteinTable(kern)
    cols = (lams, tab.phi(lams), tab.phi_prime(lams), tab.H(lams), tab.b_fun(lams))
    rows = list(zip(*(c.tolist() for c in cols)))
    _write_csv(os.path.join(out, "phi_table.csv"), ["lambda", "phi", "phi_prime", "H", "b"], rows, manifest)
    _write_json(
        os.path.join(out, "phi_table.json"),
        {"achieved_brackets": tab.phiHw_brackets(), "n_rows": len(rows)},
        manifest,
    )
    return 0


def _cmd_conditions(cfg, out, seed, manifest, args):
    kern = kernel_from_config(cfg["kernel"])
    _write_json(os.path.join(out, "conditions.json"), asdict(check_conditions(kern)), manifest)
    return 0


def _sim_config(cfg, seed, args, n_paths):
    """The run's SimConfig: the config's "sim" entry over the defaults, the
    manifest seed, and --paths over both."""
    sim_cfg = {"cutoff_eps": 1e-4, "n_paths": n_paths, **cfg.get("sim", {}), "seed": seed}
    if args.paths is not None:
        sim_cfg["n_paths"] = args.paths
    return SimConfig(**sim_cfg)


def _cmd_tails(cfg, out, seed, manifest, args):
    kern = kernel_from_config(cfg["kernel"])
    sim = _sim_config(cfg, seed, args, 100_000)
    tab = BernsteinTable(kern, points_per_decade=24)
    rows = []
    for r in cfg["grid"]["r"]:
        ens = sample_S_at(kern, sim, r)
        for t in cfg["grid"]["t"]:
            up, lo = (tail_estimate(kern, ens, t, side) for side in ("upper", "lower"))
            form = upper_bound_form(tab, r, t)
            rows.append(
                (
                    float(r),
                    float(t),
                    up.p_hat,
                    up.se,
                    lo.p_hat,
                    lo.se,
                    form["tag"],
                    float(form.get("value", math.nan)),
                )
            )
    _write_csv(
        os.path.join(out, "tails.csv"),
        ["r", "t", "upper_p", "upper_se", "lower_p", "lower_se", "bound_tag", "bound_value"],
        rows,
        manifest,
    )
    return 0


def _cmd_fundsol(cfg, out, seed, manifest, args):
    kern = kernel_from_config(cfg["kernel"])
    model, geometry = model_from_config(cfg["model"])
    method = cfg.get("method", "quadrature")
    sim = _sim_config(cfg, seed, args, 50_000) if "sim" in cfg or method == "mc" else None
    rows = []
    for pnt in cfg["points"]:
        req = SolutionRequest(
            kern, model, geometry, pnt["t"], pnt["x"], pnt["y"], method=method, sim=sim
        )
        res = p_mc(req) if method == "mc" else p_quadrature(req)
        rows.append((pnt["t"], pnt["x"], pnt["y"], res.value, res.se, res.method))
    _write_csv(
        os.path.join(out, "fundsol.csv"), ["t", "x", "y", "p", "se", "method"], rows, manifest
    )
    return 0


def _cmd_estimate(cfg, out, seed, manifest, args):
    model, geometry = model_from_config(cfg["model"])
    tab = BernsteinTable(kernel_from_config(cfg["kernel"]), points_per_decade=24)
    c = cfg["case"]
    # horizon_T and margin default to the classifier's HORIZON_T and MARGIN
    case = EstimateCase(c["tag"], tab, model, geometry, c["t"], c["x"], c["y"],
                        **{k: c[k] for k in ("horizon_T", "margin") if k in c})
    res = theorem_estimate(case)
    payload = {
        "value": res["value"],
        "lower": res["lower"],
        "upper": res["upper"],
        "branch": res["branch"],
        "regime": {"tag": c["tag"], "margin": case.margin},
    }
    _write_json(os.path.join(out, "estimate.json"), payload, manifest)
    return 0


def _cmd_compare(cfg, out, seed, manifest, args):
    tag = args.case or cfg.get("case")
    if not tag:
        raise RegimeError("compare needs --case or a 'case' config entry")
    budget = args.budget if args.budget is not None else cfg.get("budget")
    rep = golden.compare(tag, budget)
    _write_json(os.path.join(out, "compare_%s.json" % tag), rep.to_dict(), manifest)
    text = [
        "case          %s" % rep.case,
        "points        %d" % rep.n_points,
        "ratio range   [%.6g, %.6g]" % (rep.ratio_min, rep.ratio_max),
        "spread        %.6g (budget %.6g)" % (rep.spread, rep.budget),
        "verdict       %s" % ("pass" if rep.passed else "FAIL"),
    ]
    _atomic_write(os.path.join(out, "compare_%s.txt" % tag), "\n".join(text) + "\n")
    if not rep.passed:
        print("budget failure: spread %.4g > %.4g" % (rep.spread, rep.budget), file=sys.stderr)
        return 1
    return 0


def _cmd_boundary(cfg, out, seed, manifest, args):
    budget = cfg.get("band_budget", golden.C11_BAND)
    rows, sweeps, ok = golden.boundary_sweep(cfg.get("t_values", golden.C11_T_VALUES),
                                             cfg.get("deltas", golden.C11_DELTAS), budget)
    _write_csv(
        os.path.join(out, "boundary.csv"), ["t", "delta", "u", "u_over_delta_ag"], rows, manifest
    )
    bands = {t: sweep["band"] for t, sweep in sweeps.items()}
    _write_json(os.path.join(out, "boundary.json"), {"bands": bands, "budget": budget, "passed": ok},
                manifest)
    return 0 if ok else 1


def _cmd_report(cfg, out, seed, manifest, args):
    payload, seconds = golden.run_all(seed=seed)
    _write_json(os.path.join(out, "report.json"), payload, manifest)
    lines = ["criterion                                      verdict", "-" * 55]
    for crit in payload["criteria"]:
        lines.append("%-46s %s" % (crit["name"], "pass" if crit["passed"] else "FAIL"))
    lines.append("-" * 55)
    lines.append("overall: %s" % ("pass" if payload["passed"] else "FAIL"))
    _atomic_write(os.path.join(out, "report.txt"), "\n".join(lines) + "\n")
    slow = golden.over_budget(payload, seconds)
    _write_json(os.path.join(out, "report_timing.json"), {"seconds": seconds, "over_budget": slow},
                manifest)
    if slow:
        print("over their runtime_s budget: %s" % ", ".join(slow), file=sys.stderr)
    return 0 if payload["passed"] and not slow else 1


_COMMANDS = {
    "phi-table": _cmd_phi_table,
    "conditions": _cmd_conditions,
    "tails": _cmd_tails,
    "fundsol": _cmd_fundsol,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
    "boundary": _cmd_boundary,
    "report": _cmd_report,
}

# the subcommands that read each flag; the others refuse it
_FLAG_READERS = {"case": ("compare",), "paths": ("fundsol", "tails"), "budget": ("compare",)}

_EXIT_CODES = {RegimeError: 3, RangeError: 3, DomainError: 4, AtomError: 4, QuadratureError: 5}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="subtail", description="subordinator tail and fundamental-solution verification"
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--case", default=None, help="compare case tag")
    parser.add_argument("--paths", type=int, default=None, help="override MC path count")
    parser.add_argument("--budget", type=float, default=None, help="override spread budget")
    args = parser.parse_args(argv)

    for flag, readers in _FLAG_READERS.items():
        if getattr(args, flag) is not None and args.subcommand not in readers:
            print("--%s is not read by %s, only by %s"
                  % (flag, args.subcommand, " and ".join(readers)), file=sys.stderr)
            return 2

    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: malformed JSON or UTF-8
            reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
            print("config %s unreadable: %s" % (args.config, reason), file=sys.stderr)
            return 2
    if args.budget is not None and not 0.0 < args.budget < math.inf:
        print("--budget must be a finite number > 0; got %r" % args.budget, file=sys.stderr)
        return 2
    errors = sorted(_schema_errors(SCHEMAS[args.subcommand], cfg), key=lambda e: e[0])
    if errors:
        for path, message in errors:
            print("config schema violation at %s: %s" % (path, message), file=sys.stderr)
        return 2
    method = cfg.get("method", "quadrature")
    if args.paths is not None and args.subcommand == "fundsol" and method != "mc":
        print("--paths is not read by fundsol with method %s, only by fundsol with method mc and tails"
              % method, file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else cfg.get("seed", golden.GOLDEN_SEED)
    os.makedirs(args.out, exist_ok=True)
    resolved = {"config": cfg, "case": args.case, "paths": args.paths, "budget": args.budget}
    manifest = _manifest(args.subcommand, resolved, seed, args.config)

    t0 = time.time()
    try:
        status = _COMMANDS[args.subcommand](cfg, args.out, seed, manifest, args)
    except SubtailError as exc:
        status = next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    manifest["wall_clock_s"] = round(time.time() - t0, 3)
    manifest["outputs"] = sorted(
        f for f in os.listdir(args.out) if not f.endswith(".tmp")
    )
    _atomic_write(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=1, default=_np_default) + "\n",
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
