"""Outside-in tracing of the ``subtail`` layers.

The tracer wraps public functions and methods of the program from the
benchmark's own process; no program file changes.  A function is replaced
in every ``subtail`` module namespace that bound it (``from .x import f``
copies the name), and a method is replaced on its class.

Two kinds of wrapper:

* a *span* records (name, start, end, parent) in memory, plus the time spent
  inside counted calls while it was open, so self times can be computed
  after the run;
* a *counter*, used at the hottest scalar boundaries (``q_eval``, ``calM``,
  kernel ``w``/``moment``), only counts calls and sums their time.  Spans
  there would cost more than the work they measure.

``calibrate`` measures each wrapper's own cost per call, which is reported
next to the sums it inflates.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter

# span name -> (module, attribute); classes are patched by attribute
_SPAN_FUNCS = {
    "cli.main": ("subtail.cli", "main"),
    "fundamental.p_quadrature": ("subtail.fundamental", "p_quadrature"),
    "fundamental.solve_u": ("subtail.fundamental", "solve_u"),
    "fundamental.p_mc": ("subtail.fundamental", "p_mc"),
    "bernstein.calN": ("subtail.bernstein", "calN"),
    "kernels.inverse_w_vec": ("subtail.kernels", "inverse_w_vec"),
    "kernels.check_conditions": ("subtail.kernels", "check_conditions"),
    "simulate.sample_S_at": ("subtail.simulate", "sample_S_at"),
    "simulate.sample_E_t": ("subtail.simulate", "sample_E_t"),
    "simulate.exact_stable_sampler": ("subtail.simulate", "exact_stable_sampler"),
    "tail_bounds.upper_bound_form": ("subtail.tail_bounds", "upper_bound_form"),
    "estimates.theorem_estimate": ("subtail.estimates", "theorem_estimate"),
    "estimates.I_gamma_quadrature": ("subtail.estimates", "I_gamma_quadrature"),
    "estimates.closed_I_gamma": ("subtail.estimates", "closed_I_gamma"),
    "estimates.J_gamma": ("subtail.estimates", "J_gamma"),
    "comparability.regime_grid": ("subtail.comparability", "regime_grid"),
    "comparability.two_sided_check": ("subtail.comparability", "two_sided_check"),
}
_FUNDAMENTAL = ("fundamental.p_quadrature", "fundamental.solve_u", "fundamental.p_mc")
_Q_CALLERS = ("p_quadrature", "solve_u", "p_mc")
_KERNEL_CLASSES = ("Power", "Truncated", "Subexp", "DistributedOrder", "Tabulated")
_TABLE_QUERIES = ("phi", "phi_prime", "H", "b_fun")


class Tracer:
    """Spans and counters of one traced process, collected per round."""

    def __init__(self):
        self.rounds = []
        self.stack = []
        self.fund = []  # open fundamental spans, innermost last (q attribution)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.draw_keys = set()
        self._reset()

    def _reset(self):
        # wrappers hold the containers, so they are cleared in place; the
        # span list is replaced because the finished round keeps it
        self.spans = []  # [name, start, end, parent, excl_start, excl_end, error, size]
        self.excl = 0.0  # time inside outermost counted calls so far
        self.depth = 0  # nesting depth of counted calls
        self.counts.clear()
        self.times.clear()
        self.draw_keys.clear()
        self.sampler_calls = 0
        self.E_censored = 0
        self.E_entries = 0

    # -- wrappers ------------------------------------------------------------

    def counter(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = _perf()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                dt = _perf() - t0
                counts[name] += 1
                times[name] += dt
                if not self.depth:
                    self.excl += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def q_counter(self, fn):
        """Counter for q_eval that also attributes each call to its caller."""
        counts, times, fund = self.counts, self.times, self.fund

        def wrapper(*args, **kwargs):
            t0 = _perf()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                dt = _perf() - t0
                counts["q." + (fund[-1] if fund else "other")] += 1
                times["q"] += dt
                if not self.depth:
                    self.excl += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, size=None, on_result=None):
        """Span wrapper.

        ``size(args, kwargs)`` gives the work size recorded with the span;
        ``on_result(rec, args, kwargs, res)`` may update it from the result.
        """
        fund_name = name.split(".", 1)[1] if name in _FUNDAMENTAL else None

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            rec = [name, _perf(), 0.0, stack[-1] if stack else -1, self.excl, 0.0, None,
                   size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(rec)
            if fund_name:
                self.fund.append(fund_name)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = _perf()
                rec[5] = self.excl
                stack.pop()
                if fund_name:
                    self.fund.pop()
            if on_result:
                on_result(rec, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def scalar_span(self, name, fn):
        """Span only for scalar arguments; array calls recurse into scalars."""
        traced = self.span(name, fn)

        def wrapper(table, x, *args, **kwargs):
            if np.ndim(x) > 0:
                return fn(table, x, *args, **kwargs)
            return traced(table, x, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- sampler bookkeeping ---------------------------------------------------

    def _draw(self, rec, args, kwargs, res):
        kernel, config, level = args[:3]
        self.sampler_calls += 1
        self.draw_keys.add((repr(kernel), repr(config), tuple(np.atleast_1d(level).tolist())))
        if res.censored is not None:
            self.E_censored += int(np.count_nonzero(res.censored))
            self.E_entries += int(res.censored.size)

    # -- per-round metrics ---------------------------------------------------

    def end_round(self):
        """Close the current round: compute its metrics and start a new one."""
        self.rounds.append({"metrics": self._metrics(), "spans": self.spans})
        self._reset()

    def _metrics(self):
        spans = self.spans
        n = len(spans)
        child_dur = [0.0] * n
        child_excl = [0.0] * n
        for name, t0, t1, parent, e0, e1, _err, _size in spans:
            if parent >= 0:
                child_dur[parent] += t1 - t0
                child_excl[parent] += e1 - e0
        calls = defaultdict(int)
        incl = defaultdict(float)  # outermost spans of a name only
        self_s = defaultdict(float)
        size = defaultdict(int)
        errors = defaultdict(int)
        for i, (name, t0, t1, parent, e0, e1, err, sz) in enumerate(spans):
            calls[name] += 1
            size[name] += sz
            self_s[name] += (t1 - t0) - child_dur[i] - ((e1 - e0) - child_excl[i])
            if err:
                errors[(name, err)] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += t1 - t0
        c, tm = self.counts, self.times
        q_calls = {k: c["q." + k] for k in _Q_CALLERS}
        m = {
            "heat_kernel.q_calls": sum(q_calls.values()) + c["q.other"],
            "heat_kernel.q_s": tm["q"],
            "bernstein.table_builds": calls["bernstein.table_build"],
            "bernstein.table_build_s": incl["bernstein.table_build"],
            "bernstein.scalar_queries": calls["bernstein.scalar_query"],
            "bernstein.scalar_query_s": incl["bernstein.scalar_query"],
            "bernstein.invert_calls": calls["bernstein.invert"],
            "bernstein.invert_s": incl["bernstein.invert"],
            "bernstein.calM_calls": c["calM"],
            "bernstein.calM_s": tm["calM"],
            "bernstein.calN_calls": calls["bernstein.calN"],
            "bernstein.calN_s": incl["bernstein.calN"],
            "kernels.inverse_w_draws": size["kernels.inverse_w_vec"],
            "kernels.inverse_w_s": incl["kernels.inverse_w_vec"],
            "kernels.w_calls": c["w"],
            "kernels.w_s": tm["w"],
            "kernels.moment_calls": c["moment"],
            "kernels.check_conditions_s": incl["kernels.check_conditions"],
            "simulate.sample_S_calls": calls["simulate.sample_S_at"],
            "simulate.sample_S_paths": size["simulate.sample_S_at"],
            "simulate.sample_S_s": incl["simulate.sample_S_at"],
            "simulate.sample_E_calls": calls["simulate.sample_E_t"],
            "simulate.sample_E_paths": size["simulate.sample_E_t"],
            "simulate.sample_E_s": incl["simulate.sample_E_t"],
            "simulate.E_censored_frac": self.E_censored / self.E_entries if self.E_entries else 0.0,
            "simulate.exact_stable_s": incl["simulate.exact_stable_sampler"],
            "simulate.distinct_draw_frac": (
                len(self.draw_keys) / self.sampler_calls if self.sampler_calls else 0.0
            ),
            "tail_bounds.upper_bound_form_calls": calls["tail_bounds.upper_bound_form"],
            "tail_bounds.upper_bound_form_s": incl["tail_bounds.upper_bound_form"],
            "estimates.theorem_estimate_calls": calls["estimates.theorem_estimate"],
            "estimates.theorem_estimate_s": incl["estimates.theorem_estimate"],
            "estimates.I_gamma_quadrature_s": incl["estimates.I_gamma_quadrature"],
            "estimates.closed_I_gamma_s": incl["estimates.closed_I_gamma"],
            "estimates.J_gamma_s": incl["estimates.J_gamma"],
            "comparability.regime_grid_s": incl["comparability.regime_grid"],
            "comparability.regime_grid_points": size["comparability.regime_grid"],
            "comparability.two_sided_check_s": incl["comparability.two_sided_check"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            # wrapper call totals, for the tracing overhead estimate
            "trace.spans": n,
            "trace.counted_calls": sum(c.values()),
        }
        for k in _Q_CALLERS:
            m["heat_kernel.q_calls." + k] = q_calls[k]
            m["fundamental.%s_calls" % k] = calls["fundamental." + k]
            m["fundamental.%s_self_s" % k] = self_s["fundamental." + k]
        m["fundamental.quadrature_errors"] = sum(
            v for (name, err), v in errors.items()
            if name in _FUNDAMENTAL and err == "QuadratureError"
        )
        return m


def _rebind(orig, wrapper):
    """Replace ``orig`` by ``wrapper`` in every subtail module that bound it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "subtail" or modname.startswith("subtail.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _paths(args, kwargs):
    return int(args[1].n_paths)


def _draws(args, kwargs):
    return int(np.size(args[1]))


def _grid_points(rec, args, kwargs, res):
    rec[7] = len(res)


def install():
    """Wrap every traced boundary of the program; return the tracer.

    Call after importing ``subtail.cli``, which imports every module.
    """
    from subtail import bernstein, heat_kernel, kernels

    tr = Tracer()
    sizes = {
        "simulate.sample_S_at": _paths,
        "simulate.sample_E_t": _paths,
        "kernels.inverse_w_vec": _draws,
    }
    results = {
        "simulate.sample_S_at": tr._draw,
        "simulate.sample_E_t": tr._draw,
        "comparability.regime_grid": _grid_points,
    }
    for name, (modname, attr) in _SPAN_FUNCS.items():
        orig = getattr(sys.modules[modname], attr)
        _rebind(orig, tr.span(name, orig, size=sizes.get(name), on_result=results.get(name)))
    _rebind(heat_kernel.q_eval, tr.q_counter(heat_kernel.q_eval))
    _rebind(bernstein.calM, tr.counter("calM", bernstein.calM))

    table = bernstein.BernsteinTable
    table.__init__ = tr.span("bernstein.table_build", table.__init__)
    table.invert = tr.span("bernstein.invert", table.invert)
    for meth in _TABLE_QUERIES:
        setattr(table, meth, tr.scalar_span("bernstein.scalar_query", getattr(table, meth)))
    for cls_name in _KERNEL_CLASSES:
        cls = getattr(kernels, cls_name)
        cls.w = tr.counter("w", cls.w)
        cls.moment = tr.counter("moment", cls.moment)
    return tr


def calibrate(n=100_000, repeats=5):
    """Wrapper cost per call in ns: (counter, span), net of a bare call.

    Each is the median of ``repeats`` timings of ``n`` calls, which damps
    short swings of the host's speed.
    """

    def noop():
        return None

    tr = Tracer()
    out = []
    for wrapped in (tr.counter("noop", noop), tr.span("noop", noop)):
        costs = []
        for _ in range(repeats):
            took = []
            for fn in (noop, wrapped):
                t0 = _perf()
                for _ in range(n):
                    fn()
                took.append(_perf() - t0)
            tr._reset()  # drop the recorded spans
            costs.append(max(took[1] - took[0], 0.0) / n * 1e9)
        out.append(statistics.median(costs))
    return out
