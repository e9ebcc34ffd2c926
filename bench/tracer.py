"""Outside-in tracer: wraps the public functions of each evpricing layer.

Nothing inside the library is changed.  :func:`install` replaces each
traced function with a wrapper in every ``evpricing`` module that binds it
(``from .kernel import integrate`` makes ``distributions.integrate`` and
``competition.integrate`` separate names, so both are patched), and patches
``sf`` and ``quantile`` on ``DistributionModel`` itself.

For each traced function the wrapper keeps its call count, self time (its
duration minus the time of traced calls made inside it, on the same thread)
and a few work counters.  Spans (name, start, end, parent, operation id) are
kept in memory for the functions that are not hot leaves and are written
out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

#: (module, attribute, keep spans).  Hot leaves called millions of times
#: keep only their aggregate counters.
TRACED = (
    ("kernel", "integrate", True),
    ("kernel", "maximize_1d", True),
    ("kernel", "find_root", True),
    ("distributions", "DistributionModel.sf", False),
    ("distributions", "DistributionModel.quantile", False),
    ("distributions", "order_statistic_tail", False),
    ("distributions", "order_statistic_mean", True),
    ("distributions", "conditional_mean_above", True),
    ("policy", "best_fixed_price", True),
    ("policy", "fixed_price_value_exact", True),
    ("policy", "prophet_value", True),
    ("policy", "monte_carlo_evaluate", True),
    ("competition", "empirical_competition_complexity", True),
    ("competition", "extend_policy", True),
    ("competition", "expected_max", True),
    ("guarantees", "phi_k", True),
    ("guarantees", "minimize_phi_1", True),
    ("guarantees", "adaptivity_gap", True),
    ("evtfit", "ingest_bids", True),
    ("evtfit", "fit_pipeline", True),
    ("cli", "main", True),
)

#: order_statistic_tail calls with n at or below this count as small-n.
SMALL_N = 1000

#: Spans kept in memory before further ones are only counted.
MAX_SPANS = 400_000


def _short(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0

    # -- bookkeeping -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, keep_span: bool, before=None, after=None):
        """Wrap fn; before(args, kwargs) returns (args, kwargs, state) for the
        call, and after(state, exc_or_None) returns counters to add."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            stack = tracer._stack()
            span_id = parent = -1
            if keep_span:
                with tracer._lock:
                    span_id = tracer._next_span
                    tracer._next_span += 1
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
            frame = [time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                extra = after(state, exc) if after is not None else {}
                with tracer._lock:
                    st = tracer.stats.setdefault(name, {})
                    st["calls"] = st.get("calls", 0) + 1
                    st["self_s"] = st.get("self_s", 0.0) + dur - frame[1]
                    st["incl_s"] = st.get("incl_s", 0.0) + dur
                    for key, value in extra.items():
                        st[key] = st.get(key, 0) + value
                    if keep_span:
                        if len(tracer.spans) < MAX_SPANS:
                            tracer.spans.append((name, frame[0], end, span_id,
                                                 parent, tracer.op_id))
                        else:
                            tracer.dropped_spans += 1

        return wrapper

    # -- per-function counters ---------------------------------------------

    def _hooks(self, name: str):
        """(before, after) hooks that add the work counters of one function."""
        from evpricing.errors import ConvergenceError

        def counting(index_or_key):
            # Replace the callable argument with one that counts its calls.
            def before(args, kwargs):
                box = [0]
                if index_or_key in kwargs:
                    f = kwargs[index_or_key]
                    kwargs = dict(kwargs)
                    kwargs[index_or_key] = _counted(f, box)
                else:
                    f = args[0]
                    args = (_counted(f, box),) + tuple(args[1:])
                return args, kwargs, box
            return before

        if name == "kernel.integrate":
            def after(box, exc):
                return {"evals": box[0],
                        "convergence_errors": int(isinstance(exc, ConvergenceError))}
            return counting("f"), after
        if name == "kernel.maximize_1d":
            return counting("f"), lambda box, e: {"evals": box[0]}
        if name == "distributions.sf":
            def before(args, kwargs):
                t = args[1] if len(args) > 1 else kwargs["t"]
                return args, kwargs, np.ndim(t) == 0
            return before, lambda scalar, e: {"scalar": int(scalar)}
        if name == "distributions.quantile":
            def before(args, kwargs):
                q = args[1] if len(args) > 1 else kwargs["q"]
                return args, kwargs, int(np.size(q))
            return before, lambda size, e: {"elements": size}
        if name == "distributions.order_statistic_tail":
            def before(args, kwargs):
                n = args[1] if len(args) > 1 else kwargs["n"]
                return args, kwargs, int(n <= SMALL_N)
            return before, lambda small, e: {"small_n": small}
        if name == "competition.extend_policy":
            def before(args, kwargs):
                seq = args[0] if args else kwargs["seq"]
                return args, kwargs, (seq, len(seq.values))
            return before, lambda st, e: {"steps": len(st[0].values) - st[1]}
        if name == "policy.monte_carlo_evaluate":
            def before(args, kwargs):
                n = args[1] if len(args) > 1 else kwargs["n"]
                cfg = args[4] if len(args) > 4 else kwargs["cfg"]
                return args, kwargs, n * cfg.replications
            return before, lambda draws, e: {"draws": draws}
        return None, None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function in every evpricing module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "evpricing" or key.startswith("evpricing."))]
        for module_name, attr, keep_span in TRACED:
            module = sys.modules.get(f"evpricing.{module_name}")
            if module is None:
                continue
            name = _short(module_name, attr)
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, keep_span, before, after))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, keep_span, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def export(self) -> dict:
        return {"stats": self.stats, "spans": self.spans,
                "dropped_spans": self.dropped_spans}


def _counted(f, box):
    def counted(*a, **kw):
        box[0] += 1
        return f(*a, **kw)
    return counted


def unit_of(metric: str) -> str:
    key = metric.rsplit(".", 1)[-1]
    if key == "draws_per_s":
        return "1/s"
    if key.endswith("_share"):
        return "share"
    return "s" if key.endswith("_s") else "count"


def merge_stats(parts) -> dict[str, dict[str, float]]:
    """Sum the raw counters of several traced processes."""
    merged: dict[str, dict[str, float]] = {}
    for stats in parts:
        for name, st in stats.items():
            dst = merged.setdefault(name, {})
            for key, value in st.items():
                dst[key] = dst.get(key, 0) + value
    return merged


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics from merged raw counters; absent layers read 0."""
    def get(name, key):
        return float(stats.get(name, {}).get(key, 0))

    def share(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, keys in LAYER_FIELDS.items():
        for key in keys:
            if key == "converged_share":
                value = share(get(name, "calls") - get(name, "convergence_errors"),
                              get(name, "calls"))
            elif key == "scalar_share":
                value = share(get(name, "scalar"), get(name, "calls"))
            elif key == "small_n_share":
                value = share(get(name, "small_n"), get(name, "calls"))
            elif key == "draws_per_s":
                value = share(get(name, "draws"), get(name, "incl_s"))
            elif key in ("integrand_evals", "objective_evals"):
                value = get(name, "evals")
            else:
                value = get(name, key)
            out[f"{name}.{key}"] = value
    return out


#: Per-layer metric fields, by traced function.
LAYER_FIELDS = {
    "kernel.integrate": ("calls", "self_s", "integrand_evals", "converged_share",
                         "convergence_errors"),
    "kernel.maximize_1d": ("calls", "self_s", "objective_evals"),
    "kernel.find_root": ("calls", "self_s"),
    "distributions.sf": ("calls", "scalar_share", "self_s"),
    "distributions.quantile": ("elements", "self_s"),
    "distributions.order_statistic_tail": ("calls", "self_s", "small_n_share"),
    "distributions.order_statistic_mean": ("calls", "self_s"),
    "distributions.conditional_mean_above": ("calls", "self_s"),
    "policy.best_fixed_price": ("self_s",),
    "policy.fixed_price_value_exact": ("calls", "self_s"),
    "policy.prophet_value": ("self_s",),
    "policy.monte_carlo_evaluate": ("self_s", "draws_per_s"),
    "competition.extend_policy": ("steps", "self_s"),
    "competition.expected_max": ("calls", "self_s"),
    "guarantees.phi_k": ("self_s",),
    "guarantees.minimize_phi_1": ("self_s",),
    "guarantees.adaptivity_gap": ("self_s",),
    "evtfit.ingest_bids": ("self_s",),
    "evtfit.fit_pipeline": ("self_s",),
    "cli.main": ("self_s",),
}
