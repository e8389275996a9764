"""Span tracer installed from outside the package, around its public calls.

Every wrapped call records a span: its name, start and end (perf_counter
seconds), the index of the enclosing span and the config label that was
running. Spans stay in memory until the benchmark writes them out. A span's
self time is its duration minus the durations of its direct children; calls
nest on one thread, so the children never overlap.

Functions are replaced in every package module namespace that holds them
(``from .variational import legendre_transform`` binds a second name), and
model methods on each class that defines them, never through proxies: the
package branches on ``isinstance``. Worker processes of the sampling pool
are not traced, so their time shows as self time of the caller.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped by identity in every package namespace.
FUNCTIONS = (
    ("mittag_leffler", "log_mittag_leffler"),
    ("variational", "legendre_transform"),
    ("variational", "probe_convexity"),
    ("variational", "count_rate"),
    ("variational", "rate_ld_explicit"),
    ("montecarlo", "tilt_parameters"),
    ("montecarlo", "estimate_event_prob"),
    ("montecarlo", "simulate_compound"),
    ("montecarlo", "decay_rate_scan"),
    ("montecarlo", "moment_limits_check"),
    ("montecarlo", "clt_regime_check"),
    ("config", "normalize_config"),
    ("config", "build_models"),
    ("experiments", "run_experiment"),
)
SUMMAND_METHODS = ("cgf", "cgf_grad", "sample_sum_batch")
COUNTING_METHODS = ("limit_cgf", "limit_cgf_deriv", "finite_cgf",
                    "tilted_count_sampler", "sample_batch")
# Counting classes whose sample_batch time is reported per kind.
SAMPLER_KINDS = {
    "PoissonCounting": "poisson",
    "IidSumCounting": "iid_sum",
    "BernoulliSumCounting": "bernoulli_sum",
    "RenewalCounting": "renewal",
}

TILT = "montecarlo.tilt_parameters"
# Calls counted inside the first tilt search of each config.
PINNED_CALLS = ("variational.legendre_transform", "variational.probe_convexity",
                "summands.cgf", "summands.cgf_grad")

# Per-layer metrics: (name, unit, better). The order is the report order.
_CALLS_AND_SELF = (
    "summands.cgf", "summands.cgf_grad", "counting.limit_cgf",
    "counting.limit_cgf_deriv", "counting.finite_cgf",
    "counting.tilted_count_sampler", "mittag_leffler.log_mittag_leffler",
    "variational.legendre_transform", "variational.probe_convexity",
    "variational.count_rate", "variational.rate_ld_explicit",
    "montecarlo.tilt_parameters", "montecarlo.estimate_event_prob",
    "montecarlo.simulate_compound",
)
_SELF_ONLY = (
    "montecarlo.decay_rate_scan", "montecarlo.moment_limits_check",
    "montecarlo.clt_regime_check", "config.normalize_config",
    "config.build_models", "experiments.run_experiment",
)
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in _CALLS_AND_SELF]
    + [(f"{name}.self_s", "s", "lower")
       for name in _CALLS_AND_SELF + _SELF_ONLY]
    + [
        ("summands.sample_sum_batch.draws", "count", "lower"),
        ("summands.sample_sum_batch.self_s", "s", "lower"),
        ("counting.sample_batch.draws", "count", "lower"),
        ("counting.sample_batch.self_s", "s", "lower"),
    ]
    + [(f"counting.sample_batch.{kind}.self_s", "s", "lower")
       for kind in SAMPLER_KINDS.values()]
    + [
        ("variational.legendre_transform.iterations", "count", "lower"),
        # Turning inconclusive verdicts into correct +inf ones raises this.
        ("variational.legendre_transform.unbounded", "count", "higher"),
        ("variational.legendre_transform.inconclusive", "count", "lower"),
        ("montecarlo.tilt_parameters.solves_per_call", "count", "lower"),
        ("montecarlo.estimate_event_prob.zero_estimates", "count", "lower"),
        ("experiments.output_bytes", "B", "lower"),
        ("setup.import_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Records spans and counters for the calls it wraps while installed."""

    def __init__(self, workload):
        self.workload = workload
        self.config = None          # label of the config being run
        self.spans = []             # [name, start, end, parent, config]
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.config]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                result = on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the package's layer boundaries; ``uninstall`` undoes it."""
        from compound_deviations import counting, summands

        modules = [m for key, m in sys.modules.items()
                   if key == "compound_deviations"
                   or key.startswith("compound_deviations.")]
        hooks = {
            "legendre_transform": (self._count_solve, self._count_inconclusive),
            "estimate_event_prob": (self._count_zero_estimate, None),
        }
        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"compound_deviations.{module_name}"],
                               fn_name)
            on_result, on_error = hooks.get(fn_name, (None, None))
            wrapper = self.wrap(f"{module_name}.{fn_name}", original,
                                on_result, on_error)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

        for cls in _classes(summands, summands.SummandModel):
            for method in SUMMAND_METHODS:
                if method in vars(cls):
                    hook = (self._count_sum_draws if method == "sample_sum_batch"
                            else None)
                    self._wrap_method(cls, method, f"summands.{method}", hook)
        for cls in _classes(counting, counting.CountingModel):
            for method in COUNTING_METHODS:
                if method not in vars(cls):
                    continue
                name, hook = f"counting.{method}", None
                if method == "sample_batch":
                    kind = SAMPLER_KINDS.get(cls.__name__, cls.__name__)
                    name, hook = f"counting.sample_batch.{kind}", self._count_draws
                elif method == "tilted_count_sampler":
                    hook = self._trace_sampler
                self._wrap_method(cls, method, name, hook)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_method(self, cls, method, name, on_result):
        self._replace(cls, method, self.wrap(name, vars(cls)[method], on_result))

    # -- counter hooks ------------------------------------------------------

    def _count_solve(self, args, result):
        self.counters["variational.legendre_transform.iterations"] += result.iterations
        self.counters["variational.legendre_transform.unbounded"] += bool(
            result.unbounded)
        return result

    def _count_inconclusive(self, exc):
        from compound_deviations.errors import InconclusiveOptimizationError

        if isinstance(exc, InconclusiveOptimizationError):
            self.counters["variational.legendre_transform.inconclusive"] += 1

    def _count_zero_estimate(self, args, result):
        self.counters["montecarlo.estimate_event_prob.zero_estimates"] += (
            result.value == 0.0)
        return result

    def _count_sum_draws(self, args, result):
        self.counters["summands.sample_sum_batch.draws"] += int(
            np.asarray(args[2]).sum())
        return result

    def _count_draws(self, args, result):
        self.counters["counting.sample_batch.draws"] += len(result)
        return result

    def _trace_sampler(self, args, sampler):
        # The returned closure does the drawing; its time is folded into the
        # sampler's self time, its calls are not counted as sampler builds.
        return self.wrap("counting.tilted_count_sampler.draw", sampler)

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]

        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = calls[name]
        for name in _CALLS_AND_SELF + _SELF_ONLY:
            out[f"{name}.self_s"] = self_s[name]
        out["counting.tilted_count_sampler.self_s"] += self_s[
            "counting.tilted_count_sampler.draw"]
        out["summands.sample_sum_batch.self_s"] = self_s["summands.sample_sum_batch"]
        kinds = [n for n in self_s if n.startswith("counting.sample_batch.")]
        out["counting.sample_batch.self_s"] = sum(self_s[n] for n in kinds)
        for kind in SAMPLER_KINDS.values():
            out[f"counting.sample_batch.{kind}.self_s"] = self_s[
                f"counting.sample_batch.{kind}"]
        for key in ("summands.sample_sum_batch.draws",
                    "counting.sample_batch.draws",
                    "variational.legendre_transform.iterations",
                    "variational.legendre_transform.unbounded",
                    "variational.legendre_transform.inconclusive",
                    "montecarlo.estimate_event_prob.zero_estimates"):
            out[key] = self.counters[key]
        tilts = calls["montecarlo.tilt_parameters"]
        solves = self._calls_under(set(self._spans_named(TILT)))[
            "variational.legendre_transform"]
        out["montecarlo.tilt_parameters.solves_per_call"] = (
            solves / tilts if tilts else 0.0)
        return out

    def tilt_counts(self):
        """Per config: tilt searches made, and the calls inside the first."""
        tilts = self._spans_named(TILT)
        per_config = Counter(self.spans[i][4] for i in tilts)
        out = {}
        for index in tilts:
            config = self.spans[index][4]
            if config not in out:
                inside = self._calls_under({index})
                out[config] = {"tilt_parameters": per_config[config],
                               "first_tilt": {name: inside[name]
                                              for name in PINNED_CALLS}}
        return out

    def _spans_named(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def _calls_under(self, roots):
        """Calls per span name made inside the spans whose indices are
        ``roots``."""
        spans, calls = self.spans, Counter()
        for span in spans:
            parent = span[3]
            while parent >= 0 and parent not in roots:
                parent = spans[parent][3]
            if parent >= 0:
                calls[span[0]] += 1
        return calls

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent,
        workload, config."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tworkload\tconfig\n")
            for index, (name, start, end, parent, config) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t"
                         f"{self.workload}\t{config}\n")


def _classes(module, base):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)
            and obj.__module__ == module.__name__]
