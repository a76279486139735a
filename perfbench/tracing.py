"""Span tracing of hypcrofton's public functions, from outside the package.

`Tracer.install()` wraps every public function of the traced modules and
rebinds each module attribute that refers to one of them, including names
imported into other modules (`crofton` imports `qmul` by name, `kernels`
imports `hyperbolic_distance`).  Spans are aggregated in memory as call
counts and self time; `uninstall()` restores the original functions.

Self time is a span's duration minus the durations of the spans it caused
on the same thread.  Each thread keeps its own span stack, so work done in
the estimators' thread pool is charged to the functions those threads call,
and the estimator span that waits for the pool keeps the waiting time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("algebra", "spaces", "kernels", "configurations", "crofton", "cli")

#: estimator entry points whose spans are summed into one `crofton.estimate`
ESTIMATORS = frozenset({
    "estimate_m", "estimate_symmetric_difference", "estimate_horosphere_crofton",
    "projective_crofton_estimate", "sphere_halfspace_crofton",
})


def _distance_pairs(D):
    m = D.shape[0]
    return m * (m - 1) // 2


#: counts recorded from a span's return value: span -> (counter, function)
RESULT_COUNTERS = {
    "kernels.build_distance_matrix": ("pairs", _distance_pairs),
    "kernels.negative_type_witness": ("hits", lambda w: int(w is not None)),
}


def span_name(module, func):
    if module == "crofton" and func in ESTIMATORS:
        return "crofton.estimate"
    return f"{module}.{func}"


class Tracer:
    """Aggregates spans of the wrapped functions: calls, self time, counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time spent in child spans of this call
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += duration - children
            if counter is not None:
                key, count = counter
                with self._lock:
                    self.counters[f"{name}.{key}"] += count(result)
            return result

        return traced

    def install(self, package="hypcrofton"):
        """Wrap the public functions of the traced modules of `package`."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(span_name(short, name), obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:  # the originals are alive, ids are unique
                    setattr(module, attr, wrappers[id(obj)])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
