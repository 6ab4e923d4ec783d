"""Per-layer tracing for the benchmark's traced runs.

The layers are danceroll's modules.  `Tracer.install` wraps every public
function a layer module defines and puts the wrapper in place of the
original in every danceroll module that holds it, because a module that
did `from .geom import quat_mul` calls its own name, not `geom.quat_mul`.
Each wrapper counts calls and failures and keeps the time spent; a
call's self time is its duration minus that of the wrapped calls made
inside it.  Spans are aggregated in memory per function name.
"""

import functools
import inspect
import sys
import time

LAYERS = ("geom", "rolling", "eulerroll", "dancing", "bridge", "octonion",
          "g2", "docio", "svg", "cli")

# Called once per RK4 stage; wrapping it would time the wrapper, not the
# integrator.  Its time counts as integrate_arc's self time.
NOT_WRAPPED = {"eulerroll.solve_euler_rates"}


class Stat:
    __slots__ = ("calls", "failed", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if stack:
                    stack[-1] += dt

        return traced

    def install(self):
        """Wrap the public functions of every layer in every danceroll module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "danceroll" or name.startswith("danceroll."))]
        for layer in LAYERS:
            mod = sys.modules.get("danceroll." + layer)
            if mod is None:
                continue
            for attr, fn in vars(mod).copy().items():
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in NOT_WRAPPED):
                    continue
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for key, value in vars(m).copy().items():
                        if value is fn:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def stat(self, name):
        return self.stats.get(name, Stat())
