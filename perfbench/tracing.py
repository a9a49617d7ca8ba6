"""Span tracer that wraps asepkpz's public functions from outside the package.

Each wrapped call records one span in memory: id, name, parent id, start,
end, thread CPU time and thread id.  A function is replaced in every loaded
asepkpz module that binds it, so `from .engine import simulate` copies are
traced too.  Pool workers started by `engine.run_replicas` get the
run_replicas span as their parent.  A wrapped name that no longer exists is
listed as absent and its metrics read 0; nothing raises.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
import time

# module -> public functions wrapped (inclusive, self and call counts)
LAYERS = {
    "params": ("build_params", "phase_point", "expansion_audit"),
    "engine": ("simulate", "run_replicas", "exact_generator", "stationary_measure"),
    "gartner": ("z_field", "rescale"),
    "kernels": ("solve_interval_spectrum", "interval_kernel_spectral",
                "interval_kernel_image", "kernel_bound_audit"),
    "greens": ("key_identity", "f_matrix_quadrature", "c_star_estimate",
               "green_matrix", "summation_by_parts_audit"),
    "quadrature": ("adaptive_quad",),
    "she": ("run_interval_ensemble", "asep_she_compare", "martingale_diagnostics",
            "second_moment", "mean_field", "sample_she_ensemble", "sample_she"),
    "cli": ("write_csv", "sha256_file"),
}
# spans that run in (or wait on) pool worker threads also report wall - CPU
WAIT_REPORTED = ("engine.simulate", "engine.run_replicas")

DERIVED = (
    ("cli.run.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.pool_efficiency", "ratio", "higher"),
    ("greens.expm.calls", "count", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("she.fault_frac", "frac", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for mod, names in LAYERS.items():
        for fn in names:
            key = f"{mod}.{fn}"
            specs += [(f"{key}.calls", "count", "lower"), (f"{key}.s", "s", "lower"),
                      (f"{key}.self_s", "s", "lower")]
            if key in WAIT_REPORTED:
                specs.append((f"{key}.wait_s", "s", "lower"))
    return specs + list(DERIVED)


def _asepkpz_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "asepkpz" or name.startswith("asepkpz."))]


class Tracer:
    """Installs span wrappers, keeps spans and counters, and restores on exit."""

    def __init__(self, threads: int):
        self.threads = threads
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            if on_call is not None:
                args, kwargs = on_call(sid, args, kwargs)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                tracer.spans.append((sid, name, parent, t0, t1, c1 - c0,
                                     threading.get_ident()))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- hooks for derived counts ------------------------------------------
    # They read arguments and results leniently: a changed signature or result
    # type makes a derived count read 0, never fails the traced pass.

    def _adopt_workers(self, sid, args, kwargs):
        """Make the run_replicas span the parent of spans in its task calls."""
        task = args[0] if args else kwargs.get("task")
        if not callable(task):
            return args, kwargs
        local = self._local

        def adopted(*a, **kw):
            saved = getattr(local, "stack", None)
            local.stack = [sid]
            try:
                return task(*a, **kw)
            finally:
                local.stack = saved

        if args:
            return (adopted,) + tuple(args[1:]), kwargs
        return args, {**kwargs, "task": adopted}

    def _count_integrand(self, sid, args, kwargs):
        f = args[0] if args else kwargs.get("f")
        if not callable(f):
            return args, kwargs

        def counted(*a, **kw):
            self.count("quadrature.integrand_evals")
            return f(*a, **kw)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, {**kwargs, "f": counted}

    def _count_events(self, args, kwargs, traj):
        self.count("engine.events", int(getattr(traj, "event_count", 0)))

    def _count_faults(self, args, kwargs, path):
        self.count("she.paths")
        self.count("she.faults", int(bool(getattr(path, "positivity_fault", False))))

    def _count_csv_bytes(self, args, kwargs, _):
        path = args[0] if args else kwargs.get("path")
        if isinstance(path, str) and os.path.isfile(path):
            self.count("cli.csv_bytes", os.path.getsize(path))

    # -- installing ----------------------------------------------------------

    def install(self, cli_kind: str | None = None) -> None:
        hooks = {
            "engine.run_replicas": {"on_call": self._adopt_workers},
            "engine.simulate": {"on_result": self._count_events},
            "quadrature.adaptive_quad": {"on_call": self._count_integrand},
            "she.sample_she": {"on_result": self._count_faults},
            "cli.write_csv": {"on_result": self._count_csv_bytes},
        }
        modules = _asepkpz_modules()
        for mod, names in LAYERS.items():
            module = sys.modules.get(f"asepkpz.{mod}")
            for fn in names:
                key = f"{mod}.{fn}"
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, original, **hooks.get(key, {}))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))
        greens = sys.modules.get("asepkpz.greens")
        if callable(getattr(greens, "expm", None)):
            self._restore.append((greens, "expm", greens.expm))
            greens.expm = self._wrap("greens.expm", greens.expm)
        else:
            self.absent.append("greens.expm")
        if cli_kind is not None:
            kinds = getattr(sys.modules.get("asepkpz.cli"), "KINDS", {})
            if cli_kind in kinds:
                original = kinds[cli_kind]
                kinds[cli_kind] = self._wrap("cli.run", original)
                self._restore.append((kinds, cli_kind, original))
            else:
                self.absent.append("cli.run")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self) -> None:
        self.spans = []
        self.counters = collections.Counter()

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        children = collections.defaultdict(list)
        for sid, _, parent, t0, t1, _, _ in self.spans:
            children[parent].append((t0, t1))
        agg = collections.defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        for sid, name, _, t0, t1, cpu, _ in self.spans:
            wall = t1 - t0
            a = agg[name]
            a[0] += 1
            a[1] += wall
            a[2] += wall - _covered(children.get(sid, ()), t0, t1)
            a[3] += max(wall - cpu, 0.0)
            a[4] += cpu
        fields = {"calls": 0, "s": 1, "self_s": 2, "wait_s": 3}
        derived = {name for name, _, _ in DERIVED}
        out: dict[str, float] = {}
        for name, _, _ in metric_specs():
            if name not in derived:
                key, _, field = name.rpartition(".")
                out[name] = agg[key][fields[field]] if key in agg else 0
        sim_cpu = agg["engine.simulate"][4] if "engine.simulate" in agg else 0.0
        pool_wall = agg["engine.run_replicas"][1] if "engine.run_replicas" in agg else 0.0
        events = self.counters["engine.events"]
        paths = self.counters["she.paths"]
        out["cli.run.self_s"] = agg["cli.run"][2] if "cli.run" in agg else 0.0
        out["engine.events"] = events
        out["engine.events_per_s"] = events / sim_cpu if sim_cpu > 0 else 0.0
        out["engine.pool_efficiency"] = (sim_cpu / (self.threads * pool_wall)
                                         if pool_wall > 0 else 0.0)
        out["greens.expm.calls"] = agg["greens.expm"][0] if "greens.expm" in agg else 0
        out["quadrature.integrand_evals"] = self.counters["quadrature.integrand_evals"]
        out["she.fault_frac"] = self.counters["she.faults"] / paths if paths else 0.0
        out["cli.csv_bytes"] = self.counters["cli.csv_bytes"]
        return out

    def dump(self, path: str, tag: str) -> None:
        """Append the recorded spans as JSON lines, start times relative to the first."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "a") as fh:
            for sid, name, parent, t0, t1, cpu, tid in self.spans:
                fh.write(json.dumps({"pass": tag, "id": sid, "name": name, "parent": parent,
                                     "start": t0 - base, "end": t1 - base,
                                     "cpu": cpu, "thread": tid}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
