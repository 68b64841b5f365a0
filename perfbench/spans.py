"""Span tracing of kaczlab from outside the package.

Each public function in ``LAYERS`` is wrapped at every name a caller looks
it up by: module-level functions in every ``kaczlab`` module (and the
package namespace) that hold the same function object, methods on their
class.  A wrapped call records one span (layer id, parent span, start and
end in integer nanoseconds) in flat arrays, so a million spans cost a few
tens of megabytes.  Self time is a span's duration minus the durations of
its direct children, so the self times of all spans, including the root
span the benchmark opens around a round, sum to the root's duration by
construction.  What can go wrong is nesting: ``layer_stats`` checks that
only the root lacks a parent and that every span lies inside its parent,
which also makes every self time nonnegative.

Per module, ``<module>.self_s`` sums the self times of its layers.

A layer whose module or attribute no longer exists is reported as absent
and measures zero calls; it does not stop the benchmark.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = "round"


def _rows(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["J"])


def _iters(args, kwargs, result):
    return result.events[-1].k


def _skips(args, kwargs, result):
    return result is None


def _residual_bytes(args, kwargs, result):
    # One A x - b: m n doubles read.  Computed from the shape, not measured.
    return args[0].A.size * 8


def _dist_bytes(args, kwargs, result):
    # A x - b, then the n x m pseudoinverse times it: 2 m n doubles read.
    return args[0].system.A.size * 16


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix, <module>.<function>
    module: str
    attr: str  # "function" or "Class.method"
    extra: str | None = None  # name of the extra per-call stat
    extra_fn: Callable | None = None


LAYERS = (
    Layer("problems.generate_problem", "kaczlab.problems", "generate_problem"),
    Layer("sampling.sample_block", "kaczlab.sampling", "sample_block"),
    Layer("stepsize.WeightScheme.realized", "kaczlab.stepsize", "WeightScheme.realized"),
    Layer("stepsize.adaptive_alpha", "kaczlab.stepsize", "adaptive_alpha", "skips", _skips),
    Layer("solver.run_monte_carlo", "kaczlab.solver", "run_monte_carlo"),
    Layer("solver.run_solver", "kaczlab.solver", "run_solver", "iters", _iters),
    Layer("solver.rbk_step", "kaczlab.solver", "rbk_step", "rows", _rows),
    Layer("solver.basic_kaczmarz_step", "kaczlab.solver", "basic_kaczmarz_step"),
    Layer("solver.block_projection_step", "kaczlab.solver", "block_projection_step"),
    Layer("linalg.LinearSystem.residual_norm", "kaczlab.linalg", "LinearSystem.residual_norm",
          "bytes_computed", _residual_bytes),
    Layer("linalg.SolutionProjector.dist_sq", "kaczlab.linalg", "SolutionProjector.dist_sq",
          "bytes_computed", _dist_bytes),
    Layer("linalg.SolutionProjector.init", "kaczlab.linalg", "SolutionProjector.__init__"),
    Layer("linalg.sym_eigenvalues", "kaczlab.linalg", "sym_eigenvalues"),
    Layer("analysis.block_lambda_max", "kaczlab.analysis", "block_lambda_max"),
    Layer("analysis.build_W", "kaczlab.analysis", "build_W"),
    Layer("analysis.build_conditioning_report", "kaczlab.analysis", "build_conditioning_report"),
    Layer("cli.experiment", "kaczlab.cli", "cmd_experiment"),
)


def _kaczlab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "kaczlab" or name.startswith("kaczlab."))]


class Tracer:
    """Records spans for one traced round at a time.  ``install`` wraps
    the layers, ``uninstall`` restores every replaced attribute."""

    def __init__(self):
        self.layer_names = [ROOT] + [layer.name for layer in LAYERS]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.extras = [0] * len(self.layer_names)
        self._stack = [-1]

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, lid: int, extra_fn):
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, extras, clock = self._stack, self.extras, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(lid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra_fn is not None:
                extras[lid] += extra_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        """Wrap every layer that exists.  The wrappers append to the arrays
        bound by the last ``reset``, so reset first."""
        self.absent = []
        modules = _kaczlab_modules()
        for lid, layer in enumerate(LAYERS, start=1):
            home = sys.modules.get(layer.module)
            owner_name, _, method = layer.attr.partition(".")
            owner = getattr(home, owner_name, None)
            if method:
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(layer.name)
                    continue
                self._patch(owner, method, self._wrap(original, lid, layer.extra_fn))
                continue
            if owner is None:
                self.absent.append(layer.name)
                continue
            wrapper = self._wrap(owner, lid, layer.extra_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, attr, wrapper)

    def _patch(self, obj, attr: str, value):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- root span ------------------------------------------------------------

    def open_root(self):
        self.ids.append(0)
        self.parents.append(-1)
        self.ends.append(0)
        self._stack.append(0)
        self.starts.append(time.perf_counter_ns())

    def close_root(self):
        self.ends[0] = time.perf_counter_ns()
        self._stack.pop()

    # -- results --------------------------------------------------------------

    def self_times_ns(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        covered = np.zeros_like(dur)
        child = parents >= 0
        np.add.at(covered, parents[child], dur[child])
        return dur - covered

    def nested(self) -> bool:
        """Whether the root is the only span without a parent and every
        other span starts after its parent started and ends before it
        ended."""
        parents = np.frombuffer(self.parents, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        if parents.size == 0 or parents[0] != -1 or ends[0] < starts[0]:
            return False
        child, parent = np.arange(1, parents.size), parents[1:]
        return bool(np.all((parent >= 0) & (parent < child))
                    and np.all(starts[parent] <= starts[child])
                    and np.all(starts[child] <= ends[child])
                    and np.all(ends[child] <= ends[parent]))

    def layer_stats(self) -> dict:
        """Calls, self seconds and extra counts per layer, self seconds per
        module, the root's wall time and whether the spans nest."""
        ids = np.frombuffer(self.ids, dtype=np.int32)
        self_ns = self.self_times_ns()
        calls = np.bincount(ids, minlength=len(self.layer_names))
        self_sum = np.zeros(len(self.layer_names), dtype=np.int64)
        np.add.at(self_sum, ids, self_ns)
        stats = {
            "trace.wall_s": (self.ends[0] - self.starts[0]) * 1e-9,
            f"trace.{ROOT}.self_s": int(self_sum[0]) * 1e-9,
            "trace.nested": self.nested(),
            "trace.spans": len(ids),
        }
        modules: dict[str, int] = {}
        for lid, layer in enumerate(LAYERS, start=1):
            stats[f"{layer.name}.calls"] = int(calls[lid])
            stats[f"{layer.name}.self_s"] = int(self_sum[lid]) * 1e-9
            if layer.extra:
                stats[f"{layer.name}.{layer.extra}"] = int(self.extras[lid])
            module = layer.name.split(".", 1)[0]
            modules[module] = modules.get(module, 0) + int(self_sum[lid])
        for module, ns in modules.items():
            stats[f"{module}.self_s"] = ns * 1e-9
        return stats

    def save(self, path):
        np.savez_compressed(
            path,
            layer_names=np.array(self.layer_names),
            layer=np.frombuffer(self.ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )
