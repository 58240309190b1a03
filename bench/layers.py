"""Per-layer spans and work counts, recorded from outside the package.

``install`` replaces each traced public function with a timing wrapper at
every name a caller looks up: the defining module's attribute and each
``from ... import`` binding in the other ``betacrit`` modules.  ``cli`` calls
``jsonschema.validate`` through its module attribute ``jsonschema``, so that
one name is served by a proxy module.  Spans stay in memory; the caller
writes them out when the run ends.  A target that no longer exists is
listed in ``Tracer.missing`` and reports zero calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

# metric name -> (module, attribute names whose calls it sums)
TARGETS = {
    "cli.load_config": ("cli", ("load_config",)),
    "cli.write": ("cli", ("write_json", "write_csv")),
    "green_kernels.halfline_kernel": ("green_kernels", ("halfline_kernel",)),
    "green_kernels.halfline_limit_kernel": ("green_kernels", ("halfline_limit_kernel",)),
    "green_kernels.radial_kernel": ("green_kernels", ("radial_kernel",)),
    "birman_schwinger.assemble": ("birman_schwinger", ("assemble",)),
    "birman_schwinger.assemble_points": ("birman_schwinger", ("assemble_points",)),
    "birman_schwinger.principal_eigenvalue":
        ("birman_schwinger", ("principal_eigenvalue", "principal_eigenvalue_residual")),
    "birman_schwinger.classify_limit": ("birman_schwinger", ("classify_limit",)),
    "birman_schwinger.mu_curve": ("birman_schwinger", ("mu_curve",)),
    "direct_spectrum.build_operator": ("direct_spectrum", ("build_operator",)),
    "direct_spectrum.sector_count": ("direct_spectrum", ("sector_count",)),
    "direct_spectrum.beta_critical_direct": ("direct_spectrum", ("beta_critical_direct",)),
    "direct_spectrum.phase_mismatch": ("direct_spectrum", ("phase_mismatch",)),
    "direct_spectrum.ground_state": ("direct_spectrum", ("ground_state",)),
    "direct_spectrum.eigenvalue_residual": ("direct_spectrum", ("eigenvalue_residual",)),
    "fkw.solve_v": ("fkw", ("solve_v",)),
    "fkw.gamma1": ("fkw", ("gamma1",)),
    "fkw.fkw_norm_limit": ("fkw", ("fkw_norm_limit",)),
    "experiments.halfspace_kernel_matrix": ("experiments", ("halfspace_kernel_matrix",)),
    "experiments.minorant_eigenvalue": ("experiments", ("minorant_eigenvalue",)),
}
VALIDATE = "cli.validate"
SPAN_NAMES = tuple(TARGETS) + (VALIDATE,)
LAYERS = ("cli", "green_kernels", "birman_schwinger", "direct_spectrum", "fkw",
          "experiments")
COUNTERS = {  # name -> unit
    "green_kernels.entries": "count",
    "birman_schwinger.eig_n": "count",
    "direct_spectrum.sturm_nodes": "count",
    "experiments.pairs": "count",
    "cli.write.bytes": "bytes",
    "cli.write.replaced": "count",
}
ROOT = "run"  # the span around each cli.run call


class Tracer:
    """In-memory spans: (name, start, end, parent index or -1)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, parent index, own index]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, self.clock(), parent, len(self.spans)])
        self.spans.append((name, 0.0, 0.0, parent))  # filled in by leave()

    def leave(self) -> str | None:
        """Close the innermost span; returns the name of the enclosing one."""
        name, start, parent, index = self._stack.pop()
        self.spans[index] = (name, start, self.clock(), parent)
        return self._stack[-1][0] if self._stack else None

    def flag_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def summary(self, since: int = 0) -> dict:
        """calls, inclusive and self seconds per span name, spans[since:]."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES + (ROOT,)}
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= since:
                child[parent - since] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def _matrix_order(matrix) -> int:
    entries = getattr(matrix, "entries", matrix)
    return int(np.shape(entries)[0]) if np.ndim(entries) else 1


def _kernel_entries(args, result, parent):
    return "green_kernels.entries", np.size(result)


def _eig_order(args, result, parent):
    return "birman_schwinger.eig_n", _matrix_order(args[0])


def _sturm_nodes(args, result, parent):
    if parent == "direct_spectrum.sector_count":
        return "direct_spectrum.sturm_nodes", np.size(result.diag)
    return None


def _point_pairs(args, result, parent):
    if parent is not None and parent.startswith("experiments."):
        return "experiments.pairs", np.shape(args[0])[0] ** 2
    return None


# metric -> f(args, result, enclosing span name) -> (counter, amount) or None
WORK = {
    "green_kernels.halfline_kernel": _kernel_entries,
    "green_kernels.halfline_limit_kernel": _kernel_entries,
    "green_kernels.radial_kernel": _kernel_entries,
    "birman_schwinger.principal_eigenvalue": _eig_order,
    "direct_spectrum.build_operator": _sturm_nodes,
    "birman_schwinger.assemble_points": _point_pairs,
}


def _wrap(tracer: Tracer, metric: str, fn):
    work = WORK.get(metric)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            parent = tracer.leave()
        counted = work(args, result, parent) if work is not None else None
        if counted is not None:
            tracer.counts[counted[0]] += counted[1]
        return result
    return traced


def _wrap_write(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        replaced = os.path.exists(path)
        tracer.enter("cli.write")
        try:
            result = fn(path, *args, **kwargs)
        finally:
            tracer.leave()
        tracer.counts["cli.write.bytes"] += os.path.getsize(path)
        tracer.counts["cli.write.replaced"] += replaced
        return result
    return traced


class _JsonschemaProxy(types.ModuleType):
    """Stands in for ``jsonschema`` inside ``cli`` with a traced validate."""

    def __init__(self, real, validate):
        super().__init__(real.__name__)
        self._real = real
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer, package: str = "betacrit"):
    """Wrap every target; returns a function that puts the originals back."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    replaced: list[tuple[object, str, object]] = []
    for metric, (mod_name, attrs) in TARGETS.items():
        home = sys.modules.get(f"{package}.{mod_name}")
        for attr in attrs:
            original = getattr(home, attr, None)
            if not callable(original):
                tracer.flag_missing(f"{mod_name}.{attr}")
                continue
            if metric == "cli.write":
                wrapper = _wrap_write(tracer, original)
            else:
                wrapper = _wrap(tracer, metric, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        replaced.append((module, name, original))
    cli = sys.modules.get(f"{package}.cli")
    real = getattr(cli, "jsonschema", None)
    if real is None or not callable(getattr(real, "validate", None)):
        tracer.flag_missing("cli.jsonschema.validate")
    else:
        cli.jsonschema = _JsonschemaProxy(real, _wrap(tracer, VALIDATE, real.validate))
        replaced.append((cli, "jsonschema", real))

    def restore():
        for module, name, original in reversed(replaced):
            setattr(module, name, original)
    return restore
