"""Instrumentation applied from outside the gradtopo package.

`Patcher` rebinds a public callable of gradtopo (or scipy's `splu`) to a
wrapper everywhere the gradtopo modules refer to it, and restores every
binding afterwards.  `Tracer` builds the wrappers: spans (name, start, end,
parent, job) kept in memory, plus call counters, and turns the spans into
self times.  No program file is edited; a callable that a later version of
the package no longer has is reported as missing and its metric reads 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter

# (module, attribute path, span name).  Spans cover the layer boundaries of
# one job: the CLI, mesh, FEM kernels, stress aggregation, the optimizer's
# staggered sub-steps and the exporters.
SPANS = (
    ("gradtopo.cli", "main", "cli.main"),
    ("gradtopo.mesh", "build_rect_mesh", "mesh.build"),
    ("gradtopo.fem", "DirichletSystem.reduce", "fem.reduce"),
    ("gradtopo.fem", "compute_element_stress", "fem.stress"),
    ("gradtopo.fem", "solve_saddle", "fem.saddle"),
    ("gradtopo.stress", "pnorm_aggregate", "stress.aggregate"),
    ("gradtopo.stress", "adjoint_stress_load", "stress.adjoint_load"),
    ("gradtopo.optimizer", "Optimizer.__init__", "optimizer.setup"),
    ("gradtopo.optimizer", "Optimizer.run", "optimizer.run"),
    ("gradtopo.optimizer", "Optimizer.state_solve", "optimizer.state_solve"),
    ("gradtopo.optimizer", "Optimizer.adjoint_solve", "optimizer.adjoint"),
    ("gradtopo.optimizer", "Optimizer.phase_field_step", "optimizer.phase_step"),
    ("gradtopo.optimizer", "Optimizer.compliance_of", "optimizer.diagnostics"),
    ("gradtopo.optimizer", "Optimizer.m_chi_of", "optimizer.diagnostics"),
    ("gradtopo.optimizer", "Optimizer.objective_of", "optimizer.diagnostics"),
    ("gradtopo.optimizer", "Optimizer.l2_norm", "optimizer.diagnostics"),
    ("gradtopo.export", "write_fields", "export.vtk"),
    ("gradtopo.export", "write_history_csv", "export.history_csv"),
    ("gradtopo.export", "threshold_contour", "export.contour"),
    ("gradtopo.export", "extrude_to_stl", "export.extrude"),
)

# (module, attribute path, counter name): hot helpers that are counted but
# get no span, so their time stays in the caller's self time.
COUNTED = (
    ("gradtopo.fem", "element_averages", "fem.element_averages_calls"),
    ("gradtopo.material", "MaterialModel.K_of", "material.K_of_calls"),
)

# A factorization below one of these spans is of the elastic system; any
# other (set-up, or a tau change in the phase step) is a phase-field one.
ELASTIC_PARENTS = ("optimizer.state_solve", "optimizer.adjoint")

# Self time of these spans inside the optimization loop, per iteration.  The
# self time of state_solve is what remains of the elastic solve once
# reduction, factorization, triangular solves and stresses are taken out:
# the element-matrix assembly and the COO->CSR conversion.
LOOP_METRICS = {
    "fem.factor": "fem.factor_ms",
    "fem.trisolve": "fem.trisolve_ms",
    "optimizer.state_solve": "fem.assemble_ms",
    "fem.reduce": "fem.reduce_ms",
    "fem.stress": "fem.stress_ms",
    "fem.saddle": "fem.saddle_ms",
    "stress.aggregate": "stress.aggregate_ms",
    "stress.adjoint_load": "stress.adjoint_load_ms",
    "optimizer.adjoint": "optimizer.adjoint_ms",
    "optimizer.phase_step": "optimizer.phase_step_ms",
    "optimizer.diagnostics": "optimizer.diagnostics_ms",
}

# Self time of these spans outside the loop, per job.
JOB_METRICS = {
    "mesh.build": "mesh.build_ms",
    "fem.phase_factor": "fem.phase_factor_ms",
    "optimizer.setup": "optimizer.setup_ms",
    "export.vtk": "export.vtk_ms",
    "export.history_csv": "export.history_csv_ms",
    "export.contour": "export.contour_ms",
    "export.extrude": "export.extrude_ms",
    "cli.main": "cli.self_ms",
}

# Span counts per job.
CALL_COUNTS = {
    "fem.factor_calls": ("fem.factor", "fem.phase_factor"),
    "fem.trisolve_calls": ("fem.trisolve",),
    "optimizer.state_solves": ("optimizer.state_solve",),
}

# Counters that must repeat exactly across jobs and runs of one seed.
EXACT_COUNTS = ("fem.factor_calls", "fem.trisolve_calls", "fem.lu_nnz",
                "fem.element_averages_calls", "material.K_of_calls",
                "optimizer.state_solves", "export.contour_vertices",
                "export.stl_triangles")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for 'func' or 'Class.method', or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Patcher:
    """Rebinds callables and remembers how to undo it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module_name: str, path: str, make) -> None:
        """Replace the callable at module.path by make(original)."""
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr = found
        original = vars(owner)[attr]
        wrapper = make(original)
        targets = [owner]
        if isinstance(owner, types.ModuleType):
            # `from module import name` copies the binding: rebind those too
            targets += [m for name, m in list(sys.modules.items())
                        if m is not owner and m is not None
                        and (name == "gradtopo" or name.startswith("gradtopo."))]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapper)
                    self._undo.append((target, name, original))

    def restore(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)


class _TracedLU:
    """SuperLU stand-in whose solve is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counters for the jobs of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, job]
        self.counts: Counter = Counter()     # (job, counter name) -> count
        self.lu_nnz: dict[int, list[int]] = {}
        self.job = 0
        self._stack: list[int] = []
        self._patcher: Patcher | None = None

    # --- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return result if after is None else after(span, result)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.job, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_factor(self, span, lu):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in ELASTIC_PARENTS:
                span[0] = "fem.factor"
                self.lu_nnz.setdefault(self.job, []).append(int(lu.nnz))
                break
            parent = self.spans[parent][3]
        return _TracedLU(lu, self.timed("fem.trisolve", lu.solve))

    def _after_contour(self, span, contour):
        self.counts[self.job, "export.contour_vertices"] += \
            sum(len(p) for p in contour.loops_above)
        return contour

    def _after_extrude(self, span, triangles):
        self.counts[self.job, "export.stl_triangles"] += int(triangles)
        return triangles

    # --- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every layer boundary; returns the names that were missing."""
        patcher = Patcher()
        after = {"export.contour": self._after_contour,
                 "export.extrude": self._after_extrude}
        patcher.wrap("scipy.sparse.linalg", "splu",
                     lambda fn: self.timed("fem.phase_factor", fn, self._after_factor))
        for module, path, name in SPANS:
            patcher.wrap(module, path,
                         lambda fn, name=name: self.timed(name, fn, after.get(name)))
        for module, path, name in COUNTED:
            patcher.wrap(module, path, lambda fn, name=name: self.counted(name, fn))
        self._patcher = patcher
        return patcher.missing

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    # --- analysis -----------------------------------------------------------

    def self_times(self, job: int) -> list[tuple[int, str, float, float]]:
        """(index, name, duration, self time) of every span of one job."""
        spans = self.spans
        child_time = Counter()
        for span in spans:
            if span[4] == job and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        return [(i, s[0], s[2] - s[1], s[2] - s[1] - child_time[i])
                for i, s in enumerate(spans) if s[4] == job]

    def job_metrics(self, job: int, marks: list[float]) -> tuple[dict, float]:
        """Layer metrics of one job, and its traced loop wall time in s.

        `marks` holds the clock at the end of each optimizer iteration (the
        moment the iteration callback is entered).  Iteration k runs from
        mark k-1 to mark k, the first from the start of Optimizer.run, so the
        per-iteration self times plus optimizer.loop_self_ms add up to the
        mean iteration wall time.
        """
        rows = self.self_times(job)
        spans = self.spans
        metrics = dict.fromkeys([*LOOP_METRICS.values(), *JOB_METRICS.values()], 0.0)
        runs = [i for i, name, _, _ in rows if name == "optimizer.run"]
        loop_wall = final = 0.0
        top: dict[int, int] = {}
        if runs and marks:
            run = runs[0]
            loop_end = marks[-1]
            loop_wall = loop_end - spans[run][1]
            final = spans[run][2] - loop_end
            for i, *_ in rows:
                parent = spans[i][3]
                if parent == run:
                    top[i] = i
                elif parent in top:
                    top[i] = top[parent]
            top = {i: t for i, t in top.items() if spans[t][1] < loop_end}
        n = len(marks)
        accounted = 0.0
        for i, name, _, self_time in rows:
            if i in top:
                if name in LOOP_METRICS:
                    metrics[LOOP_METRICS[name]] += 1000.0 * self_time / n
                    accounted += self_time
            elif name in JOB_METRICS:
                metrics[JOB_METRICS[name]] += 1000.0 * self_time
        metrics["optimizer.loop_self_ms"] = 1000.0 * (loop_wall - accounted) / n if n else 0.0
        metrics["optimizer.final_ms"] = 1000.0 * final
        names = Counter(name for _, name, _, _ in rows)
        for metric, span_names in CALL_COUNTS.items():
            metrics[metric] = sum(names[s] for s in span_names)
        nnz = self.lu_nnz.get(job, [])
        metrics["fem.lu_nnz"] = sum(nnz) / len(nnz) if nnz else 0
        for metric in ("export.contour_vertices", "export.stl_triangles",
                       *(name for _, _, name in COUNTED)):
            metrics[metric] = self.counts[job, metric]
        return metrics, loop_wall

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, name, start and end (s), parent id, job."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")
