"""The three benchmark workloads, their inputs and their output checks.

Every workload is a closed loop: one client in one process runs a job,
waits for it to finish, checks its outputs and starts the next, until the
run's time is used up.  A job is exactly what a user runs:

* cantilever-*: ``gradtopo bench`` in-process through ``gradtopo.cli.main``
  with a fixed iteration budget from the initial field; it writes
  history.csv, fields.vtk and fields.npz.
* export-stl: ``gradtopo export-stl`` on a seeded 100x50 design, which
  threshold-splits it at chi=0.5 and writes two extruded STL solids.

Checks (each counted as one attempted operation; any failed check marks
the operation failed):
* every optimizer iteration: pre-projection volume error <= 1e-9 relative,
  0 <= phi <= 1, 0 <= chi <= phi, finite objective;
* every cantilever job: the CLI exit code, one history.csv row per
  iteration, fields.npz arrays shaped like the mesh;
* every export job: the CLI exit code and both STLs written, then every
  STL: each edge used exactly twice, volume == region area x height to
  1e-6 relative;
* every traced cantilever job: the traced loop wall time matches the
  program's own IterationRecord.wall_time;
* every traced job after the first: the exact-repeat counters equal the
  first traced job's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import statistics
import struct
import time
from dataclasses import dataclass

import numpy as np

from reference import Reference, interpreted_mix
from tracing import EXACT_COUNTS, Patcher, Tracer

# Set-up repetitions per round.  A round runs before the first job and after
# every job, on export-stl each followed by a block of the reference
# computation; the first round is the same in every run, so it shapes the
# heap that the first job starts from.
SETUP_REPS = {"cantilever-100x50": 5, "cantilever-200x100": 3, "export-stl": 20}

# The end-to-end metrics of the result line.  Each is a median over the
# run: of set-ups, of jobs, and per iteration over jobs; on export-stl every
# time is first scaled to the reference speed (see reference.py).
# iter_ms_p50, export-stl's raw (unscaled) medians and failed_ops_ratio are
# in the detail line only (failed_ops_ratio is 0, and a bounded metric must
# not be).
RESULT_METRICS = ("setup_s", "total_s", "iters_per_s", "iter_ms_tail")


@dataclass(frozen=True)
class Cantilever:
    overrides: tuple[str, ...]   # config overrides on top of benchmark_config()
    budget: int                  # optimizer iterations per job


# 80 iterations on 100x50 cover the unstable transient (iterations 1 to ~66)
# and the start of the smooth phase.  200x100 costs ~1 s per iteration; it is
# run by hand (BENCHMARK.json leaves it out to afford 58 s runs of the other
# two), and 24 iterations keep one of its jobs inside a 30 s run.
CANTILEVERS = {
    "cantilever-100x50": Cantilever((), 80),
    "cantilever-200x100": Cantilever(("domain.nx=200", "domain.ny=100"), 24),
}
WORKLOADS = (*CANTILEVERS, "export-stl")

# export-stl's reference block time on the reference machine in its slow
# phase, the usual one: scaled export times are measured times at that
# speed.  Cantilever times are not scaled (see reference.py).
EXPORT_REF_S = 0.025


class Checks:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Probe:
    """Wraps Optimizer.run and export.extrude_to_stl to see what a job did.

    This is not tracing: it adds one callback per iteration (a clock read
    and the iterate checks, microseconds against 100+ ms iterations) and
    keeps references to the job's final state, history and STL inputs.
    """

    def __init__(self, checks: Checks):
        self.checks = checks
        self.reset()

    def reset(self) -> None:
        self.marks: list[float] = []
        self.state = self.history = self.mesh = None
        self.stls: list[tuple] = []

    def install(self, patcher: Patcher) -> None:
        patcher.wrap("gradtopo.optimizer", "Optimizer.run", self._wrap_run)
        patcher.wrap("gradtopo.export", "extrude_to_stl", self._wrap_extrude)

    def _wrap_run(self, run):
        probe = self

        def wrapper(opt, callback=None):
            target = opt.config.volume_fraction * opt.mesh.area
            marks, clock = probe.marks, time.perf_counter

            def checked(state, record):
                marks.append(clock())
                probe.check_iterate(state, target)
                if callback is not None:
                    callback(state, record)

            state, history = run(opt, callback=checked)
            probe.state, probe.history, probe.mesh = state, history, opt.mesh
            return state, history
        return wrapper

    def _wrap_extrude(self, extrude):
        probe = self

        def wrapper(polygons, height, path, *args, **kwargs):
            triangles = extrude(polygons, height, path, *args, **kwargs)
            probe.stls.append((polygons, height, path, triangles))
            return triangles
        return wrapper

    def check_iterate(self, state, target: float) -> None:
        phi, chi = state.phi, state.chi
        ok = (abs(state.volume_presnap - target) <= 1e-9 * target
              and phi.min() >= 0.0 and phi.max() <= 1.0
              and chi.min() >= 0.0 and (chi - phi).max() <= 0.0
              and math.isfinite(state.objective))
        self.checks.record(ok, f"iteration {state.iter}: volume, bounds or objective")


# --- inputs ----------------------------------------------------------------

def make_design(nodes: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded graded design on the 200x100 mm cantilever plate.

    phi is smooth (a ~2 mm tanh interface) with eight elliptical holes, one
    per 50x50 mm cell; chi is graded and crosses 0.5 along three wavy lines
    near x = 50, 100, 150 that pass between the holes.  The seed moves and
    reshapes the holes and the waves, but the topology is fixed, so the
    contours stay at ~1620-1640 vertices in 12 loops across seeds.
    """
    rng = np.random.default_rng(seed)
    x, y = nodes[:, 0], nodes[:, 1]
    dist = np.full(len(x), np.inf)
    for cx0 in (25.0, 75.0, 125.0, 175.0):
        for cy0 in (25.0, 75.0):
            cx, cy = cx0 + rng.uniform(-4, 4), cy0 + rng.uniform(-4, 4)
            a, b, t = rng.uniform(11, 13), rng.uniform(8, 10), rng.uniform(0, np.pi)
            xr = (x - cx) * np.cos(t) + (y - cy) * np.sin(t)
            yr = -(x - cx) * np.sin(t) + (y - cy) * np.cos(t)
            dist = np.minimum(dist, (np.hypot(xr / a, yr / b) - 1.0) * b)
    phi = 0.5 + 0.5 * np.tanh(dist / 2.0)
    amp, theta = rng.uniform(2.0, 3.0), rng.uniform(0, 2 * np.pi)
    xs = x - amp * np.sin(2 * np.pi * y / 25.0 + theta)
    g = -np.tanh((xs - 50) / 10) + np.tanh((xs - 100) / 10) - np.tanh((xs - 150) / 10)
    chi = 0.5 + 0.3 * g * (0.6 + 0.4 * y / 100.0)
    return phi, np.minimum(chi, phi)


# --- output checks ---------------------------------------------------------

_STL_RECORD = np.dtype([("normal", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def read_stl(path: str) -> np.ndarray:
    """Triangles (n,3,3) of a binary STL, independent of gradtopo.export."""
    with open(path, "rb") as fh:
        data = fh.read()
    (count,) = struct.unpack_from("<I", data, 80)
    if len(data) != 84 + 50 * count:
        raise ValueError(f"{path}: size does not match {count} triangles")
    return np.frombuffer(data, _STL_RECORD, count, 84)["v"].astype(float)


def stl_is_closed(tris: np.ndarray) -> bool:
    """Every undirected edge, keyed by its stored vertices, is used twice."""
    _, ids = np.unique(tris.reshape(-1, 3), axis=0, return_inverse=True)
    ids = ids.reshape(-1, 3)
    edges = np.sort(np.stack([ids, np.roll(ids, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    return len(uses) > 0 and bool(np.all(uses == 2))


def polygon_area(loops) -> float:
    """Signed area of closed loops (outer boundaries CCW, holes CW)."""
    area = 0.0
    for loop in loops:
        p = np.asarray(loop, dtype=float)
        area += 0.5 * float(p[:, 0] @ np.roll(p[:, 1], -1) - p[:, 1] @ np.roll(p[:, 0], -1))
    return area


def check_stl(checks: Checks, polygons, height: float, path: str, triangles: int) -> None:
    tris = read_stl(path)
    expected = polygon_area(polygons) * height
    volume = float(np.einsum("ij,ij->", tris[:, 0], np.cross(tris[:, 1], tris[:, 2])) / 6.0)
    closed = len(tris) == triangles and stl_is_closed(tris)
    volume_ok = abs(volume - expected) <= 1e-6 * abs(expected)
    checks.record(closed and volume_ok,
                  f"{os.path.basename(path)}: closed={closed}, volume {volume:.9g} "
                  f"vs area x height {expected:.9g}")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- statistics ------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum (percentile 100) when there are 10 or fewer."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# --- the benchmark run -----------------------------------------------------

class Run:
    """One benchmark run: set-up repetitions, then jobs until time is up."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.checks = Checks()
        self.probe = Probe(self.checks)
        self.tracer = Tracer() if trace else None
        self.missing: list[str] = []
        self.jobs: list[dict] = []      # one entry per job, traced or not
        self.setup_s: list[tuple[float, int]] = []   # (time, index of the block after it)
        self.scaled_setup_s: list[float] = []
        self.reference = (None if workload in CANTILEVERS
                          else Reference(interpreted_mix(), EXPORT_REF_S))
        self.snapshot = os.path.join(workdir, "design.npz")

    # --- set-up ------------------------------------------------------------

    def _setup_cantilever(self, spec: Cantilever):
        from gradtopo.config import apply_overrides, benchmark_config
        from gradtopo.optimizer import Optimizer
        config = apply_overrides(benchmark_config(),
                                 [f"optimizer.seed={self.seed}", *spec.overrides])
        Optimizer(config)

    def _setup_export(self):
        from gradtopo.config import cantilever_config
        from gradtopo.mesh import build_rect_mesh
        mesh = build_rect_mesh(cantilever_config())
        return make_design(mesh.nodes, self.seed)

    def setup(self) -> None:
        """One round of set-up repetitions, timed into self.setup_s."""
        spec = CANTILEVERS.get(self.workload)
        for _ in range(SETUP_REPS[self.workload]):
            t0 = time.perf_counter()
            if spec is None:
                self._setup_export()
            else:
                self._setup_cantilever(spec)
            block = -1 if self.reference is None else len(self.reference.blocks)
            self.setup_s.append((time.perf_counter() - t0, block))

    # --- jobs ----------------------------------------------------------------

    def _argv(self, outdir: str) -> list[str]:
        spec = CANTILEVERS.get(self.workload)
        if spec is None:
            return ["export-stl", "--snapshot", self.snapshot, "--out", outdir,
                    "--threshold", "0.5", "--height", "10"]
        argv = ["bench", "--set", f"optimizer.max_iter={spec.budget}",
                "--set", f"optimizer.seed={self.seed}"]
        for item in spec.overrides:
            argv += ["--set", item]
        return argv + ["--out", outdir]

    def job(self, traced: bool) -> dict:
        import gradtopo.cli
        outdir = os.path.join(self.workdir, f"job{len(self.jobs)}")
        self.probe.reset()
        if traced:
            self.tracer.job = len(self.jobs)
            self.missing = self.tracer.install()
        stdout = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = gradtopo.cli.main(self._argv(outdir))
            total = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        job = {"traced": traced, "total_s": total, "exit_code": code}
        if self.reference is not None:
            # the job runs between reference blocks `block` and `block + 1`
            job["block"] = len(self.reference.blocks) - 1
        if self.workload in CANTILEVERS:
            self._finish_cantilever(job, outdir)
        else:
            self._finish_export(job)
        if traced:
            self._finish_traced(job)
        if not self.jobs:
            # what one `gradtopo` process holds: set-up plus a single job
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.jobs.append(job)
        return job

    def _finish_cantilever(self, job: dict, outdir: str) -> None:
        checks, probe = self.checks, self.probe
        # 2 = iteration budget reached, 0 = converged inside the budget
        checks.record(job["exit_code"] in (0, 2), f"bench exit code {job['exit_code']}")
        history, state, mesh = probe.history or [], probe.state, probe.mesh
        walls = [0.0] + [r.wall_time for r in history]
        job["iter_s"] = [b - a for a, b in zip(walls, walls[1:])]
        job["loop_s"] = walls[-1]
        job["marks"] = probe.marks
        csv_path = os.path.join(outdir, "history.csv")
        npz_path = os.path.join(outdir, "fields.npz")
        rows = -1
        if os.path.isfile(csv_path):
            with open(csv_path, newline="", encoding="ascii") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
            job["history_sha256"] = sha256(csv_path)
        checks.record(state is not None and rows == len(history) == state.iter,
                      f"history.csv has {rows} rows for {len(history)} iterations")
        shapes_ok = False
        if mesh is not None and os.path.isfile(npz_path):
            N, M = mesh.node_count, mesh.element_count
            with np.load(npz_path) as fields:
                shapes_ok = ({k: fields[k].shape for k in ("phi", "chi", "u", "sigma")}
                             == {"phi": (N,), "chi": (N,), "u": (2 * N,), "sigma": (M, 3)})
        checks.record(shapes_ok, "fields.npz arrays do not match the mesh")
        if state is not None:
            job.update(iterations=state.iter, converged=bool(state.converged),
                       compliance=state.compliance, m_chi=state.m_chi,
                       objective=state.objective)

    def _finish_export(self, job: dict) -> None:
        self.checks.record(job["exit_code"] == 0, f"export-stl exit code {job['exit_code']}")
        names = sorted(os.path.basename(s[2]) for s in self.probe.stls)
        self.checks.record(names == ["above.stl", "below.stl"], f"STLs written: {names}")
        for polygons, height, path, triangles in self.probe.stls:
            check_stl(self.checks, polygons, height, path, triangles)
        job["iter_s"] = [job["total_s"]]
        job["loop_s"] = job["total_s"]

    def _finish_traced(self, job: dict) -> None:
        layers, loop_wall = self.tracer.job_metrics(self.tracer.job, job.get("marks", []))
        job["layers"] = layers
        if self.workload in CANTILEVERS:
            # the traced iteration windows must cover what the program timed
            ok = (layers["optimizer.loop_self_ms"] >= 0.0
                  and abs(loop_wall - job["loop_s"]) <= 1e-3 + 1e-3 * job["loop_s"])
            self.checks.record(ok, f"traced loop {loop_wall:.6f} s vs program {job['loop_s']:.6f} s")
        first = next(j for j in self.jobs + [job] if j["traced"])
        if first is not job:
            same = all(first["layers"][k] == layers[k] for k in EXACT_COUNTS)
            self.checks.record(same, "exact-repeat counters differ between traced jobs")

    def measure(self) -> None:
        """Jobs (untraced, or untraced/traced pairs), each followed by a
        set-up round and, on export-stl, a reference block, until the time
        is used."""
        patcher = Patcher()
        self.probe.install(patcher)
        reference = self.reference
        block = reference.block if reference is not None else lambda: None
        try:
            if self.workload not in CANTILEVERS:
                phi, chi = self._setup_export()
                np.savez(self.snapshot, phi=phi, chi=chi)
            start = time.perf_counter()
            self.setup()
            block()
            while True:
                t0 = time.perf_counter()
                for traced in (False, True) if self.trace else (False,):
                    self.job(traced)
                    self.setup()
                    block()
                step = time.perf_counter() - t0
                if time.perf_counter() - start + step > self.seconds:
                    break
        finally:
            patcher.restore()
        self.missing = sorted(set(patcher.missing + self.missing))
        for job in self.jobs:
            job["scale"] = 1.0 if reference is None else reference.scale(job["block"])
        self.scaled_setup_s = [
            t if reference is None else t * reference.ref_s / reference.blocks[k]
            for t, k in self.setup_s]

    # --- results -----------------------------------------------------------

    @staticmethod
    def _speed(jobs: list[dict]) -> float:
        """Iterations per (scaled) second of loop time, over the given jobs."""
        return sum(len(j["iter_s"]) for j in jobs) / sum(j["loop_s"] * j["scale"] for j in jobs)

    def end_to_end(self) -> dict:
        """Every end-to-end metric, as name -> (value, unit, sample count).
        On export-stl, times are scaled to the reference speed."""
        jobs = self.jobs
        setups = self.scaled_setup_s
        total_s = statistics.median(j["total_s"] * j["scale"] for j in jobs)
        if self.workload in CANTILEVERS:
            # every job of a seed runs the same iterations: each iteration's
            # median time over the run's jobs
            iter_s = [statistics.median(times) for times in zip(*(j["iter_s"] for j in jobs))]
            n = len(iter_s)
            tail_s, tail_pct = tail(iter_s)
            p50_ms = 1000 * statistics.median(iter_s)
            speed = statistics.median(self._speed([j]) for j in jobs)
        else:
            # a job has no iterations: iters_per_s and iter_ms_tail are
            # total_s again, so they carry no information of their own
            n = len(jobs)
            tail_s, tail_pct = total_s, 0.0
            p50_ms = 1000 * total_s
            speed = 1 / total_s
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "total_s": (total_s, "s", len(jobs)),
            "iters_per_s": (speed, "1/s", n),
            "iter_ms_p50": (p50_ms, "ms", n),
            "iter_ms_tail": (1000 * tail_s, "ms", n),
            "iter_ms_tail_percentile": (tail_pct, "%", n),
            "failed_ops_ratio": (len(self.checks.failures) / self.checks.attempted,
                                 "failed/attempted", self.checks.attempted),
        }
        if self.reference is not None:
            blocks = self.reference.blocks
            metrics.update({
                "raw.setup_s": (statistics.median(t for t, _ in self.setup_s), "s",
                                len(self.setup_s)),
                "raw.total_s": (statistics.median(j["total_s"] for j in jobs), "s", len(jobs)),
                "reference_ms": (1000 * statistics.median(blocks), "ms", len(blocks)),
            })
        return metrics

    def per_layer(self) -> dict:
        """Every per-layer metric as name -> (value, unit, traced jobs);
        on export-stl, times are scaled to the reference speed."""
        traced = [j for j in self.jobs if j["traced"]]
        plain = [j for j in self.jobs if not j["traced"]]
        metrics = {}
        for name in traced[0]["layers"]:
            if name in EXACT_COUNTS:
                value = traced[0]["layers"][name]
            else:
                value = statistics.fmean(j["layers"][name] * j["scale"] for j in traced)
            metrics[name] = (value, "ms" if name.endswith("_ms") else "count", len(traced))
        traced_speed, plain_speed = self._speed(traced), self._speed(plain)
        metrics["trace.iters_per_s"] = (traced_speed, "1/s", len(traced))
        metrics["trace.untraced_iters_per_s"] = (plain_speed, "1/s", len(plain))
        metrics["trace.overhead_pct"] = (100 * (plain_speed - traced_speed) / plain_speed,
                                         "%", len(traced))
        return metrics
