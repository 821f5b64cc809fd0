"""Command-line entry point: config -> optimize -> export.

run, sweep and validate read the --config file, or without one the built-in
cantilever (RunConfig's defaults), with the --set overrides on top; export-stl
reads the config its snapshot records.  `bench` is another name for `run`.

Exit codes: 0 converged, 2 iteration cap reached, 1 error.  The environment
variable GRADTOPO_LOG selects the log level: DEBUG, INFO (the default, with a
progress line every PROGRESS_EVERY iterations), WARNING, ERROR or CRITICAL;
any other value is an error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
import zipfile

import numpy as np

from gradtopo import export
from gradtopo.config import (ConfigError, RunConfig, apply_overrides, load_config,
                             loads_config, serialize)
from gradtopo.mesh import build_rect_mesh
from gradtopo.optimizer import Optimizer

log = logging.getLogger("gradtopo")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
PROGRESS_EVERY = 50


def _setup_logging():
    """Log at GRADTOPO_LOG's level (INFO when unset or empty), read on every
    call: basicConfig only installs the handler, once per process."""
    level = (os.environ.get("GRADTOPO_LOG") or "INFO").upper()
    if level not in LOG_LEVELS:
        raise ConfigError(f"GRADTOPO_LOG must be one of {', '.join(LOG_LEVELS)}, "
                          f"got {os.environ['GRADTOPO_LOG']!r}")
    logging.basicConfig(format="%(levelname)s %(message)s")
    log.setLevel(level)


def _load(args):
    """The --config file, or the built-in cantilever (RunConfig's defaults)
    without one, with the --set overrides applied."""
    return apply_overrides(load_config(args.config) if args.config else RunConfig(),
                           args.set)


def _optimize(config, outdir, callback=None):
    """Run the optimizer on config and write its outputs to outdir;
    (state, history)."""
    os.makedirs(outdir, exist_ok=True)
    opt = Optimizer(config)
    state, history = opt.run(callback=callback)
    export.write_run(outdir, state, history, opt.mesh, config)
    return state, history


# the end-of-run values that the run/bench summary line and each sweep row print
SUMMARY_KEYS = ("iterations", "compliance", "m_chi", "objective", "max_von_mises", "sigma_pn")


def _summary(state) -> list[str]:
    """The SUMMARY_KEYS values of the run that ended at state, formatted."""
    values = (state.compliance, state.m_chi, state.objective,
              state.aggregate.sigma_e.max(initial=0.0), state.aggregate.sigma_pn)
    return [str(state.iter), *(f"{v:.6g}" for v in values)]


def cmd_run(args) -> int:
    config = _load(args)
    t0 = time.perf_counter()

    def progress(state, rec):
        if state.iter % PROGRESS_EVERY == 0:
            log.info("iter=%d objective=%.6g compliance=%.6g m_chi=%.4f "
                     "delta_phi=%.3e delta_chi=%.3e", rec.iter, rec.objective,
                     rec.compliance, rec.m_chi, rec.delta_phi, rec.delta_chi)

    state, history = _optimize(config, args.out, progress)
    # iterations over the loop's wall time (set-up and export excluded)
    iters_per_s = state.iter / history[-1].wall_time
    values = " ".join(f"{k}={v}" for k, v in zip(SUMMARY_KEYS, _summary(state)))
    print(f"converged={'yes' if state.converged else 'no'} {values} "
          f"wall_s={time.perf_counter() - t0:.3f} iters_per_s={iters_per_s:.3g}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def cmd_validate(args) -> int:
    config = _load(args)        # raises ConfigError on any violation
    # a dump is the whole output, so that it loads back as a config file
    sys.stdout.write(serialize(config) if args.dump else "config ok\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if "=" not in args.sweep:
        raise ConfigError("sweep spec must look like section.key=v1,v2,...")
    key, raw = (part.strip() for part in args.sweep.split("=", 1))
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep value list is empty")
    # (label, output subdirectory, overrides)
    variants = [(f"{key}={v}", f"{key}_{v}".replace(".", "_").replace("=", "_"),
                 [f"{key}={v}"]) for v in values]
    if args.reference_beta1:
        variants.append(("beta=1 (single material)", "beta_1", ["material.beta=1"]))
    subdirs = [subdir for _, subdir, _ in variants]
    shared = sorted({subdir for subdir in subdirs if subdirs.count(subdir) > 1})
    if shared:
        raise ConfigError(f"sweep variants share an output directory: {', '.join(shared)}")
    base = _load(args)
    header = ("variant", *SUMMARY_KEYS, "convergence")
    rows = [header]
    for label, name, overrides in variants:
        try:
            state, _ = _optimize(apply_overrides(base, overrides),
                                 os.path.join(args.out, name))
            rows.append((label, *_summary(state), "YES" if state.converged else "NO"))
        except Exception as exc:  # per-run failures recorded, sweep continues
            log.error("sweep variant %s failed: %s", label, exc)
            rows.append((label, *["error"] * len(SUMMARY_KEYS), "ERROR"))
    widths = [max(map(len, column)) for column in zip(*rows)]
    fmt = " | ".join("{:%d}" % w for w in widths)
    print(fmt.format(*header).rstrip())
    print("-|-".join("-" * w for w in widths))
    for r in rows[1:]:
        print(fmt.format(*r).rstrip())
    if args.table:
        with open(args.table, "w", encoding="ascii") as fh:
            fh.writelines(",".join(r) + "\n" for r in rows)
    return EXIT_ERROR if any(r[-1] == "ERROR" for r in rows) else EXIT_OK


# what np.load and a read of an archive member raise on a file that is not
# a snapshot: a bad zip, a truncated or pickled .npy, an object array
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile)


def _read_snapshot(path):
    """The (phi, chi) nodal fields of an .npz snapshot and the mesh of the
    config it records; ConfigError naming the snapshot if it is not one."""
    # opened here: np.load leaves the file it opens open when it is a bad zip
    with open(path, "rb") as fh:
        try:
            snap = np.load(fh)
        except _UNREADABLE:
            raise ConfigError(f"snapshot {path} is not a readable .npz archive") from None
        if not isinstance(snap, np.lib.npyio.NpzFile):
            raise ConfigError(f"snapshot {path} is not an .npz archive")
        with snap:
            try:
                fields = {name: snap[name] for name in ("phi", "chi", "config")
                          if name in snap}
            except _UNREADABLE as exc:
                raise ConfigError(f"snapshot {path} has an unreadable field: {exc}") from None
    text = fields.get("config", np.str_(""))
    if text.dtype.kind != "U" or text.ndim:
        raise ConfigError(f"snapshot {path} has a config that is not text")
    try:
        mesh = build_rect_mesh(loads_config(str(text)))
    except ConfigError as exc:
        raise ConfigError(f"snapshot {path} has a config that does not load: {exc}") from None
    source = "its config" if "config" in fields else "the built-in cantilever"
    for name in ("phi", "chi"):
        if name not in fields:
            raise ConfigError(f"snapshot has no {name} field")
        if fields[name].dtype.kind not in "biuf":
            raise ConfigError(f"snapshot {path} holds {name} values of type "
                              f"{fields[name].dtype}, not real numbers")
        if fields[name].shape != (mesh.node_count,):
            raise ConfigError(f"snapshot {name} does not match the mesh size of {source} "
                              f"({mesh.node_count} nodes)")
    phi, chi = fields["phi"], fields["chi"]
    if not (np.isfinite(phi).all() and np.isfinite(chi).all()):
        raise ConfigError("snapshot holds non-finite phi or chi values")
    return phi, chi, mesh


def cmd_export_stl(args) -> int:
    try:
        export.stl_height(args.height)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not np.isfinite(args.threshold):
        raise ConfigError(f"threshold must be finite, got {args.threshold}")
    phi, chi, mesh = _read_snapshot(args.snapshot)
    for path, _ in export.split_to_stl(phi, chi, mesh, args.threshold,
                                       args.height, args.out):
        print(f"wrote {path}")
    return EXIT_OK


@functools.cache     # argparse looks up gettext for each help string
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradtopo",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=None):
        p.add_argument("--config", help="configuration file path (default: the "
                                        "built-in cantilever benchmark)")
        p.add_argument("--set", action="append", default=[],
                       metavar="section.key=value", help="override a config key")
        if out is not None:     # validate writes nothing
            p.add_argument("--out", default=out,
                           help="output directory (default: %(default)s)")

    p = sub.add_parser("run", aliases=["bench"],
                       help="run one optimization (default: the built-in cantilever)")
    common(p, "out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="validate a configuration")
    common(p)
    p.add_argument("--dump", action="store_true",
                   help="print the resolved config in place of 'config ok'")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="run a one-key parameter sweep")
    common(p, "out")
    p.add_argument("sweep", metavar="section.key=v1,v2,...",
                   help="key and comma-separated values to sweep")
    p.add_argument("--reference-beta1", action="store_true",
                   help="add the beta=1 single-material reference run")
    p.add_argument("--table", help="also write the summary table as CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-stl", help="threshold-split a snapshot into STLs")
    p.add_argument("--snapshot", required=True, help="fields.npz from a run, read on "
                   "the mesh of its recorded config (none: the built-in cantilever)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--height", type=float, default=10.0)
    p.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    p.set_defaults(func=cmd_export_stl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except Exception as exc:
        if not isinstance(exc, (ConfigError, export.GeometryError, OSError)):
            log.exception("run failed")     # a traceback for what is unexpected
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
