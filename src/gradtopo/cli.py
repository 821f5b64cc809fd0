"""Command-line entry point: config -> optimize -> export.

Exit codes: 0 converged, 2 iteration cap reached, 1 error.  The environment
variable GRADTOPO_LOG selects the log level (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from gradtopo import export
from gradtopo.config import (ConfigError, apply_overrides, benchmark_config,
                             load_config, serialize)
from gradtopo.mesh import build_rect_mesh
from gradtopo.optimizer import Optimizer

log = logging.getLogger("gradtopo")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _setup_logging():
    level = os.environ.get("GRADTOPO_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(message)s")


def _load(args, default_builtin=False):
    """The --config file, or the built-in benchmark scenario if default_builtin,
    with the command-line overrides applied."""
    if args.config:
        config = load_config(args.config)
    elif default_builtin:
        config = benchmark_config()
    else:
        raise ConfigError("--config is required (or use the bench subcommand)")
    return _apply_overrides(config, args)


def _apply_overrides(config, args):
    """Apply --set, then --out and --seed, on top of a base config."""
    if getattr(args, "set", None):
        config = apply_overrides(config, args.set)
    if getattr(args, "out", None):
        config = apply_overrides(config, [f"output.directory={args.out}"])
    if getattr(args, "seed", None) is not None:
        config = apply_overrides(config, [f"optimizer.seed={args.seed}"])
    return config


def _optimize(config, callback=None):
    """Run the optimizer on config and write its outputs; (state, history)."""
    os.makedirs(config.output_dir, exist_ok=True)
    opt = Optimizer(config)
    state, history = opt.run(callback=callback)
    export.write_run(config, state, history, opt.mesh)
    return state, history


def _execute(config) -> int:
    t0 = time.perf_counter()

    def progress(state, rec):
        if config.log_every and state.iter % config.log_every == 0:
            log.info("iter=%d objective=%.6g compliance=%.6g m_chi=%.4f "
                     "delta_phi=%.3e delta_chi=%.3e", rec.iter, rec.objective,
                     rec.compliance, rec.m_chi, rec.delta_phi, rec.delta_chi)

    state, history = _optimize(config, progress)
    last = history[-1]
    # iterations over the loop's wall time (set-up and export excluded)
    iters_per_s = state.iter / last.wall_time
    print(f"converged={'yes' if state.converged else 'no'} "
          f"iterations={state.iter} compliance={state.compliance:.6g} "
          f"m_chi={state.m_chi:.6g} objective={state.objective:.6g} "
          f"max_von_mises={last.max_von_mises:.6g} "
          f"wall_s={time.perf_counter() - t0:.3f} iters_per_s={iters_per_s:.3g}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def cmd_run(args) -> int:
    return _execute(_load(args))


def cmd_bench(args) -> int:
    if args.config:
        raise ConfigError("bench runs the built-in benchmark scenario and takes "
                          "no --config (use run --config)")
    return _execute(_apply_overrides(benchmark_config(), args))


def cmd_validate(args) -> int:
    config = _load(args)        # raises ConfigError on any violation
    print("config ok")
    if args.dump:
        sys.stdout.write(serialize(config))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if "=" not in args.sweep:
        raise ConfigError("sweep spec must look like section.key=v1,v2,...")
    key, raw = args.sweep.split("=", 1)
    values = [v for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep value list is empty")
    base = _load(args, default_builtin=True)
    rows = []
    variants = [(f"{key}={v}", [f"{key}={v}"]) for v in values]
    if args.reference_beta1:
        variants.append(("beta=1 (single material)", ["material.beta=1"]))
    for label, overrides in variants:
        try:
            config = apply_overrides(base, overrides)
            subdir = os.path.join(config.output_dir,
                                  label.split()[0].replace(".", "_").replace("=", "_"))
            state, _ = _optimize(
                apply_overrides(config, [f"output.directory={subdir}"]))
            rows.append((label, f"{state.compliance:.6g}", f"{state.m_chi:.4g}",
                         "YES" if state.converged else "NO"))
        except Exception as exc:  # per-run failures recorded, sweep continues
            log.error("sweep variant %s failed: %s", label, exc)
            rows.append((label, "error", "error", "ERROR"))
    header = ("variant", "compliance", "m_chi", "convergence")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    fmt = " | ".join("{:%d}" % w for w in widths)
    print(fmt.format(*header))
    print("-|-".join("-" * w for w in widths))
    for r in rows:
        print(fmt.format(*r))
    if args.table:
        with open(args.table, "w", encoding="ascii") as fh:
            fh.write(",".join(header) + "\n")
            for r in rows:
                fh.write(",".join(r) + "\n")
    return EXIT_ERROR if any(r[3] == "ERROR" for r in rows) else EXIT_OK


def cmd_export_stl(args) -> int:
    if not (np.isfinite(args.height) and args.height > 0):
        raise ConfigError(f"extrusion height must be finite and > 0, got {args.height}")
    if not np.isfinite(args.threshold):
        raise ConfigError(f"threshold must be finite, got {args.threshold}")
    config = _load(args, default_builtin=True)
    mesh = build_rect_mesh(config)
    snap = np.load(args.snapshot)
    if not isinstance(snap, np.lib.npyio.NpzFile):
        raise ConfigError(f"snapshot {args.snapshot} is not an .npz archive")
    with snap:
        fields = {name: snap[name] for name in ("phi", "chi") if name in snap}
    for name in ("phi", "chi"):
        if name not in fields:
            raise ConfigError(f"snapshot has no {name} field")
        if fields[name].shape != (mesh.node_count,):
            raise ConfigError(f"snapshot {name} does not match the configured "
                              f"mesh size ({mesh.node_count} nodes)")
    phi, chi = fields["phi"], fields["chi"]
    if not (np.isfinite(phi).all() and np.isfinite(chi).all()):
        raise ConfigError("snapshot holds non-finite phi or chi values")
    for path, _ in export.split_to_stl(phi, chi, mesh, args.threshold,
                                       args.height, args.out or "."):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradtopo",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="configuration file path")
        p.add_argument("--set", action="append", default=[],
                       metavar="section.key=value", help="override a config key")
        p.add_argument("--out", help="output directory override")
        if seed:        # export-stl runs no optimization, so it has no seed
            p.add_argument("--seed", type=int, help="RNG seed override")

    p = sub.add_parser("run", help="run one optimization")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run the tuned built-in cantilever benchmark")
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("validate", help="validate a configuration file")
    common(p)
    p.add_argument("--dump", action="store_true", help="print the resolved config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="run a one-key parameter sweep")
    common(p)
    p.add_argument("sweep", metavar="section.key=v1,v2,...",
                   help="key and comma-separated values to sweep")
    p.add_argument("--reference-beta1", action="store_true",
                   help="add the beta=1 single-material reference run")
    p.add_argument("--table", help="also write the summary table as CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-stl", help="threshold-split a snapshot into STLs")
    common(p, seed=False)
    p.add_argument("--snapshot", required=True, help="fields.npz from a run")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--height", type=float, default=10.0)
    p.set_defaults(func=cmd_export_stl)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, export.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
