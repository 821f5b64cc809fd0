import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gradtopo.config
import gradtopo.optimizer
import reference
from gradtopo.cli import EXIT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, build_parser, main
from gradtopo.config import (Box, RunConfig, apply_overrides, cantilever_config, load_config,
                             loads_config, serialize)
from gradtopo.mesh import build_rect_mesh

TINY = ["--set", "domain.nx=8", "--set", "domain.ny=4",
        "--set", "optimizer.max_iter=3"]


def write_cfg(tmp_path, **fields):
    """A config file of the uncalibrated scenario on an 8x4 mesh, with the
    given fields."""
    path = tmp_path / "case.cfg"
    path.write_text(serialize(RunConfig(**{**reference.UNCALIBRATED, "mesh_nx": 8,
                                           "mesh_ny": 4, **fields})))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["validate", "--config", cfg]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out


def test_validate_dump_round_trips(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["validate", "--config", cfg, "--dump"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[domain]" in out and "nx = 8" in out
    assert loads_config(out) == load_config(cfg)


def test_validate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"     # written as text: no RunConfig holds it
    cfg.write_text("[material]\npoisson = 0.9\n")
    assert main(["validate", "--config", str(cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "poisson" in captured.out + captured.err


def test_run_checks_a_config_once(tmp_path, monkeypatch):
    """A RunConfig is checked once, when load_config builds it: a config with
    a frozen box builds one mesh for its volume check and one for the
    Optimizer."""
    cfg = write_cfg(tmp_path, mesh_nx=20, mesh_ny=10, max_iter=1,
                    fixed_void=(Box(150, 40, 170, 60),))
    built = []

    def counting(config):
        built.append(config)
        return build_rect_mesh(config)
    for module in (gradtopo.config, gradtopo.optimizer):
        monkeypatch.setattr(module, "build_rect_mesh", counting)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_NOT_CONVERGED
    assert len(built) == 2


def test_missing_config_is_an_error(capsys):
    assert main(["run", "--config", "/no/such/file.cfg"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_run_not_converged_exit_code(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["bench", *TINY, "--out", out])
    assert code == EXIT_NOT_CONVERGED
    stdout = capsys.readouterr().out
    assert "converged=no" in stdout
    assert "iterations=3" in stdout
    for part in ("compliance=", "m_chi=", "objective=", "max_von_mises="):
        assert part in stdout
    for name in ("history.csv", "fields.vtk", "fields.npz"):
        assert os.path.exists(os.path.join(out, name))


def test_summary_reports_wall_time_and_iteration_rate(tmp_path, capsys):
    main(["bench", *TINY, "--out", str(tmp_path)])
    summary = dict(item.split("=") for item in capsys.readouterr().out.split())
    wall_s, rate = float(summary["wall_s"]), float(summary["iters_per_s"])
    assert wall_s > 0.0 and rate > 0.0
    # the rate is over the loop alone, which is part of the wall time
    assert int(summary["iterations"]) / rate <= 1.01 * wall_s


def test_run_converged_exit_code(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--config", write_cfg(tmp_path), *TINY,
                 "--set", "optimizer.tol=1e9", "--out", out])
    assert code == EXIT_OK
    assert "converged=yes" in capsys.readouterr().out


def test_a_file_that_sets_only_the_mesh_runs_the_benchmark(tmp_path, capsys):
    """Every key a file leaves out takes RunConfig's calibrated default, so
    run on a file that sets only the mesh is bench on that mesh."""
    path = tmp_path / "mesh.cfg"
    path.write_text("[domain]\nnx = 20\nny = 10\n")
    run, bench = tmp_path / "run", tmp_path / "bench"
    assert main(["run", "--config", str(path), "--out", str(run)]) == EXIT_OK
    assert "converged=yes" in capsys.readouterr().out
    assert main(["bench", "--set", "domain.nx=20", "--set", "domain.ny=10",
                 "--out", str(bench)]) == EXIT_OK
    for name in ("history.csv", "fields.vtk", "fields.npz"):
        assert (run / name).read_bytes() == (bench / name).read_bytes(), name


def test_identical_runs_identical_csv(tmp_path):
    o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["bench", *TINY, "--out", o1])
    main(["bench", *TINY, "--out", o2])
    assert (Path(o1) / "history.csv").read_bytes() == (Path(o2) / "history.csv").read_bytes()


def test_export_stl_from_snapshot(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["bench", *TINY, "--out", out])
    stl_dir = str(tmp_path / "stl")
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 "--out", stl_dir, "--threshold", "0.5", "--height", "4"])
    assert code == EXIT_OK
    written = [l.split()[-1] for l in capsys.readouterr().out.splitlines()
               if l.startswith("wrote ")]
    assert written
    for path in written:
        tris = reference.read_stl(path)
        counts = reference.stl_edge_use_counts(tris)
        assert all(c == 2 for c in counts.values())


def test_export_stl_whole_structure(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["bench", *TINY, "--out", out])
    stl_dir = str(tmp_path / "stl")
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 "--out", stl_dir, "--threshold", "0", "--height", "2"])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(stl_dir, "above.stl"))
    assert not os.path.exists(os.path.join(stl_dir, "below.stl"))


def test_export_stl_mesh_mismatch(tmp_path, capsys):
    """A snapshot whose fields do not match the mesh of its own config."""
    path = str(tmp_path / "snap.npz")
    np.savez(path, phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES, 0.3),
             config=serialize(RunConfig(mesh_nx=5, mesh_ny=5)))
    code = main(["export-stl", "--snapshot", path, "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    assert "mesh" in capsys.readouterr().err
    assert not (tmp_path / "stl").exists()


def test_export_stl_reads_the_mesh_its_run_recorded(tmp_path, capsys):
    """A run on a 400 mm wide plate exports a 400 mm wide part, with no
    config given to export-stl."""
    out, stl_dir = str(tmp_path / "run"), tmp_path / "stl"
    main(["run", "--set", "domain.nx=20", "--set", "domain.ny=10",
          "--set", "domain.width=400", "--set", "optimizer.max_iter=3", "--out", out])
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 "--threshold", "0", "--out", str(stl_dir)])
    assert code == EXIT_OK
    x = reference.read_stl(str(stl_dir / "above.stl"))[..., 0]
    assert (x.min(), x.max()) == (0.0, 400.0)


def test_export_stl_reads_a_snapshot_without_config_on_the_cantilever(tmp_path, capsys):
    """A hand-made snapshot, or one written before snapshots recorded their
    config, is read on the built-in cantilever's 100x50 mesh."""
    path, stl_dir = str(tmp_path / "snap.npz"), tmp_path / "stl"
    nodes = build_rect_mesh(RunConfig()).node_count
    np.savez(path, phi=np.ones(nodes), chi=np.full(nodes, 0.3))
    assert main(["export-stl", "--snapshot", path, "--out", str(stl_dir)]) == EXIT_OK
    xy = reference.read_stl(str(stl_dir / "below.stl"))[..., :2]
    assert (xy.min(axis=(0, 1)).tolist(), xy.max(axis=(0, 1)).tolist()) == ([0, 0], [200, 100])
    np.savez(path, phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES, 0.3))
    assert main(["export-stl", "--snapshot", path, "--out", str(stl_dir)]) == EXIT_ERROR
    assert capsys.readouterr().err == ("error: snapshot phi does not match the mesh size "
                                       f"of the built-in cantilever ({nodes} nodes)\n")


@pytest.mark.parametrize("config", ["[domain]\nfoo = 1\n", np.float64(3.0)],
                         ids=["unknown-key", "not-text"])
def test_export_stl_refuses_a_recorded_config_that_does_not_load(tmp_path, capsys,
                                                                 caplog, config):
    path = str(tmp_path / "snap.npz")
    np.savez(path, phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES, 0.3), config=config)
    code = main(["export-stl", "--snapshot", path, "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: snapshot {path} ")
    assert "run failed" not in caplog.text        # no traceback logged
    assert not (tmp_path / "stl").exists()


@pytest.mark.parametrize("flag", [["--config", "case.cfg"], ["--set", "domain.nx=8"]],
                         ids=["config", "set"])
def test_export_stl_takes_no_config(capsys, flag):
    """The snapshot records its run's config, so there is none to give."""
    with pytest.raises(SystemExit) as exc:
        main(["export-stl", "--snapshot", "fields.npz", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--height", "-1"), ("--height", "nan"),
                                         ("--height", "inf"), ("--height", "1e39"),
                                         ("--height", "1e-46"), ("--threshold", "nan")],
                         ids=["height-1", "height-nan", "height-inf", "height-1e39",
                              "height-1e-46", "threshold-nan"])
def test_export_stl_bad_height(tmp_path, capsys, flag, value):
    out = str(tmp_path / "run")
    main(["bench", *TINY, "--out", out])
    stl_dir = tmp_path / "stl"
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 "--out", str(stl_dir), flag, value])
    assert code == EXIT_ERROR
    assert flag[2:] in capsys.readouterr().err
    assert not stl_dir.exists()


def export_fields(tmp_path, **fields):
    """Run export-stl on a snapshot of the given fields on the TINY mesh."""
    path = str(tmp_path / "snap.npz")
    np.savez(path, config=TINY_CONFIG, **fields)
    return main(["export-stl", "--snapshot", path, "--out", str(tmp_path / "stl")])


TINY_NODES = 9 * 5
# what a run on the TINY mesh records in its snapshot
TINY_CONFIG = serialize(RunConfig(mesh_nx=8, mesh_ny=4))


def test_export_stl_rejects_non_finite_snapshot(tmp_path, capsys):
    chi = np.full(TINY_NODES, 0.3)
    chi[20] = np.nan
    assert export_fields(tmp_path, phi=np.ones(TINY_NODES), chi=chi) == EXIT_ERROR
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "stl").exists()


@pytest.mark.parametrize("fields, error", [
    (dict(phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES - 1, 0.3)),
     f"snapshot chi does not match the mesh size of its config ({TINY_NODES} nodes)"),
    (dict(phi=np.ones(TINY_NODES)), "snapshot has no chi field"),
], ids=["short-chi", "missing-chi"])
def test_export_stl_rejects_malformed_snapshot(tmp_path, capsys, caplog, fields,
                                               error):
    assert export_fields(tmp_path, **fields) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {error}\n"
    assert "run failed" not in caplog.text        # no traceback logged
    assert not (tmp_path / "stl").exists()


def test_export_stl_rejects_a_snapshot_that_is_not_an_npz(tmp_path, capsys, caplog):
    path = str(tmp_path / "phi.npy")
    np.save(path, np.ones(TINY_NODES))
    code = main(["export-stl", "--snapshot", path, "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: snapshot {path} is not an .npz archive\n"
    assert "run failed" not in caplog.text
    assert not (tmp_path / "stl").exists()


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# a snapshot file that np.load refuses or that holds fields of no real number
UNREADABLE_SNAPSHOTS = {
    "text": lambda path: path.write_text("phi,chi\n0.5,0.5\n"),
    "truncated-npy": lambda path: path.write_bytes(npy_bytes(np.ones(TINY_NODES))[:30]),
    "corrupt-zip": lambda path: path.write_bytes(b"PK\x03\x04" + bytes(60)),
    "object-phi": lambda path: np.savez(path, phi=np.full(TINY_NODES, None, dtype=object),
                                        chi=np.full(TINY_NODES, 0.3), config=TINY_CONFIG),
    "string-phi": lambda path: np.savez(path, phi=np.full(TINY_NODES, "1.0"),
                                        chi=np.full(TINY_NODES, 0.3), config=TINY_CONFIG),
    "complex-chi": lambda path: np.savez(path, phi=np.ones(TINY_NODES),
                                         chi=np.full(TINY_NODES, 0.3 + 0.1j),
                                         config=TINY_CONFIG),
}


@pytest.mark.parametrize("kind", UNREADABLE_SNAPSHOTS)
def test_export_stl_rejects_an_unreadable_snapshot(tmp_path, capsys, caplog, kind):
    path = tmp_path / "snap.npz"
    UNREADABLE_SNAPSHOTS[kind](path)
    code = main(["export-stl", "--snapshot", str(path), "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: snapshot {path} ") and err.count("\n") == 1
    assert "run failed" not in caplog.text        # no traceback logged
    assert not (tmp_path / "stl").exists()


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32])
def test_export_stl_accepts_real_and_bool_snapshots(tmp_path, capsys, dtype):
    phi = np.ones(TINY_NODES, dtype=dtype)
    assert export_fields(tmp_path, phi=phi, chi=phi) == EXIT_OK
    assert (tmp_path / "stl" / "above.stl").exists()


@pytest.mark.parametrize("command", ["export-stl", "bench"])
def test_an_output_path_that_is_a_file_is_an_error(tmp_path, capsys, caplog, command):
    snapshot, taken = str(tmp_path / "snap.npz"), tmp_path / "taken"
    np.savez(snapshot, phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES, 0.3),
             config=TINY_CONFIG)
    taken.write_text("")
    argv = ["--snapshot", snapshot] if command == "export-stl" else TINY
    assert main([command, *argv, "--out", str(taken)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert "run failed" not in caplog.text        # no traceback logged


def test_export_stl_rejects_empty_design(tmp_path, capsys):
    void = np.full(TINY_NODES, 0.2)       # no material anywhere
    assert export_fields(tmp_path, phi=void, chi=void) == EXIT_ERROR
    assert "nothing to export" in capsys.readouterr().err
    assert not (tmp_path / "stl").exists()


def test_sweep_table(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    table = str(tmp_path / "table.csv")
    code = main(["sweep", "optimizer.kappa2=40,4000", "--reference-beta1",
                 *TINY, "--out", out, "--table", table])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "variant" in stdout and "compliance" in stdout
    assert all(line == line.rstrip() for line in stdout.splitlines())
    rows = Path(table).read_text().splitlines()
    assert rows[0] == ("variant,iterations,compliance,m_chi,objective,max_von_mises,"
                       "sigma_pn,convergence")
    assert len(rows) == 4   # header + 2 sweep values + beta=1 reference
    # every variant writes what run writes, so export-stl can read it, and
    # its snapshot records its own config
    for variant, overrides in (("optimizer_kappa2_40", ["optimizer.kappa2=40"]),
                               ("optimizer_kappa2_4000", ["optimizer.kappa2=4000"]),
                               ("beta_1", ["material.beta=1"])):
        for name in ("history.csv", "fields.vtk", "fields.npz"):
            assert os.path.exists(os.path.join(out, variant, name))
        with np.load(os.path.join(out, variant, "fields.npz")) as snap:
            assert loads_config(str(snap["config"])) == apply_overrides(
                apply_overrides(RunConfig(), TINY[1::2]), overrides)


def test_sweep_exit_code_on_failed_variant(tmp_path, capsys):
    table = str(tmp_path / "table.csv")
    code = main(["sweep", "optimizer.kappa2=-1,-2", *TINY,
                 "--out", str(tmp_path / "sweep"), "--table", table])
    assert code == EXIT_ERROR
    # the whole table is still printed and written
    assert capsys.readouterr().out.count("ERROR") == 2
    rows = Path(table).read_text().splitlines()
    assert len(rows) == 3 and all(r.endswith(",ERROR") for r in rows[1:])


def test_sweep_runs_the_benchmark_without_config(tmp_path, monkeypatch):
    seen = []
    state = SimpleNamespace(iter=3, compliance=1.0, m_chi=0.5, objective=2.0,
                            aggregate=SimpleNamespace(sigma_e=np.ones(2), sigma_pn=0.9),
                            converged=True)
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config, outdir: seen.append((config, outdir)) or (state, []))
    out = str(tmp_path / "sweep")
    assert main(["sweep", "optimizer.kappa2=40", "--out", out]) == EXIT_OK
    assert seen == [(apply_overrides(cantilever_config(), ["optimizer.kappa2=40"]),
                     os.path.join(out, "optimizer_kappa2_40"))]
    seen.clear()
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "optimizer.kappa2=40"]) == EXIT_OK
    assert [outdir for _, outdir in seen] == [os.path.join("out", "optimizer_kappa2_40")]


def test_bench_line_and_sweep_row_agree(tmp_path, capsys):
    """bench and a one-variant sweep of the same config print the same
    end-of-run values, and the CSV puts them between variant and
    convergence."""
    mesh = ["--set", "domain.nx=8", "--set", "domain.ny=4"]
    assert main(["bench", *mesh, "--set", "optimizer.max_iter=3",
                 "--out", str(tmp_path / "bench")]) == EXIT_NOT_CONVERGED
    line = dict(item.split("=") for item in capsys.readouterr().out.split())
    table = tmp_path / "table.csv"
    assert main(["sweep", "optimizer.max_iter=3", *mesh, "--out", str(tmp_path / "sweep"),
                 "--table", str(table)]) == EXIT_OK
    header, row = (r.split(",") for r in table.read_text().splitlines())
    assert header == ["variant", "iterations", "compliance", "m_chi", "objective",
                      "max_von_mises", "sigma_pn", "convergence"]
    swept = dict(zip(header, row))
    shared = line.keys() & swept.keys()
    assert shared == set(header[1:-1])
    assert {k: line[k] for k in shared} == {k: swept[k] for k in shared}
    assert line["converged"] == "no" and swept["convergence"] == "NO"


def test_sweep_bad_spec(capsys):
    assert main(["sweep", "kappa2"]) == EXIT_ERROR
    assert "sweep spec" in capsys.readouterr().err


def test_sweep_empty_value_list(monkeypatch, capsys):
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config, outdir: pytest.fail("a variant was run"))
    assert main(["sweep", "optimizer.kappa2=,"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: sweep value list is empty\n"


def test_an_unexpected_error_is_logged_with_its_traceback(tmp_path, monkeypatch, capsys,
                                                         caplog):
    def fail(self, callback=None):
        raise RuntimeError("solver exploded")
    monkeypatch.setattr("gradtopo.optimizer.Optimizer.run", fail)
    assert main(["run", *TINY, "--out", str(tmp_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: solver exploded\n"
    [record] = [r for r in caplog.records if r.getMessage() == "run failed"]
    assert record.exc_info[0] is RuntimeError


@pytest.mark.parametrize("spec", ["optimizer.kappa2 =40,4000",
                                  "optimizer.kappa2=40, 4000"])
def test_sweep_names_directories_from_the_stripped_key_and_value(
        tmp_path, monkeypatch, spec):
    seen = []
    state = SimpleNamespace(iter=3, compliance=1.0, m_chi=0.5, objective=2.0,
                            aggregate=SimpleNamespace(sigma_e=np.ones(2), sigma_pn=0.9),
                            converged=True)
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config, outdir: seen.append((config, outdir)) or (state, []))
    out = str(tmp_path / "sweep")
    assert main(["sweep", spec, "--out", out]) == EXIT_OK
    assert [outdir for _, outdir in seen] == [
        os.path.join(out, "optimizer_kappa2_40"),
        os.path.join(out, "optimizer_kappa2_4000")]
    assert [config.kappa2 for config, _ in seen] == [40.0, 4000.0]


@pytest.mark.parametrize("spec, extra, shared", [
    ("optimizer.kappa2=40,40", [], "optimizer_kappa2_40"),
    ("optimizer.kappa2=40, 40 ", [], "optimizer_kappa2_40"),
    ("optimizer.kappa2=4.0,4_0", [], "optimizer_kappa2_4_0"),
    ("beta=1,2", ["--reference-beta1"], "beta_1"),
], ids=["repeat", "repeat-spaced", "dot-underscore", "reference"])
def test_sweep_refuses_variants_that_share_a_directory(monkeypatch, capsys, spec,
                                                       extra, shared):
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config, outdir: pytest.fail("a variant was run"))
    assert main(["sweep", spec, *extra]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: sweep variants share an output directory: {shared}\n"


@pytest.mark.parametrize("value", ["VERBOSE", "basic_format", "10"])
def test_unknown_log_level_is_refused(monkeypatch, capsys, value):
    monkeypatch.setenv("GRADTOPO_LOG", value)
    monkeypatch.setattr("gradtopo.cli.cmd_validate",
                        lambda args: pytest.fail("the command was run"))
    assert main(["validate"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: GRADTOPO_LOG must be one of DEBUG, INFO, ")
    assert repr(value) in err and "Traceback" not in err


@pytest.mark.parametrize("level, progress", [(None, True), ("WARNING", False)])
def test_log_level_gates_the_progress_lines(tmp_path, level, progress):
    env = {k: v for k, v in os.environ.items() if k != "GRADTOPO_LOG"}
    if level is not None:
        env["GRADTOPO_LOG"] = level
    proc = subprocess.run([sys.executable, "-m", "gradtopo.cli", "bench", *TINY,
                           "--set", "optimizer.max_iter=50", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_NOT_CONVERGED
    assert ("iter=" in proc.stderr) == progress
    assert proc.stderr.count("iter=") == int(progress)   # iteration 50 only
    assert "iterations=50" in proc.stdout


@pytest.mark.parametrize("first, second", [("INFO", "WARNING"), ("WARNING", "INFO")])
def test_log_level_is_read_on_every_call(tmp_path, monkeypatch, caplog, first, second):
    """Each main call in one process logs at its own GRADTOPO_LOG."""
    argv = ["bench", *TINY, "--set", "optimizer.max_iter=50"]
    for run, level in enumerate((first, second)):
        caplog.clear()
        monkeypatch.setenv("GRADTOPO_LOG", level)
        assert main([*argv, "--out", str(tmp_path / str(run))]) == EXIT_NOT_CONVERGED
        assert ("iter=" in caplog.text) == (level == "INFO")


def test_console_script_installed(tmp_path):
    # end-to-end through the installed entry point
    proc = subprocess.run([sys.executable, "-m", "gradtopo.cli", "validate",
                           "--config", write_cfg(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def test_bench_applies_seed(monkeypatch):
    seen = []
    state = SimpleNamespace(iter=1, compliance=1.0, m_chi=0.5, objective=2.0,
                            aggregate=SimpleNamespace(sigma_e=np.ones(2), sigma_pn=0.9),
                            converged=True)
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config, outdir, callback: seen.append(config)
                        or (state, [SimpleNamespace(wall_time=1.0)]))
    assert main(["bench", "--set", "optimizer.seed=7",
                 "--set", "optimizer.max_iter=1"]) == EXIT_OK
    assert seen[0].seed == 7
    assert seen[0].max_iter == 1
    assert seen[0].perturb > 0.0          # still the benchmark scenario


@pytest.mark.parametrize("config", [False, True], ids=["builtin", "config"])
def test_bench_is_run(tmp_path, capsys, config):
    """bench is another name for run: with or without --config, the two write
    the same bytes."""
    argv = [*TINY, *(["--config", write_cfg(tmp_path)] if config else [])]
    run, bench = tmp_path / "run", tmp_path / "bench"
    assert main(["run", *argv, "--out", str(run)]) == EXIT_NOT_CONVERGED
    assert main(["bench", *argv, "--out", str(bench)]) == EXIT_NOT_CONVERGED
    for name in ("history.csv", "fields.vtk", "fields.npz"):
        assert (run / name).read_bytes() == (bench / name).read_bytes(), name


def test_validate_dump_without_config_is_the_cantilever(capsys):
    """The dump of the built-in cantilever is a complete config file."""
    assert main(["validate", "--dump"]) == EXIT_OK
    assert loads_config(capsys.readouterr().out) == RunConfig()


@pytest.mark.parametrize("override, name", [
    ("optimizer.seed=-1", "seed"),
    ("optimizer.perturb=-0.1", "perturb"),
    ("domain.traction_center=500", "traction_center"),
    ("domain.traction_center=-11", "traction_center"),
    ("domain.traction_length=0", "traction_length"),
    ("domain.traction_length=nan", "traction_length"),
    ("domain.traction_length=inf", "traction_length"),
    ("domain.traction_center=nan", "traction_center"),
    ("domain.traction_center=inf", "traction_center"),
    ("optimizer.kappa1=nan", "kappa1"),
    ("optimizer.kappa2=inf", "kappa2"),
    ("optimizer.kappa3=nan", "kappa3"),
    ("optimizer.kappa4=inf", "kappa4"),
    ("optimizer.kappa5=inf", "kappa5"),
    ("domain.traction_x=inf", "traction_x"),
    ("domain.traction_y=nan", "traction_y"),
    ("domain.body_fx=nan", "body_fx"),
    ("domain.body_fy=inf", "body_fy"),
    ("domain.fixed_void=nan,0,10,10", "fixed_void"),
    ("domain.fixed_solid=0,0,10,inf", "fixed_solid"),
], ids=["seed", "perturb", "strip-above", "strip-below", "strip-length",
        "strip-length-nan", "strip-length-inf", "strip-center-nan", "strip-center-inf",
        "kappa1-nan", "kappa2-inf", "kappa3-nan", "kappa4-inf", "kappa5-inf",
        "traction_x-inf", "traction_y-nan", "body_fx-nan", "body_fy-inf",
        "fixed_void-nan", "fixed_solid-inf"])
def test_run_rejects_unusable_values(tmp_path, capsys, caplog, override, name):
    out = tmp_path / "out"
    code = main(["bench", *TINY, "--set", override, "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == ["error: invalid configuration:"]
    assert f"  {name}: " in err
    # the one violation names the field that was set
    assert [line.split(":")[0].strip() for line in err.splitlines()
            if line.startswith("  ")] == [name]
    assert "run failed" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["bench"], ["sweep", "optimizer.kappa2=40"],
                                  ["validate"], ["export-stl", "--snapshot", "fields.npz"]],
                         ids=["run", "bench", "sweep", "validate", "export-stl"])
def test_seed_flag_refused(capsys, argv):
    """The seed is set as optimizer.seed=N with --set, on every command."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_validate_takes_no_out(tmp_path, capsys):
    """validate writes no file, so an --out would be silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", write_cfg(tmp_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def readme_commands():
    """Each `gradtopo ...` line of README's sh blocks, shlex-split, without
    the command name and a trailing `> file`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gradtopo"]:
                commands.append(argv[1:argv.index(">")] if ">" in argv else argv[1:])
    return commands


def test_readme_commands_parse(capsys):
    """README's commands stand in for scripts, so a renamed or removed flag
    they use fails here."""
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `gradtopo {shlex.join(argv)}` does not parse: "
                        f"{capsys.readouterr().err}")
