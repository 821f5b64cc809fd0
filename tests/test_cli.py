import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from gradtopo.cli import (EXIT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, build_parser,
                           main)
from gradtopo.config import apply_overrides, benchmark_config

TINY = ["--set", "domain.nx=8", "--set", "domain.ny=4",
        "--set", "optimizer.max_iter=3", "--set", "output.log_every=0"]


def write_cfg(tmp_path, body=""):
    path = tmp_path / "case.cfg"
    path.write_text("[domain]\nnx = 8\nny = 4\n" + body)
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


def test_validate_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[material]\npoisson = 0.9\n")
    assert main(["validate", "--config", cfg]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "poisson" in captured.out + captured.err


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
                 *TINY, "--out", stl_dir, "--threshold", "0.5", "--height", "4"])
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
                 *TINY, "--out", stl_dir, "--threshold", "0", "--height", "2"])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(stl_dir, "above.stl"))
    assert not os.path.exists(os.path.join(stl_dir, "below.stl"))


def test_export_stl_mesh_mismatch(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["bench", *TINY, "--out", out])
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 "--set", "domain.nx=5", "--set", "domain.ny=5",
                 "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    assert "mesh" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--height", "-1"), ("--height", "nan"),
                                         ("--height", "inf"), ("--threshold", "nan")],
                         ids=["height-1", "height-nan", "height-inf", "threshold-nan"])
def test_export_stl_bad_height(tmp_path, capsys, flag, value):
    out = str(tmp_path / "run")
    main(["bench", *TINY, "--out", out])
    stl_dir = tmp_path / "stl"
    code = main(["export-stl", "--snapshot", os.path.join(out, "fields.npz"),
                 *TINY, "--out", str(stl_dir), flag, value])
    assert code == EXIT_ERROR
    assert flag[2:] in capsys.readouterr().err
    assert not stl_dir.exists()


def export_fields(tmp_path, **fields):
    """Run export-stl on a snapshot of the given fields on the TINY mesh."""
    path = str(tmp_path / "snap.npz")
    np.savez(path, **fields)
    return main(["export-stl", "--snapshot", path, *TINY, "--out", str(tmp_path / "stl")])


TINY_NODES = 9 * 5


def test_export_stl_rejects_non_finite_snapshot(tmp_path, capsys):
    chi = np.full(TINY_NODES, 0.3)
    chi[20] = np.nan
    assert export_fields(tmp_path, phi=np.ones(TINY_NODES), chi=chi) == EXIT_ERROR
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "stl").exists()


@pytest.mark.parametrize("fields, error", [
    (dict(phi=np.ones(TINY_NODES), chi=np.full(TINY_NODES - 1, 0.3)),
     f"snapshot chi does not match the configured mesh size ({TINY_NODES} nodes)"),
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
    code = main(["export-stl", "--snapshot", path, *TINY, "--out", str(tmp_path / "stl")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: snapshot {path} is not an .npz archive\n"
    assert "run failed" not in caplog.text
    assert not (tmp_path / "stl").exists()


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
    rows = Path(table).read_text().splitlines()
    assert rows[0] == "variant,compliance,m_chi,convergence"
    assert len(rows) == 4   # header + 2 sweep values + beta=1 reference
    # every variant writes what run writes, so export-stl can read it
    for variant in ("optimizer_kappa2_40", "optimizer_kappa2_4000", "beta_1"):
        for name in ("history.csv", "fields.vtk", "fields.npz"):
            assert os.path.exists(os.path.join(out, variant, name))


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
    state = SimpleNamespace(compliance=1.0, m_chi=0.5, converged=True)
    monkeypatch.setattr("gradtopo.cli._optimize",
                        lambda config: seen.append(config) or (state, []))
    out = str(tmp_path / "sweep")
    assert main(["sweep", "optimizer.kappa2=40", "--out", out]) == EXIT_OK
    assert seen == [apply_overrides(benchmark_config(), [
        f"output.directory={os.path.join(out, 'optimizer_kappa2_40')}",
        "optimizer.kappa2=40"])]


def test_sweep_bad_spec(capsys):
    assert main(["sweep", "kappa2"]) == EXIT_ERROR
    assert "sweep spec" in capsys.readouterr().err


def test_console_script_installed(tmp_path):
    # end-to-end through the installed entry point
    proc = subprocess.run([sys.executable, "-m", "gradtopo.cli", "validate",
                           "--config", write_cfg(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def test_bench_applies_seed(monkeypatch):
    seen = []
    monkeypatch.setattr("gradtopo.cli._execute",
                        lambda config: seen.append(config) or EXIT_OK)
    assert main(["bench", "--seed", "7", "--set", "optimizer.max_iter=1"]) == EXIT_OK
    assert seen[0].seed == 7
    assert seen[0].max_iter == 1
    assert seen[0].perturb > 0.0          # still the benchmark scenario


def test_bench_rejects_config(tmp_path, capsys):
    assert main(["bench", "--config", write_cfg(tmp_path)]) == EXIT_ERROR
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("override, name", [
    ("optimizer.seed=-1", "seed"),
    ("optimizer.perturb=-0.1", "perturb"),
    ("domain.traction_center=500", "traction_center"),
    ("domain.traction_center=-11", "traction_center"),
], ids=["seed", "perturb", "strip-above", "strip-below"])
def test_run_rejects_unusable_values(tmp_path, capsys, caplog, override, name):
    out = tmp_path / "out"
    code = main(["bench", *TINY, "--set", override, "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == ["error: invalid configuration:"]
    assert f"  {name}: " in err
    assert "run failed" not in caplog.text
    assert not out.exists()


def test_export_stl_takes_no_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-stl", "--snapshot", str(tmp_path / "fields.npz"),
              "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "sweep", "validate"])
def test_seed_flag_registered(command):
    args = build_parser().parse_args([command, "--seed", "3"]
                                     + (["optimizer.kappa2=40"] if command == "sweep" else []))
    assert args.seed == 3


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
