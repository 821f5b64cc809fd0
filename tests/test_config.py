import textwrap

import pytest

from gradtopo.config import (Box, ConfigError, RunConfig, apply_overrides,
                             cantilever_config, load_config, loads_config,
                             serialize, validate)
from gradtopo.optimizer import Optimizer

CANTILEVER_CFG = textwrap.dedent("""\
    [domain]
    width = 200
    height = 100
    nx = 100
    ny = 50
    traction_x = 0
    traction_y = -600

    [material]
    youngs_modulus = 12500
    poisson = 0.25
    beta = 0.16666666666666666
    gamma_phi = 0.01

    [optimizer]
    volume_fraction = 0.8
    kappa1 = 400
    kappa2 = 4000
    kappa3 = 1
    kappa4 = 1
    tau = 1e-6

    [stress]
    yield_stress = 45
    """)


def test_load_cantilever_values(tmp_path):
    path = tmp_path / "cantilever.cfg"
    path.write_text(CANTILEVER_CFG)
    cfg = load_config(str(path))
    assert cfg.domain_width == 200
    assert cfg.domain_height == 100
    assert cfg.traction == (0, -600)
    assert cfg.volume_fraction == 0.8
    assert cfg.youngs_modulus == 12500
    assert cfg.poisson == 0.25
    assert cfg.yield_stress == 45
    assert cfg.beta == pytest.approx(1 / 6)
    assert cfg.gamma_phi == 0.01
    assert cfg.kappa1 == 400
    assert cfg.kappa2 == 4000
    assert cfg.kappa3 == 1 and cfg.kappa4 == 1
    assert cfg.tau == 1e-6


def test_default_pnorm_p_is_8():
    cfg = loads_config("[domain]\nnx = 4\nny = 2\n")
    assert cfg.pnorm_p == 8


def test_volume_fraction_out_of_bounds_names_field():
    with pytest.raises(ConfigError, match="volume_fraction"):
        loads_config("[optimizer]\nvolume_fraction = 1.2\n")


def test_parse_error_reports_diagnostic(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not an ini file [ at all\n= = =")
    with pytest.raises(ConfigError, match="parse failure"):
        load_config(str(path))


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        loads_config("[optimizer]\nwarp_factor = 9\n")


# keys of deleted variants: the Jacobi-PCG solve, the printed-sign double-well
# right-hand side, the unnormalized p-norm and the STL settings that
# export-stl takes as flags
REMOVED_KEYS = ["optimizer.solver=pcg", "optimizer.linear_tol=1e-8",
                "optimizer.literal_rhs=true", "stress.normalized=false",
                "output.chi_threshold=0.4", "output.extrude_height=5",
                "material.literal_km=true", "optimizer.stabilization=0",
                "optimizer.chi_solver=clamp"]


@pytest.mark.parametrize("item", REMOVED_KEYS)
def test_removed_key_rejected(item):
    lhs, value = item.split("=")
    section, key = lhs.split(".")
    message = rf"unknown key \[{section}\] {key}"
    with pytest.raises(ConfigError, match=message):
        apply_overrides(cantilever_config(), [item])
    with pytest.raises(ConfigError, match=message):
        loads_config(f"[{section}]\n{key} = {value}\n")


def test_validate_ok_on_benchmark():
    assert validate(cantilever_config()) == []


def test_validate_beta_zero():
    cfg = RunConfig(beta=0.0)
    violations = validate(cfg)
    assert any("beta" in v for v in violations)


def test_validate_overlapping_fixed_regions():
    cfg = RunConfig(fixed_void=(Box(0, 0, 50, 50),),
                    fixed_solid=(Box(25, 25, 75, 75),))
    violations = validate(cfg)
    assert any("overlap" in v for v in violations)


def test_validate_touching_fixed_regions():
    """Regions are closed boxes: nodes on a shared edge would be both frozen
    void and frozen solid."""
    cfg = RunConfig(mesh_nx=8, mesh_ny=4, fixed_void=(Box(0, 0, 50, 100),),
                    fixed_solid=(Box(50, 0, 100, 100),))
    assert any("overlap" in v for v in validate(cfg))
    corner = RunConfig(fixed_void=(Box(0, 0, 50, 50),),
                       fixed_solid=(Box(50, 50, 100, 100),))
    assert any("overlap" in v for v in validate(corner))


def test_validate_accepts_a_strip_that_overhangs_the_edge():
    assert validate(RunConfig(traction_center=98.0, traction_length=10.0)) == []


def test_disjoint_fixed_regions_ok():
    cfg = RunConfig(fixed_void=(Box(0, 0, 10, 10),),
                    fixed_solid=(Box(50, 50, 60, 60),))
    assert validate(cfg) == []


def test_round_trip_identity():
    cfg = cantilever_config(mesh_nx=17, mesh_ny=9, kappa2=40.0,
                            fixed_solid=(Box(0, 0, 5, 100),),
                            safeguard=True, perturb=0.01, seed=3)
    again = loads_config(serialize(cfg))
    assert again == cfg
    assert loads_config(serialize(again)) == again


def test_apply_overrides():
    cfg = cantilever_config()
    out = apply_overrides(cfg, ["optimizer.kappa2=400000", "material.beta=1"])
    assert out.kappa2 == 400000
    assert out.beta == 1.0
    # original untouched
    assert cfg.kappa2 == 4000


def test_apply_overrides_rejects_bad_shape():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(cantilever_config(), ["kappa2:40"])


def test_optimizer_rejects_an_invalid_config():
    with pytest.raises(ConfigError, match="poisson"):
        Optimizer(RunConfig(poisson=0.7))


def test_apply_overrides_validates():
    with pytest.raises(ConfigError, match="poisson"):
        apply_overrides(cantilever_config(), ["material.poisson=0.7"])


def test_effective_defaults():
    cfg = cantilever_config()
    assert cfg.traction_length_eff == pytest.approx(10.0)
    assert cfg.traction_center_eff == pytest.approx(50.0)
    assert cfg.gamma_chi_eff == cfg.gamma_phi
    cfg2 = cantilever_config(gamma_chi=0.5, traction_length=4.0)
    assert cfg2.gamma_chi_eff == 0.5
    assert cfg2.traction_length_eff == 4.0
