import dataclasses
import textwrap

import numpy as np
import pytest

import reference
from gradtopo.config import (_SCHEMA, Box, ConfigError, RunConfig, apply_overrides,
                             cantilever_config, load_config, loads_config, serialize)

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
    assert (cfg.traction_x, cfg.traction_y) == (0, -600)
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
    """A key that a file leaves out takes RunConfig's default."""
    cfg = loads_config("[domain]\nnx = 4\nny = 2\n")
    assert cfg.pnorm_p == 8
    assert cfg == cantilever_config(mesh_nx=4, mesh_ny=2)


def test_volume_fraction_out_of_bounds_names_field():
    with pytest.raises(ConfigError, match="volume_fraction"):
        loads_config("[optimizer]\nvolume_fraction = 1.2\n")


def test_parse_error_reports_diagnostic(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not an ini file [ at all\n= = =")
    with pytest.raises(ConfigError, match="parse failure"):
        load_config(str(path))


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nkappa2 = 40\n",
    "[DEFAULT]\nnx = 8\n[optimizer]\nkappa2 = 40\n",
], ids=["alone", "with-a-section"])
def test_default_section_is_refused(text):
    """configparser would copy [DEFAULT]'s keys into every section, or drop
    them when there is no other section."""
    with pytest.raises(ConfigError, match=r"^a \[DEFAULT\] section is not supported"):
        loads_config(text)


def test_values_are_not_interpolated():
    """A '%' is part of the value: '%(x)s' is an unparsable float, not a
    lookup of the option x."""
    with pytest.raises(ConfigError, match=r"^\[optimizer\] kappa2: .*'%\(x\)s'"):
        loads_config("[optimizer]\nkappa2 = %(x)s\n")
    with pytest.raises(ConfigError, match=r"^\[optimizer\] kappa2: .*'40%'"):
        loads_config("[optimizer]\nkappa2 = 40%\n")


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        loads_config("[optimizer]\nwarp_factor = 9\n")


# keys of deleted variants: the Jacobi-PCG solve, the printed-sign double-well
# right-hand side, the unnormalized p-norm, the STL settings that export-stl
# takes as flags, the tau-halving loop, and the output directory and progress
# cadence (--out and GRADTOPO_LOG)
REMOVED_KEYS = ["optimizer.solver=pcg", "optimizer.linear_tol=1e-8",
                "optimizer.literal_rhs=true", "stress.normalized=false",
                "output.chi_threshold=0.4", "output.extrude_height=5",
                "material.literal_km=true", "optimizer.stabilization=0",
                "optimizer.chi_solver=clamp", "optimizer.safeguard=true",
                "output.directory=runs", "output.log_every=1"]


@pytest.mark.parametrize("item", REMOVED_KEYS)
def test_removed_key_rejected(item):
    lhs, value = item.split("=")
    section, key = lhs.split(".")
    message = rf"unknown key \[{section}\] {key}"
    with pytest.raises(ConfigError, match=message):
        apply_overrides(cantilever_config(), [item])
    with pytest.raises(ConfigError, match=message):
        loads_config(f"[{section}]\n{key} = {value}\n")


def violations(**fields) -> list[str]:
    """The violations that the ConfigError of building a RunConfig from
    fields lists, one a line."""
    with pytest.raises(ConfigError) as exc:
        RunConfig(**fields)
    head, *lines = str(exc.value).split("\n  ")
    assert head == "invalid configuration:"
    return lines


def test_validate_ok_on_benchmark():
    assert cantilever_config() == RunConfig()       # builds: the defaults are valid


def test_validate_beta_zero():
    assert any("beta" in v for v in violations(beta=0.0))


def test_validate_overlapping_fixed_regions():
    found = violations(fixed_void=(Box(0, 0, 50, 50),), fixed_solid=(Box(25, 25, 75, 75),))
    assert any("overlap" in v for v in found)


def test_validate_touching_fixed_regions():
    """Regions are closed boxes: nodes on a shared edge would be both frozen
    void and frozen solid."""
    edge = violations(mesh_nx=8, mesh_ny=4, fixed_void=(Box(0, 0, 50, 100),),
                      fixed_solid=(Box(50, 0, 100, 100),))
    assert any("overlap" in v for v in edge)
    corner = violations(fixed_void=(Box(0, 0, 50, 50),),
                        fixed_solid=(Box(50, 50, 100, 100),))
    assert any("overlap" in v for v in corner)


def test_validate_accepts_a_strip_that_overhangs_the_edge():
    assert RunConfig(traction_center=98.0, traction_length=10.0).traction_center == 98.0


def test_disjoint_fixed_regions_ok():
    cfg = RunConfig(fixed_void=(Box(0, 0, 10, 10),),
                    fixed_solid=(Box(50, 50, 60, 60),))
    assert len(cfg.fixed_void) == len(cfg.fixed_solid) == 1


def test_round_trip_identity():
    """numpy numbers are written as the Python numbers they equal."""
    cfg = cantilever_config(mesh_nx=np.int64(17), mesh_ny=9, kappa2=np.float64(40.0),
                            fixed_solid=(Box(0, 0, 5, 100),),
                            perturb=0.01, seed=np.int64(3))
    text = serialize(cfg)
    assert "nx = 17" in text and "kappa2 = 40.0" in text and "seed = 3" in text
    again = loads_config(text)
    assert again == cfg
    assert loads_config(serialize(again)) == again


def test_schema_covers_every_field():
    """Each RunConfig field has exactly one INI key, and each key names a
    field."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    keyed = [fieldname for fieldname, _ in _SCHEMA.values()]
    assert sorted(keyed) == sorted(names)


# a valid value away from the default for every RunConfig field; floats that
# need all 17 digits, so that serialize must write them exactly
EVERY_FIELD = dict(
    domain_width=150.0, domain_height=80.0, mesh_nx=17, mesh_ny=9,
    traction_x=0.5, traction_y=-40.0, traction_length=12.0,
    traction_center=30.0 + 1 / 3, thickness=2.5, body_fx=0.01, body_fy=-0.05,
    fixed_void=(Box(0, 0, 5 + 1 / 3, 80),),
    fixed_solid=(Box(140, 30, 150, 50), Box(100, 0, 110, 1 / 7)),
    youngs_modulus=1000.0, poisson=0.3, beta=1 / 3, gamma_phi=0.5, gamma_chi=1e-3,
    ersatz=0.02, volume_fraction=0.6, kappa1=30.0, kappa2=40.0, kappa3=0.5,
    kappa4=2.0, kappa5=0.0, tau=2e-3, tau_chi=1e-7 / 3, max_iter=80, tol=0.03,
    seed=3, perturb=0.01, pnorm_p=6, yield_stress=44.0)


def test_round_trip_with_every_field_set():
    default = RunConfig()
    assert set(EVERY_FIELD) == {f.name for f in dataclasses.fields(RunConfig)}
    assert all(value != getattr(default, name) for name, value in EVERY_FIELD.items())
    cfg = cantilever_config(**EVERY_FIELD)
    assert loads_config(serialize(cfg)) == cfg


def test_apply_overrides():
    cfg = cantilever_config()
    out = apply_overrides(cfg, ["optimizer.kappa2=400000", "material.beta=1"])
    assert out.kappa2 == 400000
    assert out.beta == 1.0
    assert out == dataclasses.replace(cfg, kappa2=400000.0, beta=1.0)
    # original untouched
    assert cfg.kappa2 == 4000


@pytest.mark.parametrize("key", ["traction_x", "traction_y", "body_fx", "body_fy"])
def test_load_key_sets_only_its_own_field(key):
    """An override of one load component keeps every other field of the
    config it overrides; a file's other components are the defaults."""
    base = cantilever_config(body_fx=0.03, body_fy=-0.05)
    for start, out in ((base, apply_overrides(base, [f"domain.{key}=7"])),
                       (RunConfig(), loads_config(f"[domain]\n{key} = 7\n"))):
        assert out == dataclasses.replace(start, **{key: 7.0})
    both = apply_overrides(base, [f"domain.{key}=7", f"domain.{key}=8"])
    assert both == dataclasses.replace(base, **{key: 8.0})


def test_apply_overrides_rejects_bad_shape():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(cantilever_config(), ["kappa2:40"])


def test_an_invalid_config_cannot_be_built():
    """The constructor checks a RunConfig, and dataclasses.replace goes
    through it."""
    with pytest.raises(ConfigError, match="poisson"):
        RunConfig(**reference.UNCALIBRATED, poisson=0.7)
    with pytest.raises(ConfigError, match="poisson"):
        dataclasses.replace(RunConfig(), poisson=0.7)


def test_apply_overrides_validates():
    with pytest.raises(ConfigError, match="poisson"):
        apply_overrides(cantilever_config(), ["material.poisson=0.7"])


@pytest.mark.parametrize("item, error", [
    ("domain.width=0", "domain_width: must be > 0"),
    ("domain.height=nan", "domain_height: must be > 0"),
    ("domain.thickness=-1", "thickness: must be > 0"),
    ("material.youngs_modulus=inf", "youngs_modulus: must be > 0"),
    ("material.gamma_phi=0", "gamma_phi: must be > 0"),
    ("material.gamma_chi=nan", "gamma_chi: must be > 0"),
    ("material.ersatz=-0.01", "ersatz: must be > 0"),
    ("optimizer.tau=inf", "tau: must be > 0"),
    ("optimizer.tau_chi=0", "tau_chi: must be > 0"),
    ("optimizer.tol=nan", "tol: must be > 0"),
    ("stress.yield_stress=-41", "yield_stress: must be > 0"),
    ("domain.nx=0", "mesh_nx: must be >= 1"),
    ("domain.ny=-1", "mesh_ny: must be >= 1"),
    ("stress.pnorm_p=1", "pnorm_p: must be an integer >= 2"),
    ("optimizer.max_iter=0", "max_iter: must be >= 1"),
    ("[domain]\nfixed_void = 10,0,5,10\n", "fixed_void: empty box"),
    ("[domain]\nfixed_solid = 0,0,10,10; ;1,2,3\n", "fixed_solid: box needs 4 numbers"),
], ids=["width-0", "height-nan", "thickness-neg", "youngs-inf", "gamma_phi-0",
        "gamma_chi-nan", "ersatz-neg", "tau-inf", "tau_chi-0", "tol-nan",
        "yield-neg", "nx-0", "ny-neg", "pnorm_p-1", "max_iter-0", "box-empty",
        "box-3-numbers"])
def test_each_config_rule_names_its_field(item, error):
    """An override, or a config text for the box strings, that breaks one
    rule gives a ConfigError naming the field (an empty `;` part is skipped,
    so the 3-number box is the one refused)."""
    with pytest.raises(ConfigError) as exc:
        if item.startswith("["):
            loads_config(item)
        else:
            apply_overrides(RunConfig(), [item])
    assert error in str(exc.value)


def test_effective_defaults():
    """The load strip is centred on the loaded edge unless placed; no other
    default follows another field."""
    cfg = cantilever_config()
    assert cfg.traction_center is None
    assert cfg.traction_center_eff == pytest.approx(50.0)
    assert cantilever_config(domain_height=60.0).traction_center_eff == pytest.approx(30.0)
    assert cantilever_config(traction_center=20.0).traction_center_eff == 20.0
    moved = cantilever_config(gamma_phi=0.5, tau=1e-4, domain_height=60.0)
    for name in ("gamma_chi", "ersatz", "tau_chi", "traction_length"):
        assert getattr(moved, name) == getattr(cfg, name), name
