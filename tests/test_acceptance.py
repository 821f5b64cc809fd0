"""End-to-end acceptance tests for the built-in cantilever benchmark.

The kappa2 sweep (single material plus kappa2 in {40, 4000, 400000}) on the
100x50 mesh is expensive, so all four runs are shared through one
module-scoped fixture; the whole module stays well inside a ten-minute
budget on a laptop-class CPU.  The tests that read the sweep are marked
`slow`: `pytest -m "not slow"` skips the sweep.
"""

import os

import numpy as np
import pytest

import reference
from gradtopo import export, stress
from gradtopo.config import cantilever_config
from gradtopo.mesh import build_rect_mesh
from gradtopo.optimizer import Optimizer

# calibration targets for the kappa2 sweep (reference compliance / m_chi)
REF_COMPLIANCE = {"single": 3130.0, "400000": 3762.0, "4000": 4166.0}
REF_M_CHI = {"400000": 0.673, "4000": 0.527}

VARIANTS = {
    "single": dict(beta=1.0),
    "4000": dict(kappa2=4000.0),
    "400000": dict(kappa2=400000.0),
    "40": dict(kappa2=40.0),
}


@pytest.fixture(scope="module")
def bench():
    """Run the four benchmark variants once, recording per-iteration checks."""
    out = {}
    for name, kw in VARIANTS.items():
        cfg = cantilever_config(**kw)
        opt = Optimizer(cfg)
        checks = {"vol_rel_max": 0.0, "bounds_ok": True}

        def watch(state, rec, checks=checks, opt=opt, graded=name != "single"):
            rel = abs(state.volume_presnap - opt.volume_target) / opt.volume_target
            checks["vol_rel_max"] = max(checks["vol_rel_max"], rel)
            ok = bool(np.all(state.phi >= 0.0) and np.all(state.phi <= 1.0))
            if graded:
                ok &= bool(np.all(state.chi >= 0.0)
                           and np.all(state.chi <= state.phi))
            checks["bounds_ok"] &= ok

        state, history = opt.run(callback=watch)
        out[name] = dict(config=cfg, opt=opt, state=state, history=history,
                         **checks)
    return out


# --- benchmark sweep: orderings, bands, convergence pattern -----------------

@pytest.mark.slow
def test_sweep_compliance_ordering(bench):
    c = {k: bench[k]["state"].compliance for k in ("single", "400000", "4000")}
    assert c["single"] < c["400000"] < c["4000"]


@pytest.mark.slow
def test_sweep_material_fraction_ordering(bench):
    assert bench["400000"]["state"].m_chi > bench["4000"]["state"].m_chi


@pytest.mark.slow
def test_single_material_fraction_exact(bench):
    assert bench["single"]["state"].m_chi == pytest.approx(0.8, abs=1e-12)


@pytest.mark.slow
def test_sweep_compliance_bands(bench):
    for name, ref in REF_COMPLIANCE.items():
        c = bench[name]["state"].compliance
        assert abs(c - ref) / ref <= 0.35, f"{name}: compliance {c} vs {ref}"


@pytest.mark.slow
def test_sweep_material_fraction_bands(bench):
    for name, ref in REF_M_CHI.items():
        m = bench[name]["state"].m_chi
        assert abs(m - ref) <= 0.15, f"{name}: m_chi {m} vs {ref}"


@pytest.mark.slow
def test_graded_runs_converge(bench):
    assert bench["4000"]["state"].converged
    assert bench["400000"]["state"].converged


@pytest.mark.slow
def test_kappa2_40_fails_without_safeguard(bench):
    # the weakly-penalized run is expected to stall in a chi oscillation:
    # either it never meets the tolerance, or delta_chi is still above it
    state = bench["40"]["state"]
    tol = bench["40"]["config"].tol
    assert (not state.converged) or state.delta_chi > tol


# --- volume constraint and bound projection ---------------------------------

@pytest.mark.slow
def test_pre_projection_volume_every_iteration(bench):
    for name in ("4000", "400000", "40", "single"):
        assert bench[name]["vol_rel_max"] <= 1e-9, name


@pytest.mark.slow
def test_final_volume_within_five_percent(bench):
    for name in ("4000", "400000", "single"):
        opt, state = bench[name]["opt"], bench[name]["state"]
        vol = float(opt.weights @ state.phi)
        assert abs(vol - opt.volume_target) / opt.volume_target <= 0.05, name


@pytest.mark.slow
def test_bounds_invariant_every_iteration(bench):
    for name in ("4000", "400000", "40", "single"):
        assert bench[name]["bounds_ok"], name


# --- adjoint oracle ----------------------------------------------------------

def interior_fields(opt, seed):
    rng = np.random.default_rng(seed)
    phi = 0.3 + 0.5 * rng.random(opt.mesh.node_count)
    chi = phi * (0.2 + 0.6 * rng.random(opt.mesh.node_count))
    return phi, chi


def test_adjoint_identity_on_benchmark_mesh():
    # f = 0, kappa4 = 1, kappa5 = 0: the adjoint system equals the state system
    cfg = cantilever_config(kappa5=0.0)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=3)
    x = opt.state_solve(phi, chi)
    U = opt.adjoint_solve(x)
    assert np.linalg.norm(U - x.u) / np.linalg.norm(x.u) <= 1e-8


def test_phi_gradient_oracle_ten_directions():
    # kappa5 = 1: stress active
    cfg = cantilever_config(**reference.UNCALIBRATED, mesh_nx=4, mesh_ny=2)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=5)
    x = opt.state_solve(phi, chi)
    g = opt.gradient(x, opt.adjoint_solve(x))[0]
    h = 1e-6
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (opt.state_solve(phi + h * d, chi).objective
              - opt.state_solve(phi - h * d, chi).objective) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, rel=1e-4)


# --- FEM verification --------------------------------------------------------

def test_tip_deflection_matches_timoshenko():
    # full-material cantilever, uniform end shear over the whole right edge
    cfg = cantilever_config(**{**reference.UNCALIBRATED, "mesh_nx": 200, "mesh_ny": 100,
                               "traction_y": -1.0, "traction_length": 100.0,
                               "kappa5": 0.0})
    opt = Optimizer(cfg)
    ones = np.ones(opt.mesh.node_count)
    u = opt.state_solve(ones, ones).u
    x = opt.mesh.nodes[:, 0]
    uy_tip = float(np.mean(u[1::2][x == cfg.domain_width]))
    E, nu, t = cfg.youngs_modulus, cfg.poisson, cfg.thickness
    L, H = cfg.domain_width, cfg.domain_height
    P = 1.0 * H * t
    I = t * H ** 3 / 12.0
    G = E / (2.0 * (1.0 + nu))
    kappa = 10.0 * (1.0 + nu) / (12.0 + 11.0 * nu)   # shear coefficient
    delta = P * L ** 3 / (3.0 * E * I) + P * L / (kappa * G * H * t)
    assert uy_tip == pytest.approx(-delta, rel=0.10)


def test_patch_test_linear_field_exact():
    cfg = cantilever_config(mesh_nx=5, mesh_ny=3)
    mesh = build_rect_mesh(cfg)
    from gradtopo.material import MaterialModel, plane_stress_matrix
    mat = MaterialModel.from_config(cfg)
    ones = np.ones(mesh.node_count)
    K = reference.assemble_elastic_stiffness(mesh, mat, ones, ones)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = np.empty(2 * mesh.node_count)
    u[0::2] = 1e-3 * x + 4e-4 * y
    u[1::2] = -3e-4 * y + 2e-4 * x
    eps = np.array([1e-3, -3e-4, 4e-4 + 2e-4])
    sig = plane_stress_matrix(cfg.youngs_modulus, cfg.poisson) @ eps
    r = K @ u
    interior = np.flatnonzero((x > 0) & (x < cfg.domain_width)
                              & (y > 0) & (y < cfg.domain_height))
    assert len(interior) == 4 * 2
    scale = float(np.abs(r).max())
    for n in interior:
        assert abs(r[2 * n]) <= 1e-10 * scale
        assert abs(r[2 * n + 1]) <= 1e-10 * scale
    # recovered stress is the exact constant field
    sigma = reference.element_stress(mesh, mat, ones, ones, u)
    assert np.allclose(sigma, sig, rtol=1e-10)


# --- stress module -----------------------------------------------------------

def test_von_mises_closed_form():
    sigma = np.array([[45.0, 0.0, 0.0],        # uniaxial
                      [0.0, 0.0, 10.0],        # pure shear
                      [30.0, 30.0, 0.0],       # equibiaxial
                      [0.0, 0.0, 0.0]])
    vm = stress.von_mises(sigma)
    assert vm[0] == pytest.approx(45.0, rel=1e-14)
    assert vm[1] == pytest.approx(np.sqrt(3.0) * 10.0, rel=1e-14)
    assert vm[2] == pytest.approx(30.0, rel=1e-14)
    assert vm[3] == 0.0


def test_dF_dsigma_finite_difference():
    cfg = cantilever_config(mesh_nx=4, mesh_ny=2)
    mesh = build_rect_mesh(cfg)
    rng = np.random.default_rng(11)
    sigma = 40.0 * rng.standard_normal((mesh.element_count, 3))
    agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=8)
    h = 1e-5
    for _ in range(5):
        d = rng.standard_normal(sigma.shape)
        Fp = stress.pnorm_aggregate(sigma + h * d, mesh, 45.0, 8).F_value
        Fm = stress.pnorm_aggregate(sigma - h * d, mesh, 45.0, 8).F_value
        fd = (Fp - Fm) / (2 * h)
        assert float((agg.dF_dsigma * d).sum()) == pytest.approx(fd, rel=1e-5)


def test_pnorm_64_tracks_max_ratio():
    cfg = cantilever_config(mesh_nx=4, mesh_ny=2)
    mesh = build_rect_mesh(cfg)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sigma = 50.0 * rng.standard_normal((mesh.element_count, 3))
        rmax = stress.von_mises(sigma).max() / 45.0
        agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=64)
        assert agg.sigma_pn == pytest.approx(rmax, rel=0.05)


@pytest.mark.xfail(strict=False,
                   reason="soft check: the stress penalty keeps the p-norm "
                          "aggregate near the yield surface but the pointwise "
                          "maximum can overshoot it")
@pytest.mark.slow
def test_benchmark_max_stress_below_yield(bench):
    state = bench["4000"]["state"]
    sigma_y = bench["4000"]["config"].yield_stress
    assert float(stress.von_mises(state.sigma).max()) <= 1.05 * sigma_y


# --- export -----------------------------------------------------------------

@pytest.mark.slow
def test_final_design_stl_watertight(bench, tmp_path):
    opt, state = bench["4000"]["opt"], bench["4000"]["state"]
    caps = export.region_caps(state.phi, opt.mesh, 0.5)
    assert len(caps)
    path = str(tmp_path / "design.stl")
    export.extrude_to_stl(caps, 10.0, path)
    tris = reference.read_stl(path)
    counts = reference.stl_edge_use_counts(tris)
    assert counts and all(c == 2 for c in counts.values())
    area = reference.cap_area(caps)
    assert area > 0.0
    assert reference.stl_volume(tris) == pytest.approx(area * 10.0, rel=1e-6)


def test_prism_volume_analytic(tmp_path):
    height = 3.0
    path = str(tmp_path / "plate.stl")
    # the frame between [0,10]^2 and the hole [2,6]^2, as CCW triangles
    caps = [((0, 0), (10, 0), (6, 2)), ((0, 0), (6, 2), (2, 2)),
            ((10, 0), (10, 10), (6, 6)), ((10, 0), (6, 6), (6, 2)),
            ((10, 10), (0, 10), (2, 6)), ((10, 10), (2, 6), (6, 6)),
            ((0, 10), (0, 0), (2, 2)), ((0, 10), (2, 2), (2, 6))]
    export.extrude_to_stl(caps, height, path)
    tris = reference.read_stl(path)
    counts = reference.stl_edge_use_counts(tris)
    assert all(c == 2 for c in counts.values())
    expected = (100.0 - 16.0) * height
    assert reference.stl_volume(tris) == pytest.approx(expected, rel=1e-6)


# --- determinism -------------------------------------------------------------

def test_identical_runs_byte_identical_csv(tmp_path):
    cfg = cantilever_config(mesh_nx=20, mesh_ny=10, max_iter=10)
    paths = []
    for tag in ("a", "b"):
        state, history = Optimizer(cfg).run()
        path = os.path.join(tmp_path, f"history_{tag}.csv")
        export.write_history_csv(history, path)
        paths.append(path)
    with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
        assert f1.read() == f2.read()
