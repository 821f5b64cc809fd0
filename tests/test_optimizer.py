import numpy as np
import pytest

from gradtopo import fem, stress
from gradtopo.config import Box, cantilever_config
from gradtopo.optimizer import Optimizer, initialize_fields, rescale, run


def small_config(**kw):
    args = dict(mesh_nx=4, mesh_ny=2, max_iter=3, write_vtk=False,
                write_csv=False)
    args.update(kw)
    return cantilever_config(**args)


def interior_fields(opt, seed=0):
    """Strictly interior random fields with 0 < chi < phi < 1."""
    rng = np.random.default_rng(seed)
    phi = 0.3 + 0.5 * rng.random(opt.mesh.node_count)
    chi = phi * (0.2 + 0.6 * rng.random(opt.mesh.node_count))
    return phi, chi


# --- initialization and clamping -------------------------------------------

def test_initialize_uniform():
    cfg = small_config()
    opt = Optimizer(cfg)
    phi, chi = initialize_fields(cfg, opt.mesh)
    assert np.all(phi == 0.8) and np.all(chi == 0.8)
    assert float(opt.weights @ phi) == pytest.approx(0.8 * opt.area, rel=1e-14)


def test_initialize_frozen_regions():
    cfg = small_config(fixed_void=(Box(0, 0, 50, 100),),
                       fixed_solid=(Box(150, 0, 200, 100),))
    opt = Optimizer(cfg)
    phi, chi = initialize_fields(cfg, opt.mesh)
    x = opt.mesh.nodes[:, 0]
    assert np.all(phi[x <= 50] == 0.0)
    assert np.all(phi[x >= 150] == 1.0)
    assert np.all(chi <= phi)


def test_initialize_noise_deterministic():
    cfg = small_config(perturb=0.05, seed=4)
    opt = Optimizer(cfg)
    phi1, _ = initialize_fields(cfg, opt.mesh)
    phi2, _ = initialize_fields(cfg, opt.mesh)
    assert np.array_equal(phi1, phi2)
    assert np.any(phi1 != 0.8)
    assert np.all((phi1 >= 0.0) & (phi1 <= 1.0))


def test_rescale_clamps_and_is_idempotent():
    v = np.array([-0.5, 0.2, 0.8, 1.7])
    out = rescale(v, 0.0, 1.0)
    assert np.array_equal(out, [0.0, 0.2, 0.8, 1.0])
    assert np.array_equal(rescale(out, 0.0, 1.0), out)
    # array bounds (frozen regions)
    lo = np.array([0.0, 0.5, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 0.1, 1.0])
    assert np.array_equal(rescale(v, lo, hi), [0.0, 0.5, 0.1, 1.0])


# --- the staggered step -----------------------------------------------------

def test_pre_projection_volume_exact():
    cfg = small_config()
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt)
    u, sigma, solve = opt.state_solve(phi, chi)
    agg = opt.aggregate_of(sigma)
    U = opt.adjoint_solve(phi, chi, agg, solve)
    phi_star, chi_star, lam = opt.phase_field_step(phi, chi, u, U, agg)
    vol = float(opt.weights @ phi_star)
    assert abs(vol - opt.volume_target) / opt.volume_target <= 1e-9


def test_adjoint_identity_without_stress_or_body():
    """With f = 0, kappa4 = 1, kappa5 = 0 the adjoint equals the state."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, kappa5=0.0)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=2)
    u, sigma, solve = opt.state_solve(phi, chi)
    U = opt.adjoint_solve(phi, chi, opt.aggregate_of(sigma), solve)
    assert np.linalg.norm(U - u) / np.linalg.norm(u) <= 1e-8


def test_phi_gradient_finite_difference():
    cfg = small_config()   # kappa5 = 1: stress term active
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=5)
    g = opt.phi_gradient(phi, chi)
    h = 1e-6
    rng = np.random.default_rng(99)
    for _ in range(5):
        d = rng.standard_normal(opt.mesh.node_count)
        jp = opt.reduced_objective(phi + h * d, chi)
        jm = opt.reduced_objective(phi - h * d, chi)
        fd = (jp - jm) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, rel=1e-4)


def test_phi_gradient_with_body_force():
    cfg = small_config(body_force=(0.0, -0.05))
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=7)
    g = opt.phi_gradient(phi, chi)
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(3):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (opt.reduced_objective(phi + h * d, chi)
              - opt.reduced_objective(phi - h * d, chi)) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, rel=1e-4)


def test_chi_driving_matches_compliance_sensitivity():
    """For kappa5 = 0 the chi-driving field is minus d(compliance)/d(chi)."""
    cfg = small_config(kappa5=0.0)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=11)
    u, sigma, solve = opt.state_solve(phi, chi)
    agg = opt.aggregate_of(sigma)
    U = opt.adjoint_solve(phi, chi, agg, solve)
    _, q_sp = opt._mechanical_driving(phi, chi, u, U, agg)
    h = 1e-6
    rng = np.random.default_rng(13)
    for _ in range(3):
        d = rng.standard_normal(opt.mesh.node_count)
        up, _, _ = opt.state_solve(phi, chi + h * d)
        um, _, _ = opt.state_solve(phi, chi - h * d)
        fd = (opt.compliance_of(phi, up) - opt.compliance_of(phi, um)) / (2 * h)
        assert float(q_sp @ d) == pytest.approx(-fd, rel=1e-4)


def test_solvers_agree():
    cfg_d = small_config(solver="direct")
    cfg_p = small_config(solver="pcg", linear_tol=1e-12)
    od, op = Optimizer(cfg_d), Optimizer(cfg_p)
    phi, chi = interior_fields(od)
    ud, _, _ = od.state_solve(phi, chi)
    up, _, _ = op.state_solve(phi, chi)
    assert np.allclose(ud, up, rtol=1e-7, atol=1e-10)


# --- the loop ---------------------------------------------------------------

def test_run_reports_history_and_state():
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=5)
    state, history = run(cfg)
    assert len(history) == 5 and state.iter == 5
    assert not state.converged
    assert np.all(np.isfinite(state.phi)) and np.all(np.isfinite(state.u))
    assert np.all((state.phi >= 0.0) & (state.phi <= 1.0))
    assert np.all((state.chi >= 0.0) & (state.chi <= state.phi + 1e-15))
    assert 0.0 <= state.m_chi <= 1.0
    assert history[0].iter == 1 and history[-1].iter == 5
    for rec in history:
        assert np.isfinite(rec.objective) and np.isfinite(rec.lam)


def test_run_convergence_flag_with_loose_tolerance():
    state, history = run(small_config(tol=1e6, max_iter=50))
    assert state.converged
    assert state.iter == 1
    assert history[-1].delta_phi < 1e6


def test_run_deterministic():
    cfg = small_config(mesh_nx=6, mesh_ny=3, max_iter=4)
    s1, h1 = run(cfg)
    s2, h2 = run(cfg)
    assert np.array_equal(s1.phi, s2.phi)
    assert np.array_equal(s1.chi, s2.chi)
    assert [r.objective for r in h1] == [r.objective for r in h2]


def test_run_honors_frozen_regions():
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=4,
                       fixed_solid=(Box(190, 40, 200, 60),))
    opt = Optimizer(cfg)
    state, _ = opt.run()
    x, y = opt.mesh.nodes[:, 0], opt.mesh.nodes[:, 1]
    frozen = (x >= 190) & (y >= 40) & (y <= 60)
    assert np.all(state.phi[frozen] == 1.0)


def test_callback_invoked_each_iteration():
    seen = []
    run(small_config(max_iter=3), callback=lambda s, r: seen.append(r.iter))
    assert seen == [1, 2, 3]


def test_beta_one_keeps_chi_fraction_at_m():
    """Single material: chi has no driving force, so m_chi stays at m."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=5, beta=1.0, kappa5=0.0)
    state, _ = run(cfg)
    assert state.m_chi == pytest.approx(0.8, abs=1e-6)


def test_state_and_adjoint_match_reference_assembly():
    """The fixed-pattern operator reproduces the reference assembly path."""
    cfg = small_config(mesh_nx=20, mesh_ny=10)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=21)
    u, sigma, solve = opt.state_solve(phi, chi)
    free = opt.bc.free
    K = fem.assemble_elastic_stiffness(opt.mesh, opt.material, phi, chi)
    K_red, f_red = opt.bc.reduce(K, opt.traction_load)
    assert np.linalg.norm(K_red @ u[free] - f_red) <= 1e-10 * np.linalg.norm(f_red)
    ref_sigma = fem.compute_element_stress(opt.mesh, opt.material, phi, chi, u)
    assert np.allclose(sigma, ref_sigma, rtol=1e-12, atol=1e-12 * np.abs(ref_sigma).max())
    agg = opt.aggregate_of(sigma)
    U = opt.adjoint_solve(phi, chi, agg, solve)
    rhs = cfg.kappa4 * opt.traction_load + stress.adjoint_stress_load(
        agg, opt.mesh, opt.material, phi, chi, cfg.kappa5)
    assert np.linalg.norm(K_red @ U[free] - rhs[free]) <= 1e-10 * np.linalg.norm(rhs[free])


def test_state_solve_sees_in_place_field_changes():
    opt = Optimizer(small_config())
    phi, chi = interior_fields(opt, seed=3)
    opt.state_solve(phi, chi)
    phi[:] = 0.9
    u, sigma, _ = opt.state_solve(phi, chi)
    u_fresh, sigma_fresh, _ = Optimizer(small_config()).state_solve(phi, chi)
    assert np.array_equal(u, u_fresh) and np.array_equal(sigma, sigma_fresh)


def test_run_rejects_non_finite_displacement(monkeypatch):
    opt = Optimizer(small_config())
    state_solve = opt.state_solve

    def nan_state(phi, chi):
        u, sigma, solve = state_solve(phi, chi)
        return np.full_like(u, np.nan), sigma, solve

    monkeypatch.setattr(opt, "state_solve", nan_state)
    with pytest.raises(fem.SolverError, match="iteration 1: non-finite displacement"):
        opt.run()
