import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, note, reject, settings
from hypothesis import strategies as st

import reference
from gradtopo import fem, stress
from gradtopo.config import Box, ConfigError, RunConfig, cantilever_config
from gradtopo.material import dW
from gradtopo.mesh import locate_region_nodes
from gradtopo.optimizer import Optimizer


def small_config(**kw):
    return cantilever_config(**{**reference.UNCALIBRATED, "mesh_nx": 4, "mesh_ny": 2,
                                "max_iter": 3, **kw})


def interior_fields(opt, seed=0):
    """Strictly interior random fields with 0 < chi < phi < 1."""
    rng = np.random.default_rng(seed)
    phi = 0.3 + 0.5 * rng.random(opt.mesh.node_count)
    chi = phi * (0.2 + 0.6 * rng.random(opt.mesh.node_count))
    return phi, chi


# --- the admissible set -----------------------------------------------------

def test_initialize_uniform():
    cfg = small_config()
    opt = Optimizer(cfg)
    phi, chi = opt.initial_design()
    assert np.all(phi == 0.8) and np.all(chi == 0.8)
    assert float(opt.weights @ phi) == pytest.approx(0.8 * opt.mesh.area, rel=1e-14)


def test_initialize_frozen_regions():
    # the frozen regions allow volume fractions in [0.375, 0.625]
    cfg = small_config(volume_fraction=0.5, fixed_void=(Box(0, 0, 50, 100),),
                       fixed_solid=(Box(150, 0, 200, 100),))
    opt = Optimizer(cfg)
    phi, chi = opt.initial_design()
    x = opt.mesh.nodes[:, 0]
    assert np.all(phi[x <= 50] == 0.0)
    assert np.all(phi[x >= 150] == 1.0)
    assert np.all(chi <= phi)


def test_initialize_noise_deterministic():
    cfg = small_config(perturb=0.05, seed=4)
    opt = Optimizer(cfg)
    phi1, _ = opt.initial_design()
    phi2, _ = opt.initial_design()
    assert np.array_equal(phi1, phi2)
    assert np.any(phi1 != 0.8)
    assert np.all((phi1 >= 0.0) & (phi1 <= 1.0))


# the frozen regions allow volume fractions in [0.083, 0.6875]
FROZEN = dict(mesh_nx=8, mesh_ny=4, volume_fraction=0.5, fixed_void=(Box(0, 0, 50, 100),),
              fixed_solid=(Box(150, 40, 200, 60),))


def frozen_masks(opt):
    x, y = opt.mesh.nodes[:, 0], opt.mesh.nodes[:, 1]
    return x <= 50, (x >= 150) & (y >= 40) & (y <= 60)


def wild_fields(opt, seed=0):
    """Fields well outside the admissible set, with chi above phi in places."""
    rng = np.random.default_rng(seed)
    return (-0.5 + 2.0 * rng.random(opt.mesh.node_count),
            -0.5 + 2.0 * rng.random(opt.mesh.node_count))


@pytest.mark.parametrize("fields, message", [
    (dict(mesh_nx=20, mesh_ny=10, max_iter=5, volume_fraction=0.5,
          fixed_solid=(Box(0, 0, 200, 100),)),
     "the target volume 10000 lies outside [20000, 20000]"),
    (dict(mesh_nx=20, mesh_ny=10, max_iter=5, volume_fraction=0.5,
          fixed_void=(Box(0, 0, 200, 90),)),
     "the target volume 10000 lies outside [0, 1000]"),
    (dict(mesh_nx=2, mesh_ny=1, fixed_void=(Box(0, 0, 5, 5),), volume_fraction=0.875,
          tau=0.01, max_iter=30),
     "the target volume 17500 lies outside [0, 16666.7]"),
], ids=["solid-above-target", "void-below-target", "void-corner-node"])
def test_setup_refuses_a_volume_the_frozen_regions_exclude(fields, message):
    """The step meets w.phi = V before the projection, so a V outside the
    admissible volumes would pass every per-iterate check (the solid run
    ends at 20000, the void run at 1000, against 10000).  Such a RunConfig
    cannot be built, so `gradtopo validate` refuses what no Optimizer could
    run."""
    expected = f"volume_fraction: {message}, the volumes the frozen regions allow"
    with pytest.raises(ConfigError) as exc:
        RunConfig(**fields)
    assert str(exc.value) == f"invalid configuration:\n  {expected}"


def test_project_is_idempotent_and_admissible():
    opt = Optimizer(small_config(**FROZEN))
    void, solid = frozen_masks(opt)
    assert void.any() and solid.any()
    phi, chi = opt.project(*wild_fields(opt))
    assert np.all(phi[void] == 0.0) and np.all(phi[solid] == 1.0)
    assert np.all((phi >= 0.0) & (phi <= 1.0))
    assert np.all((chi >= 0.0) & (chi <= phi))
    again = opt.project(phi, chi)
    assert np.array_equal(again[0], phi) and np.array_equal(again[1], chi)


def test_project_passes_in_range_values_through():
    opt = Optimizer(small_config())
    v = np.resize([-0.5, 0.2, 0.8, 1.7], opt.mesh.node_count)
    phi, chi = opt.project(v, v)
    expected = np.resize([0.0, 0.2, 0.8, 1.0], opt.mesh.node_count)
    assert np.array_equal(phi, expected) and np.array_equal(chi, expected)


def test_project_leaves_chi_alone_for_beta_one():
    opt = Optimizer(small_config(beta=1.0, **FROZEN))
    phi_in, chi_in = wild_fields(opt, seed=1)
    phi, chi = opt.project(phi_in, chi_in)
    assert chi is chi_in
    assert np.array_equal(phi, Optimizer(small_config(**FROZEN)).project(phi_in, chi_in)[0])


@pytest.mark.parametrize("kw", [{}, dict(perturb=0.3, seed=2), FROZEN,
                                dict(FROZEN, perturb=0.3, beta=1.0)],
                         ids=["uniform", "noise", "frozen", "frozen-noise-beta1"])
def test_initial_design_is_a_fixed_point_of_project(kw):
    opt = Optimizer(small_config(**kw))
    phi, chi = opt.initial_design()
    again = opt.project(phi, chi)
    assert np.array_equal(again[0], phi) and np.array_equal(again[1], chi)


# --- the staggered step -----------------------------------------------------

def test_pre_projection_volume_exact():
    cfg = small_config()
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt)
    x = opt.state_solve(phi, chi)
    phi_star, chi_star, lam = opt.phase_field_step(x, opt.adjoint_solve(x))
    vol = float(opt.weights @ phi_star)
    assert abs(vol - opt.volume_target) / opt.volume_target <= 1e-9


def test_adjoint_identity_without_stress_or_body():
    """With f = 0, kappa4 = 1, kappa5 = 0 the adjoint equals the state."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, kappa5=0.0)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=2)
    x = opt.state_solve(phi, chi)
    U = opt.adjoint_solve(x)
    assert np.linalg.norm(U - x.u) / np.linalg.norm(x.u) <= 1e-8


# kappa5 = 1 (the stress term on) in every set; kappa3, kappa4 and the body
# force weight the other terms
GRADIENT_KW = [{}, dict(kappa4=0.4), dict(body_fy=-0.05),
               dict(kappa3=2.5, kappa4=0.4, body_fy=-0.1)]


@pytest.mark.parametrize("kw", GRADIENT_KW,
                         ids=["defaults", "kappa4", "body-0.05", "body-0.1"])
@pytest.mark.parametrize("block", [0, 1], ids=["phi", "chi"])
def test_gradient_central_difference(block, kw):
    """gradient is the exact gradient of state_solve(...).objective: along
    ten random directions of the phi or the chi block, <g, d> matches the
    central difference of the objective."""
    cfg = small_config(**kw)
    assert cfg.kappa5 == 1.0
    opt = Optimizer(cfg)
    fields = interior_fields(opt, seed=5)
    x = opt.state_solve(*fields)
    g = opt.gradient(x, opt.adjoint_solve(x))[block]

    def objective(step):
        moved = list(fields)
        moved[block] = fields[block] + step
        return opt.state_solve(*moved).objective

    h = 1e-6
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (objective(h * d) - objective(-h * d)) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, rel=1e-4)


def test_phi_gradient_finite_difference():
    # the phi block along five more directions (seed 99) per kw set
    for kw in ({}, dict(kappa4=0.4),
               dict(kappa3=2.5, kappa4=0.4, body_fy=-0.1)):
        opt = Optimizer(small_config(**kw))
        phi, chi = interior_fields(opt, seed=5)
        x = opt.state_solve(phi, chi)
        g = opt.gradient(x, opt.adjoint_solve(x))[0]
        h = 1e-6
        rng = np.random.default_rng(99)
        for _ in range(5):
            d = rng.standard_normal(opt.mesh.node_count)
            jp = opt.state_solve(phi + h * d, chi).objective
            jm = opt.state_solve(phi - h * d, chi).objective
            fd = (jp - jm) / (2 * h)
            assert float(g @ d) == pytest.approx(fd, rel=1e-4), kw


def test_phase_step_solves_the_gradient_flow():
    """The step is the semi-implicit flow of the objective: with
    (g_phi, g_chi) = gradient, the step phi* and its multiplier lam satisfy
    (gp/tau) M (phi* - phi) + k1 gp K (phi* - phi) + lam w + g_phi = 0,
    and chi*, with its own pseudo-time step tau_chi, satisfies
    (gc/tau_chi) M (chi* - chi) + k2 gc K (chi* - chi) + g_chi = 0."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, body_fy=-0.05,
                       tau_chi=0.2 * reference.UNCALIBRATED["tau"])
    assert cfg.kappa5 == 1.0 and cfg.tau_chi != cfg.tau
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=3)
    x = opt.state_solve(phi, chi)
    U = opt.adjoint_solve(x)
    phi_star, chi_star, lam = opt.phase_field_step(x, U)
    g_phi, g_chi = opt.gradient(x, U)
    d = phi_star - phi
    residual = (cfg.gamma_phi / cfg.tau) * (opt.M_raw @ d) \
        + cfg.kappa1 * cfg.gamma_phi * (opt.K_raw @ d) + lam * opt.weights + g_phi
    assert np.abs(residual).max() <= 1e-10 * np.abs(g_phi).max()

    gc, d = cfg.gamma_chi, chi_star - chi
    terms = ((gc / cfg.tau_chi) * (opt.M_raw @ d), cfg.kappa2 * gc * (opt.K_raw @ d),
             g_chi)
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(sum(terms)).max() <= 1e-10 * scale


@pytest.mark.parametrize("beta", [cantilever_config().beta, 1.0],
                         ids=["two-scale", "beta1"])
def test_phase_step_keeps_its_float_order(beta):
    """phase_field_step does, bit for bit, the arithmetic written out here
    (stress on, a body force, a step tau that is not the benchmark's): a
    reordered right-hand side changes the rounding, which the benchmark's
    transient amplifies."""
    cfg = cantilever_config(mesh_nx=12, mesh_ny=6, body_fy=-0.05, beta=beta,
                            tau=0.5 * cantilever_config().tau)
    assert cfg.kappa5 == 1.0
    opt = Optimizer(cfg)
    x = opt.state_solve(*interior_fields(opt, seed=8))
    U = opt.adjoint_solve(x)

    gp, gc, tau = cfg.gamma_phi, cfg.gamma_chi, cfg.tau
    Sigma = opt.elastic.strains(U) \
        - cfg.kappa5 * stress.pointwise_penalty_gradient(x.aggregate, opt.mesh)
    share = opt.mesh.element_areas / 3.0 * np.einsum("ej,ej->e", Sigma, x.unit_stress)
    q_s = opt.elastic.node_incidence @ (x.ds_dphi * share)
    q_sp = opt.elastic.node_incidence @ (x.ds_dchi * share)
    rhs_phi = (gp / tau) * (opt.M_raw @ x.phi) + q_s \
        - (cfg.kappa1 / gp) * (opt.weights * dW(x.phi)) \
        - (cfg.kappa3 * (opt.C @ x.u) + (opt.C @ U))
    rhs_chi = (gc / cfg.tau_chi) * (opt.M_raw @ x.chi) + q_sp

    def factor(A):
        return fem.BandCholesky(reference.lower_band(A, opt.band_order), opt.band_order).solve

    solve_phi = factor((gp / tau) * opt.M_raw + cfg.kappa1 * gp * opt.K_raw)
    phi_new, lam = fem.solve_saddle(solve_phi, opt.weights, rhs_phi,
                                    opt.volume_target, solve_phi(opt.weights))
    chi_new = x.chi if beta == 1.0 else factor(
        (gc / cfg.tau_chi) * opt.M_raw + cfg.kappa2 * gc * opt.K_raw)(rhs_chi)

    phi_star, chi_star, lam_star = opt.phase_field_step(x, U)
    assert np.array_equal(phi_star, phi_new) and lam_star == lam
    assert np.array_equal(chi_star, chi_new)


def test_thickness_scales_the_traction():
    """A line load g on a plate of thickness t: the plane-stress solve sees
    g / t, so u is u(t=1) / t and the whole-plate compliance C(t=1) / t."""
    thin = Optimizer(small_config())
    thick = Optimizer(small_config(thickness=2.5))
    phi, chi = interior_fields(thin, seed=4)
    u1 = thin.state_solve(phi, chi).u
    u = thick.state_solve(phi, chi).u
    assert np.abs(u - u1 / 2.5).max() <= 1e-12 * np.abs(u1).max() / 2.5
    assert thick.compliance_of(phi, u) == pytest.approx(
        thin.compliance_of(phi, u1) / 2.5, rel=1e-12)


def test_chi_driving_matches_compliance_sensitivity():
    """For kappa5 = 0 the mechanical part of the chi gradient,
    g_chi - k2 gc K chi, is d(compliance)/d(chi)."""
    cfg = small_config(kappa5=0.0)
    assert cfg.kappa4 == 1.0 and cfg.thickness == 1.0
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=11)
    x = opt.state_solve(phi, chi)
    g_chi = opt.gradient(x, opt.adjoint_solve(x))[1]
    mechanical = g_chi - cfg.kappa2 * cfg.gamma_chi * (opt.K_raw @ chi)
    h = 1e-6
    rng = np.random.default_rng(13)
    for _ in range(3):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (opt.state_solve(phi, chi + h * d).compliance
              - opt.state_solve(phi, chi - h * d).compliance) / (2 * h)
        assert float(mechanical @ d) == pytest.approx(fd, rel=1e-4)


# --- the phase-field operators ---------------------------------------------

@pytest.mark.parametrize("kw, factorizations", [
    ({}, 2),                            # A_phi and A_chi
    (dict(beta=1.0), 1),                # chi never updates
], ids=["kw0-2", "kw2-1"])
def test_setup_factors_A_chi_only_for_the_clamp_update(monkeypatch, kw,
                                                       factorizations):
    calls = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, order: calls.append(ab) or factor(ab, order))
    Optimizer(small_config(**kw))
    assert len(calls) == factorizations


def test_setup_builds_each_constant_piece_once(monkeypatch):
    """The band order, the element dof map, the incidence (read by the body
    coupling too) and the scalar band positions are each built once."""
    calls = {}
    for name in ("band_order", "_element_dofs", "node_incidence", "LowerBand"):
        def counted(*args, _fn=getattr(fem, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(fem, name, counted)
    opt = Optimizer(small_config(body_fy=-0.05))
    assert opt.C.nnz > 0
    assert calls == {"band_order": 1, "_element_dofs": 1, "node_incidence": 1,
                     "LowerBand": 1}


def test_run_factors_the_elastic_operator_once_per_iteration(monkeypatch):
    """Each trial is evaluated once and is the next iterate: the initial
    field, then one factorization of the elastic operator K per iteration;
    the phase operators are not factored again."""
    factored = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, rows: factored.append(rows) or factor(ab, rows))
    opt = Optimizer(small_config(max_iter=5))
    factored.clear()
    opt.run()
    assert len(factored) == 1 + 5
    assert all(rows is opt.elastic.dofs for rows in factored)


# --- the loop ---------------------------------------------------------------

def test_run_reports_history_and_state():
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=5)
    state, history = Optimizer(cfg).run()
    assert len(history) == 5 and state.iter == 5
    assert not state.converged
    assert np.all(np.isfinite(state.phi)) and np.all(np.isfinite(state.u))
    assert np.all((state.phi >= 0.0) & (state.phi <= 1.0))
    assert np.all((state.chi >= 0.0) & (state.chi <= state.phi + 1e-15))
    assert 0.0 <= state.m_chi <= 1.0
    assert history[0].iter == 1 and history[-1].iter == 5
    for rec in history:
        assert np.isfinite(rec.objective) and np.isfinite(rec.lam)


def test_history_records_each_iterate_with_its_own_state():
    """Row k's objective is the objective of (phi_k, chi_k), and the
    final state is the last row's iterate."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=6)
    iterates = []
    state, history = Optimizer(cfg).run(callback=lambda s, r: iterates.append(
        (s.phi.copy(), s.chi.copy())))
    check = Optimizer(cfg)
    for (phi, chi), rec in zip(iterates, history, strict=True):
        x = check.state_solve(phi, chi)
        assert rec.objective == pytest.approx(x.objective, rel=1e-12)
        assert rec.compliance == pytest.approx(
            check.compliance_of(phi, x.u), rel=1e-12)
    assert state.objective == history[-1].objective
    assert state.compliance == history[-1].compliance


def test_run_convergence_flag_with_loose_tolerance():
    state, history = Optimizer(small_config(tol=1e6, max_iter=50)).run()
    assert state.converged
    assert state.iter == 1
    assert history[-1].delta_phi < 1e6


def test_run_deterministic():
    cfg = small_config(mesh_nx=6, mesh_ny=3, max_iter=4)
    s1, h1 = Optimizer(cfg).run()
    s2, h2 = Optimizer(cfg).run()
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
    Optimizer(small_config(max_iter=3)).run(callback=lambda s, r: seen.append(r.iter))
    assert seen == [1, 2, 3]


def test_run_returns_the_iterate_of_its_last_callback():
    seen = []
    state, history = Optimizer(small_config(max_iter=3)).run(
        callback=lambda s, r: seen.append((s, r)))
    assert state is seen[-1][0] and history[-1] is seen[-1][1]
    assert [s.iter for s, _ in seen] == [1, 2, 3]
    assert state.m_chi == history[-1].m_chi and state.lam == history[-1].lam


def test_beta_one_keeps_chi_fraction_at_m():
    """Single material: chi has no driving force, so m_chi stays at m."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=5, beta=1.0, kappa5=0.0)
    state, _ = Optimizer(cfg).run()
    assert state.m_chi == pytest.approx(0.8, abs=1e-6)


def test_state_and_adjoint_match_reference_assembly():
    """The fixed-pattern operator reproduces the reference assembly path."""
    cfg = small_config(mesh_nx=20, mesh_ny=10)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=21)
    x = opt.state_solve(phi, chi)
    u, sigma = x.u, x.sigma
    free = reference.free_dofs(opt.mesh)
    K = reference.assemble_elastic_stiffness(opt.mesh, opt.material, phi, chi)
    K_red, f_red = reference.reduce(opt.mesh, K, opt.traction_load)
    assert np.linalg.norm(K_red @ u[free] - f_red) <= 1e-10 * np.linalg.norm(f_red)
    ref_sigma = reference.element_stress(opt.mesh, opt.material, phi, chi, u)
    assert np.allclose(sigma, ref_sigma, rtol=1e-12, atol=1e-12 * np.abs(ref_sigma).max())
    U = opt.adjoint_solve(x)
    rhs = cfg.kappa4 * opt.traction_load + reference.adjoint_stress_load(
        x.aggregate, opt.mesh, opt.material, phi, chi, cfg.kappa5)
    assert np.linalg.norm(K_red @ U[free] - rhs[free]) <= 1e-10 * np.linalg.norm(rhs[free])


def test_state_solve_is_zero_at_clamped_dofs():
    opt = Optimizer(small_config())
    phi, chi = interior_fields(opt, seed=5)
    u = opt.state_solve(phi, chi).u
    clamped = np.flatnonzero(opt.mesh.nodes[:, 0] == 0.0)
    assert len(clamped) == 3
    assert np.all(u[2 * clamped] == 0.0) and np.all(u[2 * clamped + 1] == 0.0)
    assert np.linalg.norm(u) > 0


def test_state_solve_sees_in_place_field_changes():
    opt = Optimizer(small_config())
    phi, chi = interior_fields(opt, seed=3)
    opt.state_solve(phi, chi)
    phi[:] = 0.9
    x = opt.state_solve(phi, chi)
    fresh = Optimizer(small_config()).state_solve(phi, chi)
    assert np.array_equal(x.u, fresh.u) and np.array_equal(x.sigma, fresh.sigma)


def test_run_rejects_non_finite_displacement(monkeypatch):
    opt = Optimizer(small_config())
    state_solve = opt.state_solve

    def nan_state(phi, chi):
        x = state_solve(phi, chi)
        return dataclasses.replace(x, u=np.full_like(x.u, np.nan))

    monkeypatch.setattr(opt, "state_solve", nan_state)
    with pytest.raises(fem.SolverError, match="iteration 1: non-finite displacement"):
        opt.run()


def test_run_rejects_a_non_finite_trial_before_solving_it(monkeypatch):
    """A NaN phase step is reported as such, before its elastic operator is
    factored."""
    opt = Optimizer(small_config())
    step = opt.phase_field_step
    calls = []

    def nan_step(iterate, U):
        phi_star, chi_star, lam = step(iterate, U)
        calls.append(lam)
        return (np.full_like(phi_star, np.nan) if len(calls) == 2 else phi_star,
                chi_star, lam)

    monkeypatch.setattr(opt, "phase_field_step", nan_step)
    with pytest.raises(fem.SolverError, match="iteration 2: non-finite phi"):
        opt.run()


# --- the loop over the config space -----------------------------------------

def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def runnable_configs(draw):
    """Configs that can be built on meshes up to 12x6: the benchmark or
    the uncalibrated base, with the optimizer's weights, steps and volume
    drawn over wide ranges, a body force in some draws and a frozen void box
    in others."""
    scenario = draw(st.sampled_from([{}, reference.UNCALIBRATED]))
    base = cantilever_config(**scenario)
    body_fx, body_fy, fixed_void = 0.0, 0.0, ()
    if draw(st.booleans()):
        body_fx, body_fy = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    if draw(st.booleans()):
        x0, y0 = draw(st.floats(0.0, 150.0)), draw(st.floats(0.0, 80.0))
        fixed_void = (Box(x0, y0, x0 + draw(st.floats(5.0, 50.0)),
                          y0 + draw(st.floats(5.0, 40.0))),)
    try:
        config = dataclasses.replace(
            base, mesh_nx=draw(st.integers(2, 12)), mesh_ny=draw(st.integers(1, 6)),
            kappa2=draw(log_uniform(1, 6)), kappa5=draw(st.sampled_from([0.0, 1.0, 10.0])),
            beta=draw(st.sampled_from([1 / 6, 1 / 2, 1.0])), tau=draw(log_uniform(-7, -2)),
            volume_fraction=draw(st.floats(0.3, 0.9)), body_fx=body_fx, body_fy=body_fy,
            fixed_void=fixed_void, max_iter=30)
        if scenario:        # the uncalibrated chi step is the drawn phi step
            config = dataclasses.replace(config, tau_chi=config.tau)
    except ConfigError:     # a frozen void that leaves the volume out of reach
        reject()
    return config


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=runnable_configs())
# both bases on the largest mesh, checked whatever the draws hold
@example(config=cantilever_config(mesh_nx=12, mesh_ny=6, max_iter=30))
@example(config=dataclasses.replace(
    cantilever_config(**reference.UNCALIBRATED, mesh_nx=12, mesh_ny=6, max_iter=30),
    tau_chi=reference.UNCALIBRATED["tau"]))
def test_every_accepted_iterate_is_finite_and_admissible(config):
    """Each iterate the loop accepts has finite fields, the exact volume
    before the projection, 0 <= phi <= 1, 0 <= chi <= phi (chi = m for
    beta = 1) and phi = 0 on the frozen void; a run that cannot go on
    raises SolverError or ConfigError."""
    note(repr(config))
    opt = Optimizer(config)
    V = opt.volume_target
    void = np.zeros(opt.mesh.node_count, dtype=bool)
    for box in config.fixed_void:
        void[locate_region_nodes(opt.mesh, box)] = True

    def check(x, record):
        for name in ("phi", "chi", "u", "sigma", "objective"):
            assert np.all(np.isfinite(getattr(x, name))), name
        assert abs(x.volume_presnap - V) <= 1e-9 * V
        assert np.all((x.phi >= 0.0) & (x.phi <= 1.0))
        if opt.single_material:
            assert np.all(x.chi == config.volume_fraction)
        else:
            assert np.all((x.chi >= 0.0) & (x.chi <= x.phi))
        assert np.all(x.phi[void] == 0.0)

    try:
        opt.run(callback=check)
    except (fem.SolverError, ConfigError) as exc:
        note(f"raised {exc!r}")

