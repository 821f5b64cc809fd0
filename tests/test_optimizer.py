import dataclasses

import numpy as np
import pytest

import reference
from gradtopo import fem
from gradtopo.config import Box, cantilever_config
from gradtopo.optimizer import Optimizer, rescale, run


def small_config(**kw):
    return cantilever_config(**{"mesh_nx": 4, "mesh_ny": 2, "max_iter": 3, **kw})


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
    assert float(opt.weights @ phi) == pytest.approx(0.8 * opt.area, rel=1e-14)


def test_initialize_frozen_regions():
    cfg = small_config(fixed_void=(Box(0, 0, 50, 100),),
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


def test_rescale_clamps_and_is_idempotent():
    v = np.array([-0.5, 0.2, 0.8, 1.7])
    out = rescale(v, 0.0, 1.0)
    assert np.array_equal(out, [0.0, 0.2, 0.8, 1.0])
    assert np.array_equal(rescale(out, 0.0, 1.0), out)
    # array bounds (frozen regions)
    lo = np.array([0.0, 0.5, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 0.1, 1.0])
    assert np.array_equal(rescale(v, lo, hi), [0.0, 0.5, 0.1, 1.0])


FROZEN = dict(mesh_nx=8, mesh_ny=4, fixed_void=(Box(0, 0, 50, 100),),
              fixed_solid=(Box(150, 40, 200, 60),))


def frozen_masks(opt):
    x, y = opt.mesh.nodes[:, 0], opt.mesh.nodes[:, 1]
    return x <= 50, (x >= 150) & (y >= 40) & (y <= 60)


def wild_fields(opt, seed=0):
    """Fields well outside the admissible set, with chi above phi in places."""
    rng = np.random.default_rng(seed)
    return (-0.5 + 2.0 * rng.random(opt.mesh.node_count),
            -0.5 + 2.0 * rng.random(opt.mesh.node_count))


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


def test_phi_gradient_finite_difference():
    # kappa5 = 1: stress term active; kappa3 and kappa4 weight the other terms
    for kw in ({}, dict(kappa4=0.4),
               dict(kappa3=2.5, kappa4=0.4, body_force=(0.0, -0.1))):
        opt = Optimizer(small_config(**kw))
        phi, chi = interior_fields(opt, seed=5)
        g = opt.phi_gradient(phi, chi)
        h = 1e-6
        rng = np.random.default_rng(99)
        for _ in range(5):
            d = rng.standard_normal(opt.mesh.node_count)
            jp = opt.state_solve(phi + h * d, chi).objective
            jm = opt.state_solve(phi - h * d, chi).objective
            fd = (jp - jm) / (2 * h)
            assert float(g @ d) == pytest.approx(fd, rel=1e-4), kw


def test_phi_gradient_with_body_force():
    cfg = small_config(body_force=(0.0, -0.05))
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=7)
    g = opt.phi_gradient(phi, chi)
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(3):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (opt.state_solve(phi + h * d, chi).objective
              - opt.state_solve(phi - h * d, chi).objective) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, rel=1e-4)


def test_phase_step_solves_the_gradient_flow():
    """The phi step is the semi-implicit flow of the objective: with
    g = phi_gradient(phi), the step phi* and its multiplier lam satisfy
    (gp/tau) M (phi* - phi) + k1 gp K (phi* - phi) + lam w + g = 0.
    The chi step, with its own pseudo-time step tau_chi, satisfies
    (gc/tau_chi) M (chi* - chi) + k2 gc K chi* - q_sp = 0."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, body_force=(0.0, -0.05),
                       tau_chi=0.2 * cantilever_config().tau)
    assert cfg.kappa5 == 1.0 and cfg.tau_chi != cfg.tau
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=3)
    x = opt.state_solve(phi, chi)
    U = opt.adjoint_solve(x)
    phi_star, chi_star, lam = opt.phase_field_step(x, U)
    g = opt.phi_gradient(phi, chi)
    d = phi_star - phi
    residual = (cfg.gamma_phi / cfg.tau) * (opt.M_raw @ d) \
        + cfg.kappa1 * cfg.gamma_phi * (opt.K_raw @ d) + lam * opt.weights + g
    assert np.abs(residual).max() <= 1e-10 * np.abs(g).max()

    gc = cfg.gamma_chi_eff
    q_sp = opt._mechanical_driving(x, U)[1]
    terms = ((gc / cfg.tau_chi) * (opt.M_raw @ (chi_star - chi)),
             cfg.kappa2 * gc * (opt.K_raw @ chi_star), -q_sp)
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(sum(terms)).max() <= 1e-10 * scale


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
    """For kappa5 = 0 the chi-driving field is minus d(compliance)/d(chi)."""
    cfg = small_config(kappa5=0.0)
    opt = Optimizer(cfg)
    phi, chi = interior_fields(opt, seed=11)
    x = opt.state_solve(phi, chi)
    _, q_sp = opt._mechanical_driving(x, opt.adjoint_solve(x))
    h = 1e-6
    rng = np.random.default_rng(13)
    for _ in range(3):
        d = rng.standard_normal(opt.mesh.node_count)
        fd = (opt.state_solve(phi, chi + h * d).compliance
              - opt.state_solve(phi, chi - h * d).compliance) / (2 * h)
        assert float(q_sp @ d) == pytest.approx(-fd, rel=1e-4)


# --- the phase-field operators and the safeguard ---------------------------

@pytest.mark.parametrize("kw, factorizations", [
    ({}, 2),                            # A_phi and A_chi
    (dict(beta=1.0, safeguard=True), 1),  # no trial tau factored up front
    (dict(beta=1.0), 1),                # chi never updates
])
def test_setup_factors_A_chi_only_for_the_clamp_update(monkeypatch, kw,
                                                       factorizations):
    calls = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, order: calls.append(ab) or factor(ab, order))
    Optimizer(small_config(**kw))
    assert len(calls) == factorizations


def safeguard_taus(monkeypatch, objectives, opt=None):
    """tau of every phase step in a 2-iteration safeguarded run, with
    objective_of replaced by successive values of `objectives`."""
    opt = opt or Optimizer(small_config(safeguard=True, max_iter=2))
    taus = []
    step = opt.phase_field_step

    def recording_step(iterate, U, tau=None):
        taus.append(tau)
        return step(iterate, U, tau=tau)

    values = iter(objectives)
    monkeypatch.setattr(opt, "phase_field_step", recording_step)
    monkeypatch.setattr(opt, "objective_of", lambda *args: next(values))
    opt.run()
    return opt.config.tau, taus


def test_safeguard_halves_tau_until_sixth_attempt(monkeypatch):
    # every trial objective rises: tau is halved five times and the sixth
    # attempt is accepted
    tau, taus = safeguard_taus(monkeypatch, (2.0 ** k for k in range(100)))
    assert taus == [tau] + [tau / 2 ** k for k in range(6)]


def test_safeguard_factors_A_chi_once(monkeypatch):
    # five halvings factor A_phi for six taus; A_chi does not depend on tau
    # and is factored once, at set-up
    calls = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, rows: calls.append(rows) or factor(ab, rows))
    opt = Optimizer(small_config(safeguard=True, max_iter=2))
    tau, taus = safeguard_taus(monkeypatch, (2.0 ** k for k in range(100)), opt)
    assert len(set(taus)) == 6
    assert sum(rows is opt.band_order for rows in calls) == 1 + 6


def test_safeguard_accepts_a_descending_step(monkeypatch):
    tau, taus = safeguard_taus(monkeypatch, (2.0 ** -k for k in range(100)))
    assert taus == [tau, tau]


def test_safeguard_reuses_the_accepted_trial_state_solve(monkeypatch):
    """Each trial is evaluated once and, if accepted, is the next iterate:
    counted as factorizations of the elastic operator K."""
    factored = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, rows: factored.append(rows) or factor(ab, rows))

    def elastic_factorizations(objectives=None, **kw):
        opt = Optimizer(small_config(**kw))
        if objectives is not None:
            values = iter(objectives)
            monkeypatch.setattr(opt, "objective_of", lambda *args: next(values))
        factored.clear()
        opt.run()
        return sum(rows is opt.elastic.dofs for rows in factored)

    # every trial accepted: the initial field, then one trial per iteration
    assert elastic_factorizations((2.0 ** -k for k in range(100)),
                                  safeguard=True, max_iter=4) == 1 + 4
    # every trial rises: iteration 1 is not checked, iteration 2 tries six
    # taus and keeps the sixth trial without solving it again
    assert elastic_factorizations((2.0 ** k for k in range(100)),
                                  safeguard=True, max_iter=2) == 1 + 1 + 6
    # without the safeguard: the initial field, then one per iteration
    assert elastic_factorizations(max_iter=5) == 1 + 5


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


def test_history_records_each_iterate_with_its_own_state():
    """Row k's objective is the objective of (phi_k, chi_k), and the
    final state is the last row's iterate."""
    cfg = small_config(mesh_nx=8, mesh_ny=4, max_iter=6)
    iterates = []
    state, history = run(cfg, callback=lambda s, r: iterates.append(
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


def test_run_returns_the_iterate_of_its_last_callback():
    seen = []
    state, history = run(small_config(max_iter=3),
                         callback=lambda s, r: seen.append((s, r)))
    assert state is seen[-1][0] and history[-1] is seen[-1][1]
    assert [s.iter for s, _ in seen] == [1, 2, 3]
    assert state.m_chi == history[-1].m_chi and state.lam == history[-1].lam


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


@pytest.mark.parametrize("safeguard", [False, True])
def test_run_rejects_a_non_finite_trial_before_solving_it(monkeypatch, safeguard):
    """A NaN phase step is reported as such, on the safeguard's trial path
    too, before its elastic operator is factored."""
    opt = Optimizer(small_config(safeguard=safeguard))
    step = opt.phase_field_step
    calls = []

    def nan_step(iterate, U, tau=None):
        phi_star, chi_star, lam = step(iterate, U, tau=tau)
        calls.append(tau)
        return (np.full_like(phi_star, np.nan) if len(calls) == 2 else phi_star,
                chi_star, lam)

    monkeypatch.setattr(opt, "phase_field_step", nan_step)
    with pytest.raises(fem.SolverError, match="iteration 2: non-finite phi"):
        opt.run()
