"""Staggered Allen-Cahn optimization loop.

Each iteration solves, in order: the adjoint system (sharing the
factorization of the current state), the coupled linear KKT step for the two
phase fields under the exact volume constraint, the projection
`Optimizer.project` onto the admissible set 0 <= chi <= phi <= 1 with the
frozen regions, and the evaluation of the new design into an `Iterate`
(elastic state, stress aggregate, objective).  The accepted Iterate carries
its step's fields, is recorded, and is stepped from next; `Optimizer.run`
returns the last one.  `Optimizer.gradient` is the exact gradient of the
objective, and the KKT step is its semi-implicit flow: both read the
explicit force terms from `_flow_rhs`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from gradtopo import fem, stress
from gradtopo.config import RunConfig
from gradtopo.material import MaterialModel, W, dW
from gradtopo.mesh import build_rect_mesh, frozen_bounds

__all__ = ["Iterate", "IterationRecord", "Optimizer"]


@dataclass
class Iterate:
    """One design (phi, chi) evaluated once by Optimizer.state_solve: the
    adjoint and the phase-field step of the next iteration read it.  The
    loop sets the step fields on the trial it accepts."""

    phi: np.ndarray
    chi: np.ndarray
    s: np.ndarray               # (M,) K = s K_A per element, and its
    ds_dphi: np.ndarray         # derivatives w.r.t. the element phi and chi
    ds_dchi: np.ndarray
    u: np.ndarray
    unit_stress: np.ndarray     # (M,3) eps(u) K_A, the stress at s = 1
    sigma: np.ndarray           # (M,3) Voigt per element
    solve: Callable[[np.ndarray], np.ndarray]   # factored elastic operator
    aggregate: stress.StressAggregate
    compliance: float
    m_chi: float
    objective: float
    # the step that produced this design (iter 0: the initial design)
    iter: int = 0
    lam: float = 0.0
    delta_phi: float = 0.0
    delta_chi: float = 0.0
    volume_presnap: float = 0.0  # integral of phi right after the KKT solve
    converged: bool = False


@dataclass
class IterationRecord:
    iter: int
    objective: float
    compliance: float
    m_chi: float
    delta_phi: float
    delta_chi: float
    lam: float
    max_von_mises: float
    wall_time: float

    # wall_time is excluded from the CSV so identical runs stay byte-identical
    CSV_FIELDS = ("iter", "objective", "compliance", "m_chi", "delta_phi",
                  "delta_chi", "lam", "max_von_mises")


class Optimizer:
    """Holds the mesh, material, and prefactorized constant operators."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.mesh = build_rect_mesh(config)
        self.material = MaterialModel.from_config(config)
        self.elastic = fem.ElasticOperator(self.mesh, self.material.K_A)
        self.weights = fem.lumped_weights(self.mesh)           # volume row
        self.M_raw, self.K_raw = fem.assemble_scalar_operators(self.mesh)
        self.band_order = self.elastic.node_order       # scalar-field band rows
        self.volume_target = config.volume_fraction * self.mesh.area
        # beta = 1: chi never enters the physics (dK/dchi = 0), so the
        # two-scale field degenerates and chi stays at the uniform fraction m
        self.single_material = config.beta == 1.0

        # the phase operators a M + b K are constant, so each is factored
        # once; M and K share one CSR pattern, so the band of each is one
        # scatter of its stored values.  The solved volume row is reused by
        # every saddle solve
        gp, gc = config.gamma_phi, config.gamma_chi
        band = fem.LowerBand(self.M_raw, self.band_order)

        def factor(a, b):
            ab = band(a * self.M_raw.data + b * self.K_raw.data)
            return fem.BandCholesky(ab, self.band_order).solve
        self.solve_phi = factor(gp / config.tau, config.kappa1 * gp)
        self.weights_solved = self.solve_phi(self.weights)
        self.solve_chi = None if self.single_material else factor(
            gc / config.tau_chi, config.kappa2 * gc)

        # line load g [N/mm] acts on the thickness-t edge: the plane-stress
        # solve sees the per-thickness traction g / t
        self.traction_load = fem.assemble_load(self.mesh, config) / config.thickness
        self.C = fem.assemble_body_coupling(self.mesh, config, self.elastic.node_incidence)
        self.C_T = self.C.T.tocsr()                     # C^T phi: the body load

        # bounds honoring the frozen regions, which RunConfig checked admit V
        self.phi_lower, self.phi_upper = frozen_bounds(self.mesh, config)

    # --- the admissible set -------------------------------------------------

    def project(self, phi, chi):
        """Nearest admissible design: phi clamped to [0, 1] (or a frozen
        region's value), then chi to [0, phi].  For beta = 1 chi is inert
        (dK/dchi = 0) and is returned unchanged."""
        phi = np.minimum(np.maximum(phi, self.phi_lower), self.phi_upper)
        return phi, (chi if self.single_material else np.minimum(np.maximum(chi, 0.0), phi))

    def initial_design(self):
        """Uniform phi = chi = m with optional seeded noise on phi, projected."""
        cfg = self.config
        N = self.mesh.node_count
        phi = np.full(N, cfg.volume_fraction)
        if cfg.perturb > 0.0:
            rng = np.random.default_rng(cfg.seed)
            phi += cfg.perturb * (2.0 * rng.random(N) - 1.0)
        return self.project(phi, np.full(N, cfg.volume_fraction))

    # --- staggered sub-steps ------------------------------------------------

    def state_solve(self, phi, chi) -> Iterate:
        """Evaluate the design (phi, chi) once: element factors, elastic
        state, stress aggregate, compliance, m_chi and objective."""
        cfg, el = self.config, self.elastic
        s, ds_dphi, ds_dchi = self.material.stiffness_factors(
            fem.element_averages(self.mesh, phi), fem.element_averages(self.mesh, chi))
        solve = fem.BandCholesky(el.stiffness(s), el.dofs).solve
        u = solve(self.traction_load + self.C_T @ phi)
        unit_stress = el.strains(u) @ self.material.K_A
        sigma = s[:, None] * unit_stress
        aggregate = stress.pnorm_aggregate(sigma, self.mesh, cfg.yield_stress,
                                           cfg.pnorm_p)
        return Iterate(phi, chi, s, ds_dphi, ds_dchi, u, unit_stress, sigma, solve,
                       aggregate, self.compliance_of(phi, u), self.m_chi_of(chi),
                       self.objective_of(phi, chi, u, aggregate))

    def adjoint_solve(self, iterate: Iterate):
        """Adjoint solve reusing the state factorization (same operator)."""
        cfg = self.config
        rhs = cfg.kappa4 * self.traction_load + cfg.kappa3 * (self.C_T @ iterate.phi)
        if cfg.kappa5 != 0.0:
            q = stress.element_stress_load(iterate.aggregate, self.mesh, iterate.s,
                                           self.material.K_A, cfg.kappa5)
            rhs += self.elastic.strain_matrix.T @ q.ravel()
        return iterate.solve(rhs)

    def _flow_rhs(self, iterate: Iterate, U, phi_base, chi_base):
        """(phi_base + q_s - (k1/gp) w W'(phi) - (k3 C u + C U), chi_base + q_sp).

        The flow's explicit force terms, written only here.  q_s and q_sp
        integrate N_i dK/d{phi,chi} Sigma : eps(u) (one-point rule), with
        Sigma = eps(U) - kappa5 F_sigma.
        """
        mesh, cfg = self.mesh, self.config
        Sigma = self.elastic.strains(U)
        if cfg.kappa5 != 0.0:
            Sigma = Sigma - cfg.kappa5 * stress.pointwise_penalty_gradient(
                iterate.aggregate, mesh)
        core = np.einsum("ej,ej->e", Sigma, iterate.unit_stress)
        share = mesh.element_areas / 3.0 * core
        q_s = self.elastic.node_incidence @ (iterate.ds_dphi * share)
        q_sp = self.elastic.node_incidence @ (iterate.ds_dchi * share)
        rhs_phi = phi_base + q_s \
            - (cfg.kappa1 / cfg.gamma_phi) * (self.weights * dW(iterate.phi)) \
            - (cfg.kappa3 * (self.C @ iterate.u) + (self.C @ U))
        return rhs_phi, chi_base + q_sp

    def gradient(self, iterate: Iterate, U):
        """Exact gradient (g_phi, g_chi) of state_solve(phi, chi).objective
        w.r.t. the nodal phi and chi, with U = adjoint_solve(iterate)."""
        cfg = self.config
        rhs_phi, rhs_chi = self._flow_rhs(
            iterate, U, -cfg.kappa1 * cfg.gamma_phi * (self.K_raw @ iterate.phi),
            -cfg.kappa2 * cfg.gamma_chi * (self.K_raw @ iterate.chi))
        return -rhs_phi, -rhs_chi

    def phase_field_step(self, iterate: Iterate, U):
        """One semi-implicit gradient-flow step; returns (phi*, chi*, lambda).

        With (g_phi, g_chi) = gradient(iterate, U), phi* and lambda solve
        (gp/tau) M (phi* - phi) + k1 gp K (phi* - phi) + lambda w + g_phi = 0
        with w . phi* = V exactly, and chi* solves (gc/tau_chi) M (chi* - chi)
        + k2 gc K (chi* - chi) + g_chi = 0.  The caller projects (phi*, chi*).
        """
        cfg = self.config
        rhs_phi, rhs_chi = self._flow_rhs(
            iterate, U, (cfg.gamma_phi / cfg.tau) * (self.M_raw @ iterate.phi),
            (cfg.gamma_chi / cfg.tau_chi) * (self.M_raw @ iterate.chi))
        phi_new, lam = fem.solve_saddle(self.solve_phi, self.weights, rhs_phi,
                                        self.volume_target, self.weights_solved)
        if self.single_material:
            return phi_new, iterate.chi, lam
        return phi_new, self.solve_chi(rhs_chi), lam

    # --- diagnostics --------------------------------------------------------

    def compliance_of(self, phi, u) -> float:
        """Load work over the whole plate, (traction + C^T phi) . u x thickness."""
        c = float(self.traction_load @ u) + float(phi @ (self.C @ u))
        return c * self.config.thickness

    def m_chi_of(self, chi) -> float:
        return float(self.weights @ chi) / self.mesh.area

    def objective_of(self, phi, chi, u, aggregate) -> float:
        """Discrete cost: Ginzburg-Landau + chi-gradient + load work + stress.

        This is the Lyapunov functional of the discrete flow (the chi-gradient
        term carries the same kappa2*gamma_chi scaling as the chi operator).
        """
        cfg = self.config
        gp, gc = cfg.gamma_phi, cfg.gamma_chi
        gl = cfg.kappa1 * (float(self.weights @ W(phi)) / gp
                           + 0.5 * gp * float(phi @ (self.K_raw @ phi)))
        grad_chi = 0.5 * cfg.kappa2 * gc * float(chi @ (self.K_raw @ chi))
        work = cfg.kappa4 * float(self.traction_load @ u) \
            + cfg.kappa3 * float(phi @ (self.C @ u))
        stress_term = cfg.kappa5 * self.mesh.area * aggregate.F_value
        return gl + grad_chi + work + stress_term

    def l2_norm(self, v) -> float:
        return float(np.sqrt(max(v @ (self.M_raw @ v), 0.0)))

    # --- main loop ----------------------------------------------------------

    def run(self, callback=None) -> tuple[Iterate, list[IterationRecord]]:
        """Step until the increments fall below tol or max_iter is reached.

        Iteration k evaluates its trial design once; that trial is row k of
        the history, the Iterate passed to the callback, and the iterate that
        iteration k+1 steps from.  Returns the last one.
        """
        cfg = self.config
        t0 = time.perf_counter()
        cur = self.state_solve(*self.initial_design())
        history: list[IterationRecord] = []

        for it in range(1, cfg.max_iter + 1):
            _require_finite(it, displacement=cur.u)
            U = self.adjoint_solve(cur)

            phi_star, chi_star, lam = self.phase_field_step(cur, U)
            phi, chi = self.project(phi_star, chi_star)
            _require_finite(it, phi=phi, chi=chi)
            nxt = self.state_solve(phi, chi)
            _require_finite(it, objective=nxt.objective)
            nxt.iter, nxt.lam = it, lam
            nxt.volume_presnap = float(self.weights @ phi_star)
            nxt.delta_phi = self.l2_norm(nxt.phi - cur.phi)
            nxt.delta_chi = self.l2_norm(nxt.chi - cur.chi)
            nxt.converged = nxt.delta_phi < cfg.tol and nxt.delta_chi < cfg.tol
            cur = nxt
            record = IterationRecord(
                iter=it, objective=cur.objective, compliance=cur.compliance,
                m_chi=cur.m_chi, delta_phi=cur.delta_phi, delta_chi=cur.delta_chi,
                lam=cur.lam, max_von_mises=float(cur.aggregate.sigma_e.max(initial=0.0)),
                wall_time=time.perf_counter() - t0)
            history.append(record)
            if callback is not None:
                callback(cur, record)
            if cur.converged:
                break
        return cur, history


def _require_finite(it: int, **fields) -> None:
    """Raise SolverError naming the iteration and the first non-finite field."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise fem.SolverError(f"iteration {it}: non-finite {name}")
