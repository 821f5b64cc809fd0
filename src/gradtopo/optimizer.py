"""Staggered Allen-Cahn optimization loop.

Each iteration solves, in order: the adjoint system (sharing the
factorization of the current state), the coupled linear KKT step for the two
phase fields under the exact volume constraint, the projection
`Optimizer.project` onto the admissible set 0 <= chi <= phi <= 1 with the
frozen regions, and the evaluation of the new design into an `Iterate`
(elastic state, stress aggregate, objective).  The accepted Iterate carries
its step's fields, is recorded, and is stepped from next; `run` returns the
last one.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from gradtopo import fem, stress
from gradtopo.config import RunConfig, validated
from gradtopo.material import MaterialModel, W, dW
from gradtopo.mesh import build_rect_mesh, locate_region_nodes

__all__ = ["Iterate", "IterationRecord", "Optimizer", "run", "rescale"]


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


def rescale(values: np.ndarray, lower, upper) -> np.ndarray:
    """Entrywise clamp onto [lower, upper] (idempotent)."""
    return np.minimum(np.maximum(values, lower), upper)


class Optimizer:
    """Holds the mesh, material, and prefactorized constant operators."""

    def __init__(self, config: RunConfig):
        self.config = validated(config)
        self.mesh = build_rect_mesh(config)
        self.material = MaterialModel.from_config(config)
        self.elastic = fem.ElasticOperator(self.mesh, self.material.K_A)
        self.weights = fem.lumped_weights(self.mesh)           # volume row
        self.M_raw = fem.assemble_scalar_mass(self.mesh)
        self.K_raw = fem.assemble_scalar_stiffness(self.mesh)
        self.area = self.mesh.area
        self.band_order = fem.band_order(self.mesh)     # scalar-field band rows
        self.volume_target = config.volume_fraction * self.area
        # beta = 1: chi never enters the physics (dK/dchi = 0), so the
        # two-scale field degenerates and chi stays at the uniform fraction m
        self.single_material = config.beta == 1.0

        # A_chi does not depend on tau, so the chi solve is factored once
        gc = config.gamma_chi_eff
        self.solve_chi = None if self.single_material else self._factor(
            (gc / config.tau_chi_eff) * self.M_raw + config.kappa2 * gc * self.K_raw)
        self._phase_factor_cache: dict[float, tuple] = {}
        self._phase_ops(config.tau)

        # line load g [N/mm] acts on the thickness-t edge: the plane-stress
        # solve sees the per-thickness traction g / t
        self.traction_load = fem.assemble_load(self.mesh, config) / config.thickness
        self.C = fem.assemble_body_coupling(self.mesh, config)
        self.C_T = self.C.T.tocsr()                     # C^T phi: the body load

        # bounds honoring the frozen regions
        N = self.mesh.node_count
        self.phi_lower = np.zeros(N)
        self.phi_upper = np.ones(N)
        for box in config.fixed_void:
            self.phi_upper[locate_region_nodes(self.mesh, box)] = 0.0
        for box in config.fixed_solid:
            self.phi_lower[locate_region_nodes(self.mesh, box)] = 1.0

    # --- operators ---------------------------------------------------------

    def _factor(self, A):
        """Banded Cholesky solve of an SPD scalar-field operator."""
        order = self.band_order
        return fem.BandCholesky(fem.lower_band(A, order), order).solve

    def _phase_ops(self, tau: float):
        """(solve_phi, A_phi^-1 w) for the pseudo-time step tau: the factored
        phi operator and the solved volume row, reused by every saddle solve."""
        if tau not in self._phase_factor_cache:
            gp = self.config.gamma_phi
            solve_phi = self._factor((gp / tau) * self.M_raw
                                     + self.config.kappa1 * gp * self.K_raw)
            self._phase_factor_cache[tau] = (solve_phi, solve_phi(self.weights))
        return self._phase_factor_cache[tau]

    # --- the admissible set -------------------------------------------------

    def project(self, phi, chi):
        """Nearest admissible design: phi clamped to [0, 1] (or a frozen
        region's value), then chi to [0, phi].  For beta = 1 chi is inert
        (dK/dchi = 0) and is returned unchanged."""
        phi = rescale(phi, self.phi_lower, self.phi_upper)
        return phi, (chi if self.single_material else rescale(chi, 0.0, phi))

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

    def _mechanical_driving(self, iterate: Iterate, U):
        """Nodal sensitivity loads from the elastic interpolation.

        Returns (q_s, q_sp): the phi- and chi-driving fields
        integral of N_i * dK_d{phi,chi} Sigma : eps(u), one-point rule, with
        Sigma = eps(U) - kappa5 * F_sigma.
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
        return q_s, q_sp

    def phase_field_step(self, iterate: Iterate, U, tau=None):
        """One semi-implicit gradient-flow step; returns (phi*, chi*, lambda).

        phi* satisfies the volume constraint exactly (pre-projection); the
        caller projects (phi*, chi*) onto the admissible set.
        """
        cfg = self.config
        phi, chi, u = iterate.phi, iterate.chi, iterate.u
        tau = cfg.tau if tau is None else tau
        solve_phi, weights_solved = self._phase_ops(tau)
        gp = cfg.gamma_phi

        q_s, q_sp = self._mechanical_driving(iterate, U)
        rhs_phi = (gp / tau) * (self.M_raw @ phi) + q_s \
            - (cfg.kappa1 / gp) * (self.weights * dW(phi)) \
            - (cfg.kappa3 * (self.C @ u) + (self.C @ U))
        phi_new, lam = fem.solve_saddle(solve_phi, self.weights, rhs_phi,
                                        self.volume_target, weights_solved)
        if self.single_material:
            return phi_new, chi, lam
        rhs_chi = (cfg.gamma_chi_eff / cfg.tau_chi_eff) * (self.M_raw @ chi) + q_sp
        return phi_new, self.solve_chi(rhs_chi), lam

    # --- diagnostics --------------------------------------------------------

    def compliance_of(self, phi, u) -> float:
        """Load work over the whole plate: thickness x per-thickness work."""
        c = float(self.traction_load @ u) + self.config.kappa3 * float(phi @ (self.C @ u))
        return c * self.config.thickness

    def m_chi_of(self, chi) -> float:
        return float(self.weights @ chi) / self.area

    def objective_of(self, phi, chi, u, aggregate) -> float:
        """Discrete cost: Ginzburg-Landau + chi-gradient + load work + stress.

        This is the Lyapunov functional of the discrete flow (the chi-gradient
        term carries the same kappa2*gamma_chi scaling as the chi operator).
        """
        cfg = self.config
        gp, gc = cfg.gamma_phi, cfg.gamma_chi_eff
        gl = cfg.kappa1 * (float(self.weights @ W(phi)) / gp
                           + 0.5 * gp * float(phi @ (self.K_raw @ phi)))
        grad_chi = 0.5 * cfg.kappa2 * gc * float(chi @ (self.K_raw @ chi))
        work = cfg.kappa4 * float(self.traction_load @ u) \
            + cfg.kappa3 * float(phi @ (self.C @ u))
        stress_term = cfg.kappa5 * self.area * aggregate.F_value
        return gl + grad_chi + work + stress_term

    def l2_norm(self, v) -> float:
        return float(np.sqrt(max(v @ (self.M_raw @ v), 0.0)))

    def phi_gradient(self, phi, chi) -> np.ndarray:
        """Exact gradient of state_solve(phi, chi).objective w.r.t. nodal phi
        (adjoint route; used by the gradient oracle tests)."""
        cfg = self.config
        iterate = self.state_solve(phi, chi)
        U = self.adjoint_solve(iterate)
        q_s, _ = self._mechanical_driving(iterate, U)
        g = (cfg.kappa1 / cfg.gamma_phi) * (self.weights * dW(phi)) \
            + cfg.kappa1 * cfg.gamma_phi * (self.K_raw @ phi) - q_s \
            + (cfg.kappa3 * (self.C @ iterate.u) + (self.C @ U))
        return g

    # --- main loop ----------------------------------------------------------

    def run(self, callback=None) -> tuple[Iterate, list[IterationRecord]]:
        """Step until the increments fall below tol or max_iter is reached.

        Each attempt evaluates its trial design once; the accepted trial is
        row k of the history, the Iterate passed to the callback, and the
        iterate that iteration k+1 steps from.  Returns the last one.
        """
        cfg = self.config
        t0 = time.perf_counter()
        cur = self.state_solve(*self.initial_design())
        history: list[IterationRecord] = []

        for it in range(1, cfg.max_iter + 1):
            _require_finite(it, displacement=cur.u)
            U = self.adjoint_solve(cur)

            tau = cfg.tau
            for attempt in range(6):
                phi_star, chi_star, lam = self.phase_field_step(cur, U, tau=tau)
                phi, chi = self.project(phi_star, chi_star)
                _require_finite(it, phi=phi, chi=chi)
                nxt = self.state_solve(phi, chi)
                if not cfg.safeguard or it == 1 or attempt == 5 \
                        or nxt.objective <= cur.objective * 1.01:
                    break
                tau *= 0.5

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


def run(config: RunConfig, callback=None):
    """Convenience wrapper: build an Optimizer and execute the loop."""
    return Optimizer(config).run(callback=callback)
