"""Staggered Allen-Cahn optimization loop.

Each iteration solves, in order: the adjoint system (sharing the
factorization of the current state), the coupled linear KKT step for the two
phase fields under the exact volume constraint, the nodal clamp onto the
admissible set 0 <= chi <= phi <= 1, and the elastic state of the new
iterate, which is recorded and stepped from next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from gradtopo import fem, stress
from gradtopo.config import RunConfig, validated
from gradtopo.material import MaterialModel, W, dW
from gradtopo.mesh import build_rect_mesh, locate_region_nodes

__all__ = ["OptimizerState", "IterationRecord", "Optimizer", "run",
           "initialize_fields", "rescale"]


@dataclass
class OptimizerState:
    """Iterate bundle produced by the optimization loop."""

    iter: int
    phi: np.ndarray
    chi: np.ndarray
    lam: float
    u: np.ndarray               # the state of (phi, chi)
    sigma: np.ndarray           # (M,3) Voigt per element
    delta_phi: float
    delta_chi: float
    compliance: float
    m_chi: float
    objective: float
    converged: bool = False
    volume_presnap: float = 0.0  # integral of phi right after the KKT solve


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


def initialize_fields(config: RunConfig, mesh) -> tuple[np.ndarray, np.ndarray]:
    """Uniform phi0 = chi0 = m, frozen-region overrides, optional seeded noise."""
    m = config.volume_fraction
    N = mesh.node_count
    phi = np.full(N, m)
    chi = np.full(N, m)
    if config.perturb > 0.0:
        rng = np.random.default_rng(config.seed)
        phi = phi + config.perturb * (2.0 * rng.random(N) - 1.0)
        phi = np.clip(phi, 0.0, 1.0)
    for box in config.fixed_void:
        phi[locate_region_nodes(mesh, box)] = 0.0
    for box in config.fixed_solid:
        phi[locate_region_nodes(mesh, box)] = 1.0
    if config.beta != 1.0:
        chi = np.minimum(chi, phi)
    # beta = 1: chi is inert (dK/dchi = 0) and stays at the uniform fraction m
    return phi, chi


class Optimizer:
    """Holds the mesh, material, and prefactorized constant operators."""

    def __init__(self, config: RunConfig):
        self.config = validated(config)
        self.mesh = build_rect_mesh(config)
        self.material = MaterialModel.from_config(config)
        self.elastic = fem.ElasticOperator(self.mesh, self.material.K_A)
        self._iterate = None        # (phi, chi, results) of the last iterate
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

    def _results(self, phi, chi) -> dict:
        """Results computed for the fields (phi, chi), kept while they are
        unchanged: the state solve and stress aggregate of an iterate are
        computed once, when the iterate is recorded (or tried by the
        safeguard), and the next iteration's adjoint and sensitivities
        reuse them."""
        last = self._iterate
        if last is None or not (np.array_equal(last[0], phi)
                                and np.array_equal(last[1], chi)):
            last = self._iterate = (phi.copy(), chi.copy(), {})
        return last[2]

    def _element_factors(self, phi, chi):
        """(s, ds/dphi, ds/dchi) of K = s K_A at the element centroids."""
        results = self._results(phi, chi)
        if "factors" not in results:
            mat = self.material
            phi_e = fem.element_averages(self.mesh, phi)
            chi_e = fem.element_averages(self.mesh, chi)
            results["factors"] = (mat.stiffness_factor(phi_e, chi_e),
                                  mat.stiffness_factor_dphi(phi_e, chi_e),
                                  mat.stiffness_factor_dchi(phi_e, chi_e))
        return results["factors"]

    # --- staggered sub-steps ------------------------------------------------

    def state_solve(self, phi, chi):
        """Elastic solve; returns (u, sigma, reusable solver of the same system).

        The p-norm aggregate of sigma is computed with it (see aggregate_of).
        """
        results = self._results(phi, chi)
        if "state" not in results:
            cfg = self.config
            s = self._element_factors(phi, chi)[0]
            el = self.elastic
            solve = fem.BandCholesky(el.stiffness(s), el.dofs).solve
            u = solve(self.traction_load + self.C_T @ phi)
            sigma = s[:, None] * (el.strains(u) @ self.material.K_A)
            results["state"] = (u, sigma, solve)
            results["aggregate"] = stress.pnorm_aggregate(
                sigma, self.mesh, cfg.yield_stress, cfg.pnorm_p)
        return results["state"]

    def aggregate_of(self, phi, chi) -> stress.StressAggregate:
        """p-norm stress aggregate of the state of (phi, chi)."""
        results = self._results(phi, chi)
        if "aggregate" not in results:
            self.state_solve(phi, chi)
        return results["aggregate"]

    def adjoint_solve(self, phi, chi, aggregate, solve):
        """Adjoint solve reusing the state factorization (same operator)."""
        cfg = self.config
        rhs = cfg.kappa4 * self.traction_load + cfg.kappa3 * (self.C_T @ phi)
        if cfg.kappa5 != 0.0:
            s = self._element_factors(phi, chi)[0]
            q = stress.element_stress_load(aggregate, self.mesh, s,
                                           self.material.K_A, cfg.kappa5)
            rhs += self.elastic.strain_matrix.T @ q.ravel()
        return solve(rhs)

    def _mechanical_driving(self, phi, chi, u, U, aggregate):
        """Nodal sensitivity loads from the elastic interpolation.

        Returns (q_s, q_sp): the phi- and chi-driving fields
        integral of N_i * dK_d{phi,chi} Sigma : eps(u), one-point rule, with
        Sigma = eps(U) - kappa5 * F_sigma.
        """
        mesh, cfg = self.mesh, self.config
        _, ds_dphi, ds_dchi = self._element_factors(phi, chi)
        eps_u = self.elastic.strains(u)
        Sigma = self.elastic.strains(U)
        if cfg.kappa5 != 0.0:
            Sigma = Sigma - cfg.kappa5 * stress.pointwise_penalty_gradient(aggregate, mesh)
        core = np.einsum("ej,ej->e", Sigma, eps_u @ self.material.K_A)
        share = mesh.element_areas / 3.0 * core
        q_s = self.elastic.node_incidence @ (ds_dphi * share)
        q_sp = self.elastic.node_incidence @ (ds_dchi * share)
        return q_s, q_sp

    def phase_field_step(self, phi, chi, u, U, aggregate, tau=None):
        """One semi-implicit gradient-flow step; returns (phi*, chi*, lambda).

        phi* satisfies the volume constraint exactly (pre-projection); the
        caller is responsible for the subsequent rescale.
        """
        cfg = self.config
        tau = cfg.tau if tau is None else tau
        solve_phi, weights_solved = self._phase_ops(tau)
        gp = cfg.gamma_phi

        q_s, q_sp = self._mechanical_driving(phi, chi, u, U, aggregate)
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

    # --- adjoint-consistency helpers (used by the gradient oracle tests) ----

    def reduced_objective(self, phi, chi) -> float:
        u = self.state_solve(phi, chi)[0]
        return self.objective_of(phi, chi, u, self.aggregate_of(phi, chi))

    def phi_gradient(self, phi, chi) -> np.ndarray:
        """Exact gradient of reduced_objective w.r.t. nodal phi (adjoint route)."""
        cfg = self.config
        u, _, solve = self.state_solve(phi, chi)
        aggregate = self.aggregate_of(phi, chi)
        U = self.adjoint_solve(phi, chi, aggregate, solve)
        q_s, _ = self._mechanical_driving(phi, chi, u, U, aggregate)
        g = (cfg.kappa1 / cfg.gamma_phi) * (self.weights * dW(phi)) \
            + cfg.kappa1 * cfg.gamma_phi * (self.K_raw @ phi) - q_s \
            + (cfg.kappa3 * (self.C @ u) + (self.C @ U))
        return g

    # --- main loop ----------------------------------------------------------

    def run(self, callback=None) -> tuple[OptimizerState, list[IterationRecord]]:
        """Step until the increments fall below tol or max_iter is reached.

        Row k of the history records the iterate (phi_k, chi_k) with its own
        state solve, which iteration k+1 then steps from.
        """
        cfg = self.config
        t0 = time.perf_counter()
        phi, chi = initialize_fields(cfg, self.mesh)
        u, sigma, solve = self.state_solve(phi, chi)
        aggregate = self.aggregate_of(phi, chi)
        history: list[IterationRecord] = []
        state = None
        prev_objective = None

        for it in range(1, cfg.max_iter + 1):
            _require_finite(it, displacement=u)
            U = self.adjoint_solve(phi, chi, aggregate, solve)

            tau = cfg.tau
            for attempt in range(6):
                phi_star, chi_star, lam = self.phase_field_step(
                    phi, chi, u, U, aggregate, tau=tau)
                volume_presnap = float(self.weights @ phi_star)
                phi_new = rescale(phi_star, self.phi_lower, self.phi_upper)
                chi_new = chi if self.single_material else rescale(chi_star, 0.0, phi_new)
                if not cfg.safeguard or prev_objective is None or attempt == 5:
                    break
                if self.reduced_objective(phi_new, chi_new) <= prev_objective * 1.01:
                    break
                tau *= 0.5

            _require_finite(it, phi=phi_new, chi=chi_new)
            delta_phi = self.l2_norm(phi_new - phi)
            delta_chi = self.l2_norm(chi_new - chi)
            phi, chi = phi_new, chi_new
            u, sigma, solve = self.state_solve(phi, chi)
            aggregate = self.aggregate_of(phi, chi)

            compliance = self.compliance_of(phi, u)
            m_chi = self.m_chi_of(chi)
            objective = self.objective_of(phi, chi, u, aggregate)
            _require_finite(it, objective=objective)
            prev_objective = objective
            converged = delta_phi < cfg.tol and delta_chi < cfg.tol
            state = OptimizerState(
                iter=it, phi=phi, chi=chi, lam=lam, u=u, sigma=sigma,
                delta_phi=delta_phi, delta_chi=delta_chi,
                compliance=compliance, m_chi=m_chi, objective=objective,
                converged=converged, volume_presnap=volume_presnap)
            record = IterationRecord(
                iter=it, objective=objective, compliance=compliance,
                m_chi=m_chi, delta_phi=delta_phi, delta_chi=delta_chi,
                lam=lam, max_von_mises=float(aggregate.sigma_e.max(initial=0.0)),
                wall_time=time.perf_counter() - t0)
            history.append(record)
            if callback is not None:
                callback(state, record)
            if converged:
                break
        return state, history


def _require_finite(it: int, **fields) -> None:
    """Raise SolverError naming the iteration and the first non-finite field."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise fem.SolverError(f"iteration {it}: non-finite {name}")


def run(config: RunConfig, callback=None):
    """Convenience wrapper: build an Optimizer and execute the loop."""
    return Optimizer(config).run(callback=callback)
