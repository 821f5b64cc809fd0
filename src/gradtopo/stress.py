"""Von Mises equivalent stress, global p-norm aggregation, and the
stress-penalty load that feeds the adjoint solve.

The aggregate is a pure ratio: the p-th power of sigma_e/sigma_y is averaged
over the domain (volume-normalized) before taking the p-th root, so the
penalty (sigma_pn - 1)^2 compares directly against the yield surface.  The
von Mises stress is evaluated once per aggregate; its gradient reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StressAggregate", "von_mises", "von_mises_gradient",
           "pnorm_aggregate", "element_stress_load"]


@dataclass(frozen=True)
class StressAggregate:
    """Global p-norm stress state and its exact stress gradient.

    sigma_pn  : dimensionless aggregate ratio
    sigma_e   : (M,) per-element von Mises stress [MPa]
    F_value   : (sigma_pn - 1)^2
    dF_dsigma : (M,3) d F_value / d sigma_e(Voigt), area weighting included
    """

    sigma_pn: float
    sigma_e: np.ndarray
    F_value: float
    dF_dsigma: np.ndarray


def von_mises(sigma: np.ndarray) -> np.ndarray:
    """Plane-stress von Mises stress of (M,3) Voigt stresses."""
    s11, s22, s12 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
    return np.sqrt(s11 * s11 - s11 * s22 + s22 * s22 + 3.0 * s12 * s12)


def von_mises_gradient(sigma: np.ndarray, vm: np.ndarray) -> np.ndarray:
    """d(sigma_vm)/d(sigma Voigt) for vm = von_mises(sigma), zero at the
    sigma_vm = 0 kink."""
    inv = np.divide(0.5, vm, out=np.zeros_like(vm), where=vm > 0.0)
    s11, s22, s12 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
    return np.stack([(2.0 * s11 - s22) * inv, (2.0 * s22 - s11) * inv,
                     6.0 * s12 * inv], axis=-1)


def pnorm_aggregate(sigma: np.ndarray, mesh, sigma_y: float, p: int) -> StressAggregate:
    """Aggregate (M,3) Voigt stresses into the p-norm ratio and its gradient.

    sigma_pn = (sum_e w_e r_e^p)^(1/p), w_e = A_e/|Omega|, r_e = sigma_e/sigma_y.
    """
    sigma_e = von_mises(sigma)
    r = sigma_e / sigma_y
    w = mesh.element_areas / mesh.area
    rmax = float(r.max(initial=0.0))
    if rmax == 0.0:
        return StressAggregate(0.0, sigma_e, 1.0, np.zeros_like(sigma))
    # factor out the max ratio for overflow-free large p
    s = float((w * (r / rmax) ** p).sum())
    sigma_pn = rmax * s ** (1.0 / p)
    F_value = (sigma_pn - 1.0) ** 2
    scale = 2.0 * (sigma_pn - 1.0) * sigma_pn ** (1 - p) / sigma_y
    dF = (scale * w * r ** (p - 1))[:, None] * von_mises_gradient(sigma, sigma_e)
    return StressAggregate(float(sigma_pn), sigma_e, float(F_value), dF)


def pointwise_penalty_gradient(aggregate: StressAggregate, mesh) -> np.ndarray:
    """Per-element F_sigma field (the density whose area integral recovers
    the weighted dF_dsigma)."""
    return aggregate.dF_dsigma * (mesh.area / mesh.element_areas)[:, None]


def element_stress_load(aggregate: StressAggregate, mesh, s: np.ndarray,
                        K_A: np.ndarray, kappa5: float) -> np.ndarray:
    """(M,3) strain-space stress-penalty load kappa5 A_e s_e K_A F_sigma_e.

    A_e F_sigma_e = |Omega| dF_dsigma_e, so no per-element area enters; the
    nodal load is sum_e B_e^T of these rows (fem.strain_operator transposed).
    """
    return (kappa5 * mesh.area) * s[:, None] * (aggregate.dF_dsigma @ K_A)
