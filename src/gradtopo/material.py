"""Graded plane-stress elasticity interpolation and the double-well potential.

The elasticity tensor factorizes as a scalar stiffness factor times the base
plane-stress Voigt matrix of the bulk material:

    K(phi, chi) = k_m(chi) * (phi^3 + g^2 (1-phi)^3) * K_A

with k_m(chi) = chi + beta*(1-chi) interpolating between the bulk material
(chi=1) and a beta-fraction soft material (chi=0), and g the ersatz parameter
setting the void stiffness floor g^2 (the config key `ersatz`, independent
of the interface width gamma_phi).  Voigt convention:
(s11, s22, s12) with engineering shear strain.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MaterialModel", "W", "dW", "plane_stress_matrix"]


def plane_stress_matrix(E: float, nu: float) -> np.ndarray:
    """3x3 plane-stress Voigt elasticity matrix [MPa]."""
    c = E / (1.0 - nu * nu)
    return c * np.array([[1.0, nu, 0.0],
                         [nu, 1.0, 0.0],
                         [0.0, 0.0, (1.0 - nu) / 2.0]])


def W(phi):
    """Double-well potential with minima at 0 and 1."""
    return (phi - phi * phi) ** 2


def dW(phi):
    return 2.0 * (phi - phi * phi) * (1.0 - 2.0 * phi)


class MaterialModel:
    """Scalar stiffness factor s(phi,chi) with K(phi,chi) = s K_A, its partial
    derivatives, and K_A.

    Pure functions over immutable parameters; all evaluators accept scalars
    or same-shape arrays and clamp (phi, chi) to [0,1] first.
    """

    def __init__(self, E: float, nu: float, beta: float, ersatz: float):
        self.E = float(E)
        self.nu = float(nu)
        self.beta = float(beta)
        self.ersatz = float(ersatz)
        self.K_A = plane_stress_matrix(E, nu)

    @classmethod
    def from_config(cls, config) -> "MaterialModel":
        return cls(config.youngs_modulus, config.poisson, config.beta,
                   config.ersatz)

    # scalar stiffness factors ------------------------------------------------

    def km(self, chi):
        chi = np.clip(chi, 0.0, 1.0)
        # rounding can put the blend one ulp below beta when beta is within
        # a few ulps of 1; the soft phase is the floor of k_m
        return np.maximum(chi + self.beta * (1.0 - chi), self.beta)

    def dkm(self, chi):
        return (1.0 - self.beta) * np.ones_like(np.asarray(chi, dtype=float))

    def stiffness_factors(self, phi, chi):
        """(s, ds/dphi, ds/dchi) with K(phi,chi) = s * K_A."""
        phi = np.clip(phi, 0.0, 1.0)
        g2 = self.ersatz ** 2
        km = self.km(chi)
        cubic = phi ** 3 + g2 * (1.0 - phi) ** 3
        return (km * cubic, km * (3.0 * phi ** 2 - 3.0 * g2 * (1.0 - phi) ** 2),
                self.dkm(chi) * cubic)
