"""P1 finite-element assembly and linear solvers for the discrete system.

All fields live on the single shared triangulation: displacements and the
adjoint are nodal 2-vectors, the two phase fields are nodal scalars, and
stresses are constant per element.  The interpolated elasticity tensor is
evaluated at the element centroid (one-point rule).  The boundary conditions
are the cantilever's: the side x = 0 is clamped, and the traction acts on a
strip of the side x = a.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

__all__ = [
    "SolverError",
    "strain_displacement",
    "element_averages",
    "strain_operator",
    "node_incidence",
    "band_order",
    "ElasticOperator",
    "assemble_load",
    "assemble_body_coupling",
    "assemble_scalar_mass",
    "assemble_scalar_stiffness",
    "lumped_weights",
    "lower_band",
    "BandCholesky",
    "solve_saddle",
]


class SolverError(RuntimeError):
    """A solve failed: a factor that is not positive definite, a singular
    saddle point, or a non-finite iterate."""


# B_i = g_ix E_x + g_iy E_y: the strain-displacement block of node i in terms
# of its shape-function gradient g_i (Voigt rows e11, e22, 2*e12)
_UNIT_STRAINS = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                          [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])


def strain_displacement(mesh) -> np.ndarray:
    """Per-element 3x6 Voigt strain-displacement matrices B with eps = B u_e.

    Element dof order (u1x,u1y,u2x,u2y,u3x,u3y); Voigt (e11, e22, 2*e12).
    """
    # B_e is linear in the element's gradients g_ip: one (M x 6) @ (6 x 18)
    # product with the map (i, p) -> B_i = E_p in node i's two columns
    T = np.einsum("ij,pvc->ipvjc", np.eye(3), _UNIT_STRAINS).reshape(6, 18)
    return (mesh.grads.reshape(-1, 6) @ T).reshape(-1, 3, 6)


def element_averages(mesh, nodal: np.ndarray) -> np.ndarray:
    """Centroid value of a P1 nodal field on every element."""
    return nodal[mesh.elements].mean(axis=1)


def _element_dofs(mesh) -> np.ndarray:
    el = mesh.elements
    dofs = np.empty((mesh.element_count, 6), dtype=int)
    dofs[:, 0::2] = 2 * el
    dofs[:, 1::2] = 2 * el + 1
    return dofs


def _unit_element_stiffness(mesh, K_A: np.ndarray) -> np.ndarray:
    """Blocks A_e B_i^T K_A B_j of K_e^A, (M,3,3,2,2) indexed [e,i,j,c,d].

    Each block is sum_pq g_ip g_jq (E_p^T K_A E_q): one (9M x 4) @ (4 x 4)
    product.  Symmetrized, so every assembled stiffness is bitwise symmetric.
    """
    E = _UNIT_STRAINS
    C = np.einsum("pvc,vw,qwd->pqcd", E, K_A, E).reshape(4, 4)
    g = mesh.grads
    gg = g[:, :, None, :, None] * g[:, None, :, None, :]       # [e,i,j,p,q]
    Ke = (gg.reshape(-1, 4) @ C).reshape(gg.shape)
    Ke *= mesh.element_areas[:, None, None, None, None]
    return 0.5 * (Ke + Ke.transpose(0, 2, 1, 4, 3))


def strain_operator(mesh) -> sp.csr_matrix:
    """Sparse (3M x 2N) map from nodal displacements to element Voigt strains.

    Row 3e+i of (S u) is (B_e u_e)_i; the transpose scatters per-element
    strain-space vectors q_e to the nodal load sum_e B_e^T q_e.
    """
    M = mesh.element_count
    cols = np.repeat(_element_dofs(mesh), 3, axis=0).ravel()
    S = sp.csr_matrix((strain_displacement(mesh).ravel(), cols,
                       np.arange(0, 18 * M + 1, 6)), shape=(3 * M, 2 * mesh.node_count))
    S.eliminate_zeros()
    return S


def node_incidence(mesh) -> sp.csc_matrix:
    """(N x M) element-to-node incidence P: P @ x sums the element values x_e
    onto each element's three nodes."""
    M = mesh.element_count
    return sp.csc_matrix((np.ones(3 * M), mesh.elements.ravel(),
                          np.arange(0, 3 * M + 1, 3)), shape=(mesh.node_count, M))


def band_order(mesh) -> np.ndarray:
    """Node indices along the mesh's short side first (x-major when nx >= ny),
    so two nodes of one element are at most min(nx, ny) + 2 positions apart."""
    x, y = mesh.nodes.T
    if len(np.unique(x)) >= len(np.unique(y)):
        return np.lexsort((y, x))
    return np.lexsort((x, y))


class ElasticOperator:
    """The elastic system in scalar-factor form, built once per mesh.

    K(phi,chi) = s(phi_e,chi_e) K_A on every element, so the stiffness is
    sum_e s_e K_e^A on the free dofs; the dofs of the nodes at x = 0 are
    clamped at zero and left out.  Numbered in band_order, it has a fixed
    half-bandwidth kd and a fixed scatter from the element factors s to its
    lower band: each iterate assembles with one sparse matvec.

    dofs            : band row k is the dof dofs[k] (0 to 2N-1); every dof
                      not in dofs is clamped
    strain_matrix   : (3M x 2N) strain operator (see strain_operator)
    node_incidence  : (N x M) element->node incidence (see node_incidence)
    """

    def __init__(self, mesh, K_A: np.ndarray):
        M, N = mesh.element_count, mesh.node_count
        self.strain_matrix = strain_operator(mesh)
        self.node_incidence = node_incidence(mesh)

        # the free dofs in band order; dof_rank is each one's band row
        nodes = band_order(mesh)
        nodes = nodes[mesh.nodes[nodes, 0] != 0.0]
        self.dofs = (2 * nodes[:, None] + [0, 1]).ravel()
        self.n = len(self.dofs)
        dof_rank = np.full(2 * N, -1)
        dof_rank[self.dofs] = np.arange(self.n)

        # local entry (k, l) of element e is band entry (p, q) = ranks of its dofs
        r = dof_rank[_element_dofs(mesh)]
        p, q = np.repeat(r, 6, axis=1).ravel(), np.tile(r, (1, 6)).ravel()
        free_pair = (p >= 0) & (q >= 0)
        self.kd = int((p - q)[free_pair].max())
        keep = free_pair & (p >= q)
        Ke = _unit_element_stiffness(mesh, K_A).transpose(0, 1, 3, 2, 4).ravel()
        # built as its (M x band size) transpose, whose rows are the elements
        self.scatter = sp.csr_matrix(
            (Ke[keep], (p - q + (self.kd + 1) * q)[keep],
             np.concatenate([[0], np.cumsum(keep.reshape(M, 36).sum(axis=1))])),
            shape=(M, (self.kd + 1) * self.n)).T

    def stiffness(self, s: np.ndarray) -> np.ndarray:
        """Lower band ab[i - j, j] = K[dofs[i], dofs[j]] of the stiffness
        sum_e s_e K_e^A, a fresh (kd+1, n) array for BandCholesky(ab, dofs)."""
        return (self.scatter @ s).reshape(self.n, self.kd + 1).T

    def strains(self, u: np.ndarray) -> np.ndarray:
        """(M,3) Voigt strains B_e u_e."""
        return (self.strain_matrix @ u).reshape(-1, 3)


def _traction_edge_contributions(mesh, config):
    """Exact integration of the traction over the edges of the side x = a,
    clipped to the load strip.

    Returns (nodes, weights) such that the load at nodes[k] is weights[k] * g;
    the weights sum to the covered strip length.
    """
    half = config.traction_length_eff / 2.0
    lo = config.traction_center_eff - half
    hi = config.traction_center_eff + half
    # the side's nodes run upward, so its edges (y1, y2) have y1 < y2
    x, y = mesh.nodes.T
    side = np.flatnonzero(x == x.max())
    edges = np.column_stack([side[:-1], side[1:]])
    y1, y2 = y[edges[:, 0]], y[edges[:, 1]]
    L = y2 - y1
    c0, c1 = np.maximum(y1, lo), np.minimum(y2, hi)
    cut = c1 > c0
    s0, s1 = ((c0 - y1) / L)[cut], ((c1 - y1) / L)[cut]
    # int of (1-s) and s over [s0,s1], scaled by edge length
    w1 = L[cut] * ((s1 - s0) - 0.5 * (s1 ** 2 - s0 ** 2))
    w2 = L[cut] * 0.5 * (s1 ** 2 - s0 ** 2)
    return edges[cut].ravel(), np.column_stack([w1, w2]).ravel()


def assemble_load(mesh, config) -> np.ndarray:
    """Traction load vector [2N] of the line load g on the load strip."""
    nodes, w = _traction_edge_contributions(mesh, config)
    if config.traction_length_eff <= 0 or (len(nodes) == 0 and any(config.traction)):
        raise ValueError("traction segment has zero length or covers no boundary edge")
    gx, gy = config.traction
    return np.bincount(np.concatenate([2 * nodes, 2 * nodes + 1]),
                       np.concatenate([w * gx, w * gy]), minlength=2 * mesh.node_count)


def assemble_body_coupling(mesh, config) -> sp.csr_matrix:
    """Matrix C (N x 2N) with phi^T C u = integral of phi f.u (one-point rule).

    C^T phi is the phi-weighted body-force load; C u is its phi-sensitivity.
    C = kron(P diag(A_e/9) P^T, f) for the incidence P: phi_bar_e takes 1/3
    of each node's phi, and A_e/3 of the element's load goes to each node.
    A zero body force gives an empty C.
    """
    P = node_incidence(mesh)
    share = P.multiply(mesh.element_areas / 9.0) @ P.T
    return sp.kron(share, np.array([config.body_force], dtype=float), format="csr")


def _assemble_scalar(mesh, Ke: np.ndarray) -> sp.csr_matrix:
    """N x N matrix of the per-element 3x3 blocks Ke, (M,3,3)."""
    el = mesh.elements
    rows = np.repeat(el, 3, axis=1).ravel()
    cols = np.tile(el, (1, 3)).ravel()
    N = mesh.node_count
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(N, N)).tocsr()


def assemble_scalar_mass(mesh, coeff: float = 1.0) -> sp.csr_matrix:
    """Consistent P1 mass matrix scaled by coeff; entries sum to coeff*|Omega|."""
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return _assemble_scalar(mesh, coeff * mesh.element_areas[:, None, None] * local)


def assemble_scalar_stiffness(mesh, coeff: float = 1.0) -> sp.csr_matrix:
    """P1 Laplacian scaled by coeff; constant fields lie in its null space."""
    g = mesh.grads
    return _assemble_scalar(mesh, coeff * mesh.element_areas[:, None, None]
                            * np.einsum("eid,ejd->eij", g, g))


def lumped_weights(mesh) -> np.ndarray:
    """Nodal quadrature weights w_i = int N_i = third of the adjacent areas."""
    return np.bincount(mesh.elements.T.ravel(),
                       np.tile(mesh.element_areas / 3.0, 3), mesh.node_count)


def lower_band(A, order: np.ndarray) -> np.ndarray:
    """Lower band ab[i - j, j] = A[order[i], order[j]] of a symmetric sparse
    matrix, (kd+1, n) in Fortran order for its half-bandwidth kd."""
    A = sp.coo_matrix(A)
    A.sum_duplicates()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    i, j = rank[A.row], rank[A.col]
    low = i >= j
    ab = np.zeros((int((i - j).max()) + 1, A.shape[0]), order="F")
    ab[i[low] - j[low], j[low]] = A.data[low]
    return ab


class BandCholesky:
    """LAPACK banded Cholesky factor of an SPD matrix A; `.solve` applies A^-1.

    `ab` is the lower band of A whose row k is the unknown rows[k] (see
    lower_band and ElasticOperator.stiffness), and is factored in place.  A
    matrix that is not positive definite raises.
    """

    def __init__(self, ab: np.ndarray, rows: np.ndarray):
        self._factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded Cholesky factorization failed: "
                              f"info={info} (not positive definite)")
        self._rows = rows

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with x[rows] = A^-1 b[rows], and zero at every other entry of b."""
        y, _ = lapack.dpbtrs(self._factor, b[self._rows], lower=1)
        x = np.zeros_like(b)
        x[self._rows] = y
        return x


def solve_saddle(solve, r: np.ndarray, rhs: np.ndarray, target: float,
                 r_solved: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve [A r^T; r 0] (x, lam) = (rhs, target) by Schur complement.

    `solve` maps a right-hand side to A^{-1} rhs; `r_solved` is A^{-1} r,
    which stays fixed with the factor of A and is computed once with it.
    """
    s1 = solve(rhs)
    denom = float(r @ r_solved)
    if abs(denom) < 1e-300 or not np.isfinite(denom):
        raise SolverError("saddle-point breakdown: r A^-1 r^T is singular")
    lam = (float(r @ s1) - target) / denom
    return s1 - lam * r_solved, lam
