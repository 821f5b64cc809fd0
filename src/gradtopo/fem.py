"""P1 finite-element assembly and linear solvers for the discrete system.

All fields live on the single shared triangulation: displacements and the
adjoint are nodal 2-vectors, the two phase fields are nodal scalars, and
stresses are constant per element.  The interpolated elasticity tensor is
evaluated at the element centroid (one-point rule).  The boundary conditions
are the cantilever's: the side x = 0 is clamped, and the traction acts on a
strip of the side x = a.  The elastic stiffness is scattered straight into
LAPACK's lower band storage, from each element's 21 lower dof pairs.  A band
solve's forward sweep starts at the right-hand side's first nonzero row: on a
mesh wider than tall, the traction load's is in the band's last node column.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
    "assemble_scalar_operators",
    "lumped_weights",
    "LowerBand",
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
    e0, e1, e2 = mesh.elements.T
    return (nodal[e0] + nodal[e1] + nodal[e2]) / 3.0


def _element_dofs(mesh) -> np.ndarray:
    el = mesh.elements
    dofs = np.empty((mesh.element_count, 6), dtype=np.int32)
    dofs[:, 0::2] = 2 * el
    dofs[:, 1::2] = 2 * el + 1
    return dofs


def _unit_element_stiffness(mesh, K_A: np.ndarray) -> np.ndarray:
    """(21, M) entries of every element's K_e^A: row t is the lower dof pair
    t of np.tril_indices(6), for element dofs k = 2i + c (node i, component c).

    Block (i, j) is A_e sum_pq g_ip g_jq (E_p^T K_A E_q), one (4, M) block
    per node pair; entry (k, l) is the mean of K_e^A[k, l] and K_e^A[l, k],
    so every stiffness is bitwise symmetric.
    """
    E = _UNIT_STRAINS
    C = np.einsum("pvc,vw,qwd->pqcd", E, K_A, E).reshape(4, 4)
    M = mesh.element_count
    g = np.ascontiguousarray(mesh.grads.transpose(1, 2, 0))    # [i,p,e], e last
    gg = np.empty((2, 2, M))                                    # [p,q,e]

    def block(i, j, out):
        """Block (i, j) of every K_e^A into out, (4, M) with rows 2c + d."""
        np.multiply(g[i, :, None], g[j, None, :], out=gg)
        np.matmul(C.T, gg.reshape(4, M), out=out)
        out *= mesh.element_areas
        return out

    Kij, Kji = np.empty((4, M)), np.empty((4, M))
    lower = np.empty((21, M))
    for i in range(3):
        for j in range(i + 1):
            block(i, j, Kij)
            Kt = Kij if i == j else block(j, i, Kji)
            for c in range(2):
                for d in range(2 if i > j else c + 1):
                    k, l = 2 * i + c, 2 * j + d
                    np.add(Kij[2 * c + d], Kt[2 * d + c], out=lower[k * (k + 1) // 2 + l])
    lower *= 0.5
    return lower


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
    node_order      : every node in band_order, the row order of the
                      scalar-field bands too
    strain_matrix   : (3M x 2N) strain operator (see strain_operator)
    node_incidence  : (N x M) element->node incidence (see node_incidence)
    """

    def __init__(self, mesh, K_A: np.ndarray):
        M, N = mesh.element_count, mesh.node_count
        self.strain_matrix = strain_operator(mesh)
        self.node_incidence = node_incidence(mesh)

        # the free nodes in band order, and each one's rank among them (-1:
        # clamped); node rank R puts the node's dofs at band rows 2R and 2R + 1
        self.node_order = band_order(mesh)
        nodes = self.node_order[mesh.nodes[self.node_order, 0] != 0.0]
        self.dofs = (2 * nodes[:, None] + [0, 1]).ravel()
        self.n = len(self.dofs)
        rank = np.full(N, -1, dtype=np.int32)
        rank[nodes] = np.arange(len(nodes), dtype=np.int32)

        # each element's 21 lower local pairs (k, l) go to the band entry (p, q)
        # of their dofs' rows, larger first, unless one is clamped (row < 0)
        rows = 2 * rank[mesh.elements][:, :, None] + np.arange(2, dtype=np.int32)
        rows = rows.reshape(M, 6)
        k, l = np.tril_indices(6)
        rk, rl = rows[:, k], rows[:, l]
        q = np.minimum(rk, rl)
        p = np.maximum(rk, rl, out=rk)
        p -= q                                                  # now p - q
        free = q >= 0
        self.kd = int(p.max(where=free, initial=0))
        if (self.kd + 1) * self.n > np.iinfo(np.int32).max:   # int32 would wrap
            q = q.astype(np.int64)
        q *= self.kd + 1
        q += p                                  # band entry p - q + (kd + 1) q
        # its columns are the elements, each with its pairs in (k, l) order:
        # all 21 but those with a clamped dof
        indptr = np.zeros(M + 1, dtype=np.int64)
        np.cumsum(21 - np.bincount(np.flatnonzero(~free) // 21, minlength=M),
                  out=indptr[1:])
        self.scatter = sp.csc_matrix(
            (_unit_element_stiffness(mesh, K_A).T[free], q[free], indptr),
            shape=((self.kd + 1) * self.n, M))

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
    half = config.traction_length / 2.0
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
    return np.bincount(np.concatenate([2 * nodes, 2 * nodes + 1]),
                       np.concatenate([w * config.traction_x, w * config.traction_y]),
                       minlength=2 * mesh.node_count)


def assemble_body_coupling(mesh, config, P: sp.csc_matrix) -> sp.csr_matrix:
    """Matrix C (N x 2N) with phi^T C u = integral of phi f.u (one-point rule).

    C^T phi is the phi-weighted body-force load; C u is its phi-sensitivity.
    C = kron(P diag(A_e/9) P^T, f) for the mesh's node_incidence P: phi_bar_e
    takes 1/3 of each node's phi, and A_e/3 of the element's load goes to
    each node.  A zero body force gives an empty C.
    """
    f = np.array([[config.body_fx, config.body_fy]], dtype=float)
    if not f.any():
        return sp.csr_matrix((mesh.node_count, 2 * mesh.node_count))
    share = P.multiply(mesh.element_areas / 9.0) @ P.T
    return sp.kron(share, f, format="csr")


def assemble_scalar_operators(mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The consistent P1 mass matrix M (entries sum to |Omega|) and the P1
    Laplacian K (constant fields lie in its null space), both N x N.

    Both sum 3x3 element blocks over one pattern, so they are sorted into
    CSR in one pass as the real and imaginary parts of one complex matrix:
    tocsr orders the duplicates by the index arrays alone and sums the two
    parts apart, so each part has the bits it would have on its own.
    """
    el = mesh.elements
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    g = mesh.grads
    gg = g[:, :, None, 0] * g[:, None, :, 0] + g[:, :, None, 1] * g[:, None, :, 1]
    blocks = np.empty((len(el), 3, 3), dtype=complex)
    blocks.real = mesh.element_areas[:, None, None] * local
    blocks.imag = mesh.element_areas[:, None, None] * gg
    rows = np.repeat(el, 3, axis=1).ravel()
    cols = np.tile(el, (1, 3)).ravel()
    N = mesh.node_count
    A = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(N, N)).tocsr()
    M = sp.csr_matrix((A.data.real.copy(), A.indices, A.indptr), shape=(N, N))
    K = sp.csr_matrix((A.data.imag.copy(), A.indices.copy(), A.indptr.copy()), shape=(N, N))
    return M, K


def lumped_weights(mesh) -> np.ndarray:
    """Nodal quadrature weights w_i = int N_i = third of the adjacent areas."""
    return np.bincount(mesh.elements.T.ravel(),
                       np.tile(mesh.element_areas / 3.0, 3), mesh.node_count)


class LowerBand:
    """Where the stored lower entries of a symmetric CSR pattern A (without
    duplicates) go in LAPACK's lower band storage, with its rows and columns
    numbered in `order`: the band of every matrix with A's pattern is one
    scatter of its stored values."""

    def __init__(self, A, order: np.ndarray):
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        i, j = np.repeat(rank, np.diff(A.indptr)), rank[A.indices]
        self.lower = i >= j
        i, j = i[self.lower], j[self.lower]
        self.shape = (int((i - j).max()) + 1, A.shape[0])
        self.offsets = (i - j) + self.shape[0] * j      # in Fortran order

    def __call__(self, data: np.ndarray) -> np.ndarray:
        """Lower band ab[i - j, j] of the matrix with the stored values data,
        (kd+1, n) in Fortran order for its half-bandwidth kd."""
        ab = np.zeros(self.shape, order="F")
        ab.ravel(order="F")[self.offsets] = data[self.lower]
        return ab


def lower_band(A, order: np.ndarray) -> np.ndarray:
    """Lower band ab[i - j, j] = A[order[i], order[j]] of a symmetric sparse
    matrix, (kd+1, n) in Fortran order for its half-bandwidth kd."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    return LowerBand(A, order)(A.data)


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
        """x with x[rows] = A^-1 b[rows], and zero at every other entry of b.

        y = L^-1 b[rows] is zero above b's first nonzero row r0 (0 if none),
        so the forward sweep runs on the trailing factor only; both sweeps
        overwrite y in place, so it is float64 whatever b's dtype.
        """
        y = b[self._rows].astype(float, copy=False)
        r0 = int(np.argmax(y != 0.0))
        L = self._factor
        kd = L.shape[0] - 1
        blas.dtbsv(kd, L[:, r0:], y[r0:], lower=1, overwrite_x=1)
        blas.dtbsv(kd, L, y, lower=1, trans=1, overwrite_x=1)
        x = np.zeros(b.shape)
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
