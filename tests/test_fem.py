import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import reference
from gradtopo import fem
from gradtopo.config import cantilever_config
from gradtopo.material import MaterialModel, plane_stress_matrix
from gradtopo.mesh import build_rect_mesh


def setup(nx=4, ny=2, **kw):
    cfg = cantilever_config(mesh_nx=nx, mesh_ny=ny, **kw)
    mesh = build_rect_mesh(cfg)
    mat = MaterialModel.from_config(cfg)
    return cfg, mesh, mat


def full(mesh):
    ones = np.ones(mesh.node_count)
    return ones, ones


# --- stiffness -------------------------------------------------------------

def test_stiffness_symmetric_and_rigid_body_null_space():
    cfg, mesh, mat = setup(3, 2)
    phi, chi = full(mesh)
    K = reference.assemble_elastic_stiffness(mesh, mat, phi, chi).toarray()
    assert np.allclose(K, K.T, atol=1e-9)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    # translations and the infinitesimal rotation produce zero force
    for mode in (np.column_stack([np.ones_like(x), np.zeros_like(x)]),
                 np.column_stack([np.zeros_like(x), np.ones_like(x)]),
                 np.column_stack([-y, x])):
        assert np.linalg.norm(K @ mode.ravel()) <= 1e-8 * np.linalg.norm(K.data if hasattr(K, "data") else K)


def test_stiffness_patch_test_constant_strain():
    """A linear displacement field produces the exact constant-stress reaction."""
    cfg, mesh, mat = setup(4, 3)
    phi, chi = full(mesh)
    K = reference.assemble_elastic_stiffness(mesh, mat, phi, chi)
    # u = (0.002x + 0.001y, -0.0005y) -> eps = (0.002, -0.0005, 0.001)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = np.empty(2 * mesh.node_count)
    u[0::2] = 0.002 * x + 0.001 * y
    u[1::2] = -0.0005 * y
    eps = np.array([0.002, -0.0005, 0.001])
    sig = plane_stress_matrix(cfg.youngs_modulus, cfg.poisson) @ eps
    r = K @ u
    # interior nodes carry zero residual (constant stress is equilibrated)
    interior = np.flatnonzero((x > 0) & (x < 200.0) & (y > 0) & (y < 100.0))
    assert len(interior), "patch test needs interior nodes"
    for n in interior:
        assert abs(r[2 * n]) < 1e-8 and abs(r[2 * n + 1]) < 1e-8
    # total virtual work K u . u equals area * eps : sigma
    assert float(u @ r) == pytest.approx(mesh.area * float(eps @ sig), rel=1e-12)


def test_stiffness_scales_with_factor():
    cfg, mesh, mat = setup(3, 2)
    phi = np.full(mesh.node_count, 0.5)
    chi = np.full(mesh.node_count, 0.25)
    K = reference.assemble_elastic_stiffness(mesh, mat, phi, chi)
    K1 = reference.assemble_elastic_stiffness(mesh, mat, *full(mesh))
    s = mat.stiffness_factors(0.5, 0.25)[0]
    assert np.allclose(K.toarray(), s * K1.toarray(), rtol=1e-12)


def test_single_triangle_stiffness_hand_oracle():
    """One CST element on the unit right triangle, checked entry by entry."""

    class Tri:
        pass

    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]])
    mesh = Tri()
    mesh.nodes = nodes
    mesh.elements = elements
    mesh.element_areas = np.array([0.5])
    g = np.array([[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])
    mesh.grads = g
    mesh.element_count = 1
    mesh.node_count = 3
    mat = MaterialModel(E=2.0, nu=0.0, beta=1.0, gamma_phi=0.01)
    B = fem.strain_displacement(mesh)
    # hand-built B for grads (-1,-1),(1,0),(0,1)
    B_hand = np.array([[-1, 0, 1, 0, 0, 0],
                       [0, -1, 0, 0, 0, 1],
                       [-1, -1, 0, 1, 1, 0]], dtype=float)
    assert np.allclose(B[0], B_hand)
    K = reference.assemble_elastic_stiffness(mesh, mat, np.ones(3), np.ones(3)).toarray()
    D = mat.K_A  # E=2, nu=0 -> diag(2, 2, 1)
    K_hand = 0.5 * B_hand.T @ D @ B_hand
    assert np.allclose(K, K_hand, atol=1e-14)


# --- loads -----------------------------------------------------------------

def test_traction_total_force():
    cfg, mesh, mat = setup(10, 10)
    f = fem.assemble_load(mesh, cfg)
    # total load = g * covered segment length (10 mm)
    assert f[0::2].sum() == pytest.approx(0.0, abs=1e-12)
    assert f[1::2].sum() == pytest.approx(-600.0 * 10.0, rel=1e-12)


def test_traction_partial_edge_clipping():
    # ny=4 -> 25mm edges; segment [40,60] covers parts of [25,50] and [50,75]
    cfg, mesh, mat = setup(4, 4, traction_length=20.0)
    f = fem.assemble_load(mesh, cfg)
    assert f[1::2].sum() == pytest.approx(-600.0 * 20.0, rel=1e-12)
    # symmetric about the segment center: node at y=50 takes the lion share
    nz = np.flatnonzero(f[1::2])
    ys = sorted(mesh.nodes[nz, 1])
    assert ys == [25.0, 50.0, 75.0]


def loaded_nodes(mesh, cfg):
    """The nodes that carry a share of the traction load."""
    return np.flatnonzero(fem.assemble_load(mesh, cfg)[1::2])


def test_default_strip_loads_three_nodes():
    cfg, mesh, mat = setup(10, 10)
    # strip [45,55] overlaps the two 10mm edges [40,50] and [50,60] of x = 200
    nodes = loaded_nodes(mesh, cfg)
    assert np.all(mesh.nodes[nodes, 0] == 200.0)
    assert list(mesh.nodes[nodes, 1]) == [40.0, 50.0, 60.0]


def test_custom_strip_loads_five_nodes():
    cfg, mesh, mat = setup(4, 10, traction_length=25.0, traction_center=30.0)
    # strip [17.5, 42.5] overlaps edges [10,20],[20,30],[30,40],[40,50]
    nodes = loaded_nodes(mesh, cfg)
    assert np.all(mesh.nodes[nodes, 0] == 200.0)
    assert list(mesh.nodes[nodes, 1]) == [10.0, 20.0, 30.0, 40.0, 50.0]


def test_traction_on_a_thin_strip():
    # a 1e-13 mm strip from the corner y = 0, where both its ends are exact
    cfg, mesh, mat = setup(2, 2, traction_length=1e-13, traction_center=5e-14)
    f = fem.assemble_load(mesh, cfg)
    assert f[1::2].sum() == pytest.approx(-600.0 * 1e-13, rel=1e-12)
    assert list(mesh.nodes[np.flatnonzero(f[1::2]), 1]) == [0.0, 50.0]


def test_clamped_dofs_are_the_nodes_at_x_0():
    cfg, mesh, mat = setup(10, 10)
    op = fem.ElasticOperator(mesh, mat.K_A)
    clamped = np.setdiff1d(np.arange(2 * mesh.node_count), op.dofs)
    left = np.flatnonzero(mesh.nodes[:, 0] == 0.0)
    assert len(left) == 11
    assert np.array_equal(clamped, np.sort(np.concatenate([2 * left, 2 * left + 1])))


def test_body_force_load_and_coupling_consistency():
    cfg, mesh, mat = setup(5, 3, traction=(0.0, 0.0), body_force=(0.0, -0.1))
    phi = np.random.default_rng(0).random(mesh.node_count)
    C = fem.assemble_body_coupling(mesh, cfg)
    # C^T phi must equal the per-element phi-weighted body load
    f = reference.body_load(mesh, phi, cfg.body_force)
    assert np.allclose(C.T @ phi, f, atol=1e-12)
    # the traction load carries no body force
    assert not fem.assemble_load(mesh, cfg).any()
    # with phi = 1, total weight = f_y * |Omega|
    f1 = C.T @ np.ones(mesh.node_count)
    assert f1[1::2].sum() == pytest.approx(-0.1 * mesh.area, rel=1e-12)
    # phi^T C u = integral phi f.u for constant u
    u = np.zeros(2 * mesh.node_count)
    u[1::2] = 2.0
    phi_e = fem.element_averages(mesh, phi)
    exact = float((mesh.element_areas * phi_e).sum()) * (-0.1) * 2.0
    assert float(phi @ (C @ u)) == pytest.approx(exact, rel=1e-12)
    # no body force, no coupling entries
    no_body = dataclasses.replace(cfg, body_force=(0.0, 0.0))
    assert fem.assemble_body_coupling(mesh, no_body).nnz == 0


# --- scalar operators ------------------------------------------------------

def test_mass_matrix_exact_for_linear_products():
    cfg, mesh, mat = setup(4, 3)
    M = fem.assemble_scalar_mass(mesh)
    assert np.allclose(M.toarray(), M.toarray().T)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    a, b = 200.0, 100.0
    ones = np.ones(mesh.node_count)
    assert float(ones @ (M @ ones)) == pytest.approx(a * b, rel=1e-12)
    # int x*y over [0,a]x[0,b] = a^2 b^2 / 4 (P1 mass is exact on products of linears)
    assert float(x @ (M @ y)) == pytest.approx(a ** 2 * b ** 2 / 4.0, rel=1e-12)
    assert float(x @ (M @ x)) == pytest.approx(a ** 3 * b / 3.0, rel=1e-12)


def test_laplacian_null_space_and_dirichlet_energy():
    cfg, mesh, mat = setup(6, 3)
    K = fem.assemble_scalar_stiffness(mesh)
    ones = np.ones(mesh.node_count)
    assert np.linalg.norm(K @ ones) < 1e-10
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    # int |grad x|^2 = |Omega|
    assert float(x @ (K @ x)) == pytest.approx(mesh.area, rel=1e-12)
    assert float(x @ (K @ y)) == pytest.approx(0.0, abs=1e-9)
    assert float((2 * x + 3 * y) @ (K @ (2 * x + 3 * y))) == pytest.approx(13 * mesh.area, rel=1e-12)


def test_volume_row_exact_for_linear_fields():
    cfg, mesh, mat = setup(5, 4)
    r = fem.lumped_weights(mesh)
    x = mesh.nodes[:, 0]
    assert float(r.sum()) == pytest.approx(mesh.area, rel=1e-12)
    # int x over [0,200]x[0,100]
    assert float(r @ x) == pytest.approx(200.0 ** 2 / 2 * 100.0, rel=1e-12)
    # lumped weights are the mass-matrix row sums
    M = fem.assemble_scalar_mass(mesh)
    assert np.allclose(r, np.asarray(M.sum(axis=1)).ravel())


def test_bincount_sums_match_add_at_bitwise():
    """lumped_weights and assemble_load add each dof's terms in the order of
    the np.add.at loops they replace, so the sums are bitwise equal."""
    cfg, mesh, mat = setup(9, 5, traction_length=30.0, body_force=(0.3, -0.1))
    w = np.zeros(mesh.node_count)
    for i in range(3):
        np.add.at(w, mesh.elements[:, i], mesh.element_areas / 3.0)
    assert np.array_equal(fem.lumped_weights(mesh), w)
    f = np.zeros(2 * mesh.node_count)
    for node, wk in zip(*fem._traction_edge_contributions(mesh, cfg)):
        f[2 * node] += wk * cfg.traction[0]
        f[2 * node + 1] += wk * cfg.traction[1]
    assert np.array_equal(fem.assemble_load(mesh, cfg), f)


# --- solvers ---------------------------------------------------------------

def test_solve_saddle_against_dense_kkt():
    rng = np.random.default_rng(7)
    n = 25
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    r = rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    target = 1.7
    # dense KKT oracle
    KKT = np.zeros((n + 1, n + 1))
    KKT[:n, :n] = A
    KKT[:n, n] = r
    KKT[n, :n] = r
    sol = np.linalg.solve(KKT, np.append(rhs, target))
    x, lam = fem.solve_saddle(lambda b: np.linalg.solve(A, b), r, rhs, target,
                              np.linalg.solve(A, r))
    assert np.allclose(x, sol[:n], atol=1e-9)
    assert lam == pytest.approx(sol[n], abs=1e-9)
    # the constraint holds exactly
    assert float(r @ x) == pytest.approx(target, rel=1e-10)


def test_solve_saddle_breakdown():
    with pytest.raises(fem.SolverError, match="saddle"):
        fem.solve_saddle(lambda b: b, np.zeros(3), np.ones(3), 1.0, np.zeros(3))


# --- stress recovery and boundary conditions -------------------------------

def test_element_stress_constant_for_linear_displacement():
    cfg, mesh, mat = setup(4, 2)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = np.empty(2 * mesh.node_count)
    u[0::2] = 1e-3 * x
    u[1::2] = -2e-3 * y + 5e-4 * x
    eps = np.array([1e-3, -2e-3, 5e-4])
    sig = mat.K_A @ eps
    sigma = reference.element_stress(mesh, mat, *full(mesh), u)
    assert np.allclose(sigma, sig, rtol=1e-10)


# --- scalar-factor elastic operator ----------------------------------------

def interior_fields(mesh, seed):
    rng = np.random.default_rng(seed)
    phi = 0.3 + 0.5 * rng.random(mesh.node_count)
    chi = phi * (0.2 + 0.6 * rng.random(mesh.node_count))
    return phi, chi


def band_matrix(ab, order, size=None):
    """Dense symmetric (size x size) matrix whose lower band in the row order
    `order` is ab; rows and columns outside `order` are zero."""
    n = ab.shape[1]
    A = np.zeros((size or n, size or n))
    for d in range(ab.shape[0]):
        j = np.arange(n - d)
        A[order[j + d], order[j]] = A[order[j], order[j + d]] = ab[d, j]
    return A


@pytest.mark.parametrize("nx, ny", [(7, 3), (20, 10), (6, 14)])
def test_fixed_pattern_matches_reduced_assembly(nx, ny):
    cfg, mesh, mat = setup(nx, ny)
    op = fem.ElasticOperator(mesh, mat.K_A)
    # band row k is the free dof op.dofs[k], the reduced dof order[k]
    free = reference.free_dofs(mesh)
    order = np.searchsorted(free, op.dofs)
    assert np.array_equal(free[order], op.dofs) and op.n == len(free)
    rank = np.empty_like(order)
    rank[order] = np.arange(op.n)
    for seed in range(3):
        phi, chi = interior_fields(mesh, seed)
        ab = op.stiffness(reference.stiffness_factors(mesh, mat, phi, chi))
        ref, _ = reference.reduce(
            mesh, reference.assemble_elastic_stiffness(mesh, mat, phi, chi),
            np.zeros(2 * mesh.node_count))
        # every stored entry of the reference lies inside the band
        assert ab.shape == (op.kd + 1, op.n)
        ref_coo = ref.tocoo()
        assert np.abs(rank[ref_coo.row] - rank[ref_coo.col]).max() <= op.kd
        A, R = band_matrix(ab, order), ref.toarray()
        # entry scale sqrt(K_ii K_jj) bounds |K_ij| of an SPD matrix; entries
        # that are sums of cancelling element terms are small against it
        scale = np.sqrt(np.outer(np.diag(R), np.diag(R)))
        assert np.all(np.abs(A - R) <= 1e-12 * scale)
        assert np.array_equal(A, A.T)


@pytest.mark.parametrize("nx, ny, elastic_kd", [
    (20, 10, 2 * (10 + 2) + 1),     # wide: x-major, ny + 1 free nodes a column
    (6, 14, 2 * (6 + 1) + 1),       # tall: y-major, the clamped x = 0 node
])                                  # leaves nx free nodes a row
def test_band_half_bandwidth(nx, ny, elastic_kd):
    cfg, mesh, mat = setup(nx, ny)
    assert fem.ElasticOperator(mesh, mat.K_A).kd == elastic_kd
    assert elastic_kd <= 2 * (min(nx, ny) + 2) + 1
    ab = fem.lower_band(fem.assemble_scalar_stiffness(mesh), fem.band_order(mesh))
    assert ab.shape == (min(nx, ny) + 3, mesh.node_count)


def test_element_stress_matches_reference_formula():
    cfg, mesh, mat = setup(7, 3)
    phi, chi = interior_fields(mesh, 4)
    u = np.random.default_rng(5).standard_normal(2 * mesh.node_count)
    # the stress Optimizer.state_solve keeps as Iterate.sigma: s_e K_A (S u)_e
    s = mat.stiffness_factors(fem.element_averages(mesh, phi),
                              fem.element_averages(mesh, chi))[0]
    sigma = s[:, None] * ((fem.strain_operator(mesh) @ u).reshape(-1, 3) @ mat.K_A)
    ref = reference.element_stress(mesh, mat, phi, chi, u)
    assert np.allclose(sigma, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("which", ["elastic", "phase"])
def test_factor_spd_residual(which):
    cfg, mesh, mat = setup(20, 10)
    if which == "elastic":
        phi, chi = interior_fields(mesh, 8)
        op = fem.ElasticOperator(mesh, mat.K_A)
        rows, ab = op.dofs, op.stiffness(
            reference.stiffness_factors(mesh, mat, phi, chi))
        A = band_matrix(ab, rows, 2 * mesh.node_count)
    else:
        A = 1e3 * fem.assemble_scalar_mass(mesh) + fem.assemble_scalar_stiffness(mesh)
        rows = fem.band_order(mesh)
        ab = fem.lower_band(A, rows)
    # b is zero at the clamped dofs, where the solve returns zero
    b = np.zeros(A.shape[0])
    b[rows] = np.random.default_rng(9).standard_normal(len(rows))
    x = fem.BandCholesky(ab, rows).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_spd_singular_is_a_solver_error():
    A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(fem.SolverError, match="factorization"):
        fem.BandCholesky(fem.lower_band(A, np.arange(2)), np.arange(2))


def test_band_cholesky_rejects_an_indefinite_stiffness():
    cfg, mesh, mat = setup(7, 3)
    op = fem.ElasticOperator(mesh, mat.K_A)
    s = np.ones(mesh.element_count)
    s[5] = -50.0
    with pytest.raises(fem.SolverError, match="factorization"):
        fem.BandCholesky(op.stiffness(s), op.dofs)
