import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

import reference
from gradtopo import fem
from gradtopo.config import cantilever_config
from gradtopo.material import MaterialModel, plane_stress_matrix
from gradtopo.mesh import build_rect_mesh
from gradtopo.optimizer import Optimizer


def setup(nx=4, ny=2, **kw):
    cfg = cantilever_config(**{**reference.UNCALIBRATED, "mesh_nx": nx, "mesh_ny": ny,
                               **kw})
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
    mat = MaterialModel(E=2.0, nu=0.0, beta=1.0, ersatz=0.01)
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
    cfg, mesh, mat = setup(5, 3, traction_y=0.0, body_fy=-0.1)
    phi = np.random.default_rng(0).random(mesh.node_count)
    C = fem.assemble_body_coupling(mesh, cfg, fem.node_incidence(mesh))
    # C^T phi must equal the per-element phi-weighted body load
    f = reference.body_load(mesh, phi, (cfg.body_fx, cfg.body_fy))
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
    no_body = dataclasses.replace(cfg, body_fy=0.0)
    assert fem.assemble_body_coupling(mesh, no_body, fem.node_incidence(mesh)).nnz == 0


# --- scalar operators ------------------------------------------------------

def test_mass_matrix_exact_for_linear_products():
    cfg, mesh, mat = setup(4, 3)
    M = fem.assemble_scalar_operators(mesh)[0]
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
    K = fem.assemble_scalar_operators(mesh)[1]
    ones = np.ones(mesh.node_count)
    assert np.linalg.norm(K @ ones) < 1e-10
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    # int |grad x|^2 = |Omega|
    assert float(x @ (K @ x)) == pytest.approx(mesh.area, rel=1e-12)
    assert float(x @ (K @ y)) == pytest.approx(0.0, abs=1e-9)
    assert float((2 * x + 3 * y) @ (K @ (2 * x + 3 * y))) == pytest.approx(13 * mesh.area, rel=1e-12)


def test_scalar_operators_match_separate_assembly_bitwise():
    """M and K, sorted into CSR together, have the bits of each matrix
    assembled on its own through COO -> CSR."""
    cfg, mesh, mat = setup(13, 7)
    el, N = mesh.elements, mesh.node_count
    rows, cols = np.repeat(el, 3, axis=1).ravel(), np.tile(el, (1, 3)).ravel()
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    g = mesh.grads
    gg = g[:, :, None, 0] * g[:, None, :, 0] + g[:, :, None, 1] * g[:, None, :, 1]
    for got, blocks in zip(fem.assemble_scalar_operators(mesh), (local, gg)):
        blocks = mesh.element_areas[:, None, None] * blocks
        want = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(N, N)).tocsr()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


# a non-uniform mesh: there element-order sums and COO -> CSR duplicate sums
# of the mass matrix differ in some entries, so a changed summation order shows
SKEWED = dict(mesh_nx=37, mesh_ny=13, domain_width=123.4, domain_height=45.6)


def pair_formula_scatter(mesh, K_A):
    """The elastic scatter from (21, M) gathers of the element dof ranks and
    (3, 3, 2, 2, M) element stiffness blocks, frozen as a bitwise oracle."""
    M, N = mesh.element_count, mesh.node_count
    nodes = fem.band_order(mesh)
    nodes = nodes[mesh.nodes[nodes, 0] != 0.0]
    dofs = (2 * nodes[:, None] + [0, 1]).ravel()
    dof_rank = np.full(2 * N, -1)
    dof_rank[dofs] = np.arange(len(dofs))
    el = mesh.elements
    element_dofs = np.empty((M, 6), dtype=int)
    element_dofs[:, 0::2] = 2 * el
    element_dofs[:, 1::2] = 2 * el + 1
    k, l = np.tril_indices(6)
    r = dof_rank[element_dofs.T]
    p, q = np.maximum(r[k], r[l]), np.minimum(r[k], r[l])
    free = q >= 0
    p -= q
    kd = int(p.max(where=free, initial=0))
    q *= kd + 1
    q += p
    E = fem._UNIT_STRAINS
    C = np.einsum("pvc,vw,qwd->pqcd", E, K_A, E).reshape(4, 4)
    g = np.ascontiguousarray(mesh.grads.transpose(1, 2, 0))
    gg = g[:, None, :, None] * g[None, :, None, :]
    Ke = (C.T @ gg.reshape(9, 4, -1)).reshape(gg.shape)
    Ke *= mesh.element_areas
    i, c, j, d = k // 2, k % 2, l // 2, l % 2
    lower = Ke[i, j, c, d]
    lower += Ke[j, i, d, c]
    lower *= 0.5
    keep = free.T
    scatter = sp.csr_matrix(
        (lower.T[keep], q.T[keep], np.concatenate([[0], np.cumsum(keep.sum(axis=1))])),
        shape=(M, (kd + 1) * len(dofs))).T
    return scatter, kd, dofs


@pytest.mark.parametrize("kw", [SKEWED, dict(mesh_nx=6, mesh_ny=14)], ids=["skewed", "tall"])
def test_elastic_scatter_matches_the_pair_formula_bitwise(kw):
    cfg = cantilever_config(**kw)
    mesh, mat = build_rect_mesh(cfg), MaterialModel.from_config(cfg)
    op = fem.ElasticOperator(mesh, mat.K_A)
    want, kd, dofs = pair_formula_scatter(mesh, mat.K_A)
    assert op.kd == kd and np.array_equal(op.dofs, dofs)
    assert op.scatter.shape == want.shape
    assert np.array_equal(op.scatter.indptr, want.indptr)
    assert np.array_equal(op.scatter.indices, want.indices)
    assert np.array_equal(op.scatter.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_phase_bands_match_the_sparse_sums_bitwise(monkeypatch, beta):
    """Optimizer factors the band of each phase operator a M + b K exactly as
    lower_band places the sparse sum."""
    bands = []
    factor = fem.BandCholesky
    monkeypatch.setattr(fem, "BandCholesky",
                        lambda ab, rows: bands.append(ab.copy(order="A")) or factor(ab, rows))
    opt = Optimizer(cantilever_config(**SKEWED, beta=beta))
    cfg, M, K = opt.config, opt.M_raw, opt.K_raw
    gp, gc = cfg.gamma_phi, cfg.gamma_chi
    operators = [(gp / cfg.tau) * M + cfg.kappa1 * gp * K,
                 (gc / cfg.tau_chi) * M + cfg.kappa2 * gc * K]
    assert len(bands) == (1 if beta == 1.0 else 2)
    for ab, A in zip(bands, operators):
        want = reference.lower_band(A, opt.band_order)
        assert ab.shape == want.shape and ab.flags.f_contiguous
        assert np.array_equal(ab.view(np.int64), want.view(np.int64))


def test_volume_row_exact_for_linear_fields():
    cfg, mesh, mat = setup(5, 4)
    r = fem.lumped_weights(mesh)
    x = mesh.nodes[:, 0]
    assert float(r.sum()) == pytest.approx(mesh.area, rel=1e-12)
    # int x over [0,200]x[0,100]
    assert float(r @ x) == pytest.approx(200.0 ** 2 / 2 * 100.0, rel=1e-12)
    # lumped weights are the mass-matrix row sums
    M = fem.assemble_scalar_operators(mesh)[0]
    assert np.allclose(r, np.asarray(M.sum(axis=1)).ravel())


def test_bincount_sums_match_add_at_bitwise():
    """lumped_weights and assemble_load add each dof's terms in the order of
    the np.add.at loops they replace, so the sums are bitwise equal."""
    cfg, mesh, mat = setup(9, 5, traction_length=30.0, body_fx=0.3, body_fy=-0.1)
    w = np.zeros(mesh.node_count)
    for i in range(3):
        np.add.at(w, mesh.elements[:, i], mesh.element_areas / 3.0)
    assert np.array_equal(fem.lumped_weights(mesh), w)
    f = np.zeros(2 * mesh.node_count)
    for node, wk in zip(*fem._traction_edge_contributions(mesh, cfg)):
        f[2 * node] += wk * cfg.traction_x
        f[2 * node + 1] += wk * cfg.traction_y
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
    ab = reference.lower_band(fem.assemble_scalar_operators(mesh)[1], fem.band_order(mesh))
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
        M, K = fem.assemble_scalar_operators(mesh)
        A = 1e3 * M + K
        rows = fem.band_order(mesh)
        ab = reference.lower_band(A, rows)
    # b is zero at the clamped dofs, where the solve returns zero
    b = np.zeros(A.shape[0])
    b[rows] = np.random.default_rng(9).standard_normal(len(rows))
    x = fem.BandCholesky(ab, rows).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_lower_band_sums_duplicates_and_accepts_csc():
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    order = np.array([2, 0, 1])
    ab = reference.lower_band(sp.csr_matrix(dense), order)
    assert np.array_equal(band_matrix(ab, order), dense)
    # 5 = 2 + 3 on the diagonal and 2 = 0.5 + 1.5 off it, stored twice each
    dup = sp.coo_matrix(([4.0, 1.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.0, 6.0],
                         ([0, 0, 1, 1, 1, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2, 2, 1, 2])),
                        shape=(3, 3))
    assert np.array_equal(reference.lower_band(dup, order), ab)
    assert np.array_equal(reference.lower_band(sp.csc_matrix(dense), order), ab)


@pytest.mark.parametrize("rhs", ["load", "zero", "full"])
def test_band_solve_from_the_first_nonzero_row(rhs):
    cfg, mesh, mat = setup(20, 10)
    op = fem.ElasticOperator(mesh, mat.K_A)
    ab = op.stiffness(np.random.default_rng(2).uniform(0.1, 1.0, mesh.element_count))
    A = band_matrix(ab, op.dofs, 2 * mesh.node_count)[np.ix_(op.dofs, op.dofs)]
    b = np.zeros(2 * mesh.node_count)
    if rhs == "load":
        # the strip's dofs come last in band order: the sweep starts near the end
        b = fem.assemble_load(mesh, cfg)
        assert np.flatnonzero(b[op.dofs])[0] > 0.9 * op.n
    elif rhs == "full":
        b[op.dofs] = np.random.default_rng(3).standard_normal(op.n)
    factor, _ = lapack.dpbtrf(ab, lower=1)
    x = fem.BandCholesky(ab, op.dofs).solve(b)
    dense = np.linalg.solve(A, b[op.dofs])
    assert np.all(np.abs(x[op.dofs] - dense) <= 1e-12 * max(np.abs(dense).max(), 1.0))
    assert np.array_equal(x[op.dofs], lapack.dpbtrs(factor, b[op.dofs], lower=1)[0])
    assert not np.delete(x, op.dofs).any()


@pytest.mark.parametrize("rhs", ["full", "weights"])
def test_band_solve_of_a_phase_operator_matches_dpbtrs(rhs):
    cfg, mesh, mat = setup(20, 10)
    M, K = fem.assemble_scalar_operators(mesh)
    rows = fem.band_order(mesh)
    ab = reference.lower_band(1e3 * M + K, rows)
    b = (fem.lumped_weights(mesh) if rhs == "weights"
         else np.random.default_rng(4).standard_normal(mesh.node_count))
    factor, _ = lapack.dpbtrf(ab, lower=1)
    x = fem.BandCholesky(ab, rows).solve(b)
    assert np.array_equal(x[rows], lapack.dpbtrs(factor, b[rows], lower=1)[0])


def test_factor_spd_singular_is_a_solver_error():
    A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(fem.SolverError, match="factorization"):
        fem.BandCholesky(reference.lower_band(A, np.arange(2)), np.arange(2))


def test_band_cholesky_rejects_an_indefinite_stiffness():
    cfg, mesh, mat = setup(7, 3)
    op = fem.ElasticOperator(mesh, mat.K_A)
    s = np.ones(mesh.element_count)
    s[5] = -50.0
    with pytest.raises(fem.SolverError, match="factorization"):
        fem.BandCholesky(op.stiffness(s), op.dofs)
