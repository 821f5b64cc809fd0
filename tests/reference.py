"""Reference elastic path for the tests: an oracle for the band operator.

Everything here is the textbook per-element loop.  For each triangle the 3x6
strain-displacement matrix B_e is built by hand from the shape-function
gradients, the element factor s_e is the stiffness factor at the centroid,
and K_e = A_e B_e^T (s_e K_A) B_e is added into a sparse 2N x 2N matrix.  It
shares no code with gradtopo's band scatter, strain operator or stress load,
so agreement between the two checks both.  Only the mesh and material
objects passed in are used: their geometry, K_A and the stiffness factor.
The per-element body-force load is the oracle for fem's body coupling C.

The STL and VTK readers parse gradtopo's output files on their own, and
the STL edge counts and volume are computed from the triangles as read,
and a region's area from its cap triangles.

UNCALIBRATED is the cantilever scenario that most small-mesh tests run: a
heavier load on a narrower strip, a sharp interface and small time steps,
with no seeded noise.  It is not the calibrated benchmark of RunConfig's
defaults: a full run of it does not converge.
"""

import struct
from collections import Counter

import numpy as np
import scipy.sparse as sp

# keyword overrides for cantilever_config; traction_length is a tenth of
# the default 100 mm height, and a test that changes the height scales it
UNCALIBRATED = dict(
    traction_y=-600.0, traction_length=10.0, gamma_phi=0.01, gamma_chi=0.01,
    ersatz=0.01, kappa1=400.0, tau=1e-6, tau_chi=1e-6, tol=0.02, seed=0,
    perturb=0.0, yield_stress=45.0)


def element_B(mesh, e: int) -> np.ndarray:
    """3x6 Voigt strain-displacement matrix of element e: rows (e11, e22,
    2*e12), columns (u1x, u1y, u2x, u2y, u3x, u3y)."""
    B = np.zeros((3, 6))
    for i, (gx, gy) in enumerate(mesh.grads[e]):
        B[0, 2 * i] = gx
        B[1, 2 * i + 1] = gy
        B[2, 2 * i] = gy
        B[2, 2 * i + 1] = gx
    return B


def element_dofs(mesh, e: int) -> list:
    return [d for n in mesh.elements[e] for d in (2 * n, 2 * n + 1)]


def stiffness_factors(mesh, material, phi, chi) -> np.ndarray:
    """s_e with K(phi, chi) = s_e K_A at each element centroid."""
    return np.array([material.stiffness_factors(phi[el].mean(), chi[el].mean())[0]
                     for el in mesh.elements])


def K_of(material, phi, chi) -> np.ndarray:
    """Interpolated Voigt matrix s(phi, chi) K_A, (..., 3, 3) for arrays."""
    s = np.asarray(material.stiffness_factors(phi, chi)[0])
    return s[..., None, None] * material.K_A


def dK_dphi(material, phi, chi) -> np.ndarray:
    s = np.asarray(material.stiffness_factors(phi, chi)[1])
    return s[..., None, None] * material.K_A


def dK_dchi(material, phi, chi) -> np.ndarray:
    s = np.asarray(material.stiffness_factors(phi, chi)[2])
    return s[..., None, None] * material.K_A


def assemble_elastic_stiffness(mesh, material, phi, chi) -> sp.csr_matrix:
    """Global stiffness sum_e A_e B_e^T (s_e K_A) B_e (2N x 2N, no boundary
    conditions applied)."""
    s = stiffness_factors(mesh, material, phi, chi)
    rows, cols, vals = [], [], []
    for e in range(mesh.element_count):
        B = element_B(mesh, e)
        Ke = mesh.element_areas[e] * (B.T @ (s[e] * material.K_A) @ B)
        dofs = element_dofs(mesh, e)
        for k in range(6):
            for l in range(6):
                rows.append(dofs[k])
                cols.append(dofs[l])
                vals.append(Ke[k, l])
    n = 2 * mesh.node_count
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def free_dofs(mesh) -> np.ndarray:
    """Ascending dofs of every node off the clamped side x = 0."""
    return np.array([d for n in range(mesh.node_count) if mesh.nodes[n, 0] != 0.0
                     for d in (2 * n, 2 * n + 1)])


def reduce(mesh, K, f):
    """Free-dof block (K_red, f_red) of K x = f.  The clamped dofs are held at
    zero, so the right-hand side needs no correction."""
    free = free_dofs(mesh)
    return K[free][:, free], f[free]


def element_stress(mesh, material, phi, chi, u) -> np.ndarray:
    """(M,3) constant per-element Voigt stress s_e K_A B_e u_e [MPa]."""
    s = stiffness_factors(mesh, material, phi, chi)
    return np.array([(s[e] * material.K_A) @ (element_B(mesh, e) @ u[element_dofs(mesh, e)])
                     for e in range(mesh.element_count)])


def adjoint_stress_load(aggregate, mesh, material, phi, chi, kappa5) -> np.ndarray:
    """Stress-penalty right-hand side of the adjoint system:
    sum_e kappa5 A_e B_e^T (s_e K_A) F_sigma_e, where the pointwise gradient
    F_sigma_e is dF/dsigma_e over the element's area weight A_e/|Omega|."""
    s = stiffness_factors(mesh, material, phi, chi)
    q = np.zeros(2 * mesh.node_count)
    for e in range(mesh.element_count):
        F_sigma = aggregate.dF_dsigma[e] * mesh.area / mesh.element_areas[e]
        q[element_dofs(mesh, e)] += kappa5 * mesh.element_areas[e] * (
            element_B(mesh, e).T @ ((s[e] * material.K_A) @ F_sigma))
    return q


def body_load(mesh, phi, body_force) -> np.ndarray:
    """Load [2N] of the phi-weighted body force: each element puts
    A_e phi_bar_e f / 3 on each of its three nodes (one-point rule)."""
    f = np.zeros(2 * mesh.node_count)
    for e, el in enumerate(mesh.elements):
        share = mesh.element_areas[e] * phi[el].mean() / 3.0
        for n in el:
            f[2 * n] += share * body_force[0]
            f[2 * n + 1] += share * body_force[1]
    return f


def read_stl_records(path: str) -> np.ndarray:
    """The records of a binary STL: 80-byte header, uint32 count, then
    50-byte records (normal, three vertices, attribute)."""
    with open(path, "rb") as fh:
        data = fh.read()
    count = struct.unpack_from("<I", data, 80)[0] if len(data) >= 84 else -1
    if len(data) != 84 + 50 * count:
        raise ValueError(f"{path}: not a binary STL ({len(data)} bytes)")
    record = np.dtype([("normal", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])
    return np.frombuffer(data, record, count, 84)


def read_stl(path: str) -> np.ndarray:
    """Triangles (n,3,3) of a binary STL."""
    return read_stl_records(path)["v"].astype(float)


def stl_edge_use_counts(tris: np.ndarray) -> dict:
    """Undirected edge (its two end vertices, as float32 coordinates) -> use
    count (2 everywhere for a closed mesh)."""
    verts = [[tuple(p) for p in tri] for tri in np.asarray(tris, np.float32).tolist()]
    return dict(Counter(frozenset((tri[k], tri[(k + 1) % 3]))
                        for tri in verts for k in range(3)))


def extruded_prism(caps, height: float) -> np.ndarray:
    """Triangles (n,3,3) of the prism over planar triangles (T,3,2): each at
    z = height, mirrored at z = 0, and a wall of two triangles on each of
    its edges that no other triangle shares (points compared as float32)."""
    caps = np.asarray(caps, dtype=float).reshape(-1, 3, 2)
    key = [[tuple(p) for p in cap] for cap in caps.astype(np.float32).tolist()]
    uses = Counter(frozenset((cap[k], cap[(k + 1) % 3])) for cap in key for k in range(3))
    tris = []
    for cap, cap_key in zip(caps.tolist(), key):
        tris.append([(x, y, height) for x, y in cap])
        tris.append([(x, y, 0.0) for x, y in cap[::-1]])
        for k in range(3):
            if uses[frozenset((cap_key[k], cap_key[(k + 1) % 3]))] == 1:
                (ax, ay), (bx, by) = cap[k], cap[(k + 1) % 3]
                tris.append([(ax, ay, 0.0), (bx, by, 0.0), (bx, by, height)])
                tris.append([(ax, ay, 0.0), (bx, by, height), (ax, ay, height)])
    return np.array(tris)


def cap_area(caps) -> float:
    """Summed signed area of planar triangles (T,3,2): positive for
    counter-clockwise ones."""
    caps = np.asarray(caps, dtype=float).reshape(-1, 3, 2)
    d1, d2 = caps[:, 1] - caps[:, 0], caps[:, 2] - caps[:, 0]
    return 0.5 * float(np.sum(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))


def stl_volume(tris: np.ndarray) -> float:
    """Signed enclosed volume (positive for outward orientation)."""
    return float(np.einsum("ij,ij->", tris[:, 0],
                           np.cross(tris[:, 1], tris[:, 2])) / 6.0)


def read_vtk_fields(path: str) -> dict:
    """Points, cells and the scalar fields of a legacy-VTK file written by
    gradtopo.export.write_fields."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    out: dict = {}
    i = 0
    npoints = ncells = 0
    while i < len(lines):
        line = lines[i].split()
        if not line:
            i += 1
            continue
        if line[0] == "POINTS":
            npoints = int(line[1])
            out["points"] = np.array([[float(v) for v in lines[i + 1 + k].split()[:2]]
                                      for k in range(npoints)])
            i += npoints + 1
        elif line[0] == "CELLS":
            ncells = int(line[1])
            out["cells"] = np.array([[int(v) for v in lines[i + 1 + k].split()[1:]]
                                     for k in range(ncells)])
            i += ncells + 1
        elif line[0] == "SCALARS":
            count = ncells if line[1] == "von_mises" else npoints
            out[line[1]] = np.array([float(lines[i + 2 + k]) for k in range(count)])
            i += count + 2
        else:
            i += 1
    return out
