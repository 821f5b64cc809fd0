"""Structured triangular mesh of the rectangle [0,a]x[0,b] with boundary tags.

The left edge (x=0) is clamped; a traction segment on the right edge carries
the applied load.  Grid cells are split along alternating diagonals
(union-jack-like) to avoid a preferred direction in the optimized layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
FREE = "free"


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with precomputed P1 element geometry.

    nodes          : (N,2) coordinates [mm]
    elements       : (M,3) node indices, counter-clockwise
    element_areas  : (M,) areas [mm^2]
    grads          : (M,3,2) gradients of the P1 shape functions
    boundary_edges : list of (n1, n2, tag); each edge lies on exactly one element
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_areas: np.ndarray
    grads: np.ndarray
    boundary_edges: tuple

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def area(self) -> float:
        return float(self.element_areas.sum())

    def dirichlet_nodes(self) -> np.ndarray:
        idx = sorted({n for (a, b, tag) in self.boundary_edges if tag == DIRICHLET for n in (a, b)})
        return np.array(idx, dtype=int)

    def neumann_edges(self) -> list:
        return [(a, b) for (a, b, tag) in self.boundary_edges if tag == NEUMANN]


def _geometry(nodes: np.ndarray, elements: np.ndarray):
    p0 = nodes[elements[:, 0]]
    p1 = nodes[elements[:, 1]]
    p2 = nodes[elements[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * twice_area
    # grad N_i for P1 on a triangle: rotate opposite edge by 90 deg / (2A)
    grads = np.empty((len(elements), 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        e = nodes[elements[:, k]] - nodes[elements[:, j]]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= twice_area[:, None, None]
    return areas, grads


def build_rect_mesh(config) -> Mesh:
    """Build the structured mesh for a RunConfig.

    (nx+1)(ny+1) nodes, 2*nx*ny triangles.  Node (ix,iy) has index
    iy*(nx+1)+ix.  Right-edge edges overlapping the traction segment are
    tagged Neumann; the whole left edge is Dirichlet.
    """
    a, b = config.domain_width, config.domain_height
    nx, ny = config.mesh_nx, config.mesh_ny
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    # cells in row-major order (iy outer); each splits along the diagonal
    # n00-n11 when ix+iy is even and along n10-n01 otherwise
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    n00 = nid(ix, iy)
    n10 = n00 + 1
    n01 = n00 + nx + 1
    n11 = n01 + 1
    even = ((ix + iy) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([n00, n10, n11]),
                     np.column_stack([n00, n10, n01]))
    second = np.where(even, np.column_stack([n00, n11, n01]),
                      np.column_stack([n10, n11, n01]))
    elements = np.stack([first, second], axis=1).reshape(-1, 3)

    areas, grads = _geometry(nodes, elements)

    half = config.traction_length_eff / 2.0
    seg_lo = config.traction_center_eff - half
    seg_hi = config.traction_center_eff + half
    edges = []
    for iy in range(ny):                      # left edge: Dirichlet
        edges.append((nid(0, iy), nid(0, iy + 1), DIRICHLET))
    for iy in range(ny):                      # right edge: Neumann on the segment
        y0, y1 = ys[iy], ys[iy + 1]
        tag = NEUMANN if (min(y1, seg_hi) - max(y0, seg_lo)) > 1e-12 * b else FREE
        edges.append((nid(nx, iy), nid(nx, iy + 1), tag))
    for ix in range(nx):                      # bottom and top: traction free
        edges.append((nid(ix, 0), nid(ix + 1, 0), FREE))
        edges.append((nid(ix, ny), nid(ix + 1, ny), FREE))

    return Mesh(nodes=nodes, elements=elements, element_areas=areas,
                grads=grads, boundary_edges=tuple(edges))


def locate_region_nodes(mesh: Mesh, box) -> np.ndarray:
    """Indices of all nodes inside the closed box (may be empty)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    inside = (x >= box.x0) & (x <= box.x1) & (y >= box.y0) & (y <= box.y1)
    return np.flatnonzero(inside)
