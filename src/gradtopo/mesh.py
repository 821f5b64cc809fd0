"""Structured triangular mesh of the rectangle [0,a]x[0,b].

The mesh is geometry only; the boundary conditions on its sides are fem's.
Grid cells are split along alternating diagonals (union-jack-like) to avoid
a preferred direction in the optimized layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation; its P1 element geometry is computed on
    first use (the STL export never reads it).

    nodes          : (N,2) coordinates [mm]
    elements       : (M,3) node indices, counter-clockwise
    element_areas  : (M,) areas [mm^2]
    grads          : (M,3,2) gradients of the P1 shape functions
    """

    nodes: np.ndarray
    elements: np.ndarray

    @cached_property
    def _p1(self) -> tuple[np.ndarray, np.ndarray]:
        return _geometry(self.nodes, self.elements)

    @property
    def element_areas(self) -> np.ndarray:
        return self._p1[0]

    @property
    def grads(self) -> np.ndarray:
        return self._p1[1]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @cached_property
    def area(self) -> float:
        return float(self.element_areas.sum())


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
    iy*(nx+1)+ix, so the nodes of one vertical side run upward in index order.
    """
    a, b = config.domain_width, config.domain_height
    nx, ny = config.mesh_nx, config.mesh_ny
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # cells in row-major order (iy outer); each splits along the diagonal
    # n00-n11 when ix+iy is even and along n10-n01 otherwise
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    n00 = iy * (nx + 1) + ix
    n10 = n00 + 1
    n01 = n00 + nx + 1
    n11 = n01 + 1
    even = ((ix + iy) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([n00, n10, n11]),
                     np.column_stack([n00, n10, n01]))
    second = np.where(even, np.column_stack([n00, n11, n01]),
                      np.column_stack([n10, n11, n01]))
    elements = np.stack([first, second], axis=1).reshape(-1, 3)

    return Mesh(nodes=nodes, elements=elements)


def locate_region_nodes(mesh: Mesh, box) -> np.ndarray:
    """Indices of all nodes inside the closed box (may be empty)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    inside = (x >= box.x0) & (x <= box.x1) & (y >= box.y0) & (y <= box.y1)
    return np.flatnonzero(inside)


def frozen_bounds(mesh: Mesh, config) -> tuple[np.ndarray, np.ndarray]:
    """Nodal bounds (lower, upper) of phi: [0, 1], with upper 0 in the
    config's fixed_void boxes and lower 1 in its fixed_solid boxes."""
    lower, upper = np.zeros(mesh.node_count), np.ones(mesh.node_count)
    for box in config.fixed_void:
        upper[locate_region_nodes(mesh, box)] = 0.0
    for box in config.fixed_solid:
        lower[locate_region_nodes(mesh, box)] = 1.0
    return lower, upper
