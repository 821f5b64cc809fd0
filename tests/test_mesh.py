import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradtopo.config import Box, cantilever_config
from gradtopo.mesh import _geometry, build_rect_mesh, locate_region_nodes


def small_mesh(nx=4, ny=2, **kw):
    return build_rect_mesh(cantilever_config(mesh_nx=nx, mesh_ny=ny, **kw))


def test_counts_and_total_area():
    mesh = small_mesh(5, 3)
    assert mesh.node_count == 6 * 4
    assert mesh.element_count == 2 * 5 * 3
    assert mesh.area == pytest.approx(200.0 * 100.0, rel=1e-14)


def test_elements_counter_clockwise():
    mesh = small_mesh(7, 4)
    assert np.all(mesh.element_areas > 0)


def test_element_areas_uniform():
    mesh = small_mesh(4, 2)
    # structured grid split into two triangles per cell
    expected = 0.5 * (200.0 / 4) * (100.0 / 2)
    assert np.allclose(mesh.element_areas, expected)


def test_shape_function_gradients_partition_of_unity():
    mesh = small_mesh(6, 3)
    # gradients of the three P1 shape functions sum to zero on each element
    assert np.allclose(mesh.grads.sum(axis=1), 0.0, atol=1e-14)


def test_shape_function_gradients_linear_exactness():
    mesh = small_mesh(5, 4)
    # nodal values of x (resp. y) must reproduce gradient (1,0) (resp. (0,1))
    for comp, expected in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
        vals = mesh.nodes[mesh.elements, comp]              # (M,3)
        g = np.einsum("ei,eid->ed", vals, mesh.grads)
        assert np.allclose(g, expected, atol=1e-12)


def edge_uses(mesh):
    """Number of elements that use each undirected edge."""
    counts = {}
    for (a, b, c) in mesh.elements:
        for e in ((a, b), (b, c), (c, a)):
            counts[tuple(sorted(e))] = counts.get(tuple(sorted(e)), 0) + 1
    return counts


def on_side(mesh, a, b):
    """Whether both ends of the edge (a, b) lie on one side of the rectangle."""
    x, y = mesh.nodes[[a, b]].T
    return any(np.all(v == side) for v, side in
               ((x, 0.0), (x, 200.0), (y, 0.0), (y, 100.0)))


def test_boundary_edges_belong_to_one_element():
    nx, ny = 5, 3
    mesh = small_mesh(nx, ny)
    # the edges used by one element are exactly the 2(nx+ny) edges of the sides
    boundary = [e for e, n in edge_uses(mesh).items() if n == 1]
    assert len(boundary) == 2 * (nx + ny)
    assert all(on_side(mesh, a, b) for a, b in boundary)


def test_interior_edges_shared_by_two_elements():
    mesh = small_mesh(4, 3)
    for (a, b), n in edge_uses(mesh).items():
        assert n == (1 if on_side(mesh, a, b) else 2)


def test_alternating_diagonals():
    mesh = small_mesh(2, 2)
    # cell (0,0): diagonal n00-n11; cell (1,0): diagonal n10-n01
    el = {tuple(sorted(t)) for t in mesh.elements.tolist()}
    assert tuple(sorted((0, 1, 4))) in el and tuple(sorted((0, 4, 3))) in el
    assert tuple(sorted((1, 2, 4))) in el and tuple(sorted((2, 5, 4))) in el


def loop_elements(nx, ny):
    """Reference: the cell-by-cell loop the vectorized builder replaced."""
    def nid(ix, iy):
        return iy * (nx + 1) + ix

    elements = []
    for iy in range(ny):
        for ix in range(nx):
            n00, n10 = nid(ix, iy), nid(ix + 1, iy)
            n01, n11 = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            if (ix + iy) % 2 == 0:
                elements += [(n00, n10, n11), (n00, n11, n01)]
            else:
                elements += [(n00, n10, n01), (n10, n11, n01)]
    return np.array(elements, dtype=int)


@pytest.mark.parametrize("nx, ny", [(4, 2), (7, 3), (100, 50)])
def test_elements_match_cell_loop(nx, ny):
    mesh = small_mesh(nx, ny)
    ref = loop_elements(nx, ny)
    assert mesh.elements.dtype == ref.dtype
    assert np.array_equal(mesh.elements, ref)
    areas, grads = _geometry(mesh.nodes, ref)
    assert np.array_equal(mesh.element_areas, areas)
    assert np.array_equal(mesh.grads, grads)
    assert sum(n == 1 for n in edge_uses(mesh).values()) == 2 * (nx + ny)


def test_locate_region_nodes():
    mesh = small_mesh(4, 2)   # dx=50, dy=50
    idx = locate_region_nodes(mesh, Box(0.0, 0.0, 50.0, 50.0))
    pts = mesh.nodes[idx]
    assert len(idx) == 4
    assert np.all(pts[:, 0] <= 50.0) and np.all(pts[:, 1] <= 50.0)
    assert len(locate_region_nodes(mesh, Box(10.0, 10.0, 20.0, 20.0))) == 0


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12))
def test_area_partition_property(nx, ny):
    mesh = small_mesh(nx, ny)
    assert mesh.element_count == 2 * nx * ny
    assert mesh.area == pytest.approx(20000.0, rel=1e-12)
    assert np.all(mesh.element_areas > 0)
