import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from gradtopo import export, stress
from gradtopo.config import cantilever_config
from gradtopo.mesh import build_rect_mesh
from gradtopo.optimizer import IterationRecord, run


def make_mesh(nx=20, ny=10):
    return build_rect_mesh(cantilever_config(mesh_nx=nx, mesh_ny=ny))


# --- VTK / CSV --------------------------------------------------------------

def test_vtk_round_trip(tmp_path):
    cfg = cantilever_config(mesh_nx=6, mesh_ny=3, max_iter=2)
    state, _ = run(cfg)
    mesh = build_rect_mesh(cfg)
    path = str(tmp_path / "fields.vtk")
    export.write_fields(state, mesh, path)
    data = reference.read_vtk_fields(path)
    assert np.allclose(data["points"], mesh.nodes)
    assert np.array_equal(data["cells"], mesh.elements)
    assert np.allclose(data["phi"], state.phi, rtol=1e-8)
    assert np.allclose(data["chi"], state.chi, rtol=1e-8)
    assert len(data["von_mises"]) == mesh.element_count


def test_write_fields_matches_per_row_formatting(tmp_path):
    """The block formatting writes the bytes of the per-row f-string loop."""
    mesh = make_mesh(6, 3)
    rng = np.random.default_rng(3)
    n = mesh.node_count
    phi = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    phi[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    state = SimpleNamespace(phi=phi, chi=rng.random(n),
                            u=rng.standard_normal(2 * n),
                            sigma=rng.standard_normal((mesh.element_count, 3)))
    path = str(tmp_path / "fields.vtk")
    export.write_fields(state, mesh, path)
    M = mesh.element_count
    ref = (f"# vtk DataFile Version 3.0\ngradtopo fields\nASCII\n"
           f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
    ref += "".join(f"{x:.9g} {y:.9g} 0\n" for x, y in mesh.nodes)
    ref += f"CELLS {M} {4 * M}\n"
    ref += "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.elements)
    ref += f"CELL_TYPES {M}\n" + "5\n" * M + f"POINT_DATA {n}\n"
    for name, data in (("phi", state.phi), ("chi", state.chi),
                       ("u_mag", np.hypot(state.u[0::2], state.u[1::2]))):
        ref += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
        ref += "\n".join(f"{v:.9g}" for v in data) + "\n"
    ref += f"CELL_DATA {M}\nSCALARS von_mises double 1\nLOOKUP_TABLE default\n"
    ref += "\n".join(f"{v:.9g}" for v in stress.von_mises(state.sigma)) + "\n"
    with open(path, encoding="ascii") as fh:
        assert fh.read() == ref


def test_write_fields_empty_path():
    with pytest.raises(ValueError, match="empty output path"):
        export.write_fields(None, None, "")


def test_history_csv_deterministic(tmp_path):
    recs = [IterationRecord(iter=i, objective=1.0 / (i + 1), compliance=3130.5,
                            m_chi=0.527, delta_phi=1e-3, delta_chi=2e-4,
                            lam=-0.1, max_von_mises=44.0, wall_time=float(i))
            for i in range(3)]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    export.write_history_csv(recs, p1)
    # different wall_time must not change the bytes
    for r in recs:
        r.wall_time += 17.0
    export.write_history_csv(recs, p2)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "iter,objective,compliance,m_chi,delta_phi,delta_chi,lam,max_von_mises"
    assert len(b1.decode().splitlines()) == 4


# --- contour extraction -----------------------------------------------------

def test_contour_linear_field_vertical_cut():
    mesh = make_mesh()
    chi = mesh.nodes[:, 0] / 200.0           # iso-line of 0.5 at x = 100
    cps = export.threshold_contour(chi, mesh, 0.5)
    assert len(cps.loops_above) == 1 and len(cps.loops_below) == 1
    assert cps.area_above == pytest.approx(100.0 * 100.0, rel=1e-9)
    assert cps.area_below == pytest.approx(100.0 * 100.0, rel=1e-9)
    # the above loop covers [100,200]x[0,100]
    loop = cps.loops_above[0]
    assert loop[:, 0].min() == pytest.approx(100.0)
    assert loop[:, 0].max() == pytest.approx(200.0)
    # closed: consecutive points distinct, signed area positive (outer CCW)
    assert export._signed_area(loop) > 0


def test_contour_areas_partition_domain():
    mesh = make_mesh(16, 8)
    rng = np.random.default_rng(21)
    chi = rng.random(mesh.node_count)
    cps = export.threshold_contour(chi, mesh, 0.5)
    assert cps.area_above + cps.area_below == pytest.approx(mesh.area, rel=1e-9)
    assert cps.area_above > 0 and cps.area_below > 0


def test_contour_areas_cover_mesh_with_nodes_on_threshold():
    # two nodes sit exactly on the threshold, so crossings collapse onto them
    mesh = make_mesh(2, 2)
    chi = np.array([0.5, 0.75, 1.0, 0.75, 0.0, 0.0, 0.5, 0.0, 0.75])
    cps = export.threshold_contour(chi, mesh, 0.5)
    assert cps.area_above + cps.area_below == pytest.approx(mesh.area, rel=1e-12)


def test_contour_island_and_hole():
    mesh = make_mesh(30, 15)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    r2 = (x - 100.0) ** 2 + (y - 50.0) ** 2
    chi = np.where(r2 < 30.0 ** 2, 0.1, 0.9)    # low island in a high sea
    cps = export.threshold_contour(chi, mesh, 0.5)
    # above region: rectangle with one hole -> one CCW outer + one CW hole
    areas = sorted(export._signed_area(p) for p in cps.loops_above)
    assert len(areas) == 2
    assert areas[1] > 0 > areas[0]
    # below region is the island: a single CCW loop matching the hole's area
    assert len(cps.loops_below) == 1
    island = export._signed_area(cps.loops_below[0])
    assert island == pytest.approx(-areas[0], rel=1e-9)
    assert cps.area_above + cps.area_below == pytest.approx(mesh.area, rel=1e-9)


def test_contour_uniform_field_single_side():
    mesh = make_mesh(4, 2)
    cps = export.threshold_contour(np.full(mesh.node_count, 0.9), mesh, 0.5)
    assert len(cps.loops_below) == 0
    assert cps.area_above == pytest.approx(mesh.area, rel=1e-12)
    # values exactly on the threshold count as above
    cps2 = export.threshold_contour(np.full(mesh.node_count, 0.5), mesh, 0.5)
    assert cps2.area_above == pytest.approx(mesh.area, rel=1e-12)
    assert len(cps2.loops_below) == 0


def test_contour_threshold_range_checked():
    mesh = make_mesh(2, 2)
    with pytest.raises(ValueError, match="threshold"):
        export.threshold_contour(np.zeros(mesh.node_count), mesh, 1.5)


def test_contour_deterministic():
    mesh = make_mesh(12, 6)
    chi = np.sin(mesh.nodes[:, 0] / 17.0) * np.cos(mesh.nodes[:, 1] / 13.0) * 0.5 + 0.5
    a = export.threshold_contour(chi, mesh, 0.5)
    b = export.threshold_contour(chi, mesh, 0.5)
    assert len(a.loops_above) == len(b.loops_above)
    for p, q in zip(a.loops_above, b.loops_above):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("nx, ny", [(24, 6), (5, 17)])
def test_directed_boundary_has_interior_on_left(nx, ny):
    mesh = make_mesh(nx, ny)
    directed = export._directed_boundary(mesh)
    assert len(directed) == len(mesh.boundary_edges)
    # the third corner of the element on each edge lies left of it
    on_edge = {frozenset(e): c for tri in mesh.elements.tolist()
               for e, c in (((tri[0], tri[1]), tri[2]), ((tri[1], tri[2]), tri[0]),
                            ((tri[2], tri[0]), tri[1]))}
    for a, b in directed.tolist():
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        pc = mesh.nodes[on_edge[frozenset((a, b))]]
        d1, d2 = pb - pa, pc - pa
        assert d1[0] * d2[1] - d1[1] * d2[0] > 0.0


# --- STL --------------------------------------------------------------------

def check_watertight(tris):
    counts = reference.stl_edge_use_counts(tris)
    assert counts, "empty STL"
    assert all(c == 2 for c in counts.values())


def test_extrude_rectangle(tmp_path):
    loop = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    path = str(tmp_path / "box.stl")
    caps = [loop[[0, 1, 2]], loop[[0, 2, 3]]]
    n = export.extrude_to_stl([loop], 3.0, path, caps)
    tris = reference.read_stl(path)
    assert len(tris) == n == 12     # 2+2 caps, 4 sides x 2
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx(4.0 * 2.0 * 3.0, rel=1e-6)


def test_extrude_with_hole(tmp_path):
    outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    hole = np.array([[4.0, 4.0], [4.0, 6.0], [6.0, 6.0], [6.0, 4.0]])  # CW
    path = str(tmp_path / "frame.stl")
    # the frame as CCW triangles, two per trapezoid between an outer edge
    # and the hole edge facing it
    caps = [((0, 0), (10, 0), (6, 4)), ((0, 0), (6, 4), (4, 4)),
            ((10, 0), (10, 10), (6, 6)), ((10, 0), (6, 6), (6, 4)),
            ((10, 10), (0, 10), (4, 6)), ((10, 10), (4, 6), (6, 6)),
            ((0, 10), (0, 0), (4, 4)), ((0, 10), (4, 4), (4, 6))]
    export.extrude_to_stl([outer, hole], 2.0, path, caps)
    tris = reference.read_stl(path)
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx((100.0 - 4.0) * 2.0, rel=1e-6)


def test_extrude_contour_polygon_set(tmp_path):
    mesh = make_mesh(10, 5)
    chi = mesh.nodes[:, 0] / 200.0
    cps = export.threshold_contour(chi, mesh, 0.5)
    pa, pb = str(tmp_path / "above.stl"), str(tmp_path / "below.stl")
    export.extrude_to_stl(cps.loops_above, 5.0, pa, cps.caps_above)
    export.extrude_to_stl(cps.loops_below, 5.0, pb, cps.caps_below)
    ta, tb = reference.read_stl(pa), reference.read_stl(pb)
    check_watertight(ta)
    check_watertight(tb)
    assert reference.stl_volume(ta) == pytest.approx(cps.area_above * 5.0, rel=1e-6)
    assert reference.stl_volume(tb) == pytest.approx(cps.area_below * 5.0, rel=1e-6)


def test_extrude_nontrivial_contour_watertight(tmp_path):
    mesh = make_mesh(24, 12)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    chi = 0.5 + 0.45 * np.sin(x / 23.0) * np.cos(y / 11.0)
    cps = export.threshold_contour(chi, mesh, 0.5)
    path = str(tmp_path / "blob.stl")
    export.extrude_to_stl(cps.loops_above, 7.5, path, cps.caps_above)
    tris = reference.read_stl(path)
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx(cps.area_above * 7.5, rel=1e-6)


def test_extrude_rejects_open_solid(tmp_path):
    # one cap triangle of two leaves the prism open along the diagonal
    loop = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    path = tmp_path / "x.stl"
    with pytest.raises(export.GeometryError, match="not closed"):
        export.extrude_to_stl([loop], 1.0, str(path), [loop[[0, 1, 2]]])
    assert not path.exists()
    # a cap corner one float32 step off the loop's corner is another vertex
    off = loop.copy()
    off[2, 0] = np.nextafter(np.float32(4.0), np.float32(5.0))
    with pytest.raises(export.GeometryError, match="not closed"):
        export.extrude_to_stl([loop], 1.0, str(path), [off[[0, 1, 2]], loop[[0, 2, 3]]])
    assert not path.exists()
    # -0.0 and +0.0 are one vertex
    signed = np.where(loop == 0.0, -0.0, loop)
    assert export.extrude_to_stl([loop], 1.0, str(path), [signed[[0, 1, 2]], signed[[0, 2, 3]]]) == 12


def random_soup(rng, count):
    """Triangles drawn from a small vertex pool: shared vertices, vertices
    that differ only in z, zeros of either sign, and coordinates that round
    to the same float32."""
    xy = rng.integers(-2, 3, size=(6, 2)).astype(float)
    pool = np.concatenate([np.column_stack([xy, np.full(6, z)]) for z in (0.0, 1.5, -3.0)])
    tris = pool[rng.integers(0, len(pool), size=(count, 3))]
    nudge = rng.random(tris.shape) < 0.2
    tris[nudge] += 1e-9 * (tris[nudge] != 0.0)
    tris[(rng.random(tris.shape) < 0.5) & (tris == 0.0)] = -0.0
    return tris


@pytest.mark.parametrize("seed", range(12))
def test_edge_uses_matches_reference_counts(seed):
    rng = np.random.default_rng(seed)
    tris = random_soup(rng, int(rng.integers(1, 60)))
    expected = reference.stl_edge_use_counts(tris)
    assert sorted(export._edge_uses(tris).tolist()) == sorted(expected.values())


def test_extrude_rejects_bad_height_and_empty(tmp_path):
    loop = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="height"):
        export.extrude_to_stl([loop], 0.0, str(tmp_path / "x.stl"), [loop])
    with pytest.raises(export.GeometryError, match="no polygons"):
        export.extrude_to_stl([], 1.0, str(tmp_path / "x.stl"), [])


def test_stl_volume_sign_convention(tmp_path):
    # inverted (CW) loop would self-report as a hole; a lone triangle prism
    loop = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    path = str(tmp_path / "tri.stl")
    export.extrude_to_stl([loop], 1.0, path, [loop])
    tris = reference.read_stl(path)
    assert reference.stl_volume(tris) == pytest.approx(18.0, rel=1e-6)
    assert reference.stl_volume(tris[:, ::-1, :]) == pytest.approx(-18.0, rel=1e-6)


def test_contour_merges_points_within_float32_resolution(tmp_path):
    """The STL stores float32, so crossings closer than its resolution are one
    STL vertex; the contour must merge them too, or the STL gets edges used
    4 or 6 times."""
    mesh = make_mesh(20, 10)
    # iso-line at x = 100 + 1e-7: every crossing lies 1e-7 mm from a node of
    # the column x = 100, far below float32 resolution there (7.6e-6 mm)
    chi = 0.5 + (mesh.nodes[:, 0] - (100.0 + 1e-7)) / 200.0
    cps = export.threshold_contour(chi, mesh, 0.5)
    for side, area in (("above", cps.area_above), ("below", cps.area_below)):
        path = str(tmp_path / f"{side}.stl")
        export.extrude_to_stl(getattr(cps, f"loops_{side}"), 5.0, path,
                              getattr(cps, f"caps_{side}"))
        tris = reference.read_stl(path)
        check_watertight(tris)
        assert reference.stl_volume(tris) == pytest.approx(area * 5.0, rel=1e-6)
        assert area == pytest.approx(100.0 * 100.0, rel=1e-6)


def test_split_to_stl_parts(tmp_path):
    mesh = make_mesh(20, 10)
    x = mesh.nodes[:, 0]
    phi = np.where(x <= 150.0, 1.0, 0.0)      # void beyond x = 150
    chi = x / 200.0                           # chi = 0.5 at x = 100
    written = export.split_to_stl(phi, chi, mesh, 0.5, 2.0, str(tmp_path))
    assert [p for p, _ in written] == [str(tmp_path / "above.stl"),
                                       str(tmp_path / "below.stl")]
    volumes = []
    for path, n in written:
        tris = reference.read_stl(path)
        assert len(tris) == n
        check_watertight(tris)
        volumes.append(reference.stl_volume(tris))
    # above ends where min(phi - 0.5, chi - 0.5), linear from 0.25 at x = 150
    # to -0.5 at x = 160, is zero: x = 150 + 10/3
    assert volumes == pytest.approx([(50.0 + 10.0 / 3.0) * 100.0 * 2.0,
                                     100.0 * 100.0 * 2.0], rel=1e-6)
    # threshold <= 0: the whole material region in above.stl
    whole = export.split_to_stl(phi, chi, mesh, 0.0, 2.0, str(tmp_path))
    assert [os.path.basename(p) for p, _ in whole] == ["above.stl"]


def seeded_design(mesh, seed):
    """Graded design with a hole; chi crosses 0.5 along a wavy line."""
    rng = np.random.default_rng(seed)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    r = np.hypot(x - rng.uniform(60.0, 140.0), y - rng.uniform(35.0, 65.0))
    phi = 0.5 + 0.5 * np.tanh((r - rng.uniform(15.0, 25.0)) / 4.0)
    chi = 0.5 + 0.3 * np.sin((x - 100.0) / 30.0 + rng.uniform(-0.5, 0.5) * np.sin(y / 20.0))
    return phi, np.minimum(chi, phi)


@pytest.mark.parametrize("threshold, links", [(0.5, 2), (0.0, 1)])
def test_split_to_stl_links_each_written_region_once(tmp_path, monkeypatch,
                                                     threshold, links):
    mesh = make_mesh(30, 15)
    phi, chi = seeded_design(mesh, seed=4)
    calls = []
    link = export._link
    monkeypatch.setattr(export, "_link", lambda segs: calls.append(1) or link(segs))
    written = export.split_to_stl(phi, chi, mesh, threshold, 3.0, str(tmp_path))
    assert len(calls) == links == len(written)
    monkeypatch.undo()
    levels = (chi - threshold, threshold - chi) if threshold > 0 else (np.ones_like(chi),)
    for (path, _), level in zip(written, levels):
        g = np.minimum(phi - 0.5, level)
        cps = export.threshold_contour(0.5 + g / (4.0 * np.abs(g).max()), mesh, 0.5)
        expected = str(tmp_path / "expected.stl")
        export.extrude_to_stl(cps.loops_above, 3.0, expected, cps.caps_above)
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 24), ny=st.integers(2, 14), seed=st.integers(0, 2**32 - 1))
def test_contour_stls_closed_on_random_fields(tmp_path_factory, nx, ny, seed):
    mesh = make_mesh(nx, ny)
    chi = np.random.default_rng(seed).random(mesh.node_count)
    cps = export.threshold_contour(chi, mesh, 0.5)
    assert cps.area_above + cps.area_below == pytest.approx(mesh.area, rel=1e-9)
    tmp = tmp_path_factory.mktemp("stl")
    for side in ("above", "below"):
        loops = getattr(cps, f"loops_{side}")
        if not loops:
            continue
        caps = getattr(cps, f"caps_{side}")
        area = getattr(cps, f"area_{side}")
        # the caps tile the region: none is clockwise, and they add up to it
        d1, d2 = caps[:, 1] - caps[:, 0], caps[:, 2] - caps[:, 0]
        cap_areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(cap_areas >= 0.0)
        assert cap_areas.sum() == pytest.approx(area, rel=1e-9)
        path = str(tmp / f"{side}.stl")
        export.extrude_to_stl(loops, 3.0, path, caps)
        tris = reference.read_stl(path)
        check_watertight(tris)
        assert reference.stl_volume(tris) == pytest.approx(area * 3.0, rel=1e-6)
