import os
from pathlib import Path
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
    b1, b2 = Path(p1).read_bytes(), Path(p2).read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "iter,objective,compliance,m_chi,delta_phi,delta_chi,lam,max_von_mises"
    assert len(b1.decode().splitlines()) == 4


# --- region caps ------------------------------------------------------------

def below_caps(chi, mesh, threshold=0.5):
    """Caps of the region below the threshold: the region above it of the
    mirrored field (exact for threshold 0.5)."""
    return export.region_caps(2 * threshold - chi, mesh, threshold)


def test_contour_linear_field_vertical_cut():
    mesh = make_mesh()
    chi = mesh.nodes[:, 0] / 200.0           # iso-line of 0.5 at x = 100
    above, below = export.region_caps(chi, mesh, 0.5), below_caps(chi, mesh)
    assert reference.cap_area(above) == pytest.approx(100.0 * 100.0, rel=1e-9)
    assert reference.cap_area(below) == pytest.approx(100.0 * 100.0, rel=1e-9)
    # the above caps cover [100,200]x[0,100]
    assert above[..., 0].min() == pytest.approx(100.0)
    assert above[..., 0].max() == pytest.approx(200.0)


def test_contour_areas_partition_domain():
    mesh = make_mesh(16, 8)
    rng = np.random.default_rng(21)
    chi = rng.random(mesh.node_count)
    area_above = reference.cap_area(export.region_caps(chi, mesh, 0.5))
    area_below = reference.cap_area(below_caps(chi, mesh))
    assert area_above + area_below == pytest.approx(mesh.area, rel=1e-9)
    assert area_above > 0 and area_below > 0


def test_contour_areas_cover_mesh_with_nodes_on_threshold():
    # two nodes sit exactly on the threshold, so crossings collapse onto them
    mesh = make_mesh(2, 2)
    chi = np.array([0.5, 0.75, 1.0, 0.75, 0.0, 0.0, 0.5, 0.0, 0.75])
    area = (reference.cap_area(export.region_caps(chi, mesh, 0.5))
            + reference.cap_area(below_caps(chi, mesh)))
    assert area == pytest.approx(mesh.area, rel=1e-12)


def wall_edges(caps, path):
    """Wall edges of the prism extrude_to_stl writes for `caps`."""
    return (export.extrude_to_stl(caps, 1.0, path) - 2 * len(caps)) // 2


def test_contour_island_and_hole(tmp_path):
    nx, ny = 30, 15
    mesh = make_mesh(nx, ny)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    r2 = (x - 100.0) ** 2 + (y - 50.0) ** 2
    chi = np.where(r2 < 30.0 ** 2, 0.1, 0.9)    # low island in a high sea
    above, island = export.region_caps(chi, mesh, 0.5), below_caps(chi, mesh)
    area_above, area_island = reference.cap_area(above), reference.cap_area(island)
    assert area_above + area_island == pytest.approx(mesh.area, rel=1e-9)
    assert 0.0 < area_island < area_above
    # the island's walls are the walls of the hole in the region above; the
    # rest of that region's walls run along the domain boundary
    path = str(tmp_path / "x.stl")
    assert wall_edges(above, path) == 2 * (nx + ny) + wall_edges(island, path)


def test_contour_uniform_field_single_side():
    mesh = make_mesh(4, 2)
    high = np.full(mesh.node_count, 0.9)
    assert reference.cap_area(export.region_caps(high, mesh, 0.5)) == pytest.approx(
        mesh.area, rel=1e-12)
    assert len(below_caps(high, mesh)) == 0
    # values exactly on the threshold count as above
    level = np.full(mesh.node_count, 0.5)
    assert reference.cap_area(export.region_caps(level, mesh, 0.5)) == pytest.approx(
        mesh.area, rel=1e-12)


def test_contour_threshold_range_checked():
    mesh = make_mesh(2, 2)
    with pytest.raises(ValueError, match="threshold"):
        export.region_caps(np.zeros(mesh.node_count), mesh, 1.5)


def test_contour_deterministic():
    mesh = make_mesh(12, 6)
    chi = np.sin(mesh.nodes[:, 0] / 17.0) * np.cos(mesh.nodes[:, 1] / 13.0) * 0.5 + 0.5
    a = export.region_caps(chi, mesh, 0.5)
    b = export.region_caps(chi, mesh, 0.5)
    assert np.array_equal(a, b)


# --- STL --------------------------------------------------------------------

def check_watertight(tris):
    counts = reference.stl_edge_use_counts(tris)
    assert counts, "empty STL"
    assert all(c == 2 for c in counts.values())


def check_prism(caps, height, path):
    """extrude_to_stl(caps) writes a closed prism of volume area x height."""
    n = export.extrude_to_stl(caps, height, path)
    tris = reference.read_stl(path)
    assert len(tris) == n
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx(
        reference.cap_area(caps) * height, rel=1e-6)


def test_extrude_rectangle(tmp_path):
    loop = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    path = str(tmp_path / "box.stl")
    caps = [loop[[0, 1, 2]], loop[[0, 2, 3]]]
    n = export.extrude_to_stl(caps, 3.0, path)
    tris = reference.read_stl(path)
    assert len(tris) == n == 12     # 2+2 caps, 4 sides x 2
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx(4.0 * 2.0 * 3.0, rel=1e-6)


def test_extrude_with_hole(tmp_path):
    path = str(tmp_path / "frame.stl")
    # the frame between [0,10]^2 and the hole [4,6]^2 as CCW triangles, two
    # per trapezoid between an outer edge and the hole edge facing it
    caps = [((0, 0), (10, 0), (6, 4)), ((0, 0), (6, 4), (4, 4)),
            ((10, 0), (10, 10), (6, 6)), ((10, 0), (6, 6), (6, 4)),
            ((10, 10), (0, 10), (4, 6)), ((10, 10), (4, 6), (6, 6)),
            ((0, 10), (0, 0), (4, 4)), ((0, 10), (4, 4), (4, 6))]
    # 8 + 8 caps, 4 outer and 4 hole walls x 2
    assert export.extrude_to_stl(caps, 2.0, path) == 32
    tris = reference.read_stl(path)
    check_watertight(tris)
    assert reference.stl_volume(tris) == pytest.approx((100.0 - 4.0) * 2.0, rel=1e-6)


@pytest.mark.parametrize("nx, ny", [(1, 1), (4, 2), (5, 17)])
def test_uniform_region_has_walls_only_on_the_domain_boundary(tmp_path, nx, ny):
    mesh = make_mesh(nx, ny)
    caps = export.region_caps(np.full(mesh.node_count, 0.9), mesh, 0.5)
    path = str(tmp_path / "plate.stl")
    # 2 nx ny elements in each cap, 2 (nx + ny) boundary edges, 2 triangles each
    assert export.extrude_to_stl(caps, 2.0, path) == 4 * nx * ny + 4 * (nx + ny)
    check_watertight(reference.read_stl(path))


def test_extrude_contour_polygon_set(tmp_path):
    mesh = make_mesh(10, 5)
    chi = mesh.nodes[:, 0] / 200.0
    check_prism(export.region_caps(chi, mesh, 0.5), 5.0, str(tmp_path / "above.stl"))
    check_prism(below_caps(chi, mesh), 5.0, str(tmp_path / "below.stl"))


def test_extrude_nontrivial_contour_watertight(tmp_path):
    mesh = make_mesh(24, 12)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    chi = 0.5 + 0.45 * np.sin(x / 23.0) * np.cos(y / 11.0)
    check_prism(export.region_caps(chi, mesh, 0.5), 7.5, str(tmp_path / "blob.stl"))


def test_extrude_rejects_open_solid(tmp_path):
    # two triangles that meet at one corner: four walls meet at its
    # vertical edge
    path = tmp_path / "x.stl"
    bowtie = [((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (-1.0, 0.0), (0.0, -1.0))]
    with pytest.raises(export.GeometryError, match="not closed: 1 of"):
        export.extrude_to_stl(bowtie, 1.0, str(path))
    assert not path.exists()
    # a corner one float32 step off its neighbour's is another vertex: the
    # rectangle's halves meet only at corner 0
    loop = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    off = loop.copy()
    off[2, 0] = np.nextafter(np.float32(4.0), np.float32(5.0))
    with pytest.raises(export.GeometryError, match="not closed"):
        export.extrude_to_stl([off[[0, 1, 2]], loop[[0, 2, 3]]], 1.0, str(path))
    assert not path.exists()
    # -0.0 and +0.0 are one vertex
    signed = np.where(loop == 0.0, -0.0, loop)
    assert export.extrude_to_stl([signed[[0, 1, 2]], loop[[0, 2, 3]]], 1.0, str(path)) == 12


def test_extrude_refuses_region_that_touches_itself_at_a_vertex(tmp_path):
    """The node on the threshold counts as above, so the crossings around it
    collapse onto it and the two corner regions share only that vertex.  No
    closed STL can split it: the export refuses it and writes nothing."""
    mesh = make_mesh(2, 2)
    chi = np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0])
    path = tmp_path / "pinch.stl"
    with pytest.raises(export.GeometryError, match="1 of 35 edges"):
        export.extrude_to_stl(export.region_caps(chi, mesh, 0.5), 1.0, str(path))
    assert not path.exists()


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
    tri = [((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    for height in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="height"):
            export.extrude_to_stl(tri, height, str(tmp_path / "x.stl"))
    with pytest.raises(export.GeometryError, match="no caps"):
        export.extrude_to_stl(np.zeros((0, 3, 2)), 1.0, str(tmp_path / "x.stl"))
    assert not (tmp_path / "x.stl").exists()


def test_stl_volume_sign_convention(tmp_path):
    # a lone counter-clockwise triangle prism
    tri = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    path = str(tmp_path / "tri.stl")
    export.extrude_to_stl([tri], 1.0, path)
    tris = reference.read_stl(path)
    assert reference.stl_volume(tris) == pytest.approx(18.0, rel=1e-6)
    assert reference.stl_volume(tris[:, ::-1, :]) == pytest.approx(-18.0, rel=1e-6)


def test_contour_merges_points_within_float32_resolution(tmp_path):
    """The STL stores float32, so crossings closer than its resolution are one
    STL vertex; the caps must merge them too, or the STL gets edges used
    4 or 6 times."""
    mesh = make_mesh(20, 10)
    # iso-line at x = 100 + 1e-7: every crossing lies 1e-7 mm from a node of
    # the column x = 100, far below float32 resolution there (7.6e-6 mm)
    chi = 0.5 + (mesh.nodes[:, 0] - (100.0 + 1e-7)) / 200.0
    for side, caps in (("above", export.region_caps(chi, mesh, 0.5)),
                       ("below", below_caps(chi, mesh))):
        check_prism(caps, 5.0, str(tmp_path / f"{side}.stl"))
        assert reference.cap_area(caps) == pytest.approx(100.0 * 100.0, rel=1e-6)


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


def test_split_to_stl_refuses_empty_design(tmp_path):
    mesh = make_mesh(6, 3)
    void = np.full(mesh.node_count, 0.2)
    with pytest.raises(export.GeometryError, match="nothing to export"):
        export.split_to_stl(void, void, mesh, 0.5, 2.0, str(tmp_path))
    assert os.listdir(tmp_path) == []


def seeded_design(mesh, seed):
    """Graded design with a hole; chi crosses 0.5 along a wavy line."""
    rng = np.random.default_rng(seed)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    r = np.hypot(x - rng.uniform(60.0, 140.0), y - rng.uniform(35.0, 65.0))
    phi = 0.5 + 0.5 * np.tanh((r - rng.uniform(15.0, 25.0)) / 4.0)
    chi = 0.5 + 0.3 * np.sin((x - 100.0) / 30.0 + rng.uniform(-0.5, 0.5) * np.sin(y / 20.0))
    return phi, np.minimum(chi, phi)


@pytest.mark.parametrize("threshold, parts", [(0.5, 2), (0.0, 1)])
def test_split_to_stl_clips_each_written_region_once(tmp_path, monkeypatch,
                                                     threshold, parts):
    mesh = make_mesh(30, 15)
    phi, chi = seeded_design(mesh, seed=4)
    calls = []
    clip = export.region_caps
    monkeypatch.setattr(export, "region_caps",
                        lambda *args: calls.append(1) or clip(*args))
    written = export.split_to_stl(phi, chi, mesh, threshold, 3.0, str(tmp_path))
    assert len(calls) == parts == len(written)
    monkeypatch.undo()
    levels = (chi - threshold, threshold - chi) if threshold > 0 else (np.ones_like(chi),)
    for (path, _), level in zip(written, levels):
        g = np.minimum(phi - 0.5, level)
        field = 0.5 + g / (4.0 * np.abs(g).max())
        expected = str(tmp_path / "expected.stl")
        export.extrude_to_stl(export.region_caps(field, mesh, 0.5), 3.0, expected)
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 24), ny=st.integers(2, 14), seed=st.integers(0, 2**32 - 1))
def test_contour_stls_closed_on_random_fields(tmp_path_factory, nx, ny, seed):
    mesh = make_mesh(nx, ny)
    chi = np.random.default_rng(seed).random(mesh.node_count)
    sides = {"above": export.region_caps(chi, mesh, 0.5), "below": below_caps(chi, mesh)}
    assert sum(map(reference.cap_area, sides.values())) == pytest.approx(mesh.area, rel=1e-9)
    tmp = tmp_path_factory.mktemp("stl")
    for side, caps in sides.items():
        if not len(caps):
            continue
        # the caps tile the region: none is clockwise
        assert all(reference.cap_area(cap) >= 0.0 for cap in caps)
        check_prism(caps, 3.0, str(tmp / f"{side}.stl"))
