"""Field snapshots, iso-contour extraction, and print-ready STL geometry.

The final chi distribution is split at a threshold into two regions.
Marching triangles clips every mesh element against the iso-line of the P1
field: a region's clipped elements are its cap triangles, and its
iso-segments and boundary pieces link into closed polygons.  The caps and
walls along the polygons form a closed binary STL prism.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from gradtopo import stress
from gradtopo.optimizer import IterationRecord

__all__ = [
    "GeometryError",
    "ContourPolygonSet",
    "write_fields",
    "write_history_csv",
    "write_run",
    "threshold_contour",
    "extrude_to_stl",
    "split_to_stl",
]


class GeometryError(ValueError):
    """Geometry that cannot be written as a closed solid (an extrusion with
    an edge not used by exactly two triangles, a contour that does not link)."""


# --------------------------------------------------------------------------
# VTK / CSV
# --------------------------------------------------------------------------

def write_fields(state, mesh, path: str) -> None:
    """Legacy-VTK ASCII snapshot: point data phi, chi, u_mag; cell data von_mises."""
    if not path:
        raise ValueError("write_fields: empty output path")
    phi, chi, u, sigma = state.phi, state.chi, state.u, state.sigma
    u_mag = np.hypot(u[0::2], u[1::2])
    vm = stress.von_mises(sigma)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("gradtopo fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.node_count} double\n")
        fh.write(_rows("%.9g %.9g 0\n", mesh.nodes))
        fh.write(f"CELLS {mesh.element_count} {4 * mesh.element_count}\n")
        fh.write(_rows("3 %d %d %d\n", mesh.elements))
        fh.write(f"CELL_TYPES {mesh.element_count}\n")
        fh.write("5\n" * mesh.element_count)
        fh.write(f"POINT_DATA {mesh.node_count}\n")
        for name, data in (("phi", phi), ("chi", chi), ("u_mag", u_mag)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write(_rows("%.9g\n", data))
        fh.write(f"CELL_DATA {mesh.element_count}\n")
        fh.write("SCALARS von_mises double 1\nLOOKUP_TABLE default\n")
        fh.write(_rows("%.9g\n", vm))


def _rows(fmt: str, a: np.ndarray) -> str:
    """One `fmt` line per row of `a`, formatted in one % operation."""
    return (fmt * len(a)) % tuple(a.ravel().tolist())


def write_history_csv(history: list, path: str) -> None:
    """Iteration log: one row per IterationRecord, deterministic formatting."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IterationRecord.CSV_FIELDS)
        for rec in history:
            writer.writerow([repr(getattr(rec, f)) if isinstance(getattr(rec, f), float)
                             else getattr(rec, f) for f in IterationRecord.CSV_FIELDS])


def write_run(config, state, history: list, mesh) -> None:
    """The outputs of one run in config.output_dir: history.csv if
    config.write_csv; fields.vtk and the fields.npz snapshot that export-stl
    reads if config.write_vtk."""
    outdir = config.output_dir
    if config.write_csv:
        write_history_csv(history, os.path.join(outdir, "history.csv"))
    if config.write_vtk:
        write_fields(state, mesh, os.path.join(outdir, "fields.vtk"))
        np.savez(os.path.join(outdir, "fields.npz"), phi=state.phi,
                 chi=state.chi, u=state.u, sigma=state.sigma)


# --------------------------------------------------------------------------
# marching triangles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourPolygonSet:
    """Closed polygons and cap triangles of the two threshold regions.

    Orientation convention: outer boundaries counter-clockwise, holes
    clockwise (signed areas of each region's loops sum to the region area).
    The caps are (T,3,2) arrays of counter-clockwise triangles that tile a
    region: its mesh elements clipped against the iso-line.
    """

    threshold: float
    loops_above: tuple
    loops_below: tuple
    caps_above: np.ndarray
    caps_below: np.ndarray

    @property
    def area_above(self) -> float:
        return sum(_signed_area(p) for p in self.loops_above)

    @property
    def area_below(self) -> float:
        return sum(_signed_area(p) for p in self.loops_below)


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _snap(p: np.ndarray) -> np.ndarray:
    # the binary STL stores float32: snapping every point to it makes the
    # linker merge exactly the points the STL merges, and collapses
    # eps-offset crossings onto their mesh nodes
    return np.asarray(p, dtype=np.float32).astype(float)


def _directed_boundary(mesh) -> np.ndarray:
    """Boundary edges (B,2) directed so the domain interior lies on their left."""
    n = mesh.node_count
    el = mesh.elements.astype(np.int64)
    ab = np.array([(a, b) for (a, b, _tag) in mesh.boundary_edges], dtype=np.int64)
    # a boundary edge is forward when some counter-clockwise element has it
    # as a directed edge
    keys = np.sort((el * n + np.roll(el, -1, axis=1)).ravel())
    key = ab[:, 0] * n + ab[:, 1]
    forward = keys[np.searchsorted(keys, key).clip(max=len(keys) - 1)] == key
    return np.where(forward[:, None], ab, ab[:, ::-1])


# Marching-triangles case table.  An element's points are its corners 0-2 and
# the crossings 3-5 on its edges (0,1), (1,2), (2,0); the case is the bitmask
# of the corners inside the region.  With the odd corner first on the
# counter-clockwise element, one inside corner i gives the cap
# (p_i, x_{i,i+1}, x_{i+2,i}) and the iso-segment x_{i,i+1} -> x_{i+2,i}; one
# outside corner o gives the caps (x_{o,o+1}, p_{o+1}, p_{o+2}) and
# (x_{o,o+1}, p_{o+2}, x_{o+2,o}) and the iso-segment x_{o+2,o} -> x_{o,o+1}.
# Caps are counter-clockwise and segments have the region on their left.
# -1 pads a missing cap or segment.
_CAP_TABLE = np.array([
    [[-1, -1, -1], [-1, -1, -1]],      # no corner inside
    [[0, 3, 5], [-1, -1, -1]],         # corner 0 inside
    [[1, 4, 3], [-1, -1, -1]],         # corner 1 inside
    [[5, 0, 1], [5, 1, 4]],            # corner 2 outside
    [[2, 5, 4], [-1, -1, -1]],         # corner 2 inside
    [[4, 2, 0], [4, 0, 3]],            # corner 1 outside
    [[3, 1, 2], [3, 2, 5]],            # corner 0 outside
    [[0, 1, 2], [-1, -1, -1]],         # all corners inside
])
_SEGMENT_TABLE = np.array([[-1, -1], [3, 5], [4, 3], [4, 5],
                           [5, 4], [3, 4], [5, 3], [-1, -1]])


def _gather(points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """points[e, index[e]] for every element e whose index row is not -1."""
    rows = np.flatnonzero(index[:, 0] >= 0)
    return points[rows[:, None], index[rows]]


def _element_clip(points: np.ndarray, inside: np.ndarray):
    """Cap triangles (T,3,2) and oriented iso-segments (S,2,2) of a region.

    `points` (M,6,2) holds each element's corners and the crossings on its
    cut edges (see _CAP_TABLE); `inside` (M,3) flags the corners in the
    region.  Caps with a repeated vertex are dropped; they have no area, and
    their edges would be used twice more than the solid needs.
    """
    case = inside.astype(int) @ np.array([1, 2, 4])
    caps = np.concatenate([_gather(points, _CAP_TABLE[case, k]) for k in range(2)])
    a, b, c = caps[:, 0], caps[:, 1], caps[:, 2]
    caps = caps[~((a == b).all(axis=1) | (b == c).all(axis=1) | (c == a).all(axis=1))]
    return caps, _gather(points, _SEGMENT_TABLE[case])


def _link(segs: list) -> tuple:
    """Link directed segments ((x,y),(x,y)) into closed loops."""
    # opposite directed pairs bound a zero-area sliver: cancel them
    counts: dict = {}
    for s in segs:
        counts[s] = counts.get(s, 0) + 1
    cleaned = []
    for s in segs:
        rev = (s[1], s[0])
        if counts.get(rev, 0) > 0 and counts[s] > 0:
            counts[rev] -= 1
            counts[s] -= 1
            continue
        if counts[s] > 0:
            cleaned.append(s)
    segs = cleaned
    start_map: dict = {}
    for idx, (p, q) in enumerate(segs):
        start_map.setdefault(p, []).append(idx)
    used = [False] * len(segs)
    loops = []
    order = sorted(range(len(segs)), key=lambda i: segs[i][0])
    for first in order:
        if used[first]:
            continue
        loop = [segs[first][0]]
        cur = first
        used[first] = True
        guard = 0
        while True:
            candidates = [i for i in start_map.get(segs[cur][1], []) if not used[i]]
            if not candidates:
                break  # loop closed (end meets the first start) or defect
            loop.append(segs[cur][1])
            cur = candidates[0]
            used[cur] = True
            guard += 1
            if guard > len(segs) + 1:
                raise GeometryError("contour linking did not terminate")
        if len(loop) >= 3:
            loops.append(np.array(loop))
    return tuple(loops)


def _region_clipper(chi: np.ndarray, mesh, threshold: float):
    """(above, region) of the P1 field's iso-line at the threshold.

    `above` flags the nodes above it; `region(inside)` returns the (caps,
    loops) of the region of the nodes flagged by `inside` (`above` or its
    complement).  Both regions share the crossings computed here.
    """
    v = np.asarray(chi, dtype=float).copy()
    eps = 1e-12 * max(1.0, abs(threshold))
    v[v == threshold] = threshold + eps
    above = v > threshold

    el = mesh.elements.astype(np.int64)
    n = mesh.node_count
    nxt = np.roll(el, -1, axis=1)               # edge k joins corners k, k+1
    lo, hi = np.minimum(el, nxt), np.maximum(el, nxt)
    cut = above[lo] != above[hi]
    # each cut edge's crossing once, in canonical low->high node order, so
    # every element and boundary piece on the edge gets the same point
    edges, which = np.unique(lo[cut] * n + hi[cut], return_inverse=True)
    a, b = edges // n, edges % n
    s = (threshold - v[a]) / (v[b] - v[a])
    crossings = _snap(mesh.nodes[a] + s[:, None] * (mesh.nodes[b] - mesh.nodes[a]))
    nodes = _snap(mesh.nodes)
    points = np.full((len(el), 6, 2), np.nan)
    points[:, :3] = nodes[el]
    points[:, 3:][cut] = crossings[which]

    ba, bb = _directed_boundary(mesh).T
    bcross = np.full((len(ba), 2), np.nan)
    bcut = above[ba] != above[bb]
    key = np.minimum(ba, bb) * n + np.maximum(ba, bb)
    bcross[bcut] = crossings[np.searchsorted(edges, key[bcut])]

    def region(inside):
        caps, iso = _element_clip(points, inside[el])
        ina, inb = inside[ba], inside[bb]
        # boundary pieces where the field is on the selected side
        pieces = np.stack([np.where(ina[:, None], nodes[ba], bcross),
                           np.where(inb[:, None], nodes[bb], bcross)], axis=1)
        segs = np.concatenate([iso, pieces[ina | inb]])
        segs = segs[(segs[:, 0] != segs[:, 1]).any(axis=1)]
        return caps, _link([((x0, y0), (x1, y1))
                            for x0, y0, x1, y1 in segs.reshape(-1, 4).tolist()])

    return above, region


def threshold_contour(chi: np.ndarray, mesh, threshold: float) -> ContourPolygonSet:
    """Marching-triangles iso-contour of the P1 field.

    Each region's caps are its mesh elements clipped against the iso-line;
    its loops link the clipped iso-segments and the boundary pieces inside
    it.  Nodes exactly on the threshold are nudged infinitesimally above it,
    which keeps the topology deterministic and the crossing points well
    defined.  Every point is snapped to float32.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    above, region = _region_clipper(chi, mesh, threshold)
    caps_above, loops_above = region(above)
    caps_below, loops_below = region(~above)
    return ContourPolygonSet(threshold=threshold,
                             loops_above=loops_above, loops_below=loops_below,
                             caps_above=caps_above, caps_below=caps_below)


# --------------------------------------------------------------------------
# STL
# --------------------------------------------------------------------------

_STL_RECORD = np.dtype([("normal", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def _lift(p: np.ndarray, z: float) -> np.ndarray:
    return np.concatenate([p, np.full(p.shape[:-1] + (1,), z)], axis=-1)


def extrude_to_stl(loops, height: float, path: str, caps) -> int:
    """Extrude a planar region into a closed binary STL prism.

    `loops` are the region's closed boundary loops, with the region on their
    left (outers counter-clockwise, holes clockwise); `caps` is a (T,3,2)
    array of counter-clockwise triangles that tile the region and meet the
    loops at their vertices.  The caps are written at z = 0 and z = height,
    the walls along the loops.  Raises GeometryError, before writing, if any
    edge (keyed by its float32 vertices, as stored) is not used by exactly
    two triangles.  Returns the number of triangles written.
    """
    if height <= 0:
        raise ValueError(f"extrusion height must be > 0, got {height}")
    if not len(loops):
        raise GeometryError("no polygons to extrude")
    caps = np.asarray(caps, dtype=float).reshape(-1, 3, 2)
    starts = []
    for loop in loops:
        p = np.asarray(loop, dtype=float)
        starts.append(p[(p != np.roll(p, 1, axis=0)).any(axis=1)])
    a = np.concatenate(starts)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in starts])
    a0, a1, b0, b1 = _lift(a, 0.0), _lift(a, height), _lift(b, 0.0), _lift(b, height)
    # top cap (normal +z), mirrored bottom cap (normal -z); the region lies
    # left of each wall edge a -> b, so the walls wind outward
    tris = np.concatenate([_lift(caps, height), _lift(caps[:, ::-1], 0.0),
                           np.stack([a0, b0, b1], axis=1),
                           np.stack([a0, b1, a1], axis=1)])
    records = np.zeros(len(tris), dtype=_STL_RECORD)
    records["v"] = tris
    uses = _edge_uses(records["v"])
    if np.any(uses != 2):
        raise GeometryError(f"extruded solid is not closed: {np.count_nonzero(uses != 2)} "
                            f"of {len(uses)} edges are not used by exactly two triangles")
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    norm = np.linalg.norm(normals, axis=1, keepdims=True)
    records["normal"] = np.divide(normals, norm, out=np.zeros_like(normals),
                                  where=norm > 0)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<80sI", b"gradtopo extruded design", len(tris)))
        fh.write(records.tobytes())
    return len(tris)


def split_to_stl(phi: np.ndarray, chi: np.ndarray, mesh, threshold: float,
                 height: float, outdir: str) -> list[tuple[str, int]]:
    """Split the material region phi > 0.5 at chi = threshold into two STLs.

    above.stl holds the part with chi above the threshold, below.stl the
    rest; threshold <= 0 writes the whole structure to above.stl.  A part
    with no area is skipped.  Returns (path, triangle count) of every file.
    """
    if threshold > 0:
        parts = (("above", chi - threshold), ("below", threshold - chi))
    else:
        parts = (("above", np.ones_like(chi)),)
    written = []
    for name, level in parts:
        # min(phi - 0.5, level) > 0 exactly on the part, scaled into (0,1)
        # about 0.5: the part is threshold_contour(field, mesh, 0.5)'s region
        # above, clipped and linked without the region below
        g = np.minimum(phi - 0.5, level)
        field = 0.5 + g / (4.0 * max(float(np.abs(g).max()), 1e-30))
        above, region = _region_clipper(field, mesh, 0.5)
        caps, loops = region(above)
        if loops:
            path = os.path.join(outdir, f"{name}.stl")
            written.append((path, extrude_to_stl(loops, height, path, caps)))
    return written


def _edge_uses(tris: np.ndarray) -> np.ndarray:
    """Use count of every undirected edge of a triangle soup, with vertices
    keyed by their float32 coordinates, as a binary STL stores them."""
    v = np.asarray(tris, dtype=np.float32).reshape(-1, 3) + np.float32(0.0)  # -0 -> +0
    # equal float32 values have equal bits: x and y pack into one int64 key,
    # z is ranked apart, and each vertex id combines the two ranks
    bits = v.view(np.uint32).astype(np.int64)
    xy, xy_id = np.unique(bits[:, 0] << 32 | bits[:, 1], return_inverse=True)
    z, z_id = np.unique(bits[:, 2], return_inverse=True)
    ids = (xy_id * len(z) + z_id).reshape(-1, 3)
    # the edge key fits an int64 while the id range len(xy) * len(z) stays
    # under 3e9: an extrusion has two z levels
    span = len(xy) * len(z)
    nxt = np.roll(ids, -1, axis=1)
    return np.unique(np.minimum(ids, nxt) * span + np.maximum(ids, nxt),
                     return_counts=True)[1]
