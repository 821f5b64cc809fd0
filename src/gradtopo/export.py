"""Field snapshots, iso-contour extraction, and print-ready STL geometry.

The final chi distribution is split at a threshold into two regions; each
region's boundary is extracted as closed polygons (marching triangles on the
P1 field, open chains closed along the domain boundary) and extruded into a
watertight binary STL prism.
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
    "read_vtk_fields",
    "write_history_csv",
    "write_run",
    "threshold_contour",
    "extrude_to_stl",
    "split_to_stl",
    "read_stl",
    "stl_edge_use_counts",
    "stl_volume",
]


class GeometryError(ValueError):
    """Invalid polygon input (self-intersection, bad orientation, ...)."""


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
        for x, y in mesh.nodes:
            fh.write(f"{x:.9g} {y:.9g} 0\n")
        fh.write(f"CELLS {mesh.element_count} {4 * mesh.element_count}\n")
        for a, b, c in mesh.elements:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {mesh.element_count}\n")
        fh.write("5\n" * mesh.element_count)
        fh.write(f"POINT_DATA {mesh.node_count}\n")
        for name, data in (("phi", phi), ("chi", chi), ("u_mag", u_mag)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(f"{v:.9g}" for v in data) + "\n")
        fh.write(f"CELL_DATA {mesh.element_count}\n")
        fh.write("SCALARS von_mises double 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(f"{v:.9g}" for v in vm) + "\n")


def read_vtk_fields(path: str) -> dict:
    """Parse files produced by write_fields (round-trip support)."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split("\n")
    out: dict = {}
    i = 0
    npoints = ncells = 0
    while i < len(tokens):
        line = tokens[i].split()
        if not line:
            i += 1
            continue
        if line[0] == "POINTS":
            npoints = int(line[1])
            pts = [tuple(float(v) for v in tokens[i + 1 + k].split()[:2])
                   for k in range(npoints)]
            out["points"] = np.array(pts)
            i += npoints + 1
        elif line[0] == "CELLS":
            ncells = int(line[1])
            cells = [tuple(int(v) for v in tokens[i + 1 + k].split()[1:])
                     for k in range(ncells)]
            out["cells"] = np.array(cells)
            i += ncells + 1
        elif line[0] == "SCALARS":
            name = line[1]
            count = ncells if name == "von_mises" else npoints
            data = [float(tokens[i + 2 + k]) for k in range(count)]
            out[name] = np.array(data)
            i += count + 2
        else:
            i += 1
    return out


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
    """Closed polygons of the two threshold regions.

    Orientation convention: outer boundaries counter-clockwise, holes
    clockwise (signed areas of each region's loops sum to the region area).
    """

    threshold: float
    loops_above: tuple
    loops_below: tuple

    @property
    def area_above(self) -> float:
        return sum(_signed_area(p) for p in self.loops_above)

    @property
    def area_below(self) -> float:
        return sum(_signed_area(p) for p in self.loops_below)


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _directed_boundary(mesh):
    """Boundary edges directed so the domain interior lies on their left."""
    directed = set()
    for (a, b, c) in mesh.elements:
        directed.update(((a, b), (b, c), (c, a)))
    out = []
    for (a, b, _tag) in mesh.boundary_edges:
        out.append((a, b) if (a, b) in directed else (b, a))
    return out


def threshold_contour(chi: np.ndarray, mesh, threshold: float) -> ContourPolygonSet:
    """Marching-triangles iso-contour of the P1 field, linked into closed loops.

    Nodes exactly on the threshold are nudged infinitesimally above it, which
    keeps the topology deterministic and the crossing points well defined.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    v = np.asarray(chi, dtype=float).copy()
    eps = 1e-12 * max(1.0, abs(threshold))
    v[v == threshold] = threshold + eps

    nodes = mesh.nodes

    def snap(p) -> tuple[float, float]:
        # the binary STL stores float32: snapping every point to it here makes
        # the linker merge exactly the points the STL merges, and collapses
        # eps-offset crossings onto their mesh nodes
        return (float(np.float32(p[0])), float(np.float32(p[1])))

    def crossing(n1: int, n2: int) -> tuple[float, float]:
        # canonical order makes shared-edge points bit-identical across elements
        if n1 > n2:
            n1, n2 = n2, n1
        s = (threshold - v[n1]) / (v[n2] - v[n1])
        return snap(nodes[n1] + s * (nodes[n2] - nodes[n1]))

    boundary = _directed_boundary(mesh)

    def segments(above: bool):
        sign = 1.0 if above else -1.0
        segs = []
        # interior iso segments, oriented with the selected region on the left
        for (a, b, c) in mesh.elements:
            sa, sb, sc = v[a] > threshold, v[b] > threshold, v[c] > threshold
            if sa == sb == sc:
                continue
            if sa != sb and sb != sc:
                iso = (crossing(a, b), crossing(b, c))
            elif sb != sc and sc != sa:
                iso = (crossing(b, c), crossing(c, a))
            else:
                iso = (crossing(c, a), crossing(a, b))
            p, q = np.array(iso[0]), np.array(iso[1])
            # gradient of the linear field on the element
            g = v[a] * np.array([-(nodes[c] - nodes[b])[1], (nodes[c] - nodes[b])[0]]) \
                + v[b] * np.array([-(nodes[a] - nodes[c])[1], (nodes[a] - nodes[c])[0]]) \
                + v[c] * np.array([-(nodes[b] - nodes[a])[1], (nodes[b] - nodes[a])[0]])
            d = sign * np.array([g[1], -g[0]])
            if iso[0] == iso[1]:
                continue    # crossing pair collapsed onto one point
            if float((q - p) @ d) >= 0.0:
                segs.append((iso[0], iso[1]))
            else:
                segs.append((iso[1], iso[0]))
        # boundary pieces where the field is on the selected side
        for (a, b) in boundary:
            ina = (v[a] > threshold) == above
            inb = (v[b] > threshold) == above
            pa, pb = snap(nodes[a]), snap(nodes[b])
            if ina and inb:
                segs.append((pa, pb))
            elif ina and not inb:
                segs.append((pa, crossing(a, b)))
            elif inb and not ina:
                segs.append((crossing(a, b), pb))
        return [s for s in segs if s[0] != s[1]]

    def link(segs):
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

    return ContourPolygonSet(threshold=threshold,
                             loops_above=link(segments(True)),
                             loops_below=link(segments(False)))


# --------------------------------------------------------------------------
# polygon triangulation (ear clipping with hole bridging)
# --------------------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _point_in_triangle_strict(p, a, b, c, eps=1e-12) -> bool:
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    return (d1 > eps and d2 > eps and d3 > eps) or (d1 < -eps and d2 < -eps and d3 < -eps)


def _is_simple(poly: np.ndarray) -> bool:
    n = len(poly)
    if n < 3:
        return False
    p = poly
    q = np.roll(poly, -1, axis=0)
    for i in range(n):
        a, b = p[i], q[i]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = p[j], q[j]
            d1 = _cross(a, b, c)
            d2 = _cross(a, b, d)
            d3 = _cross(c, d, a)
            d4 = _cross(c, d, b)
            # proper crossings only: touching at a point (pinched, weakly
            # simple loops from the contour tracer) is acceptable
            if d1 * d2 < 0 and d3 * d4 < 0:
                return False
    return True


def _point_in_polygon(p, poly: np.ndarray) -> bool:
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if x < xi:
                inside = not inside
    return inside


def _bridge_hole(outer: list, hole: list) -> list:
    """Merge one CW hole into the CCW outer loop via a mutually visible pair."""
    # hole vertex of maximum x
    mi = max(range(len(hole)), key=lambda i: (hole[i][0], hole[i][1]))
    M = hole[mi]
    # closest intersection of the +x ray from M with outer edges
    best_t, best_edge = None, None
    for i in range(len(outer)):
        a, b = outer[i], outer[(i + 1) % len(outer)]
        if (a[1] > M[1]) == (b[1] > M[1]):
            continue
        t = a[0] + (M[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
        if t >= M[0] - 1e-12 and (best_t is None or t < best_t):
            best_t, best_edge = t, i
    if best_edge is None:
        raise GeometryError("hole is not inside its outer polygon")
    I = (best_t, M[1])
    a, b = outer[best_edge], outer[(best_edge + 1) % len(outer)]
    pi = best_edge if a[0] > b[0] else (best_edge + 1) % len(outer)
    P = outer[pi]
    # prefer a reflex outer vertex inside triangle (M, I, P), closest in angle
    candidate, best_metric = pi, None
    for i in range(len(outer)):
        if i == pi:
            continue
        prev, cur, nxt = outer[i - 1], outer[i], outer[(i + 1) % len(outer)]
        if _cross(prev, cur, nxt) >= 0:
            continue  # convex
        if _point_in_triangle_strict(cur, M, I, P) or \
           _point_in_triangle_strict(cur, M, P, I):
            dx, dy = cur[0] - M[0], cur[1] - M[1]
            metric = (abs(dy) / max(np.hypot(dx, dy), 1e-300), dx * dx + dy * dy)
            if best_metric is None or metric < best_metric:
                candidate, best_metric = i, metric
    pi = candidate
    rotated = hole[mi:] + hole[:mi]
    return outer[:pi + 1] + [hole[mi]] + rotated[1:] + [hole[mi], outer[pi]] + outer[pi + 1:]


def _ear_clip(poly: list) -> list:
    """Triangulate a (weakly) simple CCW polygon; collinear ears are allowed."""
    idx = list(range(len(poly)))
    tris = []
    stall = 0
    while len(idx) > 3:
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if _cross(a, b, c) < -1e-12:
                continue  # reflex
            blocked = False
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly[j]
                if (p[0] == a[0] and p[1] == a[1]) or \
                   (p[0] == b[0] and p[1] == b[1]) or \
                   (p[0] == c[0] and p[1] == c[1]):
                    continue  # duplicated bridge vertex
                if _point_in_triangle_strict(p, a, b, c):
                    blocked = True
                    break
            if blocked:
                continue
            tris.append((a, b, c))
            del idx[k]
            clipped = True
            break
        if not clipped:
            # numerical stall: clip the least-reflex vertex to guarantee progress
            stall += 1
            if stall > 2 * len(poly):
                raise GeometryError("ear clipping failed on degenerate polygon")
            k = max(range(len(idx)),
                    key=lambda k: _cross(poly[idx[(k - 1) % len(idx)]],
                                         poly[idx[k]],
                                         poly[idx[(k + 1) % len(idx)]]))
            i0, i1, i2 = idx[(k - 1) % len(idx)], idx[k], idx[(k + 1) % len(idx)]
            tris.append((poly[i0], poly[i1], poly[i2]))
            del idx[k]
    tris.append((poly[idx[0]], poly[idx[1]], poly[idx[2]]))
    return tris


def _triangulate_region(loops) -> list:
    """Cap triangulation of a region given as CCW outers and CW holes."""
    outers = []
    holes = []
    for loop in loops:
        pts = [tuple(p) for p in np.asarray(loop, dtype=float)]
        # drop consecutive duplicates and a duplicated closing point
        clean = [p for i, p in enumerate(pts) if p != pts[i - 1]]
        if len(clean) < 3:
            continue
        area = _signed_area(np.array(clean))
        if area > 0:
            outers.append((area, clean))
        else:
            holes.append(clean)
    tris = []
    assigned: dict[int, list] = {i: [] for i in range(len(outers))}
    for hole in holes:
        inside = [i for i, (area, outer) in enumerate(outers)
                  if _point_in_polygon(hole[0], np.array(outer))]
        if not inside:
            raise GeometryError("hole polygon lies outside every outer polygon")
        host = min(inside, key=lambda i: outers[i][0])
        assigned[host].append(hole)
    for i, (_area, outer) in enumerate(outers):
        merged = outer
        for hole in sorted(assigned[i], key=lambda h: -max(p[0] for p in h)):
            merged = _bridge_hole(merged, hole)
        tris.extend(_ear_clip(merged))
    return tris


# --------------------------------------------------------------------------
# STL
# --------------------------------------------------------------------------

def _loops_of(polygons, side: str):
    if isinstance(polygons, ContourPolygonSet):
        return polygons.loops_above if side == "above" else polygons.loops_below
    return tuple(np.asarray(p, dtype=float) for p in polygons)


def extrude_to_stl(polygons, height: float, path: str, side: str = "above") -> int:
    """Extrude a polygon set into a watertight binary STL prism.

    `polygons` is a ContourPolygonSet (choose the region via `side`) or a
    plain list of loops (outers counter-clockwise, holes clockwise).
    Returns the number of triangles written.
    """
    if height <= 0:
        raise ValueError(f"extrusion height must be > 0, got {height}")
    loops = _loops_of(polygons, side)
    if not loops:
        raise GeometryError("no polygons to extrude")
    for loop in loops:
        arr = np.asarray(loop, dtype=float)
        dedup = arr[np.any(arr != np.roll(arr, 1, axis=0), axis=1)]
        if len(dedup) >= 3 and not _is_simple(dedup):
            raise GeometryError("self-intersecting polygon")

    caps = _triangulate_region(loops)
    tris = []
    for (a, b, c) in caps:
        # top cap (z = height, normal +z) and mirrored bottom cap (normal -z)
        tris.append(((a[0], a[1], height), (b[0], b[1], height), (c[0], c[1], height)))
        tris.append(((a[0], a[1], 0.0), (c[0], c[1], 0.0), (b[0], b[1], 0.0)))
    for loop in loops:
        pts = [tuple(p) for p in np.asarray(loop, dtype=float)]
        pts = [p for i, p in enumerate(pts) if p != pts[i - 1]]
        for i in range(len(pts)):
            a = pts[i]
            b = pts[(i + 1) % len(pts)]
            a0, b0 = (a[0], a[1], 0.0), (b[0], b[1], 0.0)
            a1, b1 = (a[0], a[1], height), (b[0], b[1], height)
            # region lies left of a->b, so these wind outward
            tris.append((a0, b0, b1))
            tris.append((a0, b1, a1))

    with open(path, "wb") as fh:
        fh.write(struct.pack("<80s", b"gradtopo extruded design"))
        fh.write(struct.pack("<I", len(tris)))
        for (p0, p1, p2) in tris:
            n = np.cross(np.subtract(p1, p0), np.subtract(p2, p0))
            norm = np.linalg.norm(n)
            n = n / norm if norm > 0 else np.zeros(3)
            fh.write(struct.pack("<12fH", *n, *p0, *p1, *p2, 0))
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
        # about 0.5 so the split is one threshold_contour at 0.5
        g = np.minimum(phi - 0.5, level)
        field = 0.5 + g / (4.0 * max(float(np.abs(g).max()), 1e-30))
        loops = threshold_contour(field, mesh, 0.5).loops_above
        if loops:
            path = os.path.join(outdir, f"{name}.stl")
            written.append((path, extrude_to_stl(loops, height, path)))
    return written


def read_stl(path: str) -> np.ndarray:
    """Read a binary STL into an (N,3,3) float array of triangles."""
    with open(path, "rb") as fh:
        fh.read(80)
        (count,) = struct.unpack("<I", fh.read(4))
        tris = np.empty((count, 3, 3))
        for i in range(count):
            rec = struct.unpack("<12fH", fh.read(50))
            tris[i] = np.array(rec[3:12]).reshape(3, 3)
    return tris


def stl_edge_use_counts(tris: np.ndarray) -> dict:
    """Undirected edge -> use count (2 everywhere for a watertight mesh)."""
    counts: dict = {}
    for tri in tris:
        verts = [tuple(v) for v in tri]
        for i in range(3):
            e = tuple(sorted((verts[i], verts[(i + 1) % 3])))
            counts[e] = counts.get(e, 0) + 1
    return counts


def stl_volume(tris: np.ndarray) -> float:
    """Signed enclosed volume (positive for outward orientation)."""
    return float(np.einsum("ij,ij->", tris[:, 0],
                           np.cross(tris[:, 1], tris[:, 2])) / 6.0)
