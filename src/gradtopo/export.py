"""Field snapshots, region caps, and print-ready STL geometry.

The final chi distribution is split at a threshold into two regions.
Marching triangles clips every mesh element against the iso-line of the P1
field: a region's clipped elements are its cap triangles.  The caps, and
walls on the cap edges that no other cap shares, form a closed binary STL
prism.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from gradtopo.config import serialize
from gradtopo.optimizer import IterationRecord

__all__ = [
    "GeometryError",
    "write_fields",
    "write_history_csv",
    "write_run",
    "region_caps",
    "stl_height",
    "extrude_to_stl",
    "split_to_stl",
]


class GeometryError(ValueError):
    """Geometry that cannot be written as a closed solid (no caps, or an
    extrusion with an edge not used by exactly two triangles)."""


# --------------------------------------------------------------------------
# VTK / CSV
# --------------------------------------------------------------------------

def write_fields(state, mesh, path: str) -> None:
    """Legacy-VTK ASCII snapshot: point data phi, chi, u_mag; cell data von_mises."""
    if not path:
        raise ValueError("write_fields: empty output path")
    phi, chi, u = state.phi, state.chi, state.u
    u_mag = np.hypot(u[0::2], u[1::2])
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
        fh.write(_rows("%.9g\n", state.aggregate.sigma_e))


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


def write_run(outdir: str, state, history: list, mesh, config) -> None:
    """The outputs of one run of config in outdir: history.csv, fields.vtk and
    fields.npz (phi, chi, u, sigma and config's text), which export-stl reads."""
    write_history_csv(history, os.path.join(outdir, "history.csv"))
    write_fields(state, mesh, os.path.join(outdir, "fields.vtk"))
    np.savez(os.path.join(outdir, "fields.npz"), phi=state.phi, chi=state.chi,
             u=state.u, sigma=state.sigma, config=serialize(config))


# --------------------------------------------------------------------------
# marching triangles
# --------------------------------------------------------------------------

def _snap(p: np.ndarray) -> np.ndarray:
    # the binary STL stores float32: snapping every point to it collapses
    # eps-offset crossings onto their mesh nodes, so the caps drop the
    # slivers between them.  Not in a coordinate that is 0 at the node:
    # float32 keeps such a crossing's ~7e-11 mm offset from 0, so the caps
    # keep (33.333332, 6.67e-11) next to the node (33.333332, 0)
    return np.asarray(p, dtype=np.float32).astype(float)


# Marching-triangles case table.  An element's points are its corners 0-2 and
# the crossings 3-5 on its edges (0,1), (1,2), (2,0); the case is the bitmask
# of the corners inside the region.  With the odd corner first on the
# counter-clockwise element, one inside corner i gives the cap
# (p_i, x_{i,i+1}, x_{i+2,i}); one outside corner o gives the caps
# (x_{o,o+1}, p_{o+1}, p_{o+2}) and (x_{o,o+1}, p_{o+2}, x_{o+2,o}).  Caps
# are counter-clockwise; -1 pads a missing cap.
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


def region_caps(field: np.ndarray, mesh, threshold: float) -> np.ndarray:
    """Cap triangles (T,3,2) of the region {field > threshold} of a P1 field.

    The caps are the mesh elements clipped against the iso-line (marching
    triangles): counter-clockwise triangles that tile the region.  Nodes
    exactly on the threshold are nudged infinitesimally above it, which
    keeps the topology deterministic and the crossing points well defined.
    Every point is snapped to float32.  Caps with a repeated vertex are
    dropped; they have no area, and their edges would be used twice more
    than the solid needs.  Only a cap with a crossing point can repeat one:
    a whole element has three distinct corners.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    v = np.asarray(field, dtype=float).copy()
    v[v == threshold] = threshold + 1e-12
    above = v > threshold

    # only the elements with a corner inside hold a cap; a whole element
    # (case 7) is its own cap
    corner = above[mesh.elements].view(np.uint8)
    case = corner[:, 0] | corner[:, 1] << 1 | corner[:, 2] << 2
    held = np.flatnonzero(case)
    el, case = mesh.elements[held], case[held]
    caps = _snap(mesh.nodes)[el]
    cut = np.flatnonzero(case != 7)

    # the iso-line crosses the elements in `cut`: clip them
    ce, case = el[cut], case[cut]
    nxt = np.roll(ce, -1, axis=1)               # edge k joins corners k, k+1
    lo, hi = np.minimum(ce, nxt), np.maximum(ce, nxt)
    crossed = above[lo] != above[hi]
    # each crossing in canonical low->high node order, so both elements on
    # a cut edge get the same point
    lo, hi = lo[crossed], hi[crossed]
    s = (threshold - v[lo]) / (v[hi] - v[lo])
    nodes = mesh.nodes
    points = np.full((len(cut), 6, 2), np.nan)
    points[:, :3] = caps[cut]
    points[:, 3:][crossed] = _snap(nodes[lo] + s[:, None] * (nodes[hi] - nodes[lo]))
    k, c = np.nonzero(_CAP_TABLE[case, :, 0].T >= 0)    # cut element c's cap k
    clipped = points[c[:, None], _CAP_TABLE[case[c], k]]

    # caps in k-major, then element order: each first cap takes its
    # element's place, the second caps follow
    caps[cut] = clipped[:len(cut)]
    caps = np.concatenate([caps, clipped[len(cut):]])
    place = np.concatenate([cut, len(el) + np.arange(len(clipped) - len(cut))])
    a, b, c = clipped[:, 0], clipped[:, 1], clipped[:, 2]
    repeated = (a == b).all(axis=1) | (b == c).all(axis=1) | (c == a).all(axis=1)
    return np.delete(caps, place[repeated], axis=0)


# --------------------------------------------------------------------------
# STL
# --------------------------------------------------------------------------

_STL_RECORD = np.dtype([("normal", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def stl_height(height: float) -> np.float32:
    """The extrusion height as a binary STL stores it: float32, which must
    be finite and > 0 (1e39 overflows, 1e-46 rounds to 0).  ValueError
    otherwise."""
    with np.errstate(over="ignore"):
        z = np.float32(height)
    if not (np.isfinite(z) and z > 0):
        raise ValueError(f"extrusion height must be finite and > 0 in float32, got {height}")
    return z


def extrude_to_stl(caps, height: float, path: str) -> int:
    """Extrude a planar region into a closed binary STL prism.

    `caps` is a (T,3,2) array of counter-clockwise triangles that tile the
    region.  They are written at z = 0 and z = height, and the walls stand
    on the cap edges that no other cap shares.  Every vertex is written from
    its name: the float32 bits of its cap point (-0 as +0), which also key
    the points, and of its z.  Raises ValueError for a height that float32
    cannot store (see stl_height), and GeometryError, before writing, if any
    edge of the solid is not used by exactly two triangles.  Returns the
    number of triangles written.
    """
    z = stl_height(height)
    caps = np.asarray(caps, dtype=float).reshape(-1, 3, 2)
    if not len(caps):
        raise GeometryError("no caps to extrude")
    ids, keys = _point_ids(caps)
    # wall edges a -> b, from corner k to k + 1 of cap t in its
    # counter-clockwise order: the region lies on their left, so the walls
    # wind outward
    t, k = np.nonzero(_used_once(_edge_keys(ids)))
    k1 = (k + 1) % 3
    # every vertex named 2 * (cap point id) + level, level 1 at z = height:
    # top caps (normal +z), mirrored bottom caps (normal -z), then the walls
    # (a0, b0, b1) and (a0, b1, a1)
    a, b = 2 * ids[t, k], 2 * ids[t, k1]
    vertex = np.concatenate([2 * ids + 1, 2 * ids[:, ::-1], np.stack([a, b, b + 1], axis=1),
                             np.stack([a, b + 1, a + 1], axis=1)])
    # the float32 bits of every name: x and y from its point's key, z from
    # its level
    named = np.empty((len(keys), 2, 3), dtype=np.uint32)
    named[..., 0] = (keys >> 32)[:, None]
    named[..., 1] = (keys & 0xFFFFFFFF)[:, None]
    named[..., 2] = _float32_bits([0.0, z])
    named = named.reshape(-1, 3)
    try:
        _check_closed(vertex)
    except GeometryError as err:
        ends = [", ".join(map(str, named[n].view(np.float32))) for n in err.edge]
        raise GeometryError(f"{err}, the first from ({ends[0]}) to ({ends[1]})") from None
    records = np.zeros(len(vertex), dtype=_STL_RECORD)
    for j in range(3):     # a corner at a time: a third of the gather's temporary
        records["v"][:, j].view(np.uint32)[...] = named[vertex[:, j]]
    # the normals of each kind of triangle from its float64 cap differences
    # and its z differences as scalars: the bits np.cross and np.linalg.norm
    # give on its vertices, signed zeros included
    c0, c1, c2 = caps[:, 0], caps[:, 1], caps[:, 2]
    a, b = caps[t, k], caps[t, k1]
    h = float(height)
    top, bottom, walls = len(caps), 2 * len(caps), 2 * len(caps) + len(t)
    normal = records["normal"]
    _normals(normal[:top], c1 - c0, c2 - c0, h - h, h - h)
    _normals(normal[top:bottom], c1 - c2, c0 - c2, 0.0 - 0.0, 0.0 - 0.0)
    _normals(normal[bottom:walls], b - a, b - a, 0.0 - 0.0, h - 0.0)
    _normals(normal[walls:], b - a, a - a, h - 0.0, h - 0.0)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<80sI", b"gradtopo extruded design", len(records)))
        fh.write(memoryview(records))
    return len(records)


def _point_ids(caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One id (T,3) per distinct float32 point of the caps (T,3,2), its rank
    among the points' sorted keys, and those keys (P,): the float32 x and y
    bits packed into an int64."""
    bits = _float32_bits(caps)
    xy = (bits[..., 0] << 32 | bits[..., 1]).ravel()
    order = np.argsort(xy)
    xy = xy[order]
    first = np.concatenate([[True], xy[1:] != xy[:-1]])
    ids = np.empty(len(xy), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids.reshape(-1, 3), xy[first]


def _used_once(keys: np.ndarray) -> np.ndarray:
    """Whether each edge key (T,3) is used once: differs from both its
    neighbours in the sorted keys."""
    order = np.argsort(keys, axis=None)
    keys = keys.ravel()[order]
    bound = np.concatenate([[True], keys[1:] != keys[:-1], [True]])
    once = np.empty(len(keys), dtype=bool)
    once[order] = bound[:-1] & bound[1:]
    return once.reshape(-1, 3)


def _normals(out: np.ndarray, d1: np.ndarray, d2: np.ndarray, z1: float, z2: float) -> None:
    """Write the unit normals of triangles with edge vectors (d1, z1) and
    (d2, z2), (n,2) and scalar, into out (n,3); a degenerate triangle keeps
    the zero normal."""
    x1, y1, x2, y2 = d1[:, 0], d1[:, 1], d2[:, 0], d2[:, 1]
    normal = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    norm = np.sqrt(normal[0] * normal[0] + normal[1] * normal[1] + normal[2] * normal[2])
    for i, c in enumerate(normal):
        np.divide(c, norm, out=out[:, i], where=norm > 0)


def _check_closed(vertex: np.ndarray) -> None:
    """GeometryError unless every edge of the triangles (T,3), given by their
    vertices' names, is used by exactly two of them.

    In the sorted edge keys, every edge is used twice exactly when the keys
    come in equal pairs and no pair equals the next.  The error's `edge`
    holds the names of the ends of the first edge, in key order, that is not.
    """
    edge = _edge_keys(vertex).ravel()
    edge.sort()
    if not (len(edge) % 2 == 0 and np.array_equal(edge[0::2], edge[1::2])
            and not np.any(edge[2::2] == edge[1:-1:2])):
        keys, uses = np.unique(edge, return_counts=True)
        err = GeometryError(f"extruded solid is not closed: {np.count_nonzero(uses != 2)} "
                            f"of {len(uses)} edges are not used by exactly two triangles")
        t, k = np.argwhere(_edge_keys(vertex) == keys[uses != 2][0])[0]
        err.edge = vertex[t, k], vertex[t, (k + 1) % 3]
        raise err


def split_to_stl(phi: np.ndarray, chi: np.ndarray, mesh, threshold: float,
                 height: float, outdir: str) -> list[tuple[str, int]]:
    """Split the material region phi > 0.5 at chi = threshold into two STLs.

    above.stl holds the part with chi above the threshold, below.stl the
    rest; threshold <= 0 writes the whole structure to above.stl.  A part
    with no area is skipped; GeometryError, before outdir is created, if
    every part is.  Returns (path, triangle count) of every file.
    """
    if threshold > 0:
        parts = (("above", chi - threshold), ("below", threshold - chi))
    else:
        parts = (("above", np.ones_like(chi)),)
    part_caps = []
    for name, level in parts:
        # min(phi - 0.5, level) > 0 exactly on the part, scaled into (0,1)
        # about 0.5: the part is region_caps(field, mesh, 0.5)
        g = np.minimum(phi - 0.5, level)
        field = 0.5 + g / (4.0 * max(float(np.abs(g).max()), 1e-30))
        caps = region_caps(field, mesh, 0.5)
        if len(caps):
            part_caps.append((os.path.join(outdir, f"{name}.stl"), caps))
    if not part_caps:
        raise GeometryError("nothing to export: the material region phi > 0.5 is empty")
    os.makedirs(outdir, exist_ok=True)
    return [(path, extrude_to_stl(caps, height, path)) for path, caps in part_caps]


def _float32_bits(a) -> np.ndarray:
    """The bits of a's float32 values as int64, with -0 as +0: equal bits
    are one value as a binary STL stores it."""
    v = np.asarray(a, dtype=np.float32) + np.float32(0.0)
    return v.view(np.uint32).astype(np.int64)


def _edge_keys(ids: np.ndarray) -> np.ndarray:
    """One int64 key per edge of the triangles (T,3) given by their vertices'
    integer ids: edge k joins vertices k and k+1, in either direction."""
    # the key fits an int64 while the id range stays under 3e9
    span = int(ids.max()) + 1
    nxt = ids[:, [1, 2, 0]]
    key = np.minimum(ids, nxt)
    key *= span
    key += np.maximum(ids, nxt, out=nxt)
    return key
