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

from gradtopo import stress
from gradtopo.optimizer import IterationRecord

__all__ = [
    "GeometryError",
    "write_fields",
    "write_history_csv",
    "write_run",
    "region_caps",
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
    """The outputs of one run in config.output_dir: history.csv, fields.vtk
    and the fields.npz snapshot that export-stl reads."""
    outdir = config.output_dir
    write_history_csv(history, os.path.join(outdir, "history.csv"))
    write_fields(state, mesh, os.path.join(outdir, "fields.vtk"))
    np.savez(os.path.join(outdir, "fields.npz"), phi=state.phi,
             chi=state.chi, u=state.u, sigma=state.sigma)


# --------------------------------------------------------------------------
# marching triangles
# --------------------------------------------------------------------------

def _snap(p: np.ndarray) -> np.ndarray:
    # the binary STL stores float32: snapping every point to it collapses
    # eps-offset crossings onto their mesh nodes, so the caps drop the
    # slivers between them
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
    than the solid needs.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    v = np.asarray(field, dtype=float).copy()
    v[v == threshold] = threshold + 1e-12
    above = v > threshold

    el = mesh.elements.astype(np.int64)
    nxt = np.roll(el, -1, axis=1)               # edge k joins corners k, k+1
    lo, hi = np.minimum(el, nxt), np.maximum(el, nxt)
    cut = above[lo] != above[hi]
    # each crossing in canonical low->high node order, so both elements on
    # a cut edge get the same point
    lo, hi = lo[cut], hi[cut]
    s = (threshold - v[lo]) / (v[hi] - v[lo])
    nodes = mesh.nodes
    points = np.full((len(el), 6, 2), np.nan)
    points[:, :3] = _snap(nodes)[el]
    points[:, 3:][cut] = _snap(nodes[lo] + s[:, None] * (nodes[hi] - nodes[lo]))

    case = above[el].astype(int) @ np.array([1, 2, 4])
    k, e = np.nonzero(_CAP_TABLE[case, :, 0].T >= 0)    # element e's cap k
    caps = points[e[:, None], _CAP_TABLE[case[e], k]]
    a, b, c = caps[:, 0], caps[:, 1], caps[:, 2]
    return caps[~((a == b).all(axis=1) | (b == c).all(axis=1) | (c == a).all(axis=1))]


# --------------------------------------------------------------------------
# STL
# --------------------------------------------------------------------------

_STL_RECORD = np.dtype([("normal", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def _lift(p: np.ndarray, z: float) -> np.ndarray:
    return np.concatenate([p, np.full(p.shape[:-1] + (1,), z)], axis=-1)


def extrude_to_stl(caps, height: float, path: str) -> int:
    """Extrude a planar region into a closed binary STL prism.

    `caps` is a (T,3,2) array of counter-clockwise triangles that tile the
    region.  They are written at z = 0 and z = height, and the walls stand
    on the cap edges that no other cap shares (vertices keyed by their
    float32 bits, as stored).  Raises GeometryError, before writing, if any
    edge of the solid is not used by exactly two triangles.  Returns the
    number of triangles written.
    """
    if not (np.isfinite(height) and height > 0):
        raise ValueError(f"extrusion height must be finite and > 0, got {height}")
    caps = np.asarray(caps, dtype=float).reshape(-1, 3, 2)
    if not len(caps):
        raise GeometryError("no caps to extrude")
    # wall edges a -> b in their cap's counter-clockwise order: the region
    # lies on their left, so the walls wind outward
    keys, ids = np.unique(_xy_keys(caps), return_inverse=True)
    ids = ids.reshape(-1, 3)
    nxt = np.roll(ids, -1, axis=1)
    _, edge, uses = np.unique(np.minimum(ids, nxt) * len(keys) + np.maximum(ids, nxt),
                              return_inverse=True, return_counts=True)
    wall = (uses[edge] == 1).reshape(-1, 3)
    a, b = caps[wall], np.roll(caps, -1, axis=1)[wall]
    a0, a1, b0, b1 = _lift(a, 0.0), _lift(a, height), _lift(b, 0.0), _lift(b, height)
    # top cap (normal +z), mirrored bottom cap (normal -z), walls
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


def _xy_keys(p) -> np.ndarray:
    """One int64 key per point (..., 2+): its float32 x and y bits packed."""
    bits = _float32_bits(np.asarray(p)[..., :2])
    return bits[..., 0] << 32 | bits[..., 1]


def _edge_uses(tris: np.ndarray) -> np.ndarray:
    """Use count of every undirected edge of a triangle soup, with vertices
    keyed by their float32 coordinates, as a binary STL stores them."""
    v = np.asarray(tris).reshape(-1, 3)
    # x and y pack into one key, z is ranked apart, and each vertex id
    # combines the two ranks
    xy, xy_id = np.unique(_xy_keys(v), return_inverse=True)
    z, z_id = np.unique(_float32_bits(v[:, 2]), return_inverse=True)
    ids = (xy_id * len(z) + z_id).reshape(-1, 3)
    # the edge key fits an int64 while the id range len(xy) * len(z) stays
    # under 3e9: an extrusion has two z levels
    span = len(xy) * len(z)
    nxt = np.roll(ids, -1, axis=1)
    return np.unique(np.minimum(ids, nxt) * span + np.maximum(ids, nxt),
                     return_counts=True)[1]
