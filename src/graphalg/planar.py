"""Disk-embedded graphs with boundary, dual networks, and harmonic
conjugates.

An embedding is a rotation system: for each vertex, the counterclockwise
cyclic order of its outgoing oriented edges, together with the
counterclockwise order of the boundary vertices on the disk's circle.
The circle itself is modeled by virtual arcs between consecutive
boundary vertices; the arcs participate in face tracing but are never
dualized.  Faces are traced so that each face contains the oriented
edges having it on their right; the trace along the outside of the
circle is discarded.  An embedding is checked and its faces walked once,
on first use, and every reader shares that walk.

The dual network places a vertex in every face, joins the two faces
adjacent to each edge by a dual edge with reciprocal weight, and marks a
dual vertex as boundary when its face has a side along the circle.  The
reduced fundamental modules of a network and its dual are isomorphic,
and harmonic functions on the two networks pair up through the discrete
Cauchy-Riemann equation w(e) du(e) = dv(e-dual).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact_algebra import _inverse
from .fundamental import upsilon_reduced
from .network import Network, VertexFunction, _value_map, is_harmonic
from .partial_graph import PartialGraph, rev

ARC = "arc"


def _is_arc(dart):
    return dart[0] == ARC


@dataclass(frozen=True)
class EmbeddedPartialGraph:
    """A graph with boundary embedded in the closed disk.

    ``rotation`` maps each vertex to the counterclockwise cyclic order
    of its outgoing oriented edges.  At a boundary vertex the listed
    order is linear, starting from the circle direction toward the next
    boundary vertex counterclockwise.  ``boundary_order`` lists the
    boundary vertices counterclockwise around the circle (empty for a
    graph without boundary, which is treated as embedded in the
    sphere)."""

    graph: PartialGraph
    rotation: tuple
    boundary_order: tuple

    def __init__(self, graph, rotation, boundary_order):
        rot = dict(rotation)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(
            self,
            "rotation",
            tuple(sorted((v, tuple(ds)) for v, ds in rot.items())),
        )
        object.__setattr__(self, "boundary_order", tuple(boundary_order))

    @property
    def rmap(self):
        return dict(self.rotation)

    @cached_property
    def _faces(self):
        """Every face of the augmented map as a :class:`Face`, walked
        once after the rotation and boundary order are checked.  An
        invalid embedding raises ValueError here on every access."""
        G = self.graph
        if [v for v, _ in self.rotation] != list(G.vertices):
            raise ValueError("rotation must cover every vertex exactly")
        for v, darts in self.rotation:
            # a star's darts are distinct, so this rejects repeated darts
            star = G.star(v)
            if len(darts) != len(star) or set(darts) != set(star):
                raise ValueError(f"rotation at {v} does not list its star")
        if sorted(self.boundary_order) != sorted(G.boundary):
            raise ValueError("boundary order must enumerate the boundary")
        if G.vertices and not G.is_connected():
            raise ValueError("embedded graph must be connected")
        faces = _trace_all_faces(self)
        b = len(self.boundary_order)
        euler = len(G.vertices) - (len(G.edges) + b) + len(faces)
        if euler != 2:
            raise ValueError("rotation system is not a disk embedding")
        arcs = {(ARC, i, s) for i in range(b) for s in (1, -1)}
        return tuple(Face(f, not arcs.isdisjoint(f)) for f in faces)


def validate_embedding(EG):
    """Check rotation and boundary-order consistency and that the face
    structure has the Euler characteristic of a disk embedding.  The
    check runs once per embedding, with the face walk that
    :func:`trace_faces` and :func:`dual` read."""
    EG._faces  # raises ValueError unless EG is a disk embedding
    return True


def _augmented_rotation(EG):
    """Rotations with the virtual circle arcs inserted.  Arc i runs
    counterclockwise from boundary vertex i to boundary vertex i+1 of
    ``boundary_order``; its darts are (ARC, i, +1) and (ARC, i, -1)."""
    rmap = {v: list(ds) for v, ds in EG.rotation}
    order = EG.boundary_order
    b = len(order)
    for i, v in enumerate(order):
        rmap[v] = (
            [(ARC, i, 1)] + rmap[v] + [(ARC, (i - 1) % b, -1)]
        )
    return rmap


def _trace_all_faces(EG):
    """All faces of the augmented map, each as the cyclic dart sequence
    having the face on its right, including the outside-the-circle
    trace.  Walks start at the darts in rotation order."""
    rmap = _augmented_rotation(EG)
    darts = [d for ds in rmap.values() for d in ds]
    index = {d: i for i, d in enumerate(darts)}
    # after[i]: the dart that follows darts[i] in its vertex's rotation
    after = []
    for ds in rmap.values():
        if ds:
            k = len(after)
            after += range(k + 1, k + len(ds))
            after.append(k)
    # a walk steps from each dart to the one after its reversal
    step = [0] * len(darts)
    for e in EG.graph.edge_ids:
        a, b = index[(e, 1)], index[(e, -1)]
        step[a], step[b] = after[b], after[a]
    for i in range(len(EG.boundary_order)):
        a, b = index[(ARC, i, 1)], index[(ARC, i, -1)]
        step[a], step[b] = after[b], after[a]
    faces = []
    todo = [True] * len(darts)
    for start in range(len(darts)):
        if todo[start]:
            face = []
            i = start
            while todo[i]:
                todo[i] = False
                face.append(darts[i])
                i = step[i]
            faces.append(tuple(face))
    return faces


@dataclass(frozen=True)
class Face:
    """A face of the embedding: its clockwise dart walk (virtual arcs
    included) and whether it has a side along the circle."""

    darts: tuple
    is_boundary: bool

    @property
    def arc_indices(self):
        return tuple(d[1] for d in self.darts if _is_arc(d))


def _dart_key(d):
    return (1, d[1], d[2]) if _is_arc(d) else (0, d[0], d[1])


def trace_faces(EG):
    """The faces of the embedded graph (the outside of the circle is
    dropped), deterministically ordered."""
    faces = EG._faces
    if EG.boundary_order:
        outer_dart = (ARC, 0, 1)
        faces = [f for f in faces if outer_dart not in f.darts]
    return sorted(faces, key=lambda f: min(map(_dart_key, f.darts)))


@dataclass(frozen=True)
class DualNetwork:
    """The dual of an embedded network.  Edge ids are shared: the dual
    of edge e carries the same id, is oriented from the face left of e
    to the face right of e, and has the reciprocal weight."""

    network: Network
    embedded: EmbeddedPartialGraph


def _rotate_to_arc_prefix(darts):
    """Cyclically rotate a boundary-face walk so its arc darts come
    first (the arcs of a boundary face of a connected graph are
    consecutive in the walk)."""
    n = len(darts)
    for i in range(n):
        if _is_arc(darts[i]) and not _is_arc(darts[(i - 1) % n]):
            return darts[i:] + darts[:i]
    raise ValueError("face has no non-arc dart")


def dual(N, EG):
    """Dual network of a connected embedded network with invertible
    weights."""
    if N.graph != EG.graph:
        raise ValueError("embedding does not belong to the network")
    if not EG.boundary_order:
        raise ValueError(
            "dual needs a boundary vertex; designate one (lowest id is"
            " customary) and re-embed"
        )
    for _, w in N.weights:
        if w == 0:
            raise ValueError("dual requires invertible weights")
    faces = trace_faces(EG)
    face_of = {}
    for i, f in enumerate(faces):
        for d in f.darts:
            face_of[d] = i
    # dual edge e: tail = face left of e = face containing (e, -1),
    # head = face right of e = face containing (e, +1)
    edges = {
        e: (face_of[(e, -1)], face_of[(e, 1)]) for e in EG.graph.edge_ids
    }
    boundary = {i for i, f in enumerate(faces) if f.is_boundary}
    Gd = PartialGraph(range(len(faces)), boundary, edges)
    # rotation at a face-vertex: the face walk is clockwise, so the
    # outgoing dual darts (one per crossed edge) are clockwise too;
    # reverse for counterclockwise.  For boundary faces, start the walk
    # at its arc run so the linear order begins at the circle.
    rotation = {}
    for i, f in enumerate(faces):
        walk = f.darts
        if f.is_boundary:
            walk = _rotate_to_arc_prefix(walk)
        out = [rev(d) for d in walk if not _is_arc(d)]
        rotation[i] = tuple(reversed(out))
    # boundary faces counterclockwise: by first arc of their arc run
    def arc_key(i):
        return min(faces[i].arc_indices)

    dual_order = tuple(sorted(boundary, key=arc_key))
    EGd = EmbeddedPartialGraph(Gd, rotation, dual_order)
    validate_embedding(EGd)
    weights = {e: _inverse(w) for e, w in N.weights}
    Nd = Network(Gd, weights)
    return DualNetwork(Nd, EGd)


def double_dual_is_isomorphic(N, EG):
    """Check that dualizing twice returns the original network: derive
    the face-to-vertex correspondence from the shared edge ids and
    verify it is a weight- and boundary-preserving isomorphism."""
    D1 = dual(N, EG)
    D2 = dual(D1.network, D1.embedded)
    G = N.graph
    G2 = D2.network.graph
    if set(G2.edge_ids) != set(G.edge_ids):
        return False
    for orient in (False, True):
        vmap = {}
        ok = True
        for e in G.edge_ids:
            t, h = G.edge_dict[e]
            t2, h2 = G2.edge_dict[e]
            if orient:
                t2, h2 = h2, t2
            for a, b in ((t2, t), (h2, h)):
                if vmap.setdefault(a, b) != b:
                    ok = False
            if not ok:
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        if len(vmap) != len(G2.vertices):
            continue
        if {vmap[v] for v in G2.boundary} != set(G.boundary):
            continue
        if all(
            D2.network.weight(e) == N.weight(e) for e in G.edge_ids
        ):
            return True
    return False


def verify_duality(N, EG):
    """The reduced fundamental modules of a normalized integral network
    and of its dual have equal invariant factors."""
    if not N.is_normalized():
        raise ValueError("duality requires a normalized network (d = 0)")
    D = dual(N, EG)
    a = upsilon_reduced(N)
    b = upsilon_reduced(D.network)
    return a.invariant_factors == b.invariant_factors


def harmonic_conjugate(N, EG, u):
    """The harmonic conjugate of a harmonic function u: the function v
    on the dual network with w(e) du(e) = dv(e-dual), normalized to
    vanish at dual vertex 0.  Built by integrating over a spanning tree
    of the dual and checking every remaining edge; an inconsistency
    means u was not harmonic."""
    D = dual(N, EG)
    G = N.graph
    Gd = D.network.graph
    uv = _value_map(u)
    if set(uv) != set(G.vertices):
        raise ValueError("vertex function must be total")

    def flux(e):
        t, h = G.edge_dict[e]
        return N.weight(e) * (uv[h] - uv[t])

    forest = Gd.spanning_forest()
    if len(forest) != len(Gd.vertices) - 1:
        raise AssertionError("dual graph is disconnected")
    v = {0: 0 * next(iter(uv.values()))}
    for y, (e, s) in forest.items():
        # dv across the dual edge, oriented tail -> head
        dv = flux(e)
        x = Gd.o_tail((e, s))
        v[y] = v[x] + dv if s > 0 else v[x] - dv
    for e, t, h in Gd.edges:
        if v[h] - v[t] != flux(e):
            raise ValueError(
                "conjugate integration inconsistent: u is not harmonic"
            )
    vf = VertexFunction(v)
    if not is_harmonic(D.network, vf):
        raise AssertionError("conjugate failed harmonicity check")
    return vf, D
