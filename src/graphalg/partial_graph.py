"""Graphs with boundary and their morphisms.

A :class:`PartialGraph` is a finite multigraph whose vertex set is
partitioned into boundary and interior vertices.  It holds its
vertices, boundary and edges and nothing else, so graphs with the same
three parts are equal however they were built.  Undirected edges are
stored once (with an id, a tail, and a head); each one stands for the
pair of oriented edges ``(eid, +1)`` and ``(eid, -1)``, and reversal
flips the sign.  ``star(x)`` is the set of oriented edges pointed away
from x, so loops contribute both orientations.  A graph checks its parts
once, when it is built.  It builds its edge ids, interior, edge map,
stars, connected components and low points once, on first use, and
hands out read-only views of them; a morphism does the same with its
vertex and edge maps.

Morphisms may collapse edges to vertices; :func:`validate_morphism`
checks the local constant-fiber-size condition and returns the local
degree at every vertex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType


def rev(oe):
    """Reversal of an oriented edge (eid, sign)."""
    eid, s = oe
    return (eid, -s)


@dataclass(frozen=True)
class PartialGraph:
    vertices: tuple
    boundary: frozenset
    edges: tuple  # of (eid, tail, head)

    def __init__(self, vertices, boundary, edges):
        known = set(map(int, vertices))
        vs = tuple(sorted(known))
        bd = frozenset(map(int, boundary))
        # a list sorts faster than a generator; unpacking each edge
        # keeps the error that a malformed one raises
        if isinstance(edges, dict):
            es = [(int(e), int(t), int(h)) for e, (t, h) in edges.items()]
        else:
            es = [(int(e), int(t), int(h)) for e, t, h in edges]
        es = tuple(sorted(es))
        _check_parts(known, bd, es)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "boundary", bd)
        object.__setattr__(self, "edges", es)

    # -- basic accessors ------------------------------------------------

    @cached_property
    def interior(self):
        return tuple(v for v in self.vertices if v not in self.boundary)

    @cached_property
    def edge_ids(self):
        return tuple(e for e, _, _ in self.edges)

    @cached_property
    def _ends(self):
        return {e: (t, h) for e, t, h in self.edges}

    @property
    def edge_dict(self):
        """Read-only map eid -> (tail, head)."""
        return MappingProxyType(self._ends)

    @cached_property
    def _stars(self):
        stars = {}
        for e, t, h in self.edges:
            stars.setdefault(t, []).append((e, 1))
            stars.setdefault(h, []).append((e, -1))
        return {x: tuple(star) for x, star in stars.items()}

    def tail(self, eid):
        return self._ends[eid][0]

    def head(self, eid):
        return self._ends[eid][1]

    def o_tail(self, oe):
        eid, s = oe
        t, h = self._ends[eid]
        return t if s > 0 else h

    def o_head(self, oe):
        eid, s = oe
        t, h = self._ends[eid]
        return h if s > 0 else t

    def star(self, x):
        """Oriented edges with tail x, in deterministic order."""
        return self._stars.get(x, ())

    def degree(self, x):
        return len(self.star(x))

    def neighbors(self, x):
        return sorted({self.o_head(oe) for oe in self.star(x)})

    def is_empty(self):
        return not self.vertices

    # -- derived graphs -------------------------------------------------

    def with_boundary(self, boundary):
        return PartialGraph(self.vertices, boundary, self.edges)

    def induced(self, vertices, edges, boundary):
        vs = set(vertices)
        ed = self.edge_dict
        es = []
        for e in edges:
            t, h = ed[e]
            if t not in vs or h not in vs:
                raise ValueError(f"edge {e} dangles outside the vertex subset")
            es.append((e, t, h))
        return PartialGraph(vs, set(boundary) & vs, es)

    def delete_vertex(self, x):
        vs = [v for v in self.vertices if v != x]
        es = [(e, t, h) for e, t, h in self.edges if t != x and h != x]
        return PartialGraph(vs, self.boundary - {x}, es)

    def delete_edge(self, eid):
        es = [(e, t, h) for e, t, h in self.edges if e != eid]
        return PartialGraph(self.vertices, self.boundary, es)

    @cached_property
    def _components(self):
        adj = {v: set() for v in self.vertices}
        for _, t, h in self.edges:
            adj[t].add(h)
            adj[h].add(t)
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(adj[x] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def connected_components(self):
        """List of vertex frozensets, by least vertex."""
        return list(self._components)

    def is_connected(self):
        return len(self._components) <= 1

    @cached_property
    def _low_points(self):
        """(cut vertices, bridges), the bridges as the ids of the edges
        on no cycle: one iterative depth-first pass with low points
        (Tarjan 1972).  The pass walks (edge id, neighbour) pairs and
        skips only the edge it came in by, so a parallel edge counts as
        a back edge."""
        adj = {v: [] for v in self.vertices}
        for e, t, h in self.edges:
            adj[t].append((e, h))
            adj[h].append((e, t))
        order, low, cut, bridges = {}, {}, set(), set()
        for root in self.vertices:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            root_children = 0
            stack = [(root, None, iter(adj[root]))]
            while stack:
                x, via, it = stack[-1]
                for e, y in it:
                    if e == via:
                        continue
                    if y in order:
                        low[x] = min(low[x], order[y])
                        continue
                    order[y] = low[y] = len(order)
                    if x == root:
                        root_children += 1
                    stack.append((y, e, iter(adj[y])))
                    break
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[x])
                        if low[x] > order[p]:
                            bridges.add(via)
                        if p != root and low[x] >= order[p]:
                            cut.add(p)
            if root_children > 1:
                cut.add(root)
        return frozenset(cut), frozenset(bridges)

    def cut_vertices(self):
        return self._low_points[0]

    def bridges(self):
        return self._low_points[1]

    def spanning_forest(self):
        """A spanning forest as ``{vertex: dart from its parent}``, in
        discovery order.  Each component is walked from its least
        vertex, its root, which is not a key; a vertex is marked when
        it is pushed, and the stack pops the last vertex pushed."""
        parent = {}
        for root in self.vertices:
            if root in parent:
                continue
            stack = [root]
            while stack:
                x = stack.pop()
                for oe in self.star(x):
                    y = self.o_head(oe)
                    if y != root and y not in parent:
                        parent[y] = oe
                        stack.append(y)
        return parent


_EID, _TAIL, _HEAD = itemgetter(0), itemgetter(1), itemgetter(2)


def _check_parts(known, boundary, edges):
    """Raise ValueError unless ``boundary`` lies in the vertex set
    ``known`` and the ``(eid, tail, head)`` triples ``edges`` have
    distinct ids and endpoints in ``known``."""
    if not boundary <= known:
        raise ValueError(f"boundary vertex {min(boundary - known)} is not a vertex")
    if len(set(map(_EID, edges))) < len(edges):
        count = Counter(map(_EID, edges))
        e = min(e for e, k in count.items() if k > 1)
        raise ValueError(f"repeated edge id {e}")
    if not (
        known.issuperset(map(_TAIL, edges))
        and known.issuperset(map(_HEAD, edges))
    ):
        e, t, h = next(x for x in edges if not known.issuperset(x[1:]))
        raise ValueError(
            f"edge endpoint {h if t in known else t} is not a vertex"
            f" (edge {e} references unknown vertices)"
        )


COLLAPSED = "vertex"
EDGE = "edge"


@dataclass(frozen=True)
class DGraphMorphism:
    """A morphism of graphs with boundary.

    ``vertex_map`` sends source vertex ids to target vertex ids.
    ``edge_map`` sends each source edge id either to
    ``("edge", target_eid, sign)`` (the source edge with orientation +1
    maps to the target oriented edge ``(target_eid, sign)``) or to
    ``("vertex", v)`` when the edge is collapsed.
    """

    source: PartialGraph
    target: PartialGraph
    vertex_map: tuple
    edge_map: tuple

    def __init__(self, source, target, vertex_map, edge_map):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_map", tuple(sorted(vertex_map.items())))
        object.__setattr__(self, "edge_map", tuple(sorted(edge_map.items())))

    @cached_property
    def _vmap(self):
        return dict(self.vertex_map)

    @cached_property
    def _emap(self):
        return dict(self.edge_map)

    @property
    def vmap(self):
        """Read-only map source vertex -> target vertex."""
        return MappingProxyType(self._vmap)

    @property
    def emap(self):
        """Read-only map source eid -> edge image."""
        return MappingProxyType(self._emap)

    def vertex_image(self, x):
        return self._vmap[x]

    def oriented_image(self, oe):
        """Image of an oriented edge: ("edge", (eid, sign)) or ("vertex", v)."""
        eid, s = oe
        img = self._emap[eid]
        if img[0] == COLLAPSED:
            return img
        _, teid, tsign = img
        return (EDGE, (teid, tsign * s))

    def vertex_fiber(self, y):
        vmap = self._vmap
        return [x for x in self.source.vertices if vmap[x] == y]


def identity_morphism(G):
    return DGraphMorphism(
        G,
        G,
        {v: v for v in G.vertices},
        {e: (EDGE, e, 1) for e in G.edge_ids},
    )


def validate_morphism(f):
    """Validate the morphism conditions and return {vertex: local degree}.

    At an interior vertex x the count ``|star(x) ∩ f^{-1}(e')|`` must be
    the same for every oriented edge e' at f(x); that common count is
    deg(f, x).  At a boundary vertex the degree is the maximum count.
    """
    G, H = f.source, f.target
    vmap, emap = f.vmap, f.emap
    if set(vmap) != set(G.vertices):
        raise ValueError("vertex map is not total")
    if set(emap) != set(G.edge_ids):
        raise ValueError("edge map is not total")
    targets = set(H.vertices)
    for x, y in vmap.items():
        if y not in targets:
            raise ValueError(f"vertex {x} maps outside the target")
        if x not in G.boundary and y in H.boundary:
            raise ValueError(f"interior vertex {x} maps to boundary vertex {y}")
    hedges = H.edge_dict
    for e, t, h in G.edges:
        img = emap[e]
        if img[0] == COLLAPSED:
            if vmap[t] != img[1] or vmap[h] != img[1]:
                raise ValueError(f"collapsed edge {e} has incompatible endpoints")
        elif img[0] == EDGE:
            _, teid, tsign = img
            if teid not in hedges:
                raise ValueError(f"edge {e} maps to unknown edge {teid}")
            oe = (teid, tsign)
            if vmap[t] != H.o_tail(oe) or vmap[h] != H.o_head(oe):
                raise ValueError(f"edge {e} image has incompatible endpoints")
        else:
            raise ValueError(f"bad edge image {img!r}")
    degrees = {}
    for x in G.vertices:
        y = vmap[x]
        counts = {}
        for oe in G.star(x):
            img = f.oriented_image(oe)
            if img[0] == EDGE:
                counts[img[1]] = counts.get(img[1], 0) + 1
        target_star = H.star(y)
        fibers = [counts.get(oe, 0) for oe in target_star]
        if x in G.boundary:
            degrees[x] = max(fibers, default=0)
        else:
            if not target_star:
                degrees[x] = 0
            else:
                if len(set(fibers)) != 1:
                    raise ValueError(
                        f"unequal edge-fiber sizes at interior vertex {x}"
                    )
                degrees[x] = fibers[0]
    return degrees


def is_covering_map(f):
    """Covering map: surjective, boundary to boundary, no collapsed
    edges, and a bijection on every edge star."""
    try:
        validate_morphism(f)
    except ValueError:
        return False
    G, H = f.source, f.target
    vmap = f.vmap
    if set(vmap.values()) != set(H.vertices):
        return False
    for x in G.boundary:
        if vmap[x] not in H.boundary:
            return False
    hit = set()
    for e, img in f.emap.items():
        if img[0] != EDGE:
            return False
        hit.add(img[1])
    if hit != set(H.edge_ids):
        return False
    for x in G.vertices:
        star = G.star(x)
        images = [f.oriented_image(oe)[1] for oe in star]
        if len(set(images)) != len(images):
            return False
        if set(images) != set(H.star(vmap[x])):
            return False
    return True


def is_unramified(f):
    """deg(f, x) = 1 at every interior vertex and at most 1 on the boundary."""
    try:
        degrees = validate_morphism(f)
    except ValueError:
        return False
    G = f.source
    for x in G.vertices:
        d = degrees[x]
        if x in G.boundary:
            if d > 1:
                return False
        elif d != 1:
            return False
    return True


def compose(g, f):
    """g after f."""
    if f.target != g.source:
        raise ValueError("morphisms are not composable")
    vmap = {x: g.vmap[y] for x, y in f.vmap.items()}
    emap = {}
    for e, img in f.emap.items():
        if img[0] == COLLAPSED:
            emap[e] = (COLLAPSED, g.vmap[img[1]])
        else:
            _, teid, tsign = img
            img2 = g.emap[teid]
            if img2[0] == COLLAPSED:
                emap[e] = img2
            else:
                _, teid2, tsign2 = img2
                emap[e] = (EDGE, teid2, tsign * tsign2)
    return DGraphMorphism(f.source, g.target, vmap, emap)


def _pair_ids(items):
    """Assign dense integer ids to a sorted list of hashable items."""
    return {item: i for i, item in enumerate(sorted(items))}


def box_product(G1, G2):
    """Box product, with the two projection morphisms.

    Vertices are pairs; edges are (edge of G1) x (vertex of G2) and
    (vertex of G1) x (edge of G2).  A vertex is interior iff both
    factors are interior.
    """
    vid = _pair_ids([(x1, x2) for x1 in G1.vertices for x2 in G2.vertices])
    eitems = [("e1", e, x2) for e in G1.edge_ids for x2 in G2.vertices]
    eitems += [("e2", x1, e) for x1 in G1.vertices for e in G2.edge_ids]
    eid = _pair_ids(eitems)
    edges = []
    for item, k in eid.items():
        if item[0] == "e1":
            _, e, x2 = item
            edges.append((k, vid[(G1.tail(e), x2)], vid[(G1.head(e), x2)]))
        else:
            _, x1, e = item
            edges.append((k, vid[(x1, G2.tail(e))], vid[(x1, G2.head(e))]))
    interior = {
        vid[(x1, x2)] for x1 in G1.interior for x2 in G2.interior
    }
    boundary = {v for v in vid.values() if v not in interior}
    G = PartialGraph(vid.values(), boundary, edges)

    def projection(which):
        vmap = {k: (x1 if which == 1 else x2) for (x1, x2), k in vid.items()}
        emap = {}
        for item, k in eid.items():
            if item[0] == "e1":
                _, e, x2 = item
                emap[k] = (EDGE, e, 1) if which == 1 else (COLLAPSED, x2)
            else:
                _, x1, e = item
                emap[k] = (COLLAPSED, x1) if which == 1 else (EDGE, e, 1)
        return DGraphMorphism(G, G1 if which == 1 else G2, vmap, emap)

    return G, projection(1), projection(2)


def disjoint_union(G1, G2):
    """Disjoint union; returns (G, vmap1, vmap2, emap1, emap2)."""
    voff = max(G1.vertices, default=-1) + 1
    eoff = max(G1.edge_ids, default=-1) + 1
    vmap1 = {v: v for v in G1.vertices}
    vmap2 = {v: v + voff for v in G2.vertices}
    emap1 = {e: e for e in G1.edge_ids}
    emap2 = {e: e + eoff for e in G2.edge_ids}
    edges = [(e, t, h) for e, t, h in G1.edges]
    edges += [(emap2[e], vmap2[t], vmap2[h]) for e, t, h in G2.edges]
    vertices = list(vmap1.values()) + list(vmap2.values())
    boundary = {vmap1[v] for v in G1.boundary} | {vmap2[v] for v in G2.boundary}
    return PartialGraph(vertices, boundary, edges), vmap1, vmap2, emap1, emap2


def wedge_sum(G1, x1, G2, x2):
    """Glue boundary vertex x1 of G1 to boundary vertex x2 of G2.

    Returns (G, vmap1, vmap2, emap1, emap2)."""
    if x1 not in G1.boundary or x2 not in G2.boundary:
        raise ValueError("wedge sum must glue boundary vertices")
    G, vmap1, vmap2, emap1, emap2 = disjoint_union(G1, G2)
    glued = vmap1[x1]
    drop = vmap2[x2]
    vmap2 = {v: (glued if w == drop else w) for v, w in vmap2.items()}
    edges = [
        (e, glued if t == drop else t, glued if h == drop else h)
        for e, t, h in G.edges
    ]
    vertices = [v for v in G.vertices if v != drop]
    boundary = {v for v in G.boundary if v != drop}
    return PartialGraph(vertices, boundary, edges), vmap1, vmap2, emap1, emap2


@dataclass(frozen=True)
class SubGraph:
    """A sub-∂-graph of a parent, given by id subsets plus the set of
    vertices that remain interior."""

    vertices: frozenset
    edges: frozenset
    interior: frozenset

    def __init__(self, vertices, edges, interior):
        object.__setattr__(self, "vertices", frozenset(vertices))
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "interior", frozenset(interior))

    def realize(self, parent):
        return parent.induced(
            self.vertices, self.edges, self.vertices - self.interior
        )


def validate_subgraph(parent, sub):
    """A sub-∂-graph must keep the full edge star of every vertex it
    declares interior."""
    ed = parent.edge_dict
    if not sub.vertices <= set(parent.vertices):
        raise ValueError("unknown vertex ids")
    if not sub.edges <= set(parent.edge_ids):
        raise ValueError("unknown edge ids")
    if not sub.interior <= sub.vertices:
        raise ValueError("interior not a subset of vertices")
    for e in sub.edges:
        t, h = ed[e]
        if t not in sub.vertices or h not in sub.vertices:
            raise ValueError(f"edge {e} dangles")
    for x in sub.interior:
        if x in parent.boundary:
            raise ValueError(f"{x} is boundary in the parent")
        for oe in parent.star(x):
            if oe[0] not in sub.edges:
                raise ValueError(f"interior vertex {x} is missing edge {oe[0]}")
    return True


def pullback_subgraph(f, sub):
    """Preimage of a sub-∂-graph of the target, as a sub-∂-graph of the
    source.  A source vertex is interior iff it is interior in the
    source and maps to an interior vertex of the sub-∂-graph."""
    validate_subgraph(f.target, sub)
    G = f.source
    vertices = {x for x in G.vertices if f.vmap[x] in sub.vertices}
    edges = set()
    for e, img in f.emap.items():
        if img[0] == COLLAPSED:
            if img[1] in sub.vertices:
                edges.add(e)
        elif img[1] in sub.edges:
            edges.add(e)
    interior = {
        x for x in vertices if x not in G.boundary and f.vmap[x] in sub.interior
    }
    return SubGraph(vertices, edges, interior)


def full_subgraph(G):
    return SubGraph(G.vertices, G.edge_ids, G.interior)


def bipartite_double_cover(G):
    """The standard two-sheeted cover, with its covering morphism."""
    vid = _pair_ids([(x, s) for x in G.vertices for s in (0, 1)])
    eid = _pair_ids([(e, s) for e in G.edge_ids for s in (0, 1)])
    edges = []
    for (e, s), k in eid.items():
        t, h = G.edge_dict[e]
        edges.append((k, vid[(t, s)], vid[(h, 1 - s)]))
    boundary = {vid[(x, s)] for x in G.boundary for s in (0, 1)}
    cover = PartialGraph(vid.values(), boundary, edges)
    vmap = {k: x for (x, s), k in vid.items()}
    emap = {k: (EDGE, e, 1) for (e, s), k in eid.items()}
    return cover, DGraphMorphism(cover, G, vmap, emap)
