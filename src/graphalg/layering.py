"""Layer-stripping: the three boundary reduction moves, layerability,
flowers, standard-form filtrations, complete reducibility, and the
degenerate-weight constructions witnessing non-layerability.

The three moves are: delete an isolated boundary vertex; contract a
boundary spike (an edge whose boundary endpoint has no other edge and
whose other endpoint is interior); delete a boundary edge (both
endpoints boundary).  A graph with no applicable move is a flower; the
flower reached by greedy stripping is independent of the order of the
moves, and a graph is layerable (strippable to nothing) iff its flower
is empty.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact_algebra import _is_unit
from .network import Network, VertexFunction, in_U0
from .partial_graph import PartialGraph

ISOLATED = "isolated"
SPIKE = "spike"
EDGE_DEL = "edge"
_KIND_RANK = {ISOLATED: 0, SPIKE: 1, EDGE_DEL: 2}


@dataclass(frozen=True)
class LayerOp:
    kind: str
    vertex: int = -1  # isolated: the vertex; spike: boundary endpoint
    edge: int = -1  # spike / boundary edge
    interior_vertex: int = -1  # spike: the endpoint that becomes boundary

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.vertex, self.edge)


def find_strippable(G):
    """All applicable layer-stripping moves, deterministically ordered."""
    ops = []
    for v in sorted(G.boundary):
        if G.degree(v) == 0:
            ops.append(LayerOp(ISOLATED, vertex=v))
    for e, t, h in G.edges:
        t_bd, h_bd = t in G.boundary, h in G.boundary
        if t_bd and h_bd:
            ops.append(LayerOp(EDGE_DEL, edge=e))
        elif t_bd and G.degree(t) == 1:
            ops.append(LayerOp(SPIKE, vertex=t, edge=e, interior_vertex=h))
        elif h_bd and G.degree(h) == 1:
            ops.append(LayerOp(SPIKE, vertex=h, edge=e, interior_vertex=t))
    return sorted(ops, key=LayerOp.sort_key)


def is_flower(G):
    return not find_strippable(G)


def apply_op(G, op):
    """Apply a layer-stripping move to a graph."""
    if op not in find_strippable(G):
        raise ValueError(f"operation {op} is not applicable")
    return _apply(G, op)


def _apply(G, op):
    if op.kind == ISOLATED:
        return G.delete_vertex(op.vertex)
    if op.kind == EDGE_DEL:
        return G.delete_edge(op.edge)
    # spike: delete the boundary endpoint and its one edge; the
    # interior endpoint becomes boundary
    return PartialGraph(
        [v for v in G.vertices if v != op.vertex],
        G.boundary - {op.vertex} | {op.interior_vertex},
        [(e, t, h) for e, t, h in G.edges if e != op.edge],
    )


def apply_op_network(N, op):
    """Apply a layer-stripping move to a network (weights and offsets
    restricted).  Spike contraction requires a unit weight."""
    if op.kind == SPIKE and not _is_unit(N.weight(op.edge)):
        raise ValueError("spike weight must be a unit (over Z: +1 or -1)")
    G2 = apply_op(N.graph, op)
    return Network(
        G2,
        {e: N.weight(e) for e in G2.edge_ids},
        {v: N.offset(v) for v in G2.vertices},
    )


def _strip(G, isolated):
    """Greedy stripping over degree counters.  Returns (remnant, ops in
    the order applied).  Each step takes the move that
    ``find_strippable(...)[0]`` would, skipping isolated-vertex moves
    unless ``isolated``.

    Candidate moves sit in a heap and are checked when popped.  A move
    that stops being applicable never becomes applicable again (degrees
    only fall, the boundary only grows), so stale entries are dropped.
    """
    ends = G.edge_dict
    edges = set(ends)
    vertices = set(G.vertices)
    boundary = set(G.boundary)
    incident = {}  # vertex -> ids of its edges
    degree = {}  # vertex -> len(star), loops counted twice
    for e, t, h in G.edges:
        for x in (t, h):
            incident.setdefault(x, set()).add(e)
            degree[x] = degree.get(x, 0) + 1
    heap = []

    def push(op):
        heapq.heappush(heap, (op.sort_key(), op))

    def other(e, x):
        t, h = ends[e]
        return h if t == x else t

    def offer(x):
        """Push the vertex move, if any, at boundary vertex x."""
        if degree.get(x, 0) == 0:
            if isolated:
                push(LayerOp(ISOLATED, vertex=x))
        elif degree[x] == 1:
            (e,) = incident[x]
            y = other(e, x)
            if y not in boundary:
                push(LayerOp(SPIKE, vertex=x, edge=e, interior_vertex=y))

    def drop_edge(e):
        edges.discard(e)
        for x in ends[e]:
            degree[x] -= 1
            incident[x].discard(e)

    for v in sorted(boundary):
        offer(v)
    for e, t, h in G.edges:
        if t in boundary and h in boundary:
            push(LayerOp(EDGE_DEL, edge=e))

    ops = []
    while heap:
        op = heapq.heappop(heap)[1]
        if op.kind == ISOLATED:
            if op.vertex not in boundary or degree.get(op.vertex, 0):
                continue
            vertices.discard(op.vertex)
            boundary.discard(op.vertex)
        elif op.kind == EDGE_DEL:
            if op.edge not in edges:
                continue
            drop_edge(op.edge)
            for x in set(ends[op.edge]):
                offer(x)
        else:
            v, u = op.vertex, op.interior_vertex
            if op.edge not in edges or degree[v] != 1 or u in boundary:
                continue
            drop_edge(op.edge)
            vertices.discard(v)
            boundary.discard(v)
            boundary.add(u)
            for e in incident[u]:
                if other(e, u) in boundary:
                    push(LayerOp(EDGE_DEL, edge=e))
            offer(u)
        ops.append(op)
    if not ops:
        return G, ops
    remnant = PartialGraph(
        vertices, boundary, [(e, t, h) for e, t, h in G.edges if e in edges]
    )
    return remnant, ops


def reduce_to_flower(G):
    """Greedy stripping to the unique flower.  Returns (flower, ops)
    where ops lists the moves in the order they were applied."""
    return _strip(G, True)


def is_layerable(G):
    flower, _ = reduce_to_flower(G)
    return flower.is_empty()


def interiorize(G, S):
    """Change the vertices in S from interior to boundary."""
    S = set(S)
    if not S <= set(G.interior):
        raise ValueError("S must be a set of interior vertices")
    return G.with_boundary(G.boundary | S)


def strip_layerable(G, message="graph is not layerable"):
    """Strip only spikes and boundary edges (never isolated vertices),
    preserving the boundary count, from a graph that must strip down to
    isolated boundary vertices; raises ValueError(message) otherwise.
    Returns (remnant, ops in the order they were applied)."""
    remnant, ops = _strip(G, False)
    if remnant.edges or set(remnant.vertices) - remnant.boundary:
        raise ValueError(message)
    return remnant, ops


@dataclass(frozen=True)
class Filtration:
    """A standard-form layerable filtration of ``graph``, recorded from
    the smallest stage upward: ``ops[j]`` is the strip move undone by
    the extension ``stages[j] -> stages[j+1]``; ``labellings[j]`` lists
    the boundary of ``stages[j]`` in consistent label order."""

    graph: PartialGraph
    ops: tuple

    @cached_property
    def stages(self):
        """The stage graphs, built on first use: ``stages[0]`` is the
        isolated-boundary-vertex stage, ``stages[-1]`` the full graph."""
        stages = [self.graph]
        for op in reversed(self.ops):
            stages.append(_apply(stages[-1], op))
        return tuple(reversed(stages))

    @cached_property
    def labellings(self):
        """The labellings, built on first use: the vertices no spike
        adjoins, sorted; a spike extension puts its new boundary vertex
        at the index of the vertex it is attached to."""
        added = {op.vertex for op in self.ops if op.kind == SPIKE}
        label = sorted(set(self.graph.vertices) - added)
        slot = {v: i for i, v in enumerate(label)}
        labellings = [tuple(label)]
        for op in self.ops:
            if op.kind == SPIKE:
                slot[op.vertex] = i = slot.pop(op.interior_vertex)
                label[i] = op.vertex
            labellings.append(tuple(label))
        return tuple(labellings)


def standard_form_filtration(G):
    """Standard-form filtration of a layerable graph; raises ValueError
    if G is not layerable."""
    _, strip_ops = strip_layerable(G)
    return Filtration(G, tuple(reversed(strip_ops)))


# -- complete reducibility ---------------------------------------------


@dataclass(frozen=True)
class TraceNode:
    """One node of a reduction trace: the graph, the move taken, and the
    resulting child nodes.  A strip node's move is the tuple of
    LayerOps that strips its graph to the flower, its only child; a
    split node's move is ``"split_disjoint"`` (one child per component)
    or ``("split_wedge", x)`` (the two wedge summands at x).  Leaves
    carry no move; a leaf is either the empty graph or an irreducible
    graph."""

    graph: PartialGraph
    move: object
    children: tuple


@dataclass(frozen=True)
class ReductionTrace:
    root: TraceNode

    def leaves(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.children:
                out.append(node.graph)
            stack.extend(reversed(node.children))
        return out

    def irreducible_witnesses(self):
        return [g for g in self.leaves() if not g.is_empty()]


def find_wedge_split(G):
    """The smallest boundary vertex whose removal disconnects the graph,
    together with the two induced wedge summands, or None.  The first
    summand is the component of G - x holding its smallest vertex, with
    x glued back on."""
    if not G.is_connected() or len(G.vertices) < 3:
        return None
    cuts = G.cut_vertices() & G.boundary
    if not cuts:
        return None
    x = min(cuts)
    first = G.delete_vertex(x).connected_components()[0]
    side1 = set(first) | {x}
    side2 = set(G.vertices) - first
    e1 = [e for e, t, h in G.edges if t in side1 and h in side1]
    e2 = [e for e, t, h in G.edges if not (t in side1 and h in side1)]
    G1 = G.induced(side1, e1, G.boundary & side1)
    G2 = G.induced(side2, e2, G.boundary & side2)
    return x, G1, G2


def is_irreducible(G):
    """Nonempty, and a leaf of the reduction: no strippable move,
    connected, and not a boundary wedge-sum."""
    return not G.is_empty() and _reduction_step(G)[0] is None


def _reduction_step(H):
    """The move taken at H and the graphs it leads to, or (None, ())
    at a leaf."""
    if H.is_empty():
        return None, ()
    flower, ops = reduce_to_flower(H)
    if ops:
        return tuple(ops), (flower,)
    comps = H.connected_components()
    if len(comps) > 1:
        pieces = []
        for comp in sorted(comps, key=min):
            edges = [e for e, t, h in H.edges if t in comp]
            pieces.append(H.induced(comp, edges, H.boundary & comp))
        return "split_disjoint", tuple(pieces)
    split = find_wedge_split(H)
    if split is not None:
        x, G1, G2 = split
        return ("split_wedge", x), (G1, G2)
    return None, ()  # irreducible leaf


def is_completely_reducible(G):
    """Decide complete reducibility; returns (verdict, ReductionTrace).
    Greedy: strip to the flower, then split disjoint unions, then split
    boundary wedge-sums; a stuck nonempty graph is irreducible.  The
    trace is built with an explicit stack, not by recursion."""
    # ``work`` holds graphs still to expand and, below their children,
    # (graph, move, child count) entries that assemble a node from the
    # last finished nodes once its children are done.
    work = [G]
    done = []
    while work:
        item = work.pop()
        if isinstance(item, tuple):
            H, move, k = item
            children = tuple(done[len(done) - k:])
            del done[len(done) - k:]
            done.append(TraceNode(H, move, children))
            continue
        move, pieces = _reduction_step(item)
        work.append((item, move, len(pieces)))
        work.extend(reversed(pieces))
    trace = ReductionTrace(done[0])
    return (not trace.irreducible_witnesses(), trace)


# -- degenerate weight constructions -----------------------------------


def degenerate_weights_general(G):
    """Degenerate rational network (with offsets) on a nonempty flower,
    plus a verified nonzero witness in U0(G, L, Q).

    Weights at each boundary vertex sum to zero (possible because a
    flower has at least two edges at every non-isolated boundary vertex,
    with disjoint stars); offsets cancel the boundary contribution at
    each interior vertex; the witness is 0 on the boundary and 1 on the
    interior.
    """
    if G.is_empty() or not is_flower(G):
        raise ValueError("input must be a nonempty flower")
    w = {e: Fraction(1) for e in G.edge_ids}
    for x in sorted(G.boundary):
        star = G.star(x)
        # all edges at a boundary vertex of a flower lead to interior
        # vertices, so the stars of distinct boundary vertices are disjoint
        k = len(star)
        for oe in star[: k - 1]:
            w[oe[0]] = Fraction(1)
        w[star[-1][0]] = Fraction(-(k - 1))
    d = {}
    for x in G.interior:
        total = Fraction(0)
        for oe in G.star(x):
            if G.o_head(oe) in G.boundary:
                total += w[oe[0]]
        d[x] = -total
    N = Network(G, w, d)
    u = VertexFunction(
        {v: Fraction(0) if v in G.boundary else Fraction(1) for v in G.vertices}
    )
    if not in_U0(N, u):
        raise AssertionError("degenerate witness failed verification")
    return N, u


def _fundamental_cycles(G, cycle_edges):
    """Oriented cycles (lists of oriented edges) covering every edge of
    ``cycle_edges``: fundamental cycles of a spanning forest."""
    parent = G.spanning_forest()
    tree_edges = {oe[0] for oe in parent.values()}

    def path_to_root(v):
        out = []
        while v in parent:
            out.append(parent[v])
            v = G.o_tail(parent[v])
        return out  # oriented edges pointing away from the root

    cycles = []
    covered = set()
    for e in sorted(cycle_edges):
        if e in tree_edges:
            continue
        t, h = G.edge_dict[e]
        pt, ph = path_to_root(t), path_to_root(h)
        # strip the common root-side part
        while pt and ph and pt[-1] == ph[-1]:
            pt.pop()
            ph.pop()
        # closed walk: t -> h by the chord, h -> junction up the tree
        # (parent edges reversed), junction -> t down the tree
        cycle = [(e, 1)] + [(eid, -s) for (eid, s) in ph] + list(reversed(pt))
        cycles.append(cycle)
        covered |= {eid for eid, _ in cycle}
    # tree edges on cycles are covered automatically because every
    # non-bridge tree edge lies in some fundamental cycle
    missing = set(cycle_edges) - covered
    if missing:
        raise AssertionError(f"cycle cover missed edges {missing}")
    return cycles


def degenerate_weights_normalized(G):
    """Degenerate normalized (d = 0) rational network on an irreducible
    graph, plus a verified witness in U0(G, L, Q) that is nonzero at
    every interior vertex."""
    if not is_irreducible(G):
        raise ValueError("input must be irreducible")
    bridges = G.bridges()
    S = set(G.edge_ids) - bridges
    # potential u: components of G minus the cycle edges
    comps = G.induced(G.vertices, bridges, G.boundary).connected_components()
    u = {}
    counter = 1
    for comp in sorted(comps, key=min):
        if comp & G.boundary:
            val = Fraction(0)
        else:
            val = Fraction(counter)
            counter += 1
        for v in comp:
            u[v] = val

    def du(oe):
        return u[G.o_tail(oe)] - u[G.o_head(oe)]

    # each cycle's weighting x(e) = 1/du(e) sends one unit of current
    # around it, so Lu stays 0; add it times the least a >= 1 that leaves
    # none of its edges at weight zero (each edge rules out at most one a)
    w = {e: Fraction(0 if e in S else 1) for e in G.edge_ids}
    for cycle in _fundamental_cycles(G, S):
        x = {}
        for oe in cycle:
            val = du(oe)
            if val == 0:
                raise AssertionError("cycle edge with zero potential drop")
            x[oe[0]] = 1 / val
        a = min(set(range(1, len(x) + 2)) - {-w[e] / x[e] for e in x})
        for e in x:
            w[e] += a * x[e]
    N = Network(G, w)
    uf = VertexFunction(u)
    if not in_U0(N, uf):
        raise AssertionError("degenerate witness failed verification")
    for v in G.interior:
        if u[v] == 0:
            raise AssertionError("witness vanishes at an interior vertex")
    return N, uf
