"""Networks: graphs with boundary carrying a generalized Laplacian.

A :class:`Network` is a partial graph together with symmetric edge
weights w and diagonal offsets d over an exact ring (Z or Q).  The
Laplacian acts on vertex functions by

    (Lu)(x) = d(x) u(x) + sum over oriented edges e with tail x of
              w(e) (u(x) - u(head of e)).

Harmonic-function modules are computed with coefficients in Z/n or the
torsion module Q/Z, read off the Smith diagonal of the interior block,
which is built once as sparse int rows (:func:`interior_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .exact_algebra import (
    DivisibleKernelError,
    ExactMatrix,
    Mod,
    _bareiss,
    _integer_rows,
    _smith_rows,
    kernel_mod_n_from_snf,
    kernel_QmodZ_from_snf,
)
from .partial_graph import COLLAPSED, EDGE, PartialGraph, validate_morphism


@dataclass(frozen=True)
class Network:
    graph: PartialGraph
    weights: tuple  # (eid, scalar) pairs
    offsets: tuple  # (vertex, scalar) pairs

    def __init__(self, graph, weights, offsets=None):
        for e, t, h in graph.edges:
            if t == h:
                raise ValueError(f"loops are not allowed in networks (edge {e})")
        wmap = dict(weights)
        if set(wmap) != set(graph.edge_ids):
            raise ValueError("weight function must cover every edge exactly")
        for e, w in wmap.items():
            if not isinstance(w, (int, Fraction)) or isinstance(w, bool):
                raise TypeError(f"weight of edge {e} is not an exact scalar")
        dmap = dict(offsets or {})
        known = set(graph.vertices)
        for v in dmap:
            if v not in known:
                raise ValueError(f"offset on unknown vertex {v}")
        dmap = {v: dmap.get(v, 0) for v in graph.vertices}
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "weights", tuple(sorted(wmap.items())))
        object.__setattr__(self, "offsets", tuple(sorted(dmap.items())))

    @cached_property
    def _weight(self):
        return dict(self.weights)

    @cached_property
    def _offset(self):
        return dict(self.offsets)

    @property
    def wmap(self):
        """Read-only map eid -> weight."""
        return MappingProxyType(self._weight)

    @property
    def dmap(self):
        """Read-only map vertex -> offset."""
        return MappingProxyType(self._offset)

    def weight(self, eid):
        return self._weight[eid]

    def offset(self, v):
        return self._offset[v]

    def is_normalized(self):
        return all(d == 0 for _, d in self.offsets)

    def is_unit_weight(self):
        """True iff every weight is a unit of its ring: nonzero over Q,
        +1 or -1 over Z."""
        for _, w in self.weights:
            if isinstance(w, Fraction) and w.denominator != 1:
                if w == 0:
                    return False
            elif w not in (1, -1):
                return False
        return True

    def is_integral(self):
        return all(
            (isinstance(w, int) or w.denominator == 1) for _, w in self.weights
        ) and all(
            (isinstance(d, int) or d.denominator == 1) for _, d in self.offsets
        )

    @staticmethod
    def standard(graph):
        """Unit weights, zero offsets: the standard Laplacian."""
        return Network(graph, {e: 1 for e in graph.edge_ids})


@dataclass(frozen=True)
class VertexFunction:
    """A total function on the vertices, valued in Z, Q, or Z/n."""

    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(sorted(dict(values).items())))

    @property
    def vmap(self):
        return dict(self.values)

    def __call__(self, v):
        return self.vmap[v]

    def restricted_to_zero(self, vertex_set):
        return all(_is_zero(self.vmap[v]) for v in vertex_set)


def _is_zero(x):
    if isinstance(x, Mod):
        return x.value == 0
    return x == 0


def laplacian_matrix(N, row_vertices=None, col_vertices=None):
    """Submatrix of the Laplacian with the given rows and columns
    (defaults: all vertices, in stable sorted order)."""
    G = N.graph
    rows = list(G.vertices) if row_vertices is None else list(row_vertices)
    cols = list(G.vertices) if col_vertices is None else list(col_vertices)
    known = set(G.vertices)
    for v in rows + cols:
        if v not in known:
            raise ValueError(f"unknown vertex id {v}")
    wmap = N.wmap
    dmap = N.dmap
    entry = {}
    for v in known:
        entry[(v, v)] = dmap[v]
    for e, t, h in G.edges:
        w = wmap[e]
        entry[(t, t)] += w
        entry[(h, h)] += w
        entry[(t, h)] = entry.get((t, h), 0) - w
        entry[(h, t)] = entry.get((h, t), 0) - w
    return ExactMatrix(
        [[entry.get((r, c), 0) for c in cols] for r in rows]
    )


def interior_block(N):
    """The V-rows x V°-columns block presenting L: R V° -> R V."""
    return laplacian_matrix(N, N.graph.vertices, N.graph.interior)


def integer_interior_block(N):
    """``interior_block(N)`` with int entries; raises ValueError when a
    weight or offset is not an integer."""
    if not N.is_integral():
        raise ValueError("integer weights required")
    return interior_block(N).to_integer()


def interior_rows(N):
    """The rows of ``integer_interior_block(N)`` as sparse int dicts
    ``{column: entry}``, one per vertex in ``N.graph.vertices`` order,
    columns numbered in ``N.graph.interior`` order and zeros left out;
    built from the edge list with no dense matrix.  Raises the same
    ValueError for a weight or offset that is not an integer."""
    if not N.is_integral():
        raise ValueError("integer weights required")
    G = N.graph
    column = {v: j for j, v in enumerate(G.interior)}
    rows = {v: {} for v in G.vertices}
    for v, j in column.items():
        rows[v][j] = int(N.offset(v))
    for e, t, h in G.edges:
        w = int(N.weight(e))
        for x, y in ((t, h), (h, t)):
            if x in column:
                j = column[x]
                rows[x][j] += w
                rows[y][j] = rows[y].get(j, 0) - w
    return [{j: x for j, x in r.items() if x} for r in rows.values()]


def interior_smith(N):
    """``smith_diagonal(integer_interior_block(N))``, run on
    :func:`interior_rows`."""
    return _smith_rows(interior_rows(N), len(N.graph.interior))


def apply_L(N, u):
    """Lu as a VertexFunction; u may be valued in Z, Q, or Z/n."""
    G = N.graph
    uv = u.vmap if isinstance(u, VertexFunction) else dict(u)
    if set(uv) != set(G.vertices):
        raise ValueError("vertex function must be total")
    wmap = N.wmap
    out = {}
    for x in G.vertices:
        acc = N.dmap[x] * uv[x]
        for oe in G.star(x):
            w = wmap[oe[0]]
            acc = acc + w * uv[x] - w * uv[G.o_head(oe)]
        out[x] = acc
    return VertexFunction(out)


def is_harmonic(N, u):
    """Lu vanishes at every interior vertex."""
    Lu = apply_L(N, u)
    return all(_is_zero(Lu(x)) for x in N.graph.interior)


def in_U0(N, u):
    """u vanishes on the boundary and Lu vanishes everywhere."""
    uv = u.vmap if isinstance(u, VertexFunction) else dict(u)
    if not all(_is_zero(uv[v]) for v in N.graph.boundary):
        return False
    Lu = apply_L(N, u)
    return all(_is_zero(Lu(x)) for x in N.graph.vertices)


def is_nondegenerate(N):
    """True iff L restricted to interior-vertex chains is injective
    (i.e. U0 with ring coefficients vanishes)."""
    G = N.graph
    index = {v: i for i, v in enumerate(G.vertices)}
    wmap = N.wmap
    # the interior block as int columns, column c scaled by the lcm of
    # the denominators of d(c) and the weights at c: the rank of the
    # block is the rank of these columns
    cols = []
    for c in G.interior:
        star = G.star(c)
        (scaled,), _ = _integer_rows(
            [[N.offset(c)] + [wmap[oe[0]] for oe in star]]
        )
        col = [0] * len(index)
        col[index[c]] = sum(scaled)
        for oe, w in zip(star, scaled[1:]):
            col[index[G.o_head(oe)]] -= w
        cols.append(col)
    return _bareiss(cols)[0] == len(cols)


def U0_mod_n(N, n):
    """Decomposition of U0(G, L, Z/n)."""
    diagonal, _ = interior_smith(N)
    return kernel_mod_n_from_snf(diagonal, len(N.graph.interior), n)


def U0_QmodZ(N):
    """Decomposition of the finite group U0(G, L, Q/Z); requires a
    non-degenerate network."""
    try:
        return kernel_QmodZ_from_snf(*interior_smith(N), len(N.graph.interior))
    except DivisibleKernelError:
        raise ValueError(
            "degenerate network: U0 over Q/Z is not finite"
        ) from None


def u0_brute_force_mod_n(N, n):
    """All of U0(G, L, Z/n) by enumeration (tests only; exponential)."""
    G = N.graph
    interior = list(G.interior)
    out = []
    total = n ** len(interior)
    for idx in range(total):
        vals = {}
        k = idx
        for v in interior:
            vals[v] = Mod(k % n, n)
            k //= n
        for v in G.boundary:
            vals[v] = Mod(0, n)
        u = VertexFunction(vals)
        if in_U0(N, u):
            out.append(u)
    return out


def validate_network_morphism(f, N1, N2):
    """Check that f is a morphism of networks: weights agree on
    non-collapsed edges and d1(x) = deg(f,x) d2(f(x)) at interior x."""
    if f.source != N1.graph or f.target != N2.graph:
        raise ValueError("morphism endpoints do not match the networks")
    degrees = validate_morphism(f)
    w1, w2 = N1.wmap, N2.wmap
    for e, img in f.emap.items():
        if img[0] == EDGE:
            if w1[e] != w2[img[1]]:
                raise ValueError(
                    f"weight mismatch on edge {e}: {w1[e]} vs {w2[img[1]]}"
                )
    d1, d2 = N1.dmap, N2.dmap
    for x in N1.graph.interior:
        if d1[x] != degrees[x] * d2[f.vmap[x]]:
            raise ValueError(f"offset condition fails at interior vertex {x}")
    return degrees


def pullback_harmonic(f, N1, N2, u):
    """Pull a harmonic function on the target back along f; the result
    u o f is harmonic on the source."""
    validate_network_morphism(f, N1, N2)
    if not is_harmonic(N2, u):
        raise ValueError("input function is not harmonic")
    uv = u.vmap if isinstance(u, VertexFunction) else dict(u)
    pulled = VertexFunction({x: uv[f.vmap[x]] for x in N1.graph.vertices})
    if not is_harmonic(N1, pulled):
        raise AssertionError("pullback failed to be harmonic")
    return pulled


def pushforward_U0(f, N1, N2, u):
    """Push a U0 element on the source down along f:
    (f_* u)(y) = sum over x in the fiber of deg(f,x) u(x)."""
    degrees = validate_network_morphism(f, N1, N2)
    if not in_U0(N1, u):
        raise ValueError("input function is not in U0")
    uv = u.vmap if isinstance(u, VertexFunction) else dict(u)
    out = {}
    for y in N2.graph.vertices:
        acc = None
        for x in f.vertex_fiber(y):
            term = degrees[x] * uv[x]
            acc = term if acc is None else acc + term
        out[y] = acc if acc is not None else 0
    pushed = VertexFunction(out)
    if not in_U0(N2, pushed):
        raise AssertionError("pushforward failed to land in U0")
    return pushed
