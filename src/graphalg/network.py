"""Networks: graphs with boundary carrying a generalized Laplacian.

A :class:`Network` is a partial graph together with symmetric edge
weights w and diagonal offsets d over an exact ring (Z or Q).  The
Laplacian acts on vertex functions by

    (Lu)(x) = d(x) u(x) + sum over oriented edges e with tail x of
              w(e) (u(x) - u(head of e)).

Each network builds L once, from its edge list, as the sparse int rows
of s L, s the lcm of the denominators of the weights and offsets (1 on
an integral network).  Every reader of L, from the dense views to the
interior block whose Smith diagonal gives the modules over Z/n and
Q/Z, works from these rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from types import MappingProxyType

from .exact_algebra import (
    DivisibleKernelError,
    ExactMatrix,
    Mod,
    _EXACT_TYPES,
    _bareiss,
    _is_exact_scalar,
    _is_unit,
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
        edges = graph.edges
        wmap = dict(weights)
        if len(wmap) != len(edges):
            raise ValueError("weight function must cover every edge exactly")
        try:
            ws = [(e, wmap[e]) for e, t, h in edges if t != h]
        except KeyError:
            ws = None
        # the per-edge loop runs only to name the first offender, or to
        # accept a subclass of int or Fraction other than bool
        if ws is None or len(ws) < len(edges) or not _EXACT_TYPES.issuperset(
            map(type, wmap.values())
        ):
            ws = []
            for e, t, h in edges:
                if t == h:
                    raise ValueError(f"loops are not allowed in networks (edge {e})")
                if e not in wmap:
                    raise ValueError("weight function must cover every edge exactly")
                w = wmap[e]
                if not _is_exact_scalar(w):
                    raise TypeError(f"weight of edge {e} is not an exact scalar")
                ws.append((e, w))
        vs = graph.vertices
        dmap = dict(offsets or ())
        ds = list(map(dmap.pop, vs, repeat(0)))
        if dmap:
            raise ValueError(f"offset on unknown vertex {next(iter(dmap))}")
        if not _EXACT_TYPES.issuperset(map(type, ds)):
            for v, d in zip(vs, ds):
                if not _is_exact_scalar(d):
                    raise TypeError(f"offset of vertex {v} is not an exact scalar")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "offsets", tuple(zip(vs, ds)))

    @cached_property
    def _weight(self):
        return dict(self.weights)

    @cached_property
    def _offset(self):
        return dict(self.offsets)

    @cached_property
    def _laplacian(self):
        """``(rows, s)``: ``rows`` maps each vertex x, in vertex order,
        to the sparse ``{vertex: int}`` row x of s L with zeros left out,
        where s is the lcm of the denominators of every weight and
        offset (1 on an integral network).  Built once and shared, so a
        reader that changes rows copies them first."""
        s = lcm(*{a.denominator for _, a in self.weights + self.offsets})
        rows = {x: {x: a.numerator * (s // a.denominator)}
                for x, a in self.offsets}
        # the weights are in edge order
        for (_, t, h), (_, a) in zip(self.graph.edges, self.weights):
            a = a.numerator * (s // a.denominator)
            rt, rh = rows[t], rows[h]
            rt[t] += a
            rh[h] += a
            rt[h] = rt.get(h, 0) - a
            rh[t] = rh.get(t, 0) - a
        for x, row in rows.items():
            if 0 in row.values():
                rows[x] = {y: a for y, a in row.items() if a}
        return rows, s

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
        """True iff every weight is a unit of its ring (``_is_unit``)."""
        return all(_is_unit(w) for _, w in self.weights)

    def is_integral(self):
        return self._laplacian[1] == 1

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

    @cached_property
    def _vmap(self):
        return dict(self.values)

    @property
    def vmap(self):
        """Read-only map vertex -> value."""
        return MappingProxyType(self._vmap)

    def __call__(self, v):
        return self._vmap[v]


def _value_map(u):
    """The vertex -> value dict of a VertexFunction or a mapping; the
    caller reads it and never writes to it."""
    return u._vmap if isinstance(u, VertexFunction) else dict(u)


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
    known, s = N._laplacian
    for v in rows + cols:
        if v not in known:
            raise ValueError(f"unknown vertex id {v}")
    out = _dense_rows(N, rows, cols)
    if s != 1:
        out = [[Fraction(a, s) for a in r] for r in out]
    return ExactMatrix(out)


def interior_block(N):
    """The V-rows x V°-columns block presenting L: R V° -> R V."""
    return laplacian_matrix(N, N.graph.vertices, N.graph.interior)


def _dense_rows(N, row_vertices, col_vertices):
    """Fresh dense int rows of s L (``N._laplacian``) on the given
    columns."""
    L = N._laplacian[0]
    return [[L[x].get(y, 0) for y in col_vertices] for x in row_vertices]


def interior_rows(N):
    """The rows of ``interior_block(N)`` as fresh sparse int dicts
    ``{column: entry}``, one per vertex in ``N.graph.vertices`` order,
    columns numbered in ``N.graph.interior`` order and zeros left out.
    Raises ValueError when a weight or offset is not an integer."""
    if not N.is_integral():
        raise ValueError("integer weights required")
    return _scaled_interior_rows(N)


def _scaled_interior_rows(N):
    """:func:`interior_rows` of s L, s the lcm of the denominators of
    the weights and offsets (``N._laplacian``)."""
    column = {v: j for j, v in enumerate(N.graph.interior)}
    return [
        {column[y]: a for y, a in row.items() if y in column}
        for row in N._laplacian[0].values()
    ]


def interior_smith(N):
    """``smith_diagonal(interior_block(N))``, run on
    :func:`interior_rows`."""
    return _smith_rows(interior_rows(N), len(N.graph.interior))


def _total_value_map(N, u):
    uv = _value_map(u)
    if set(uv) != set(N.graph.vertices):
        raise ValueError("vertex function must be total")
    return uv


def _L_at(N, uv, x):
    """(Lu)(x) from row x of s L."""
    rows, s = N._laplacian
    # start from a zero of u's type, so that Z/n values stay in Z/n
    acc = 0 * uv[x]
    for y, a in rows[x].items():
        acc = acc + a * uv[y]
    return acc if s == 1 else acc * Fraction(1, s)


def apply_L(N, u):
    """Lu as a VertexFunction; u may be valued in Z, Q, or Z/n."""
    uv = _total_value_map(N, u)
    return VertexFunction({x: _L_at(N, uv, x) for x in N.graph.vertices})


def is_harmonic(N, u):
    """Lu vanishes at every interior vertex.  Values in Q are checked as
    the ints U = D u, D the lcm of their denominators, on the rows of
    s L (``N._laplacian``); values in Z/n, when s is a unit mod n, as
    residues; any other values through :func:`_L_at`."""
    uv = _total_value_map(N, u)
    rows, s = N._laplacian
    types = set(map(type, uv.values()))
    n = None
    if types <= {int}:
        U = uv
    elif types <= _EXACT_TYPES:
        D = lcm(*(x.denominator for x in uv.values()))
        U = {v: x.numerator * (D // x.denominator) for v, x in uv.items()}
    else:
        moduli = {x.modulus for x in uv.values()} if types == {Mod} else set()
        n = moduli.pop() if len(moduli) == 1 else None
        if n is None or gcd(s, n) != 1:
            return all(_is_zero(_L_at(N, uv, x)) for x in N.graph.interior)
        U = {v: x.value for v, x in uv.items()}
    for x in N.graph.interior:
        acc = 0
        for y, a in rows[x].items():
            acc += a * U[y]
        if acc % n if n else acc:
            return False
    return True


def in_U0(N, u):
    """u vanishes on the boundary and Lu vanishes everywhere."""
    uv = _value_map(u)
    if not all(_is_zero(uv[v]) for v in N.graph.boundary):
        return False
    Lu = apply_L(N, u)
    return all(_is_zero(Lu(x)) for x in N.graph.vertices)


def is_nondegenerate(N):
    """True iff L restricted to interior-vertex chains is injective
    (i.e. U0 with ring coefficients vanishes)."""
    G = N.graph
    # L is symmetric, so the rows of s L at the interior vertices are
    # s times the block's columns: they have the block's rank
    cols = _dense_rows(N, G.interior, G.vertices)
    return _bareiss(cols)[0] == len(cols)


def U0_mod_n(N, n):
    """Decomposition of U0(G, L, Z/n).  On a network with denominators,
    of lcm s, every weight and offset has a residue mod n exactly when
    s is a unit mod n, and then s L has the same kernel as L."""
    if n > 1 and gcd(N._laplacian[1], n) > 1:
        raise ValueError(f"some weight or offset has no residue mod {n}")
    cols = len(N.graph.interior)
    diagonal, _ = _smith_rows(_scaled_interior_rows(N), cols)
    return kernel_mod_n_from_snf(diagonal, cols, n)


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
    uv = _value_map(u)
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
    uv = _value_map(u)
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
