"""Deterministic generators for the concrete graph families under
study: complete graphs, boundary/interior complete bipartite graphs,
cycles, hypercube skeletons, embedded wheels, and the two chain-link
fence families with their cyclic symmetry.
"""

from __future__ import annotations

from .partial_graph import EDGE, DGraphMorphism, PartialGraph
from .planar import EmbeddedPartialGraph


def complete_graph(n, boundary=()):
    """K_n on vertices 0..n-1 with the given boundary set."""
    if n < 1:
        raise ValueError("n must be positive")
    edges = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            edges[k] = (i, j)
            k += 1
    return PartialGraph(range(n), boundary, edges)


def complete_bipartite_bi(m, n):
    """K_{m,n} with partite sets of m boundary vertices (ids 0..m-1)
    and n interior vertices (ids m..m+n-1)."""
    if m < 1 or n < 1:
        raise ValueError("both parts must be nonempty")
    edges = {}
    k = 0
    for i in range(m):
        for j in range(n):
            edges[k] = (i, m + j)
            k += 1
    return PartialGraph(range(m + n), range(m), edges)


def cycle(n, boundary=()):
    """The n-cycle C_n; edge k joins k and k+1 mod n."""
    if n < 2:
        raise ValueError("a cycle needs at least two vertices")
    edges = {k: (k, (k + 1) % n) for k in range(n)}
    return PartialGraph(range(n), boundary, edges)


def cube(n):
    """Q_n, the 1-skeleton of the n-dimensional cube: vertices are the
    n-bit strings (as ids), adjacent when they differ in one bit."""
    if n < 1:
        raise ValueError("n must be positive")
    edges = {}
    k = 0
    for x in range(2**n):
        for b in range(n):
            y = x ^ (1 << b)
            if x < y:
                edges[k] = (x, y)
                k += 1
    return PartialGraph(range(2**n), (), edges)


def wheel(n, hub_boundary=False):
    """The wheel W_n, embedded: rim vertices 0..n-1 in counterclockwise
    order, hub vertex n; rim edge k joins k and k+1 mod n, spoke n+k
    joins the hub to rim vertex k.  With ``hub_boundary`` the hub is the
    unique boundary vertex (the embedding used for dualizing);
    otherwise the graph has no boundary and is embedded in the
    sphere."""
    if n < 3:
        raise ValueError("n must be at least 3")
    hub = n
    edges = {}
    for k in range(n):
        edges[k] = (k, (k + 1) % n)
        edges[n + k] = (hub, k)
    boundary = {hub} if hub_boundary else set()
    G = PartialGraph(range(n + 1), boundary, edges)
    rotation = {hub: tuple((n + k, 1) for k in range(n))}
    for k in range(n):
        rotation[k] = (
            (k, 1),  # rim edge to k+1 (counterclockwise tangent side)
            (n + k, -1),  # spoke toward the hub
            ((k - 1) % n, -1),  # rim edge to k-1
        )
    order = (hub,) if hub_boundary else ()
    return EmbeddedPartialGraph(G, rotation, order)


# -- chain-link fence families -----------------------------------------


def _clf_vid(m, j, k):
    return k * m + (j % m)


def clf(m, n):
    """The chain-link fence graph on the cylinder: vertices (j, k) for
    j mod m and 0 <= k <= n, boundary row k = 0, with edges
    (j,k) ~ (j+1, n-k+1) for k >= 1 and (j,k) ~ (j+1, n-k) for k >= 0.
    Ids are row-major: (j, k) has id k*m + j."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    vertices = range(m * (n + 1))
    edges = {}
    eid = 0
    for j in range(m):
        for k in range(n + 1):
            if k >= 1:
                edges[eid] = (_clf_vid(m, j, k), _clf_vid(m, j + 1, n - k + 1))
                eid += 1
            edges[eid] = (_clf_vid(m, j, k), _clf_vid(m, j + 1, n - k))
            eid += 1
    boundary = {_clf_vid(m, j, 0) for j in range(m)}
    return PartialGraph(vertices, boundary, edges)


def _clf_prime_points(m, n):
    """The (x, y) vertices of clf_prime(m, n), listed in id order."""
    return [
        (x, y)
        for y in range(n + 2)
        for x in range(2 * m)
        if (x + y) % 2 == 0
    ]


def clf_prime(m, n):
    """The companion family on vertices (x, y) with x mod 2m,
    0 <= y <= n+1, and x + y even; boundary rows y = 0 and y = n+1;
    edges (x,y) ~ (x+1, y+1) and (x,y) ~ (x-1, y+1) whenever both rows
    exist.  Ids follow rows y, then x."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    pairs = _clf_prime_points(m, n)
    vid = {p: i for i, p in enumerate(pairs)}
    edges = {}
    eid = 0
    for x, y in pairs:
        if y + 1 <= n + 1:
            edges[eid] = (vid[(x, y)], vid[((x + 1) % (2 * m), y + 1)])
            eid += 1
            edges[eid] = (vid[(x, y)], vid[((x - 1) % (2 * m), y + 1)])
            eid += 1
    boundary = {vid[(x, y)] for x, y in pairs if y in (0, n + 1)}
    return PartialGraph(range(len(pairs)), boundary, edges)


def clf_prime_isomorphism(m, n):
    """The vertex bijection realizing clf(2m, n) == clf_prime(m, 2n):
    (j, k) goes to (j, 2k) for even j and to (j, 2(n-k)+1) for odd j.
    Returns {clf vertex id: clf_prime vertex id}."""
    target = {p: i for i, p in enumerate(_clf_prime_points(m, 2 * n))}
    out = {}
    for i in range(2 * m * (n + 1)):
        k, j = divmod(i, 2 * m)
        y = 2 * k if j % 2 == 0 else 2 * (n - k) + 1
        out[i] = target[(j, y)]
    return out


def rotation_action(m, n, sheets):
    """The covering morphism clf(sheets*m, n) -> clf(m, n) that quotients
    the translation action of Z/sheets (j shifted by multiples of m).

    Both graphs allocate 2n+1 edge ids per column j, in the same order,
    so the edge map shifts columns exactly like the vertex map."""
    if sheets < 1:
        raise ValueError("sheets must be positive")
    big = clf(sheets * m, n)
    small = clf(m, n)
    width = sheets * m
    vmap = {i: _clf_vid(m, i % width, i // width) for i in big.vertices}
    per_column = 2 * n + 1
    emap = {}
    for e in big.edge_ids:
        j, r = divmod(e, per_column)
        emap[e] = (EDGE, (j % m) * per_column + r, 1)
    return DGraphMorphism(big, small, vmap, emap)
