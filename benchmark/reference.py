"""Reference computations that the benchmark checks graphalg's answers
against.  Nothing here imports graphalg: determinants, ranks modulo p,
closed forms, the Laplacian and layer stripping are re-derived from the
definitions on plain Python data.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from fractions import Fraction
from math import comb, gcd


class Net:
    """A network as plain data: the benchmark writes it as a
    NetworkDocument and checks graphalg's answers against it."""

    def __init__(self, vertices, boundary, edges, weights=None,
                 offsets=None, rotation=None, boundary_order=None):
        self.vertices = sorted(vertices)
        self.boundary = set(boundary)
        self.edges = dict(edges)  # eid -> (tail, head)
        self.weights = dict(weights) if weights else {e: 1 for e in self.edges}
        self.offsets = dict(offsets or {})
        self.rotation = rotation  # vertex -> ((eid, sign), ...) or None
        self.boundary_order = boundary_order

    @property
    def interior(self):
        return [v for v in self.vertices if v not in self.boundary]

    def document(self):
        """The network as NetworkDocument text."""
        lines = []
        for v in self.vertices:
            kind = "boundary" if v in self.boundary else "interior"
            d = self.offsets.get(v, 0)
            lines.append(f"vertex {v} {kind}" + (f" d={_scalar(d)}" if d else ""))
        for e in sorted(self.edges):
            t, h = self.edges[e]
            lines.append(f"edge {e} {t} {h} w={_scalar(self.weights[e])}")
        if self.rotation is not None:
            for v in sorted(self.rotation):
                darts = " ".join(
                    ("+" if s > 0 else "-") + str(e) for e, s in self.rotation[v]
                )
                lines.append(f"rotation {v} {darts}".rstrip())
            order = " ".join(str(v) for v in self.boundary_order)
            lines.append(f"boundary-order {order}".rstrip())
        return "\n".join(lines) + "\n"

    def laplacian(self, rows=None, cols=None):
        """Rows x cols block of the Laplacian as lists of scalars."""
        rows = self.vertices if rows is None else rows
        cols = self.vertices if cols is None else cols
        entry = {(v, v): self.offsets.get(v, 0) for v in self.vertices}
        for e, (t, h) in self.edges.items():
            w = self.weights[e]
            entry[(t, t)] += w
            entry[(h, h)] += w
            entry[(t, h)] = entry.get((t, h), 0) - w
            entry[(h, t)] = entry.get((h, t), 0) - w
        return [[entry.get((r, c), 0) for c in cols] for r in rows]

    def interior_block(self):
        return self.laplacian(self.vertices, self.interior)

    def apply_laplacian(self, u, modulus=None):
        """(Lu)(x) for every vertex; over Z/modulus when given, where u
        holds residues as ints and rational weights are inverted mod n."""
        def scalar(x):
            if modulus is None:
                return x
            x = Fraction(x)
            return x.numerator * pow(x.denominator, -1, modulus) % modulus

        out = {v: scalar(self.offsets.get(v, 0)) * u[v] for v in self.vertices}
        for e, (t, h) in self.edges.items():
            w = scalar(self.weights[e])
            out[t] += w * (u[t] - u[h])
            out[h] += w * (u[h] - u[t])
        if modulus is not None:
            out = {v: x % modulus for v, x in out.items()}
        return out


def _scalar(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


# -- exact linear algebra ----------------------------------------------


def determinant(M):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if A[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[k][k] * A[i][j] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def rank_mod(M, p):
    """Rank of an integer (or p-integral rational) matrix over Z/p."""
    A = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
          for x in r] for r in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], -1, p)
        prow = [x * inv % p for x in A[rank]]
        A[rank] = prow
        for i in range(rows):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], prow)]
        rank += 1
    return rank


# Rank modulo a 61-bit prime equals the rank over Q unless the prime
# divides every nonzero maximal minor; a deficient answer is confirmed
# by exact elimination.
_BIG_PRIME = (1 << 61) - 1


def rank_q(M):
    """Exact rank over Q."""
    r = rank_mod(M, _BIG_PRIME)
    if r == min(len(M), len(M[0]) if M else 0):
        return r
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, len(A)):
            if A[i][c]:
                f = A[i][c] / A[rank][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


SMALL_PRIMES = (2, 3, 5, 7)

# Above this many minors, smith_by_minors is too slow for a check.
MINOR_LIMIT = 5000


def smith_by_minors(M):
    """Invariant factors (> 1) of an integer matrix from its
    determinantal divisors: d_k is the gcd of all k x k minors and the
    k-th diagonal entry of the Smith form is d_k / d_(k-1).  None when
    there are more than MINOR_LIMIT minors."""
    rows, cols = len(M), len(M[0]) if M else 0
    size = min(rows, cols)
    if sum(comb(rows, k) * comb(cols, k) for k in range(1, size + 1)) > MINOR_LIMIT:
        return None
    out, prev = [], 1
    for k in range(1, size + 1):
        d = 0
        for R in combinations(range(rows), k):
            sub = [M[i] for i in R]
            for C in combinations(range(cols), k):
                d = gcd(d, determinant([[row[j] for j in C] for row in sub]))
                if d == prev:  # d_k is a multiple of d_(k-1)
                    break
            if d == prev:
                break
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return [f for f in out if f > 1]


def chain(orders):
    """Invariant factors (all > 1, each dividing the next) of the
    direct sum of Z/o for the given orders, by gcd/lcm exchange."""
    a = [int(o) for o in orders if int(o) > 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] * a[j] // g
    return [x for x in a if x > 1]


def count_divisible(factors, p):
    return sum(1 for f in factors if f % p == 0)


# -- closed forms ------------------------------------------------------


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def crit_complete(n):
    """Crit(K_n) = (Z/n)^(n-2)."""
    return [n] * (n - 2)


def crit_wheel(n):
    """Crit(W_n): (Z/L_n)^2 for odd n, Z/F_n + Z/5F_n for even n, with
    L_n = F_(n-1) + F_(n+1) the Lucas numbers."""
    if n % 2:
        lucas = fibonacci(n - 1) + fibonacci(n + 1)
        return chain([lucas, lucas])
    return chain([fibonacci(n), 5 * fibonacci(n)])


def cube_factor_count(n):
    """Crit(Q_n) has 2^(n-1) - 1 invariant factors."""
    return 2 ** (n - 1) - 1


def cube_tree_count(n):
    """Spanning trees of Q_n: 2^(2^n - n - 1) * prod_k k^C(n, k)."""
    out = 2 ** (2**n - n - 1)
    for k in range(1, n + 1):
        out *= k ** comb(n, k)
    return out


def u0_clf(m, n):
    """U0(clf(m, n), Q/Z): (Z/2)^n for odd m, (Z/2)^(2n) for m = 2 mod
    4, and two copies of Z/gcd(4^j, 2m) for j = 1..n when 4 | m."""
    if m % 2:
        return chain([2] * n)
    if m % 4 == 2:
        return chain([2] * (2 * n))
    return chain([gcd(4**j, 2 * m) for j in range(1, n + 1)] * 2)


def u0_clf_prime(m, n):
    """U0(clf'(m, n), Q/Z): (Z/2)^n for odd m; for even m, Z/gcd(4^j, 4m)
    for j = 1..ceil(n/2) and again for j = 1..floor(n/2)."""
    if m % 2:
        return chain([2] * n)
    orders = [gcd(4**j, 4 * m) for j in range(1, (n + 1) // 2 + 1)]
    orders += [gcd(4**j, 4 * m) for j in range(1, n // 2 + 1)]
    return chain(orders)


def charpoly_complete(n):
    """det(zI - L(K_n)) = z (z - n)^(n-1), highest degree first."""
    coeffs = [comb(n - 1, k) * (-n) ** k for k in range(n)]
    return coeffs + [0]


def charpoly_cycle(n):
    """det(zI - L(C_n)) = (-1)^n (D_n(2 - z) - 2), where D_0 = 2,
    D_1 = x and D_(k+1) = x D_k - D_(k-1) (so D_n(2 cos t) = 2 cos nt);
    polynomials in z are coefficient lists, lowest degree first."""
    x = [2, -1]

    def sub(p, q):
        size = max(len(p), len(q))
        p, q = p + [0] * (size - len(p)), q + [0] * (size - len(q))
        return [a - b for a, b in zip(p, q)]

    def times_x(p):
        out = [0] * (len(p) + 1)
        for i, c in enumerate(p):
            out[i] += 2 * c
            out[i + 1] -= c
        return out

    prev, cur = [2], x
    for _ in range(n - 1):
        prev, cur = cur, sub(times_x(cur), prev)
    poly = sub(cur, [2])
    sign = -1 if n % 2 else 1
    return [sign * c for c in reversed(poly)]


def eigmult_complete(n, lam):
    return {0: 1, n: n - 1}.get(lam, 0)


def eigmult_cycle(n, lam):
    """Rational Laplacian eigenvalues of C_n are 2 - 2cos(2 pi k / n)
    with cos rational: 0 (once), 4 (once, n even), and 1, 2, 3 (twice,
    when 6, 4, 3 divide n)."""
    if lam == 0:
        return 1
    if lam == 4:
        return 1 if n % 2 == 0 else 0
    need = {1: 6, 2: 4, 3: 3}.get(lam)
    return 2 if need and n % need == 0 else 0


# -- layer stripping ---------------------------------------------------


def strip(net):
    """Greedy stripping with a worklist.  Returns (vertices, boundary,
    edges, moves, spikes) of the flower; the flower is independent of
    the order of the moves."""
    V = set(net.vertices)
    B = set(net.boundary)
    E = dict(net.edges)
    inc = {v: set() for v in V}
    for e, (t, h) in E.items():
        inc[t].add(e)
        inc[h].add(e)
    moves = spikes = 0

    def other(e, v):
        t, h = E[e]
        return h if t == v else t

    def remove_edge(e):
        t, h = E.pop(e)
        inc[t].discard(e)
        inc[h].discard(e)

    queue = deque(sorted(B))
    while queue:
        v = queue.popleft()
        if v not in V or v not in B:
            continue
        for e in sorted(inc[v]):
            o = other(e, v)
            if o in B and o != v:
                remove_edge(e)
                moves += 1
                queue.append(o)
        if not inc[v]:
            V.discard(v)
            B.discard(v)
            moves += 1
            continue
        if len(inc[v]) == 1:
            e = next(iter(inc[v]))
            o = other(e, v)
            remove_edge(e)
            V.discard(v)
            B.discard(v)
            B.add(o)
            moves += 1
            spikes += 1
            queue.append(o)
    return V, B, E, moves, spikes


def components(V, E):
    adj = {v: set() for v in V}
    for t, h in E.values():
        adj[t].add(h)
        adj[h].add(t)
    seen, comps = set(), []
    for v in sorted(V):
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def irreducible_pieces(net):
    """Leaves of the complete-reducibility trace: strip, split disjoint
    unions, split at boundary cut vertices, and keep what is stuck.
    Returns a sorted list of (vertices, edges) tuples."""
    V, B, E, _, _ = strip(net)
    if not V:
        return []
    sub = lambda vs, es: Net(vs, B & set(vs), {e: E[e] for e in es})
    comps = components(V, E)
    if len(comps) > 1:
        out = []
        for comp in comps:
            es = [e for e, (t, _) in E.items() if t in comp]
            out += irreducible_pieces(sub(comp, es))
        return sorted(out)
    if len(V) >= 3:
        for x in sorted(B):
            rest = {e: th for e, th in E.items() if x not in th}
            parts = components(V - {x}, rest)
            if len(parts) < 2:
                continue
            side1 = parts[0] | {x}
            e1 = [e for e, (t, h) in E.items() if t in side1 and h in side1]
            e2 = [e for e in E if e not in set(e1)]
            side2 = (V - parts[0])
            return sorted(
                irreducible_pieces(sub(side1, e1))
                + irreducible_pieces(sub(side2, e2))
            )
    return [(tuple(sorted(V)), tuple(sorted(E)))]
