"""The fundamental module of a network and its relatives.

For a network (G, L) over Z the fundamental module is the cokernel of
L restricted to interior-vertex chains,

    Upsilon(G, L) = ZV / L(ZV°),

whose torsion generalizes the critical (sandpile) group.  The reduced
variant quotients ker(sum of coordinates) instead and is defined for
normalized networks (d = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_algebra import (
    ExactMatrix,
    ModuleDecomposition,
    _bareiss,
    _charpoly_rows,
    _smith_rows,
    _sparse_pivots,
    cokernel,
    cokernel_from_snf,
    determinant,
    poly_divides,
)
from .network import (
    Network,
    U0_QmodZ,
    _dense_rows,
    interior_rows,
    interior_smith,
    is_nondegenerate,
)
from .partial_graph import validate_morphism


@dataclass(frozen=True)
class UpsilonReport:
    decomposition: ModuleDecomposition
    nondegenerate: bool


def upsilon(N):
    """Decomposition of Upsilon(G, L) for an integer-weight network."""
    G = N.graph
    decomposition = cokernel_from_snf(*interior_smith(N), len(G.vertices))
    # free rank |V| - rank equals |boundary| iff rank = |interior|
    nondeg = decomposition.free_rank == len(G.boundary)
    return UpsilonReport(decomposition, nondeg)


def upsilon_reduced(N):
    """Decomposition of the reduced module ker(eps) / L(ZV°) for a
    normalized network, in the chain basis {x_i - x_0} with x_0 the
    lowest vertex id."""
    rows = interior_rows(N)
    if not N.is_normalized():
        raise ValueError("normalized network (d = 0) required")
    G = N.graph
    if not G.vertices:
        return ModuleDecomposition(0, ())
    # with d = 0 every column sums to zero, so a column lies in ker(eps)
    # and its coordinates off x_0 are its coefficients in the basis
    # {x_i - x_0}: drop the x_0 row, the first.
    del rows[0]
    return cokernel_from_snf(*_smith_rows(rows, len(G.interior)), len(rows))


def critical_group(G):
    """Critical group of a connected graph without boundary: the torsion
    of Upsilon for the standard Laplacian."""
    if G.boundary:
        raise ValueError("critical group is defined for boundaryless graphs")
    if not G.is_connected():
        raise ValueError("connected graph required")
    report = upsilon(Network.standard(G))
    return ModuleDecomposition(0, report.decomposition.invariant_factors)


def torsion_crosscheck(N):
    """Compare three computations of the torsion: the cokernel of the
    interior block, the cokernel of its transpose, and U0 over Q/Z.
    Returns True when all agree (requires non-degeneracy)."""
    if not is_nondegenerate(N):
        raise ValueError("non-degenerate network required")
    cols = range(len(N.graph.interior))
    block = ExactMatrix([[r.get(j, 0) for j in cols] for r in interior_rows(N)])
    a = cokernel(block).invariant_factors
    b = cokernel(block.transpose()).invariant_factors
    c = U0_QmodZ(N).invariant_factors
    return a == b == c


def spanning_tree_count(G):
    """Number of spanning trees via the matrix-tree theorem (delete one
    row and column of the standard Laplacian)."""
    if G.boundary:
        raise ValueError("boundaryless graph required")
    if not G.is_connected():
        raise ValueError("connected graph required")
    if len(G.vertices) <= 1:
        return 1
    keep = G.vertices[1:]
    rows = _dense_rows(Network.standard(G), keep, keep)
    return int(determinant(ExactMatrix(rows)))


def laplacian_charpoly(N):
    """Monic characteristic polynomial det(zI - L), highest degree first."""
    V = N.graph.vertices
    s = N._laplacian[1]
    rows = _dense_rows(N, V, V)
    if s != 1:
        if any(a % s for r in rows for a in r):
            raise ValueError("matrix has non-integer entries")
        rows = [[a // s for a in r] for r in rows]
    return _charpoly_rows(rows)


def eigen_multiplicity(N, lam):
    """Multiplicity of lam as an eigenvalue of the full Laplacian over Q
    (nullity of lam*I - L).  The rank is the number of pivots of the
    Smith core's sparse pivot phase plus the Bareiss rank of the
    remnant: only the rank is needed, so no pass modulo D follows."""
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    L, s = N._laplacian
    # q s (L - lam I) is int and has the rank of lam I - L
    rows = []
    for x, row in L.items():
        r = dict(row) if q == 1 else {y: q * a for y, a in row.items()}
        d = r.get(x, 0) - p * s
        if d:
            r[x] = d
        else:
            r.pop(x, None)
        rows.append(r)
    pivots, remnant = _sparse_pivots(rows)
    return len(rows) - len(pivots) - _bareiss(remnant)[0]


def charpoly_divisibility_check(f, N1, N2):
    """For a degree-n harmonic morphism of boundaryless networks, check
    the divisibility det(zI - L2) | det(nzI - L1) exactly."""
    n = _constant_degree(f)
    p1 = laplacian_charpoly(N1)
    return _charpoly_divides(p1, laplacian_charpoly(N2), n)


def _constant_degree(f):
    """The degree of the harmonic morphism ``f`` of boundaryless graphs;
    ValueError unless it is one, of constant degree."""
    degrees = validate_morphism(f)
    interior_degrees = {degrees[x] for x in f.source.interior}
    if f.source.boundary or f.target.boundary:
        raise ValueError("boundaryless graphs required")
    if len(interior_degrees) != 1:
        raise ValueError("morphism degree is not constant")
    return interior_degrees.pop()


def _charpoly_divides(p1, p2, n):
    """True iff p2 divides p1(nz), for charpolys p1 = det(zI - L1) and
    p2 = det(zI - L2): the check of :func:`charpoly_divisibility_check`
    for callers that already hold both polynomials."""
    # det(nzI - L1) = sum_j a_j n^j z^j where p1(w) = sum_j a_j w^j
    deg1 = len(p1) - 1
    scaled = [c * n ** (deg1 - i) for i, c in enumerate(p1)]
    return poly_divides(p2, scaled)
