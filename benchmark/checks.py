"""Answer checks, one per job kind, and corruptions for the self-test.

Each check takes a job and graphalg's answer for it (the ``--json``
text a CLI job printed, or the dict a library job returned) and raises
:class:`CheckError` unless the answer agrees with the references in
:mod:`reference`.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import reference as ref


class CheckError(AssertionError):
    pass


def expect(cond, job, message):
    if not cond:
        raise CheckError(f"{job.name}: {message}")


def _factors(dec, job):
    factors = [int(f) for f in dec["invariant_factors"]]
    expect(factors == ref.chain(factors), job, f"not a divisibility chain: {factors}")
    return factors


def _p_counts(factors, block, rank, job):
    """The number of invariant factors divisible by p is the rank over Q
    minus the rank over Z/p."""
    for p in ref.SMALL_PRIMES:
        want = rank - ref.rank_mod(block, p)
        got = ref.count_divisible(factors, p)
        expect(got == want, job, f"{got} factors divisible by {p}, rank says {want}")


def _by_minors(factors, M, job, modulus=None):
    """Compare with the Smith form from determinantal divisors, where the
    matrix is small enough; over Z/n the factors become gcd(f, n)."""
    want = ref.smith_by_minors(M)
    if want is not None:
        if modulus is not None:
            want = ref.chain(gcd(f, modulus) for f in want)
        expect(factors == want, job, f"factors {factors}, by minors {want}")


def check_crit(job, out):
    dec = json.loads(out)["critical_group"]
    factors = _factors(dec, job)
    expect(dec["free_rank"] == 0, job, "critical group has a free part")
    L = job.net.laplacian()
    n = len(L)
    trees = ref.determinant([row[1:] for row in L[1:]])
    order = 1
    for f in factors:
        order *= f
    expect(order == trees, job, f"order {order}, matrix-tree count {trees}")
    _p_counts(factors, L, n - 1, job)
    _by_minors(factors, [row[1:] for row in L[1:]], job)
    if "factors" in job.expect:
        expect(factors == job.expect["factors"], job, f"factors {factors}")
    if "count" in job.expect:
        expect(len(factors) == job.expect["count"], job, f"{len(factors)} factors")
    if "order" in job.expect:
        expect(order == job.expect["order"], job, f"order {order}")


def check_upsilon(job, out):
    data = json.loads(out)
    dec = data["upsilon"]
    factors = _factors(dec, job)
    block = job.net.interior_block()
    rank = ref.rank_q(block)
    expect(dec["free_rank"] == len(job.net.vertices) - rank, job, "free rank")
    nondeg = rank == len(job.net.interior)
    expect(data["nondegenerate"] == nondeg, job, "non-degeneracy verdict")
    _p_counts(factors, block, rank, job)
    _by_minors(factors, block, job)
    if "factors" in job.expect:
        expect(factors == job.expect["factors"], job, f"torsion {factors}")


def check_u0(job, out):
    dec = json.loads(out)["u0"]
    factors = _factors(dec, job)
    expect(dec["free_rank"] == 0, job, "U0 has a free part")
    block = job.net.interior_block()
    n = job.modulus
    if n is None:
        _p_counts(factors, block, len(job.net.interior), job)
    else:
        expect(all(n % f == 0 for f in factors), job, f"factor not dividing {n}")
        for p in ref.SMALL_PRIMES:
            if n % p == 0:
                want = len(job.net.interior) - ref.rank_mod(block, p)
                got = ref.count_divisible(factors, p)
                expect(got == want, job, f"{got} factors divisible by {p}, want {want}")
    _by_minors(factors, block, job, n)
    if "factors" in job.expect:
        want = job.expect["factors"]
        if n is not None:
            want = ref.chain(gcd(f, n) for f in want)
        expect(factors == want, job, f"factors {factors}, closed form {want}")


def check_charpoly(job, out):
    coeffs = [int(c) for c in json.loads(out)["charpoly"]]
    expect(coeffs == job.expect["coeffs"], job, f"coefficients {coeffs}")


def check_eigmult(job, out):
    mult = json.loads(out)["multiplicity"]
    expect(mult == job.expect["multiplicity"], job, f"multiplicity {mult}")


def _replay_filtration(job, steps):
    """Undo the extensions in reverse as strip moves on the reference
    graph; a standard-form filtration must strip every edge and leave
    only boundary vertices."""
    net = job.net
    B = set(net.boundary)
    E = dict(net.edges)
    deg = {v: 0 for v in net.vertices}
    for t, h in E.values():
        deg[t] += 1
        deg[h] += 1
    spikes = 0
    for step in reversed(steps):
        words = step.split()
        if words[0] == "spike":
            v, e = int(words[1]), int(words[4])
            expect(e in E and v in E[e], job, f"bad step {step!r}")
            t, h = E.pop(e)
            o = h if t == v else t
            expect(v in B and deg[v] == 1 and o not in B, job, f"not a spike: {step!r}")
            deg[v] -= 1
            deg[o] -= 1
            B.discard(v)
            B.add(o)
            spikes += 1
        elif words[0] == "boundary-edge":
            e = int(words[1])
            expect(e in E, job, f"bad step {step!r}")
            t, h = E.pop(e)
            expect(t in B and h in B, job, f"not a boundary edge: {step!r}")
            deg[t] -= 1
            deg[h] -= 1
        else:
            raise CheckError(f"{job.name}: unexpected step {step!r}")
    expect(not E, job, "filtration leaves edges")
    expect(len(steps) == len(net.edges), job, "steps != |E|")
    expect(spikes == len(net.interior), job, "spikes != |interior|")


def check_layerable(job, out):
    data = json.loads(out)
    V, _, _, _, _ = ref.strip(job.net)
    expect(data["layerable"] == (not V), job, "layerability verdict")
    if data["layerable"]:
        _replay_filtration(job, data["filtration"])


def check_flower(job, out):
    data = json.loads(out)
    V, _, E, moves, spikes = ref.strip(job.net)
    expect(data["moves"] == moves, job, f"moves {data['moves']}, reference {moves}")
    expect(sorted(data["flower_vertices"]) == sorted(V), job, "flower vertices")
    expect(sorted(data["flower_edges"]) == sorted(E), job, "flower edges")
    expect(data["empty"] == (not V), job, "emptiness")
    if not V:
        net = job.net
        expect(moves == len(net.edges) + len(net.boundary), job, "moves != |E| + |boundary|")
        expect(spikes == len(net.interior), job, "spikes != |interior|")


def check_reduce(job, out):
    data = json.loads(out)
    pieces = ref.irreducible_pieces(job.net)
    got = sorted(
        (tuple(sorted(p["vertices"])), tuple(sorted(p["edges"])))
        for p in data["irreducible_pieces"]
    )
    expect(got == pieces, job, "irreducible pieces differ from the reference")
    expect(data["completely_reducible"] == (not pieces), job, "verdict")


def check_dual(job, out):
    """The dual of a hub-boundary wheel is again a wheel: one hub of
    degree n, a rim cycle of degree-3 vertices, the same edge ids with
    reciprocal (unit) weights, and one boundary vertex."""
    text = json.loads(out)["document"]
    vertices, boundary, edges = [], [], {}
    for line in text.splitlines():
        w = line.split()
        if w and w[0] == "vertex":
            vertices.append(int(w[1]))
            if w[2] == "boundary":
                boundary.append(int(w[1]))
        elif w and w[0] == "edge":
            expect(w[4] == "w=1", job, f"weight {w[4]}")
            edges[int(w[1])] = (int(w[2]), int(w[3]))
    n = job.expect["rim"]
    expect(len(vertices) == n + 1 and sorted(edges) == sorted(job.net.edges), job, "size")
    expect(len(boundary) == 1, job, "boundary count")
    deg = {v: 0 for v in vertices}
    for t, h in edges.values():
        deg[t] += 1
        deg[h] += 1
    hubs = [v for v in vertices if deg[v] == n]
    expect(len(hubs) == 1, job, "no unique hub")
    rim = {e: th for e, th in edges.items() if hubs[0] not in th}
    rim_deg = {v: 0 for v in vertices if v != hubs[0]}
    for t, h in rim.values():
        rim_deg[t] += 1
        rim_deg[h] += 1
    comps = ref.components(set(rim_deg), rim)
    expect(all(d == 2 for d in rim_deg.values()) and len(comps) == 1, job, "rim is not a cycle")


def check_continue(job, out):
    """The continued function is harmonic at every interior vertex under
    the reference Laplacian and equals the given data on the initial
    labels."""
    labels, values = out["labels"], out["values"]
    net = job.net
    n = job.modulus
    expect(sorted(values) == net.vertices, job, "function is not total")
    expect(len(labels) == len(job.phi) == len(net.boundary), job, "label count")
    if n is None:
        u = {v: Fraction(x) for v, x in values.items()}
        phi = [Fraction(x) for x in job.phi]
    else:
        u = {v: x.value for v, x in values.items()}
        phi = [x % n for x in job.phi]
    expect([u[v] for v in labels] == phi, job, "differs from the data on the labels")
    Lu = net.apply_laplacian(u, n)
    expect(all(Lu[x] == 0 for x in net.interior), job, "not harmonic")


def check_u0_matrix(job, out):
    """A has |S| + |boundary| rows and |S| columns; its Smith diagonal
    and kernel are consistent with each other and with the reference
    ranks modulo p; and the kernel agrees with the direct U0 over Q/Z
    (``job.expect["direct"]``, from ``u0 --qz`` on the same document)."""
    data = json.loads(out)
    A = [[Fraction(x) for x in row] for row in data["matrix"]]
    s = len(job.interiorize)
    expect(len(A) == s + len(job.net.boundary), job, "row count")
    expect(all(len(r) == s for r in A), job, "column count")
    kernel = _factors(data["kernel"], job)
    diag = [int(d) for d in data["smith_diagonal"] or []]
    expect(len(diag) == s and all(d > 0 for d in diag), job, f"diagonal {diag}")
    expect(ref.chain(diag) == kernel, job, "kernel does not match the diagonal")
    _p_counts(kernel, A, s, job)
    _by_minors(kernel, [[int(x) for x in row] for row in A], job)
    direct = job.expect["direct"]
    expect(kernel == direct, job, f"kernel {kernel}, direct U0 {direct}")
    if "factors" in job.expect:
        expect(kernel == job.expect["factors"], job, f"kernel {kernel}")


CHECKS = {
    "crit": check_crit,
    "upsilon": check_upsilon,
    "u0": check_u0,
    "charpoly": check_charpoly,
    "eigmult": check_eigmult,
    "layerable": check_layerable,
    "flower": check_flower,
    "reduce": check_reduce,
    "dual": check_dual,
    "continue": check_continue,
    "u0-matrix": check_u0_matrix,
}


# -- corruptions for the self-test -------------------------------------


def _bump_factor(dec):
    fs = dec["invariant_factors"]
    if fs:
        fs[-1] = str(int(fs[-1]) * 2)
    else:
        fs.append("2")


def corrupt(kind, out):
    """A wrong answer of the same shape as ``out``."""
    if kind == "continue":
        values = dict(out["values"])
        v = out["labels"][0]
        values[v] = values[v] + 1
        return {"labels": out["labels"], "values": values}
    data = json.loads(out)
    if kind in ("crit", "upsilon", "u0"):
        key = {"crit": "critical_group", "upsilon": "upsilon", "u0": "u0"}[kind]
        _bump_factor(data[key])
    elif kind == "charpoly":
        data["charpoly"][-2] = str(int(data["charpoly"][-2]) + 1)
    elif kind == "eigmult":
        data["multiplicity"] += 1
    elif kind == "layerable":
        if data["layerable"]:
            data["filtration"] = data["filtration"][1:]
        else:
            data["layerable"] = True
            data["filtration"] = []
    elif kind == "flower":
        data["moves"] += 1
    elif kind == "reduce":
        data["completely_reducible"] = not data["completely_reducible"]
    elif kind == "dual":
        lines = data["document"].splitlines()
        last_edge = max(i for i, ln in enumerate(lines) if ln.startswith("edge "))
        del lines[last_edge]
        data["document"] = "\n".join(lines)
    elif kind == "u0-matrix":
        _bump_factor(data["kernel"])
    return json.dumps(data)
