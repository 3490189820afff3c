"""The three workloads: their inputs and their fixed job lists.

A workload is built from ``--seed`` alone.  Fixed inputs (families,
grids) are the same for every seed; seeded inputs keep their sizes and
vary only in structure, weights and boundary data, so that every seed
costs about the same.  Each job records what its check needs: the
network as plain data, the arguments, and any closed-form answer.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import reference as ref
from reference import Net

# Time limit for every job.  The slowest job that is expected to
# succeed takes about 0.2 s; a limit five times that absorbs
# interference from other processes on a two-core machine.
TIME_LIMIT_S = 1.0

# Crit(Q_5), stored because graphalg cannot compute it yet.  Recompute:
#   python3 -c "import sys; sys.path.insert(0, 'src'); from graphalg import
#   families, Network, laplacian_matrix; from sympy import Matrix, ZZ;
#   from sympy.matrices.normalforms import invariant_factors;
#   L = laplacian_matrix(Network.standard(families.cube(5)));
#   print(invariant_factors(Matrix(L.data), domain=ZZ))"
CRIT_Q5 = [2, 2, 2, 2, 2, 6, 24, 24, 24, 24, 48, 192, 192, 192, 960]


class Job:
    def __init__(self, name, kind, net, args=None, expect=None,
                 known_fault=None, modulus=None, phi=None, interiorize=None):
        self.name = name
        self.kind = kind
        self.net = net
        self.args = args  # CLI arguments before the document path
        self.expect = dict(expect or {})
        self.known_fault = known_fault  # why the job fails today, or None
        self.modulus = modulus  # Z/n for u0 --mod and continuation
        self.phi = phi  # boundary data of a continuation job
        self.interiorize = interiorize  # S of a u0-matrix job
        self.path = None

    def argv(self):
        return self.args + ["--json", self.path]


# -- inputs ------------------------------------------------------------


def from_family(built):
    """Plain data of a graphalg family graph (embedded or not)."""
    G = getattr(built, "graph", built)
    edges = {e: (t, h) for e, t, h in G.edges}
    if G is built:
        return Net(G.vertices, G.boundary, edges)
    return Net(G.vertices, G.boundary, edges,
               rotation=dict(built.rotation),
               boundary_order=built.boundary_order)


def grid(a, b):
    """The a x b grid with its perimeter as boundary."""
    vid = lambda i, j: i * b + j
    edges = {}
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                edges[len(edges)] = (vid(i, j), vid(i, j + 1))
            if i + 1 < a:
                edges[len(edges)] = (vid(i, j), vid(i + 1, j))
    boundary = {vid(i, j) for i in range(a) for j in range(b)
                if i in (0, a - 1) or j in (0, b - 1)}
    return Net(range(a * b), boundary, edges)


def random_multigraph(rng, nv, ne, nb=0, wmax=1):
    """Connected multigraph without loops: a random spanning tree plus
    random extra edges, nb random boundary vertices, weights 1..wmax."""
    order = list(range(nv))
    rng.shuffle(order)
    edges = {}
    for i in range(1, nv):
        edges[len(edges)] = (order[i], order[rng.randrange(i)])
    while len(edges) < ne:
        edges[len(edges)] = tuple(rng.sample(range(nv), 2))
    boundary = rng.sample(range(nv), nb)
    weights = {e: rng.randint(1, wmax) for e in edges}
    return Net(range(nv), boundary, edges, weights)


def random_layerable(rng, m, spikes, boundary_edges, wmax, dmax):
    """A layerable network grown from m isolated boundary vertices by a
    random sequence of extensions: a spike turns a boundary vertex
    interior and attaches a new boundary vertex to it; a boundary edge
    joins two boundary vertices.  Weights 1..wmax, offsets 0..dmax."""
    boundary = list(range(m))
    nv = m
    edges = {}
    steps = ["spike"] * spikes + ["edge"] * boundary_edges
    rng.shuffle(steps)
    for step in steps:
        if step == "spike":
            k = rng.randrange(m)
            edges[len(edges)] = (boundary[k], nv)
            boundary[k] = nv
            nv += 1
        else:
            edges[len(edges)] = tuple(rng.sample(boundary, 2))
    weights = {e: rng.randint(1, wmax) for e in edges}
    offsets = {v: rng.randint(0, dmax) for v in range(nv)}
    return Net(range(nv), boundary, edges, weights, offsets)


def random_data(rng, m, modulus):
    if modulus is None:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
    return [rng.randrange(modulus) for _ in range(m)]


# -- job lists ---------------------------------------------------------


def invariants(ga, rng):
    """Smith form, exact rank and characteristic polynomials on integer
    Laplacian blocks; no stripping."""
    fam = ga.families
    jobs = []

    def add(name, kind, net, args, **kw):
        jobs.append(Job(name, kind, net, args, **kw))

    for n in (32, 38, 44, 48):
        add(f"crit K{n}", "crit", from_family(fam.complete_graph(n)), ["crit"],
            expect={"factors": ref.crit_complete(n)})
    for n in (51, 70, 91, 110):
        add(f"crit W{n}", "crit", from_family(fam.wheel(n).graph), ["crit"],
            expect={"factors": ref.crit_wheel(n)})
    for n in (2, 3, 4, 5):
        add(f"crit Q{n}", "crit", from_family(fam.cube(n)), ["crit"],
            expect={"count": ref.cube_factor_count(n),
                    "order": ref.cube_tree_count(n),
                    **({"factors": CRIT_Q5} if n == 5 else {})},
            known_fault="snf entry growth: no answer in 10 s" if n == 5 else None)
    for k in range(6):
        add(f"crit random#{k}", "crit", random_multigraph(rng, 8, 14), ["crit"])

    for m, n in ((12, 3), (16, 4), (20, 4), (24, 4), (28, 3)):
        net = from_family(fam.clf(m, n))
        torsion = ref.u0_clf(m, n)
        fault = "snf entry growth: no answer in 5 s" if (m, n) == (20, 4) else None
        if not fault:
            add(f"upsilon clf({m},{n})", "upsilon", net, ["upsilon"],
                expect={"factors": torsion})
        add(f"u0 --qz clf({m},{n})", "u0", net, ["u0", "--qz"],
            expect={"factors": torsion}, known_fault=fault)
        if not fault:
            add(f"u0 --mod 12 clf({m},{n})", "u0", net, ["u0", "--mod", "12"],
                expect={"factors": torsion}, modulus=12)
    for m, n in ((8, 6), (10, 6), (12, 8)):
        net = from_family(fam.clf_prime(m, n))
        torsion = ref.u0_clf_prime(m, n)
        add(f"u0 --qz clf'({m},{n})", "u0", net, ["u0", "--qz"],
            expect={"factors": torsion})
        add(f"u0 --mod 8 clf'({m},{n})", "u0", net, ["u0", "--mod", "8"],
            expect={"factors": torsion}, modulus=8)
    for k, modulus in enumerate((6, 10, 12, 30)):
        net = random_multigraph(rng, 7, 12, nb=2, wmax=2)
        add(f"upsilon random#{k}", "upsilon", net, ["upsilon"])
        add(f"u0 --qz random#{k}", "u0", net, ["u0", "--qz"])
        add(f"u0 --mod {modulus} random#{k}", "u0", net,
            ["u0", "--mod", str(modulus)], modulus=modulus)

    for n in (10, 14, 16, 18):
        add(f"charpoly K{n}", "charpoly", from_family(fam.complete_graph(n)),
            ["charpoly"], expect={"coeffs": ref.charpoly_complete(n)})
    for n in (12, 15, 18, 20):
        add(f"charpoly C{n}", "charpoly", from_family(fam.cycle(n)),
            ["charpoly"], expect={"coeffs": ref.charpoly_cycle(n)})
    for n, lam in ((30, 30), (40, 0), (48, 48)):
        add(f"eigmult K{n} {lam}", "eigmult", from_family(fam.complete_graph(n)),
            ["eigmult", "--lambda", str(lam)],
            expect={"multiplicity": ref.eigmult_complete(n, lam)})
    # For lambda = 1..4 these cost nearly the same; with u0 --mod 12 on
    # clf(16,4) they form the block of near-equal times that holds the
    # median job of the workload, so the median does not hinge on which
    # of two neighbours with different times ranks first.
    for n, lam in ((60, 1), (60, 2), (60, 3), (60, 4), (60, 5)):
        add(f"eigmult C{n} {lam}", "eigmult", from_family(fam.cycle(n)),
            ["eigmult", "--lambda", str(lam)],
            expect={"multiplicity": ref.eigmult_cycle(n, lam)})
    return jobs


def strip(ga, rng):
    """Layer stripping, flowers, filtrations, complete reducibility and
    planar duals; no Smith form.

    Sizes are chosen so that the median job (a flower on the 8 x 8 grid)
    and the 90th-percentile job (reduce on the 11 x 11 grid) are each
    well apart in time from their neighbours, and the seeded jobs are
    all among the fastest, so neither percentile depends on the seed."""
    fam = ga.families
    jobs = []
    for kind, args, grids in (
        ("layerable", ["layerable", "--filtration"], ((7, 7), (8, 8), (10, 10))),
        ("flower", ["flower"], ((8, 8), (9, 9), (10, 10), (12, 12))),
        ("reduce", ["reduce"], ((9, 9), (10, 10), (11, 11), (12, 12))),
    ):
        for a, b in grids:
            jobs.append(Job(f"{kind} grid{a}x{b}", kind, grid(a, b), args))
        for m, n in ((16, 4), (40, 6), (60, 8)):
            if (kind, m) != ("reduce", 40):
                jobs.append(Job(f"{kind} clf({m},{n})", kind,
                                from_family(fam.clf(m, n)), args))
        for k in range(3):
            jobs.append(Job(f"{kind} random#{k}", kind,
                            random_multigraph(rng, 30, 45, nb=12), args))
    for n in (50, 100, 250, 300, 400):
        jobs.append(Job(f"dual W{n}", "dual",
                        from_family(fam.wheel(n, hub_boundary=True)), ["dual"],
                        expect={"rim": n}))
    return jobs


def continuation(ga, rng):
    """Harmonic continuation over Q and Z/101 and the kernel matrix A.

    The seeded jobs (small random networks) are all faster than the
    median job, u0-matrix on clf(3,2); the 90th-percentile job is the
    continuation over Q on the 6 x 6 grid."""
    fam = ga.families
    jobs = []
    continued = [(None, "grid5x6", grid(5, 6)), (None, "grid6x6", grid(6, 6)),
                 (101, "grid5x5", grid(5, 5)), (101, "grid6x6", grid(6, 6))]
    for k in range(2):
        for modulus in (None, 101):
            continued.append((modulus, f"layerable#{k}",
                              random_layerable(rng, 8, 24, 24, 5, 2)))
    for modulus, label, net in continued:
        field = "Q" if modulus is None else f"Z/{modulus}"
        jobs.append(Job(f"continue {field} {label}", "continue", net,
                        modulus=modulus,
                        phi=random_data(rng, len(net.boundary), modulus)))
    targets = [(f"clf({m},{n})", from_family(fam.clf(m, n)), ref.u0_clf(m, n))
               for m, n in ((3, 2), (4, 1), (5, 1), (10, 3))]
    for k in range(3):
        targets.append((f"random#{k}", random_multigraph(rng, 6, 9, nb=2), None))
    for label, net, torsion in targets:
        G = ga.PartialGraph(net.vertices, net.boundary, net.edges)
        S = ga.find_layering_set(G)
        jobs.append(Job(
            f"u0-matrix {label}", "u0-matrix", net,
            ["u0-matrix", "--interiorize", ",".join(map(str, S))],
            expect={"factors": torsion} if torsion else {},
            interiorize=S,
            known_fault="A takes 3 s to build, then snf entry growth"
            if label == "clf(10,3)" else None))
    return jobs


WORKLOADS = {
    "invariants": invariants,
    "strip": strip,
    "continuation": continuation,
}


def build(ga, name, seed, workdir):
    """Generate the workload's inputs and write one document per job."""
    jobs = WORKLOADS[name](ga, random.Random(f"{name}:{seed}"))
    os.makedirs(workdir, exist_ok=True)
    written = {}
    for job in jobs:
        text = job.net.document()
        path = written.get(text)
        if path is None:
            path = os.path.join(workdir, f"doc{len(written)}.txt")
            with open(path, "w") as fh:
                fh.write(text)
            written[text] = path
        job.path = path
    return jobs
