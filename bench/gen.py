"""Seeded input generator for the benchmark, written apart from trusslab.

Groups are plain Cayley tables (lists of lists of 0-based labels).  Every
skew truss the generator emits comes from one of two families, each a
skew truss over any group G for an idempotent group endomorphism f:

    left:   a *2 b = a *1 f(b)     (unital exactly when f = id)
    right:  a *2 b = f(b)

f = id in the left family gives the trivial truss, f = const(unit) the
left projection; in the right family f = id gives the right projection.
A seeded relabeling of the carrier varies the tables without changing
the isomorphism type, so inputs differ from seed to seed while their
cost stays the same.
"""

from __future__ import annotations

import itertools
import random


def cyclic(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein() -> list:
    return [[a ^ b for b in range(4)] for a in range(4)]


def s3() -> list:
    """Permutations of {0,1,2} in lexicographic order, (p*q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


GROUPS = {"Z2": lambda: cyclic(2), "Z3": lambda: cyclic(3), "Z4": lambda: cyclic(4),
          "Z2xZ2": klein, "Z5": lambda: cyclic(5), "Z6": lambda: cyclic(6), "S3": s3}


def unit_of(t: list) -> int:
    n = len(t)
    return next(u for u in range(n) if all(t[u][a] == a == t[a][u] for a in range(n)))


def inverses(t: list) -> list:
    e = unit_of(t)
    return [next(b for b in range(len(t)) if t[a][b] == e) for a in range(len(t))]


def relabel(t: list, p) -> list:
    """The table moved along the bijection p: p(a) p(b) = p(a b)."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[t[a][b]]
    return out


def is_hom(t: list, f) -> bool:
    n = len(t)
    return all(f[t[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n))


def _generators(t: list) -> list:
    e = unit_of(t)
    span, gens = {e}, []
    for a in range(len(t)):
        if a in span:
            continue
        gens.append(a)
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = t[x][g]
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return gens


def endomorphisms(t: list) -> list:
    """Every group endomorphism, searched over the images of a generating set."""
    n, e = len(t), unit_of(t)
    gens = _generators(t)
    found = []
    for images in itertools.product(range(n), repeat=len(gens)):
        f = [None] * n
        f[e] = e
        queue, ok = [e], True
        while queue and ok:
            x = queue.pop()
            for g, img in zip(gens, images):
                y, fy = t[x][g], t[f[x]][img]
                if f[y] is None:
                    f[y] = fy
                    queue.append(y)
                elif f[y] != fy:
                    ok = False
                    break
        if ok and is_hom(t, f):
            found.append(tuple(f))
    return found


def automorphisms(t: list) -> list:
    """Aut(G) by brute force over all n! bijections."""
    return [p for p in itertools.permutations(range(len(t))) if is_hom(t, p)]


def truss_table(t: list, family: str, f) -> list:
    n = len(t)
    if family == "left":
        return [[t[a][f[b]] for b in range(n)] for a in range(n)]
    return [[f[b] for b in range(n)] for _ in range(n)]


def truss_options(t: list) -> list:
    """(family, f) pairs over the idempotent endomorphisms, in a fixed order."""
    idem = [f for f in endomorphisms(t) if all(f[f[x]] == f[x] for x in range(len(t)))]
    return [(family, f) for family in ("left", "right") for f in idem]


def seeded_trusses(seed: int, names: list, salt: str) -> list:
    """One (name, group table, semigroup table) per group name.

    Each group is relabeled by a seeded permutation.  One seeded group
    gets the trivial (unital) truss and every other group a seeded
    non-unital one, so every input set holds both kinds.
    """
    rng = random.Random(f"{salt}:{seed}")
    unital_at = rng.randrange(len(names))
    out = []
    for k, name in enumerate(names):
        base = GROUPS[name]()
        n = len(base)
        ident = tuple(range(n))
        options = truss_options(base)
        if k == unital_at:
            family, f = "left", ident
        else:
            family, f = rng.choice([o for o in options if o != ("left", ident)])
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((name, relabel(base, perm),
                    relabel(truss_table(base, family, f), perm)))
    return out


def seeded_groups(seed: int, copies: dict, salt: str) -> list:
    """(name, relabeled table), `copies[name]` seeded labelings of each group."""
    rng = random.Random(f"{salt}:{seed}")
    out = []
    for k in range(max(copies.values())):
        for name in [n for n, c in copies.items() if k < c]:
            base = GROUPS[name]()
            perm = list(range(len(base)))
            rng.shuffle(perm)
            out.append((name, relabel(base, perm)))
    return out


# -- linear maps and documents -----------------------------------------------------


def truss_matrices(t1: list, t2: list) -> dict:
    """name -> ((cod, dom), {(i, j): 1}) of the Hopf truss on the free module."""
    n = len(t1)
    e, inv, rng = unit_of(t1), inverses(t1), range(n)
    return {
        "delta": ((n * n, n), {(a * n + a, a): 1 for a in rng}),
        "epsilon": ((1, n), {(0, a): 1 for a in rng}),
        "eta": ((n, 1), {(e, 0): 1}),
        "mu1": ((n, n * n), {(t1[a][b], a * n + b): 1 for a in rng for b in rng}),
        "mu2": ((n, n * n), {(t2[a][b], a * n + b): 1 for a in rng for b in rng}),
        "antipode": ((n, n), {(inv[a], a): 1 for a in rng}),
        "cocycle": ((n, n), {(t2[a][e], a): 1 for a in rng}),
    }


def kron_with_identity(shape, entries: dict, xdim: int):
    """m (x) id_xdim, left-major."""
    cod, dom = shape
    out = {(i * xdim + k, j * xdim + k): v for (i, j), v in entries.items()
           for k in range(xdim)}
    return (cod * xdim, dom * xdim), out


def _rows(shape, entries: dict) -> list:
    cod, dom = shape
    return [[str(entries.get((i, j), 0)) for j in range(dom)] for i in range(cod)]


def hopftruss_doc(t1: list, t2: list) -> dict:
    return {"kind": "hopftruss", "field": {"kind": "Q"}, "dims": {"dim": len(t1)},
            "maps": {k: _rows(*v) for k, v in truss_matrices(t1, t2).items()}}


def trusshopfmodule_doc(t1: list, t2: list, xdim: int) -> dict:
    """The module induced from an xdim-dimensional space."""
    mats = truss_matrices(t1, t2)
    maps = {k: _rows(*v) for k, v in mats.items()}
    for name, source in (("act1", "mu1"), ("act2", "mu2"), ("coaction", "delta")):
        maps[name] = _rows(*kron_with_identity(*mats[source], xdim))
    return {"kind": "trusshopfmodule", "field": {"kind": "Q"},
            "dims": {"dim": len(t1), "carrier": len(t1) * xdim}, "maps": maps}


def settruss_doc(t1: list, t2: list) -> dict:
    e = unit_of(t1)
    return {"kind": "settruss", "dims": {"size": len(t1)},
            "tables": {"group": t1, "semigroup": t2,
                       "cocycle": [[t2[a][e] for a in range(len(t1))]]}}
