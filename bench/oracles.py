"""Checks on trusslab's outputs, computed apart from trusslab.

Everything here works on plain tables, dicts of matrix entries and
lists of ints.  A LinMap is read only through its public `shape` and
`items()`, so a fault in trusslab's arithmetic, elimination or
comparison cannot hide itself.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import gen


def settruss_problems(t1, t2, omega=None) -> list:
    """Group laws of t1, associativity of t2 and the skew-truss law."""
    n = len(t1)
    out = []
    rng = range(n)
    if any(len(r) != n for r in t1) or len(t2) != n or any(len(r) != n for r in t2):
        return ["tables are not square of one size"]
    if any(t1[t1[a][b]][c] != t1[a][t1[b][c]] for a in rng for b in rng for c in rng):
        out.append("group product is not associative")
    units = [u for u in rng if all(t1[u][a] == a == t1[a][u] for a in rng)]
    if not units:
        return out + ["group product has no unit"]
    e = units[0]
    inv = [next((b for b in rng if t1[a][b] == e == t1[b][a]), None) for a in rng]
    if None in inv:
        return out + ["group product has an element without inverse"]
    if any(t2[t2[a][b]][c] != t2[a][t2[b][c]] for a in rng for b in rng for c in rng):
        out.append("second product is not associative")
    derived = [t2[a][e] for a in rng]
    if omega is not None and list(omega) != derived:
        out.append("cocycle is not a *2 unit")
    for a in rng:
        w = inv[derived[a]]
        for b in rng:
            for c in rng:
                if t2[a][t1[b][c]] != t1[t1[t2[a][b]][w]][t2[a][c]]:
                    out.append(f"distributivity fails at {(a, b, c)}")
                    return out
    return out


def entries_of(m) -> dict | None:
    """Nonzero entries of a LinMap as plain ints; None if one is not integral."""
    out = {}
    for key, value in m.items():
        if isinstance(value, Fraction):
            if value.denominator != 1:
                return None
            value = value.numerator
        if value != 0:
            out[key] = int(value)
    return out


def map_problems(name: str, got, shape, want: dict, p=None) -> list:
    """got must have `shape` and exactly the entries `want` (reduced mod p)."""
    if tuple(got.shape) != tuple(shape):
        return [f"{name}: shape {got.shape} != {shape}"]
    reduce = (lambda v: v % p) if p else (lambda v: v)
    expect = {k: reduce(v) for k, v in want.items() if reduce(v) != 0}
    have = entries_of(got)
    if have is None:
        return [f"{name}: a non-integral entry"]
    bad = sorted(k for k in set(have) | set(expect) if have.get(k) != expect.get(k))
    return [f"{name}: entries differ, first at {bad[0]}"] if bad else []


TRUSS_MAPS = ("delta", "epsilon", "eta", "mu1", "mu2", "antipode", "cocycle")


def truss_map_list(h) -> list:
    return [h.comonoid.delta, h.comonoid.epsilon, h.eta, h.mu1, h.mu2,
            h.antipode, h.cocycle]


def linearize_problems(h, t1, t2, p=None) -> list:
    """Every map of the Hopf truss against the one built from the tables."""
    want = gen.truss_matrices(t1, t2)
    out = []
    for name, got in zip(TRUSS_MAPS, truss_map_list(h)):
        shape, entries = want[name]
        out += map_problems(name, got, shape, entries, p)
    return out


def same_maps_problems(label: str, got: list, want: list) -> list:
    """Map-by-map equality read through shape and entries."""
    out = []
    for k, (g, w) in enumerate(zip(got, want)):
        if tuple(g.shape) != tuple(w.shape) or dict(g.items()) != dict(w.items()):
            out.append(f"{label}: map {k} differs")
    if len(got) != len(want):
        out.append(f"{label}: {len(got)} maps != {len(want)}")
    return out


def antipode_problems(s, t1, p=None) -> list:
    """The solved antipode must be the group-inverse permutation."""
    n = len(t1)
    inv = gen.inverses(t1)
    return map_problems("antipode", s, (n, n), {(inv[a], a): 1 for a in range(n)}, p)


# -- dense arithmetic mod p ------------------------------------------------------


def dense(m, p: int) -> list:
    rows, cols = m.shape
    out = [[0] * cols for _ in range(rows)]
    for (i, j), v in m.items():
        out[i][j] = int(v) % p
    return out


def matmul_mod(a: list, b: list, p: int) -> list:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def rank_mod(a: list, p: int) -> int:
    rows = [list(r) for r in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = pow(rows[rank][c], -1, p)
        rows[rank] = [v * s % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def coinvariant_dim(coaction: list, unit: int, p: int) -> int:
    """dim ker(coaction - eta (x) id) of a carrier with the given coaction."""
    md = len(coaction[0])
    diff = [list(r) for r in coaction]
    for i in range(md):
        diff[unit * md + i][i] = (diff[unit * md + i][i] - 1) % p
    return md - rank_mod(diff, p)


def induced_problems(theta, theta_inv, t1, t2, xdim: int, p: int) -> list:
    """For the module induced from an xdim-dimensional space: theta∘theta_inv
    = id by a dense product mod p, theta's shape says the coinvariants have
    dimension xdim, and so does the kernel of the coaction built here."""
    size = len(t1) * xdim
    if tuple(theta.shape) != (size, size) or tuple(theta_inv.shape) != (size, size):
        return [f"theta shapes {theta.shape}, {theta_inv.shape} != {(size, size)}"]
    out = []
    prod = matmul_mod(dense(theta, p), dense(theta_inv, p), p)
    if prod != [[int(i == j) for j in range(size)] for i in range(size)]:
        out.append("theta∘theta_inv is not the identity")
    shape, entries = gen.kron_with_identity(*gen.truss_matrices(t1, t2)["delta"], xdim)
    coaction = [[entries.get((i, j), 0) for j in range(shape[1])] for i in range(shape[0])]
    dim = coinvariant_dim(coaction, gen.unit_of(t1), p)
    if dim != xdim:
        out.append(f"coinvariants have dimension {dim}, expected {xdim}")
    return out


# -- set-level search ------------------------------------------------------------


def flat(table) -> tuple:
    return tuple(x for row in table for x in row)


def orbit_key(table, autos) -> tuple:
    return min(flat(gen.relabel(table, a)) for a in autos)


def listing_problems(t1, tables: list, omegas=None) -> list:
    """Every table a skew truss over t1 (with the given cocycles, if any),
    and the listing strictly increasing lexicographically."""
    for k, t2 in enumerate(tables):
        bad = settruss_problems(t1, t2, omegas[k] if omegas else None)
        if bad:
            return [f"truss {k}: {bad[0]}"]
    flats = [flat(t) for t in tables]
    if any(a >= b for a, b in zip(flats, flats[1:])):
        return ["listing is not strictly increasing"]
    return []


def classes_problems(t1, tables: list, classes: list) -> list:
    """Classes must be exactly the Aut(G)-orbits, Aut(G) by brute force."""
    autos = gen.automorphisms(t1)
    keys = {}
    for t2 in tables:
        keys.setdefault(orbit_key(t2, autos), []).append(flat(t2))
    if len(classes) != len(keys):
        return [f"{len(classes)} classes != {len(keys)} Aut(G)-orbits"]
    for members in classes:
        ks = {orbit_key(t2, autos) for t2 in members}
        if len(ks) != 1 or sorted(flat(t) for t in members) != sorted(keys[ks.pop()]):
            return ["a class is not an Aut(G)-orbit"]
    return []


def brute_force_trusses(t1) -> list:
    """All skew trusses over t1 by sweeping every n^(n*n) table (small n only)."""
    n = len(t1)
    found = []
    for cells in itertools.product(range(n), repeat=n * n):
        t2 = [list(cells[a * n:(a + 1) * n]) for a in range(n)]
        if not settruss_problems(t1, t2):
            found.append(t2)
    return found


def sweep_problems(t1, tables: list) -> list:
    want = [flat(t) for t in brute_force_trusses(t1)]
    if [flat(t) for t in tables] != want:
        return [f"listing differs from the brute-force sweep ({len(tables)} vs {len(want)})"]
    return []


# -- command line ------------------------------------------------------------------


def canonical_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def enumerate_listing_problems(text: str) -> list:
    """The --out listing is JSON whose count matches and whose trusses, all
    over one group table, pass the own checker in increasing order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"listing is not JSON: {exc}"]
    tables = [t["tables"] for t in doc.get("trusses", [])]
    if not tables or doc.get("count") != len(tables):
        return ["listing count does not match its trusses"]
    t1 = tables[0]["group"]
    if any(t["group"] != t1 for t in tables):
        return ["listed trusses have different group tables"]
    return listing_problems(t1, [t["semigroup"] for t in tables],
                            [t["cocycle"][0] for t in tables])
