"""Answers the benchmark checks orbitlab's verdicts against.

Each answer comes from a closed form or from a brute-force count written
here with numpy and plain integers, never from the orbitlab function whose
verdict it scores.  Ring, metric and character data (structure constants,
q values) are inputs and are read from the objects the benchmark built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

# Per-degree l.c.m. of the coefficient denominators at class 6.
#   bch:    Goldberg's coefficients, 1, 1/2, 1/12, 1/24, 1/720, 1/1440
#   exp_ad: ad_x^(d-1) y / (d-1)!
#   phi:    ad_x^(d-1) y / d!
#   lambda: B_(d-1) / (d-1)!, and B_3 = B_5 = 0 leaves degrees 4 and 6 empty
CERTIFICATE_LCMS = {
    "bch": {1: 1, 2: 2, 3: 12, 4: 24, 5: 720, 6: 1440},
    "exp_ad": {1: 1, 2: 1, 3: 2, 4: 6, 5: 24, 6: 120},
    "phi": {1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 720},
    "lambda": {1: 1, 2: 2, 3: 12, 5: 720},
}


def h3_orbits(p, k=1):
    """Coadjoint orbits of the Heisenberg ring over Z/p^k.

    The orbit count equals the number of conjugacy classes (the group
    acts on g and on its dual with equal fixed-point counts), that is
    sum over x of |ker ad_x| / |G|, which for h3 reduces to the sum of
    gcd(a, b, p^k) over the first two coordinates: p^2 + p - 1 at k = 1.
    """
    pk = p ** k
    return sum(gcd(gcd(a, b), pk) for a in range(pk) for b in range(pk))


def h3xa1_orbits(p):
    return p * (p * p + p - 1)


def u4_orbits(p):
    return 2 * p ** 3 + p * p - 2 * p


def rank_mod_p(rows, p):
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def class2_ad_ranks(p, dv, dz, brackets):
    """rank of w -> [v, w] for every v in V, for g = V + Z with [V, V] <= Z
    central; brackets maps (i, j), i < j < dv, to the Z-coordinates."""
    def br(i, j):
        if i == j:
            return (0,) * dz
        if i < j:
            return brackets[(i, j)]
        return tuple(-c for c in brackets[(j, i)])

    ranks = {}
    for v in itertools.product(range(p), repeat=dv):
        cols = [[sum(v[i] * br(i, j)[l] for i in range(dv)) for j in range(dv)]
                for l in range(dz)]
        ranks[v] = rank_mod_p(cols, p)
    return ranks


def class2_orbits(p, dv, dz, brackets):
    """sum over x of |ker ad_x| / |G| = p^dz * sum over v of p^-rank(ad_v)."""
    ranks = class2_ad_ranks(p, dv, dz, brackets)
    total = p ** dz * sum(Fraction(1, p ** r) for r in ranks.values())
    if total.denominator != 1:
        raise ValueError(f"class count {total} is not an integer")
    return int(total)


def _elements(pk, n):
    return np.array(list(itertools.product(range(pk), repeat=n)), dtype=np.int64)


def gram(table, nums, pk):
    """B_chi(e_i, e_j) = chi([e_i, e_j]) from the structure constants."""
    t = np.array(table, dtype=np.int64)
    return (t @ np.array(nums, dtype=np.int64)) % pk


def radical_size(table, nums, pk):
    """|{x : B_chi(x, y) = 0 for all y}| by scanning every x."""
    n = len(nums)
    elems = _elements(pk, n)
    return int(np.all((elems @ gram(table, nums, pk)) % pk == 0, axis=1).sum())


def span_size(gens, pk):
    """Order of the subgroup of (Z/p^k)^n generated by gens."""
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), -1)
    if not len(gens):
        return 1
    coeffs = _elements(pk, len(gens))
    span = (coeffs @ gens) % pk
    return len(np.unique(span, axis=0))


def isotropic_for(table, nums, gens, pk):
    """chi vanishes on [h, h] for h spanned by gens (bilinear, so pairs of
    generators suffice)."""
    g = gram(table, nums, pk)
    x = np.array(gens, dtype=np.int64).reshape(len(gens), -1)
    return not np.any((x @ g @ x.T) % pk)


def lagrangian_subgroups(m):
    """Subgroups of order sqrt|M| on which q vanishes, found by spanning
    every pair of elements; two generators reach every subgroup of the
    metric groups benchmarked (rank <= 2 or elementary of order p^2)."""
    n = m.size()
    card = isqrt(n)
    if card * card != n:
        return set()
    elems = list(m.elements())
    nulls = [x for x in elems if m.q_num(x) == 0]
    zero = tuple(0 for _ in range(m.rank))
    found = set()
    for x, y in itertools.combinations_with_replacement(nulls, 2):
        span = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for s in frontier:
                for g in (x, y):
                    t = m.add(s, g)
                    if t not in span:
                        span.add(t)
                        nxt.append(t)
            frontier = nxt
            if len(span) > card:
                break
        if len(span) == card and all(m.q_num(s) == 0 for s in span):
            found.add(frozenset(span))
    return found
