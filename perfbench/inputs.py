"""Seeded input generator: everything a workload feeds orbitlab comes from
the seed alone.

Costs must not depend on the seed, because runs with different seeds are
compared.  So a seed chooses values, never shapes: the generated class-2
rings are redrawn until they have a fixed isomorphism type (same orbit
count, same stabilizer sizes), and characters are drawn in fixed strata
(how many are generic, how many vanish on the centre), since one character
with a large stabilizer costs as much as a dozen generic ones.
"""

from __future__ import annotations

import random

import known

# (name, p, dim V, dim Z, centre dimension): g = V + Z with [V, V] = Z
# central.  The centre dimension pins the isomorphism type: h5 over F_5,
# the rank-5 "free class-2 on three generators mod a line" over F_7, and
# h3 + a1 over F_5.
CLASS2_SHAPES = (
    ("c2_h5_p5", 5, 4, 1, 1),
    ("c2_v3z2_p7", 7, 3, 2, 2),
    ("c2_v3z1_p5", 5, 3, 1, 2),
)

BIG_PRIME = 2 ** 31 - 1


def rng_for(workload, seed):
    return random.Random(f"orbitlab-bench/{workload}/{seed}")


def class2_spec(rng, name, p, dv, dz, centre_dim):
    """Random brackets V x V -> Z, so Jacobi holds by construction; redrawn
    until [V, V] = Z and the centre has the shape's dimension."""
    pairs = [(i, j) for i in range(dv) for j in range(i + 1, dv)]
    while True:
        brackets = {pair: tuple(rng.randrange(p) for _ in range(dz))
                    for pair in pairs}
        if known.rank_mod_p([brackets[pair] for pair in pairs], p) != dz:
            continue
        ranks = known.class2_ad_ranks(p, dv, dz, brackets)
        if sum(1 for r in ranks.values() if r == 0) == p ** (centre_dim - dz):
            return {"name": name, "p": p, "dv": dv, "dz": dz,
                    "brackets": brackets}


def class2_specs(rng):
    return [class2_spec(rng, *shape) for shape in CLASS2_SHAPES]


def build_class2(ol, spec):
    dv, dz = spec["dv"], spec["dz"]
    brackets = {pair: (0,) * dv + vec for pair, vec in spec["brackets"].items()}
    return ol.lazard.LieRing(spec["p"], 1, dv + dz, brackets, name=spec["name"])


def _draw(rng, kind, p, pk):
    if kind == "any":
        return rng.randrange(pk)
    if kind == "unit":
        return rng.choice([a for a in range(1, pk) if a % p])
    if kind == "nonunit":
        return p * rng.randrange(1, pk // p)
    return 0


def characters(rng, p, pk, strata):
    """strata: [(count, per-coordinate kinds)], kinds one of any, unit,
    nonunit (a nonzero multiple of p), zero."""
    out = []
    for count, kinds in strata:
        for _ in range(count):
            out.append(tuple(_draw(rng, kind, p, pk) for kind in kinds))
    return out


def scaled(strata, tiny):
    return [(1, kinds) for _, kinds in strata[:2]] if tiny else strata


# Character strata per ring, in orbitlab's basis order.  u4: e12, e23, e34,
# e13, e24, e14; h3: e0, e1, e2 with e2 central; class-2 rings: V then Z.
def u4_strata(generic, larger, central):
    return [(generic, ("any",) * 5 + ("unit",)),
            (larger, ("any",) * 3 + ("unit", "any", "zero")),
            (central, ("any",) * 3 + ("zero",) * 3)]


def h3_z9_strata():
    return [(16, ("any", "any", "unit")),
            (6, ("any", "any", "nonunit")),
            (2, ("any", "any", "zero"))]


def class2_strata(spec, generic, central):
    dv, dz = spec["dv"], spec["dz"]
    return [(generic, ("any",) * dv + ("unit",) + ("any",) * (dz - 1)),
            (central, ("any",) * dv + ("zero",) * dz)]


def hyperbolic_shapes(tiny):
    """(p, k, r) of the Theorem 1 bundles: |p| = 25, 49, 81, 81."""
    return [(5, 1, 1), (3, 1, 2)] if tiny else [(5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 1, 2)]
