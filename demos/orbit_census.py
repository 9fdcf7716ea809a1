"""
Coadjoint orbits of the Heisenberg groups
=========================================

Enumerates the orbits of G = Exp(h3) acting on the character group of
(h3, +) for p = 3, 5, 7.  The census is always p^2 singletons (central
characters) plus p - 1 orbits of size p^2, and the stabilizer of each
representative equals the radical of its skew form.
"""

from orbitlab.lazard import catalog
from orbitlab.orbits import (
    all_characters,
    enumerate_orbits,
    kernel_lemma_all,
    kernel_lemma_check,
    orbit_histogram,
)

rings = catalog()

for p in (3, 5, 7):
    ring = rings[f"h3_p{p}"]
    orbits = enumerate_orbits(ring)
    hist = orbit_histogram(orbits)
    sizes = ", ".join(f"{size}x{count}" for size, count in sorted(hist.items()))
    print(f"{ring.name}: {len(orbits)} orbits; sizes {sizes}")
    assert len(orbits) == p * p + (p - 1)
    # orbit-stabilizer: every orbit size divides |G| with radical cofactor
    for orbit in orbits:
        assert orbit.size * orbit.stabilizer.size() == ring.size()
print()

# kernel = stabilizer, exhaustively over the whole dual of h3(Z/3):
# for each character the fixed-point set of the coadjoint action is
# exactly Exp(radical of B_chi).
ring = rings["h3_p3"]
for chi in all_characters(ring):
    report = kernel_lemma_check(ring, chi)
    assert report["equal"]
    assert report["stabilizer_size"] == report["radical_size"]
print(f"kernel = stabilizer for all {ring.pk ** ring.rank} characters "
      f"of {ring.name}")

# every character of u4 over Z/5 at once, from the orbit labels and the
# radicals of all skew forms; the stabilizer scan runs per orbit
u4 = rings["u4_p5"]
report = kernel_lemma_all(u4)
print(f"kernel = stabilizer for all {report['characters']} characters "
      f"of {u4.name} ({report['orbits']} orbits scanned)")
