"""
Lie ring to p-group and back
============================

Takes the Heisenberg Lie ring over Z/5, turns its bracket table into a
group multiplication with the Campbell-Hausdorff series, then recovers
the bracket table from the bare multiplication map alone.  Also writes
h3_p5.ring so the command-line examples have an input file.
"""

from orbitlab.lazard import (
    catalog,
    check_exp_associative,
    conjugate,
    exp_mul,
    log_group,
    serialize_ring,
    validate,
)

ring = catalog()["h3_p5"]
report = validate(ring)
print(f"{report['name']}: order {report['order']}, class {report['class']}, "
      f"Lazard condition {report['condition']}")

# Two sample products.  In exponential coordinates the center shifts by
# half the bracket: Exp(x) Exp(y) = Exp(x + y + [x,y]/2 + ...).
a, b = (1, 0, 0), (0, 1, 0)
print(f"Exp{a} * Exp{b} = Exp{exp_mul(ring, a, b)}")
print(f"Exp{b} * Exp{a} = Exp{exp_mul(ring, b, a)}")
print(f"inverse of Exp{a}: Exp{ring.neg(a)}")
print(f"conjugate of Exp{b} by Exp{a}: Exp{conjugate(ring, a, b)}")
print()

# The law is associative on all |G|^3 triples (checked exhaustively when
# that is affordable, sampled otherwise).
count, exhaustive = check_exp_associative(ring)
print(f"associativity: {count} triples checked, exhaustive = {exhaustive}")

# Now forget the ring.  log_group sees only x, y -> x * y and rebuilds
# the additive structure and the bracket.
recovered, report = log_group(
    lambda x, y: exp_mul(ring, x, y), ring.p, ring.k, ring.rank)
print(f"recovered table matches: {recovered.table == ring.table} "
      f"(exhaustive = {report['exhaustive']})")

with open("h3_p5.ring", "w") as fh:
    fh.write(serialize_ring(ring))
print("wrote h3_p5.ring")
