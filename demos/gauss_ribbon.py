"""
Gauss sums and the ribbon identity
==================================

Builds two small metric groups, evaluates their Gauss sums in exact
cyclotomic arithmetic, then assembles the 9-dimensional module attached
to the hyperbolic plane over Z/3 and checks that the ribbon
automorphism eta equals the twist q-hat, on the cyclic vector u.  Writes
x2_5.metric and hyp3.vm for the command-line examples.
"""

from orbitlab.metric import (
    MetricGroup,
    gauss_sum,
    lagrangians,
    ribbon_qhat,
    serialize_metric,
    st_matrices,
)
from orbitlab.vmodel import (
    build_hyperbolic,
    serialize_vmodel,
    validate_data,
    verify_ribbon,
)

# Rank one: Z/5 with q(x) = x^2/5.  Nondegenerate, no Lagrangian, and
# the Gauss sum has norm exactly 5.
m1 = MetricGroup(5, (1,), ["1/5"], [["2/5"]], name="x^2/5")
g1 = gauss_sum(m1)
print(f"{m1!r}: G = {g1}")
print(f"  G conj(G) = {g1 * g1.conj()}, lagrangians: {len(lagrangians(m1))}")
print()

# The hyperbolic plane b + b^ over Z/3: q = 0 on both generators,
# B(e1, e2) = 1/3.  Here G is rational and equals the Lagrangian size.
zero, third = "0/1", "1/3"
m2 = MetricGroup(3, (1, 1), [zero, zero],
                 [[zero, third], [third, zero]], name="hyp(3)")
g2 = gauss_sum(m2)
print(f"{m2!r}: G = {g2}, lagrangians of sizes "
      f"{[len(s) for s in lagrangians(m2)]}")

# q-hat is the Fourier side of the quadratic character; S and T give the
# modular data of the pointed category attached to (a, q).
qhat = ribbon_qhat(m2)
print(f"q-hat(0) = {qhat[0, 0]} (equals G / |group| = {g2} / {m2.size()})")
s, t = st_matrices(m2)
print(f"S is {len(s)}x{len(s[0])}, T diagonal starts {t[0][0]}, {t[1][1]}")
print()

# The module: gamma acts by translation-with-character on 9 basis
# vectors, eta permutes them with cyclotomic coefficients, and the
# ribbon identity says eta IS q-hat; theorem1 decides it on one vector.
d = build_hyperbolic(3, 1, 1)
print("axioms checked:", ", ".join(validate_data(d)["axioms"]))
report = verify_ribbon(d)
print(f"ribbon checks: "
      f"{', '.join(c['check'] + '=' + c['status'] for c in report['checks'])}")
theorem1 = report["checks"][-1]
print(f"theorem1 {theorem1['status']}: {theorem1['detail']} "
      f"(dim {report['dim']})")

with open("x2_5.metric", "w") as fh:
    fh.write(serialize_metric(m1))
with open("hyp3.vm", "w") as fh:
    fh.write(serialize_vmodel(d))
print("wrote x2_5.metric, hyp3.vm")
