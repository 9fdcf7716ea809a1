"""Finite model of the module V carrying the twist.

The input bundle is a nilpotent Lie ring p with group Gamma = Exp(p), a
Lagrangian abelian ideal a for a conjugation-invariant metric q on p's
additive group, and a section s of the projection onto b = p/a.  V has
basis {1_{alpha,beta}} indexed by b x b; Gamma acts by monomial matrices,
the twist eta is another monomial operator, and verify_ribbon checks the
ribbon identity eta = q-hat exactly in cyclotomic arithmetic, alongside
the action axioms, the gu spanning lemma, the h_{beta0} reconstruction,
and the Gauss sum evaluation.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

from .arith import QpModZp
from .cyclotomic import CycNumber
from .lazard import (CrossCheckError, LieRing, Subring, conjugate, exp_mul,
                     parse_ring, quotient_ring, serialize_ring, series_program)
from .metric import MetricGroup, gauss_sum, ribbon_qhat

ACTION_EXHAUSTIVE_CAP = 81


class VModelError(ValueError):
    """A model axiom failed; .axiom names it and the message has the witness."""

    def __init__(self, axiom, message):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom


class VModelData:
    """p, a, q, s and the derived quotient b; validation is a separate
    operation so that broken bundles can be constructed and reported."""

    def __init__(self, ring, a, metric, section=None, name=""):
        self.ring = ring
        self.a = a if isinstance(a, Subring) else Subring(ring, a)
        self.metric = metric
        self.name = name or f"V({ring.name})"
        self.b, self.project, self.lift = quotient_ring(
            ring, self.a, name=f"{ring.name}/a")
        belems = list(self.b.elements())
        self.b_elements = belems
        if section is None:
            self.s = {beta: self.lift(beta) for beta in belems}
        else:
            self.s = {beta: tuple(int(c) % ring.pk for c in section[beta])
                      for beta in belems}
        self.pairs = [(alpha, beta) for alpha in belems for beta in belems]
        self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self._validated = False
        self._gamma_cache = {}

    def dim(self):
        return len(self.pairs)

    def _phi_b(self, x, y):
        """Phi(x, y) in b, from b's compiled series program."""
        return series_program(self.b, "phi").scalar(self.b, x, y)

    def __repr__(self):
        return (f"VModelData({self.name}, |p|={self.ring.size()}, "
                f"dim V={self.dim()})")


def validate_data(d):
    """Check every model axiom exhaustively; the certificate lists what
    was verified.  Failures raise VModelError naming the axiom with a
    witness."""
    ring, a, m = d.ring, d.a, d.metric
    if (m.p != ring.p or m.exponents != (ring.k,) * ring.rank):
        raise VModelError(
            "metric-shape",
            f"metric on {m.orders} does not match the additive group "
            f"of {ring.name} (p={ring.p}, k={ring.k}, rank={ring.rank})")
    if not a.is_ideal():
        raise VModelError("ideal", f"[p, a] is not contained in a for "
                          f"generators {a.generators()}")
    gens = a.generators()
    for x, y in itertools.combinations_with_replacement(gens, 2):
        if any(ring.bracket(x, y)):
            raise VModelError("abelian", f"[{x}, {y}] != 0 inside a")
    for x in a.elements():
        if m.q_num(x):
            raise VModelError(
                "isotropic", f"q({x}) = {m.q(x)} != 0 on the ideal")
    size_a = a.size()
    if size_a * size_a != ring.size():
        raise VModelError(
            "lagrangian", f"|a|^2 = {size_a}^2 != |p| = {ring.size()}")
    perp_count = 0
    for x in ring.elements():
        if all(m.b_num(x, g) == 0 for g in gens):
            perp_count += 1
            if not a.contains(x):
                raise VModelError(
                    "lagrangian", f"{x} pairs to zero with a but lies outside")
    if perp_count != size_a:
        raise VModelError(
            "lagrangian", f"|a^perp| = {perp_count} != |a| = {size_a}")
    for t in range(ring.rank):
        g = ring.basis(t)
        for x in ring.elements():
            gx = conjugate(ring, g, x)
            if m.q_num(gx) != m.q_num(x):
                raise VModelError(
                    "invariance",
                    f"q(Exp(e_{t}) {x} Exp(e_{t})^-1) = {m.q(gx)} != "
                    f"q({x}) = {m.q(x)}")
    zero_b = d.b.zero()
    if any(d.s[zero_b]):
        raise VModelError("section", f"s(0) = {d.s[zero_b]} != 0")
    for beta in d.b_elements:
        if d.project(d.s[beta]) != beta:
            raise VModelError(
                "section", f"projection of s({beta}) = {d.s[beta]} is "
                f"{d.project(d.s[beta])}, not {beta}")
    d._validated = True
    return {
        "name": d.name,
        "order": ring.size(),
        "ideal_order": size_a,
        "dim": d.dim(),
        "axioms": ["metric-shape", "ideal", "abelian", "isotropic",
                   "lagrangian", "invariance", "section"],
    }


def _require_valid(d):
    if not d._validated:
        validate_data(d)


# operators on V are monomial: basis vectors map to root-of-unity multiples
# of basis vectors, so an operator is (permutation, exponent) arrays over
# the pair index, with exponents in Z/p^level of the metric conductor.

def _gamma_monomial(d, g):
    got = d._gamma_cache.get(g)
    if got is not None:
        return got
    ring, m = d.ring, d.metric
    gbar = d.project(g)
    perm = [0] * d.dim()
    expo = [0] * d.dim()
    target_beta = {}
    coeff = {}
    for beta in d.b_elements:
        gs = exp_mul(ring, g, d.s[beta])
        gbeta = d.project(gs)
        delta = ring.sub(gs, d.s[gbeta])
        if not d.a.contains(delta):
            raise VModelError(
                "action-data",
                f"g s(beta) - s(g beta) = {delta} is outside the ideal "
                f"for g={g}, beta={beta}")
        target_beta[beta] = gbeta
        coeff[beta] = delta
    for i, (alpha, beta) in enumerate(d.pairs):
        galpha = conjugate(d.b, gbar, alpha)
        gbeta = target_beta[beta]
        w = d._phi_b(galpha, gbeta)
        perm[i] = d.index[(galpha, gbeta)]
        expo[i] = m.b_num(coeff[beta], d.s[w])
    out = (tuple(perm), tuple(expo))
    d._gamma_cache[g] = out
    return out


def _eta_monomial(d):
    ring, m = d.ring, d.metric
    perm = [0] * d.dim()
    expo = [0] * d.dim()
    for i, (alpha, beta) in enumerate(d.pairs):
        ab = exp_mul(d.b, alpha, beta)
        delta = ring.sub(exp_mul(ring, d.s[alpha], d.s[beta]), d.s[ab])
        if not d.a.contains(delta):
            raise VModelError(
                "twist-data",
                f"s(alpha) s(beta) - s(alpha beta) = {delta} is outside "
                f"the ideal for alpha={alpha}, beta={beta}")
        w = d._phi_b(alpha, ab)
        perm[i] = d.index[(alpha, ab)]
        expo[i] = (m.b_num(delta, d.s[w]) - m.q_num(d.s[alpha])) % m.modulus
        if beta == d.b.zero():
            # the beta = 0 slice must collapse to the bare twist formula
            if any(delta) or ab != alpha or \
                    expo[i] != -m.q_num(d.s[alpha]) % m.modulus:
                raise CrossCheckError(
                    "twist-beta0", f"twist formula fails its beta = 0 "
                    f"specialization at alpha={alpha}")
    return tuple(perm), tuple(expo)


def _compose(d, second, first):
    """Monomial operator second . first."""
    p2, e2 = second
    p1, e1 = first
    n = d.metric.modulus
    return (tuple(p2[j] for j in p1),
            tuple((e1[i] + e2[p1[i]]) % n for i in range(len(p1))))


def _identity_monomial(d):
    return tuple(range(d.dim())), (0,) * d.dim()


def _apply_monomial(d, op, v):
    perm, expo = op
    out = {}
    for pair, c in v.items():
        i = d.index[pair]
        target = d.pairs[perm[i]]
        add = c.mul_root(expo[i])
        got = out.get(target)
        out[target] = add if got is None else got + add
    return {pair: c for pair, c in out.items() if not c.is_zero()}


def basis_vector(d, alpha, beta):
    return {(alpha, beta): CycNumber.one(d.metric.p, d.metric.level)}


def gamma_act(d, g, v):
    """Action of Exp(g) on a vector (dict over basis pairs)."""
    _require_valid(d)
    g = tuple(int(c) % d.ring.pk for c in g)
    return _apply_monomial(d, _gamma_monomial(d, g), v)


def eta(d, v):
    """The twist applied to a vector."""
    _require_valid(d)
    return _apply_monomial(d, _eta_monomial(d), v)


def _monomial_rows(d, op):
    """Dense column-convention matrix of a monomial operator: column i
    holds the image of basis vector i."""
    perm, expo = op
    n = d.dim()
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][i] = CycNumber.root(d.metric.p, d.metric.level, expo[i])
    return rows


def eta_matrix(d):
    _require_valid(d)
    return _monomial_rows(d, _eta_monomial(d))


def qhat_matrix(d):
    """Matrix of the central element q-hat acting through gamma; the
    coefficients come from ribbon_qhat, which itself cross-checks the
    closed form against the Fourier definition."""
    _require_valid(d)
    coeffs = ribbon_qhat(d.metric)
    n = d.dim()
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    rows = [[zero] * n for _ in range(n)]
    for g, c in coeffs.items():
        perm, expo = _gamma_monomial(d, g)
        for i in range(n):
            j = perm[i]
            rows[j][i] = rows[j][i] + c.mul_root(expo[i])
    return rows


def _cyc_rank(rows):
    """Rank over the cyclotomic field by fraction-free style elimination
    with exact inverses."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _vector_u(d):
    one = CycNumber.one(d.metric.p, d.metric.level)
    zero_b = d.b.zero()
    return {(alpha, zero_b): one for alpha in d.b_elements}


def verify_ribbon(d, eta_override=None, samples=2000, seed=0):
    """Run the full verification suite; returns a report with one entry
    per sub-identity and collects counterexamples instead of raising.

    eta_override substitutes a foreign matrix for the twist in the final
    comparison, for negative-control experiments.
    """
    _require_valid(d)
    ring, m = d.ring, d.metric
    n = d.dim()
    card = isqrt(ring.size())
    report = {"name": d.name, "order": ring.size(), "dim": n, "checks": [],
              "counterexamples": []}

    def record(name, ok, detail, t0):
        report["checks"].append(
            {"check": name, "status": "PASS" if ok else "FAIL",
             "detail": detail, "seconds": round(time.perf_counter() - t0, 3)})

    elements = list(ring.elements())

    t0 = time.perf_counter()
    ok = _gamma_monomial(d, ring.zero()) == _identity_monomial(d)
    bad = None
    if ok:
        if len(elements) <= ACTION_EXHAUSTIVE_CAP:
            pairs = itertools.product(elements, elements)
            mode = f"exhaustive ({len(elements)}^2 pairs)"
        else:
            rng = random.Random(seed)
            pairs = ((rng.choice(elements), rng.choice(elements))
                     for _ in range(samples))
            mode = f"{samples} sampled pairs (seed {seed})"
        for g, h in pairs:
            lhs = _compose(d, _gamma_monomial(d, g), _gamma_monomial(d, h))
            rhs = _gamma_monomial(d, exp_mul(ring, g, h))
            if lhs != rhs:
                bad = (g, h)
                ok = False
                break
    else:
        mode = "unit"
        bad = ("unit",)
    record("action", ok, f"unit and composition, {mode}", t0)
    if bad:
        report["counterexamples"].append({"check": "action", "witness": bad})

    t0 = time.perf_counter()
    eta_op = _eta_monomial(d)
    ok = True
    bad = None
    for g in elements:
        gop = _gamma_monomial(d, g)
        if _compose(d, eta_op, gop) != _compose(d, gop, eta_op):
            ok, bad = False, g
            break
    record("equivariance", ok, "eta commutes with every group element", t0)
    if bad is not None:
        report["counterexamples"].append(
            {"check": "equivariance", "witness": bad})

    t0 = time.perf_counter()
    u = _vector_u(d)
    blocks = {beta: [] for beta in d.b_elements}
    for g in elements:
        gu = _apply_monomial(d, _gamma_monomial(d, g), u)
        betas = {pair[1] for pair in gu}
        if len(betas) != 1:
            raise CrossCheckError(
                "gu-support", f"gu is not supported on one beta for g={g}")
        beta = betas.pop()
        zero = CycNumber.zero(m.p, m.level)
        blocks[beta].append([gu.get((alpha, beta), zero)
                             for alpha in d.b_elements])
    rank = sum(_cyc_rank(rows) for rows in blocks.values())
    ok = rank == n
    record("gu-rank", ok, f"rank of the |p| x |p| coefficient matrix = "
           f"{rank}, dim V = {n}", t0)
    if not ok:
        report["counterexamples"].append(
            {"check": "gu-rank", "witness": {"rank": rank, "dim": n}})

    t0 = time.perf_counter()
    ok = True
    bad = None
    scale = Fraction(1, card)
    for beta0 in d.b_elements:
        lifted = d.s[beta0]
        acc = {}
        for a_el in d.a.elements():
            g = ring.add(lifted, a_el)
            gu = _apply_monomial(d, _gamma_monomial(d, g), u)
            for pair, c in gu.items():
                term = c.mul_root(-m.q_num(g))
                got = acc.get(pair)
                acc[pair] = term if got is None else got + term
        acc = {pair: c.mul_root(m.q_num(lifted)).scale(scale)
               for pair, c in acc.items()}
        acc = {pair: c for pair, c in acc.items() if not c.is_zero()}
        want = basis_vector(d, beta0, beta0)
        if acc != want:
            ok, bad = False, beta0
            break
    record("h-beta", ok, "h_{beta0} u = 1_{beta0,beta0} for every beta0", t0)
    if bad is not None:
        report["counterexamples"].append({"check": "h-beta", "witness": bad})

    t0 = time.perf_counter()
    g_sum = gauss_sum(m)
    ok = g_sum.is_rational() and g_sum.rational_value() == card
    record("gauss-card", ok, f"G = {g_sum}, Card(a) = {card}", t0)
    if not ok:
        report["counterexamples"].append(
            {"check": "gauss-card", "witness": str(g_sum)})

    t0 = time.perf_counter()
    lhs = eta_override if eta_override is not None else _monomial_rows(d, eta_op)
    rhs = qhat_matrix(d)
    bad = None
    for i in range(n):
        for j in range(n):
            if lhs[i][j] != rhs[i][j]:
                bad = {"row": d.pairs[i], "col": d.pairs[j],
                       "eta": lhs[i][j].serialize(),
                       "qhat": rhs[i][j].serialize()}
                break
        if bad:
            break
    record("theorem1", bad is None,
           f"eta = q-hat as {n} x {n} matrices", t0)
    if bad:
        report["counterexamples"].append({"check": "theorem1", "witness": bad})

    report["pass"] = all(c["status"] == "PASS" for c in report["checks"])
    return report


def build_hyperbolic(p, k, r, section_seed=None, name=None):
    """Hyperbolic bundle: p = a + b abelian of rank 2r over Z/p^k, q the
    evaluation pairing q((a, b)) = <a, b>/p^k, a = the first r coordinates.

    The default section is the coordinate lift; a seeded section adds a
    random ideal component to every nonzero coset representative, which
    must not change any verification verdict.
    """
    rank = 2 * r
    ring = LieRing(p, k, rank, {}, name=name or f"hyp({p}^{k})x{r}")
    a = Subring(ring, [ring.basis(i) for i in range(r)])
    zero = QpModZp(p, 0, 1)
    q_gens = [zero] * rank
    gram = [[zero] * rank for _ in range(rank)]
    val = QpModZp(p, 1, k)
    for i in range(r):
        gram[i][r + i] = gram[r + i][i] = val
    metric = MetricGroup(p, [k] * rank, q_gens, gram, name=f"ev/{p}^{k}")
    section = None
    if section_seed is not None:
        rng = random.Random(section_seed)
        d0 = VModelData(ring, a, metric)
        section = {}
        for beta in d0.b_elements:
            base = d0.lift(beta)
            if any(beta):
                noise = [rng.randrange(ring.pk) for _ in range(r)]
                base = ring.add(base, tuple(noise) + (0,) * r)
            section[beta] = base
    return VModelData(ring, a, metric, section=section,
                      name=name or f"hyp({p}^{k})x{r}"
                      + ("" if section_seed is None
                         else f"/s{section_seed}"))


# plain-text serialization: embedded ring block, ideal generators, metric
# data on the ring's basis, optional explicit section table

def serialize_vmodel(d):
    lines = [f"vmodel {d.name}"]
    lines.append(serialize_ring(d.ring).rstrip("\n"))
    for g in d.a.generators():
        lines.append("a " + " ".join(str(c) for c in g))
    lines.append("q " + " ".join(str(v) for v in d.metric.q_gens))
    for row in d.metric.gram:
        lines.append("B " + " ".join(str(v) for v in row))
    default = {beta: d.lift(beta) for beta in d.b_elements}
    if d.s != default:
        for beta in d.b_elements:
            lines.append("s " + " ".join(str(c) for c in beta) + " -> "
                         + " ".join(str(c) for c in d.s[beta]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_vmodel(text):
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("vmodel"):
        raise ValueError("v-model file must start with a 'vmodel' line")
    name = lines[0].split(maxsplit=1)[1] if " " in lines[0] else "unnamed"
    if len(lines) < 2 or not lines[1].startswith("ring"):
        raise ValueError("expected an embedded ring block")
    stop = next((i for i, ln in enumerate(lines) if ln == "end"), None)
    if stop is None:
        raise ValueError("embedded ring block has no 'end'")
    ring = parse_ring("\n".join(lines[1:stop + 1]))
    a_rows = []
    q_vals = None
    b_rows = []
    s_lines = []
    for ln in lines[stop + 1:]:
        parts = ln.split()
        if parts[0] == "end":
            break
        if parts[0] == "a":
            a_rows.append(tuple(int(c) for c in parts[1:]))
        elif parts[0] == "q":
            q_vals = parts[1:]
        elif parts[0] == "B":
            b_rows.append(parts[1:])
        elif parts[0] == "s":
            s_lines.append(ln)
        else:
            raise ValueError(f"unknown line {ln!r}")
    else:
        raise ValueError("missing final 'end' line")
    if not a_rows or q_vals is None or not b_rows:
        raise ValueError("missing a, q, or B data")
    a = Subring(ring, a_rows)
    metric = MetricGroup(ring.p, [ring.k] * ring.rank, q_vals, b_rows,
                         name=f"metric({name})")
    section = None
    if s_lines:
        section = {}
        for ln in s_lines:
            head, _, tail = ln[2:].partition("->")
            beta = tuple(int(c) % ring.pk for c in head.split())
            section[beta] = tuple(int(c) % ring.pk for c in tail.split())
    return VModelData(ring, a, metric, section=section, name=name)
