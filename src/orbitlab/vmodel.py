"""Finite model of the module V carrying the twist.

The input bundle is a nilpotent Lie ring p with group Gamma = Exp(p), a
Lagrangian abelian ideal a for a conjugation-invariant metric q on p's
additive group, and a section s of the projection onto b = p/a.  V has
basis {1_{alpha,beta}} indexed by b x b; Gamma acts by monomial matrices,
the twist eta is another monomial operator, and verify_ribbon checks the
ribbon identity eta = q-hat exactly in cyclotomic arithmetic, alongside
the action axioms, the gu spanning lemma, the h_{beta0} reconstruction,
and the Gauss sum evaluation.

gamma is built for all of Gamma at once from the batch kernels, as two
(|p|, dim V) arrays (perm, expo), and every check reads those arrays; eta
is built one basis vector at a time, so Theorem 1 never compares gamma
with itself.  Theorem 1 compares eta with q-hat = sum_g c_g gamma(g) as
integer arrays over the exponents of zeta (cyclotomic's exponent format).
The gu spanning lemma and the h_{beta0} reconstruction read gamma(g) u,
u = sum_alpha 1_{alpha,0}, off the (alpha, 0) columns of the arrays; the
rank over Q(zeta) that the lemma needs is cyclotomic.rank, a Howell rank
modulo primes l = 1 (mod N) made exact by a norm bound.  The action
axiom is checked from generators: the Exp(e_t) generate the finite group
Gamma, each of finite order, so every g is a word Exp(e_t1) ... Exp(e_tr)
without inverses.  If gamma(0) = id and gamma(e_t h) = gamma(e_t) gamma(h)
for every t and h, induction on the word length gives gamma(g h) =
gamma(g) gamma(h) for all g and h; so rank * |p| comparisons make the
check exhaustive.
"""

from __future__ import annotations

import itertools
import random
import time
from math import isqrt

import numpy as np

from .arith import QpModZp, reduce_rows
from .cyclotomic import (CycNumber, from_rows, rank as cyc_rank, same_values,
                         to_rows)
from .lazard import (CrossCheckError, LieRing, Subring, all_elements,
                     batch_conjugate, batch_exp_mul, conjugate, element_index,
                     exp_mul, orthogonal, parse_ring, quotient_ring,
                     serialize_ring, series_program)
from .metric import MetricGroup, gauss_sum, ribbon_qhat


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
            missing = next((beta for beta in belems if beta not in section),
                           None)
            if missing is not None:
                raise ValueError(f"the section misses the coset {missing}")
            self.s = {beta: tuple(int(c) % ring.pk for c in section[beta])
                      for beta in belems}
        self.pairs = [(alpha, beta) for alpha in belems for beta in belems]
        self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self._validated = False
        self._gamma = None

    def dim(self):
        return len(self.pairs)

    def _phi_b(self, x, y):
        """Phi(x, y) in b, from b's compiled series program."""
        return series_program(self.b, "phi").scalar(x, y)

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
    # metric-shape puts B at level k, so m._b is the Gram matrix mod p^k;
    # a is isotropic, so a <= a^perp and equal Howell rows decide a = a^perp
    perp = orthogonal(ring, m._b, gens)
    if perp.rows != a.rows:
        x = next(r for r in perp.generators() if not a.contains(r))
        raise VModelError(
            "lagrangian", f"{x} pairs to zero with a but lies outside")
    for t in range(ring.rank):
        g = ring.basis(t)
        for x in ring.elements():
            gx = conjugate(ring, g, x)
            if m.q_num(gx) != m.q_num(x):
                raise VModelError(
                    "invariance",
                    f"q(Exp(e_{t}) {x} Exp(e_{t})^-1) = {m.q(gx)} != "
                    f"q({x}) = {m.q(x)}")
    if any(d.s[d.b.zero()]):
        raise VModelError("section", f"s(0) = {d.s[d.b.zero()]} != 0")
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

def _gamma_arrays(d):
    """(perm, expo), two (|p|, dim V) arrays cached on the model: row r is
    gamma(Exp(g)) for g = all_elements(ring)[r], sending basis vector i to
    zeta^expo[r, i] times basis vector perm[r, i].  validate_data's
    metric-shape check bounds |p| by ORDER_CAP, so the Gram products,
    reduced after each one, cannot overflow int64."""
    if d._gamma is not None:
        return d._gamma
    ring, b, a, m = d.ring, d.b, d.a, d.metric
    nb = len(d.b_elements)
    G = all_elements(ring)
    S = np.array([d.s[beta] for beta in d.b_elements], dtype=np.int64)
    free = [j for j in range(ring.rank) if j not in dict(a.pivots)]

    def project(X):  # index in b_elements of each row's coset
        return element_index(
            b, reduce_rows(X, a.rows, ring.modulus, a.pivots)[:, free])

    # row g * nb + beta: g s(beta), g beta and delta = g s(beta) - s(g beta)
    gs = batch_exp_mul(ring, np.repeat(G, nb, axis=0), np.tile(S, (len(G), 1)))
    gbeta = project(gs)
    delta = (gs - S[gbeta]) % ring.pk
    outside = np.flatnonzero(~a.contains_rows(delta))
    if outside.size:
        r = int(outside[0])
        raise VModelError(
            "action-data",
            f"g s(beta) - s(g beta) = {tuple(delta[r].tolist())} is outside "
            f"the ideal for g={tuple(G[r // nb].tolist())}, "
            f"beta={d.b_elements[r % nb]}")
    # tables over b x b, row x * nb + y
    X = np.repeat(all_elements(b), nb, axis=0)
    Y = np.tile(all_elements(b), (nb, 1))
    via_ad = batch_conjugate(b, X, Y)
    via_mul = batch_exp_mul(b, batch_exp_mul(b, X, Y), -X)
    split = np.flatnonzero((via_ad != via_mul).any(axis=1))
    if split.size:
        x, y, u, v = (tuple(W[int(split[0])].tolist())
                      for W in (X, Y, via_mul, via_ad))
        raise CrossCheckError(
            "conjugation", f"conjugation routes disagree at g={x}, x={y}: "
            f"{u} vs {v}")
    conj = element_index(b, via_ad).reshape(nb, nb)
    phi = element_index(b, series_program(b, "phi").batch(b, X, Y))
    # axes (g, alpha, beta)
    galpha = conj[project(G)][:, :, None]
    gbeta = gbeta.reshape(len(G), 1, nb)
    w = phi.reshape(nb, nb)[galpha, gbeta]
    E = [ring.basis(i) for i in range(ring.rank)]
    gram = np.array([[m.b_num(x, y) for y in E] for x in E], dtype=np.int64)
    # pairing[g * nb + beta, w] = B(delta, s(w))
    pairing = (delta @ gram % m.modulus) @ S.T % m.modulus
    expo = pairing[np.arange(len(G) * nb).reshape(len(G), 1, nb), w]
    d._gamma = ((galpha * nb + gbeta).reshape(len(G), -1),
                expo.reshape(len(G), -1))
    return d._gamma


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


def eta_matrix(d):
    """Dense column-convention matrix of the twist: column i holds the
    image of basis vector i."""
    _require_valid(d)
    perm, expo = _eta_monomial(d)
    n = d.dim()
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][i] = CycNumber.root(d.metric.p, d.metric.level, expo[i])
    return rows


def _qhat_exponents(d):
    """(h, den): q-hat's matrix in the exponent format, h of shape
    (dim V, dim V, N) over one denominator.  q-hat = sum_g c_g gamma(g)
    puts c_g zeta^expo_g[i] at (perm_g[i], i); the c_g come from
    ribbon_qhat, which cross-checks the closed form against the Fourier
    definition."""
    m, n = d.metric, d.dim()
    coeffs = ribbon_qhat(m)
    c, den = to_rows(list(coeffs.values()), m.p, m.level,
                     terms=len(coeffs) * m.modulus)
    perm, expo = _gamma_arrays(d)
    rows = element_index(d.ring, list(coeffs))
    perm, expo = perm[rows], expo[rows]
    h = np.zeros(n * n * m.modulus, dtype=c.dtype)
    at = (perm * n + np.arange(n)) * m.modulus
    for e in np.flatnonzero(c.any(axis=0)):
        np.add.at(h, at + (expo + e) % m.modulus, c[:, e:e + 1])
    return h.reshape(n, n, m.modulus), den


def qhat_matrix(d):
    """Matrix of the central element q-hat acting through gamma, from the
    same exponent arrays as theorem1."""
    _require_valid(d)
    h, den = _qhat_exponents(d)
    return from_rows(h, den, d.metric.p, d.metric.level)


def _action_witness(d, elements):
    """None when gamma(0) = id and gamma(e_t h) = gamma(e_t) gamma(h) for
    every t and h, else ("unit",) or the first failing (e_t, h)."""
    ring, mod = d.ring, d.metric.modulus
    perm, expo = _gamma_arrays(d)
    if (perm[0] != np.arange(d.dim())).any() or expo[0].any():
        return ("unit",)
    for t in range(ring.rank):
        e_t = ring.basis(t)
        r = element_index(ring, [e_t])[0]
        prod = element_index(ring, batch_exp_mul(
            ring, np.broadcast_to(e_t, elements.shape), elements))
        same = ((perm[prod] == perm[r][perm])
                & (expo[prod] == (expo + expo[r][perm]) % mod))
        bad = np.flatnonzero(~same.all(axis=1))
        if bad.size:
            return e_t, tuple(elements[bad[0]].tolist())
    return None


def verify_ribbon(d, eta_override=None):
    """Run the full verification suite; returns a report with one entry
    per sub-identity and collects counterexamples instead of raising.

    Every check is exhaustive.  The action axiom is checked from the
    generators: gamma(0) = id and gamma(e_t h) = gamma(e_t) gamma(h) for
    every basis element e_t and every h make gamma a homomorphism, since
    every group element is a word in the Exp(e_t) (module docstring).

    eta_override substitutes a foreign matrix for the twist in the final
    comparison, for negative-control experiments.
    """
    _require_valid(d)
    ring, m = d.ring, d.metric
    n = d.dim()
    card = isqrt(ring.size())
    report = {"name": d.name, "order": ring.size(), "dim": n, "checks": [],
              "counterexamples": []}

    def record(name, detail, t0, witness=None):
        report["checks"].append(
            {"check": name, "status": "PASS" if witness is None else "FAIL",
             "detail": detail, "seconds": round(time.perf_counter() - t0, 3)})
        if witness is not None:
            report["counterexamples"].append({"check": name, "witness": witness})

    elements = all_elements(ring)

    t0 = time.perf_counter()
    record("action", f"unit and composition, exhaustive ({ring.rank} "
           f"generators x {len(elements)} elements)", t0,
           _action_witness(d, elements))

    t0 = time.perf_counter()
    perm, expo = _gamma_arrays(d)
    eta_op = _eta_monomial(d)
    ep, ee = (np.array(v, dtype=np.int64) for v in eta_op)
    same = ((ep[perm] == perm[:, ep])
            & ((expo + ee[perm]) % m.modulus == (ee + expo[:, ep]) % m.modulus))
    bad = np.flatnonzero(~same.all(axis=1))
    record("equivariance", "eta commutes with every group element", t0,
           tuple(elements[bad[0]].tolist()) if bad.size else None)

    t0 = time.perf_counter()
    # u = sum_alpha 1_{alpha,0}: gamma(g) u lives in the (alpha, 0) columns
    nb, N = len(d.b_elements), m.modulus
    target = perm[:, ::nb]
    beta = target % nb
    split = np.flatnonzero((beta != beta[:, :1]).any(axis=1))
    if split.size:
        raise CrossCheckError(
            "gu-support", f"gu is not supported on one beta for "
            f"g={tuple(elements[split[0]].tolist())}")
    # row g of block beta: the coefficients of gamma(g) u over alpha
    coeffs = np.zeros((len(elements), nb, N), dtype=np.int64)
    np.add.at(coeffs, (np.arange(len(elements))[:, None], target // nb,
                       expo[:, ::nb]), 1)
    rank = sum(cyc_rank(coeffs[beta[:, 0] == b], m.p, m.level)
               for b in range(nb))
    record("gu-rank", f"rank of the |p| x |p| coefficient matrix = {rank}, "
           f"dim V = {n}", t0,
           None if rank == n else {"rank": rank, "dim": n})

    t0 = time.perf_counter()
    # h_{beta0} u = sum over g = s(beta0) + x, x in a, of
    # zeta^(q(s(beta0)) - q(g)) gamma(g) u, one slab per beta0
    lifts = np.array([d.s[b] for b in d.b_elements], dtype=np.int64)
    A = d.a.members()
    G = ((lifts[:, None] + A) % ring.pk).reshape(-1, ring.rank)
    owner = np.repeat(np.arange(nb), len(A))  # the beta0 of each g
    q = np.array([m.q_num(x) for x in lifts.tolist() + G.tolist()])
    rows = element_index(ring, G)
    shift = (q[owner] - q[nb:])[:, None] + expo[rows, ::nb]
    acc = np.zeros((nb, n, N), dtype=np.int64)
    np.add.at(acc, (owner[:, None], perm[rows, ::nb], shift % N), 1)
    want = np.zeros_like(acc)
    want[np.arange(nb), np.arange(nb) * (nb + 1), 0] = card
    bad = np.flatnonzero(~same_values(acc, 1, want, 1, m.p, m.level)
                         .all(axis=1))
    record("h-beta", "h_{beta0} u = 1_{beta0,beta0} for every beta0", t0,
           d.b_elements[bad[0]] if bad.size else None)

    t0 = time.perf_counter()
    g_sum = gauss_sum(m)
    ok = g_sum.is_rational() and g_sum.rational_value() == card
    record("gauss-card", f"G = {g_sum}, Card(a) = {card}", t0,
           None if ok else str(g_sum))

    t0 = time.perf_counter()
    rhs, rden = _qhat_exponents(d)
    if eta_override is None:
        lden = 1

        def lhs(i):
            # eta's row i: zeta^ee[j] in each column j with ep[j] = i
            row, cols = np.zeros_like(rhs[i]), np.flatnonzero(ep == i)
            row[cols, ee[cols]] = 1
            return row
    else:
        flat, lden = to_rows([v for row in eta_override for v in row],
                             m.p, m.level)
        lhs = lambda i: flat[i * n:(i + 1) * n]
    bad = None
    for i in range(n):
        # row by row, so that no dense copy of eta or of the cross-multiplied
        # difference is held
        lhs_i = lhs(i)
        cols = np.flatnonzero(~same_values(lhs_i, lden, rhs[i], rden,
                                           m.p, m.level))
        if cols.size:
            j = int(cols[0])
            bad = {"row": d.pairs[i], "col": d.pairs[j],
                   "eta": from_rows(lhs_i[j], lden, m.p, m.level).serialize(),
                   "qhat": from_rows(rhs[i, j], rden, m.p, m.level).serialize()}
            break
    record("theorem1", f"eta = q-hat as {n} x {n} matrices", t0, bad)

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
    a_rows, q_vals, b_rows, section = [], None, [], {}
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
            head, _, tail = ln[2:].partition("->")
            section[tuple(int(c) % ring.pk for c in head.split())] = tuple(
                int(c) % ring.pk for c in tail.split())
        else:
            raise ValueError(f"unknown line {ln!r}")
    else:
        raise ValueError("missing final 'end' line")
    if not a_rows or q_vals is None or not b_rows:
        raise ValueError("missing a, q, or B data")
    a = Subring(ring, a_rows)
    metric = MetricGroup(ring.p, [ring.k] * ring.rank, q_vals, b_rows,
                         name=f"metric({name})")
    return VModelData(ring, a, metric, section=section or None, name=name)
