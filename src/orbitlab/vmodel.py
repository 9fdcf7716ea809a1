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
is built from its own batch calls, never from the gamma arrays, so
Theorem 1 never compares gamma with itself.  Theorem 1, eta = q-hat =
sum_g c_g gamma(g), is decided on u = sum_alpha 1_{alpha,0} alone: if c
is a class function (invariant under conjugation by the generators
Exp(e_t)), q-hat commutes with gamma, as eta does (equivariance), so eta
u = q-hat u gives eta = q-hat on the gamma(g) u, which span V (gu-rank).
q-hat u, the gu spanning lemma and the h_{beta0} reconstruction read
gamma(g) u off the (alpha, 0) columns of the arrays, in cyclotomic's
exponent format (integer arrays over the exponents of zeta); the rank
over Q(zeta) that the lemma needs is cyclotomic.rank, one batched
elimination of every block modulo primes l = 1 (mod N), made exact per
block by a norm bound.  The action axiom is checked from generators: the
Exp(e_t) generate the finite group Gamma, each of finite order, so every
g is a word Exp(e_t1) ... Exp(e_tr) without inverses.  If gamma(0) = id
and gamma(e_t h) = gamma(e_t) gamma(h) for every t and h, induction on
the word length gives gamma(g h) = gamma(g) gamma(h) for all g and h; so
rank * |p| comparisons make the check exhaustive.
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
# exp_mul is unused here; perfbench's self-test reads vmodel.exp_mul
from .lazard import (CrossCheckError, LieRing, Subring, _reduced,
                     all_elements, batch_conjugate, batch_exp_mul,
                     element_index, exp_mul, orthogonal, quotient_ring,
                     read_format, serialize_ring, series_program)
from .metric import MetricGroup, _qhat_rows, gauss_sum


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
            self.s = {beta: _reduced(section[beta], ring.pk)
                      for beta in belems}
        self.pairs = [(alpha, beta) for alpha in belems for beta in belems]
        self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self._validated = False
        self._gamma = None
        self._conj = None

    def dim(self):
        return len(self.pairs)

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
    # metric-shape makes elements() of m the rows of all_elements(ring)
    G, qv = all_elements(ring), m.q_values
    in_a = np.sort(element_index(ring, a.members()))
    bad = in_a[qv[in_a] != 0]
    if bad.size:
        x = tuple(G[bad[0]].tolist())
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
    for t, moved in enumerate(_conjugations(d)):
        bad = np.flatnonzero(qv[moved] != qv)
        if bad.size:
            x, gx = (tuple(G[i].tolist()) for i in (bad[0], moved[bad[0]]))
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


def _conjugates(ring, G, X):
    """Rows Exp(g) Exp(x) Exp(g)^-1 from the exp(ad g) program, checked
    against the group law route (g x)(-g) as lazard.conjugate checks one
    pair; CrossCheckError at the first row where they split."""
    via_ad = batch_conjugate(ring, G, X)
    via_mul = batch_exp_mul(ring, batch_exp_mul(ring, G, X), -G)
    split = np.flatnonzero((via_ad != via_mul).any(axis=1))
    if split.size:
        g, x, u, v = (tuple(W[split[0]].tolist())
                      for W in (G, X, via_mul, via_ad))
        raise CrossCheckError(
            "conjugation", f"conjugation routes disagree at g={g}, x={x}: "
            f"{u} vs {v}")
    return via_ad


def _conjugations(d):
    """(rank, |p|) array cached on the model: row t holds the index in
    all_elements(ring) of Exp(e_t) g Exp(e_t)^-1 for each g, from one
    cross-checked _conjugates call over every generator."""
    if d._conj is None:
        ring = d.ring
        G = all_elements(ring)
        E = np.repeat(np.eye(ring.rank, dtype=np.int64), len(G), axis=0)
        d._conj = element_index(
            ring, _conjugates(ring, E, np.tile(G, (ring.rank, 1)))
        ).reshape(ring.rank, len(G))
    return d._conj


# operators on V are monomial: basis vectors map to root-of-unity multiples
# of basis vectors, so an operator is (permutation, exponent) arrays over
# the pair index, with exponents in Z/p^level of the metric conductor.

def _gamma_arrays(d):
    """(perm, expo), two (|p|, dim V) arrays cached on the model: row r is
    gamma(Exp(g)) for g = all_elements(ring)[r], sending basis vector i to
    zeta^expo[r, i] times basis vector perm[r, i].  validate_data's
    metric-shape check makes m._b the Gram matrix and bounds |p| by
    ORDER_CAP, so its products, reduced after each one, fit an int64."""
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
    conj = element_index(b, _conjugates(b, X, Y)).reshape(nb, nb)
    phi = element_index(b, series_program(b, "phi").batch(b, X, Y))
    # axes (g, alpha, beta)
    galpha = conj[project(G)][:, :, None]
    gbeta = gbeta.reshape(len(G), 1, nb)
    w = phi.reshape(nb, nb)[galpha, gbeta]
    gram = np.array(m._b, dtype=np.int64)
    # pairing[g * nb + beta, w] = B(delta, s(w))
    pairing = (delta @ gram % m.modulus) @ S.T % m.modulus
    expo = pairing[np.arange(len(G) * nb).reshape(len(G), 1, nb), w]
    d._gamma = ((galpha * nb + gbeta).reshape(len(G), -1),
                expo.reshape(len(G), -1))
    return d._gamma


def _eta_monomial(d):
    """(perm, expo), two tuples over the pair index: the twist sends
    1_{alpha,beta} to zeta^(B(delta, s(w)) - q(s(alpha))) 1_{alpha,
    alpha beta}, with delta = s(alpha) s(beta) - s(alpha beta) and w =
    Phi(alpha, alpha beta).  Built for every pair at once from its own
    batch calls, never from _gamma_arrays.  Raises at the first failing
    pair in d.pairs order, twist-data before twist-beta0 at one pair."""
    ring, b, m = d.ring, d.b, d.metric
    nb, N = len(d.b_elements), m.modulus
    B = all_elements(b)
    S = np.array([d.s[beta] for beta in d.b_elements], dtype=np.int64)
    # pair i = alpha * nb + beta, as in d.pairs
    alpha, beta = np.divmod(np.arange(nb * nb), nb)
    ab = element_index(b, batch_exp_mul(b, B[alpha], B[beta]))
    delta = (batch_exp_mul(ring, S[alpha], S[beta]) - S[ab]) % ring.pk
    w = element_index(b, series_program(b, "phi").batch(b, B[alpha], B[ab]))
    # metric-shape makes m._b the Gram matrix mod p^k and q_values' order
    # that of all_elements(ring)
    gram = np.array(m._b, dtype=np.int64)
    qs = m.q_values[element_index(ring, S)][alpha]
    expo = ((delta @ gram % N * S[w]).sum(axis=1) - qs) % N
    outside = ~d.a.contains_rows(delta)
    # the beta = 0 slice must collapse to the bare twist formula
    collapse = delta.any(axis=1) | (ab != alpha) | (expo != -qs % N)
    for i in np.flatnonzero(outside | ((beta == 0) & collapse))[:1]:
        pa, pb = d.pairs[i]
        if outside[i]:
            raise VModelError(
                "twist-data",
                f"s(alpha) s(beta) - s(alpha beta) = "
                f"{tuple(delta[i].tolist())} is outside the ideal for "
                f"alpha={pa}, beta={pb}")
        raise CrossCheckError(
            "twist-beta0", f"twist formula fails its beta = 0 "
            f"specialization at alpha={pa}")
    return tuple((alpha * nb + ab).tolist()), tuple(expo.tolist())


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

    theorem1 decides eta = q-hat on u (module docstring), together with
    the action, equivariance and gu-rank checks; its witness is (generator,
    element) where c is not a class function, or the first entry of eta u
    that q-hat u misses.  eta_override, a dense CycNumber matrix, is a
    foreign twist for negative controls: once eta = q-hat is proved, it is
    compared row by row with eta, and the witness is its first mismatch in
    row-major order, with q-hat's value there.  Each row is first compared
    by list == with eta's row, built from the shared CycNumber zero and
    roots (CycNumbers are in lowest terms, so equal values compare equal);
    only the first row that differs is read in the exponent format.
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
    # block beta has one row per g with gamma(g) u in coset beta: its
    # coefficients over alpha; shorter blocks are padded with zero rows,
    # which change no rank
    block = beta[:, 0]
    slot = np.cumsum(block[:, None] == np.arange(nb), axis=0)[
        np.arange(len(block)), block] - 1
    stack = np.zeros((nb, slot.max() + 1, nb, N), dtype=np.int64)
    np.add.at(stack, (block[:, None], slot[:, None], target // nb,
                      expo[:, ::nb]), 1)
    rank = sum(cyc_rank(stack, m.p, m.level))
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
    rows, q = element_index(ring, G), m.q_values
    q0 = q[element_index(ring, lifts)]  # q(s(beta0)) for each beta0
    shift = (q0[owner] - q[rows])[:, None] + expo[rows, ::nb]
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
    # q-hat = sum_g c_g gamma(g), c over all_elements(ring) order
    c, den = _qhat_rows(m)
    p, level = m.p, m.level
    bad = None
    for t, moved in enumerate(_conjugations(d)):
        split = np.flatnonzero(~same_values(c[moved], den, c, den, p, level))
        if split.size:
            bad = {"generator": ring.basis(t),
                   "element": tuple(elements[split[0]].tolist())}
            break
    if bad is None:
        # q-hat u and eta u from the (alpha, 0) columns of gamma and eta
        qhat_u = np.zeros(n * N, dtype=c.dtype)
        for e in np.flatnonzero(c.any(axis=0)):
            np.add.at(qhat_u, target * N + (expo[:, ::nb] + e) % N,
                      c[:, e:e + 1])
        qhat_u = qhat_u.reshape(n, N)
        eta_u = np.zeros((n, N), dtype=np.int64)
        eta_u[ep[::nb], ee[::nb]] = 1
        split = np.flatnonzero(~same_values(eta_u, 1, qhat_u, den, p, level))
        if split.size:
            i = int(split[0])
            bad = {"entry": d.pairs[i],
                   "eta_u": from_rows(eta_u[i], 1, p, level).serialize(),
                   "qhat_u": from_rows(qhat_u[i], den, p, level).serialize()}
    detail = (f"eta = q-hat: c a class function ({ring.rank} generators x "
              f"{len(elements)} elements), eta u = q-hat u ({n} entries)")
    if bad is None and eta_override is not None:
        detail += f", then the override against eta ({n} x {n})"
        zero, entries = CycNumber.zero(p, level), [[] for _ in range(n)]
        for j, (i, e) in enumerate(zip(*eta_op)):
            entries[i].append((j, CycNumber.root(p, level, e)))
        for i in range(n):
            # row by row, so that no dense copy of either matrix is held;
            # a row equal to eta's as a list has equal values
            eta_row = [zero] * n
            for j, v in entries[i]:
                eta_row[j] = v
            if list(eta_override[i]) == eta_row:
                continue
            row, lden = to_rows(eta_override[i], p, level)
            want = np.zeros((n, N), dtype=np.int64)
            cols = np.flatnonzero(ep == i)
            want[cols, ee[cols]] = 1
            split = np.flatnonzero(~same_values(row, lden, want, 1, p, level))
            if split.size:
                j = int(split[0])
                bad = {"row": d.pairs[i], "col": d.pairs[j],
                       "eta": eta_override[i][j].serialize(),
                       "qhat": from_rows(want[j], 1, p, level).serialize()}
                break
    record("theorem1", detail, t0, bad)

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
    name, (ring, *rows) = read_format(text, "vmodel", ("q",), with_ring=True)
    a_rows, q_vals, b_rows, section = [], None, [], {}
    for key, *values in rows:
        if key == "a":
            a_rows.append(tuple(int(c) for c in values))
        elif key == "q":
            q_vals = values
        elif key == "B":
            b_rows.append(values)
        elif key == "s":
            head, _, tail = " ".join(values).partition("->")
            beta = tuple(int(c) % ring.pk for c in head.split())
            if beta in section:
                raise ValueError(f"second 's' line for the coset {beta}")
            section[beta] = tuple(int(c) % ring.pk for c in tail.split())
        else:
            raise ValueError(f"malformed line {' '.join([key, *values])!r}")
    if not a_rows or q_vals is None or not b_rows:
        raise ValueError("missing a, q, or B data")
    a = Subring(ring, a_rows)
    metric = MetricGroup(ring.p, [ring.k] * ring.rank, q_vals, b_rows,
                         name=f"metric({name})")
    return VModelData(ring, a, metric, section=section or None, name=name)
