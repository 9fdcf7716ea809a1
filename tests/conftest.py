import time
from contextlib import contextmanager

import numpy as np
import pytest

from orbitlab.arith import Modulus, QpModZp, howell
from orbitlab.cyclotomic import CycNumber, _conductor, from_rows, to_rows
from orbitlab.lazard import (CrossCheckError, LieRing, Subring, catalog,
                             exp_mul, series_program)
from orbitlab import metric, vmodel
from orbitlab.metric import MetricGroup, _transform
from orbitlab.vmodel import VModelData, VModelError


@pytest.fixture(scope="session")
def rings():
    return catalog()


@contextmanager
def budget(seconds):
    """Wall-clock limit on the block, asserted after it has run, so that a
    slow run never masks a wrong answer."""
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds}s"


def hyperbolic_metric(p, k, r, name=None):
    """Evaluation pairing on b + b^ with b = (Z/p^k)^r: q = 0 on generators,
    B(e_i, e_{r+i}) = 1/p^k.  The first r coordinates span a Lagrangian."""
    rank = 2 * r
    zero = QpModZp(p, 0, 1)
    q_gens = [zero] * rank
    gram = [[zero] * rank for _ in range(rank)]
    val = QpModZp(p, 1, k)
    for i in range(r):
        gram[i][r + i] = gram[r + i][i] = val
    return MetricGroup(p, [k] * rank, q_gens, gram,
                       name=name or f"hyp({p}^{k})x{r}")


def quadratic_metric(p):
    """Z/p with q(x) = x^2/p, the rank-one nondegenerate example."""
    return MetricGroup(p, (1,), [f"1/{p}"], [[f"2/{p}"]], name=f"x^2/{p}")


def zero_metric(p, exponents):
    """q = B = 0 on the sum of Z/p^k over exponents: every subgroup is
    isotropic."""
    n = len(exponents)
    return MetricGroup(p, exponents, ["0/1"] * n, [["0/1"] * n] * n)


def count_subring_builds(monkeypatch):
    """A list that gains one entry per Subring that metric builds."""
    builds = []

    class Counted(Subring):
        def __init__(self, ring, generators):
            builds.append(None)
            super().__init__(ring, generators)

    monkeypatch.setattr(metric, "Subring", Counted)
    return builds


def cotangent_h3(q_e2=0):
    """T*h3 over Z/3, the cotangent double of the Heisenberg ring
    (Medina-Revoy, "Algebres de Lie et produit scalaire invariant", 1985):
    rank 6 with [e0,e1] = e2, [e0,e5] = -e4 and [e1,e5] = e3, so that
    <e3, e4, e5> is h3's coadjoint module.  B(e_i, e_{i+3}) = 1/3, q = 0
    on the generators and a = <e3, e4, e5>.  q_e2 sets q(e2) = q_e2/3,
    with B_22 = 2 q(e2); any nonzero value breaks conjugation invariance,
    which no abelian bundle can."""
    ring = LieRing(3, 1, 6, {(0, 1): (0, 0, 1, 0, 0, 0),
                             (0, 5): (0, 0, 0, 0, -1, 0),
                             (1, 5): (0, 0, 0, 1, 0, 0)}, name="T*h3/Z3")
    zero = QpModZp(3, 0, 1)
    q_gens = [zero] * 6
    q_gens[2] = QpModZp(3, q_e2, 1)
    gram = [[zero] * 6 for _ in range(6)]
    gram[2][2] = q_gens[2].scale(2)
    for i in range(3):
        gram[i][i + 3] = gram[i + 3][i] = QpModZp(3, 1, 1)
    metric = MetricGroup(3, (1,) * 6, q_gens, gram, name="T*h3 pairing")
    a = Subring(ring, [ring.basis(i) for i in (3, 4, 5)])
    return VModelData(ring, a, metric, name="T*h3/Z3")


def transform_values(m, values, sign, scale=1):
    """metric._transform on {element: CycNumber}, missing elements zero,
    divided by scale: {b: CycNumber} over every b.  sign -1 is the Fourier
    transform, sign 1 with scale |p| its inverse."""
    zero = CycNumber.zero(m.p, m.level)
    h, den = to_rows([values.get(x, zero) for x in m.elements()], m.p,
                     m.level, terms=m.size() * m.modulus)
    return dict(zip(m.elements(), from_rows(_transform(m, h, sign),
                                            den * scale, m.p, m.level)))


def cyc_rank(rows):
    """Rank over the cyclotomic field of a list of CycNumber rows, by
    Gauss-Jordan elimination with exact inverses: the oracle for
    cyclotomic.rank."""
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


def fl_rank(h, p, m):
    """Rank over Q(zeta_{p^m}) of one (r, c, p^m) block in the exponent
    format, from Howell forms over F_l (arith.howell on Python ints) for
    the primes l of _Conductor.primes until full rank or the norm bound:
    the former per-block route of cyclotomic.rank, kept as its oracle."""
    ctx = _conductor(p, m)
    full = min(h.shape[:2])
    best, prod, bound = 0, 1, None
    for ell, powers in ctx.primes():
        if best == full:
            break
        if prod > 1:
            if bound is None:
                l1 = np.abs(h.astype(object)).sum(axis=-1)
                bound = max((l1 * l1).sum(axis=1).tolist(),
                            default=0) ** (full * ctx.phi)
            if prod * prod > bound:
                break
        rows = ((h % ell).astype(object) @ powers.astype(object)
                % ell).tolist()
        best = max(best, len(howell(rows, Modulus(ell, 1))))
        prod *= ell
    return best


def eta_monomial_oracle(d):
    """The twist on the scalar series path, one basis vector at a time:
    the oracle for the batch-built vmodel._eta_monomial, with its error
    texts and order."""
    ring, m = d.ring, d.metric
    phi = series_program(d.b, "phi").scalar
    perm = [0] * d.dim()
    expo = [0] * d.dim()
    for i, (alpha, beta) in enumerate(d.pairs):
        ab = exp_mul(d.b, alpha, beta)
        delta = ring.add(exp_mul(ring, d.s[alpha], d.s[beta]),
                         ring.neg(d.s[ab]))
        if not d.a.contains(delta):
            raise VModelError(
                "twist-data",
                f"s(alpha) s(beta) - s(alpha beta) = {delta} is outside "
                f"the ideal for alpha={alpha}, beta={beta}")
        w = phi(alpha, ab)
        perm[i] = d.index[(alpha, ab)]
        expo[i] = (m.b_num(delta, d.s[w]) - m.q_num(d.s[alpha])) % m.modulus
        if beta == d.b.zero():
            if any(delta) or ab != alpha or \
                    expo[i] != -m.q_num(d.s[alpha]) % m.modulus:
                raise CrossCheckError(
                    "twist-beta0", f"twist formula fails its beta = 0 "
                    f"specialization at alpha={alpha}")
    return tuple(perm), tuple(expo)


def move_qhat_coefficient(monkeypatch, g):
    """Make theorem1 read c_g + 1 in place of the q-hat coefficient c_g;
    returns the patched q-hat rows, m -> (h, den)."""
    qhat_rows = vmodel._qhat_rows

    def moved(m):
        c, den = qhat_rows(m)
        c = c.copy()
        c[sum(x * w for x, w in zip(g, m._strides)), 0] += den
        return c, den

    monkeypatch.setattr(vmodel, "_qhat_rows", moved)
    return moved
