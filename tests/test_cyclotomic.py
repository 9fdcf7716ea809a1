import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from orbitlab.arith import QpModZp
from orbitlab.cyclotomic import (CycNumber, cyc_embed, embed_exponent,
                                 from_rows, same_values, to_rows)


def test_power_basis_length():
    assert len(CycNumber.root(3, 2, 1).coeffs) == 6  # phi(9)
    assert len(CycNumber.root(5, 1, 1).coeffs) == 4
    assert len(CycNumber.root(7, 1, 3).coeffs) == 6


def test_root_of_unity_order():
    z = CycNumber.root(3, 2, 1)
    acc = CycNumber.one(3, 2)
    for _ in range(9):
        acc = acc * z
    assert acc == CycNumber.one(3, 2)
    # and no earlier power is 1
    acc = CycNumber.one(3, 2)
    for _ in range(8):
        acc = acc * z
        assert acc != CycNumber.one(3, 2)


def test_full_sum_vanishes():
    # 1 + zeta + ... + zeta^(n-1) = 0, the defining relation's consequence
    for p, m in ((3, 1), (3, 2), (5, 1), (7, 1)):
        n = p**m
        s = CycNumber.zero(p, m)
        for e in range(n):
            s = s + CycNumber.root(p, m, e)
        assert s.is_zero()


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_root_exponent_addition(a, b):
    za, zb = CycNumber.root(3, 2, a), CycNumber.root(3, 2, b)
    assert za * zb == CycNumber.root(3, 2, a + b)
    assert za.mul_root(b) == CycNumber.root(3, 2, a + b)


@given(st.integers(-20, 20), st.integers(1, 8), st.integers(1, 8))
def test_galois_composition(e, s, t):
    z = CycNumber.root(3, 2, e).scale(Fraction(2, 7)) + CycNumber.one(3, 2)
    if s % 3 == 0 or t % 3 == 0:
        return
    assert z.galois(s).galois(t) == z.galois(s * t)
    assert z.galois(1) == z


def test_conj_on_roots():
    z = CycNumber.root(5, 1, 2)
    assert z.conj() == CycNumber.root(5, 1, -2)
    w = z + CycNumber.root(5, 1, 1).scale(3)
    assert w.conj().conj() == w


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=4,
                max_size=4))
def test_inverse_is_two_sided(coeffs):
    x = CycNumber(5, 1, coeffs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    one = CycNumber.one(5, 1)
    assert x * x.inverse() == one
    assert x.inverse() * x == one


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=6),
                         min_size=6, max_size=6), min_size=1, max_size=4))
def test_exponent_rows_round_trip(rows):
    values = [CycNumber(3, 2, row) for row in rows]
    h, den = to_rows(values, 3, 2)
    assert h.shape == (len(values), 9)
    assert np.gcd.reduce(np.append(h.ravel(), den)) == 1  # lowest terms
    assert from_rows(h, den, 3, 2) == values
    # the same values over a doubled denominator are still equal
    assert same_values(h, den, 2 * h, 2 * den, 3, 2).all()


def test_exponent_rows_vanish_exactly_on_class_constants():
    # sum_e h[e] zeta^e = 0 in Q(zeta_9) iff h is constant mod 3
    for h in ([1] * 9, [2, 5, 7] * 3, [0] * 9):
        assert same_values(np.array(h), 1, np.zeros(9, int), 1, 3, 2)
    for h in ([1] * 8 + [0], [2, 5, 7] * 2 + [2, 5, 8]):
        assert not same_values(np.array(h), 1, np.zeros(9, int), 1, 3, 2)


def test_same_values_exact_beyond_int64():
    # 1/2^32 and (2^32 + 1)/2^32 cross-multiply to values 2^64 apart, which
    # int64 arithmetic would wrap onto each other
    one = np.array([[1, 0, 0]])
    assert one.dtype == np.int64
    assert not same_values(one, 2**32, one * (2**32 + 1), 2**32, 3, 1)[0]
    assert same_values(one * 2**31, 2**63, one, 2**32, 3, 1)[0]
    # an object array on either side
    x = CycNumber(3, 1, [2**40 + 1, -3])
    hx, dx = to_rows([x], 3, 1)
    hz, dz = to_rows([x.scale(2**30)], 3, 1)
    assert hx.dtype == np.int64 and hz.dtype == object
    assert same_values(hz, dz * 2**30, hx, dx, 3, 1)[0]
    assert not same_values(hz, dz, hx, dx, 3, 1)[0]


def test_rational_detection():
    x = CycNumber.rational(3, 1, Fraction(7, 2))
    assert x.is_rational() and x.rational_value() == Fraction(7, 2)
    z = CycNumber.root(3, 1, 1)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()
    # zeta + zeta^2 = -1 in Q(zeta_3): rationality after reduction
    s = CycNumber.root(3, 1, 1) + CycNumber.root(3, 1, 2)
    assert s.rational_value() == Fraction(-1)


def test_mixed_conductors_rejected():
    with pytest.raises(ValueError):
        CycNumber.one(3, 1) + CycNumber.one(3, 2)
    with pytest.raises(ValueError):
        CycNumber.one(3, 1) * CycNumber.one(5, 1)


def test_embedding_is_additive_to_multiplicative():
    # psi(u + v) = psi(u) psi(v) across mixed levels
    cases = [((1, 1), (1, 2)), ((2, 2), (4, 2)), ((1, 1), (8, 2))]
    for (anum, alev), (bnum, blev) in cases:
        u, v = QpModZp(3, anum, alev), QpModZp(3, bnum, blev)
        lhs = cyc_embed(u + v, 3, 2)
        rhs = cyc_embed(u, 3, 2) * cyc_embed(v, 3, 2)
        assert lhs == rhs


def test_embed_exponent_matches_embedding():
    for num in range(9):
        v = QpModZp(3, num, 2)
        e = embed_exponent(v, 2)
        assert cyc_embed(v, 3, 2) == CycNumber.root(3, 2, e)
    with pytest.raises(ValueError):
        embed_exponent(QpModZp(3, 1, 2), 1)


def test_serialize_shows_conductor():
    z = CycNumber.root(3, 2, 4).scale(Fraction(1, 3))
    text = z.serialize()
    assert text.startswith("9:")
    assert text.count(",") == 5
    # byte for byte, with fractional coefficients, as the Fraction-based
    # engine printed them
    assert text == "9:0,0,0,0,1/3,0"
    assert repr(z) == "1/3*z^4"
    w = (CycNumber.root(5, 1, 1).scale(Fraction(2, 3))
         + CycNumber.one(5, 1)).inverse()
    assert w.serialize() == "5:39/55,-42/55,12/55,-24/55"
    assert repr(w) == "39/55*z^0 + -42/55*z^1 + 12/55*z^2 + -24/55*z^3"
    v = (CycNumber.root(3, 2, 1)
         + CycNumber.rational(3, 2, Fraction(-1, 2))).inverse()
    assert v.serialize() == "9:-18/73,-36/73,-72/73,-16/73,-32/73,-64/73"
    assert repr(v) == ("-18/73*z^0 + -36/73*z^1 + -72/73*z^2 + -16/73*z^3 "
                       "+ -32/73*z^4 + -64/73*z^5")
    assert repr(CycNumber.zero(3, 2)) == "0"
    assert CycNumber.zero(3, 2).serialize() == "9:0,0,0,0,0,0"


# -- the integer representation against a slow Fraction reference -----------

def _ref_reduce(poly, p, m):
    """Fraction polynomial (low degree first) modulo the p^m-th cyclotomic
    polynomial sum_{j<p} x^(j*p^(m-1)), by long division from the top."""
    s = p ** (m - 1)
    phi = (p - 1) * s
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * phi
    for d in range(len(poly) - 1, phi - 1, -1):
        c = poly[d]
        if c:
            for j in range(p):
                poly[d - phi + j * s] -= c
    return tuple(poly[:phi])


def _ref_monomials(coeffs, exponent, p, m):
    """sum of coeffs[i] x^exponent(i), reduced."""
    n = p**m
    poly = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        poly[exponent(i) % n] += c
    return _ref_reduce(poly, p, m)


def _ref_mul(a, b, p, m):
    poly = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            poly[i + j] += x * y
    return _ref_reduce(poly, p, m)


CONDUCTORS = [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]
_COEFF = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                   st.fractions(min_value=-4, max_value=4,
                                max_denominator=30))


@st.composite
def _cyc_pair(draw):
    p, m = draw(st.sampled_from(CONDUCTORS))
    phi = (p - 1) * p ** (m - 1)
    vec = st.lists(_COEFF, min_size=phi, max_size=phi)
    return p, m, draw(vec), draw(vec)


@settings(max_examples=150, deadline=None)
@given(_cyc_pair(), st.integers(-60, 60), st.integers(-60, 60),
       st.fractions(min_value=-5, max_value=5, max_denominator=40))
def test_ops_match_fraction_reference(case, e, t, x):
    p, m, a, b = case
    if t % p == 0:
        t += 1
    u, v = CycNumber(p, m, a), CycNumber(p, m, b)
    ra, rb = u.coeffs, v.coeffs
    assert ra == tuple(Fraction(c) for c in a)
    assert (u + v).coeffs == tuple(i + j for i, j in zip(ra, rb))
    assert (u - v).coeffs == tuple(i - j for i, j in zip(ra, rb))
    assert (-u).coeffs == tuple(-i for i in ra)
    assert u.scale(x).coeffs == tuple(i * x for i in ra)
    assert (u * v).coeffs == _ref_mul(ra, rb, p, m)
    assert u.mul_root(e).coeffs == _ref_monomials(ra, lambda i: i + e, p, m)
    assert u.galois(t).coeffs == _ref_monomials(ra, lambda i: i * t, p, m)
    assert u.conj().coeffs == _ref_monomials(ra, lambda i: -i, p, m)
    assert CycNumber.root(p, m, e).coeffs == \
        _ref_monomials([Fraction(1)], lambda i: e, p, m)


@settings(max_examples=40, deadline=None)
@given(_cyc_pair())
def test_inverse_matches_fraction_reference(case):
    p, m, a, _ = case
    u = CycNumber(p, m, a)
    if u.is_zero():
        with pytest.raises(ZeroDivisionError):
            u.inverse()
        return
    one = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    assert _ref_mul(u.coeffs, u.inverse().coeffs, p, m) == one


@settings(max_examples=150, deadline=None)
@given(_cyc_pair(), st.integers(1, 12), st.integers(-12, 12))
def test_equal_values_have_equal_hashes(case, d, k):
    p, m, a, b = case
    x, y = CycNumber(p, m, a), CycNumber(p, m, b)
    routes = [
        (x + y) - y,
        CycNumber(p, m, x.coeffs),
        x.scale(Fraction(k * d, d)).scale(Fraction(1, k)) if k else x,
        (x - x) + x,
        x.mul_root(k).mul_root(-k),
        x.scale(Fraction(1, d)) * CycNumber.rational(p, m, d),
    ]
    for z in routes:
        assert z == x and hash(z) == hash(x)
    assert x.scale(Fraction(2, 4)) == x.scale(Fraction(1, 2))
    assert hash(x.scale(Fraction(2, 4))) == hash(x.scale(Fraction(1, 2)))
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x - x) == CycNumber.zero(p, m)
    assert hash(x - x) == hash(CycNumber.zero(p, m))


def test_copies_keep_their_conductor():
    x = CycNumber.root(5, 2, 7).scale(Fraction(3, 4))
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)
        assert y + x == x.scale(2)
