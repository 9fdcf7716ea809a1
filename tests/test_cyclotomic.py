import copy
import pickle
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import cyc_rank, fl_rank
from orbitlab import cyclotomic
from orbitlab.arith import QpModZp, is_prime
from orbitlab.cyclotomic import (CycNumber, _conductor, from_rows, rank,
                                 same_values, to_rows)


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


@st.composite
def _root_sum_matrix(draw, conductor=None, shape=None):
    """(h, p, m): an (r, c, p^m) matrix whose entries are sums of +-zeta^e,
    with some rows and then some columns replaced by zeta^a times one
    other line plus or minus zeta^b times another.  The conductor (p, m)
    and the shape (r, c) are drawn unless given."""
    p, m = conductor or draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (7, 1)]))
    n = p**m
    r, c = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    term = st.tuples(st.integers(0, n - 1), st.sampled_from([-1, 1]))
    h = np.zeros((r, c, n), dtype=np.int64)
    for i in range(r):
        for j in range(c):
            for e, sign in draw(st.lists(term, max_size=3)):
                h[i, j, e] += sign
    for axis, size in ((0, r), (1, c)):
        for _ in range(draw(st.integers(0, 3)) if size > 1 else 0):
            i = draw(st.integers(0, size - 1))
            others = st.sampled_from([x for x in range(size) if x != i])
            j, k = draw(others), draw(others)
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            sign = draw(st.sampled_from([-1, 1]))
            moved = (np.roll(h.take(j, axis), a, axis=-1)
                     + sign * np.roll(h.take(k, axis), b, axis=-1))
            if axis == 0:
                h[i] = moved
            else:
                h[:, i] = moved
    return h, p, m


@settings(max_examples=120, deadline=None)
@given(_root_sum_matrix())
def test_rank_matches_exact_elimination(case):
    h, p, m = case
    assert rank(h[None], p, m) == [cyc_rank(from_rows(h, 1, p, m))]


@st.composite
def _root_sum_stack(draw):
    """(h, p, m): a (B, r, c, p^m) stack of _root_sum_matrix blocks of one
    conductor and shape, with a full-rank block (ones on the diagonal)
    and a rank-deficient one (the first block with a line zeroed), in a
    drawn order."""
    first, p, m = draw(_root_sum_matrix())
    r, c = first.shape[:2]
    more = draw(st.lists(_root_sum_matrix((p, m), (r, c)), max_size=3))
    diagonal = np.zeros_like(first)
    diagonal[range(min(r, c)), range(min(r, c)), 0] = 1
    short = first.copy()
    if r <= c:
        short[0] = 0
    else:
        short[:, 0] = 0
    blocks = [first, diagonal, short] + [h for h, _, _ in more]
    return np.array(draw(st.permutations(blocks))), p, m


@settings(max_examples=60, deadline=None)
@given(_root_sum_stack())
def test_rank_of_a_stack_is_the_rank_of_each_block(case):
    h, p, m = case
    ranks = rank(h, p, m)
    assert ranks == [cyc_rank(from_rows(block, 1, p, m)) for block in h]
    assert ranks == [fl_rank(block, p, m) for block in h]
    assert min(ranks) < min(h.shape[1:3]) == max(ranks)


@settings(max_examples=60, deadline=None)
@given(_root_sum_matrix(), st.integers(1, 3))
def test_zero_rows_change_no_rank(case, pad):
    # verify_ribbon pads short gu blocks to one stack this way
    h, p, m = case
    padded = np.concatenate([h, np.zeros((pad,) + h.shape[1:], h.dtype)])
    assert rank(padded[None], p, m) == rank(h[None], p, m) == [
        fl_rank(h, p, m)]


def test_rank_tries_more_primes_when_the_first_divides_a_minor(monkeypatch):
    calls = []
    monkeypatch.setattr(cyclotomic, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    # a full-rank call finds the first prime once; a second call on the
    # same conductor searches for none
    full = np.array([[[[1, 0, 0], [0, 1, 0]]]])
    assert rank(full, 3, 1) == [1]
    known = list(_conductor(3, 1)._primes)
    calls.clear()
    assert rank(full, 3, 1) == [1]
    assert calls == []
    # the first prime l = 1 (mod 3) from 2^30 kills the 1 x 1 matrix (l),
    # and the product of the first two kills (l l'); the rank is still 1
    first = [ell for ell in range(2**30, 2**30 + 600, 3) if is_prime(ell)]
    assert first[0] % 3 == 1
    values = (first[0], first[0] * first[1], first[0] * 2**70)
    ranks = rank(np.array([[[[v, 0, 0]]] for v in values], dtype=object),
                 3, 1)
    # 1 + zeta + zeta^2 = 0, so a row of those is rank 0; a row and its
    # zeta-multiple are rank 1
    ranks += rank(np.ones((1, 1, 2, 3), dtype=np.int64), 3, 1)
    row = np.array([[1, -1, 0], [0, 2, 1]])
    ranks += rank(np.array([[row, np.roll(row, 1, axis=-1)]]), 3, 1)
    assert ranks == [1, 1, 1, 0, 1]
    assert [fl_rank(np.array([[[v, 0, 0]]], dtype=object), 3, 1)
            for v in values] == [1, 1, 1]
    # the warm list was extended, not rebuilt: the search went on from
    # its last prime
    primes = _conductor(3, 1)._primes
    assert [entry[0] for entry in primes[:3]] == first[:3]
    assert all(a is b for a, b in zip(primes, known))
    assert calls == list(range(known[-1][0] + 3, primes[-1][0] + 1, 3))


def test_a_full_rank_call_draws_one_prime(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_CONDUCTORS", {})
    h = np.zeros((1, 2, 2, 7), dtype=np.int64)
    h[0, ..., 0] = np.eye(2, dtype=np.int64)
    assert rank(h, 7, 1) == [2]
    assert len(_conductor(7, 1)._primes) == 1


def test_only_the_short_block_goes_on_to_a_second_prime(monkeypatch):
    first, second = (ell for ell, _ in islice(_conductor(3, 1).primes(), 2))
    eye = np.eye(2, dtype=np.int64)
    h = np.zeros((2, 2, 2, 3), dtype=np.int64)
    h[0, ..., 0] = eye
    h[1, ..., 0] = first * eye + 1  # ones mod the first prime, det l(l+2)
    seen = []
    ranks_mod = cyclotomic._ranks_mod
    monkeypatch.setattr(cyclotomic, "_ranks_mod", lambda h, ell, powers: (
        seen.append((h.copy(), ell)) or ranks_mod(h, ell, powers)))
    assert rank(h, 3, 1) == [2, 2]
    assert [(len(block), ell) for block, ell in seen] == [(2, first),
                                                          (1, second)]
    assert (seen[1][0] == h[1:]).all()


@pytest.mark.parametrize("p, m", [(3, 1), (7, 2)])
def test_rank_with_every_residue_at_l_minus_1(p, m):
    # mod the first prime l every product in the elimination is near
    # (l - 1)^2 < 2^62, and the map zeta -> w sums n = p^m of them, which
    # overflows int64 at n = 49 unless it reduces after each one
    ell = next(_conductor(p, m).primes())[0]
    eye = np.eye(3, dtype=np.int64)
    h = np.zeros((3, 3, 3, p**m), dtype=np.int64)
    h[0] = ell - 1  # (l - 1)(1 + zeta + ... + zeta^(n-1)) = 0
    h[1, ..., 0] = ell - 1 - eye  # -(J + I) mod l
    h[2, ..., 0] = ell - 1 + ell * eye  # (l - 1) J mod l, full over Q
    assert rank(h, p, m) == [0, 3, 3]
    assert [fl_rank(block, p, m) for block in h] == [0, 3, 3]
    assert [cyc_rank(from_rows(block, 1, p, m)) for block in h] == [0, 3, 3]


def test_rank_of_empty_and_object_stacks():
    assert rank(np.zeros((0, 2, 3, 9), dtype=np.int64), 3, 2) == []
    assert rank(np.zeros((2, 0, 3, 9), dtype=np.int64), 3, 2) == [0, 0]
    assert rank(np.zeros((2, 3, 0, 9), dtype=np.int64), 3, 2) == [0, 0]
    # Python ints beyond int64 give the ranks of the int64 blocks they
    # scale
    row = np.array([[1, -1, 0], [0, 2, 1]])
    h = np.array([[row, np.roll(row, 1, axis=-1)],
                  [row, [[1, 0, 0], [0, 0, 0]]]])
    ranks = [fl_rank(block, 3, 1) for block in h]
    assert ranks == [cyc_rank(from_rows(block, 1, 3, 1)) for block in h]
    assert ranks == [1, 2]
    assert rank(h.astype(object) * 2**70, 3, 1) == rank(h, 3, 1) == ranks


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
    # psi(u + v) = psi(u) psi(v) across mixed levels, psi(a/3^l) being
    # zeta_9^(a 3^(2-l)) as MetricGroup.qt builds it
    def psi(v):
        return CycNumber.root(3, 2, v.numerator * 3 ** (2 - v.level))

    cases = [((1, 1), (1, 2)), ((2, 2), (4, 2)), ((1, 1), (8, 2))]
    for (anum, alev), (bnum, blev) in cases:
        u, v = QpModZp(3, anum, alev), QpModZp(3, bnum, blev)
        assert psi(u + v) == psi(u) * psi(v)


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


@pytest.mark.parametrize("p, m", [(3, 1), (5, 2), (7, 1)])
def test_constants_are_one_object_per_value(p, m):
    n = p**m
    for e in (0, 1, n - 1):
        x = CycNumber.root(p, m, e)
        assert x is CycNumber.root(p, m, e + n)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x)
        # a fresh object of the same value is equal, not identical
        fresh = CycNumber(p, m, x.coeffs)
        assert fresh == x and hash(fresh) == hash(x) and fresh is not x
    assert CycNumber.one(p, m) is CycNumber.root(p, m, 0)
    assert CycNumber.zero(p, m) is CycNumber.zero(p, m)
    assert CycNumber.zero(p, m) == CycNumber(p, m, [0] * (n - n // p))
    assert CycNumber.root(p, m, 1) * CycNumber.zero(p, m) is CycNumber.zero(
        p, m)
