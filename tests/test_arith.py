from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab.arith import (
    Modulus,
    QpModZp,
    howell,
    howell_pivots,
    is_prime,
    kernel,
    mat_inverse,
    member,
    reduce_mod_span,
    reduce_rows,
    span_size,
    valuation,
)
from orbitlab.lazard import Subring, catalog
from orbitlab.orbits import SkewForm, generic_character


def brute_span(rows, modulus, n):
    """All Z/p^k-combinations of the rows, as a frozenset (always holds 0):
    every coefficient tuple from np.indices times the rows, mod p^k."""
    if not rows:
        return frozenset([(0,) * n])
    pk = modulus.pk
    coeffs = np.indices((pk,) * len(rows)).reshape(len(rows), -1).T
    return frozenset(map(tuple, (coeffs @ np.array(rows) % pk).tolist()))


def test_is_prime_small():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, n))

    for n in range(-2, 200):
        assert is_prime(n) == trial(n)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**31 - 1)


def test_valuation():
    assert valuation(45, 3) == 2
    assert valuation(45, 5) == 1
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_modulus_rejects_composite():
    with pytest.raises(ValueError):
        Modulus(9, 1)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    assert Modulus(3, 2).pk == 9


class TestQpModZp:
    def test_reduces_to_lowest_terms(self):
        x = QpModZp(3, 6, 2)  # 6/9 = 2/3
        assert (x.numerator, x.level) == (2, 1)
        assert QpModZp(3, 9, 2).is_zero()
        assert QpModZp(3, 0, 5).level == 0

    def test_add_mixed_levels(self):
        x = QpModZp(3, 1, 1) + QpModZp(3, 1, 2)  # 1/3 + 1/9 = 4/9
        assert (x.numerator, x.level) == (4, 2)
        y = QpModZp(3, 2, 1) + QpModZp(3, 1, 1)  # wraps to 0 mod 1
        assert y.is_zero()

    def test_fraction_round_trip(self):
        x = QpModZp.from_fraction(5, Fraction(7, 25))
        assert (x.numerator, x.level) == (7, 2)
        assert QpModZp.from_fraction(5, Fraction(-3, 5)) == QpModZp(5, 2, 1)
        with pytest.raises(ValueError):
            QpModZp.from_fraction(5, Fraction(1, 10))

    def test_parse_str_round_trip(self):
        for text in ("2/3", "4/9", "0/1", "7/25"):
            p = 3 if text.endswith(("3", "9")) else 5
            assert str(QpModZp.parse(p, text)) == text

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_group_axioms(self, a, b):
        x, y = QpModZp(3, a, 4), QpModZp(3, b, 4)
        assert x + y == y + x
        assert (x + y) - y == x
        assert (x + (-x)).is_zero()
        assert x.scale(81).is_zero()


class TestHowell:
    def test_frozen_example(self):
        # independent oracle: the exhaustive span of [[2,4],[0,0]] over Z/8
        # is the order-4 cyclic group generated by (2,4)
        mod = Modulus(2, 3)
        rows = [[2, 4], [0, 0]]
        h = howell(rows, mod)
        assert h == ((2, 4),)
        assert span_size(h, mod) == 4
        assert brute_span(rows, mod, 2) == brute_span(h, mod, 2)

    def test_annihilator_row_appears(self):
        # (4,2) over Z/8: 2*(4,2) = (0,4) has no pivot-4 multiple of the
        # original row above it, so Howell adds the closure row
        mod = Modulus(2, 3)
        h = howell([[4, 2]], mod)
        assert brute_span([[4, 2]], mod, 2) == brute_span(h, mod, 2)
        assert span_size(h, mod) == len(brute_span([[4, 2]], mod, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 26), min_size=3, max_size=3),
                 min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_canonical_under_regeneration(self, rows, rng):
        """Howell output depends only on the span, not its presentation."""
        mod = Modulus(3, 3)
        h = howell(rows, mod)
        assert brute_span(rows, mod, 3) == brute_span(h, mod, 3)
        # re-present the same span: shuffle, duplicate a row, adjoin a
        # random combination of the originals
        alt = [list(r) for r in rows]
        rng.shuffle(alt)
        alt.append(list(rows[0]))
        cs = [rng.randrange(27) for _ in rows]
        combo = [sum(c * r[i] for c, r in zip(cs, rows)) % 27
                 for i in range(3)]
        assert howell(alt + [combo], mod) == h

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 24), min_size=2, max_size=2),
                    min_size=1, max_size=3),
           st.lists(st.integers(0, 24), min_size=2, max_size=2))
    def test_membership_matches_reduction(self, rows, x):
        mod = Modulus(5, 2)
        h = howell(rows, mod)
        piv = howell_pivots(h, 5)
        assert member(x, h, mod, piv) == (tuple(x) in brute_span(rows, mod, 2))
        residue = reduce_mod_span(x, h, mod, piv)
        # the residue differs from x by a span element
        diff = tuple((a - b) % 25 for a, b in zip(x, residue))
        assert member(diff, h, mod, piv)


@st.composite
def _span_and_rows(draw, moduli):
    """Howell rows of a random span over one of moduli, plus rows to reduce."""
    p, k = draw(st.sampled_from(moduli))
    mod = Modulus(p, k)
    ncols = draw(st.integers(1, 4))
    entry = st.integers(0, mod.pk - 1)
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    gens = draw(st.lists(vector, max_size=4))
    X = draw(st.lists(vector, min_size=1, max_size=6))
    return mod, howell(gens, mod) if gens else (), X


@settings(max_examples=150, deadline=None)
@given(_span_and_rows([(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]))
def test_reduce_rows_matches_reduce_mod_span(case):
    mod, h, X = case
    piv = howell_pivots(h, mod.p)
    residues = reduce_rows(X, h, mod, piv)
    assert residues.dtype == np.int64
    for x, row in zip(X, residues):
        assert row.tolist() == reduce_mod_span(x, h, mod, piv)


@settings(max_examples=60, deadline=None)
@given(_span_and_rows([(2**31 - 1, 1), (2**31 - 1, 2)]))
def test_reduce_rows_matches_reduce_mod_span_large_modulus(case):
    # (2^31 - 1)^2 < 2^63 keeps int64; (2^31 - 1)^4 needs Python ints
    mod, h, X = case
    piv = howell_pivots(h, mod.p)
    residues = reduce_rows(X, h, mod, piv)
    assert residues.dtype == (np.int64 if mod.k == 1 else object)
    for x, row in zip(X, residues):
        assert [int(v) for v in row] == reduce_mod_span(x, h, mod, piv)


def test_span_size_counts_row_orders():
    mod = Modulus(3, 2)
    h = howell([[1, 0], [0, 3]], mod)
    assert span_size(h, mod) == 9 * 3


def mat_mul(a, b, mod):
    """The product of two matrices given by rows, mod p^k, as a tuple of
    rows (the oracle for mat_inverse)."""
    assert len(a[0]) == len(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % mod.pk
                       for col in zip(*b)) for row in a)


def test_mat_inverse_round_trip():
    mod = Modulus(5, 2)
    m = ((1, 2), (3, 4))  # det = -2, a unit mod 25
    inv = mat_inverse(m, mod)
    assert isinstance(inv, tuple) and all(isinstance(r, tuple) for r in inv)
    assert mat_mul(m, inv, mod) == ((1, 0), (0, 1))
    assert mat_mul(inv, m, mod) == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="not invertible"):
        mat_inverse([[5, 0], [0, 1]], mod)
    with pytest.raises(ValueError, match="not square"):
        mat_inverse([[1, 2]], mod)
    with pytest.raises(ValueError, match="not square"):
        mat_inverse([[1, 2], [3]], mod)


def _gauss_jordan_inverse(m, mod):
    """Unit-pivot Gauss-Jordan over Z/p^k: the inverse rows, or None when
    some column has no unit below the diagonal (the oracle for
    mat_inverse)."""
    n, p, pk = len(m), mod.p, mod.pk
    a = [[x % pk for x in r] + [int(i == j) for j in range(n)]
         for i, r in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % p), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, pk)
        a[c] = [x * inv % pk for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % pk for x, y in zip(a[i], a[c])]
    return tuple(tuple(r[n:]) for r in a)


@st.composite
def _small_matrix(draw):
    """(rows, modulus): a matrix over Z/p^k, p^k <= 25, of up to 4 x 4; a
    third of the square ones get a row made dependent mod p."""
    p, k = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2)]))
    mod = Modulus(p, k)
    n = draw(st.integers(1, 4))
    ncols = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 1)]))
    rows = draw(st.lists(st.lists(st.integers(0, mod.pk - 1), min_size=ncols,
                                  max_size=ncols), min_size=n, max_size=n))
    if n == ncols and n > 1 and draw(st.integers(0, 2)) == 0:
        c, noise = draw(st.integers(0, mod.pk - 1)), draw(st.integers(0, 1))
        rows[0] = [(c * y + noise * p * x) for x, y in zip(rows[0], rows[1])]
    return rows, mod


@settings(max_examples=200, deadline=None)
@given(_small_matrix())
def test_howell_inverse_matches_gauss_jordan(case):
    m, mod = case
    if len(m) != len(m[0]):
        with pytest.raises(ValueError, match="not square"):
            mat_inverse(m, mod)
        return
    want = _gauss_jordan_inverse(m, mod)
    if want is None:
        with pytest.raises(ValueError, match="not invertible"):
            mat_inverse(m, mod)
    else:
        assert mat_inverse(m, mod) == want


def test_kernel_is_left_annihilator():
    mod = Modulus(3, 2)
    m = ((3, 0), (0, 1))
    k = kernel(m, mod)
    assert isinstance(k, tuple) and all(isinstance(r, tuple) for r in k)
    zero = (0, 0)
    for row in k:
        v = tuple(sum(row[i] * m[i][j] for i in range(2)) % 9
                  for j in range(2))
        assert v == zero
    # x*m = 0 forces 3*x0 = 0 and x1 = 0: kernel has 3 elements
    assert span_size(k, mod) == 3
    # unreduced entries give the same canonical rows
    assert kernel(((12, -9), (9, 10)), mod) == k


def _padded_howell(rows, modulus):
    """The Howell elimination with ncols spare zero rows appended up front,
    annihilator rows written into the next spare one: the reference the
    unpadded howell must reproduce row for row."""
    p, k, pk = modulus.p, modulus.k, modulus.pk
    rows = [[x % pk for x in r] for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    a = rows + [[0] * ncols for _ in range(ncols)]
    spare_used = 0

    def addmul(dst, src, c):
        a[dst] = [(x + c * y) % pk for x, y in zip(a[dst], a[src])]

    r = 0
    for col in range(ncols):
        piv, pv = None, k
        for i in range(r, len(a)):
            x = a[i][col]
            if x:
                v = valuation(x, p)
                if v < pv:
                    piv, pv = i, v
                    if v == 0:
                        break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        u = pow(a[r][col] // p**pv, -1, pk)
        a[r] = [x * u % pk for x in a[r]]
        step = p**pv
        for i in range(r + 1, len(a)):
            if a[i][col]:
                addmul(i, r, -(a[i][col] // step))
        for i in range(r):
            if a[i][col] >= step:
                addmul(i, r, -(a[i][col] // step))
        if pv > 0:
            z = len(rows) + spare_used
            spare_used += 1
            addmul(z, r, pk // step)
            if z != r + 1:
                a[r + 1], a[z] = a[z], a[r + 1]
        r += 1
    return tuple(tuple(r) for r in a if any(r))


def _seeded_matrices(seed, count):
    """Matrices over Z/p^k, k >= 2, with entries that are mostly multiples
    of p so that pivots of positive valuation (annihilator rows) arise;
    tall, square, wide and all-zero shapes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(2, 5))
        mod = Modulus(p, k)
        nrows, ncols = (int(x) for x in rng.integers(1, 7, size=2))
        scale = p ** rng.integers(0, k + 1, size=(nrows, ncols))
        m = rng.integers(0, mod.pk, size=(nrows, ncols)) * scale % mod.pk
        if rng.integers(0, 8) == 0:
            m[:] = 0
        yield m.tolist(), mod


def test_howell_matches_padded_reference():
    positive = 0
    for m, mod in _seeded_matrices(28, 1500):
        h = howell(m, mod)
        assert h == _padded_howell(m, mod), (m, mod)
        positive += any(v for _, v in howell_pivots(h, mod.p))
    # the annihilator branch ran on a good share of the inputs
    assert positive > 300
    assert howell([[0, 0, 0]], Modulus(3, 2)) == ()
    wide = [[9, 3, 0, 6, 0, 18]]
    assert howell(wide, Modulus(3, 3)) == _padded_howell(wide, Modulus(3, 3))


def test_kernel_rows_are_howell_rows():
    for m, mod in _seeded_matrices(29, 1500):
        rows = kernel(m, mod)
        assert howell(rows, mod) == rows, (m, mod)


def test_subring_kernel_of_matches_howell_of_kernel():
    for name, ring in catalog().items():
        nums = SkewForm(generic_character(ring)).nums
        sub = Subring.kernel_of(ring, nums)
        assert sub.rows == Subring(ring, kernel(nums, ring.modulus)).rows, name
        assert sub.pivots == howell_pivots(sub.rows, ring.p), name
