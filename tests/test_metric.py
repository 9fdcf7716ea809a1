import hashlib
import itertools
import random
import time
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (count_subring_builds, hyperbolic_metric,
                      quadratic_metric, transform_values, zero_metric)
from orbitlab import metric
from orbitlab.arith import QpModZp
from orbitlab.cyclotomic import CycNumber, to_rows
from orbitlab.metric import (
    MetricError,
    MetricGroup,
    gauss_sum,
    isotropic_subgroups,
    lagrangians,
    parse_metric,
    ribbon_qhat,
    serialize_metric,
    st_matrices,
)


# Exhaustive oracles for what the constructor certifies in O(rank^2).

def homogeneity_violation(m):
    """First (n, x) with q(nx) != n^2 q(x), or None."""
    q = {x: m.q_num(x) for x in m.elements()}
    for x, qx in q.items():
        for n in range(m.modulus):
            if q[m.scale(n, x)] != n * n * qx % m.modulus:
                return n, x
    return None


def polar_violation(m):
    """First (x, y) with B(x, y) != q(x+y) - q(x) - q(y), or None."""
    q = {x: m.q_num(x) for x in m.elements()}
    for x, qx in q.items():
        for y, qy in q.items():
            if m.b_num(x, y) != (q[m.add(x, y)] - qx - qy) % m.modulus:
                return x, y
    return None


def kernel_scan(m):
    """Nondegeneracy by brute force: no x != 0 with B(x, g_i) = 0 for all i."""
    gens = [tuple(int(i == j) for j in range(m.rank)) for i in range(m.rank)]
    return not any(any(x) and all(m.b_num(x, g) == 0 for g in gens)
                   for x in m.elements())


@st.composite
def small_metrics(draw):
    """Metrics with |G| <= 243, mixed exponents and frequent p-divisible
    values, so degenerate forms come up often."""
    p = draw(st.sampled_from([3, 5, 7]))
    exponents = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    assume(p ** sum(exponents) <= 243)

    def value(level):
        num = draw(st.one_of(st.integers(0, p**level - 1),
                             st.integers(0, p**(level - 1) - 1).map(
                                 lambda v: p * v)))
        return QpModZp(p, num, level)

    rank = len(exponents)
    q_gens = [value(k) for k in exponents]
    gram = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = q_gens[i].scale(2)
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = value(min(exponents[i], exponents[j]))
    return MetricGroup(p, exponents, q_gens, gram)


@settings(max_examples=40, deadline=None)
@given(small_metrics())
@example(MetricGroup(3, (1, 1), ["1/3", "0/1"],
                     [["2/3", "0/1"], ["0/1", "0/1"]]))
@example(MetricGroup(3, (2, 1), ["0/1", "0/1"],
                     [["0/1", "1/3"], ["1/3", "0/1"]]))
@example(MetricGroup(5, (2, 1), ["1/25", "2/5"],
                     [["2/25", "1/5"], ["1/5", "4/5"]]))
@example(hyperbolic_metric(3, 2, 1))
@example(MetricGroup(3, (1, 1, 2), ["1/3", "0/1", "1/9"],
                     [["2/3", "1/3", "0/1"], ["1/3", "0/1", "0/1"],
                      ["0/1", "0/1", "2/9"]]))
def test_certificate_agrees_with_exhaustive_scans(m):
    assert homogeneity_violation(m) is None
    assert polar_violation(m) is None
    assert m.nondegenerate == kernel_scan(m)


def test_scan_catches_relaxed_level_cap(monkeypatch):
    # B_01 = 1/9 on Z/9 + Z/3 is not well defined on the Z/3 factor
    relaxed = metric._as_value
    monkeypatch.setattr(metric, "_as_value",
                        lambda p, v, level_cap: relaxed(p, v, 2))
    m = MetricGroup(3, (2, 1), ["0/1", "0/1"],
                    [["0/1", "1/9"], ["1/9", "0/1"]])
    assert polar_violation(m) is not None


def test_order_cap_refused_before_powers():
    with pytest.raises(MetricError, match="3\\^8"):
        MetricGroup(3, (8,), ["0/1"], [["0/1"]])
    with pytest.raises(MetricError, match="3\\^1000000000"):
        MetricGroup(3, (10**9,), ["0/1"], [["0/1"]])
    assert zero_metric(3, (1,) * 7).size() == 3**7


def test_hyperbolic_729_builds_fast():
    # construction is O(rank^2) plus one Howell kernel, not a |G|^2 scan
    start = time.process_time()
    m = hyperbolic_metric(3, 1, 3)
    assert time.process_time() - start < 0.05
    assert m.size() == 729 and m.nondegenerate


def test_construction_checks_diagonal():
    # B(x, x) = 2 q(x) is part of the shape, not an option
    with pytest.raises(MetricError):
        MetricGroup(3, (1,), ["1/3"], [["1/3"]])
    m = quadratic_metric(3)
    assert m.size() == 3 and m.nondegenerate


def test_level_bounds_enforced():
    with pytest.raises(MetricError):
        MetricGroup(3, (1,), ["1/9"], [["2/9"]])
    # mixed exponents: B_12 must live at level min(k1, k2)
    with pytest.raises(MetricError):
        MetricGroup(3, (2, 1), ["0/1", "0/1"],
                    [["0/1", "1/9"], ["1/9", "0/1"]])


def test_polarization_identity_and_homogeneity():
    m = hyperbolic_metric(3, 2, 1)
    for x in m.elements():
        for y in m.elements():
            lhs = m.b(x, y)
            rhs = m.q(m.add(x, y)) - m.q(x) - m.q(y)
            assert lhs == rhs
        for n in range(9):
            assert m.q(m.scale(n, x)) == m.q(x).scale(n * n)


def test_q_values_on_quadratic_example():
    m = quadratic_metric(5)
    want = {0: 0, 1: 1, 2: 4, 3: 4, 4: 1}
    for x, num in want.items():
        assert m.q((x,)) == QpModZp(5, num, 1 if num else 0)


def test_degenerate_group_detected():
    m = MetricGroup(3, (1, 1), ["1/3", "0/1"],
                    [["2/3", "0/1"], ["0/1", "0/1"]])
    assert not m.nondegenerate
    # the sum itself exists but fails the modulus identity
    g = gauss_sum(m)
    assert (g * g.conj()).rational_value() == 27 != m.size()
    with pytest.raises(MetricError):
        ribbon_qhat(m)


def test_gauss_sum_norm_identity():
    for p in (3, 5, 7):
        m = quadratic_metric(p)
        g = gauss_sum(m)
        norm = g * g.conj()
        assert norm.rational_value() == p


def test_gauss_sum_catches_a_corrupted_q_histogram():
    # G conj(G) = |p| is a theorem for nondegenerate q, so only q values
    # that q does not take reach the check: q(1) read as 0 moves one count
    # of the histogram from 1 to 0
    m = quadratic_metric(5)
    assert m.q_values.tolist() == [0, 1, 4, 4, 1]
    m.q_values = np.array([0, 0, 4, 4, 1])
    with pytest.raises(MetricError) as err:
        gauss_sum(m)
    assert str(err.value) == (
        "Gauss sum modulus broken: G conj(G) = 3*z^0 + -4*z^2 + -4*z^3, "
        "expected 5")


def test_gauss_sum_hyperbolic_is_lagrangian_card():
    for args in ((3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2)):
        m = hyperbolic_metric(*args)
        g = gauss_sum(m)
        p, k, r = args
        assert g.rational_value() == p ** (k * r)


def test_trivial_group_gauss_sum():
    m = MetricGroup(3, (), [], [])
    assert m.size() == 1
    assert gauss_sum(m).rational_value() == 1


# Oracles for the exponent-array kernels: the |G|^2 CycNumber loops of
# the Fourier transforms and the dense CycNumber matrix product.

def _char_exponent(m, b, a):
    return sum(ai * bi * m.p ** (m.level - k)
               for ai, bi, k in zip(a, b, m.exponents)) % m.modulus


def fourier_oracle(m, e):
    out = {}
    for b in m.elements():
        acc = CycNumber.zero(m.p, m.level)
        for a, c in e.items():
            acc = acc + c.mul_root(-_char_exponent(m, b, a))
        out[b] = acc
    return out


def fourier_inverse_oracle(m, h):
    n = m.size()
    out = {}
    for a in m.elements():
        acc = CycNumber.zero(m.p, m.level)
        for b, c in h.items():
            acc = acc + c.mul_root(_char_exponent(m, b, a))
        out[a] = acc.scale(Fraction(1, n))
    return out


def matmul_oracle(rows_a, rows_b):
    n = len(rows_b)
    cols = len(rows_b[0])
    return [[sum((rows_a[i][l] * rows_b[l][j] for l in range(n)),
                 start=rows_a[i][0].__class__.zero(rows_a[i][0].p,
                                                   rows_a[i][0].m))
             for j in range(cols)] for i in range(len(rows_a))]


TEST_METRICS = {
    "x2_3": quadratic_metric(3), "x2_5": quadratic_metric(5),
    "x2_7": quadratic_metric(7),
    "hyp311": hyperbolic_metric(3, 1, 1), "hyp511": hyperbolic_metric(5, 1, 1),
    "hyp321": hyperbolic_metric(3, 2, 1), "hyp312": hyperbolic_metric(3, 1, 2),
    "mixed": MetricGroup(5, (2, 1), ["1/25", "2/5"],
                         [["2/25", "1/5"], ["1/5", "4/5"]]),
    "degenerate": MetricGroup(3, (1, 1), ["1/3", "0/1"],
                              [["2/3", "0/1"], ["0/1", "0/1"]]),
    "trivial": MetricGroup(3, (), [], []),
}


def _random_values(m, rng, big):
    """A value per element with denominators 1, 2, 3 and 7 mixed; big
    numerators reach 10^30."""
    top = 10**30 if big else 5
    phi = (m.p - 1) * m.p ** (m.level - 1)
    return {x: CycNumber(m.p, m.level, [
        Fraction(rng.randint(-top, top), rng.choice([1, 2, 3, 7]))
        for _ in range(phi)]) for x in m.elements()}


@pytest.mark.parametrize("big", [False, True], ids=["int64", "pyint"])
@pytest.mark.parametrize("name", sorted(TEST_METRICS))
def test_fourier_matches_cyclotomic_loop(name, big):
    m = TEST_METRICS[name]
    rng = random.Random(name)
    e = _random_values(m, rng, big)
    h, _ = to_rows(list(e.values()), m.p, m.level, terms=m.size() * m.modulus)
    assert (h.dtype == object) == big
    assert transform_values(m, e, -1) == fourier_oracle(m, e)
    assert transform_values(m, e, 1, m.size()) == fourier_inverse_oracle(m, e)
    # a sparse dict: the missing elements count as zero
    some = dict(itertools.islice(e.items(), 0, None, 2))
    assert (transform_values(m, some, 1, m.size())
            == fourier_inverse_oracle(m, some))


def test_fourier_round_trip():
    m = hyperbolic_metric(3, 1, 1)
    e = {x: CycNumber.rational(3, 1, Fraction(i - 4, 3))
         for i, x in enumerate(m.elements())}
    h = transform_values(m, e, -1)
    back = transform_values(m, h, 1, m.size())
    assert back == e
    assert transform_values(m, back, -1) == h


def test_fourier_turns_convolution_into_product():
    m = quadratic_metric(5)
    elems = list(m.elements())

    def delta(x0):
        return {x: CycNumber.one(5, 1) if x == x0 else CycNumber.zero(5, 1)
                for x in elems}

    e1, e2 = delta((2,)), delta((4,))
    conv = {x: CycNumber.zero(5, 1) for x in elems}
    for x in elems:
        for y in elems:
            s = m.add(x, y)
            conv[s] = conv[s] + e1[x] * e2[y]
    lhs = transform_values(m, conv, -1)
    f1, f2 = transform_values(m, e1, -1), transform_values(m, e2, -1)
    rhs = {b: f1[b] * f2[b] for b in elems}
    assert lhs == rhs


def test_ribbon_qhat_two_paths_and_zero_coefficient():
    for m in (quadratic_metric(3), quadratic_metric(7),
              hyperbolic_metric(3, 1, 1), hyperbolic_metric(3, 2, 1)):
        qhat = ribbon_qhat(m)
        g = gauss_sum(m)
        zero = tuple([0] * m.rank)
        assert qhat[zero] == g.scale(Fraction(1, m.size()))
        # closed form entrywise: qhat_a = (G / |p|) qtilde(a)^(-1)
        for a in m.elements():
            want = g.mul_root(-m.q_num(a)).scale(Fraction(1, m.size()))
            assert qhat[a] == want


@pytest.mark.parametrize("name", sorted(TEST_METRICS) + ["mixed_st"])
def test_q_values_match_the_quadratic_expansion(name):
    # q(x) = sum_i x_i^2 q_i + sum_{i<j} x_i x_j B_ij in Q/Z, from the
    # parsed values as Fractions, numerator at the common level
    m = MIXED_ST if name == "mixed_st" else TEST_METRICS[name]
    want = []
    for x in m.elements():
        v = sum((x[i] * x[i] * Fraction(str(m.q_gens[i]))
                 for i in range(m.rank)), Fraction(0))
        v += sum(x[i] * x[j] * Fraction(str(m.gram[i][j]))
                 for i in range(m.rank) for j in range(i + 1, m.rank))
        want.append(int(v * m.modulus) % m.modulus)
    assert m.q_values.dtype == np.int64
    assert m.q_values.tolist() == want
    assert [m.q_num(x) for x in m.elements()] == want


# sha256 of "a serialized\n" over elements(), as the closed form
# (G/|p|) q̃(a)^{-1} computed one CycNumber at a time serialized them
QHAT_DIGESTS = {
    "x2_3": "a35a1fbb379fdae2", "x2_5": "af0df1c997506e30",
    "x2_7": "588a94e31a351181", "hyp311": "99c85ecba5c840a1",
    "hyp511": "4c8d3875fd7e4e95", "hyp321": "b6ef0aeed8033b09",
    "hyp312": "31cb30d8c240671e",
}


@pytest.mark.parametrize("name", sorted(QHAT_DIGESTS))
def test_ribbon_qhat_serializes_as_before(name):
    m = TEST_METRICS[name]
    text = "".join(f"{a} {v.serialize()}\n"
                   for a, v in ribbon_qhat(m).items())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        QHAT_DIGESTS[name]


def test_st_matrices_relations_and_shape():
    m = hyperbolic_metric(3, 1, 1)
    s, t = st_matrices(m)
    n = m.size()
    assert len(s) == n and all(len(row) == n for row in s)
    # T diagonal with q-roots
    for i, a in enumerate(m.elements()):
        for j in range(n):
            if i == j:
                assert t[i][j] == CycNumber.root(3, 1, m.q_num(a))
            else:
                assert t[i][j].is_zero()


MIXED_ST = MetricGroup(3, (2, 1, 1), ["1/9", "0/1", "0/1"],
                       [["2/9", "0/1", "0/1"], ["0/1", "0/1", "1/3"],
                        ["0/1", "1/3", "0/1"]])


@pytest.mark.parametrize("m", [
    hyperbolic_metric(3, 1, 1), hyperbolic_metric(5, 1, 1),
    hyperbolic_metric(3, 2, 1), hyperbolic_metric(3, 1, 2), MIXED_ST,
    TEST_METRICS["trivial"],
], ids=["hyp311", "hyp511", "hyp321", "hyp312", "mixed", "trivial"])
def test_st_matrices_match_definition(m):
    # st_matrices reads B through the Gram matrix; b_num is the definition
    s, t = st_matrices(m)
    elems = list(m.elements())
    card = isqrt(m.size())
    zero = CycNumber.zero(m.p, m.level)
    for i, a in enumerate(elems):
        assert s[i] == [CycNumber.root(m.p, m.level, -m.b_num(a, b))
                        .scale(Fraction(1, card)) for b in elems]
        assert t[i] == [m.qt(a) if j == i else zero for j in range(len(elems))]


def transform_loop(m, H, sign):
    """metric._transform as its character sum, one exponent row at a time:
    row a of H, rolled by sign chi_b(a), is added to row b."""
    out = np.zeros_like(H)
    elems = list(m.elements())
    for j, b in enumerate(elems):
        for i, a in enumerate(elems):
            out[..., j, :] += np.roll(H[..., i, :],
                                      sign * _char_exponent(m, b, a), axis=-1)
    return out


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("square", [False, True], ids=["rows", "square"])
@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("m", [MIXED_ST, quadratic_metric(7),
                               hyperbolic_metric(3, 2, 1)],
                         ids=["mixed", "x2_7", "hyp321"])
def test_transform_matches_character_sum(m, sign, square, dtype):
    # (|G|, N) rows as q-hat and the Fourier transforms pass them, or the
    # (|G|, |G|, N) stack of st_matrices; object rows hold numerators
    # beyond int64
    n, N = m.size(), m.modulus
    shape = (n,) * (1 + square) + (N,)
    top = 10**30 if dtype is object else 1000
    rng = random.Random(f"{m.exponents}{sign}{square}")
    H = np.array([rng.randint(-top, top) for _ in range(prod(shape))],
                 dtype=dtype).reshape(shape)
    before = H.copy()
    got = metric._transform(m, H, sign)
    assert got.shape == H.shape and got.dtype == H.dtype
    assert (got == transform_loop(m, H, sign)).all()
    assert (H == before).all()


def test_st_matrices_relations_on_dense_oracle():
    m = hyperbolic_metric(3, 1, 1)
    s, t = st_matrices(m)
    n = m.size()
    one, zero = CycNumber.one(3, 1), CycNumber.zero(3, 1)
    sbar = [[v.conj() for v in row] for row in s]
    assert matmul_oracle(s, sbar) == [[one if i == j else zero
                                       for j in range(n)] for i in range(n)]
    elems = list(m.elements())
    assert matmul_oracle(s, s) == [[one if m.neg(a) == b else zero
                                    for b in elems] for a in elems]
    st_ = matmul_oracle(s, t)
    g = gauss_sum(m).scale(Fraction(1, 3))
    assert matmul_oracle(matmul_oracle(st_, st_), st_) == [
        [g * v for v in row] for row in matmul_oracle(s, s)]


def _gram_one_side(monkeypatch, m):
    # B(g_1, g_0) moved, B(g_0, g_1) and so q kept: S is unitary but no
    # longer symmetric, so S conj(S) is not S S*
    m._b[1][0] = (m._b[1][0] + 1) % m.modulus


def _sign_flipped(monkeypatch, m):
    # S computed as conj(S): the first two relations survive conjugation,
    # (ST)^3 does not, since T and G are not conjugated with it
    transform = metric._transform
    monkeypatch.setattr(metric, "_transform",
                        lambda m, H, sign: transform(m, H, -sign))


def _negation_moved(monkeypatch, m):
    # strides reversed: the negation index points a at (-a_1, -a_0)
    monkeypatch.setattr(m, "_strides", m._strides[::-1])


@pytest.mark.parametrize("mutate, relation", [
    (_gram_one_side, "S conj"),
    (_sign_flipped, "\\(ST\\)\\^3"),
    (_negation_moved, "S\\^2"),
], ids=["gram-one-side", "sign", "negation"])
def test_st_matrices_catch_broken_route(monkeypatch, mutate, relation):
    m = hyperbolic_metric(5, 1, 1)
    mutate(monkeypatch, m)
    with pytest.raises(MetricError, match=relation):
        st_matrices(m)


def test_b_isomorphism_failures_are_named():
    # only the lower Gram entries move, so q and the Gauss sum are kept
    m = hyperbolic_metric(3, 1, 1)
    m._b[1][0] = 0
    with pytest.raises(MetricError, match="not onto the dual"):
        ribbon_qhat(m)
    m = MetricGroup(3, MIXED_ST.exponents, MIXED_ST.q_gens, MIXED_ST.gram)
    m._b[2][1] = 1
    with pytest.raises(MetricError,
                       match=r"B\(\., \(0, 0, 1\)\) is not a character"):
        st_matrices(m)


def test_st_matrices_catch_broken_q(monkeypatch):
    m = hyperbolic_metric(5, 1, 1)
    q = m.q_values.copy()
    q[2 * 5 + 1] = (q[2 * 5 + 1] + 1) % m.modulus  # the entry of (2, 1)
    monkeypatch.setattr(m, "q_values", q)
    with pytest.raises(MetricError, match="\\(ST\\)\\^3"):
        st_matrices(m)


def test_st_matrices_dims_49_and_81_fast():
    start = time.process_time()
    for args in ((7, 1, 1), (3, 2, 1)):
        s, t = st_matrices(hyperbolic_metric(*args))
        assert len(s) == len(t) == args[0] ** (2 * args[1])
    assert time.process_time() - start < 2


def test_st_matrices_require_square_order():
    with pytest.raises(MetricError):
        st_matrices(quadratic_metric(3))


def test_isotropic_subgroups_heisenberg_plane():
    m = hyperbolic_metric(3, 1, 1)
    subs = isotropic_subgroups(m)
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 3, 3]
    lags = lagrangians(m)
    assert len(lags) == 2
    for lag in lags:
        assert all(m.q_num(x) == 0 for x in lag)
        assert len(lag) == 3


@pytest.mark.parametrize("p, r, count", [(3, 1, 2), (5, 1, 2), (7, 1, 2),
                                         (3, 2, 8), (5, 2, 12), (3, 3, 80)])
def test_lagrangian_count_of_hyperbolic_forms(p, r, count):
    # O+(2r, p) has prod_{i<r} (p^i + 1) maximal totally singular subspaces
    assert count == prod(p**i + 1 for i in range(r))
    lags = lagrangians(hyperbolic_metric(p, 1, r))
    assert len(lags) == count and len(set(lags)) == count
    assert all(len(lag) == p**r for lag in lags)


# Oracle for the Subring growth: the frozenset span closure that grew
# isotropic subgroups element by element.

def grow_spans(zero, candidates, add, cap):
    """Every subgroup reached from {zero} by adjoining one element at a
    time, breadth first, as a dict from frozenset span to the generators
    it was first reached by; spans of size >= cap are not grown further.
    candidates(gens) lists the elements that may be adjoined to the span
    of gens.  span + <y> is the union of the cosets span + j y for j below
    the order of y modulo span; every element of span + y gives the same
    span, so it is tried once."""
    start = frozenset([zero])
    seen = {start: []}
    frontier = [start]
    while frontier:
        nxt = []
        for span in frontier:
            if len(span) >= cap:
                continue
            gens, done = seen[span], set(span)
            for y in candidates(gens):
                if y in done:
                    continue
                cosets, v = [], y
                while v not in span:
                    cosets.append({add(s, v) for s in span})
                    v = add(v, y)
                done |= cosets[0]
                key = span.union(*cosets)
                if key not in seen:
                    seen[key] = gens + [y]
                    nxt.append(key)
        frontier = nxt
    return seen


def isotropic_oracle(m, max_size=None):
    nulls = [x for x in m.elements() if m.q_num(x) == 0]
    spans = grow_spans(
        tuple(0 for _ in range(m.rank)),
        lambda gens: [y for y in nulls
                      if not any(m.b_num(y, g) for g in gens)],
        m.add, max_size or m.size())
    return sorted(spans, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("m, count", [
    *((hyperbolic_metric(p, k, r), count) for p, k, r, count in (
        (3, 1, 1, 2), (5, 1, 1, 2), (7, 1, 1, 2), (3, 1, 2, 8), (3, 2, 1, 3),
        (5, 1, 2, 12))),
    # Z/9 + Z/3 + Z/3 with q = x0^2/9 + x1 x2/3: mixed levels
    (MetricGroup(3, (2, 1, 1), ["1/9", "0/1", "0/1"],
                 [["2/9", "0/1", "0/1"], ["0/1", "0/1", "1/3"],
                  ["0/1", "1/3", "0/1"]]), 2),
    # the zero form on F_3^4: every plane is a "Lagrangian"
    (zero_metric(3, (1,) * 4), 130),
    # zero forms with k >= 2, where scaling a row by a unit after reducing
    # it against a span can leave it unreduced and list a span twice
    (zero_metric(3, (2, 2)), 13),
    (zero_metric(3, (3, 2)), 0),
    (zero_metric(3, (2, 2, 1)), 0),
    (MetricGroup(3, (), [], []), 1),
], ids=["hyp311", "hyp511", "hyp711", "hyp312", "hyp321", "hyp512", "mixed",
        "zero-F3^4", "zero-9+9", "zero-27+9", "zero-9+9+3", "trivial"])
def test_subring_growth_matches_frozenset_oracle(m, count):
    want = isotropic_oracle(m)
    assert isotropic_subgroups(m) == want
    card = isqrt(m.size())
    lags = lagrangians(m)
    assert lags == [s for s in want if len(s) == card]
    assert len(lags) == count


def gaussian_binomial(n, k, q):
    """[n, k]_q, the number of k-dimensional subspaces of F_q^n."""
    return (prod(q**(n - i) - 1 for i in range(k))
            // prod(q**(i + 1) - 1 for i in range(k)))


@pytest.mark.parametrize("n, count", [(2, 4), (4, 130)])
def test_lagrangians_of_zero_forms_are_gaussian_binomials(n, count):
    # q = B = 0 on F_3^n: every subspace of half the dimension qualifies
    assert gaussian_binomial(n, n // 2, 3) == count
    lags = lagrangians(zero_metric(3, (1,) * n))
    assert len(lags) == len(set(lags)) == count
    assert all(len(lag) == 3 ** (n // 2) for lag in lags)


@pytest.mark.parametrize("p, spans, count", [(5, 963, 806), (7, 3251, 2850)])
def test_lagrangians_over_a_field_build_each_span_once(monkeypatch, p, spans,
                                                       count):
    # the zero form on F_p^4: lagrangians grows the subspaces of dimension
    # below 2 and keeps the planes, one Subring each
    assert spans == sum(gaussian_binomial(4, d, p) for d in range(3))
    assert count == gaussian_binomial(4, 2, p)
    builds = count_subring_builds(monkeypatch)
    lags = lagrangians(zero_metric(p, (1,) * 4))
    assert len(lags) == len(set(lags)) == count
    assert len(builds) == spans


@pytest.mark.parametrize("exponents, spans", [
    ((2, 2), 23), ((3, 2), 36), ((2, 2, 1), 126)])
def test_isotropic_subgroups_build_at_most_twice_per_span(monkeypatch,
                                                          exponents, spans):
    # with k >= 2 some children fail the parent test and are built in vain
    builds = count_subring_builds(monkeypatch)
    subs = isotropic_subgroups(zero_metric(3, exponents))
    assert len(subs) == len(set(subs)) == spans
    assert spans <= len(builds) <= 2 * spans


def test_isotropic_data_is_built_once(monkeypatch):
    m = hyperbolic_metric(3, 1, 1)
    first = lagrangians(m)
    monkeypatch.setattr(metric, "LieRing", None)
    assert lagrangians(m) == first


def test_lagrangians_of_x_squared_are_absent():
    assert lagrangians(quadratic_metric(3)) == []


def test_serialize_round_trip_mixed_exponents():
    m = MetricGroup(5, (2, 1), ["1/25", "2/5"],
                    [["2/25", "1/5"], ["1/5", "4/5"]], name="mixed")
    text = serialize_metric(m)
    back = parse_metric(text)
    assert serialize_metric(back) == text
    assert back.exponents == m.exponents and back.p == m.p
    for x in m.elements():
        assert back.q(x) == m.q(x)


def test_parse_metric_rejections():
    good = serialize_metric(quadratic_metric(3))
    assert parse_metric(good).size() == 3
    with pytest.raises(Exception):
        parse_metric(good.replace("p 3", "p 4"))
    with pytest.raises(Exception):
        parse_metric("metric x\nend\n")
    with pytest.raises(MetricError, match="Gram rows"):
        parse_metric("metric r\np 3\ntype 1 1\nq 0/1 0/1\n"
                     "B 0/1\nB 0/1 0/1\nend\n")
