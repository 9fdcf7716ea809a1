import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import lazard
from orbitlab.arith import inv_mod
from orbitlab.freelie import bch, exp_ad, phi_series
from orbitlab.lazard import (
    LazardError,
    LieRing,
    Subring,
    all_elements,
    batch_bracket,
    batch_conjugate,
    batch_exp_mul,
    bracket_span,
    catalog,
    check_exp_associative,
    conjugate,
    exp_inv,
    exp_mul,
    exp_pow,
    log_group,
    parse_ring,
    quotient_ring,
    serialize_ring,
    series_program,
    validate,
)
from orbitlab.orbits import (SkewForm, all_characters, radical,
                             sample_characters)


def heis(p, k=1):
    return LieRing(p, k, 3, {(0, 1): (0, 0, 1)}, name="h3")


def test_catalog_shape(rings):
    assert len(rings) == 18
    for name, ring in rings.items():
        report = validate(ring)
        assert report["name"] == name
        assert report["class"] < ring.p
        assert report["order"] == ring.pk**ring.rank
        assert report["lcs_sizes"][0] == report["order"]


def test_catalog_rings_are_distinct(rings):
    # equal rings under two names would be checked twice as if different
    items = sorted(rings.items())
    for i, (name, ring) in enumerate(items):
        for other, twin in items[i + 1:]:
            assert ring != twin, (name, other)


def test_class_at_least_p_rejected():
    # u4 has class 3, so p = 3 is out of Lazard range
    with pytest.raises(LazardError):
        LieRing(3, 1, 6, {
            (0, 1): (0, 0, 0, 1, 0, 0),
            (1, 2): (0, 0, 0, 0, 1, 0),
            (0, 4): (0, 0, 0, 0, 0, 1),
            (2, 3): (0, 0, 0, 0, 0, -1),
        })


def test_jacobi_violation_rejected():
    # [e1,e2] = e3, [e1,e3] = e2 fails Jacobi on (e1,e2,e3)... it does not;
    # use the standard sl2-like table, which is not nilpotent either way
    with pytest.raises(Exception):
        LieRing(5, 1, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0),
                          (1, 2): (1, 0, 0)})


def jacobi_scan(p, k, rank, brackets):
    """The full basis-triple Jacobi scan over a dense bracket table: the
    first failing triple i < j < l, or None."""
    pk = p**k
    table = {}
    for (i, j), v in brackets.items():
        table[i, j] = v
        table[j, i] = [-c for c in v]

    def br(x, y):
        out = [0] * rank
        for (i, j), v in table.items():
            for l in range(rank):
                out[l] += x[i] * y[j] * v[l]
        return [c % pk for c in out]

    e = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, l in itertools.combinations(range(rank), 3):
        terms = (br(br(e[i], e[j]), e[l]), br(br(e[j], e[l]), e[i]),
                 br(br(e[l], e[i]), e[j]))
        if any(sum(t) % pk for t in zip(*terms)):
            return (i, j, l)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jacobi_check_matches_full_scan(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    k = data.draw(st.integers(1, 2))
    rank = data.draw(st.integers(3, 6))
    # strictly upper brackets ([e_i, e_j] in the span of e_l, l > j) are
    # nilpotent, so passing tables reach the class checks too
    upper = data.draw(st.booleans())
    pairs = data.draw(st.lists(
        st.sampled_from(list(itertools.combinations(range(rank), 2))),
        unique=True, max_size=4))
    brackets = {
        (i, j): [data.draw(st.integers(-2, 2)) if l > j or not upper else 0
                 for l in range(rank)]
        for i, j in pairs}
    want = jacobi_scan(p, k, rank, brackets)
    if want is not None:
        with pytest.raises(ValueError, match=re.escape(
                f"Jacobi identity fails on basis triple {want}")):
            LieRing(p, k, rank, brackets)
    else:
        try:
            LieRing(p, k, rank, brackets)
        except LazardError:
            pass  # class >= p or not nilpotent: not a Jacobi failure


def test_abelian_max_rank_builds_without_brackets(monkeypatch):
    calls = []
    original = LieRing.bracket

    def counting(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(LieRing, "bracket", counting)
    assert LieRing(3, 1, lazard.MAX_RANK, {}).cls == 1
    assert calls == []


def test_lower_central_series_brackets_second_index():
    # e2 occurs only as the second index of a pair, yet [e2, e1] = -e3
    # is what puts e3 in the third term: class 3, not 2
    ring = LieRing(5, 1, 4, {(0, 2): (0, 1, 0, 0), (1, 2): (0, 0, 0, 1)})
    assert ring.cls == 3


def test_exp_mul_heisenberg_closed_form():
    # independent oracle: (a*b)_3 = a3 + b3 + (a1 b2 - a2 b1)/2
    ring = heis(5)
    half = inv_mod(2, 5)
    for a in ring.elements():
        for b in ring.elements():
            want = ((a[0] + b[0]) % 5, (a[1] + b[1]) % 5,
                    (a[2] + b[2] + half * (a[0] * b[1] - a[1] * b[0])) % 5)
            assert exp_mul(ring, a, b) == want


def test_exp_identity_inverse_powers():
    ring = heis(3, k=2)
    rng = random.Random(7)
    for _ in range(50):
        x = ring.random_element(rng)
        assert exp_mul(ring, x, ring.zero()) == x
        assert exp_mul(ring, ring.zero(), x) == x
        assert not any(exp_mul(ring, x, exp_inv(ring, x)))
        assert exp_pow(ring, x, 9) == ring.scale(9, x)
        # group power by repeated multiplication agrees
        acc = ring.zero()
        for _ in range(4):
            acc = exp_mul(ring, acc, x)
        assert acc == exp_pow(ring, x, 4)


def test_exp_associative_exhaustive_small():
    checked, exhaustive = check_exp_associative(heis(3))
    assert exhaustive and checked == 27**3


@pytest.mark.parametrize("samples", [None, 50])
def test_associativity_witness_prints_plain_ints(monkeypatch, samples):
    # perturb one row of the outer left product: the defect message must
    # show the triple as Python ints, in the exhaustive mode (27^3 triples)
    # and the sampled one (125^3 > 2^15)
    ring = heis(3 if samples is None else 5)
    batch = lazard.batch_exp_mul
    calls = []

    def perturbed(ring, X, Y):
        out = batch(ring, X, Y)
        calls.append(None)
        if len(calls) == 2:
            out[0, 0] = (out[0, 0] + 1) % ring.pk
        return out

    monkeypatch.setattr(lazard, "batch_exp_mul", perturbed)
    with pytest.raises(LazardError) as err:
        check_exp_associative(ring, samples=samples or 10)
    message = str(err.value)
    assert message.startswith("associativity defect at x=(")
    assert "np." not in message and "int64" not in message


BIG_PRIME = 2**31 - 1

U4 = {(0, 1): (0, 0, 0, 1, 0, 0), (1, 2): (0, 0, 0, 0, 1, 0),
      (0, 4): (0, 0, 0, 0, 0, 1), (2, 3): (0, 0, 0, 0, 0, -1)}

# (ring, element type of its batch arrays): int64 while (p^k)^2 < 2^63,
# which still holds over 2^31 - 1, and Python ints over (2^31 - 1)^2
BATCH_RINGS = [
    (catalog()["h3_p3"], np.int64),
    (catalog()["h3_z9"], np.int64),
    (catalog()["u4_p5"], np.int64),
    (catalog()["u4_p7"], np.int64),
    (heis(BIG_PRIME), np.int64),
    (LieRing(BIG_PRIME, 1, 6, U4, name="u4"), np.int64),
    (heis(BIG_PRIME, k=2), object),
    (LieRing(BIG_PRIME, 2, 6, U4, name="u4"), object),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_kernels_match_scalar(data):
    ring, dtype = data.draw(st.sampled_from(BATCH_RINGS))
    assert ring.modulus.dtype == dtype
    vector = st.tuples(*[st.integers(0, ring.pk - 1)] * ring.rank)
    rows = data.draw(st.integers(1, 5))
    X, Y = (data.draw(st.lists(vector, min_size=rows, max_size=rows))
            for _ in range(2))
    for got, want in (
            (batch_bracket(ring, X, Y), ring.bracket),
            (batch_exp_mul(ring, X, Y), lambda x, y: exp_mul(ring, x, y)),
            (batch_conjugate(ring, X, Y),
             lambda x, y: conjugate(ring, x, y))):
        for x, y, row in zip(X, Y, got):
            assert tuple(int(v) for v in row) == want(x, y)


def dense_bracket(ring, x, y):
    """Reference bracket: every basis pair of the dense table."""
    out = [0] * ring.rank
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            for l, c in enumerate(ring.table[i][j]):
                out[l] = (out[l] + a * b * c) % ring.pk
    return tuple(out)


def tree_walk(ring, series, x, y):
    """Reference evaluation of a two-generator series: a memoized walk of
    its trees over dense_bracket."""
    memo = {0: x, 1: y}

    def value(tree):
        got = memo.get(tree)
        if got is None:
            got = memo[tree] = dense_bracket(ring, value(tree[0]),
                                             value(tree[1]))
        return got

    out = [0] * ring.rank
    for tree, coeff in series.coeffs.items():
        c = coeff.numerator * inv_mod(coeff.denominator, ring.pk)
        for l, v in enumerate(value(tree)):
            out[l] = (out[l] + c * v) % ring.pk
    return tuple(out)


ORACLE_RINGS = list(catalog().values()) + [
    heis(BIG_PRIME), heis(BIG_PRIME, k=2), LieRing(BIG_PRIME, 1, 6, U4)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_series_match_tree_walk(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    vector = st.tuples(*[st.integers(0, ring.pk - 1)] * ring.rank)
    rows = data.draw(st.integers(1, 4))
    X, Y = (data.draw(st.lists(vector, min_size=rows, max_size=rows))
            for _ in range(2))
    bch_c, ad_c = bch(ring.cls), exp_ad(ring.cls)
    for x, y, mul_row, conj_row in zip(X, Y, batch_exp_mul(ring, X, Y),
                                       batch_conjugate(ring, X, Y)):
        assert ring.bracket(x, y) == dense_bracket(ring, x, y)
        xy = tree_walk(ring, bch_c, x, y)
        assert exp_mul(ring, x, y) == xy
        assert tuple(int(v) for v in mul_row) == xy
        # conjugate raises unless its BCH and exp(ad) routes agree
        via_ad = tree_walk(ring, ad_c, x, y)
        assert tree_walk(ring, bch_c, xy, ring.neg(x)) == via_ad
        assert series_program(ring, "exp_ad").scalar(x, y) == via_ad
        assert conjugate(ring, x, y) == via_ad
        assert tuple(int(v) for v in conj_row) == via_ad
        assert (series_program(ring, "phi").scalar(x, y)
                == tree_walk(ring, phi_series(ring.cls), x, y))


SERIES = {"bch": bch, "exp_ad": exp_ad, "phi": phi_series}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_emitted_scalar_reduces_any_integers(data):
    # unreduced, negative and huge coordinates, as tuples, lists, numpy
    # arrays and numpy scalars, give the residues' values as Python ints
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    coord = st.integers(-2**63, 2**63 - 1)
    x, y = (data.draw(st.lists(coord, min_size=ring.rank, max_size=ring.rank))
            for _ in range(2))
    rx, ry = (tuple(v % ring.pk for v in w) for w in (x, y))
    shift = 10**30 * ring.pk
    forms = [(tuple(x), tuple(y)), (x, y),
             (np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)),
             ([np.int64(v) for v in x], [np.int64(v) for v in y]),
             ([v - shift for v in x], [v + shift for v in y])]
    for name, series in SERIES.items():
        want = tree_walk(ring, series(ring.cls), rx, ry)
        for a, b in forms:
            got = series_program(ring, name).scalar(a, b)
            assert got == want
            assert all(type(v) is int for v in got)
    for a, b in forms:
        assert exp_mul(ring, a, b) == tree_walk(ring, bch(ring.cls), rx, ry)
        assert conjugate(ring, a, b) == tree_walk(ring, exp_ad(ring.cls),
                                                  rx, ry)


@pytest.mark.parametrize("x, y", [((1, 2), (1, 2, 3)), ((1, 2, 3), [1] * 4),
                                  ((), (0, 0, 0))])
def test_emitted_scalar_length_error_is_vec_message(x, y):
    ring = heis(5)
    bad = x if len(x) != 3 else y
    with pytest.raises(ValueError) as want:
        lazard._vec(ring, bad)
    for name in SERIES:
        with pytest.raises(ValueError) as err:
            series_program(ring, name).scalar(x, y)
        assert str(err.value) == str(want.value)
    for f in (exp_mul, conjugate):
        with pytest.raises(ValueError) as err:
            f(ring, x, y)
        assert str(err.value) == str(want.value)


def test_emitted_scalar_names_only_int_len_valueerror():
    # the source is built from integers only: a ring name that looks like
    # code never reaches it
    hostile = LieRing(5, 1, 3, {(0, 1): (0, 0, 1)},
                      name="__import__('os').system('exit 1')")
    for ring in list(catalog().values()) + [hostile]:
        for name in SERIES:
            code = series_program(ring, name).scalar.__code__
            assert set(code.co_names) <= {"int", "len", "ValueError"}


def test_emitted_scalar_is_shared_by_equal_structures():
    def scalar(ring):
        return series_program(ring, "bch").scalar

    first = scalar(heis(5))
    assert scalar(LieRing(5, 1, 3, {(0, 1): (0, 0, 1)}, name="other")) is first
    for other in (heis(7), LieRing(5, 1, 3, {(0, 1): (0, 0, 2)}),
                  LieRing(5, 1, 4, {(0, 1): (0, 0, 1, 0)}),
                  LieRing(5, 2, 3, {(0, 1): (0, 0, 1)})):
        assert scalar(other) is not first
    assert series_program(heis(5), "exp_ad").scalar is not first


def test_series_programs_share_slots(rings):
    # each distinct tree is one bracket step: BCH through class 3 has the
    # trees [x,y], [x,[x,y]] and [y,[x,y]]
    prog = series_program(rings["u4_p5"], "bch")
    assert len(prog.steps) == 3
    assert series_program(rings["u4_p5"], "bch") is prog
    assert [dst for dst, _, _ in prog.steps] == [2, 3, 4]


def test_hostile_shapes_refused_before_allocation():
    with pytest.raises(ValueError, match="rank 100000"):
        LieRing(3, 1, 100000, {})
    with pytest.raises(ValueError, match=r"3\^1000000000"):
        LieRing(3, 10**9, 3, {})
    with pytest.raises(ValueError, match="not below 2\\^63"):
        LieRing(BIG_PRIME, 3, 3, {})
    assert LieRing(3, 1, lazard.MAX_RANK, {}).cls == 1


def test_exp_associative_over_large_prime():
    # int64 products used to overflow here and report a false defect
    ring = heis(BIG_PRIME)
    assert check_exp_associative(ring, samples=1000) == (1000, False)


def test_batch_exp_mul_matches_scalar(rings):
    ring = rings["u4_p5"]
    rng = random.Random(1)
    X = [ring.random_element(rng) for _ in range(40)]
    Y = [ring.random_element(rng) for _ in range(40)]
    batch = batch_exp_mul(ring, X, Y)
    for x, y, row in zip(X, Y, batch):
        assert exp_mul(ring, x, y) == tuple(int(v) for v in row)


def test_conjugate_agrees_with_group_conjugation(rings):
    for name in ("h3_p3", "h3_z9", "u4_p5"):
        ring = rings[name]
        rng = random.Random(3)
        for _ in range(30):
            g = ring.random_element(rng)
            x = ring.random_element(rng)
            via_mul = exp_mul(ring, exp_mul(ring, g, x), exp_inv(ring, g))
            assert conjugate(ring, g, x) == via_mul


def test_log_group_round_trip_small(rings):
    for name in ("h3_p3", "h3_z9", "abelian2_p5"):
        ring = rings[name]
        recovered, report = log_group(
            lambda x, y: exp_mul(ring, x, y), ring.p, ring.k, ring.rank)
        assert recovered.table == ring.table
        assert report["exhaustive"] == (ring.size() ** 2 <= 65536)
        assert report["seed"] == 0


def test_log_group_report_names_seed_and_count(rings):
    ring = rings["h3_p7"]
    _, report = log_group(lambda x, y: exp_mul(ring, x, y), ring.p, ring.k,
                          ring.rank, samples=300, seed=5)
    assert report == {"class": 2, "pairs_checked": 300, "exhaustive": False,
                      "seed": 5}
    _, report = log_group(lambda x, y: exp_mul(rings["h3_p3"], x, y), 3, 1, 3)
    assert report == {"class": 2, "pairs_checked": 27 ** 2,
                      "exhaustive": True, "seed": 0}


# The law is off at two pairs; the message names the first one checked, in
# lexicographic order (h3_p3 and h3_p5, exhaustive) or seed-0 draw order
# (h3_p7).
LOG_GROUP_WITNESSES = [
    ("h3_p3", {((2, 1, 0), (1, 2, 2)), ((2, 2, 2), (1, 1, 1))},
     "Exp of the recovered ring disagrees with the law at x=(2, 1, 0), "
     "y=(1, 2, 2): (0, 0, 2) vs (0, 0, 0)"),
    ("h3_p7", {((3, 3, 4), (4, 0, 5)), ((6, 3, 0), (1, 2, 2))},
     "Exp of the recovered ring disagrees with the law at x=(3, 3, 4), "
     "y=(4, 0, 5): (0, 3, 3) vs (0, 3, 4)"),
    # pairs 4096 and 11111 of 15625: the first lies just past the first
    # chunk of rows converted to Python tuples
    ("h3_p5", {((1, 1, 2), (3, 4, 1)), ((3, 2, 3), (4, 2, 1))},
     "Exp of the recovered ring disagrees with the law at x=(1, 1, 2), "
     "y=(3, 4, 1): (4, 0, 1) vs (4, 0, 2)"),
]


@pytest.mark.parametrize("name, bad, message", LOG_GROUP_WITNESSES)
def test_log_group_witness_is_first_bad_pair(rings, name, bad, message):
    ring = rings[name]

    def law(x, y):
        out = exp_mul(ring, x, y)
        if (x, y) in bad:
            out = out[:2] + ((out[2] + 1) % ring.pk,)
        return out

    with pytest.raises(LazardError) as err:
        log_group(law, ring.p, ring.k, ring.rank)
    assert str(err.value) == message


def test_log_group_rejects_non_exponential_coordinates():
    # Heisenberg in matrix coordinates: the additive part matches but the
    # recovered ring's Exp law disagrees pointwise with the input law
    def matrix_law(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3,
                (x[2] + y[2] + x[0] * y[1]) % 3)

    with pytest.raises(LazardError):
        log_group(matrix_law, 3, 1, 3)

    # rank-one twisted law x + y + xy: degree-1 part is fine, the check
    # against the recovered (abelian) ring fails
    def twisted(x, y):
        return ((x[0] + y[0] + x[0] * y[0]) % 5,)

    with pytest.raises(LazardError):
        log_group(twisted, 5, 1, 1)


def test_log_group_rejects_shifted_identity():
    def shifted(x, y):
        return ((x[0] + y[0] + 1) % 5,)

    with pytest.raises(LazardError):
        log_group(shifted, 5, 1, 1)


class TestSubring:
    def test_center_of_heisenberg(self):
        ring = heis(3)
        center = Subring(ring, [(0, 0, 1)])
        assert center.size() == 3
        assert center.is_ideal()
        assert center.contains((0, 0, 2))
        assert not center.contains((0, 1, 0))
        full = Subring.full(ring)
        assert bracket_span(full, full).generators() == center.generators()

    def test_elements_and_sum(self):
        ring = heis(3)
        a = Subring(ring, [(1, 0, 0)])
        b = Subring(ring, [(0, 1, 0)])
        s = a.sum_with(b)
        assert s.size() == 9
        assert len(a.elements()) == 3
        assert not Subring.zero(ring).generators()

    def test_elements_match_brute_force(self):
        # old enumeration: every coefficient in Z/p^k on every Howell row
        rng = random.Random(9)
        for p, k in ((3, 2), (5, 2), (3, 3)):
            for rank in (2, 3):
                ring = LieRing(p, k, rank, {})
                for _ in range(4):
                    gens = [[rng.randrange(ring.pk) * p ** rng.randrange(k)
                             for _ in range(rank)]
                            for _ in range(rng.randrange(1, rank + 1))]
                    sub = Subring(ring, gens)
                    brute = set()
                    for cs in itertools.product(range(ring.pk),
                                                repeat=len(sub.rows)):
                        v = ring.zero()
                        for c, row in zip(cs, sub.rows):
                            v = ring.add(v, ring.scale(c, row))
                        brute.add(v)
                    assert sub.elements() == sorted(brute)
                    mask = sub.contains_rows(all_elements(ring))
                    assert mask.tolist() == [x in brute
                                             for x in ring.elements()]

    def test_members_list_each_member_once(self, rings):
        # radicals of B_chi on every catalog ring: all 729 characters of
        # h3_z9, whose radicals have rows with non-unit pivots, and 20
        # seeded characters elsewhere
        valuations = set()
        for name, ring in rings.items():
            chis = (all_characters(ring) if name == "h3_z9"
                    else sample_characters(ring, 20, random.Random(name)))
            for chi in chis:
                sub = radical(SkewForm(chi))
                members = sub.members()
                assert members.shape == (sub.size(), ring.rank)
                assert len(np.unique(members, axis=0)) == len(members)
                assert sub.contains_rows(members).all()
                assert set(map(tuple, members.tolist())) == set(sub.elements())
                assert sub.elements() == sorted(sub.elements())
                if name == "h3_z9":
                    valuations.update(v for _, v in sub.pivots)
        assert valuations == {0, 1}

    def test_howell_rows_canonical(self):
        ring = heis(3, k=2)
        one = Subring(ring, [(3, 0, 1), (0, 0, 3)])
        two = Subring(ring, [(3, 0, 1), (3, 0, 4), (0, 0, 6)])
        assert one.rows == two.rows

    def test_non_subring_detected(self):
        ring = heis(3)
        span = Subring(ring, [(1, 0, 0), (0, 1, 0)])
        assert not span.is_lie_subring()


def test_quotient_ring_heisenberg_mod_center():
    ring = heis(5)
    center = Subring(ring, [(0, 0, 1)])
    q, project, lift = quotient_ring(ring, center)
    assert q.rank == 2 and q.cls == 1
    for x in ring.elements():
        assert project(lift(project(x))) == project(x)
    # projection is a ring map
    for x in [(1, 2, 3), (4, 0, 1)]:
        for y in [(2, 2, 2), (0, 3, 1)]:
            assert project(ring.add(x, y)) == q.add(project(x), project(y))
            assert project(ring.bracket(x, y)) == q.bracket(project(x),
                                                            project(y))


def test_quotient_requires_ideal():
    ring = heis(5)
    not_ideal = Subring(ring, [(1, 0, 0)])
    with pytest.raises(ValueError):
        quotient_ring(ring, not_ideal)


def test_serialize_round_trip(rings):
    for ring in rings.values():
        text = serialize_ring(ring)
        back = parse_ring(text)
        assert back == ring and back.name == ring.name
        assert serialize_ring(back) == text


def test_parse_ring_rejects_garbage():
    with pytest.raises(Exception):
        parse_ring("not a ring file\n")
    with pytest.raises(Exception):
        parse_ring("ring bad\np 4\nk 1\nrank 1\nend\n")
