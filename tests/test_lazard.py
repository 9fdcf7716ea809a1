import random

import pytest

from orbitlab import lazard
from orbitlab.arith import inv_mod
from orbitlab.lazard import (
    LazardError,
    LieRing,
    Subring,
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
    validate,
)


def heis(p, k=1):
    return LieRing(p, k, 3, {(0, 1): (0, 0, 1)}, name="h3")


def test_catalog_shape(rings):
    assert len(rings) == 21
    for name, ring in rings.items():
        report = validate(ring)
        assert report["name"] == name
        assert report["class"] < ring.p
        assert report["order"] == ring.pk**ring.rank
        assert report["lcs_sizes"][0] == report["order"]


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
    # show the triple as Python ints, in the exhaustive and sampled modes
    ring = heis(3)
    batch = lazard.batch_exp_mul
    calls = []

    def perturbed(ring, X, Y):
        out = batch(ring, X, Y)
        calls.append(None)
        if len(calls) == 2:
            out[0, 0] = (out[0, 0] + 1) % ring.pk
        return out

    monkeypatch.setattr(lazard, "batch_exp_mul", perturbed)
    limit = 32768 if samples is None else 0
    with pytest.raises(LazardError) as err:
        check_exp_associative(ring, samples=samples or 10,
                              exhaustive_limit=limit)
    message = str(err.value)
    assert message.startswith("associativity defect at x=(")
    assert "np." not in message and "int64" not in message


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
