import random
from fractions import Fraction

import pytest

from orbitlab.arith import QpModZp
from orbitlab.lazard import LieRing, exp_mul
from orbitlab.orbits import (
    CapError,
    Character,
    CoadjointOrbit,
    OrbitError,
    SkewForm,
    all_characters,
    coadjoint_act,
    dual_size,
    enumerate_orbits,
    generic_character,
    kernel_lemma_check,
    orbit_histogram,
    radical,
    sample_characters,
    stabilizer_oracle,
)


def test_character_values(rings):
    ring = rings["h3_p3"]
    chi = Character.from_values(ring, [Fraction(1, 3), 0, Fraction(2, 3)])
    assert chi.nums == (1, 0, 2)
    assert chi.value((1, 1, 1)) == QpModZp(3, 0, 1)
    assert chi.value((1, 0, 0)) == QpModZp(3, 1, 1)
    # additivity
    for x in ((1, 2, 0), (0, 1, 1)):
        for y in ((2, 2, 2), (1, 0, 1)):
            s = ring.add(x, y)
            assert chi.value(s) == chi.value(x) + chi.value(y)
    with pytest.raises(ValueError):
        Character.from_values(ring, [Fraction(1, 9), 0, 0])


def test_coadjoint_is_group_action(rings):
    for name in ("h3_p3", "u4_p5"):
        ring = rings[name]
        rng = random.Random(11)
        for chi in sample_characters(ring, 10, rng):
            g = ring.random_element(rng)
            h = ring.random_element(rng)
            one_step = coadjoint_act(exp_mul(ring, g, h), chi)
            two_step = coadjoint_act(g, coadjoint_act(h, chi))
            assert one_step == two_step
            assert coadjoint_act(ring.zero(), chi) == chi


def test_coadjoint_fixes_central_pairing(rings):
    # chi dual to the central coordinate of h3 is moved inside its orbit
    # but its restriction to the center never changes
    ring = rings["h3_p3"]
    chi = generic_character(ring)
    assert chi.nums == (0, 0, 1)
    for g in ring.elements():
        assert coadjoint_act(g, chi).nums[2] == 1


def test_skew_form_is_chi_of_bracket(rings):
    ring = rings["u4_p5"]
    rng = random.Random(5)
    for chi in sample_characters(ring, 5, rng):
        form = SkewForm(chi)
        for _ in range(10):
            x = ring.random_element(rng)
            y = ring.random_element(rng)
            assert form.value(x, y) == chi.value(ring.bracket(x, y))
            assert (form.value(x, y) + form.value(y, x)).is_zero()


def test_radical_is_stabilizer_heisenberg(rings):
    ring = rings["h3_p3"]
    for chi in all_characters(ring):
        rad = radical(SkewForm(chi))
        stab = stabilizer_oracle(chi)
        assert rad.rows == stab.rows


def test_kernel_lemma_check_reports(rings):
    ring = rings["h3_p5"]
    report = kernel_lemma_check(ring, generic_character(ring),
                                rng=random.Random(0))
    assert report["equal"]
    assert report["stabilizer_size"] == report["radical_size"] == 5
    assert report["perp_cases"] > 0


def test_orbit_census_heisenberg(rings):
    ring = rings["h3_p3"]
    orbits = enumerate_orbits(ring)
    assert len(orbits) == 11  # p^2 + (p - 1)
    assert orbit_histogram(orbits) == {1: 9, 9: 2}
    assert sum(o.size for o in orbits) == dual_size(ring)
    for o in orbits:
        assert o.size * o.stabilizer.size() == ring.size()


def test_orbit_reps_are_lex_minimal_and_disjoint(rings):
    ring = rings["h3_p3"]
    orbits = enumerate_orbits(ring)
    seen = set()
    for o in orbits:
        # recompute the full orbit of the rep by brute force
        members = {o.rep.nums}
        frontier = [o.rep]
        while frontier:
            chi = frontier.pop()
            for g in ring.elements():
                moved = coadjoint_act(g, chi)
                if moved.nums not in members:
                    members.add(moved.nums)
                    frontier.append(moved)
        assert len(members) == o.size
        assert min(members) == o.rep.nums
        assert not members & seen
        seen |= members
    assert len(seen) == dual_size(ring)


def test_orbit_cap_enforced():
    # fresh ring: the exhaustive-scan tensor is cached per ring object, and
    # the cap only guards building it
    from orbitlab.lazard import LieRing

    ring = LieRing(3, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
    with pytest.raises(OrbitError):
        enumerate_orbits(ring, cap=10)
    with pytest.raises(OrbitError):
        stabilizer_oracle(generic_character(ring), cap=10)


def test_cap_error_is_an_orbit_error():
    ring = LieRing(3, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
    with pytest.raises(CapError, match="above the cap 10"):
        enumerate_orbits(ring, cap=10)
    with pytest.raises(CapError, match="exhaustive-scan cap 10"):
        stabilizer_oracle(generic_character(ring), cap=10)
    assert issubclass(CapError, OrbitError)


def test_abelian_orbits_are_singletons(rings):
    ring = rings["abelian2_p3"]
    orbits = enumerate_orbits(ring)
    assert len(orbits) == 9
    assert all(o.size == 1 for o in orbits)
    assert all(o.stabilizer.size() == ring.size() for o in orbits)
