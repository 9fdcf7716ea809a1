import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import lazard, polarizations
from orbitlab.lazard import LieRing, Subring, bracket_span, catalog
from orbitlab.orbits import (Character, SkewForm, all_characters,
                             generic_character, radical)
from orbitlab.polarizations import (
    PolarizationError,
    Polarization,
    _is_subset,
    _least_outside,
    heisenberg_chain,
    lagrangian_extend,
    perp,
    polarize,
    start_polarization,
)


def generic_form(rings, name):
    ring = rings[name]
    return SkewForm(generic_character(ring))


def test_perp_matches_brute_force(rings):
    ring = rings["h3_p3"]
    form = generic_form(rings, "h3_p3")
    h = Subring(ring, [(0, 0, 1), (1, 0, 0)])
    out = perp(h, form)
    want = sorted(x for x in ring.elements()
                  if all(form.value(x, g).is_zero() for g in h.generators()))
    assert out.elements() == want


def test_perp_cardinality_identity(rings):
    for name in ("h3_p3", "h3_z9", "u4_p5", "h3xa1_p7"):
        ring = rings[name]
        form = generic_form(rings, name)
        pol = start_polarization(form)
        assert (pol.perp.size() * pol.h.size()
                == ring.size() * pol.radical.size())


def test_start_is_radical(rings):
    form = generic_form(rings, "h3_p3")
    pol = start_polarization(form)
    assert pol.h.rows == pol.radical.rows
    assert pol.lie_subring


def test_polarization_rejects_non_containing_h(rings):
    form = generic_form(rings, "h3_p3")
    with pytest.raises(PolarizationError):
        Polarization(form, Subring.zero(form.ring))


def test_polarization_rejects_non_isotropic_h(rings):
    form = generic_form(rings, "h3_p3")
    with pytest.raises(PolarizationError):
        Polarization(form, Subring.full(form.ring))


def test_chain_postconditions_heisenberg(rings):
    form = generic_form(rings, "h3_p5")
    steps = []
    final = heisenberg_chain(start_polarization(form), trace=steps)
    assert final.heisenberg_strong and final.heisenberg
    ring = form.ring
    for step in steps:
        assert _contained(bracket_span(step.perp, step.h), step.h)
        assert (step.perp.size() * step.h.size()
                == ring.size() * step.radical.size())
    # strictly increasing h along the chain
    sizes = [s.h.size() for s in steps]
    assert sizes == sorted(set(sizes))


def _contained(a, b):
    return all(b.contains(g) for g in a.generators())


def test_lagrangian_heisenberg_generic(rings):
    form = generic_form(rings, "h3_p3")
    steps, final, lag = polarize(form)
    assert lag is not None and lag.is_lagrangian()
    assert lag.h.rows == ((1, 0, 0), (0, 0, 1))
    assert lag.h.size() ** 2 == form.ring.size() * lag.radical.size()


def test_lagrangian_self_perp_everywhere_square(rings):
    for name in ("h3_p3", "u4_p5", "h3_z9", "abelian3_p3"):
        form = generic_form(rings, name)
        steps, final, lag = polarize(form)
        quot = form.ring.size() // final.radical.size()
        if isqrt(quot) ** 2 == quot:
            assert lag is not None
            assert lag.h.rows == lag.perp.rows
            assert lag.h.size() ** 2 == form.ring.size() * lag.radical.size()
        else:
            assert lag is None


def test_abelian_chain_is_trivial(rings):
    form = generic_form(rings, "abelian2_p5")
    steps, final, lag = polarize(form)
    assert len(steps) == 1
    assert final.h.size() == form.ring.size()
    assert lag is not None and lag.h.size() == form.ring.size()


def test_lagrangian_extend_requires_heisenberg_flagged_start(rings):
    # a fresh Polarization at the radical of u4 generic is not yet
    # Heisenberg-strong but extension demands at least the weak flag;
    # starting from the chain's final always works
    form = generic_form(rings, "u4_p5")
    final = heisenberg_chain(start_polarization(form))
    lag = lagrangian_extend(final)
    assert lag.is_lagrangian()
    assert _contained(lag.h, final.perp)
    assert _contained(final.h, lag.h)


def _assert_chain_postconditions(ring, steps, final, lag):
    """What criterion 6 asserts of one polarize() result."""
    radical_size = steps[0].radical.size()
    for step in steps:
        assert step.perp.size() * step.h.size() == ring.size() * radical_size
    for before, after in zip(steps, steps[1:]):
        assert after.h.size() > before.h.size()
        assert _contained(bracket_span(before.perp, before.perp), after.perp)
        assert _contained(after.perp, before.perp)
    assert _contained(bracket_span(final.perp, final.h), final.h)
    assert final.heisenberg and final.heisenberg_strong
    quot = ring.size() // radical_size
    if isqrt(quot) ** 2 == quot:
        assert lag is not None
        assert lag.h.rows == lag.perp.rows
    else:
        assert lag is None


@pytest.mark.parametrize("name", ["h3_p5", "h3xa1_p5"])
def test_every_character_polarizes(rings, name):
    ring = rings[name]
    count = 0
    for chi in all_characters(ring):
        _assert_chain_postconditions(ring, *polarize(SkewForm(chi)))
        count += 1
    assert count == ring.pk ** ring.rank


# -- the greedy candidate: Howell-row search against sort-and-scan -----------

LEAST_OUTSIDE_RINGS = [
    LieRing(p, k, 3 if p ** k <= 9 else 2, {}, name=f"abelian_z{p ** k}")
    for p in (2, 3, 5) for k in (1, 2, 3)
] + [ring for name, ring in catalog().items() if name in ("h3_z9", "u4_p5")]


def _brute_least_outside(big, small):
    return next((x for x in sorted(big.elements(), key=lambda v: v[::-1])
                 if not small.contains(x)), None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_least_outside_matches_sort_and_scan(data):
    ring = data.draw(st.sampled_from(LEAST_OUTSIDE_RINGS))
    pk = ring.pk
    # entries scaled by p-powers, so pivots of every valuation occur
    entry = st.builds(lambda c, e: c * ring.p ** e % pk,
                      st.integers(0, pk - 1), st.integers(0, ring.k))
    vector = st.tuples(*[entry] * ring.rank)
    big = Subring(ring, data.draw(st.lists(vector, max_size=3)))
    gens = big.generators()
    combos = data.draw(st.lists(
        st.lists(st.integers(0, pk - 1), min_size=len(gens),
                 max_size=len(gens)),
        max_size=len(gens) + 1))
    small = Subring(ring, [
        tuple(sum(c * g[i] for c, g in zip(cs, gens)) % pk
              for i in range(ring.rank))
        for cs in combos])
    assert _least_outside(big, small) == _brute_least_outside(big, small)
    assert _least_outside(big, big) is None


# -- brackets over unordered pairs, against every ordered pair --------------

def _ordered_bracket_span(a, b):
    """[A, B] from every ordered generator pair, zero brackets kept."""
    ring = a.ring
    return Subring(ring, [ring.bracket(x, y)
                          for x in a.generators() for y in b.generators()])


def _ordered_is_lie_subring(s):
    gens = s.generators()
    return bool(s.contains_rows(
        [s.ring.bracket(x, y) for x in gens for y in gens]).all())


def _class2_ring(seed, p=5, dv=4, dz=2):
    """Random brackets V x V -> Z, class 2 by construction."""
    rng = random.Random(seed)
    brackets = {(i, j): (0,) * dv + tuple(rng.randrange(p) for _ in range(dz))
                for i in range(dv) for j in range(i + 1, dv)}
    return LieRing(p, 1, dv + dz, brackets, name=f"class2_{seed}")


@pytest.mark.parametrize(
    "ring", list(catalog().values()) + [_class2_ring(s) for s in range(3)],
    ids=lambda ring: ring.name)
def test_unordered_brackets_match_ordered_pairs(ring):
    # every subring of polarize on the generic and 8 random characters
    rng = random.Random(ring.name)
    chars = [generic_character(ring).nums] + [
        tuple(rng.randrange(ring.pk) for _ in range(ring.rank))
        for _ in range(8)]
    subrings = []
    for nums in chars:
        steps, final, lag = polarize(SkewForm(Character(ring, nums)))
        for pol in steps + [final] + [lag] * (lag is not None):
            subrings += [pol.h, pol.perp, pol.radical]
            assert (pol.perp_bracket.rows
                    == _ordered_bracket_span(pol.perp, pol.perp).rows)
            assert (bracket_span(pol.perp, pol.h).rows
                    == _ordered_bracket_span(pol.perp, pol.h).rows)
    # and spans of random vectors, which need not be Lie subrings
    subrings += [Subring(ring, [ring.random_element(rng) for _ in range(n)])
                 for n in (1, 2, 3)]
    for a in subrings:
        assert a.is_lie_subring() == _ordered_is_lie_subring(a)
        assert bracket_span(a, a).rows == _ordered_bracket_span(a, a).rows
        # equal rows in another object take the ordered-pairs route
        twin = Subring(ring, a.rows)
        assert bracket_span(a, twin).rows == bracket_span(a, a).rows
        for b in subrings[:6]:
            assert _is_subset(a, b) == _contained(a, b)


# -- negative controls: each check of the chain and the extension fires ------

def _polarization(ring, nums, v):
    """The Polarization at rad(B_chi) + <v>, built before any patch."""
    form = SkewForm(Character(ring, nums))
    return Polarization(form, radical(form).sum_with(Subring(ring, [v])))


def _full_perp(monkeypatch):
    monkeypatch.setattr(polarizations, "perp",
                        lambda h, form: Subring.full(form.ring))


def test_chain_catches_an_enlargement_that_did_not_grow(rings, monkeypatch):
    # a sum_with that drops its argument leaves h as it was
    monkeypatch.setattr(lazard.Subring, "sum_with", lambda self, other: self)
    with pytest.raises(PolarizationError,
                       match=r"^enlargement did not grow: \|h\| = 25 -> 25$"):
        polarize(generic_form(rings, "u4_p5"))


def test_chain_catches_an_enlargement_that_is_not_quasi(rings, monkeypatch):
    # [A, A] read as the whole ring for a proper A: the start's perp is g,
    # so only the enlarged polarization sees its perp as not closed
    ring = rings["u4_p5"]
    honest = polarizations.bracket_span

    def corrupted(a, b):
        if a is b and a.size() < ring.size():
            return Subring.full(ring)
        return honest(a, b)

    monkeypatch.setattr(polarizations, "bracket_span", corrupted)
    with pytest.raises(PolarizationError,
                       match=r"^enlargement is not a quasi-polarization$"):
        polarize(generic_form(rings, "u4_p5"))


def test_chain_catches_a_bracket_escaping_the_new_perp(rings, monkeypatch):
    # the start's [h_perp, h_perp], the first span taken, carries the
    # first generator of h_perp (e12, outside the Lagrangian) too many
    honest = polarizations.bracket_span
    calls = []

    def corrupted(a, b):
        calls.append(a)
        out = honest(a, b)
        if len(calls) > 1:
            return out
        return Subring(a.ring, list(out.rows) + [a.rows[0]])

    monkeypatch.setattr(polarizations, "bracket_span", corrupted)
    with pytest.raises(PolarizationError,
                       match=r"^\[h_perp, h_perp\] escapes the new perp$"):
        polarize(generic_form(rings, "u4_p5"))
    assert calls[0].rows[0] == (1, 0, 0, 0, 0, 0)


def test_chain_catches_a_new_perp_outside_the_old(rings, monkeypatch):
    # a start above the radical, so its perp is a proper subring
    start = _polarization(rings["u4_p5"], (0, 0, 0, 0, 0, 1),
                          (0, 0, 0, 1, 1, 0))
    assert start.is_quasi() and start.perp.size() == 5**5
    _full_perp(monkeypatch)
    with pytest.raises(PolarizationError,
                       match=r"^new perp is not inside the old one$"):
        heisenberg_chain(start)


@pytest.mark.parametrize("nums, message", [
    ((0, 0, 0, 0, 0, 1),
     r"^adjoining \(0, 0, 1, 0, 0, 0\) broke the Heisenberg property$"),
    ((0, 0, 4, 0, 3, 1),
     r"^adjoining \(1, 0, 0, 0, 0, 0\) left the original perp$"),
])
def test_extension_catches_a_corrupted_perp(rings, monkeypatch, nums, message):
    # from rad + <e24>; every later perp read as the whole ring
    start = _polarization(rings["u4_p5"], nums, (0, 0, 0, 0, 1, 0))
    assert start.heisenberg and not start.is_lagrangian()
    _full_perp(monkeypatch)
    with pytest.raises(PolarizationError, match=message):
        lagrangian_extend(start)
