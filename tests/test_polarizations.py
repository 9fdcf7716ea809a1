from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab.lazard import LieRing, Subring, bracket_span, catalog
from orbitlab.orbits import SkewForm, all_characters, generic_character
from orbitlab.polarizations import (
    PolarizationError,
    Polarization,
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
    assert pol.isotropic and pol.lie_subring


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
