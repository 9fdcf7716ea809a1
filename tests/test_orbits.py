import gc
import hashlib
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from orbitlab.arith import Modulus, QpModZp, howell, kernel, span_size
from orbitlab import arith, cli, lazard, orbits
from orbitlab.lazard import (LieRing, Subring, all_elements, batch_conjugate,
                             element_index, exp_mul, serialize_ring)
from orbitlab.lazard import catalog as lazard_catalog
from orbitlab.orbits import (
    CapError,
    Character,
    OrbitError,
    SkewForm,
    all_characters,
    coadjoint_act,
    coadjoint_matrix,
    enumerate_orbits,
    generic_character,
    kernel_lemma_all,
    kernel_lemma_check,
    orbit_histogram,
    radical,
    sample_characters,
    stabilizer_oracle,
)
from orbitlab.polarizations import polarize


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
    assert sum(o.size for o in orbits) == ring.size()
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
    assert len(seen) == ring.size()


def test_orbit_cap_enforced():
    # the exhaustive-scan tensor is cached per ring; a smaller cap must
    # still be enforced once the cache is filled
    ring = LieRing(3, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
    chi = generic_character(ring)
    assert stabilizer_oracle(chi).size() == 3
    with pytest.raises(CapError):
        stabilizer_oracle(chi, cap=10)
    with pytest.raises(CapError):
        kernel_lemma_check(ring, chi, cap=10)
    enumerate_orbits(ring)
    with pytest.raises(OrbitError):
        enumerate_orbits(ring, cap=10)


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


def test_kernel_reports_match_digest(rings):
    # stabilizer_size, radical_size and perp_cases of every character of
    # h3_p5 and h3_z9 and of 200 seeded characters of u4_p5, digested as
    # computed by the one-character-at-a-time scalar engine
    digest = hashlib.sha256()
    chars = [(rings["h3_p5"], all_characters(rings["h3_p5"])),
             (rings["h3_z9"], all_characters(rings["h3_z9"])),
             (rings["u4_p5"], sample_characters(rings["u4_p5"], 200,
                                                random.Random(2024)))]
    for ring, chis in chars:
        for chi in chis:
            r = kernel_lemma_check(ring, chi)
            digest.update(repr((r["stabilizer_size"], r["radical_size"],
                                r["perp_cases"])).encode())
    assert digest.hexdigest() == (
        "6bee8304422709245c38042f445a9e4c6efb0945ba2709863e6f331a78cd2d9f")


def test_stable_subalgebras_match_howell_membership(rings):
    # the support test on coordinate spans against Subring.contains
    rng = random.Random(4)
    for name in ("h3_z9", "h3xa1_p5", "u4_p5"):
        ring = rings[name]
        spans = {}
        for bits in range(1, 2 ** ring.rank):
            subset = tuple(i for i in range(ring.rank) if bits >> i & 1)
            span = Subring(ring, [ring.basis(i) for i in subset])
            if span.is_lie_subring():
                spans[subset] = span
        found = orbits._coordinate_subalgebras(ring)
        assert [subset for subset, _ in found] == list(spans)
        bs = [ring.basis(t) for t in range(ring.rank)]
        bs += [ring.random_element(rng) for _ in range(20)]
        for b in bs:
            want = [subset for subset, span in spans.items()
                    if all(span.contains(ring.bracket(b, ring.basis(i)))
                           for i in subset)]
            stable = orbits._stable_subalgebras(ring, b)
            assert [subset for subset, _ in stable] == want
            assert set(stable) <= set(found)  # each with its bit mask
        assert orbits._basis_stable(ring) == [
            orbits._stable_subalgebras(ring, b) for b in bs[:ring.rank]]


def test_stabilizer_witness_prints_plain_ints(rings, monkeypatch):
    # a coadjoint action that fixes everything makes the scanned
    # stabilizer the whole group, unlike the radical
    monkeypatch.setattr(orbits, "batch_conjugate",
                        lambda ring, G, X: X % ring.pk)
    ring = LieRing(5, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
    with pytest.raises(OrbitError) as err:
        kernel_lemma_check(ring, generic_character(ring))
    message = str(err.value)
    assert message.startswith("stabilizer differs from radical")
    assert message.endswith("radical rows ((0, 0, 1),), stabilizer rows "
                            "((1, 0, 0), (0, 1, 0), (0, 0, 1))")
    assert "np." not in message and "int64" not in message


@pytest.mark.parametrize("random_b", [False, True])
def test_perpendicularity_witness_prints_plain_ints(monkeypatch, random_b):
    # with every coadjoint matrix the identity, chi and b.chi always agree
    # while B_chi(b, a) need not vanish
    monkeypatch.setattr(orbits, "coadjoint_matrix", lambda ring, g: tuple(
        ring.basis(j) for j in range(ring.rank)))
    ring = LieRing(5, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
    rng = None
    if random_b:
        # only the two random elements are tested
        ring.orbit_cache["basis_stable"] = [[] for _ in range(ring.rank)]
        rng = random.Random(1)
    with pytest.raises(OrbitError) as err:
        kernel_lemma_check(ring, generic_character(ring), rng=rng)
    message = str(err.value)
    assert message.startswith("perpendicularity violated at chi = "
                              "Character(0/1, 0/1, 1/5), b = (")
    assert message.endswith("agree = True, perpendicular = False")
    assert "np." not in message and "int64" not in message


# -- census from orbit labels and batched radicals ----------------------------

def class2_ring(name, p, dv, dz, seed):
    """g = V + Z with random brackets V x V -> Z central (Jacobi holds by
    construction), redrawn until [V, V] spans Z."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(dv) for j in range(i + 1, dv)]
    while True:
        brackets = {pair: (0,) * dv + tuple(rng.randrange(p)
                                            for _ in range(dz))
                    for pair in pairs}
        ring = LieRing(p, 1, dv + dz, brackets, name=name)
        derived = Subring(ring, list(brackets.values()))
        if derived.size() == p ** dz:
            return ring


CENSUS_RINGS = sorted(name for name, ring in lazard_catalog().items()
                      if ring.size() <= 5 ** 5)
CLASS2_SHAPES = [("c2_h5_p5", 5, 4, 1), ("c2_v3z2_p7", 7, 3, 2),
                 ("c2_v3z1_p5", 5, 3, 1)]


def h3_z25():
    """h3 over Z/25: 15,625 characters, radicals with pivots of valuation
    0 and 1."""
    return LieRing(5, 2, 3, {(0, 1): (0, 0, 1)}, name="h3_z25")


def bfs_census(ring):
    """(representative, size) per orbit by breadth-first closure
    from seeds in lexicographic order, under the generator matrices of
    coadjoint_matrix(e_t): the lexicographically first seed of an orbit
    is its minimal member."""
    chis = all_elements(ring)
    perms = [element_index(ring, chis @ np.array(
        orbits.coadjoint_matrix(ring, ring.basis(t))).T)
        for t in range(ring.rank)]
    visited = np.zeros(len(chis), dtype=bool)
    out = []
    for seed in range(len(chis)):
        if visited[seed]:
            continue
        visited[seed] = True
        frontier, size = np.array([seed]), 1
        while frontier.size:
            nxt = np.unique(np.concatenate([p[frontier] for p in perms]))
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            size += nxt.size
            frontier = nxt
        out.append((tuple(chis[seed].tolist()), size))
    return out


@pytest.mark.parametrize("source", CENSUS_RINGS + CLASS2_SHAPES
                         + [pytest.param(h3_z25, id="h3_z25")],
                         ids=lambda s: s if isinstance(s, str) else s[0])
def test_census_matches_bfs_and_radicals(source):
    # fresh rings: the census fills the per-ring cache
    ring = (lazard_catalog()[source] if isinstance(source, str)
            else source() if callable(source)
            else class2_ring(*source, seed=11))
    found = enumerate_orbits(ring)
    assert [(o.rep.nums, o.size) for o in found] == bfs_census(ring)
    for o in found:
        assert o.stabilizer.rows == radical(SkewForm(o.rep)).rows
        assert o.size * o.stabilizer.size() == ring.size()


def test_swapped_generator_entry_names_the_representative():
    # h3 over F_3: (1, 0, 0) is fixed, (0, 0, 1) has an orbit of 9; send
    # the first into the second orbit and the merged orbit breaks
    # orbit-stabilizer counting at its minimum (0, 0, 1)
    ring = lazard_catalog()["h3_p3"]
    perm = orbits._perms(ring)[0]
    i, j = element_index(ring, [(1, 0, 0), (0, 0, 1)]).tolist()
    perm[i], perm[j] = perm[j], perm[i]
    with pytest.raises(OrbitError) as err:
        enumerate_orbits(ring)
    assert str(err.value) == (
        "orbit size 10 times stabilizer size 3 is not |G| = 27 at rep "
        "Character(0/1, 0/1, 1/3)")


def test_left_kernels_match_howell_kernel():
    rng = np.random.default_rng(3)
    for p, k, n in ((3, 1, 4), (5, 1, 6), (7, 1, 3), (3, 2, 4), (5, 2, 3),
                    (3, 3, 3), (2, 3, 4)):
        pk = p ** k
        A = rng.integers(0, pk, size=(200, n, n))
        # entries of every valuation 0..k, so that for k > 1 pivots that
        # are not units occur
        A[1::2] = A[1::2] * p ** rng.integers(0, k + 1, A[1::2].shape) % pk
        A[::3, 0] = 0   # rank drops
        A[::5] = 0
        V, sizes = orbits._left_kernels(A, LieRing(p, k, n, {}))
        mod = Modulus(p, k)
        for a, v, size in zip(A, V, sizes.tolist()):
            assert not (v @ a % pk).any()
            rows = kernel(a.tolist(), mod)
            assert Subring(LieRing(p, k, n, {}), v.tolist()).rows == howell(
                rows, mod)
            assert size == span_size(rows, mod)
        # a kernel whose size is not a power of p^k took a pivot of
        # valuation strictly between 0 and k
        powers = {pk ** e for e in range(n + 1)}
        assert (set(sizes.tolist()) <= powers) == (k == 1), (p, k, n)


@pytest.mark.parametrize("make", [lambda: lazard_catalog()["h3_z9"], h3_z25],
                         ids=["h3_z9", "h3_z25"])
def test_radicals_take_one_batched_path_for_every_k(monkeypatch, make):
    # for k > 1 no radical comes from a skew form and a Howell form of its
    # own: the per-character route would raise here
    ring = make()

    def refuse(*args):
        raise AssertionError("per-character radical")
    for module, name in ((orbits, "radical"), (orbits, "SkewForm"),
                         (arith, "howell")):
        monkeypatch.setattr(module, name, refuse)
    assert len(enumerate_orbits(ring)) == {9: 105, 25: 745}[ring.pk]
    assert kernel_lemma_all(ring)["characters"] == ring.size()


def test_batched_bracket_closure_names_its_character(monkeypatch):
    # [e2, e3] read as e0 in h3 + a1 over F_3: every character with
    # chi(e2) != 0 has radical span(e2, e3), and e0 pairs with e1 to
    # chi(e2), so the first of them, the generic character, is named
    ring = lazard_catalog()["h3xa1_p3"]
    e2, e3 = ring.basis(2), ring.basis(3)
    bracket = orbits.batch_bracket

    def corrupted(ring, X, Y):
        out = bracket(ring, X, Y)
        out[(X == e2).all(axis=1) & (Y == e3).all(axis=1)] = ring.basis(0)
        return out
    monkeypatch.setattr(orbits, "batch_bracket", corrupted)
    with pytest.raises(OrbitError) as err:
        kernel_lemma_all(ring)
    assert str(err.value) == ("radical of chi = Character(0/1, 0/1, 1/3, 0/1) "
                              "is not closed under bracket")


def test_witness_names_the_least_character_of_the_failing_forms(monkeypatch):
    # [e3, e4] read as e1 in u4 over F_5: each form with chi_5 = 0 and
    # (chi_3, chi_4) != 0 keeps e3 and e4 as radical rows 3 and 4, and e1
    # pairs with e0 or e2 to chi_3 or chi_4, so all of them fail at that
    # pair.  The form keyed least (chi_3 = 1, read as least significant) is
    # first held by (0, 0, 0, 1, 0, 0), but (0, 0, 0, 0, 1, 0) comes first
    ring = lazard_catalog()["u4_p5"]
    e3, e4 = ring.basis(3), ring.basis(4)
    bracket = orbits.batch_bracket

    def corrupted(ring, X, Y):
        out = bracket(ring, X, Y)
        out[(X == e3).all(axis=1) & (Y == e4).all(axis=1)] = ring.basis(1)
        return out
    monkeypatch.setattr(orbits, "batch_bracket", corrupted)
    for check in (kernel_lemma_all, enumerate_orbits):
        with pytest.raises(OrbitError) as err:
            check(ring)
        assert str(err.value) == (
            "radical of chi = Character(0/1, 0/1, 0/1, 0/1, 1/5, 0/1) is not "
            "closed under bracket")


@pytest.mark.parametrize("source", sorted(lazard_catalog()) + CLASS2_SHAPES
                         + [pytest.param(h3_z25, id="h3_z25")],
                         ids=lambda s: s if isinstance(s, str) else s[0])
def test_radicals_per_form_match_the_per_character_route(source):
    # the forms, radical rows and sizes that _radicals keeps per distinct
    # form, gathered back per character, against eliminating every
    # character's own form; on all characters (in blocks, to bound memory)
    # and on the census representatives
    ring = (lazard_catalog()[source] if isinstance(source, str)
            else source() if callable(source)
            else class2_ring(*source, seed=11))
    lab = orbits._labels(ring, orbits.DUAL_CAP)
    reps = np.flatnonzero(lab == np.arange(len(lab)))
    for chis in (all_elements(ring), all_elements(ring)[reps]):
        gens, sizes, B, inv = orbits._radicals(ring, chis)
        assert len(gens) == len(sizes) == len(B) == inv.max() + 1
        for lo in range(0, len(chis), 2 ** 14):
            block = slice(lo, lo + 2 ** 14)
            forms = orbits._forms(ring, chis[block])
            rows, counts = orbits._left_kernels(forms, ring)
            assert np.array_equal(B[inv[block]], forms)
            assert np.array_equal(gens[inv[block]], rows)
            assert np.array_equal(sizes[inv[block]], counts)


def test_orbit_cache_holds_no_reference_to_its_ring():
    # every per-ring cache, the radical memo among them, holds tuples and
    # arrays only, so with the cycle collector off a ring dies with its
    # last reference
    ring = lazard_catalog()["u4_p5"]
    chi = generic_character(ring)
    gc.disable()
    try:
        enumerate_orbits(ring)
        kernel_lemma_check(ring, chi, rng=random.Random(2))
        kernel_lemma_all(ring)
        polarize(SkewForm(chi))
        ref = weakref.ref(ring)
        del ring, chi
        assert ref() is None
    finally:
        gc.enable()


# -- kernel = stabilizer for every character ----------------------------------

@pytest.mark.parametrize("name", ["h3_p5", "h3_z9", "h3xa1_p3"])
def test_all_characters_match_per_character_checks(rings, name):
    ring = rings[name]
    report = kernel_lemma_all(ring)
    cases = 0
    for chi in all_characters(ring):
        cases += kernel_lemma_check(ring, chi)["perp_cases"]
    assert report == {"characters": ring.size(),
                      "orbits": len(enumerate_orbits(ring)),
                      "perp_cases": cases}


def test_all_mode_scans_each_representative_once(tmp_path, capsys,
                                                 monkeypatch):
    calls = []
    scan = orbits.stabilizer_oracle
    monkeypatch.setattr(orbits, "stabilizer_oracle",
                        lambda chi, cap=orbits.DUAL_CAP:
                            calls.append(chi) or scan(chi, cap=cap))
    path = tmp_path / "u4_p5.ring"
    path.write_text(serialize_ring(lazard_catalog()["u4_p5"]))
    t0 = time.process_time()
    code = cli.main(["kernel-check", str(path), "--samples", "15625",
                     "--format", "records"])
    elapsed = time.process_time() - t0
    assert code == 0
    assert capsys.readouterr().out == (
        "kernel ring=u4_p5 characters=15625 mode=all seed=0\n")
    assert len(calls) == 265
    assert elapsed < 5


@pytest.mark.parametrize("corrupt, witness", [
    # e12 lies outside the radical of u4's generic character (it pairs
    # with e24 to chi(e14) != 0), so it moves the character
    ("row", "radical row (1, 0, 0, 0, 0, 0) does not fix chi = "
            "Character(0/1, 0/1, 0/1, 0/1, 0/1, 1/5): it moves it to "),
    ("size", "radical of chi = Character(0/1, 0/1, 0/1, 0/1, 0/1, 1/5) "
             "has 125 elements, its orbit 625 of |G| = 15625"),
])
def test_corrupted_radical_is_a_witness(monkeypatch, corrupt, witness):
    ring = lazard_catalog()["u4_p5"]
    c = int(element_index(ring, [generic_character(ring).nums])[0])
    batched = orbits._radicals

    def corrupted(ring, chis):
        # the generic character's form, shared by every character that
        # agrees with it on the bracket coordinates; it is the least of them
        gens, sizes, B, inv = batched(ring, chis)
        f = inv[c]
        if corrupt == "row":
            gens[f, np.flatnonzero(gens[f].any(axis=1))[0]] = ring.basis(0)
        else:
            sizes[f] *= 5
        return gens, sizes, B, inv
    monkeypatch.setattr(orbits, "_radicals", corrupted)
    with pytest.raises(OrbitError) as err:
        kernel_lemma_all(ring)
    message = str(err.value)
    assert message.startswith(witness)
    assert "np." not in message and "int64" not in message


def test_all_mode_cap_is_checked_first(rings):
    with pytest.raises(CapError, match="exhaustive-scan cap 10"):
        kernel_lemma_all(rings["h3_p3"], cap=10)


# -- the exhaustive stabilizer scan --------------------------------------------

@pytest.mark.parametrize("name, count", [
    ("h3_p3", None), ("h3xa1_p3", None), ("h3_z9", None), ("u4_p5", 200),
    ("a1xh3_p5", None)])
def test_stabilizer_oracle_matches_dense_scan(rings, name, count):
    # every coadjoint matrix in full, from the scalar conjugate; the fixed
    # points of chi are the g with M_g chi = chi.  a1xh3_p5 has a leading
    # central coordinate, whose generator is e_0 plus a representative
    ring = a1xh3_p5() if name == "a1xh3_p5" else rings[name]
    matrices = np.array([coadjoint_matrix(ring, g) for g in ring.elements()])
    chis = (all_characters(ring) if count is None
            else sample_characters(ring, count, random.Random(5)))
    for chi in chis:
        a = np.array(chi.nums)
        fixed = all_elements(ring)[(matrices @ a % ring.pk == a).all(axis=1)]
        stab = stabilizer_oracle(chi)
        assert stab.size() == len(fixed)
        assert stab.rows == Subring(ring, fixed.tolist()).rows


@pytest.mark.parametrize("name, count", [("h3_z9", None), ("u4_p5", 200)])
def test_stabilizer_oracle_one_howell_form_per_character(monkeypatch, name,
                                                        count):
    ring = lazard_catalog()[name]
    calls = []
    monkeypatch.setattr(lazard, "howell",
                        lambda *args: calls.append(1) or howell(*args))
    chis = (all_characters(ring) if count is None
            else sample_characters(ring, count, random.Random(5)))
    for chi in chis:
        before = len(calls)
        stabilizer_oracle(chi)
        assert len(calls) == before + 1, chi


def a1xh3_p5():
    """Rank 4 over F_5 with only [e1, e2] = e3: e0 and e3 are central, and
    e0 is not a trailing coordinate."""
    return LieRing(5, 1, 4, {(1, 2): (0, 0, 0, 1)}, name="a1xh3_p5")


@pytest.mark.parametrize("name", ["abelian3_p3", "h3_p3", "h3xa1_p3", "h3_z9",
                                  "u4_p5", "a1xh3_p5"])
def test_cached_displacement(monkeypatch, name):
    ring = a1xh3_p5() if name == "a1xh3_p5" else lazard_catalog()[name]
    rows = []
    monkeypatch.setattr(orbits, "batch_conjugate", lambda ring, G, X: (
        rows.append(len(G)) or batch_conjugate(ring, G, X)))
    elems, disp, pos, live = orbits._group(ring, orbits.DUAL_CAP)
    central = [not any(any(ring.bracket(ring.basis(t), ring.basis(j)))
                       for t in range(ring.rank)) for j in range(ring.rank)]
    c = sum(central)
    # a central e_j is fixed by every g and costs no batch_conjugate call;
    # the others run once on each coset of the central coordinates, and
    # disp holds one column per coset
    assert len(rows) == ring.rank - c
    assert sum(rows) == (ring.rank - c) * ring.size() // ring.pk ** c
    assert disp.shape == (ring.rank, ring.rank, ring.size() // ring.pk ** c)
    assert disp.flags.c_contiguous
    # pos[g] is the rank, in lexicographic order, of g with its central
    # coordinates set to zero among all such elements
    reps = elems.copy()
    reps[:, central] = 0
    index = element_index(ring, reps)
    assert np.array_equal(pos, np.searchsorted(np.unique(index), index))
    for j in range(ring.rank):
        ej = np.zeros_like(elems)
        ej[:, j] = 1
        assert np.array_equal(
            disp[j][:, pos].T, (batch_conjugate(ring, -elems, ej) - ej) % ring.pk)
    assert live == [tuple(e) for e in np.argwhere(disp.any(axis=2)).tolist()]


def _corrupt_group(monkeypatch, ring, corrupt):
    """Cache a copy of the displacement array changed by corrupt(disp, rep),
    rep(g) the column of g's coset representative."""
    elems, disp, pos, live = orbits._group(ring, orbits.DUAL_CAP)
    disp = disp.copy()
    corrupt(disp, lambda g: int(pos[element_index(ring, [g])[0]]))
    monkeypatch.setitem(ring.orbit_cache, "group", (elems, disp, pos, live))


def _zero(*gs):
    def corrupt(disp, rep):
        for g in gs:
            disp[:, :, rep(g)] = 0
    return corrupt


def _move_centre(disp, rep):
    disp[0, 2, rep((0, 0, 0))] = 1


@pytest.mark.parametrize("corrupt, witness, all_witness", [
    # Exp(e0) moves the generic character; a zero displacement on the coset
    # of (1, 0, 0) makes its five elements read as fixed, and they span e0
    # with the five true fixed points
    (_zero((1, 0, 0)), "10 fixed points, span of size 25", None),
    # the centre fixes every character; a displacement in row 0, column 2
    # of its representative, the identity, makes all of it read as moved;
    # kernel_lemma_all reads the same column for the zero radical row first
    (_move_centre, "0 fixed points, span of size 1",
     "radical row (0, 0, 0) does not fix chi = Character(0/1, 0/1, 1/5): "
     "it moves it to Character(1/5, 0/1, 1/5)"),
], ids=["moved-reads-fixed", "fixed-reads-moved"])
def test_stabilizer_not_additively_closed(monkeypatch, corrupt, witness,
                                          all_witness):
    ring = lazard_catalog()["h3_p5"]
    _corrupt_group(monkeypatch, ring, corrupt)
    chi = generic_character(ring)
    message = ("stabilizer of Character(0/1, 0/1, 1/5) is not additively "
               "closed: " + witness)
    for check, want in ((lambda: stabilizer_oracle(chi), message),
                        (lambda: kernel_lemma_check(ring, chi), message),
                        (lambda: kernel_lemma_all(ring), all_witness or message)):
        with pytest.raises(OrbitError) as err:
            check()
        assert str(err.value) == want


def test_stabilizer_span_of_the_right_size_is_still_checked(monkeypatch):
    # read as fixed: the cosets of the centre through e0, e0 + e1, 2 e0
    # and 3 e0, beside the centre itself.  25 fixed points, and the
    # generators e0 and e2 span 25 elements too, yet 4 e0 is not fixed:
    # only the listing tells the two sets apart
    ring = lazard_catalog()["h3_p5"]
    _corrupt_group(monkeypatch, ring, _zero((1, 0, 0), (1, 1, 0), (2, 0, 0),
                                            (3, 0, 0)))
    chi = generic_character(ring)
    for check in (lambda: stabilizer_oracle(chi),
                  lambda: kernel_lemma_check(ring, chi),
                  lambda: kernel_lemma_all(ring)):
        with pytest.raises(OrbitError) as err:
            check()
        assert str(err.value) == (
            "stabilizer of Character(0/1, 0/1, 1/5) is not additively "
            "closed: 25 fixed points, span of size 25, and it holds "
            "(4, 0, 0), which is not fixed")


def _move_identity(disp, rep):
    disp[1, 3, rep((0, 0, 0, 0))] = 1


def _move_identity_fix_e1(disp, rep):
    _move_identity(disp, rep)
    _zero((0, 1, 0, 0))(disp, rep)


@pytest.mark.parametrize("corrupt, witness", [
    # the centre <e0, e3> fixes e3's dual; a displacement in row 1, column
    # 3 of its representative, the identity, makes all of it read as moved
    (_move_identity, "0 fixed points, span of size 1"),
    # and with the coset of e1 read as fixed, the central column 0 takes
    # e0 + e1 (e0 plus the least fixed representative), column 1 takes e1
    # and column 3 none: the span <e0, e1> holds the moved identity
    (_move_identity_fix_e1, "25 fixed points, span of size 25, and it holds "
                            "(0, 0, 0, 0), which is not fixed"),
], ids=["identity-reads-moved", "identity-moved-e1-fixed"])
def test_corrupted_leading_centre_is_a_witness(monkeypatch, corrupt, witness):
    ring = a1xh3_p5()
    _corrupt_group(monkeypatch, ring, corrupt)
    chi = generic_character(ring)
    message = ("stabilizer of Character(0/1, 0/1, 0/1, 1/5) is not "
               "additively closed: " + witness)
    # kernel_lemma_all reads the identity's column first, for the radical
    # row e0
    for check, want in (
            (lambda: stabilizer_oracle(chi), message),
            (lambda: kernel_lemma_check(ring, chi), message),
            (lambda: kernel_lemma_all(ring),
             "radical row (1, 0, 0, 0) does not fix chi = Character(0/1, "
             "0/1, 0/1, 1/5): it moves it to Character(0/1, 1/5, 0/1, 1/5)")):
        with pytest.raises(OrbitError) as err:
            check()
        assert str(err.value) == want


def _dense_perms(ring):
    """The coadjoint action of each Exp(e_t) on every character, by one
    full matrix product and element_index."""
    return [element_index(ring, all_elements(ring) @ np.array(m).T)
            for m in orbits._basis_matrices(ring)]


@pytest.mark.parametrize("source", sorted(lazard_catalog()) + [
    pytest.param(a1xh3_p5, id="a1xh3_p5"),
    pytest.param(lambda: class2_ring("c2_v3z2_p7", 7, 3, 2, seed=11),
                 id="c2_v3z2_p7")])
def test_perms_match_dense_route(source):
    ring = lazard_catalog()[source] if isinstance(source, str) else source()
    perms = orbits._perms(ring)
    assert len(perms) == ring.rank
    for perm, dense in zip(perms, _dense_perms(ring)):
        assert np.array_equal(perm, dense)
