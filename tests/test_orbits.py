import hashlib
import random
import time
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
    CoadjointOrbit,
    OrbitError,
    SkewForm,
    all_characters,
    coadjoint_act,
    coadjoint_matrix,
    dual_size,
    enumerate_orbits,
    generic_character,
    kernel_lemma_all,
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
            assert orbits._stable_subalgebras(ring, b) == want
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
                      if dual_size(ring) <= 5 ** 5)
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
    assert kernel_lemma_all(ring)["characters"] == dual_size(ring)


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


# -- kernel = stabilizer for every character ----------------------------------

@pytest.mark.parametrize("name", ["h3_p5", "h3_z9", "h3xa1_p3"])
def test_all_characters_match_per_character_checks(rings, name):
    ring = rings[name]
    report = kernel_lemma_all(ring)
    cases = 0
    for chi in all_characters(ring):
        cases += kernel_lemma_check(ring, chi)["perp_cases"]
    assert report == {"characters": dual_size(ring),
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
        gens, sizes = batched(ring, chis)
        if corrupt == "row":
            gens[c, np.flatnonzero(gens[c].any(axis=1))[0]] = ring.basis(0)
        else:
            sizes[c] *= 5
        return gens, sizes
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
    ("h3_p3", None), ("h3xa1_p3", None), ("h3_z9", None), ("u4_p5", 200)])
def test_stabilizer_oracle_matches_dense_scan(rings, name, count):
    # every coadjoint matrix in full, from the scalar conjugate; the fixed
    # points of chi are the g with M_g chi = chi
    ring = rings[name]
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
    elems, disp, live = orbits._group(ring, orbits.DUAL_CAP)
    central = [not any(any(ring.bracket(ring.basis(t), ring.basis(j)))
                       for t in range(ring.rank)) for j in range(ring.rank)]
    c = sum(central)
    # a central e_j is fixed by every g and costs no batch_conjugate call;
    # the others run once on each coset of the central coordinates
    assert len(rows) == ring.rank - c
    assert sum(rows) == (ring.rank - c) * ring.size() // ring.pk ** c
    assert disp.flags.c_contiguous
    for j in range(ring.rank):
        ej = np.zeros_like(elems)
        ej[:, j] = 1
        assert np.array_equal(
            disp[j].T, (batch_conjugate(ring, -elems, ej) - ej) % ring.pk)
    assert live == [tuple(e) for e in np.argwhere(disp.any(axis=2)).tolist()]


@pytest.mark.parametrize("g, entry, witness", [
    # Exp(e0) moves the generic character; a zero displacement makes it
    # read as fixed, and it spans e0 with the five true fixed points
    ((1, 0, 0), None, "6 fixed points, span of size 25"),
    # 2 e2 is central and fixes every character; a displacement in row 0,
    # column 2 makes it read as moved, yet e2 still spans it
    ((0, 0, 2), (0, 2), "4 fixed points, span of size 5"),
], ids=["moved-reads-fixed", "fixed-reads-moved"])
def test_stabilizer_not_additively_closed(monkeypatch, g, entry, witness):
    ring = lazard_catalog()["h3_p5"]
    elems, disp, live = orbits._group(ring, orbits.DUAL_CAP)
    disp = disp.copy()
    c = int(element_index(ring, [g])[0])
    if entry is None:
        disp[:, :, c] = 0
    else:
        disp[entry + (c,)] = 1
    monkeypatch.setitem(ring.orbit_cache, "group", (elems, disp, live))
    chi = generic_character(ring)
    message = ("stabilizer of Character(0/1, 0/1, 1/5) is not additively "
               "closed: " + witness)
    for check in (lambda: stabilizer_oracle(chi),
                  lambda: kernel_lemma_check(ring, chi),
                  lambda: kernel_lemma_all(ring)):
        with pytest.raises(OrbitError) as err:
            check()
        assert str(err.value) == message


def test_stabilizer_span_of_the_right_size_is_still_checked(monkeypatch):
    # read as fixed: e0, e0 + e1, 2 e0 and 3 e0; read as moved: every
    # nonzero central element.  Five fixed points, and the one generator
    # e0 spans five elements too, yet 4 e0 is not fixed: only the listing
    # tells the two sets apart
    ring = lazard_catalog()["h3_p5"]
    elems, disp, live = orbits._group(ring, orbits.DUAL_CAP)
    disp = disp.copy()
    fixed = element_index(ring, [(1, 0, 0), (1, 1, 0), (2, 0, 0), (3, 0, 0)])
    disp[:, :, fixed] = 0
    disp[0, 2, element_index(ring, [(0, 0, c) for c in range(1, 5)])] = 1
    monkeypatch.setitem(ring.orbit_cache, "group", (elems, disp, live))
    chi = generic_character(ring)
    for check in (lambda: stabilizer_oracle(chi),
                  lambda: kernel_lemma_check(ring, chi)):
        with pytest.raises(OrbitError) as err:
            check()
        assert str(err.value) == (
            "stabilizer of Character(0/1, 0/1, 1/5) is not additively "
            "closed: 5 fixed points, span of size 5, and it holds "
            "(4, 0, 0), which is not fixed")
