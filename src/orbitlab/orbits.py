"""Characters of a nilpotent Lie ring, the coadjoint action, and orbits.

A character is an additive map chi: g -> Q_p/Z_p, stored by its values on
the basis.  Exp(g) acts by (g.chi)(y) = chi(conjugate(g^-1, y)); orbits,
stabilizers, and the skew form B_chi(x, y) = chi([x, y]) are all computed
exhaustively at desk scale, since the point is to verify the kernel =
stabilizer statement rather than assume it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .arith import ModMatrix, QpModZp, kernel
from .lazard import (Subring, all_elements, batch_conjugate, conjugate,
                     element_index)

DUAL_CAP = 5 ** 7


class OrbitError(ValueError):
    pass


class CapError(OrbitError):
    """An exhaustive scan would exceed its size cap; no verdict was reached."""


class Character:
    """Additive map to Q_p/Z_p; nums[i] is the numerator of chi(e_i) at
    level k, so chi(x) = sum x_i nums[i] / p^k."""

    def __init__(self, ring, nums):
        self.ring = ring
        self.nums = tuple(int(a) % ring.pk for a in nums)
        if len(self.nums) != ring.rank:
            raise ValueError(f"expected {ring.rank} covector entries")

    @classmethod
    def from_values(cls, ring, values):
        nums = []
        for v in values:
            if isinstance(v, str):
                v = QpModZp.parse(ring.p, v)
            elif not isinstance(v, QpModZp):
                v = QpModZp.from_fraction(ring.p, v)
            if v.level > ring.k:
                raise ValueError(f"character value {v} has level > k = {ring.k}")
            nums.append(v.numerator * ring.p ** (ring.k - v.level))
        return cls(ring, nums)

    def value(self, x):
        a = sum(c * n for c, n in zip(x, self.nums)) % self.ring.pk
        return QpModZp(self.ring.p, a, self.ring.k)

    def covector(self):
        return tuple(QpModZp(self.ring.p, a, self.ring.k) for a in self.nums)

    def is_zero(self):
        return not any(self.nums)

    def __eq__(self, other):
        return (isinstance(other, Character) and self.ring is other.ring
                and self.nums == other.nums)

    def __hash__(self):
        return hash(self.nums)

    def __repr__(self):
        return "Character(" + ", ".join(str(v) for v in self.covector()) + ")"


def coadjoint_matrix(ring, g):
    """Rows are the coordinates of conjugate(g^-1, e_j); acting on a
    covector is multiplication by this matrix."""
    ginv = ring.neg(g)
    return tuple(conjugate(ring, ginv, ring.basis(j)) for j in range(ring.rank))


def _act(m, nums, pk):
    """Numerators of the covector nums moved by the coadjoint matrix m."""
    return tuple(sum(a * c for a, c in zip(row, nums)) % pk for row in m)


def coadjoint_act(g, chi):
    ring = chi.ring
    return Character(ring, _act(coadjoint_matrix(ring, g), chi.nums, ring.pk))


class SkewForm:
    """Gram data of B_chi(e_i, e_j) = chi([e_i, e_j]), numerators at level k."""

    def __init__(self, chi):
        self.ring = chi.ring
        self.chi = chi
        self._radical = None  # filled by radical(self)
        pk, n = self.ring.pk, self.ring.rank
        # ring.table[i][j] holds the coordinates of [e_i, e_j]
        self.nums = tuple(
            tuple(sum(c * a for c, a in zip(v, chi.nums)) % pk for v in row)
            for row in self.ring.table)
        for i in range(n):
            if self.nums[i][i] != 0:
                raise OrbitError(f"B_chi(e_{i}, e_{i}) nonzero")
            for j in range(n):
                if (self.nums[i][j] + self.nums[j][i]) % pk != 0:
                    raise OrbitError(f"B_chi not antisymmetric at ({i}, {j})")

    def value(self, x, y):
        a = sum(x[i] * self.nums[i][j] * y[j]
                for i in range(self.ring.rank)
                for j in range(self.ring.rank)) % self.ring.pk
        return QpModZp(self.ring.p, a, self.ring.k)

    def gram(self):
        return tuple(tuple(QpModZp(self.ring.p, a, self.ring.k) for a in row)
                     for row in self.nums)


def radical(form):
    """{x : B_chi(x, y) = 0 for all y}, the left kernel of the Gram matrix.

    By the kernel = stabilizer statement this is the stabilizer Lie ring,
    so a bracket-closure failure here would be a counterexample and is
    raised rather than ignored, on every call.  A radical that passes is
    kept on the form, so each form computes it once.
    """
    if form._radical is not None:
        return form._radical
    ring = form.ring
    ker = kernel(ModMatrix(ring.modulus, [list(r) for r in form.nums]))
    sub = Subring(ring, [tuple(r) for r in ker.rows])
    if not sub.is_lie_subring():
        raise OrbitError(
            f"radical of chi = {form.chi} is not closed under bracket")
    form._radical = sub
    return sub


class CoadjointOrbit:
    """Orbit record: lexicographically minimal representative, size, and
    the radical of B_rep standing in for the stabilizer (the exhaustive
    oracle is separate); size * |stabilizer| = |G| is enforced here, which
    cross-checks the two against orbit-stabilizer counting."""

    def __init__(self, rep, size):
        self.rep = rep
        self.size = size
        self.stabilizer = radical(SkewForm(rep))
        order = rep.ring.size()
        if self.size * self.stabilizer.size() != order:
            raise OrbitError(
                f"orbit size {self.size} times stabilizer size "
                f"{self.stabilizer.size()} is not |G| = {order} at rep {rep}")

    def __repr__(self):
        return f"CoadjointOrbit(rep={self.rep!r}, size={self.size})"


def dual_size(ring):
    return ring.pk ** ring.rank


def enumerate_orbits(ring, cap=DUAL_CAP):
    """Partition the dual space into coadjoint orbits.

    Breadth-first closure under the action of the basis one-parameter
    elements Exp(e_t); these generate G, and in a finite group the
    semigroup they generate is the full group, so no inverses are needed.
    Seeds are scanned in lexicographic order, which makes each orbit's
    representative the lexicographically minimal member.
    """
    n = dual_size(ring)
    if cap is not None and n > cap:
        raise CapError(
            f"dual space has {n} characters, above the cap {cap}; "
            f"raise the cap or use sampled checks")
    chis = all_elements(ring)
    # perms[t][i]: the index of Exp(e_t) acting on the i-th character
    perms = [element_index(ring, chis @ np.array(m, dtype=np.int64).T)
             for m in _basis_matrices(ring)]
    visited = np.zeros(n, dtype=bool)
    orbits = []
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        frontier = np.array([seed], dtype=np.int64)
        size = 1
        while frontier.size:
            nxt = np.unique(np.concatenate([p[frontier] for p in perms]))
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            size += int(nxt.size)
            frontier = nxt
        rep = Character(ring, tuple(int(c) for c in chis[seed]))
        orbits.append(CoadjointOrbit(rep, size))
    assert sum(o.size for o in orbits) == n
    return orbits


def orbit_histogram(orbits):
    hist = {}
    for o in orbits:
        hist[o.size] = hist.get(o.size, 0) + 1
    return dict(sorted(hist.items()))


def _cached(ring, key, build):
    """ring.orbit_cache[key], filled by build(ring) on first use.  The
    cache holds this layer's character-independent data of the ring and
    no reference back to it."""
    cache = ring.orbit_cache
    if key not in cache:
        cache[key] = build(ring)
    return cache[key]


def _group(ring, cap):
    """(elems, tensor): every group element, lexicographic, and the
    (|G|, n, n) array whose g-th entry is the matrix of g acting on
    covectors.  The cap is checked on every call, cached or not."""
    if ring.size() > cap:
        raise CapError(
            f"|G| = {ring.size()} exceeds the exhaustive-scan cap {cap}")
    return _cached(ring, "group", _build_group)


def _build_group(ring):
    elems = all_elements(ring)
    neg = (-elems) % ring.pk
    tensor = np.empty((len(elems), ring.rank, ring.rank),
                      dtype=ring.modulus.dtype)
    for j in range(ring.rank):
        ej = np.zeros_like(elems)
        ej[:, j] = 1
        tensor[:, j] = batch_conjugate(ring, neg, ej)
    return elems, tensor


def _basis_matrices(ring):
    """Coadjoint matrices of the one-parameter elements Exp(e_t), built by
    coadjoint_matrix, so conjugate's two-route cross-check runs."""
    return _cached(ring, "basis_matrices", lambda ring: [
        coadjoint_matrix(ring, ring.basis(t)) for t in range(ring.rank)])


def _coordinate_subalgebras(ring):
    """Basis-coordinate spans closed under bracket, as (index subset,
    bit mask of the subset)."""
    def build(ring):
        out = []
        for bits in range(1, 2 ** ring.rank):
            subset = tuple(i for i in range(ring.rank) if bits >> i & 1)
            if Subring(ring, [ring.basis(i) for i in subset]).is_lie_subring():
                out.append((subset, bits))
        return out
    return _cached(ring, "subalgebras", build)


def _stable_subalgebras(ring, b):
    """Index subsets of the coordinate subalgebras a with [b, a] <= a.

    The Howell rows of a coordinate span are its basis vectors, so x lies
    in it exactly when x vanishes off its coordinates: the test is on the
    support of each [b, e_i]."""
    support = []
    for i in range(ring.rank):
        v = ring.bracket(b, ring.basis(i))
        support.append(sum(1 << j for j, c in enumerate(v) if c))
    return [subset for subset, bits in _coordinate_subalgebras(ring)
            if all(support[i] & ~bits == 0 for i in subset)]


def _basis_stable(ring):
    """_stable_subalgebras(ring, e_t) for each basis element e_t."""
    return _cached(ring, "basis_stable", lambda ring: [
        _stable_subalgebras(ring, ring.basis(t)) for t in range(ring.rank)])


def stabilizer_oracle(chi, cap=DUAL_CAP):
    """{g : g.chi = chi} by exhaustive scan over the group.

    Deliberately independent of the radical computation.  Once per ring
    (_group): every group element and its coadjoint matrix.  Per
    character: one (|G|, n, n) x (n,) product gives the fixed points;
    then, repeatedly, one batched membership test over the fixed points
    not yet known to lie in the span finds the first one outside it, which
    is adjoined.  That adjoins the same generators, in the same order, as
    scanning the fixed points one by one, in at most rank * k rounds.  The
    fixed set is a subgroup of Exp(g); the scan also confirms it is closed
    under addition before packaging it as a Subring, so the return value
    represents the set faithfully.
    """
    ring = chi.ring
    elems, tensor = _group(ring, cap)
    a = np.array(chi.nums, dtype=tensor.dtype)
    # n products of residues per entry; for n >= 2, |G| >= (p^k)^2, so any
    # group small enough to scan keeps these sums far inside int64
    fixed = np.all((tensor @ a) % ring.pk == a, axis=1)
    members = elems[fixed]
    gens = []
    sub = Subring(ring, gens)
    start = 0
    while True:
        outside = np.flatnonzero(~sub.contains_rows(members[start:]))
        if not outside.size:
            break
        start += int(outside[0])
        gens.append(tuple(members[start].tolist()))
        sub = Subring(ring, gens)
        start += 1
    if sub.size() != len(members):
        raise OrbitError(
            f"stabilizer of {chi} is not additively closed: "
            f"{len(members)} fixed points, span of size {sub.size()}")
    return sub


def kernel_lemma_check(ring, chi, rng=None, cap=DUAL_CAP):
    """The two-sided verification that the stabilizer is the radical.

    Asserts stabilizer_oracle(chi) and radical(B_chi) coincide as
    canonical subgroups, then spot-checks the perpendicularity statement:
    for subalgebras a with [b, a] <= a, chi and b.chi agree on a exactly
    when B_chi(b, a) = 0.  Here b runs over the basis, plus two random
    elements drawn from rng when it is given, and a over the coordinate
    subalgebras.

    Once per ring (in ring.orbit_cache): the coordinate subalgebras, which
    of them each e_t stabilizes, and the coadjoint matrix of each
    Exp(e_t).  Per character: B_chi, its radical, the stabilizer scan,
    b.chi for each b, and for random b its coadjoint matrix and stable
    subalgebras.  Values are compared as numerators at level k, which is
    QpModZp equality.  Returns a report dict; any failure raises with the
    witness.
    """
    form = SkewForm(chi)
    rad = radical(form)
    stab = stabilizer_oracle(chi, cap=cap)
    if rad.rows != stab.rows:
        raise OrbitError(
            f"stabilizer differs from radical at chi = {chi}: "
            f"radical rows {rad.rows}, stabilizer rows {stab.rows}")
    pk, nums = ring.pk, chi.nums
    cases = [(ring.basis(t), _act(m, nums, pk), stable)
             for t, (m, stable) in enumerate(zip(_basis_matrices(ring),
                                                 _basis_stable(ring)))]
    if rng is not None:
        for b in [ring.random_element(rng) for _ in range(2)]:
            cases.append((b, coadjoint_act(b, chi).nums,
                          _stable_subalgebras(ring, b)))
    tested = 0
    for b, moved, stable in cases:
        # numerators of B_chi(b, e_i)
        pairing = [sum(x * row[i] for x, row in zip(b, form.nums)) % pk
                   for i in range(ring.rank)]
        for subset in stable:
            agree = all(moved[i] == nums[i] for i in subset)
            perp = all(pairing[i] == 0 for i in subset)
            if agree != perp:
                raise OrbitError(
                    f"perpendicularity violated at chi = {chi}, b = {b}, "
                    f"subalgebra on coordinates {list(subset)}: "
                    f"agree = {agree}, perpendicular = {perp}")
            tested += 1
    return {
        "chi": chi.nums,
        "stabilizer_size": stab.size(),
        "radical_size": rad.size(),
        "equal": True,
        "perp_cases": tested,
    }


def generic_character(ring):
    """Character dual to the deepest lower-central coordinate, scaled
    1/p^k; for the bundled rings this has the smallest possible radical."""
    last = ring.lcs[-1][-1]
    pivot = next(i for i, v in enumerate(last) if v)
    nums = [0] * ring.rank
    nums[pivot] = 1
    return Character(ring, nums)


def all_characters(ring):
    for nums in itertools.product(range(ring.pk), repeat=ring.rank):
        yield Character(ring, nums)


def sample_characters(ring, count, rng):
    for _ in range(count):
        yield Character(ring, tuple(rng.randrange(ring.pk)
                                    for _ in range(ring.rank)))
