"""Characters of a nilpotent Lie ring, the coadjoint action, and orbits.

A character is an additive map chi: g -> Q_p/Z_p, stored by its values on
the basis.  Exp(g) acts by (g.chi)(y) = chi(conjugate(g^-1, y)); orbits,
stabilizers, and the skew form B_chi(x, y) = chi([x, y]) are all computed
exhaustively at desk scale, since the point is to verify the kernel =
stabilizer statement rather than assume it (kernel_lemma_all: all at once).
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

import numpy as np

from .arith import QpModZp
from .lazard import (Subring, _cached, _reduced, all_elements, batch_bracket,
                     batch_conjugate, conjugate, element_index, unit_inverses)

DUAL_CAP = 7 ** 6


class OrbitError(ValueError):
    pass


class CapError(OrbitError):
    """An exhaustive scan would exceed its size cap; no verdict was reached."""


class Character:
    """Additive map to Q_p/Z_p; nums[i] is the numerator of chi(e_i) at
    level k, so chi(x) = sum x_i nums[i] / p^k."""

    def __init__(self, ring, nums):
        self.ring = ring
        self.nums = _reduced(nums, ring.pk)
        if len(self.nums) != ring.rank:
            raise ValueError(f"expected {ring.rank} covector entries")

    @classmethod
    def from_values(cls, ring, values):
        nums = []
        for v in values:
            v = QpModZp.coerce(ring.p, v)
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
    return tuple(sum(map(operator.mul, row, nums)) % pk for row in m)


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
            tuple(sum(map(operator.mul, v, chi.nums)) % pk for v in row)
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


def radical(form):
    """{x : B_chi(x, y) = 0 for all y}, the left kernel of the Gram matrix.

    By the kernel = stabilizer statement this is the stabilizer Lie ring,
    so a bracket-closure failure here would be a counterexample and is
    raised rather than ignored.  Closure is checked once per form: a
    radical that passes is kept on the form and returned from then on.
    """
    if form._radical is not None:
        return form._radical
    ring = form.ring
    sub = Subring.kernel_of(ring, form.nums)
    if not sub.is_lie_subring():
        raise OrbitError(
            f"radical of chi = {form.chi} is not closed under bracket")
    form._radical = sub
    return sub


class CoadjointOrbit:
    """Orbit record: the numerators of the lexicographically minimal
    representative, size, and the radical of B_rep standing in for the
    stabilizer (the exhaustive oracle is separate), kept as its (n, n)
    array of rows.  The representative's Character and the stabilizer's
    Subring are built on first access."""

    def __init__(self, ring, nums, size, radical_rows):
        self.ring, self._nums, self.size = ring, nums, size
        self._rows = radical_rows

    @cached_property
    def rep(self):
        return Character(self.ring, self._nums)

    @cached_property
    def stabilizer(self):
        return Subring(self.ring, self._rows.tolist())

    def __repr__(self):
        return f"CoadjointOrbit(rep={self.rep!r}, size={self.size})"


def _perms(ring):
    """perms[t][i]: the index of Exp(e_t) acting on the i-th character of
    the grid (p^k,)^n, chi_j along axis j: i plus, in each coordinate j
    that Exp(e_t) moves (row j of its matrix is not e_j), the change in
    chi_j times p^(k(n-1-j)), broadcast over only the axes it reads."""
    def build(ring):
        n, pk = ring.rank, ring.pk
        axes = np.ix_(*[np.arange(pk)] * n)
        grid = np.arange(ring.size()).reshape((pk,) * n)
        for m in _basis_matrices(ring).tolist():
            index = grid
            for j in range(n):
                if any(c != (i == j) for i, c in enumerate(m[j])):
                    # n products of two residues, as in a matmul of the
                    # characters by m: far inside int64 under the cap
                    new = sum(c * axes[i] for i, c in enumerate(m[j]) if c)
                    index = index + (new % pk - axes[j]) * pk ** (n - 1 - j)
            yield index.ravel()
    return _cached(ring, "perms", lambda ring: list(build(ring)))


def _labels(ring, cap):
    """lab[i]: the index of the least character in the orbit of the i-th.
    Labels stay in their orbit and only fall, so the fixed point of
    lab = min(lab, lab[perm_t]), lab = lab[lab] is constant on orbits."""
    n = ring.size()
    if cap is not None and n > cap:
        raise CapError(
            f"dual space has {n} characters, above the cap {cap}")

    def build(ring):
        lab = np.arange(n)
        while True:
            old = lab
            for perm in _perms(ring):
                lab = np.minimum(lab, lab[perm])
            lab = lab[lab]
            if np.array_equal(lab, old):
                return lab
    return _cached(ring, "labels", build)


def _forms(ring, chis):
    """(m, n, n) numerators of B_chi for the rows chi of chis."""
    table = np.array(ring.table).reshape((ring.rank,) * 3)
    return np.einsum("ijl,cl->cij", table, chis) % ring.pk


def _left_kernels(A, ring):
    """Left kernels over Z/p^k of a stack A (m, n, n), and their sizes,
    from eliminating every [A | I] at once by least valuation (Howell 1986;
    Storjohann-Mulders 1998).  In column j the first entry of least
    valuation, d = gcd(entry, p^k), clears the column from every row, its
    own included; that row then becomes p^k / d times the pivot row.  The
    rows left span each kernel, of size the product of the d (p^k for a
    zero column).  For k = 1 pivot rows become zero, the rest a basis."""
    m, n, _ = A.shape
    pk, unit, c = ring.pk, unit_inverses(ring), np.arange(m)
    A = np.concatenate([A % pk, np.tile(np.eye(n, dtype=A.dtype), (m, 1, 1))],
                       axis=2)
    sizes = np.ones(m, dtype=np.int64)
    for j in range(n):
        g = np.gcd(A[:, :, j], pk)
        r = g.argmin(axis=1)
        d, top = g[c, r], A[c, r]
        f = A[:, :, j] // d[:, None] * unit[top[:, j]][:, None] % pk
        f[c, r] = 1 - pk // d  # the pivot row keeps p^k / d times itself
        A -= f[:, :, None] * top[:, None, :]
        A %= pk
        sizes *= d
    return A[:, :, n:], sizes


def _radicals(ring, chis):
    """Rows spanning rad(B_chi), (m, n, n), |rad(B_chi)| and the forms B
    themselves for the rows chi of chis, by _left_kernels, which leaves B
    as it is; bracket closure is checked in one batch, on each pair of
    rows that are both nonzero (a zero row brackets to zero)."""
    B = _forms(ring, chis)
    gens, sizes = _left_kernels(B, ring)
    nonzero = gens.any(axis=2)
    a, b = np.triu_indices(ring.rank, 1)
    # pair-major, so the character named is the first failing pair's
    pair, c = np.nonzero((nonzero[:, a] & nonzero[:, b]).T)
    br = batch_bracket(ring, gens[c, a[pair]], gens[c, b[pair]])
    outside = (np.einsum("ti,tij->tj", br, B[c]) % ring.pk).any(axis=1)
    for i in c[outside][:1]:
        raise OrbitError(f"radical of chi = {Character(ring, chis[i])} "
                         f"is not closed under bracket")
    return gens, sizes, B


def enumerate_orbits(ring, cap=DUAL_CAP):
    """Partition the dual space into coadjoint orbits: representatives
    (lexicographically minimal) are the fixed points of the labels, which
    the generators Exp(e_t) of G give, and size * |rad(B_rep)| = |G|
    cross-checks the action against the linear algebra."""
    lab = _labels(ring, cap)
    reps = np.flatnonzero(lab == np.arange(len(lab)))
    sizes = np.bincount(lab)[reps]
    # the representatives' rows: their grid positions read in base p^k
    chis = np.stack(np.unravel_index(reps, (ring.pk,) * ring.rank), axis=1)
    gens, rad_sizes, _ = _radicals(ring, chis)
    for i in np.flatnonzero(sizes * rad_sizes != ring.size())[:1]:
        raise OrbitError(
            f"orbit size {sizes[i]} times stabilizer size {rad_sizes[i]} "
            f"is not |G| = {ring.size()} at rep {Character(ring, chis[i])}")
    return [CoadjointOrbit(ring, nums, size, rows)
            for nums, size, rows in zip(chis.tolist(), sizes.tolist(), gens)]


def orbit_histogram(orbits):
    hist = {}
    for o in orbits:
        hist[o.size] = hist.get(o.size, 0) + 1
    return dict(sorted(hist.items()))


def _group(ring, cap):
    """(elems, disp, pos, live): every group element, lexicographic; the
    C-contiguous (n, n, R) array whose [j, i, r] entry is (M_g - I)[j, i]
    mod p^k, M_g the matrix of g acting on covectors, for the R = |G| /
    (p^k)^c representatives r of the cosets of the c central coordinates
    (_build_group); pos[g], the index of g's representative; and the (j, i)
    entries of disp that are not zero for every r.  The cap is checked on
    every call, cached or not.  Beside it stabilizer_oracle caches index
    data alone ("scan": the live i of each row j, each representative's
    group index, the central coordinates), and reads disp from here."""
    if ring.size() > cap:
        raise CapError(
            f"|G| = {ring.size()} exceeds the exhaustive-scan cap {cap}")
    return _cached(ring, "group", _build_group)


def _build_group(ring):
    """Row j of M_g is conjugate(-g, e_j), batched over g.  A coordinate i
    is central when ring.table[i] is zero; then ad(e_i) = 0, so M_g is
    constant on cosets of the central coordinates and is computed only on
    the representatives whose central coordinates are zero, lexicographic.
    g's representative is its non-central coordinates read in mixed radix.
    A central e_j is fixed by every g, so its row of disp is zero and not
    computed."""
    n, pk = ring.rank, ring.pk
    noncentral = [any(map(any, ring.table[i])) for i in range(n)]
    shape = [pk if c else 1 for c in noncentral]
    reps = np.indices(shape, dtype=np.int64).reshape(n, -1).T
    pos = np.broadcast_to(np.arange(len(reps)).reshape(shape),
                          (pk,) * n).ravel()
    disp = np.zeros((n, n, len(reps)), dtype=ring.modulus.dtype)
    live = []
    for j in itertools.compress(range(n), noncentral):
        ej = np.zeros_like(reps)
        ej[:, j] = 1
        disp[j] = ((batch_conjugate(ring, -reps, ej) - ej) % pk).T
        live += [(j, i) for i in range(n) if disp[j, i].any()]
    return all_elements(ring), disp, pos, live


def _basis_matrices(ring):
    """Coadjoint matrices of the one-parameter elements Exp(e_t), built by
    coadjoint_matrix, so conjugate's two-route cross-check runs, as one
    (n, n, n) int64 array: entries are residues under the cap."""
    return _cached(ring, "basis_matrices", lambda ring: np.array([
        coadjoint_matrix(ring, ring.basis(t)) for t in range(ring.rank)],
        dtype=np.int64))


def _supports(ring, b):
    """Bit mask of the nonzero coordinates of [b, e_i], for each i.

    The Howell rows of a coordinate span are its basis vectors, so x lies
    in it exactly when x vanishes off its coordinates: closure tests on a
    coordinate span read these supports."""
    return [sum(1 << j for j, c in enumerate(ring.bracket(b, ring.basis(i)))
                if c) for i in range(ring.rank)]


def _coordinate_subalgebras(ring):
    """Basis-coordinate spans closed under bracket, as (index subset,
    bit mask of the subset): [e_i, e_j] vanishes off the subset for every
    i, j in it."""
    def build(ring):
        support = [_supports(ring, ring.basis(i)) for i in range(ring.rank)]
        out = []
        for bits in range(1, 2 ** ring.rank):
            subset = tuple(i for i in range(ring.rank) if bits >> i & 1)
            if all(support[i][j] & ~bits == 0 for i in subset for j in subset):
                out.append((subset, bits))
        return out
    return _cached(ring, "subalgebras", build)


def _stable_subalgebras(ring, b):
    """(index subset, bit mask) of the coordinate subalgebras a with
    [b, a] <= a: each [b, e_i], i in a, vanishes off a."""
    support = _supports(ring, b)
    return [(subset, bits) for subset, bits in _coordinate_subalgebras(ring)
            if all(support[i] & ~bits == 0 for i in subset)]


def _basis_stable(ring):
    """_stable_subalgebras(ring, e_t) for each basis element e_t."""
    return _cached(ring, "basis_stable", lambda ring: [
        _stable_subalgebras(ring, ring.basis(t)) for t in range(ring.rank)])


def stabilizer_oracle(chi, cap=DUAL_CAP):
    """{g : g.chi = chi} by exhaustive scan over the group.

    Deliberately independent of the radical computation.  The scan runs on
    _group's R representatives alone: r is fixed when sum_i disp[j, i, r]
    chi_i = 0 for every row j, tested one row at a time on those that
    passed the rows before, and g exactly when pos[g] is, so each fixed r
    stands for (p^k)^c fixed points.  A subgroup is spanned by one
    generator per column j: among its members whose first j coordinates
    vanish (a prefix of the lexicographic order), one with the least
    valuation at j, such as the first with x_j != 0; here a fixed r, or
    for a central j, e_j plus the least fixed r whose first j coordinates
    vanish.  They give one Howell form.  One listing of its span
    (Subring.members, each member looked up through pos; none if both are
    G) confirms that it is the fixed set, so the return value represents
    the set faithfully.  Otherwise this raises, naming when it can a
    member of the span that is not fixed.
    """
    ring = chi.ring
    pk, n = ring.pk, ring.rank
    elems, disp, pos, live = _group(ring, cap)

    def index_data(ring):
        # e_j, at pk^(n-1-j), is its own representative unless it is central
        central = [bool(pos[pk ** (n - 1 - j)] == 0) for j in range(n)]
        return ([[i for r, i in live if r == j] for j in range(n)],
                np.flatnonzero(~elems[:, central].any(axis=1)), central)
    rows, index, central = _cached(ring, "scan", index_data)
    # sel reads keep's columns of disp: a view of all until a row has terms
    keep, sel = np.arange(len(index)), ...
    for j, row in enumerate(rows):
        terms = [i for i in row if chi.nums[i]]
        if terms:
            # at most n products of two residues, each below p^k: the cap
            # bounds |G| = (p^k)^n, not the R representatives scanned, so
            # for n >= 2 p^k is at most its square root and these sums stay
            # far inside int64
            moved = sum(disp[j, i, sel] * chi.nums[i] for i in terms)
            sel = keep = keep[moved % pk == 0]
    fixed = index[keep]
    count = len(keep) * (len(elems) // len(index))
    # the elements with x_0 = ... = x_(j-1) = 0 and x_j != 0 are those from
    # pk^(n-j-1) to pk^(n-j) - 1; the first fixed one has the least x_j,
    # which in a subgroup is p^v, v the least valuation
    starts = [pk ** (n - 1 - j) for j in range(n)]
    picks = []
    for j, at in enumerate(np.searchsorted(fixed, starts).tolist()):
        if central[j]:
            if at:
                picks.append(starts[j] + int(fixed[0]))
        elif at < len(fixed) and fixed[at] < pk * starts[j]:
            picks.append(int(fixed[at]))
    sub = Subring(ring, elems[picks].tolist())
    stray = ""
    # a span of |G| elements is G itself, so G is then the fixed set
    if sub.size() == count < len(elems):
        inside = np.zeros(len(index), dtype=bool)
        inside[keep] = True
        members = sub.members()
        for x in members[~inside[pos[element_index(ring, members)]]][:1]:
            stray = f", and it holds {tuple(x.tolist())}, which is not fixed"
    if sub.size() != count or stray:
        raise OrbitError(
            f"stabilizer of {chi} is not additively closed: "
            f"{count} fixed points, span of size {sub.size()}{stray}")
    return sub


def _same_subgroup(chi, rad, stab):
    if rad.rows != stab.rows:
        raise OrbitError(
            f"stabilizer differs from radical at chi = {chi}: "
            f"radical rows {rad.rows}, stabilizer rows {stab.rows}")


def _perp_cases(ring, b, chis, moved, pairing, stable):
    """On each coordinate subalgebra a in stable ([b, a] <= a), chi and
    moved = b.chi agree exactly when pairing = B_chi(b, .) vanishes on a,
    for each row chi of chis.  Returns the number of cases."""
    S = np.array([[bits >> i & 1 for i in range(ring.rank)]
                  for _, bits in stable], dtype=np.int64).reshape(-1, ring.rank)
    agree = (moved != chis) @ S.T == 0
    perp = (pairing != 0) @ S.T == 0
    for c, r in np.argwhere(agree != perp)[:1]:
        raise OrbitError(
            f"perpendicularity violated at chi = {Character(ring, chis[c])}, "
            f"b = {b}, subalgebra on coordinates {list(stable[r][0])}: "
            f"agree = {agree[c, r]}, perpendicular = {perp[c, r]}")
    return agree.size


def kernel_lemma_check(ring, chi, rng=None, cap=DUAL_CAP):
    """The two-sided verification that the stabilizer is the radical, for
    one character: stabilizer_oracle(chi) and radical(B_chi) coincide as
    canonical subgroups, and the perpendicularity cases hold with b over
    the basis, plus two random elements drawn from rng when it is given.
    Returns a report dict; any failure raises with the witness."""
    form = SkewForm(chi)
    rad = radical(form)
    stab = stabilizer_oracle(chi, cap=cap)
    _same_subgroup(chi, rad, stab)
    # case t < n is b = e_t (None until a failure names it): Exp(e_t).chi
    # is row t of one product, B_chi(e_t, .) row t of the form
    cases = [(None, *case) for case in zip(
        (_basis_matrices(ring) @ chi.nums % ring.pk).tolist(), form.nums,
        _basis_stable(ring))]
    if rng is not None:
        for b in [ring.random_element(rng) for _ in range(2)]:
            cases.append((b, coadjoint_act(b, chi).nums,
                          _act(zip(*form.nums), b, ring.pk),
                          _stable_subalgebras(ring, b)))
    bit = [1 << i for i in range(ring.rank)]
    for t, (b, moved, pairing, stable) in enumerate(cases):
        # bit masks of the coordinates where b.chi and chi differ and where
        # B_chi(b, .) is nonzero (equal masks agree on every subalgebra);
        # _perp_cases names the case that fails
        moves = sum(itertools.compress(bit, map(operator.ne, moved,
                                                chi.nums)))
        pairs = sum(itertools.compress(bit, pairing))
        if moves != pairs and any(bool(moves & bits) != bool(pairs & bits)
                                  for _, bits in stable):
            _perp_cases(ring, b or ring.basis(t), np.array([chi.nums]),
                        np.array([moved]), np.array([pairing]), stable)
    return {
        "chi": chi.nums,
        "stabilizer_size": stab.size(),
        "radical_size": rad.size(),
        "equal": True,
        "perp_cases": sum(len(stable) for *_, stable in cases),
    }


def kernel_lemma_all(ring, cap=DUAL_CAP):
    """kernel = stabilizer for every character with no scan each:
    |rad(chi)| = |G| / |orbit(chi)|, each row spanning rad(chi) fixes chi
    (those rows generate Exp(rad), rad being a Lie subring, so with equal
    orders it is the stabilizer), and the perpendicularity cases over the
    basis.  stabilizer_oracle runs on each orbit representative."""
    _, disp, pos, _ = _group(ring, cap)
    lab = _labels(ring, cap)
    chis = all_elements(ring)
    gens, sizes, B = _radicals(ring, chis)
    orbit = np.bincount(lab)[lab]
    for c in np.flatnonzero(sizes * orbit != ring.size())[:1]:
        raise OrbitError(
            f"radical of chi = {Character(ring, chis[c])} has {sizes[c]} "
            f"elements, its orbit {orbit[c]} of |G| = {ring.size()}")
    for s in range(ring.rank):
        moved = (chis + np.einsum("jic,ci->cj", disp[:, :, pos[element_index(
            ring, gens[:, s])]], chis)) % ring.pk
        for c in np.flatnonzero((moved != chis).any(axis=1))[:1]:
            raise OrbitError(
                f"radical row {tuple(gens[c, s].tolist())} does not fix "
                f"chi = {Character(ring, chis[c])}: it moves it to "
                f"{Character(ring, moved[c])}")
    stables = _basis_stable(ring)
    tested = sum(_perp_cases(ring, ring.basis(t), chis, chis[perm], B[:, t],
                             stables[t]) for t, perm in enumerate(_perms(ring)))
    reps = np.flatnonzero(lab == np.arange(len(lab))).tolist()
    for c in reps:
        chi = Character(ring, chis[c])
        _same_subgroup(chi, Subring(ring, gens[c].tolist()),
                       stabilizer_oracle(chi, cap=cap))
    return {"characters": len(chis), "orbits": len(reps),
            "perp_cases": tested}


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
