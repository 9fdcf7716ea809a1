"""Finite nilpotent Lie rings over Z/p^k and their exponential groups.

A ring is given by structure constants on a free Z/p^k-module of finite
rank.  When the nilpotency class c satisfies c < p, the truncated BCH
series has all its denominators invertible mod p^k, so the same coordinate
tuples carry both the ring and the group Exp(ring); exp_mul evaluates the
group law and log_group recovers the ring operations from a black-box
multiplication on the same carrier.

Each Lie series evaluated in a ring (BCH, exp(ad g), the V-model's Phi)
is compiled once per ring into one straight-line bracket program
(series_program) with a scalar and a numpy entry point, both walking the
nonzero structure constants.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arith import (Modulus, ModMatrix, howell, howell_pivots, inv_mod,
                    kernel, mat_inverse, member, reduce_mod_span, reduce_rows,
                    span_size)
from .freelie import bch, exp_ad, phi_series

MAX_CLASS = 6
MAX_RANK = 64
# residues fit an int64, so numpy can draw and hold them
MAX_MODULUS = 2**63


class LazardError(ValueError):
    pass


class CrossCheckError(RuntimeError):
    """Two independent routes to one value disagree: an internal error,
    not bad input.  .check names the cross-check."""

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


def _vec(ring, v):
    t = tuple(int(c) % ring.pk for c in v)
    if len(t) != ring.rank:
        raise ValueError(f"expected {ring.rank} coordinates, got {len(t)}")
    return t


class LieRing:
    """Nilpotent Lie ring of finite rank over Z/p^k with class < p.

    brackets maps 0-based basis pairs (i, j) with i < j to the coordinate
    vector of [e_i, e_j]; omitted pairs commute.  Construction checks
    antisymmetry conventions are consistent, verifies the Jacobi identity
    on all basis triples, computes the lower central series, and rejects
    rings whose class is >= p or > MAX_CLASS; rank above MAX_RANK and p^k
    of MAX_MODULUS or more are refused before anything is allocated.

    structure lists the nonzero brackets, one (i, j, ((l, c), ...)) per
    given pair i < j with c coordinate l of [e_i, e_j]; the bracket and
    the batch kernels walk it.  orbit_cache is the one per-ring cache (the
    series programs, the orbits layer's tables, metric's unit inverses).
    """

    def __init__(self, p, k, rank, brackets, name="unnamed", check=True):
        if not 1 <= rank <= MAX_RANK:
            raise ValueError(f"rank {rank} is outside 1..{MAX_RANK}")
        # p >= 2 makes p^k >= 2^k, so k > 63 is refused before p^k is formed
        if k > 63 or p >= MAX_MODULUS or (k >= 1 and p**k >= MAX_MODULUS):
            raise ValueError(f"p^k = {p}^{k} is not below 2^63")
        self.modulus = Modulus(p, k)
        self.p = p
        self.k = k
        self.pk = self.modulus.pk
        self.rank = rank
        self.name = name
        zero = (0,) * rank
        table = [[zero] * rank for _ in range(rank)]
        structure = []
        for (i, j), v in brackets.items():
            if not 0 <= i < j < rank:
                raise ValueError(f"bad bracket pair ({i}, {j})")
            w = tuple(int(c) % self.pk for c in v)
            if len(w) != rank:
                raise ValueError(f"bracket ({i}, {j}) has wrong length")
            table[i][j] = w
            table[j][i] = tuple(-c % self.pk for c in w)
            nonzero = tuple((l, c) for l, c in enumerate(w) if c)
            if nonzero:
                structure.append((i, j, nonzero))
        self.table = tuple(tuple(row) for row in table)
        self.structure = tuple(structure)
        if check:
            self._check_jacobi()
        self.lcs = self._lower_central_series()
        self.cls = len(self.lcs)
        if self.cls >= p:
            raise LazardError(
                f"nilpotency class {self.cls} is not < p = {p}; "
                "the Lazard correspondence does not apply")
        if self.cls > MAX_CLASS:
            raise LazardError(f"class {self.cls} exceeds supported bound {MAX_CLASS}")
        self.orbit_cache = {}

    # vector arithmetic on coordinate tuples

    def zero(self):
        return (0,) * self.rank

    def add(self, x, y):
        return tuple((a + b) % self.pk for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.pk for a in x)

    def sub(self, x, y):
        return tuple((a - b) % self.pk for a, b in zip(x, y))

    def scale(self, m, x):
        return tuple(m * a % self.pk for a in x)

    def basis(self, i):
        return tuple(int(i == j) for j in range(self.rank))

    def bracket(self, x, y):
        out = [0] * self.rank
        for i, j, nonzero in self.structure:
            xy = x[i] * y[j] - x[j] * y[i]
            if xy:
                for l, c in nonzero:
                    out[l] += c * xy
        pk = self.pk
        return tuple([v % pk for v in out])

    def elements(self):
        """All coordinate tuples in lexicographic order."""
        return itertools.product(range(self.pk), repeat=self.rank)

    def size(self):
        return self.pk ** self.rank

    def random_element(self, rng):
        return tuple(rng.randrange(self.pk) for _ in range(self.rank))

    def _check_jacobi(self):
        """Jacobi on the basis triples i < j < l; a triple none of whose
        pairs is in structure has all three terms zero and is skipped."""
        triples = sorted({tuple(sorted((i, j, l)))
                          for i, j, _ in self.structure
                          for l in range(self.rank) if l not in (i, j)})
        for i, j, l in triples:
            ei, ej, el = self.basis(i), self.basis(j), self.basis(l)
            s = self.add(
                self.bracket(self.bracket(ei, ej), el),
                self.add(self.bracket(self.bracket(ej, el), ei),
                         self.bracket(self.bracket(el, ei), ej)))
            if any(s):
                raise ValueError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {l})")

    def _lower_central_series(self):
        """Howell generators of L_1 > L_2 > ... down to the last nonzero term."""
        mod = self.modulus
        # [e_i, v] = 0 unless i is in a pair of structure
        active = sorted({i for pair in self.structure for i in pair[:2]})
        series = []
        current = howell([list(self.basis(i)) for i in range(self.rank)], mod)
        while current:
            series.append(current)
            nxt = [list(self.bracket(self.basis(i), tuple(v)))
                   for i in active for v in current]
            current = howell(nxt, mod)
            if current == series[-1]:
                raise LazardError("lower central series does not terminate")
        return series

    def __eq__(self, other):
        return (isinstance(other, LieRing)
                and (self.p, self.k, self.rank) == (other.p, other.k, other.rank)
                and self.table == other.table)

    def __repr__(self):
        return (f"LieRing({self.name!r}, p={self.p}, k={self.k}, "
                f"rank={self.rank}, class={self.cls})")


def validate(ring):
    """Re-run the construction checks and report the ring's shape."""
    LieRing(ring.p, ring.k, ring.rank,
            {(i, j): ring.table[i][j]
             for i in range(ring.rank) for j in range(i + 1, ring.rank)},
            name=ring.name)
    return {
        "name": ring.name,
        "p": ring.p,
        "k": ring.k,
        "rank": ring.rank,
        "class": ring.cls,
        "order": ring.size(),
        "lcs_sizes": [span_size(term, ring.modulus) for term in ring.lcs],
        "condition": f"class {ring.cls} < p = {ring.p}",
    }


# Lie series compiled into straight-line bracket programs

class _Program:
    """A two-generator Lie series compiled for one ring.

    Slots 0 and 1 hold the two arguments; step (dst, a, b) sets slot dst
    to [slot a, slot b], and each distinct tree of the series is one step.
    The value is the sum of c * slot over the terms (slot, c), with c the
    series coefficient reduced mod p^k (its denominator is a unit since the
    class is < p).  The program holds no reference to its ring.
    """

    __slots__ = ("steps", "terms", "dead")

    def __init__(self, series, pk):
        slots = {0: 0, 1: 1}
        steps = []

        def slot(tree):
            got = slots.get(tree)
            if got is None:
                a, b = slot(tree[0]), slot(tree[1])
                got = slots[tree] = len(slots)
                steps.append((got, a, b))
            return got

        terms = []
        for tree, coeff in series.coeffs.items():
            c = coeff.numerator * inv_mod(coeff.denominator, pk) % pk
            if c:
                terms.append((slot(tree), c))
        self.steps = tuple(steps)
        self.terms = tuple(terms)
        # dead[t]: the slots that no step after step t reads
        last = {s: t for t, step in enumerate(steps) for s in step}
        self.dead = tuple(tuple(s for s, u in last.items() if u == t)
                          for t in range(len(steps)))

    def scalar(self, ring, x, y):
        """Value at coordinate tuples: Python ints, reduced per bracket."""
        vals = [x, y]
        for _, a, b in self.steps:
            vals.append(ring.bracket(vals[a], vals[b]))
        out = [0] * ring.rank
        for s, c in self.terms:
            for l, v in enumerate(vals[s]):
                out[l] += c * v
        pk = ring.pk
        return tuple([v % pk for v in out])

    def batch(self, ring, X, Y):
        """Row-wise values at arrays of residues of ring.modulus.dtype,
        reduced after every product.  A slot's term is added when the slot
        is computed, and the slot is released after its last use."""
        pk = ring.pk
        coeff = dict(self.terms)
        out = np.zeros_like(X)
        vals = {0: X, 1: Y}
        del X, Y  # so that releasing slots 0 and 1 frees them

        def take(slot):
            c = coeff.get(slot)
            if c:
                np.add(out, vals[slot] if c == 1 else c * vals[slot], out=out)
                np.remainder(out, pk, out=out)

        take(0)
        take(1)
        for (dst, a, b), dead in zip(self.steps, self.dead):
            vals[dst] = _brackets(ring, vals[a], vals[b])
            take(dst)
            for slot in dead:
                del vals[slot]
        return out


def series_program(ring, name):
    """The compiled program of series name ("bch", "exp_ad" or "phi")
    through ring's class, built on first use in ring.orbit_cache."""
    prog = ring.orbit_cache.get(name)
    if prog is None:
        series = {"bch": bch, "exp_ad": exp_ad, "phi": phi_series}[name]
        prog = ring.orbit_cache[name] = _Program(series(ring.cls), ring.pk)
    return prog


def exp_mul(ring, x, y):
    """Product Exp(x) Exp(y) in exponential coordinates."""
    return series_program(ring, "bch").scalar(ring, _vec(ring, x),
                                               _vec(ring, y))


def exp_inv(ring, x):
    """Inverse of Exp(x) is Exp(-x): the BCH series of (x, -x) collapses."""
    return ring.neg(_vec(ring, x))


def exp_pow(ring, x, m):
    """Exp(x)^m = Exp(m x); powers of one element stay on one line."""
    return ring.scale(int(m), _vec(ring, x))


def conjugate(ring, g, x):
    """Coordinates of Exp(g) Exp(x) Exp(g)^-1.

    Evaluates both the multiplicative route g*x*(-g), through the BCH
    program, and the exp(ad g) program; the two must agree, so
    disagreement is an internal error rather than bad input.
    """
    g, x = _vec(ring, g), _vec(ring, x)
    via_mul = exp_mul(ring, exp_mul(ring, g, x), ring.neg(g))
    via_ad = series_program(ring, "exp_ad").scalar(ring, g, x)
    if via_mul != via_ad:
        raise CrossCheckError(
            "conjugation", f"conjugation routes disagree at g={g}, x={x}: "
            f"{via_mul} vs {via_ad}")
    return via_mul


# vectorized versions for bulk checks; rows of X, Y are coordinate tuples

def _brackets(ring, X, Y):
    """Row-wise brackets of arrays of residues of ring.modulus.dtype: one
    column update per nonzero structure constant.  Every product is of two
    residues and is reduced before the next one, which is what the dtype
    bounds."""
    pk = ring.pk
    out = np.zeros_like(X)
    for i, j, nonzero in ring.structure:
        xy = (X[:, i] * Y[:, j] - X[:, j] * Y[:, i]) % pk
        for l, c in nonzero:
            out[:, l] = (out[:, l] + c * xy) % pk
    return out


def _residues(ring, X):
    return np.asarray(X, dtype=ring.modulus.dtype) % ring.pk


def batch_bracket(ring, X, Y):
    return _brackets(ring, _residues(ring, X), _residues(ring, Y))


def batch_exp_mul(ring, X, Y):
    return series_program(ring, "bch").batch(ring, _residues(ring, X),
                                             _residues(ring, Y))


def batch_conjugate(ring, G, X):
    return series_program(ring, "exp_ad").batch(ring, _residues(ring, G),
                                                 _residues(ring, X))


def all_elements(ring):
    """(|G|, rank) array of every coordinate tuple, lexicographic."""
    grid = np.indices((ring.pk,) * ring.rank, dtype=np.int64)
    return np.ascontiguousarray(grid.reshape(ring.rank, -1).T)


def element_index(ring, X):
    """Position of each row of X (reduced mod p^k) in all_elements(ring);
    for rings small enough to enumerate."""
    weights = ring.pk ** np.arange(ring.rank - 1, -1, -1, dtype=np.int64)
    return (np.asarray(X, dtype=np.int64) % ring.pk) @ weights


def check_exp_associative(ring, samples=10000, seed=0, exhaustive_limit=32768):
    """Compare (x*y)*z with x*(y*z); exhaustive when |G|^3 is small.

    Returns (number of triples checked, exhaustive flag); raises with a
    witness triple on any defect.
    """
    n = ring.size()
    if n ** 3 <= exhaustive_limit:
        elems = all_elements(ring)
        idx = np.indices((n, n, n)).reshape(3, -1)
        X, Y, Z = elems[idx[0]], elems[idx[1]], elems[idx[2]]
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        X, Y, Z = (rng.integers(0, ring.pk, size=(samples, ring.rank), dtype=np.int64)
                   for _ in range(3))
        exhaustive = False
    left = batch_exp_mul(ring, batch_exp_mul(ring, X, Y), Z)
    right = batch_exp_mul(ring, X, batch_exp_mul(ring, Y, Z))
    bad = np.nonzero((left != right).any(axis=1))[0]
    if bad.size:
        x, y, z = (tuple(W[int(bad[0])].tolist()) for W in (X, Y, Z))
        raise LazardError(f"associativity defect at x={x}, y={y}, z={z}")
    return len(X), exhaustive


# recovery of the ring from a black-box group law

def log_group(mul, p, k, rank, class_bound=None, samples=2000, seed=0):
    """Recover (+, [,]) from a multiplication law on (Z/p^k)^rank tuples.

    Writes the law as mul(x^m, y^m) = sum_d m^d T_d(x, y) and peels the
    graded pieces with a Vandermonde solve over m = 1..c (unit determinant
    since c < p).  T_1 must match coordinate addition, which pins the
    carrier as exponential coordinates; the bracket is 2 T_2 on basis
    pairs.  Returns (ring, report) after checking Exp(ring) reproduces mul
    pointwise: exhaustively when the group is small, otherwise on samples
    pairs drawn from seed, which the report names.  The recovered side is
    one batch_exp_mul; mul is called pair by pair up to the first mismatch.
    """
    mod = Modulus(p, k)
    pk = mod.pk
    c = min(p - 1, MAX_CLASS if class_bound is None else class_bound)
    if c < 1:
        raise LazardError("no admissible class below p")
    zero = (0,) * rank

    def power(x, m):
        acc, base = zero, x
        while m:
            if m & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            m >>= 1
        return acc

    if mul(zero, zero) != zero:
        raise LazardError("the zero tuple is not the group identity")

    vand = ModMatrix(mod, [[pow(m, d, pk) for d in range(1, c + 1)]
                           for m in range(1, c + 1)])
    vinv = mat_inverse(vand)

    def graded_parts(x, y):
        rows = [mul(power(x, m), power(y, m)) for m in range(1, c + 1)]
        return [tuple(sum(vinv.rows[d][m] * rows[m][l] for m in range(c)) % pk
                      for l in range(rank))
                for d in range(c)]

    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rng = np.random.default_rng(seed)

    def check_addition(x, y):
        parts = graded_parts(x, y)
        want = tuple((a + b) % pk for a, b in zip(x, y))
        if parts[0] != want:
            raise LazardError(
                f"degree-1 part of the law at x={x}, y={y} is {parts[0]}, "
                f"not coordinate addition; not exponential coordinates")
        return parts

    brackets = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            parts = check_addition(basis[i], basis[j])
            if c >= 2:
                brackets[(i, j)] = tuple(2 * v % pk for v in parts[1])
    for _ in range(16):
        x = tuple(int(v) for v in rng.integers(0, pk, size=rank))
        y = tuple(int(v) for v in rng.integers(0, pk, size=rank))
        check_addition(x, y)

    try:
        ring = LieRing(p, k, rank, brackets, name="recovered")
    except ValueError as e:
        raise LazardError(f"recovered constants are not a Lie ring: {e}") from e

    total = pk ** rank
    if total * total <= 65536:
        elems = all_elements(ring)
        X, Y = np.repeat(elems, total, axis=0), np.tile(elems, (total, 1))
        exhaustive = True
    else:
        # the same draws, in the same order, as x then y per pair
        XY = rng.integers(0, pk, size=(samples, 2, rank))
        X, Y = XY[:, 0], XY[:, 1]
        exhaustive = False
    for x, y, got in zip(X, Y, batch_exp_mul(ring, X, Y)):
        x, y, got = (tuple(v.tolist()) for v in (x, y, got))
        want = mul(x, y)
        if got != want:
            raise LazardError(
                f"Exp of the recovered ring disagrees with the law at "
                f"x={x}, y={y}: {got} vs {want}")
    report = {"class": ring.cls, "pairs_checked": len(X),
              "exhaustive": exhaustive, "seed": seed}
    return ring, report


# subrings and quotients

class Subring:
    """Submodule of a ring in Howell form, with bracket-closure queries."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.rows = howell([list(_vec(ring, g)) for g in generators], ring.modulus)
        self.pivots = howell_pivots(self.rows, ring.p)

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def full(cls, ring):
        return cls(ring, [ring.basis(i) for i in range(ring.rank)])

    def generators(self):
        return tuple(tuple(r) for r in self.rows)

    def size(self):
        return math.prod(self.ring.pk // self.ring.p**v for _, v in self.pivots)

    def contains(self, x):
        return member(list(_vec(self.ring, x)), self.rows, self.ring.modulus,
                      self.pivots)

    def contains_rows(self, X):
        """Boolean mask of the rows of X that lie in the span, from one
        batched reduction."""
        if len(X) == 0:
            return np.ones(0, dtype=bool)
        residues = reduce_rows(X, self.rows, self.ring.modulus, self.pivots)
        return (residues == 0).all(axis=1)

    def reduce(self, x):
        return tuple(reduce_mod_span(list(_vec(self.ring, x)), self.rows,
                                     self.ring.modulus, pivots=self.pivots))

    def sum_with(self, other):
        return Subring(self.ring, list(self.generators()) + list(other.generators()))

    def elements(self):
        """All members, sorted.  A Howell row with pivot valuation v has
        order p^(k - v) modulo the rows below it, so the sums of c * row
        with 0 <= c < p^(k - v) list each member exactly once."""
        ring = self.ring
        orders = [range(ring.pk // ring.p**v) for _, v in self.pivots]
        out = []
        for coeffs in itertools.product(*orders):
            v = ring.zero()
            for c, row in zip(coeffs, self.rows):
                v = ring.add(v, ring.scale(c, row))
            out.append(v)
        return sorted(out)

    def is_lie_subring(self):
        gens = self.generators()
        return bool(self.contains_rows(
            [self.ring.bracket(a, b) for a in gens for b in gens]).all())

    def is_ideal(self):
        ring = self.ring
        return all(self.contains(ring.bracket(ring.basis(i), g))
                   for i in range(ring.rank) for g in self.generators())

    def __eq__(self, other):
        return (isinstance(other, Subring) and self.ring is other.ring
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subring(rank {len(self.rows)} span, size {self.size()})"


def bracket_span(a, b):
    """[A, B] as a submodule: the span of pairwise generator brackets."""
    if a.ring is not b.ring:
        raise ValueError("subrings of different rings")
    ring = a.ring
    return Subring(ring, [ring.bracket(x, y)
                          for x in a.generators() for y in b.generators()])


def orthogonal(ring, gram, gens):
    """{x : x gram g = 0 for every g in gens} as a Subring: the Howell
    kernel of the rank x |gens| matrix gram g^T, gram given by integer
    rows mod p^k."""
    if not gens:
        return Subring.full(ring)
    cols = [[sum(b * c for b, c in zip(row, g)) for g in gens]
            for row in gram]
    return Subring(ring, kernel(ModMatrix(ring.modulus, cols)).rows)


def quotient_ring(ring, ideal, name=None):
    """Quotient by a split ideal; returns (quotient, project, lift).

    The ideal's Howell rows must have unit pivots, so the non-pivot
    coordinates form a free complement.  project sends x to its residue on
    those coordinates; lift places a residue back with zeros at the pivot
    columns, which is the lexicographically least coset representative.
    """
    if not ideal.is_ideal():
        raise ValueError("submodule is not an ideal")
    pk = ring.pk
    pivots = {}
    for row in ideal.rows:
        j = next(i for i, v in enumerate(row) if v)
        if row[j] % ring.p == 0 or pivots.get(j) is not None:
            raise ValueError("ideal is not a split submodule")
        pivots[j] = row
    free = [j for j in range(ring.rank) if j not in pivots]
    if not free:
        raise ValueError("quotient is trivial")

    def project(x):
        r = ideal.reduce(x)
        assert all(r[j] == 0 for j in pivots)
        return tuple(r[j] for j in free)

    def lift(beta):
        if len(beta) != len(free):
            raise ValueError(f"expected {len(free)} coordinates")
        out = [0] * ring.rank
        for j, b in zip(free, beta):
            out[j] = int(b) % pk
        return tuple(out)

    brackets = {}
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            v = project(ring.bracket(ring.basis(free[a]), ring.basis(free[b])))
            if any(v):
                brackets[(a, b)] = v
    q = LieRing(ring.p, ring.k, len(free), brackets,
                name=name or f"{ring.name}/ideal")
    return q, project, lift


# bundled rings

def _entries(p, k=1):
    pairs = []
    for r in (1, 2, 3):
        pairs.append((f"abelian{r}", (r, {})))
    pairs.append(("h3", (3, {(0, 1): (0, 0, 1)})))
    pairs.append(("h3xa1", (4, {(0, 1): (0, 0, 1, 0)})))
    if p > 3:
        # strictly upper triangular 4x4: basis e12, e23, e34, e13, e24, e14
        pairs.append(("u4", (6, {
            (0, 1): (0, 0, 0, 1, 0, 0),
            (1, 2): (0, 0, 0, 0, 1, 0),
            (0, 4): (0, 0, 0, 0, 0, 1),
            (2, 3): (0, 0, 0, 0, 0, -1),
        })))
    return pairs


def catalog():
    """Name -> LieRing for the bundled test rings (class < p throughout)."""
    out = {}
    for p in (3, 5, 7):
        for stem, (rank, brackets) in _entries(p):
            name = f"{stem}_p{p}"
            out[name] = LieRing(p, 1, rank, brackets, name=name)
    out["h3_z9"] = LieRing(3, 2, 3, {(0, 1): (0, 0, 1)}, name="h3_z9")
    return out


# plain-text serialization; canonical output round-trips bit for bit

def serialize_ring(ring):
    lines = [f"ring {ring.name}",
             f"p {ring.p}", f"k {ring.k}",
             f"rank {ring.rank}", f"class {ring.cls}"]
    for i in range(ring.rank):
        for j in range(i + 1, ring.rank):
            v = ring.table[i][j]
            if any(v):
                lines.append(f"bracket {i + 1} {j + 1} " + " ".join(map(str, v)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_ring(text):
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("ring"):
        raise ValueError("ring file must start with a 'ring' line")
    name = lines[0].split(maxsplit=1)[1] if " " in lines[0] else "unnamed"
    fields = {}
    brackets = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "end":
            break
        if parts[0] in ("p", "k", "rank", "class"):
            if len(parts) != 2:
                raise ValueError(f"expected one value in {ln!r}")
            fields[parts[0]] = int(parts[1])
        elif parts[0] == "bracket":
            if len(parts) < 3:
                raise ValueError(f"expected a basis pair in {ln!r}")
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            brackets[(i, j)] = tuple(int(v) for v in parts[3:])
        else:
            raise ValueError(f"unknown line {ln!r}")
    else:
        raise ValueError("missing 'end' line")
    for key in ("p", "k", "rank"):
        if key not in fields:
            raise ValueError(f"missing field {key!r}")
    ring = LieRing(fields["p"], fields["k"], fields["rank"], brackets, name=name)
    if "class" in fields and fields["class"] != ring.cls:
        raise ValueError(
            f"declared class {fields['class']} but computed {ring.cls}")
    return ring
