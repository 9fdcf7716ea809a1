"""Finite nilpotent Lie rings over Z/p^k and their exponential groups.

A ring is given by structure constants on a free Z/p^k-module of finite
rank.  When the nilpotency class c satisfies c < p, the truncated BCH
series has all its denominators invertible mod p^k, so the same coordinate
tuples carry both the ring and the group Exp(ring); exp_mul evaluates the
group law and log_group recovers the ring operations from a black-box
multiplication on the same carrier.

Each Lie series evaluated in a ring (BCH, exp(ad g), the V-model's Phi)
is compiled once per ring into one bracket program (series_program) with
two independent entry points.  The scalar one is a straight-line Python
function emitted from the program and the ring's nonzero structure
constants on its first call, one local per coordinate; it is memoized by
those integers, so rings with equal brackets share it.  The batch one
interprets the same steps over ring.structure on numpy arrays, without
the emitted code; it holds a bracket as the coordinate rows it can reach
and reduces each product of residues before adding it (_bracket_rows).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .arith import (Modulus, howell, howell_pivots, kernel, mat_inverse,
                    member, reduce_mod_span, reduce_rows, span_size)
from .freelie import MAX_CLASS, bch, exp_ad, phi_series

MAX_RANK = 64
# residues fit an int64, so numpy can draw and hold them
MAX_MODULUS = 2**63
# the single-valued keys of a ring block
RING_KEYS = ("p", "k", "rank", "class")


class LazardError(ValueError):
    pass


class CrossCheckError(RuntimeError):
    """Two independent routes to one value disagree: an internal error,
    not bad input.  .check names the cross-check."""

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


def _reduced(v, pk):
    """tuple(v) reduced mod pk; a tuple of residues comes back as is."""
    t = tuple(v)
    if all(type(c) is int and 0 <= c < pk for c in t):
        return t
    return tuple([int(c) % pk for c in t])


def _vec(ring, v):
    t = _reduced(v, ring.pk)
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
    series programs, the orbits layer's tables, the unit inverses).
    """

    def __init__(self, p, k, rank, brackets, name="unnamed"):
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
            w = _reduced(v, self.pk)
            if len(w) != rank:
                raise ValueError(f"bracket ({i}, {j}) has wrong length")
            table[i][j] = w
            table[j][i] = tuple(-c % self.pk for c in w)
            nonzero = tuple((l, c) for l, c in enumerate(w) if c)
            if nonzero:
                structure.append((i, j, nonzero))
        self.table = tuple(tuple(row) for row in table)
        self.structure = tuple(structure)
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
    """Report the ring's shape; its constructor has checked Jacobi, the
    lower central series and the Lazard condition."""
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
    class is < p).

    scalar is a Python function (x, y) -> coordinate tuple, emitted by
    _emit from the steps, the terms and the ring's nonzero structure
    constants on its first read and a plain attribute after that; batch
    interprets the same steps over the ring's structure on numpy arrays,
    without _emit, so the two stay independent routes.  The program holds
    no reference to its ring, only the integers the emitted code is built
    from.
    """

    def __init__(self, series, ring):
        pk = ring.pk
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
            c = coeff.numerator * pow(coeff.denominator, -1, pk) % pk
            if c:
                terms.append((slot(tree), c))
        self.steps = tuple(steps)
        self.terms = tuple(terms)
        # dead[t]: the slots that no step after step t reads
        last = {s: t for t, step in enumerate(steps) for s in step}
        self.dead = tuple(tuple(s for s, u in last.items() if u == t)
                          for t in range(len(steps)))
        self._key = (self.steps, self.terms, pk, ring.rank, ring.structure)

    @functools.cached_property
    def scalar(self):
        """Value at two coordinate sequences of any integers, as a tuple
        of residues; a wrong length raises ValueError."""
        return _emit(*self._key)

    def batch(self, ring, X, Y):
        """Row-wise values at (N, rank) arrays of residues of
        ring.modulus.dtype.  The terms of slots 0 and 1 are added on whole
        arrays; a bracket slot's term only into the columns it reaches."""
        pk = ring.pk
        coeff = dict(self.terms)
        linear = [A if c == 1 else _mod(c * A, pk)
                  for A, c in ((X, coeff.get(0)), (Y, coeff.get(1))) if c]
        out = _mod(sum(linear[1:], linear[0]), pk) if linear else np.zeros_like(X)
        if not self.steps:
            return out
        vals = {0: dict(enumerate(X.T)), 1: dict(enumerate(Y.T))}
        for (dst, a, b), dead in zip(self.steps, self.dead):
            vals[dst] = _bracket_rows(ring, vals[a], vals[b])
            c = coeff.get(dst)
            for l, row in vals[dst].items() if c else ():
                out.T[l] += row if c == 1 else _mod(c * row, pk)
            for slot in dead:
                del vals[slot]
        # an entry is a sum of residues, at most one per slot
        return _mod(out, pk)


@functools.lru_cache(maxsize=256)
def _emit(steps, terms, pk, rank, structure):
    """Compile one program for one ring's structure to a function of
    straight-line Python: a local per coordinate that is not known to be
    zero, each bracket and output coordinate reduced mod pk.  Python ints
    are exact, so the inputs need no reduction, and int() runs only when
    a coordinate is not an int.  The source is built from integers only
    and runs with int, type, len and ValueError as its only globals.
    Rings with equal (pk, rank, structure) share the function."""
    lines = []
    vals = {}
    for slot, arg in enumerate("xy"):
        names = ["%s%d" % (arg, l) for l in range(rank)]
        lines += ["if len(%s) != %d:" % (arg, rank),
                  "    raise ValueError(f'expected %d coordinates, "
                  "got {len(%s)}')" % (rank, arg),
                  "%s, = %s" % (", ".join(names), arg)]
        vals[slot] = dict(enumerate(names))
    args = [*vals[0].values(), *vals[1].values()]
    lines.append("if not (%s is int):" % " is ".join(
        "type(%s)" % v for v in args))
    lines += ["    %s = int(%s)" % (v, v) for v in args]
    for dst, a, b in steps:
        u, v = vals[a], vals[b]
        sums = {}
        for i, j, nonzero in structure:
            # [a, b] picks up a_i b_j - a_j b_i on the pair (i, j)
            xy = ("%s*%s" % (u[i], v[j]) if i in u and j in v else "") + (
                "-%s*%s" % (u[j], v[i]) if j in u and i in v else "")
            if not xy:
                continue
            for l, c in nonzero:
                sums.setdefault(l, []).append(
                    xy if c == 1 else "%d*(%s)" % (c, xy))
        vals[dst] = {l: "s%d_%d" % (dst, l) for l in sums}
        lines += ["%s = (%s) %% %d" % (vals[dst][l], " + ".join(e), pk)
                  for l, e in sorted(sums.items())]
    out = []
    for l in range(rank):
        e = [vals[s][l] if c == 1 else "%d*%s" % (c, vals[s][l])
             for s, c in terms if l in vals[s]]
        out.append("(%s) %% %d" % (" + ".join(e), pk) if e else "0")
    lines.append("return (%s,)" % ", ".join(out))
    source = "def series(x, y):\n" + "".join("    %s\n" % ln for ln in lines)
    env = {"__builtins__": {}, "int": int, "type": type, "len": len,
           "ValueError": ValueError}
    exec(compile(source, "<series program>", "exec"), env)
    return env["series"]


def _cached(ring, key, build):
    """ring.orbit_cache[key], filled by build(ring) on first use.  The
    cache holds data of the ring (tables, and orbits' memo of radicals by
    skew form) and no reference back to it."""
    cache = ring.orbit_cache
    if key not in cache:
        cache[key] = build(ring)
    return cache[key]


def series_program(ring, name):
    """The compiled program of series name ("bch", "exp_ad" or "phi")
    through ring's class, built on first use in ring.orbit_cache."""
    return _cached(ring, name, lambda ring: _Program(
        {"bch": bch, "exp_ad": exp_ad, "phi": phi_series}[name](ring.cls),
        ring))


def unit_inverses(ring):
    """unit[v]: the inverse mod p^k of v / gcd(v, p^k), and unit[0] = 0."""
    pk = ring.pk
    return _cached(ring, "unit_inverses", lambda ring: np.array(
        [0] + [pow(v // math.gcd(v, pk), -1, pk) for v in range(1, pk)]))


def exp_mul(ring, x, y):
    """Product Exp(x) Exp(y) in exponential coordinates."""
    try:
        scalar = ring.orbit_cache["bch"].scalar
    except KeyError:
        scalar = series_program(ring, "bch").scalar
    return scalar(x, y)


def conjugate(ring, g, x):
    """Coordinates of Exp(g) Exp(x) Exp(g)^-1.

    Evaluates both the multiplicative route g*x*(-g), through the BCH
    program, and the exp(ad g) program; the two must agree, so
    disagreement is an internal error rather than bad input.
    """
    g, x = _vec(ring, g), _vec(ring, x)
    via_mul = exp_mul(ring, exp_mul(ring, g, x), ring.neg(g))
    via_ad = series_program(ring, "exp_ad").scalar(g, x)
    if via_mul != via_ad:
        raise CrossCheckError(
            "conjugation", f"conjugation routes disagree at g={g}, x={x}: "
            f"{via_mul} vs {via_ad}")
    return via_mul


# vectorized versions for bulk checks; rows of X, Y are coordinate tuples

def _bracket_rows(ring, u, v):
    """[u, v] on coordinate rows {l: 1-D row of residues}, a missing l
    being zero: only the structure pairs (i, j) with rows u[i] and v[j],
    or u[j] and v[i], are visited, and each product of two residues is
    reduced before it is added, which is what ring.modulus.dtype bounds."""
    pk = ring.pk
    terms = {}
    for i, j, nonzero in ring.structure:
        left, right = i in u and j in v, j in u and i in v
        if left or right:
            xy = _mod((u[i] * v[j] if left else 0)
                      - (u[j] * v[i] if right else 0), pk)
            for l, c in nonzero:
                terms.setdefault(l, []).append(
                    xy if c == 1 else _mod(c * xy, pk))
    return {l: t[0] if len(t) == 1 else _mod(sum(t[1:], t[0]), pk)
            for l, t in terms.items()}


def _mod(A, pk):
    """A % pk; on int64 as A - A // pk * pk, since numpy's floor division
    of an int64 array by a scalar is several times faster than %."""
    return A % pk if A.dtype == object else A - A // pk * pk


def _residues(ring, X):
    return _mod(np.asarray(X, dtype=ring.modulus.dtype), ring.pk)


def batch_bracket(ring, X, Y):
    """Row-wise brackets by _bracket_rows, the series programs' kernel."""
    X, Y = _residues(ring, X), _residues(ring, Y)
    out = np.zeros_like(X)
    for l, row in _bracket_rows(ring, dict(enumerate(X.T)),
                                dict(enumerate(Y.T))).items():
        out.T[l] = row
    return out


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


def check_exp_associative(ring, samples=10000, seed=0):
    """Compare (x*y)*z with x*(y*z); exhaustive when |G|^3 <= 2^15.

    Returns (number of triples checked, exhaustive flag); raises with a
    witness triple on any defect.
    """
    n = ring.size()
    if n ** 3 <= 2**15:
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

def log_group(mul, p, k, rank, samples=2000, seed=0):
    """Recover (+, [,]) from a multiplication law on (Z/p^k)^rank tuples.

    Writes the law as mul(x^m, y^m) = sum_d m^d T_d(x, y) and peels the
    graded pieces with a Vandermonde solve over m = 1..c (unit determinant
    since c < p); only degrees 1 and 2 are read.  T_1 must match
    coordinate addition, which pins the carrier as exponential
    coordinates; the bracket is 2 T_2 on basis pairs.  Returns (ring,
    report) after checking Exp(ring) reproduces mul pointwise:
    exhaustively when the group is small, on tuple pairs that
    itertools.product gives in all_elements' lexicographic order,
    otherwise on samples pairs drawn from seed, which the report names.
    The recovered side is one batch_exp_mul, read as one flat list; mul
    is called once per pair, up to and including the first mismatch, and
    its outputs are compared with the batch rows in C-level loops.
    The graded parts take 3c - 2 calls of mul per pair: x^m = x^(m-1) x.
    """
    mod = Modulus(p, k)
    pk = mod.pk
    c = min(p - 1, MAX_CLASS)
    if c < 1:
        raise LazardError("no admissible class below p")
    zero = (0,) * rank
    if mul(zero, zero) != zero:
        raise LazardError("the zero tuple is not the group identity")

    # rows 0 and 1 of the inverse give degrees 1 and 2, all that is read
    vinv = mat_inverse([[pow(m, d, pk) for d in range(1, c + 1)]
                        for m in range(1, c + 1)], mod)[:2]

    def powers(x):
        """x^1 .. x^c, each one mul from the last."""
        out = [x]
        for _ in range(c - 1):
            out.append(mul(out[-1], x))
        return out

    def graded_parts(x, y):
        # reduced to Python ints: numpy integers from the law would wrap
        cols = list(zip(*[_reduced(mul(a, b), pk)
                          for a, b in zip(powers(x), powers(y))]))
        return [tuple(sum(map(operator.mul, row, col)) % pk for col in cols)
                for row in vinv]

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
    # 16 random pairs, x then y of each, in one draw
    for x, y in rng.integers(0, pk, size=(16, 2, rank)).tolist():
        check_addition(tuple(x), tuple(y))

    try:
        ring = LieRing(p, k, rank, brackets, name="recovered")
    except ValueError as e:
        raise LazardError(f"recovered constants are not a Lie ring: {e}") from e

    def rows(a):
        """The rows of the 2-D array a, as tuples of Python ints."""
        return zip(*[iter(a.ravel().tolist())] * rank)

    total = pk ** rank
    if total * total <= 65536:
        elems = all_elements(ring)
        X, Y = np.repeat(elems, total, axis=0), np.tile(elems, (total, 1))
        # the rows of X and Y, as tuples in the same lexicographic order
        pairs = itertools.product(ring.elements(), repeat=2)
        exhaustive = True
    else:
        # the same draws, in the same order, as x then y per pair
        XY = rng.integers(0, pk, size=(samples, 2, rank))
        X, Y = XY[:, 0], XY[:, 1]
        pairs = zip(rows(X), rows(Y))
        exhaustive = False
    got_all = batch_exp_mul(ring, X, Y)
    # compress pulls each law output before its comparison and stops at the
    # first mismatch, so mul runs once per pair up to and including it
    outs, seen = itertools.tee(itertools.starmap(mul, pairs))
    bad = next(itertools.compress(zip(itertools.count(), seen),
                                  map(operator.ne, rows(got_all), outs)), None)
    if bad is not None:
        i, want = bad
        x, y, got = (tuple(a[i].tolist()) for a in (X, Y, got_all))
        raise LazardError(
            f"Exp of the recovered ring disagrees with the law at "
            f"x={x}, y={y}: {got} vs {want}")
    report = {"class": ring.cls, "pairs_checked": len(X),
              "exhaustive": exhaustive, "seed": seed}
    return ring, report


# subrings and quotients

class Subring:
    """Submodule of a ring, held as the Howell rows of its span (the one
    subgroup format), with membership, listing and bracket-closure
    queries."""

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

    @classmethod
    def kernel_of(cls, ring, rows):
        """The Subring {x : x m = 0}, m given by its ring.rank rows.  The
        rows of arith.kernel are already Howell rows, so they are kept as
        they are instead of being reduced by howell a second time."""
        sub = cls.__new__(cls)
        sub.ring, sub.rows = ring, kernel(rows, ring.modulus)
        sub.pivots = howell_pivots(sub.rows, ring.p)
        return sub

    def generators(self):
        return self.rows

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

    def members(self):
        """Every member once, as a (size, rank) array of modulus.dtype in
        no set order.  A Howell row with pivot valuation v has order
        p^(k - v) modulo the rows below it, so the sums of c * row with
        0 <= c < p^(k - v) list each member exactly once."""
        ring, dtype = self.ring, self.ring.modulus.dtype
        out = np.zeros((1, ring.rank), dtype=dtype)
        for row, (_, v) in zip(self.rows, self.pivots):
            c = np.arange(ring.pk // ring.p**v, dtype=dtype)[:, None]
            step = c * np.array(row, dtype=dtype) % ring.pk
            out = (out[:, None] + step).reshape(-1, ring.rank)
            # a sum of two residues is below 2 p^k
            out[out >= ring.pk] -= ring.pk
        return out

    def elements(self):
        """All members as tuples, sorted."""
        return sorted(map(tuple, self.members().tolist()))

    def is_lie_subring(self):
        """Closure under the bracket, on generator pairs i < j only."""
        return bool(self.contains_rows(list(itertools.starmap(
            self.ring.bracket, itertools.combinations(self.rows, 2)))).all())

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
    """[A, B] as a submodule: the span of the nonzero generator brackets,
    over the pairs i < j only for [A, A] ([x, x] = 0, [y, x] = -[x, y])."""
    if a.ring is not b.ring:
        raise ValueError("subrings of different rings")
    pairs = (itertools.combinations(a.rows, 2) if a is b
             else itertools.product(a.rows, b.rows))
    return Subring(a.ring, [v for v in itertools.starmap(a.ring.bracket, pairs)
                            if any(v)])


def orthogonal(ring, gram, gens):
    """{x : x gram g = 0 for every g in gens} as a Subring: the Howell
    kernel of the rank x |gens| matrix gram g^T, gram given by integer
    rows mod p^k."""
    if not gens:
        return Subring.full(ring)
    cols = [[sum(b * c for b, c in zip(row, g)) for g in gens]
            for row in gram]
    return Subring.kernel_of(ring, cols)


def quotient_ring(ring, ideal, name=None):
    """Quotient by a split ideal; returns (quotient, project, lift).

    The ideal's Howell rows must have unit pivots, so the non-pivot
    coordinates form a free complement.  project sends x to its residue on
    those coordinates; lift places a residue back with zeros at the pivot
    columns, which is the lexicographically least coset representative.
    """
    if not ideal.is_ideal():
        raise ValueError("submodule is not an ideal")
    if any(v for _, v in ideal.pivots):
        raise ValueError("ideal is not a split submodule")
    pk, pivots = ring.pk, {j for j, _ in ideal.pivots}
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

def _entries(p):
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


def read_format(text, kind, once, with_ring=False):
    """The name and token lines of a ring, metric or v-model file, by the
    rules the three formats share: blank lines and `#` comments are
    skipped, the first line is `kind` and an optional name (the rest of
    the line), the last is `end`, and a key in `once` starts at most one
    line.  with_ring reads a ring block, by the same rules, right after
    the header (as in a v-model) and puts its LieRing first in the lines."""
    lines = iter([ln.strip() for ln in text.splitlines()
                  if ln.strip() and not ln.lstrip().startswith("#")])
    name, rows = _read_block(lines, kind, once, with_ring)
    for ln in lines:
        raise ValueError(f"line {ln!r} after 'end'")
    return name, rows


def _read_block(lines, kind, once, with_ring=False):
    header = next(lines, "")
    if header.split()[:1] != [kind]:
        raise ValueError(f"expected a '{kind}' line, got {header!r}")
    name, = header.split(maxsplit=1)[1:] or ["unnamed"]
    rows = [_ring(*_read_block(lines, "ring", RING_KEYS))] if with_ring else []
    seen = set()
    for ln in lines:
        if ln == "end":
            return name, rows
        parts = ln.split()
        if parts[0] in seen:
            raise ValueError(f"second {parts[0]!r} line")
        if parts[0] in once:
            seen.add(parts[0])
        rows.append(parts)
    raise ValueError(f"the '{kind}' block has no 'end' line")


def parse_ring(text):
    return _ring(*read_format(text, "ring", RING_KEYS))


def _ring(name, rows):
    fields, brackets = {}, {}
    for key, *values in rows:
        if key in RING_KEYS and len(values) == 1:
            fields[key] = int(values[0])
        elif key == "bracket" and len(values) >= 2:
            pair = (int(values[0]) - 1, int(values[1]) - 1)
            if pair in brackets:
                raise ValueError(
                    f"second 'bracket {values[0]} {values[1]}' line")
            brackets[pair] = tuple(int(v) for v in values[2:])
        else:
            raise ValueError(f"malformed line {' '.join([key, *values])!r}")
    for key in ("p", "k", "rank"):
        if key not in fields:
            raise ValueError(f"missing field {key!r}")
    ring = LieRing(fields["p"], fields["k"], fields["rank"], brackets, name=name)
    if "class" in fields and fields["class"] != ring.cls:
        raise ValueError(
            f"declared class {fields['class']} but computed {ring.cls}")
    return ring
