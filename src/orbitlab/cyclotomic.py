"""Exact arithmetic in Q(zeta) for zeta a primitive p^M-th root of unity.

Elements live in the power basis 1, zeta, ..., zeta^(phi-1), reduced modulo
the p^M-th cyclotomic polynomial Phi(x) = sum_{j<p} x^(j*p^(M-1)). An
element is a tuple of Python-int numerators over one positive int
denominator, always in lowest terms (gcd of the denominator and every
numerator is 1, zero is 0/1), so equality and hashing are exact tuple
comparisons and every identity checked against these numbers is exact.
The embedding psi of Q_p/Z_p sends a/p^l to CycNumber.root(p, M,
a * p^(M-l)); MetricGroup.qt forms that exponent itself.

Each conductor p^M gets one context, built on first use: the sizes, zero
and zeta^e for 0 <= e < n as one CycNumber each, and the index tables of
the Galois automorphisms.  CycNumbers are immutable, so CycNumber.zero,
one and root return those shared objects, and a list comparison of such
constants stops at the identity test.  Ring operations work on the
extended basis 1, ..., zeta^(n-1) and fold it back into the power basis
in one pass.

Sums of many roots of unity use the exponent format instead: an integer
array h whose last axis has length n, with one denominator D, stands for
(1/D) sum_e h[..., e] zeta^e.  _Conductor.fold turns it into power-basis
numerators, and an entry is zero exactly when its folded numerators all
vanish: the kernel of h -> sum_e h[e] zeta^e is spanned by the multiples
of Phi, which are the vectors constant on each residue class mod
p^(M-1), and fold subtracts that class's top entry from each class.
to_rows and from_rows convert between CycNumbers and this format,
same_values compares two such arrays exactly, and rank decides the ranks
over Q(zeta) of a stack of such matrices by one batched int64 elimination
over F_l for each prime l = 1 (mod n), with no inverse in Q(zeta).  The
arrays are int64 while a bound computed from the inputs stays below 2^62,
and Python ints otherwise, so no sum overflows silently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, neg, sub
from typing import Sequence

import numpy as np

from orbitlab.arith import is_prime

__all__ = ["CycNumber", "to_rows", "from_rows", "same_values", "rank"]

# int64 holds every intermediate while the computed bound stays below this
_INT64_BOUND = 2**62


class _Conductor:
    """Per-(p, M) data shared by every CycNumber of that conductor."""

    __slots__ = ("p", "m", "n", "phi", "pad", "zero", "roots", "_galois",
                 "_primes")

    def __init__(self, p: int, m: int):
        if m < 1 or not is_prime(p):
            raise ValueError("conductor must be p^M with p prime, M >= 1")
        self.p = p
        self.m = m
        self.n = p**m
        self.phi = (p - 1) * p ** (m - 1)
        self.pad = (0,) * (self.n - self.phi)
        self.zero = _make(self, (0,) * self.phi, 1)
        unit = (1,) + (0,) * (self.n - 1)
        self.roots = tuple(
            _make(self, self.fold(unit[self.n - e:] + unit[:self.n - e]), 1)
            for e in range(self.n))
        self._galois = {}
        self._primes = []

    def __reduce__(self):
        # copies and unpickled numbers share the one context per conductor
        return _conductor, (self.p, self.m)

    def fold(self, ext):
        """Power-basis numerators of sum ext[e] zeta^e over 0 <= e < n.

        ext is a tuple, or an integer array folded along its last axis.
        Uses zeta^(phi + r) = -(zeta^r + zeta^(r+s) + ... + zeta^(r+(p-2)s)),
        s = p^(M-1), for 0 <= r < s.
        """
        if isinstance(ext, np.ndarray):
            top = np.tile(ext[..., self.phi:], self.p - 1)
            return ext[..., :self.phi] - top
        top = ext[self.phi:]
        if any(top):
            return tuple(map(sub, ext[:self.phi], top * (self.p - 1)))
        return tuple(ext[:self.phi])

    def galois_gather(self, t: int):
        """Index map sending extended-basis numerators x to those of x^(t)."""
        got = self._galois.get(t)
        if got is None:
            t_inv = pow(t, -1, self.n)
            got = itemgetter(*(j * t_inv % self.n for j in range(self.n)))
            self._galois[t] = got
        return got

    def primes(self):
        """Yield (l, w^e mod l for 0 <= e < n, int64) for the primes
        l = 1 (mod n) upward from 2^30, in order (rank's docstring defines
        w).  Each prime is found once per conductor and kept, so later
        calls extend the list instead of searching again."""
        found, n = self._primes, self.n
        for i in count():
            if i == len(found):
                ell = found[-1][0] + n if found else 2**30 + (1 - 2**30) % n
                while not is_prime(ell):
                    ell += n
                g = next(g for g in count(2)
                         if pow(g, (ell - 1) // self.p, ell) != 1)
                w = pow(g, (ell - 1) // n, ell)
                found.append((ell, np.array([pow(w, e, ell) for e in range(n)],
                                            dtype=np.int64)))
            yield found[i]


_CONDUCTORS: dict = {}


def _conductor(p: int, m: int) -> _Conductor:
    ctx = _CONDUCTORS.get((p, m))
    if ctx is None:
        ctx = _CONDUCTORS.setdefault((p, m), _Conductor(p, m))
    return ctx


def _make(ctx: _Conductor, num: tuple, den: int) -> "CycNumber":
    """Wrap numerators already in lowest terms over den."""
    x = object.__new__(CycNumber)
    x._ctx = ctx
    x._num = num
    x._den = den
    return x


def _lowest(ctx: _Conductor, num: tuple, den: int) -> "CycNumber":
    g = gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    return _make(ctx, num, den)


class CycNumber:
    """Element of Q(zeta_{p^M}): integer numerators over one denominator."""

    __slots__ = ("_ctx", "_num", "_den")

    def __init__(self, p: int, m: int, coeffs: Sequence[Fraction]):
        ctx = _conductor(p, m)
        if len(coeffs) != ctx.phi:
            raise ValueError(f"need {ctx.phi} coefficients, got {len(coeffs)}")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        self._ctx = ctx
        self._num = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self._den = den

    @property
    def p(self) -> int:
        return self._ctx.p

    @property
    def m(self) -> int:
        return self._ctx.m

    @property
    def coeffs(self) -> tuple:
        """Power-basis coefficients as Fractions."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, m: int) -> "CycNumber":
        return _conductor(p, m).zero

    @classmethod
    def one(cls, p: int, m: int) -> "CycNumber":
        return _conductor(p, m).roots[0]

    @classmethod
    def rational(cls, p: int, m: int, x) -> "CycNumber":
        ctx = _conductor(p, m)
        x = Fraction(x)
        return _make(ctx, (x.numerator,) + ctx.zero._num[1:], x.denominator)

    @classmethod
    def root(cls, p: int, m: int, e: int) -> "CycNumber":
        """zeta^e, reduced into the power basis."""
        ctx = _conductor(p, m)
        return ctx.roots[e % ctx.n]

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycNumber") -> _Conductor:
        if self._ctx is not other._ctx:
            raise ValueError("mixed conductors")
        return self._ctx

    def _combine(self, other: "CycNumber", op) -> "CycNumber":
        ctx = self._check(other)
        da, db = self._den, other._den
        if da == db:
            num = tuple(map(op, self._num, other._num))
            return _make(ctx, num, 1) if da == 1 else _lowest(ctx, num, da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        num = tuple(map(op, map(mul, self._num, repeat(fa)),
                        map(mul, other._num, repeat(fb))))
        return _lowest(ctx, num, da * fa)

    def __add__(self, other: "CycNumber") -> "CycNumber":
        return self._combine(other, add)

    def __sub__(self, other: "CycNumber") -> "CycNumber":
        return self._combine(other, sub)

    def __neg__(self) -> "CycNumber":
        return _make(self._ctx, tuple(map(neg, self._num)), self._den)

    def scale(self, x) -> "CycNumber":
        x = Fraction(x)
        num = tuple(map(mul, self._num, repeat(x.numerator)))
        return _lowest(self._ctx, num, self._den * x.denominator)

    def __mul__(self, other: "CycNumber") -> "CycNumber":
        ctx = self._check(other)
        a, b = self._num, other._num
        phi = ctx.phi
        # the sparser factor drives the outer loop; each of its nonzero
        # coefficients adds one shifted, scaled copy of the other factor
        zeros_a, zeros_b = a.count(0), b.count(0)
        if zeros_a < zeros_b:
            a, b, zeros_a = b, a, zeros_b
        if zeros_a == phi:
            return ctx.zero
        acc = [0] * (2 * phi - 1)
        for i, c in enumerate(a):
            if c:
                row = map(mul, b, repeat(c))
                acc[i:i + phi] = map(add, acc[i:i + phi], row)
        n = ctx.n
        if len(acc) > n:
            wrap = acc[n:]
            acc[:len(wrap)] = map(add, acc[:len(wrap)], wrap)
            del acc[n:]
        else:
            acc.extend(ctx.pad[:n - len(acc)])
        num = ctx.fold(acc)
        den = self._den * other._den
        return _make(ctx, num, 1) if den == 1 else _lowest(ctx, num, den)

    def mul_root(self, e: int) -> "CycNumber":
        """Multiply by zeta^e (a basis rotation, cheaper than full mul)."""
        ctx = self._ctx
        n = ctx.n
        e %= n
        ext = self._num + ctx.pad
        # multiplying by a unit of Z[zeta] keeps the numerators' gcd
        return _make(ctx, ctx.fold(ext[n - e:] + ext[:n - e]), self._den)

    def galois(self, t: int) -> "CycNumber":
        """Apply the automorphism zeta -> zeta^t, gcd(t, p) = 1."""
        ctx = self._ctx
        if t % ctx.p == 0:
            raise ValueError("not a unit exponent")
        gather = ctx.galois_gather(t % ctx.n)
        # an automorphism of Z[zeta] keeps the numerators' gcd too
        return _make(ctx, ctx.fold(gather(self._num + ctx.pad)), self._den)

    def conj(self) -> "CycNumber":
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(self._ctx.n - 1)

    def inverse(self) -> "CycNumber":
        """Exact inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, m = self.p, self.m
        prod = CycNumber.one(p, m)
        for t in range(2, p**m):
            if t % p != 0:
                prod = prod * self.galois(t)
        norm = self * prod
        if not norm.is_rational():
            raise ArithmeticError("norm failed to be rational")
        return prod.scale(Fraction(norm._den, norm._num[0]))

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def __eq__(self, other):
        return (isinstance(other, CycNumber)
                and self._ctx is other._ctx
                and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._ctx.p, self._ctx.m, self._num, self._den))

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"

    def serialize(self) -> str:
        return f"{self._ctx.n}:" + ",".join(str(c) for c in self.coeffs)


def _absmax(h) -> int:
    return int(abs(h).max()) if h.size else 0


def to_rows(values, p: int, m: int, terms: int = 1):
    """(h, den): the CycNumbers as rows of an (len(values), p^m) array in
    the exponent format over one denominator in lowest terms (the lcm of
    theirs); row r holds values[r]'s power-basis numerators, then zeros.
    h is int64 while max |h| * terms < 2^62, so that sums of up to terms
    rows cannot overflow, and Python ints otherwise."""
    ctx = _conductor(p, m)
    if any(v._ctx is not ctx for v in values):
        raise ValueError("mixed conductors")
    den = lcm(*(v._den for v in values))
    scale = [den // v._den for v in values]
    big = max((abs(a) * f for v, f in zip(values, scale) for a in v._num),
              default=0)
    dtype = np.int64 if big * terms < _INT64_BOUND else object
    h = np.zeros((len(values), ctx.n), dtype=dtype)
    h[:, :ctx.phi] = np.array([v._num for v in values], dtype=dtype).reshape(
        len(values), ctx.phi) * np.array(scale, dtype=dtype)[:, None]
    return h, den


def from_rows(h, den: int, p: int, m: int):
    """The CycNumbers h / den, h in the exponent format, each in lowest
    terms: nested lists shaped like h.shape[:-1], or one CycNumber when h
    has a single axis."""
    ctx = _conductor(p, m)
    out = [_lowest(ctx, tuple(row), den)
           for row in ctx.fold(h.reshape(-1, ctx.n)).tolist()]
    for size in reversed(h.shape[1:-1]):
        out = [out[i:i + size] for i in range(0, len(out), size)]
    return out if h.ndim > 1 else out[0]


def same_values(h1, den1: int, h2, den2: int, p: int, m: int):
    """Mask over all axes but the last: h1/den1 == h2/den2 entry by entry,
    that is, the fold of h1 den2 - h2 den1 vanishes."""
    if 2 * (_absmax(h1) * den2 + _absmax(h2) * den1) >= _INT64_BOUND:
        h1, h2 = h1.astype(object), h2.astype(object)
    diff = h1 * den2 - h2 * den1
    return ~_conductor(p, m).fold(diff).any(axis=-1)


def _ranks_mod(h, ell: int, powers):
    """Ranks over F_l of the stack h (B, r, c, n) under zeta -> w, in int64
    (rank's docstring bounds every product)."""
    a = np.zeros(h.shape[:-1], np.int64)
    for e in range(h.shape[-1]):
        res = (h[..., e] % ell).astype(np.int64, copy=False)
        a = (a + res * powers[e]) % ell
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1).copy()  # eliminate along the shorter side
    blocks, ranks = np.arange(len(a)), np.zeros(len(a), np.int64)
    for j in range(a.shape[2]):
        # each block's first row nonzero in column j clears the column
        # from every row, itself included: it counts once and is spent
        col = a[:, :, j]
        piv = (col != 0).argmax(axis=1)
        pv = col[blocks, piv]
        ranks += pv != 0
        prow = a[blocks, piv, j + 1:]
        a[:, :, j + 1:] = (a[:, :, j + 1:] * (pv + (pv == 0))[:, None, None]
                           - col[:, :, None] * prow[:, None, :]) % ell
    return ranks


def rank(h, p: int, m: int) -> list:
    """Ranks over Q(zeta) of the B matrices (r, c) with entries sum_e
    h[b, i, j, e] zeta^e, h a (B, r, c, n) integer array in the exponent
    format, n = p^m (Python ints for an object array).  A denominator does
    not change a rank, so only numerators are taken.

    For primes l = 1 (mod n) upward from 2^30, w = g^((l-1)/n), with g
    the least integer with g^((l-1)/p) != 1 (mod l), has order n in F_l,
    so zeta -> w is a ring map Z[zeta] -> F_l and a block's rank mod l is
    at most its true rank r0.  It is less only when some nonzero r0 x r0
    minor D maps to 0, that is when D lies in the prime (l, zeta - w),
    whose integers are lZ; then l divides Norm(D).  Each conjugate of D
    obeys Hadamard's bound with |sigma(h_ij)| <= sum_e |h_ij[e]|, so
    |Norm(D)|^2 <= R^(r0 phi), R the block's largest sum_j (sum_e
    |h_ij[e]|)^2 over rows.  Once (prod l)^2 exceeds R^(min(r, c) phi),
    some prime tried does not divide Norm(D), so the largest rank seen is
    r0: the result is exact.

    Every block is eliminated at the first prime, all at once with a
    pivot per block (_ranks_mod), in int64: l < 2^31 is asserted, so a
    residue is below 2^31, a product of two is below 2^62, and the
    difference of two products in the fraction-free step row * pivot -
    col * pivot_row fits; zeta -> w reduces after each exponent.  Only
    the blocks short of full rank min(r, c) go on to the next prime, each
    until it reaches full rank or passes its own bound; the bound is
    computed only for the blocks short at the first prime, so a full-rank
    block never reads it.  The primes and the powers of w are kept per
    conductor (_Conductor.primes).
    """
    ctx, full = _conductor(p, m), min(h.shape[1:3])
    ranks = np.zeros(len(h), np.int64)
    todo, prod, bound = np.arange(len(h) if full else 0), 1, None
    primes = ctx.primes()
    while todo.size:
        ell, powers = next(primes)
        assert ell < 2**31
        got = _ranks_mod(h if prod == 1 else h[todo], ell, powers)
        ranks[todo] = np.maximum(ranks[todo], got)
        todo, prod = todo[ranks[todo] < full], prod * ell
        if todo.size:
            if bound is None:
                l1 = np.abs(h[todo].astype(object)).sum(axis=-1)
                bound = np.zeros(len(h), dtype=object)
                bound[todo] = (l1 * l1).sum(axis=2).max(axis=1) ** (
                    full * ctx.phi)
            todo = todo[bound[todo] >= prod * prod]
    return ranks.tolist()
