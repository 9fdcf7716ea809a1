"""Exact arithmetic substrate: Z/p^k residues, Q_p/Z_p values, and Howell-form
linear algebra over Z/p^k.

All verification-grade computations reduce to integer arithmetic here.  A
matrix is its sequence of integer rows, and a subgroup of (Z/p^k)^n is the
tuple of Howell rows of its span (Howell, "Spans in the module (Z_m)^s",
1986), its canonical representative: subgroup equality, membership,
kernels, inverses and ranks (over F_l when k = 1) are all read off one
elimination, howell.  kernel and mat_inverse take rows and return them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "is_prime",
    "valuation",
    "Modulus",
    "QpModZp",
    "howell",
    "howell_pivots",
    "kernel",
    "member",
    "reduce_mod_span",
    "reduce_rows",
    "span_size",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(a: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if a == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class Modulus:
    """The ring Z/p^k with p certified prime at construction."""

    __slots__ = ("p", "k", "pk")

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"modulus base {p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        self.pk = p**k

    @property
    def dtype(self):
        """Element type of arrays of residues: int64 while (p^k)^2 < 2^63,
        so that a product of two residues, plus a residue, cannot overflow;
        Python ints otherwise."""
        return np.int64 if self.pk * self.pk < 2**63 else object

    def __eq__(self, other):
        return isinstance(other, Modulus) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"Modulus({self.p}, {self.k})"


class QpModZp:
    """Element of Q_p/Z_p: numerator / p^level mod 1, stored in lowest terms."""

    __slots__ = ("p", "numerator", "level")

    def __init__(self, p: int, numerator: int, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        m = p**level
        numerator %= m if m > 1 else 1
        while level > 0 and numerator % p == 0:
            numerator //= p
            level -= 1
        if numerator == 0:
            level = 0
        self.p = p
        self.numerator = numerator
        self.level = level

    @classmethod
    def from_fraction(cls, p: int, x: Fraction) -> "QpModZp":
        den = x.denominator
        lev = 0 if den == 1 else valuation(den, p)
        if p**lev != den:
            raise ValueError(f"denominator {den} is not a power of {p}")
        return cls(p, x.numerator, lev)

    @classmethod
    def coerce(cls, p: int, v) -> "QpModZp":
        """v as given: a QpModZp, text for parse, or a Fraction or int."""
        if isinstance(v, str):
            return cls.parse(p, v)
        return v if isinstance(v, QpModZp) else cls.from_fraction(p, v)

    def __add__(self, other: "QpModZp") -> "QpModZp":
        if self.p != other.p:
            raise ValueError("mixed primes")
        lev = max(self.level, other.level)
        m = self.p**lev
        num = (self.numerator * (m // self.p**self.level)
               + other.numerator * (m // self.p**other.level))
        return QpModZp(self.p, num, lev)

    def __neg__(self) -> "QpModZp":
        return QpModZp(self.p, -self.numerator, self.level)

    def __sub__(self, other: "QpModZp") -> "QpModZp":
        return self + (-other)

    def scale(self, n: int) -> "QpModZp":
        return QpModZp(self.p, n * self.numerator, self.level)

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __eq__(self, other):
        return (isinstance(other, QpModZp)
                and (self.p, self.numerator, self.level)
                == (other.p, other.numerator, other.level))

    def __hash__(self):
        return hash((self.p, self.numerator, self.level))

    def __str__(self):
        return f"{self.numerator}/{self.p ** self.level}"

    __repr__ = __str__

    @classmethod
    def parse(cls, p: int, text: str) -> "QpModZp":
        num, _, den = text.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return cls.from_fraction(p, Fraction(int(num), den))


def howell(rows: Sequence[Sequence[int]], modulus: Modulus):
    """Canonical Howell rows (nonzero only) of the span of `rows`.

    Row-reduces a copy in place.  A pivot of valuation v > 0 leaves the
    annihilator p^(k-v) times its row in the span; it is appended as a new
    row and moved just below the pivot, so no spare rows are carried.
    """
    p, k, pk = modulus.p, modulus.k, modulus.pk
    a = [[x % pk for x in r] for r in rows]
    if not a:
        return ()
    ncols = len(a[0])

    def addmul(dst, src, c):
        a[dst] = [(x + c * y) % pk for x, y in zip(a[dst], a[src])]

    r = 0
    for col in range(ncols):
        piv, pv = None, k
        for i in range(r, len(a)):
            x = a[i][col]
            if x:
                v = valuation(x, p)
                if v < pv:
                    piv, pv = i, v
                    if v == 0:
                        break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        u = pow(a[r][col] // p**pv, -1, pk)
        a[r] = [x * u % pk for x in a[r]]
        step = p**pv
        for i in range(r + 1, len(a)):
            if a[i][col]:
                addmul(i, r, -(a[i][col] // step))
        for i in range(r):
            if a[i][col] >= step:
                addmul(i, r, -(a[i][col] // step))
        if pv > 0:
            a.append([x * (pk // step) % pk for x in a[r]])
            # keep the fresh annihilator row inside the active region
            a[r + 1], a[-1] = a[-1], a[r + 1]
        r += 1
    return tuple(tuple(r) for r in a if any(r))


def howell_pivots(hrows, p):
    """(column, valuation) per Howell row; rows must be nonzero echelon rows."""
    out = []
    for r in hrows:
        c = next(i for i, x in enumerate(r) if x)
        out.append((c, valuation(r[c], p)))
    return out


def reduce_mod_span(x: Sequence[int], hrows, modulus: Modulus, pivots):
    """Reduce x against Howell rows; residue is zero iff x is in the span.
    pivots is howell_pivots(hrows, p), computed once by the caller."""
    pk, p = modulus.pk, modulus.p
    x = [v % pk for v in x]
    for row, (c, v) in zip(hrows, pivots):
        q = x[c] // p**v
        if q:
            x = [(a - q * b) % pk for a, b in zip(x, row)]
    return x


def member(x: Sequence[int], hrows, modulus: Modulus, pivots) -> bool:
    return not any(reduce_mod_span(x, hrows, modulus, pivots))


def reduce_rows(X, hrows, modulus: Modulus, pivots):
    """reduce_mod_span on every row of the 2-D array X at once.

    Returns the array of residues, of modulus.dtype: each q * row[j] is a
    product of two residues.
    """
    pk, p, dtype = modulus.pk, modulus.p, modulus.dtype
    X = np.array(X, dtype=dtype)
    X %= pk
    for row, (c, v) in zip(hrows, pivots):
        X -= np.multiply.outer(X[:, c] // p**v, np.array(row, dtype=dtype))
        X %= pk
    return X


def span_size(hrows, modulus: Modulus) -> int:
    """Cardinality of the span of Howell rows: product of row orders."""
    n = 1
    for _, v in howell_pivots(hrows, modulus.p):
        n *= modulus.p ** (modulus.k - v)
    return n


def _augmented_howell(rows: Sequence[Sequence[int]], modulus: Modulus):
    """Howell rows of [m | I], m given by its rows: their span is {(x m, x)}."""
    n = len(rows)
    return howell([list(r) + [int(i == j) for j in range(n)]
                   for i, r in enumerate(rows)], modulus)


def mat_inverse(rows: Sequence[Sequence[int]], modulus: Modulus):
    """Rows of the inverse of the square matrix m with these rows, over
    Z/p^k.  m is invertible exactly when the Howell rows of [m | I] begin
    with [I | m^-1]: the span then holds (e_i, y_i) with y_i m = e_i, and
    an invertible m puts every (e_i, e_i m^-1) in it, whose Howell rows
    are these n and no more."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    h = _augmented_howell(rows, modulus)
    if [r[:n] for r in h[:n]] != [tuple(int(i == j) for j in range(n))
                                  for i in range(n)]:
        raise ValueError("matrix not invertible over Z/p^k")
    return tuple(r[n:] for r in h[:n])


def kernel(rows: Sequence[Sequence[int]], modulus: Modulus):
    """Howell rows of {x : x*m = 0}, m given by its rows: the Howell rows of
    [m | I] whose left block vanishes, themselves a Howell form (Howell
    1986; Storjohann-Mulders 1998), so howell leaves them as they are."""
    left = len(rows[0]) if rows else 0
    return tuple(r[left:] for r in _augmented_howell(rows, modulus)
                 if not any(r[:left]))
