"""Finite metric groups: quadratic forms q on abelian p-groups, Gauss
sums, the group-algebra Fourier transform, the ribbon element, and
pointed modular data.

A form is stored by its values on generators together with the Gram
matrix of the induced pairing B(x, y) = q(x+y) - q(x) - q(y); for odd p
this data determines q everywhere through the quadratic expansion.  The
constructor certifies that expansion in O(rank^2) (see MetricGroup) and
decides nondegeneracy by one Howell kernel.  All values live in Q_p/Z_p
and exponentiate to exact roots of unity in Q(zeta_{p^K}).  Sums of them
over G (Gauss sums, Fourier transforms, the S/T relations) are integer
arrays over the exponents in Z/p^K (cyclotomic's exponent format); an entry
is zero exactly when its folded numerators are, since Phi kills exactly the
exponent vectors constant on residue classes mod p^(K-1).  Subgroups are
lazard.Subrings of the abelian ring (Z/p^K)^rank, x_i -> x_i p^(K - k_i).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import isqrt, prod

import numpy as np

from .arith import (Modulus, QpModZp, is_prime, kernel, reduce_rows,
                    span_size)
from .cyclotomic import CycNumber, from_rows, same_values
from .lazard import (CrossCheckError, LieRing, Subring, read_format,
                     unit_inverses)

ORDER_CAP = 4096


class MetricError(ValueError):
    pass


def _as_value(p, v, level_cap):
    v = QpModZp.coerce(p, v)
    if v.level > level_cap:
        raise MetricError(f"value {v} has level above {level_cap}")
    return v


class MetricGroup:
    """(p, q) with underlying group G = ⊕_i Z/p^{k_i}, p odd.

    Construction certifies q in O(rank^2) (Wall, "Quadratic forms on
    finite groups, and related topics", Topology 2, 1963).  Over the
    common denominator p^L, L = max k_i, q(x) = sum_i x_i^2 q_i +
    sum_{i<j} x_i x_j B_ij (q_values).  _as_value caps q_i at level k_i and
    B_ij at level min(k_i, k_j), so x_i -> x_i + p^{k_i} moves q(x) and
    x B by multiples of p^L: q is well defined on G.  Being homogeneous
    quadratic, q(nx) = n^2 q(x); with B symmetric and B_ii = 2 q_i,
    q(x+y) - q(x) - q(y) = x B y.  (The tests keep the exhaustive scans
    as oracles.)  So x -> x B on (Z/p^L)^rank kills the prod_i p^(L - k_i)
    lifts of 0 in G, and q is nondegenerate exactly when its Howell kernel
    has no more.  Orders above ORDER_CAP are refused before any p^k is
    formed: every consumer enumerates G.
    """

    def __init__(self, p, exponents, q_gens, gram, name=""):
        if not is_prime(p) or p == 2:
            raise MetricError(f"p = {p} must be an odd prime")
        self.p = p
        self.exponents = tuple(int(k) for k in exponents)
        if any(k < 1 for k in self.exponents):
            raise MetricError("exponents must be >= 1")
        # p^s >= 2^s > ORDER_CAP once s reaches its bit length: p^s is
        # formed only for small s
        s = sum(self.exponents)
        if s >= ORDER_CAP.bit_length() or p ** s > ORDER_CAP:
            raise MetricError(f"order {p}^{s} exceeds the cap {ORDER_CAP}")
        self.rank = len(self.exponents)
        self.orders = tuple(p ** k for k in self.exponents)
        self._strides = tuple(prod(self.orders[i + 1:])
                              for i in range(self.rank))
        self.level = max(self.exponents, default=1)
        self.modulus = p ** self.level
        self.name = name
        if len(q_gens) != self.rank or len(gram) != self.rank or any(
                len(row) != self.rank for row in gram):
            raise MetricError("q values and Gram rows must match the rank")
        self.q_gens = tuple(_as_value(p, v, k)
                            for v, k in zip(q_gens, self.exponents))
        self.gram = tuple(
            tuple(_as_value(p, v, min(self.exponents[i], self.exponents[j]))
                  for j, v in enumerate(row))
            for i, row in enumerate(gram))
        lift = lambda v: v.numerator * p ** (self.level - v.level)
        # integer tables at the common level; diagonal of B is forced to 2q
        self._qd = tuple(lift(v) for v in self.q_gens)
        self._b = [[lift(v) for v in row] for row in self.gram]
        for i in range(self.rank):
            for j in range(self.rank):
                if self._b[i][j] != self._b[j][i]:
                    raise MetricError(f"Gram matrix not symmetric at ({i},{j})")
            if self._b[i][i] != 2 * self._qd[i] % self.modulus:
                raise MetricError(
                    f"Gram diagonal at {i} is not 2 q(g_{i})")
        mod = Modulus(p, self.level)
        rad = kernel(self._b, mod)
        self.nondegenerate = (span_size(rad, mod)
                              == p ** (self.level * self.rank - s))

    def size(self):
        return prod(self.orders)

    def elements(self):
        return itertools.product(*(range(o) for o in self.orders))

    def add(self, x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def neg(self, x):
        return tuple(-a % o for a, o in zip(x, self.orders))

    def scale(self, n, x):
        return tuple(n * a % o for a, o in zip(x, self.orders))

    @cached_property
    def _element_rows(self):
        """elements() as one (|G|, rank) int64 array."""
        grid = np.indices(self.orders, dtype=np.int64)
        return np.ascontiguousarray(grid.reshape(self.rank, self.size()).T)

    @cached_property
    def q_values(self):
        """q's numerators at the common level over elements(), int64: x_i,
        q_i and B_ij are below p^L <= ORDER_CAP, so no sum nears 2^63."""
        r = self.rank
        upper = (np.triu(np.array(self._b, dtype=np.int64).reshape(r, r), 1)
                 + np.diag(np.array(self._qd, dtype=np.int64)))
        X = self._element_rows
        return (X @ upper % self.modulus * X).sum(axis=1) % self.modulus

    def q_num(self, x):
        """Numerator of q(x) at the common level: q_values at x's index
        sum_i x_i strides_i in elements()."""
        return int(self.q_values[sum(
            a % o * w for a, o, w in zip(x, self.orders, self._strides))])

    def b_num(self, x, y):
        return sum(x[i] * self._b[i][j] * y[j]
                   for i in range(self.rank)
                   for j in range(self.rank)) % self.modulus

    def q(self, x):
        return QpModZp(self.p, self.q_num(x), self.level)

    def b(self, x, y):
        return QpModZp(self.p, self.b_num(x, y), self.level)

    def qt(self, x):
        return CycNumber.root(self.p, self.level, self.q_num(x))

    @cached_property
    def _isotropic_data(self):
        """For isotropic_subgroups: the ring (Z/p^L)^rank that G embeds in
        by x_i -> x_i w_i, the weights w, the q-null X in G, and X B."""
        w = self.p ** (self.level - np.array(self.exponents, dtype=np.int64))
        X = self._element_rows[self.q_values == 0]
        return (LieRing(self.p, self.level, self.rank, {}), w, X,
                X @ np.array(self._b, dtype=np.int64))

    def __repr__(self):
        shape = " + ".join(f"Z/{o}" for o in self.orders) or "0"
        return f"MetricGroup({shape}, nondegenerate={self.nondegenerate})"


def gauss_sum(m):
    """Sum of q-tilde over the group, folded from the histogram of q's
    values; for nondegenerate q the modulus identity G conj(G) = |p| is a
    theorem and is enforced on exponent rows: G conj(G) has at e the
    number of pairs (a, b) with q(a) - q(b) = e, the histogram's circular
    autocorrelation."""
    N, hist = m.modulus, np.bincount(m.q_values, minlength=m.modulus)
    if m.nondegenerate:
        lags = np.correlate(hist, hist, "full")
        norm = lags[N - 1:].copy()
        norm[1:] += lags[:N - 1]
        want = np.zeros(N, dtype=np.int64)
        want[0] = m.size()
        if not same_values(norm, 1, want, 1, m.p, m.level):
            raise MetricError(
                "Gauss sum modulus broken: G conj(G) = "
                f"{from_rows(norm, 1, m.p, m.level)}, expected {m.size()}")
    return from_rows(hist, 1, m.p, m.level)


def _transform(m, H, sign):
    """Exponent rows H, shape (..., |G|, N) with G in elements() order, to
    sum over a of H[..., a, :] zeta^(sign chi_b(a)) at each b, same shape:
    |G| N sum_i p^k_i integer adds per leading index, one axis at a time
    (row-column transform; Good 1958, Clausen-Baum 1993), chi_b(a) =
    sum_i a_i b_i p^(level - k_i) the standard duality.  Along an axis of
    order K the exponent e of row a lands on e + sign a b p^(level - k)
    at b, which depends on a b mod K alone: row a adds one gather of
    H[..., a, :] over a (K, N) index, so no temporary exceeds H's size."""
    shape, N = H.shape, m.modulus
    H = H.reshape(shape[:-2] + m.orders + (N,))
    for axis, k in enumerate(m.exponents, len(shape) - 2):
        K = m.p ** k
        c = np.arange(K)
        shifted = (np.arange(N) - sign * m.p ** (m.level - k) * c[:, None]) % N
        ab = np.multiply.outer(c, c) % K
        X = np.moveaxis(H, axis, -2)
        Y = X[..., 0, shifted[ab[0]]]
        for a in range(1, K):
            Y += X[..., a, shifted[ab[a]]]
        H = np.moveaxis(Y, -2, axis)
    return H.reshape(shape)


def _b_characters(m):
    """The B-isomorphism of G onto its dual: for each a in elements() order,
    the index in elements() of the b with chi_b = B(., a), whose coordinates
    are those of a B over p^(level - k_i); |G| <= ORDER_CAP bounds a B."""
    n, X = m.size(), m._element_rows
    XB = X @ np.array(m._b, dtype=np.int64).reshape(m.rank, m.rank) % m.modulus
    w = np.array([m.p ** (m.level - k) for k in m.exponents], dtype=np.int64)
    bad = np.flatnonzero((XB % w).any(axis=1))
    if bad.size:
        raise MetricError(f"B(., {tuple(X[bad[0]].tolist())}) is not a "
                          "character of the group")
    chars = XB // w @ (n // np.cumprod(m.orders, dtype=np.int64))
    if not np.bincount(chars, minlength=n).all():
        raise MetricError("B-isomorphism is not onto the dual")
    return chars


def _qhat_rows(m):
    """(h, |p|): q-hat's coefficients over elements() as exponent rows of
    shape (|G|, N), along two independent routes: (i) the closed form
    (G/|p|) q̃(a)^{-1}, G's histogram rolled by q(a); (ii) the definition,
    q̃ moved to the dual through the B-isomorphism a -> B(., a) and pulled
    back by the inverse Fourier transform.  Any disagreement is an
    internal error."""
    if not m.nondegenerate:
        raise MetricError("q-hat needs a nondegenerate form")
    n, N, q = m.size(), m.modulus, m.q_values
    closed = np.bincount(q, minlength=N)[(np.arange(N) + q[:, None]) % N]
    onehot = np.zeros((n, N), dtype=np.int64)
    onehot[_b_characters(m), q] = 1
    definitional = _transform(m, onehot, 1)
    bad = np.flatnonzero(~same_values(closed, 1, definitional, 1, m.p,
                                      m.level))
    if bad.size:
        a = int(bad[0])
        x, y = (from_rows(h[a], n, m.p, m.level)
                for h in (closed, definitional))
        raise CrossCheckError(
            "qhat-paths", f"q-hat paths disagree at "
            f"{tuple(m._element_rows[a].tolist())}: {x} vs {y}")
    return closed, n


def ribbon_qhat(m):
    """The central element q-hat as {a: coefficient}, from _qhat_rows."""
    h, den = _qhat_rows(m)
    return dict(zip(m.elements(), from_rows(h, den, m.p, m.level)))


def st_matrices(m):
    """Pointed modular data: T = diag(q̃(a)), S = B̃(a, b)^{-1}/Card.

    The inverse in the S entries is what makes all three relations hold
    with T = diag(q̃): with B̃(a, b) itself, (ST)^3 collapses to a scalar
    times the identity rather than S^2.  Requires |p| to be a perfect
    square so the normalization is the integer Card = sqrt(|p|); verifies
    S conj(S) = 1, S^2 = the a -> -a permutation, and (ST)^3 = (G/Card) S^2
    before returning, G from the histogram of q's values, on the identity's
    exponent rows: times Card S (Card conj(S)) is _transform with sign -1
    (+1) read through _b_characters; times T rolls entry b's exponents by q(b).
    """
    n = m.size()
    card = isqrt(n)
    if card * card != n:
        raise MetricError(f"|p| = {n} is not a perfect square")
    if not m.nondegenerate:
        raise MetricError("modular data needs a nondegenerate form")
    p, level, N = m.p, m.level, m.modulus
    chars = _b_characters(m)
    q = m.q_values
    shift = (np.arange(N) - q[:, None]) % N
    times_s = lambda R, sign=-1: _transform(m, R, sign)[..., chars, :]
    times_t = lambda R: np.take_along_axis(R, shift[None], axis=-1)
    one = np.zeros((n, n, N), dtype=np.int64)
    one[np.arange(n), np.arange(n), 0] = 1
    # typed, so that the trivial group's empty rows index as int64 too
    orders, strides = (np.array(v, dtype=np.int64)
                       for v in (m.orders, m._strides))
    negs = (-m._element_rows % orders) @ strides

    s = times_s(one)
    same = lambda a, den, b: same_values(a, den, b, 1, p, level).all()
    if not same(times_s(s, 1), n, one):
        raise MetricError("S conj(S) != identity")
    if not same(times_s(s), n, one[negs]):
        raise MetricError("S^2 is not the negation permutation")
    # G Card^2 S^2 is |p| G at the entries (a, -a) once S^2 is verified
    want = n * np.bincount(q, minlength=N) * one[negs][..., :1]
    if not same(times_t(times_s(times_t(times_s(times_t(s))))), 1, want):
        raise MetricError("(ST)^3 != (G/Card) S^2")
    return from_rows(s, card, p, level), from_rows(times_t(one), 1, p, level)


def isotropic_subgroups(m, max_size=None):
    """All subgroups on which q vanishes identically, grown as a tree of
    Subrings (reverse search: Avis-Fukuda 1996; McKay 1998).  The parent
    of a span is the span of its Howell rows after the first: by the
    Howell property, its members that vanish up to the first pivot column,
    so again isotropic and smaller.  The children of S adjoin a q-null y
    orthogonal to S and nonzero before S's first pivot, scaled to a
    leading p^v and then reduced against S (in that order: scaling a
    reduced row can unreduce it), so that unit multiples and cosets of S
    give one row; S + <y> is kept when S is its parent.  Spans of size >=
    max_size are kept but not grown."""
    if not m.rank:
        return [frozenset([()])]
    ring, w, X, XB = m._isotropic_data
    pk, cap, unit = ring.pk, max_size or m.size(), unit_inverses(ring)
    spans, stack = [], [Subring.zero(ring)]
    while stack:
        sub = stack.pop()
        spans.append(sub)
        if sub.size() >= cap:
            continue
        first = sub.pivots[0][0] if sub.pivots else m.rank
        rows = np.array(sub.rows, dtype=np.int64).reshape(-1, m.rank) // w
        Y = X[X[:, :first].any(axis=1)
              & ~(XB @ rows.T % m.modulus).any(axis=1)] * w
        lead = Y[np.arange(len(Y)), (Y != 0).argmax(axis=1)]
        Y = reduce_rows(Y * unit[lead][:, None] % pk, sub.rows,
                        ring.modulus, sub.pivots)
        for y in set(map(tuple, Y.tolist())):
            new = Subring(ring, sub.rows + (y,))
            if new.rows[1:] == sub.rows:
                stack.append(new)
    subs = [frozenset(map(tuple, (s.members() // w).tolist())) for s in spans]
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def lagrangians(m):
    """Subgroups with q = 0 and |a|^2 = |p|; with nondegenerate q these
    are exactly the self-orthogonal ones."""
    n = m.size()
    card = isqrt(n)
    if card * card != n:
        return []
    return [s for s in isotropic_subgroups(m, max_size=card)
            if len(s) == card]


# plain-text serialization for metric-group files

def serialize_metric(m):
    lines = [f"metric {m.name or 'unnamed'}",
             f"p {m.p}",
             "type " + " ".join(str(k) for k in m.exponents),
             "q " + " ".join(str(v) for v in m.q_gens)]
    for row in m.gram:
        lines.append("B " + " ".join(str(v) for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_metric(text):
    name, rows = read_format(text, "metric", ("p", "type", "q"))
    fields, b_rows = {}, []
    for key, *values in rows:
        if key == "B":
            b_rows.append(values)
        elif key in ("type", "q") or key == "p" and len(values) == 1:
            fields[key] = values
        else:
            raise ValueError(f"malformed line {' '.join([key, *values])!r}")
    if len(fields) < 3:
        raise ValueError("missing p, type, or q line")
    return MetricGroup(int(fields["p"][0]), [int(v) for v in fields["type"]],
                       fields["q"], b_rows, name=name)
