"""Isotropic subrings of B_chi: quasi-polarizations, the enlargement
chain, and Lagrangian extension.

Everything here is the finite shadow of the connected-group statements:
"connected subgroup" reads "subgroup", the neutral component of the
radical is the radical itself, and the dimension identities become
cardinality identities, which hold on the nose by finite Pontryagin
duality.  Each enlargement step is validated against its stated
postconditions rather than trusted.
"""

from __future__ import annotations

from math import isqrt

from .arith import howell
from .lazard import Subring, bracket_span, orthogonal
from .orbits import radical


class PolarizationError(ValueError):
    pass


def _is_subset(a, b):
    return a.rows == b.rows or all(b.contains(g) for g in a.generators())


def perp(h, form):
    """{x : B_chi(x, h) = 0}, the orthogonal complement of h's Howell
    rows.  When the radical sits inside h, the cardinality identity
    |perp| * |h| = |g| * |radical| is a theorem and is enforced."""
    ring = form.ring
    out = orthogonal(ring, form.nums, h.generators())
    rad = radical(form)
    if _is_subset(rad, h):
        if out.size() * h.size() != ring.size() * rad.size():
            raise PolarizationError(
                f"cardinality identity fails: |perp| = {out.size()}, "
                f"|h| = {h.size()}, |g| = {ring.size()}, "
                f"|radical| = {rad.size()}")
    return out


class Polarization:
    """An isotropic Lie subring h containing the radical, with its
    orthogonal complement and freshly computed flags.

    heisenberg is the containment [h_perp, h] <= h.  The enlargement
    machinery works with the stronger [h_perp, h_perp] <= h (the image of
    the neutral-component condition), which implies it; both are exposed.
    """

    def __init__(self, form, h):
        self.form = form
        self.h = h
        self.radical = radical(form)
        if not _is_subset(self.radical, h):
            raise PolarizationError("h does not contain the radical")
        self.perp = perp(h, form)
        if not _is_subset(h, self.perp):
            raise PolarizationError("h is not isotropic")
        self.lie_subring = h.is_lie_subring()
        # [h_perp, h_perp], once: perp is a submodule, so it is a Lie
        # subring exactly when it contains this span
        self.perp_bracket = bracket_span(self.perp, self.perp)
        self.perp_lie_subring = _is_subset(self.perp_bracket, self.perp)
        self.heisenberg = _is_subset(bracket_span(self.perp, h), h)
        self.heisenberg_strong = _is_subset(self.perp_bracket, h)

    def is_quasi(self):
        return self.lie_subring and self.perp_lie_subring

    def is_lagrangian(self):
        return self.h.rows == self.perp.rows

    def __repr__(self):
        return (f"Polarization(|h|={self.h.size()}, |perp|={self.perp.size()}, "
                f"heisenberg={self.heisenberg})")


def start_polarization(form):
    """The default starting point h = radical of B_chi."""
    return Polarization(form, radical(form))


def heisenberg_chain(start, trace=None):
    """Enlarge a quasi-polarization until [h_perp, h_perp] <= h.

    One step: with h^(0) = h_perp and h^(n) = [h_perp, h^(n-1)], scan for
    the first n with h^(n) <= h; its predecessor h^(k) gives the strictly
    larger quasi-polarization r = h + h^(k).  Each step is checked against
    the required containments [h_perp, h_perp] <= r_perp <= h_perp and
    strict growth, and a violation is reported as a counterexample.
    """
    pol = start
    if not pol.is_quasi():
        raise PolarizationError("start is not a quasi-polarization")
    ring = pol.form.ring
    for _ in range(ring.rank * ring.k + 2):
        if trace is not None:
            trace.append(pol)
        if pol.heisenberg_strong:
            return pol
        hp = pol.perp
        term = hp
        chain = [term]
        while not _is_subset(term, pol.h):
            term = bracket_span(hp, term)
            chain.append(term)
            if len(chain) > ring.cls + 2:
                raise PolarizationError("derived chain did not descend")
        enlarger = chain[-2]
        r = pol.h.sum_with(enlarger)
        new = Polarization(pol.form, r)
        if new.h.size() <= pol.h.size():
            raise PolarizationError(
                f"enlargement did not grow: |h| = {pol.h.size()} "
                f"-> {new.h.size()}")
        if not new.is_quasi():
            raise PolarizationError("enlargement is not a quasi-polarization")
        if not _is_subset(pol.perp_bracket, new.perp):
            raise PolarizationError("[h_perp, h_perp] escapes the new perp")
        if not _is_subset(new.perp, hp):
            raise PolarizationError("new perp is not inside the old one")
        pol = new
    raise PolarizationError("chain failed to terminate")


def _least_outside(big, small):
    """The least member of big outside small, or None when big <= small.

    Members are ordered by their reversed coordinate tuples: the
    highest-index coordinate is the most significant.  In reversed
    coordinates the Howell rows of big with pivot column >= j span exactly
    the members whose first j coordinates vanish, so a member with a given
    prefix plus those rows gives every member with that prefix.  The
    coordinates are fixed one column at a time, each to the least value
    still extendable to a member outside small; a prefix extends when its
    current member lies outside small or some row further down does.
    Howell pivots are powers of p, so the values reachable at a pivot
    column form one residue class modulo the pivot.
    """
    ring = big.ring
    pk = ring.pk
    rows = howell([r[::-1] for r in big.rows], ring.modulus)
    pivot = {next(i for i, x in enumerate(row) if x): row for row in rows}
    tail = [False] * (ring.rank + 1)
    for j in range(ring.rank - 1, -1, -1):
        tail[j] = tail[j + 1] or (
            j in pivot and not small.contains(pivot[j][::-1]))
    if not tail[0]:
        return None
    y = (0,) * ring.rank
    for j in range(ring.rank):
        row = pivot.get(j)
        if row is None:
            continue
        step = row[j]
        for a in range(y[j] % step, pk, step):
            t = (a - y[j]) % pk // step
            cand = tuple((u + t * w) % pk for u, w in zip(y, row))
            if tail[j + 1] or not small.contains(cand[::-1]):
                y = cand
                break
    return y[::-1]


def lagrangian_extend(pol):
    """Grow a Heisenberg polarization to a Lagrangian r = r_perp.

    Requires |g| / |radical| to be a perfect square (even-rank case).
    Greedy: adjoin the least member of r_perp outside r, members ordered
    by their reversed coordinate tuples (the highest-index coordinate is
    the most significant), found from the Howell rows of r_perp by
    _least_outside; any such extension stays inside the original h_perp
    and remains a Heisenberg polarization, which is validated at every
    step and reported as a counterexample if it ever fails.
    """
    if not pol.heisenberg:
        raise PolarizationError("lagrangian_extend needs a Heisenberg start")
    ring = pol.form.ring
    quot = ring.size() // pol.radical.size()
    if isqrt(quot) ** 2 != quot:
        raise PolarizationError(
            f"no Lagrangian at this level: |g|/|radical| = {quot} "
            f"is not a perfect square")
    current = pol
    for _ in range(ring.rank * ring.k + 2):
        if current.is_lagrangian():
            return current
        x = _least_outside(current.perp, current.h)
        if x is None:
            raise PolarizationError(
                f"greedy extension exhausted at |h| = {current.h.size()} "
                f"< |perp| = {current.perp.size()}")
        grown = Polarization(current.form, current.h.sum_with(
            Subring(ring, [x])))
        if not (grown.is_quasi() and grown.heisenberg):
            raise PolarizationError(
                f"adjoining {x} broke the Heisenberg property")
        if not _is_subset(grown.h, pol.perp):
            raise PolarizationError(f"adjoining {x} left the original perp")
        current = grown
    raise PolarizationError("extension failed to terminate")


def polarize(form):
    """Radical start, Heisenberg chain, then Lagrangian extension when the
    even-rank condition holds; returns (chain steps, final, lagrangian or
    None)."""
    steps = []
    final = heisenberg_chain(start_polarization(form), trace=steps)
    quot = form.ring.size() // steps[0].radical.size()
    lag = None
    if isqrt(quot) ** 2 == quot:
        lag = lagrangian_extend(final)
    return steps, final, lag
