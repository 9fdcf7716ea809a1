"""Free nilpotent Lie algebra over exact rationals.

Hall trees are nested tuples over generator indices. All Lie computations run
through one engine: expand a tree into the truncated free associative algebra
(noncommutative polynomials as word -> Fraction dicts), compute there, and
rewrite back onto the Hall basis by an exact linear solve. A nonzero
associative remainder in the rewrite means the input was not a Lie element;
that is always a hard error, never a truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Union

__all__ = [
    "HallBasis",
    "LiePoly",
    "SeriesCertificate",
    "CertificationError",
    "hall_basis",
    "bch",
    "exp_ad",
    "phi_series",
    "lambda_series",
    "certify",
    "bch_apply",
    "exp_ad_apply",
    "log_exp_xy_assoc",
    "assoc_mul",
    "lambda_coefficients",
]

Tree = Union[int, tuple]

_F0 = Fraction(0)
_F1 = Fraction(1)

MAX_GENERATORS = 3
MAX_CLASS = 6

_NAMES = "xyz"


def tree_degree(t: Tree) -> int:
    return 1 if isinstance(t, int) else tree_degree(t[0]) + tree_degree(t[1])


def tree_key(t: Tree):
    """Total order: degree first, then generators, then (left, right) lex."""
    if isinstance(t, int):
        return (1, 0, t)
    return (tree_degree(t), 1, tree_key(t[0]), tree_key(t[1]))


def tree_str(t: Tree) -> str:
    if isinstance(t, int):
        return _NAMES[t]
    return f"[{tree_str(t[0])},{tree_str(t[1])}]"


def _witt(m: int, d: int) -> int:
    """Necklace count (1/d) sum_{e|d} mu(e) m^(d/e)."""
    def mobius(n):
        out, q = 1, 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if n > 1 else out

    total = sum(mobius(e) * m ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


# -- free associative algebra (word dicts) ---------------------------------

def assoc_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if len(w) > cap:
                continue
            c = out.get(w, _F0) + ca * cb
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def _assoc_addmul(dst: dict, src: dict, c: Fraction) -> None:
    if not c:
        return
    for w, v in src.items():
        nv = dst.get(w, _F0) + c * v
        if nv:
            dst[w] = nv
        elif w in dst:
            del dst[w]


def _assoc_degree_part(a: dict, d: int) -> dict:
    return {w: c for w, c in a.items() if len(w) == d}


def log_exp_xy_assoc(c: int) -> dict:
    """log(e^x e^y) in the degree-<=c truncated associative algebra."""
    prod = {(): _F1}
    for g in (0, 1):
        e = {(): _F1}
        pw = {(): _F1}
        for i in range(1, c + 1):
            pw = assoc_mul(pw, {(g,): _F1}, c)
            _assoc_addmul(e, pw, Fraction(1, factorial(i)))
        prod = assoc_mul(prod, e, c)
    u = dict(prod)
    _assoc_addmul(u, {(): _F1}, -_F1)  # u = prod - 1, no constant term
    out: dict = {}
    pw = {(): _F1}
    for j in range(1, c + 1):
        pw = assoc_mul(pw, u, c)
        _assoc_addmul(out, pw, Fraction((-1) ** (j + 1), j))
    return out


# -- Hall basis and Lie polynomials -----------------------------------------

class HallBasis:
    """Hall set on m generators up to the given class, in a fixed order.

    Convention: [a,b] is Hall iff a < b and (b a generator or left(b) <= a),
    ordered by degree then lexicographically; generators x < y < z.
    """

    def __init__(self, m: int, cls: int):
        if not (1 <= m <= MAX_GENERATORS):
            raise ValueError(f"generator count {m} out of range 1..{MAX_GENERATORS}")
        if not (1 <= cls <= MAX_CLASS):
            raise ValueError(f"class {cls} out of range 1..{MAX_CLASS}")
        self.ngens = m
        self.cls = cls
        by_degree = {1: list(range(m))}
        for d in range(2, cls + 1):
            found = []
            for da in range(1, d):
                for a in by_degree[da]:
                    for b in by_degree[d - da]:
                        t = (a, b)
                        if tree_key(a) < tree_key(b) and (
                            isinstance(b, int) or tree_key(b[0]) <= tree_key(a)
                        ):
                            found.append(t)
            found.sort(key=tree_key)
            by_degree[d] = found
            if _witt(m, d) != len(found):
                raise AssertionError(f"Hall count at degree {d} disagrees with Witt")
        self.by_degree = by_degree
        self.elements = tuple(t for d in range(1, cls + 1) for t in by_degree[d])
        self.index = {t: i for i, t in enumerate(self.elements)}
        self._expand_cache: dict = {}
        self._rewriters: dict = {}

    def __len__(self):
        return len(self.elements)

    def expand(self, t: Tree) -> dict:
        """Associative expansion of a Hall tree (nested commutators)."""
        if isinstance(t, int):
            return {(t,): _F1}
        got = self._expand_cache.get(t)
        if got is None:
            a, b = self.expand(t[0]), self.expand(t[1])
            got = assoc_mul(a, b, self.cls)
            _assoc_addmul(got, assoc_mul(b, a, self.cls), -_F1)
            self._expand_cache[t] = got
        return got

    def _rewriter(self, d: int):
        """Gauss-Jordan pivot table for degree-d Hall expansions."""
        got = self._rewriters.get(d)
        if got is not None:
            return got
        pivots = []  # (word, row dict, hall-combo dict), mutually reduced
        for h in self.by_degree[d]:
            row = dict(self.expand(h))
            combo = {h: _F1}
            for w, prow, pcombo in pivots:
                c = row.get(w)
                if c:
                    _assoc_addmul(row, prow, -c)
                    for t, v in pcombo.items():
                        combo[t] = combo.get(t, _F0) - c * v
            if not row:
                raise AssertionError("dependent Hall expansions")
            w = min(row)
            inv = 1 / row[w]
            row = {k: v * inv for k, v in row.items()}
            combo = {k: v * inv for k, v in combo.items() if v}
            for _, prow, pcombo in pivots:
                c = prow.get(w)
                if c:
                    _assoc_addmul(prow, row, -c)
                    for t, v in combo.items():
                        pcombo[t] = pcombo.get(t, _F0) - c * v
            pivots.append((w, row, combo))
        got = pivots
        self._rewriters[d] = got
        return got

    def lie_from_assoc(self, a: dict) -> "LiePoly":
        """Rewrite an associative Lie element onto the Hall basis, exactly."""
        coeffs: dict = {}
        for d in range(1, self.cls + 1):
            part = _assoc_degree_part(a, d)
            if not part:
                continue
            for w, row, combo in self._rewriter(d):
                c = part.get(w)
                if c:
                    _assoc_addmul(part, row, -c)
                    for t, v in combo.items():
                        nv = coeffs.get(t, _F0) + c * v
                        if nv:
                            coeffs[t] = nv
                        elif t in coeffs:
                            del coeffs[t]
            if part:
                raise ArithmeticError(
                    f"nonzero associative remainder at degree {d}: not a Lie element"
                )
        if any(len(w) == 0 for w in a):
            raise ArithmeticError("constant term present: not a Lie element")
        return LiePoly(self, coeffs)


class LiePoly:
    """Lie polynomial: exact-rational coefficients on a Hall basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: HallBasis, coeffs: dict):
        self.basis = basis
        self.coeffs = {t: Fraction(c) for t, c in coeffs.items() if c}
        for t in self.coeffs:
            if t not in basis.index:
                raise ValueError(f"{tree_str(t)} not in the Hall basis")

    @classmethod
    def generator(cls, basis: HallBasis, i: int) -> "LiePoly":
        return cls(basis, {i: _F1})

    @classmethod
    def zero(cls, basis: HallBasis) -> "LiePoly":
        return cls(basis, {})

    def __add__(self, other: "LiePoly") -> "LiePoly":
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, _F0) + c
        return LiePoly(self.basis, out)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, _F0) - c
        return LiePoly(self.basis, out)

    def __neg__(self) -> "LiePoly":
        return LiePoly(self.basis, {t: -c for t, c in self.coeffs.items()})

    def scale(self, x) -> "LiePoly":
        x = Fraction(x)
        return LiePoly(self.basis, {t: c * x for t, c in self.coeffs.items()})

    def bracket(self, other: "LiePoly") -> "LiePoly":
        """[self, other] via the associative algebra and the Hall rewrite."""
        a, b = self.expand(), other.expand()
        out = assoc_mul(a, b, self.basis.cls)
        _assoc_addmul(out, assoc_mul(b, a, self.basis.cls), -_F1)
        return self.basis.lie_from_assoc(out)

    def expand(self) -> dict:
        out: dict = {}
        for t, c in self.coeffs.items():
            _assoc_addmul(out, self.basis.expand(t), c)
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, LiePoly)
                and (self.basis.ngens, self.basis.cls)
                == (other.basis.ngens, other.basis.cls)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda tc: tree_key(tc[0]))
        return " + ".join(f"{c}*{tree_str(t)}" for t, c in items)


_basis_cache: dict = {}


def hall_basis(m: int, c: int) -> HallBasis:
    """Interned Hall bases so expansion/rewrite caches are shared."""
    got = _basis_cache.get((m, c))
    if got is None:
        got = _basis_cache[(m, c)] = HallBasis(m, c)
    return got


# -- the series --------------------------------------------------------------

_bch_cache: dict = {}


def bch(c: int) -> LiePoly:
    """Campbell-Hausdorff series log(e^x e^y) through class c, on the Hall basis."""
    got = _bch_cache.get(c)
    if got is None:
        basis = hall_basis(2, c)
        got = basis.lie_from_assoc(log_exp_xy_assoc(c))
        _bch_cache[c] = got
    return got


def _eval_tree(t: Tree, leaves, memo) -> LiePoly:
    got = memo.get(t)
    if got is None:
        if isinstance(t, int):
            got = leaves[t]
        else:
            got = _eval_tree(t[0], leaves, memo).bracket(_eval_tree(t[1], leaves, memo))
        memo[t] = got
    return got


def apply_series(series: LiePoly, *args: LiePoly) -> LiePoly:
    """Substitute LiePoly arguments for the series generators."""
    basis = args[0].basis
    out = LiePoly.zero(basis)
    memo: dict = {}
    for t, c in series.coeffs.items():
        out = out + _eval_tree(t, args, memo).scale(c)
    return out


def bch_apply(a: LiePoly, b: LiePoly) -> LiePoly:
    return apply_series(bch(a.basis.cls), a, b)


def _ad_sum(coeffs, x: LiePoly, y: LiePoly) -> LiePoly:
    """sum_n coeffs[n] (ad x)^n y."""
    out, t = LiePoly.zero(x.basis), y
    for n, c in enumerate(coeffs):
        if n:
            t = x.bracket(t)
        out = out + t.scale(c)
    return out


def _generators(c: int):
    basis = hall_basis(2, c)
    return LiePoly.generator(basis, 0), LiePoly.generator(basis, 1)


def exp_ad(c: int) -> LiePoly:
    """e^(ad x)(y) = y + [x,y] + (1/2)[x,[x,y]] + ... through class c."""
    return exp_ad_apply(*_generators(c))


def exp_ad_apply(a: LiePoly, b: LiePoly) -> LiePoly:
    """e^(ad a)(b) for concrete arguments."""
    return _ad_sum([Fraction(1, factorial(n)) for n in range(a.basis.cls)],
                   a, b)


def phi_series(c: int) -> LiePoly:
    """Phi(x,y) = sum_n (-1)^n/(n+1)! (ad y)^n(x) through class c."""
    x, y = _generators(c)
    return _ad_sum([Fraction((-1) ** n, factorial(n + 1)) for n in range(c)],
                   y, x)


def lambda_coefficients(nmax: int):
    """Taylor coefficients of t/(1 - e^(-t)): 1, 1/2, 1/12, 0, -1/720, ..."""
    den = [Fraction((-1) ** j, factorial(j + 1)) for j in range(nmax + 1)]
    out = []
    for n in range(nmax + 1):
        acc = _F1 if n == 0 else -sum(den[i] * out[n - i] for i in range(1, n + 1))
        out.append(acc / den[0])
    return out


def lambda_series(c: int) -> LiePoly:
    """lambda(y) = sum_n B_n (ad x)^n(y), with sum B_n t^n = t/(1-e^(-t))."""
    return _ad_sum(lambda_coefficients(c - 1), *_generators(c))


# -- identity checks (exact, symbolic) ---------------------------------------

def check_lemma1(c: int) -> bool:
    """x*y*(-x) under BCH equals e^(ad x)(y), through class c."""
    x, y = _generators(c)
    return bch_apply(bch_apply(x, y), -x) == exp_ad(c)


def check_phi_identity(c: int) -> bool:
    """x - y^(-1)xy = [y, Phi(x,y)], through class c."""
    x, y = _generators(c)
    lhs = x - exp_ad_apply(-y, x)
    rhs = y.bracket(phi_series(c))
    return lhs == rhs


def check_lambda_identity(c: int) -> bool:
    """(*): [x,y] = (id - e^(-ad x))(lambda(y)), through class c."""
    x, y = _generators(c)
    lam = lambda_series(c)
    rhs = lam - exp_ad_apply(-x, lam)
    return rhs == x.bracket(y)


def check_bch_associativity(c: int = 4) -> bool:
    basis = hall_basis(3, c)
    x, y, z = (LiePoly.generator(basis, i) for i in range(3))
    return bch_apply(bch_apply(x, y), z) == bch_apply(x, bch_apply(y, z))


# -- certificates -------------------------------------------------------------

class CertificationError(Exception):
    pass


class SeriesCertificate:
    """Denominator bounds per degree, established by coefficient inspection."""

    __slots__ = ("series", "cls", "bounds", "rule")

    def __init__(self, series: str, cls: int, bounds: dict, rule: str):
        self.series = series
        self.cls = cls
        self.bounds = bounds
        self.rule = rule

    def __repr__(self):
        bs = ", ".join(f"{d}:{b}" for d, b in sorted(self.bounds.items()))
        return f"SeriesCertificate({self.series}, class {self.cls}, {self.rule}: {bs})"


_SERIES = {
    "bch": bch,
    "exp_ad": exp_ad,
    "phi": phi_series,
    "lambda": lambda_series,
}


def certify(series: str, c: int) -> SeriesCertificate:
    """Inspect exact coefficients and certify per-degree denominator bounds.

    A degree-i coefficient must lie in Z[1/i!]: every prime factor of its
    denominator divides i! (equivalently is <= i). The certificate records,
    per degree, the l.c.m. of the actual denominators and the least e with
    lcm | (i!)^e (e = 1 is literal factorial divisibility; bch needs e = 2
    from degree 3 on, e.g. 1/12 at degree 3). For lambda this is exactly the
    rule that B_n's denominator is coprime to every prime > n+1.
    """
    if series not in _SERIES:
        raise ValueError(f"unknown series {series!r}")
    poly = _SERIES[series](c)
    dens: dict = {}
    for t, co in poly.coeffs.items():
        d = tree_degree(t)
        den = co.denominator
        q, rest = 2, den
        while q <= rest:
            if rest % q == 0:
                if q > d:
                    raise CertificationError(
                        f"{series} degree {d}: denominator {den} has prime factor "
                        f"{q} > {d}, outside Z[1/{d}!]"
                    )
                while rest % q == 0:
                    rest //= q
            q += 1
        g = dens.get(d, 1)
        dens[d] = g * den // gcd(g, den)
    bounds = {}
    for d, den in dens.items():
        e, pw = 0, 1
        while pw % den != 0:
            e += 1
            pw *= factorial(d)
        bounds[d] = (den, e)
    return SeriesCertificate(series, c, bounds, "denominators lie in Z[1/degree!]")
