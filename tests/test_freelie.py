from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import freelie
from orbitlab.freelie import (
    HallBasis,
    LiePoly,
    apply_series,
    assoc_mul,
    bch,
    bch_apply,
    certify,
    check_bch_associativity,
    check_lambda_identity,
    check_lemma1,
    check_phi_identity,
    exp_ad,
    exp_ad_apply,
    hall_basis,
    lambda_coefficients,
    lambda_series,
    phi_series,
    tree_degree,
)


def degree_part(poly, d):
    """The terms of poly of degree d."""
    return LiePoly(poly.basis, {t: c for t, c in poly.coeffs.items()
                                if tree_degree(t) == d})


def test_hall_basis_dimensions_match_witt():
    # necklace counts: 2 gens give 2, 1, 2, 3, 6, 9 per degree 1..6
    basis = hall_basis(2, 6)
    sizes = {}
    for t in basis.elements:
        d = tree_degree(t)
        sizes[d] = sizes.get(d, 0) + 1
    assert sizes == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}


def test_bch_low_degrees_hand_built():
    basis = hall_basis(2, 3)
    x = LiePoly.generator(basis, 0)
    y = LiePoly.generator(basis, 1)
    # x + y + 1/2 [x,y] + 1/12 [x,[x,y]] + 1/12 [y,[y,x]]
    xy = x.bracket(y)
    want = (x + y + xy.scale(Fraction(1, 2))
            + x.bracket(xy).scale(Fraction(1, 12))
            + y.bracket(y.bracket(x)).scale(Fraction(1, 12)))
    assert bch(3) == want


def test_bch_magnitudes_in_hall_order():
    basis = hall_basis(2, 3)
    series = bch(3)
    mags = tuple(abs(series.coeffs.get(t, Fraction(0)))
                 for t in basis.elements)
    assert mags == (1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(1, 12))


def test_bch_degree2_truncation_is_class_two_formula():
    basis = hall_basis(2, 2)
    x = LiePoly.generator(basis, 0)
    y = LiePoly.generator(basis, 1)
    assert bch(2) == x + y + x.bracket(y).scale(Fraction(1, 2))


def dynkin_rightnorm(a, cap):
    """Right-normed bracketing of each word, w = a1...ad ->
    [a1, [..., [a_{d-1}, ad]]], extended linearly over the word dict a."""
    def rb(w):
        if len(w) == 1:
            return {w: Fraction(1)}
        rest, head = rb(w[1:]), {w[:1]: Fraction(1)}
        out = assoc_mul(head, rest, cap)
        for u, v in assoc_mul(rest, head, cap).items():
            out[u] = out.get(u, 0) - v
        return out

    total = {}
    for w, c in a.items():
        for u, v in rb(w).items():
            total[u] = total.get(u, 0) + c * v
    return {u: v for u, v in total.items() if v}


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_bch_parts_satisfy_dynkin_specht_wever(c):
    # right-normed bracketing maps a Lie element L of degree d to d * L
    series = bch(c)
    for d in range(1, c + 1):
        part = degree_part(series, d).expand()
        assert part
        assert dynkin_rightnorm(part, c) == {w: d * v for w, v in part.items()}


def test_bracket_is_alternating_and_jacobi():
    basis = hall_basis(3, 4)
    x, y, z = (LiePoly.generator(basis, i) for i in range(3))
    assert x.bracket(x).is_zero()
    assert (x.bracket(y) + y.bracket(x)).is_zero()
    j = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
         + z.bracket(x.bracket(y)))
    assert j.is_zero()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_bch_inverse_law(cx, cy):
    # bch(a, -a) = 0 for any a in the free nilpotent algebra
    basis = hall_basis(2, 4)
    keys = list(basis.elements)[:4]
    a = LiePoly(basis, dict(zip(keys, cx)))
    assert bch_apply(a, -a).is_zero()
    b = LiePoly(basis, dict(zip(keys, cy)))
    # degree-1 part of bch(a, b) is a + b's degree-1 part
    s = bch_apply(a, b)
    assert degree_part(s, 1) == degree_part(a + b, 1)


def test_exp_ad_matches_conjugation_series():
    c = 4
    basis = hall_basis(2, c)
    x = LiePoly.generator(basis, 0)
    y = LiePoly.generator(basis, 1)
    # e^(ad x) y = y + [x,y] + 1/2 [x,[x,y]] + 1/6 [x,[x,[x,y]]]
    t1 = x.bracket(y)
    t2 = x.bracket(t1)
    t3 = x.bracket(t2)
    want = y + t1 + t2.scale(Fraction(1, 2)) + t3.scale(Fraction(1, 6))
    assert apply_series(exp_ad(c), x, y) == want
    assert exp_ad_apply(x, y) == want


def test_phi_series_coefficients():
    c = 4
    basis = hall_basis(2, c)
    x = LiePoly.generator(basis, 0)
    y = LiePoly.generator(basis, 1)
    t1 = y.bracket(x)
    t2 = y.bracket(t1)
    t3 = y.bracket(t2)
    want = (x - t1.scale(Fraction(1, 2)) + t2.scale(Fraction(1, 6))
            - t3.scale(Fraction(1, 24)))
    assert phi_series(c) == want


def test_lambda_coefficients_generating_function():
    # t/(1 - e^(-t)) = sum B_n t^n: 1, 1/2, 1/12, 0, -1/720, 0, 1/30240
    got = lambda_coefficients(6)
    assert got == [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
                   Fraction(-1, 720), Fraction(0), Fraction(1, 30240)]
    # cross-check: coefficients satisfy sum_{j<=n} B_j * c_{n-j} = [n == 0]
    # where c_i = (-1)^i/(i+1)! are the Taylor coefficients of (1-e^(-t))/t
    for n in range(7):
        from math import factorial
        s = sum(got[j] * Fraction((-1) ** (n - j), factorial(n - j + 1))
                for j in range(n + 1))
        assert s == (1 if n == 0 else 0)


def test_lambda_series_uses_those_coefficients():
    c = 4
    basis = hall_basis(2, c)
    x = LiePoly.generator(basis, 0)
    y = LiePoly.generator(basis, 1)
    t1 = x.bracket(y)
    t2 = x.bracket(t1)
    t3 = x.bracket(t2)
    want = (y + t1.scale(Fraction(1, 2)) + t2.scale(Fraction(1, 12))
            + t3.scale(0))
    assert lambda_series(c) == want


def test_identity_checks_through_class_4():
    assert check_lemma1(4)
    assert check_phi_identity(4)
    assert check_lambda_identity(4)
    assert check_bch_associativity(4)


def test_certify_reports_denominator_bounds():
    cert = certify("bch", 4)
    assert cert.series == "bch" and cert.cls == 4
    assert cert.bounds[2] == (2, 1)
    assert cert.bounds[3] == (12, 2)  # 1/12 needs (3!)^2
    assert cert.bounds[4] == (24, 1)
    cert = certify("exp_ad", 4)
    # 1/(d-1)! at degree d: literal factorial divisibility
    assert all(e <= 1 for _, e in cert.bounds.values())
    with pytest.raises(ValueError):
        certify("nonsense", 3)


def test_certify_lambda_prime_support():
    cert = certify("lambda", 4)
    for d, (lcm, _) in cert.bounds.items():
        rest, q = lcm, 2
        while rest > 1:
            if rest % q == 0:
                assert q <= d
                while rest % q == 0:
                    rest //= q
            q += 1


def test_lie_from_assoc_rejects_non_lie_elements():
    basis = hall_basis(2, 2)
    with pytest.raises(ArithmeticError):
        basis.lie_from_assoc({(0, 1): Fraction(1)})  # xy alone is not Lie


def test_hall_basis_refuses_a_count_that_is_not_witt(monkeypatch):
    # one necklace too many at degree 2: the Hall set found is one short
    witt = freelie._witt
    monkeypatch.setattr(freelie, "_witt", lambda m, d: witt(m, d) + (d == 2))
    with pytest.raises(AssertionError) as err:
        HallBasis(2, 3)
    assert str(err.value) == "Hall count at degree 2 disagrees with Witt"


def test_lie_from_assoc_rejects_a_constant_term():
    # every graded part is empty, so only the constant-term check can fire
    with pytest.raises(ArithmeticError) as err:
        hall_basis(2, 3).lie_from_assoc({(): Fraction(1)})
    assert str(err.value) == "constant term present: not a Lie element"
