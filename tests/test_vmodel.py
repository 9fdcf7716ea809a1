import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from conftest import (cotangent_h3, cyc_rank, eta_monomial_oracle,
                      hyperbolic_metric, move_qhat_coefficient)
from orbitlab import vmodel
from orbitlab.arith import QpModZp
from orbitlab.cyclotomic import CycNumber, from_rows
from orbitlab.lazard import (CrossCheckError, LieRing, Subring,
                             all_elements, conjugate, element_index, exp_mul,
                             series_program)
from orbitlab.metric import MetricGroup, ribbon_qhat
from orbitlab.vmodel import (
    VModelData,
    VModelError,
    build_hyperbolic,
    eta_matrix,
    parse_vmodel,
    serialize_vmodel,
    validate_data,
    verify_ribbon,
)


def test_validate_hyperbolic_certificate():
    d = build_hyperbolic(3, 1, 1)
    cert = validate_data(d)
    assert cert["order"] == 9 and cert["ideal_order"] == 3
    assert cert["dim"] == 9 == d.dim()
    assert cert["axioms"][-1] == "section"


def pairing_metric_rank4(p=3):
    """Nondegenerate pairing on rank 4 with q = 0 on <e3, e4>: B(e1,e3) =
    B(e2,e4) = 1/p, everything else zero."""
    z = QpModZp(p, 0, 1)
    v = QpModZp(p, 1, 1)
    gram = [[z] * 4 for _ in range(4)]
    gram[0][2] = gram[2][0] = v
    gram[1][3] = gram[3][1] = v
    return MetricGroup(p, (1,) * 4, [z] * 4, gram, name="pairing4")


class TestValidateFailures:
    def test_metric_shape(self):
        ring = LieRing(3, 1, 2, {}, name="a2")
        a = Subring(ring, [(1, 0)])
        wrong_p = hyperbolic_metric(5, 1, 1)
        with pytest.raises(VModelError) as e:
            validate_data(VModelData(ring, a, wrong_p))
        assert e.value.axiom == "metric-shape"

    def test_ideal(self):
        # a non-ideal never reaches validate_data: the quotient in the
        # bundle constructor already rejects it
        ring = LieRing(3, 1, 3, {(0, 1): (0, 0, 1)}, name="h3")
        not_ideal = Subring(ring, [(1, 0, 0)])
        with pytest.raises(ValueError):
            VModelData(ring, not_ideal, pairing_metric_rank4())

    def test_abelian(self):
        ring = LieRing(3, 1, 4, {(0, 1): (0, 0, 1, 0)}, name="h3xa1")
        a = Subring(ring, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        d = VModelData(ring, a, pairing_metric_rank4())
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "abelian"

    def test_isotropic_rejects_perturbed_q(self):
        ring = LieRing(3, 1, 2, {}, name="a2")
        a = Subring(ring, [(1, 0)])
        z, v = QpModZp(3, 0, 1), QpModZp(3, 1, 1)
        bad_q = MetricGroup(3, (1, 1), [v, z],
                            [[v.scale(2), v], [v, z]], name="offender")
        d = VModelData(ring, a, bad_q)
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "isotropic"

    def test_lagrangian_rejects_small_ideal(self):
        ring = LieRing(3, 1, 2, {}, name="a2")
        a = Subring(ring, [])
        d = VModelData(ring, a, hyperbolic_metric(3, 1, 1))
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "lagrangian"

    def test_lagrangian_rejects_proper_perp(self):
        # q = 0 on (Z/3)^2: a = <e0> is isotropic with |a|^2 = |p|, but
        # a^perp is everything; the witness is a^perp's first Howell row
        # outside a, which is also the first such element in order
        ring = LieRing(3, 1, 2, {}, name="a2")
        z = QpModZp(3, 0, 1)
        zero_form = MetricGroup(3, (1, 1), [z, z], [[z, z], [z, z]])
        d = VModelData(ring, Subring(ring, [(1, 0)]), zero_form)
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "lagrangian"
        assert str(e.value) == (
            "lagrangian: (0, 1) pairs to zero with a but lies outside")

    def test_invariance_rejects_non_ad_invariant_q(self):
        # q is the e1-e3 / e2-e4 pairing; conjugating e1 + e2 by Exp(e1)
        # picks up e3 and changes q by B(e1, e3) = 1/3
        ring = LieRing(3, 1, 4, {(0, 1): (0, 0, 1, 0)}, name="h3xa1")
        a = Subring(ring, [(0, 0, 1, 0), (0, 0, 0, 1)])
        d = VModelData(ring, a, pairing_metric_rank4())
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "invariance"

    def test_section_must_fix_zero(self):
        d0 = build_hyperbolic(3, 1, 1)
        section = {beta: d0.lift(beta) for beta in d0.b_elements}
        section[(0,)] = (1, 0)
        d = VModelData(d0.ring, d0.a, d0.metric, section=section)
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "section"

    def test_section_must_split_projection(self):
        d0 = build_hyperbolic(3, 1, 1)
        section = {beta: d0.lift(beta) for beta in d0.b_elements}
        section[(1,)] = (0, 2)  # projects to (2,), not (1,)
        d = VModelData(d0.ring, d0.a, d0.metric, section=section)
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert e.value.axiom == "section"


# Oracle: vectors of V as dicts over basis pairs, and gamma(Exp(g)) or the
# twist applied to them one basis vector at a time.

def basis_vector(d, alpha, beta):
    return {(alpha, beta): CycNumber.one(d.metric.p, d.metric.level)}


def _gamma_op(d, g):
    """gamma(Exp(g)) as one row of each gamma array, in Python ints."""
    perm, expo = vmodel._gamma_arrays(d)
    r = element_index(d.ring, [g])[0]
    return perm[r].tolist(), expo[r].tolist()


def _apply_monomial(d, op, v):
    perm, expo = op
    out = {}
    for pair, c in v.items():
        i = d.index[pair]
        target = d.pairs[perm[i]]
        add = c.mul_root(expo[i])
        out[target] = add if target not in out else out[target] + add
    return {pair: c for pair, c in out.items() if not c.is_zero()}


def gamma_act(d, g, v):
    return _apply_monomial(d, _gamma_op(d, g), v)


def eta(d, v):
    return _apply_monomial(d, vmodel._eta_monomial(d), v)


def test_gamma_closed_form_on_hyperbolic_plane():
    # with the coordinate section over the abelian plane, g = (a, b) sends
    # 1_{alpha, beta} to zeta^(a alpha) 1_{alpha, beta + b}
    d = build_hyperbolic(3, 1, 1)
    validate_data(d)
    for g in d.ring.elements():
        a_part, b_part = g
        for alpha, beta in d.pairs:
            v = gamma_act(d, g, basis_vector(d, alpha, beta))
            target = (alpha, ((beta[0] + b_part) % 3,))
            assert set(v) == {target}
            assert v[target] == CycNumber.root(3, 1, a_part * alpha[0])


def _gamma_monomial(d, g):
    """gamma(Exp(g)) on the scalar series path, one basis vector at a
    time: the oracle for the batch-built arrays."""
    ring, m = d.ring, d.metric
    gbar = d.project(g)
    target_beta, coeff = {}, {}
    for beta in d.b_elements:
        gs = exp_mul(ring, g, d.s[beta])
        target_beta[beta] = d.project(gs)
        coeff[beta] = ring.add(gs, ring.neg(d.s[target_beta[beta]]))
        assert d.a.contains(coeff[beta])
    perm, expo = [], []
    for alpha, beta in d.pairs:
        galpha = conjugate(d.b, gbar, alpha)
        gbeta = target_beta[beta]
        w = series_program(d.b, "phi").scalar(galpha, gbeta)
        perm.append(d.index[(galpha, gbeta)])
        expo.append(m.b_num(coeff[beta], d.s[w]))
    return perm, expo


def _assert_rows_match_oracle(d, rows):
    validate_data(d)
    perm, expo = vmodel._gamma_arrays(d)
    elements = all_elements(d.ring)
    for r in rows:
        g = tuple(elements[r].tolist())
        assert (perm[r].tolist(), expo[r].tolist()) == _gamma_monomial(d, g)


@pytest.mark.parametrize("args, seed", [((3, 1, 1), None), ((5, 1, 1), 7),
                                        ((3, 2, 1), 5)],
                         ids=["hyp311", "hyp511s7", "hyp321s5"])
def test_gamma_arrays_match_scalar_oracle(args, seed):
    d = build_hyperbolic(*args, section_seed=seed)
    _assert_rows_match_oracle(d, range(d.ring.size()))


def test_gamma_arrays_match_scalar_oracle_nonabelian():
    d = cotangent_h3()
    _assert_rows_match_oracle(
        d, random.Random(0).sample(range(d.ring.size()), 20))


@pytest.mark.parametrize("args", [(3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2)],
                         ids=["hyp311", "hyp511", "hyp321", "hyp312"])
def test_seeded_section_matches_quotient_lift_oracle(args):
    # the section drawn through an unseeded model's quotient ring and lift,
    # one draw per ideal coordinate of each nonzero coset in b_elements
    # order; s_rows holds the same rows in that order
    p, k, r = args
    d0 = build_hyperbolic(*args)
    for seed in range(10):
        rng, want = random.Random(seed), {}
        for beta in d0.b_elements:
            base = d0.lift(beta)
            if any(beta):
                noise = [rng.randrange(d0.ring.pk) for _ in range(r)]
                base = d0.ring.add(base, tuple(noise) + (0,) * r)
            want[beta] = base
        d = build_hyperbolic(*args, section_seed=seed)
        assert d.b_elements == d0.b_elements
        assert d.s == want and d.name == f"hyp({p}^{k})x{r}/s{seed}"
        assert d.s_rows.tolist() == [list(want[b]) for b in d.b_elements]


@pytest.mark.parametrize("make", [
    lambda: build_hyperbolic(3, 1, 1),
    lambda: build_hyperbolic(5, 1, 1, section_seed=7),
    lambda: build_hyperbolic(3, 2, 1),
    lambda: build_hyperbolic(3, 1, 2),
    lambda: build_hyperbolic(7, 1, 1),
    cotangent_h3,
], ids=["hyp311", "hyp511s7", "hyp321", "hyp312", "hyp711", "cotangent_h3"])
def test_eta_monomial_matches_scalar_oracle(make):
    d = make()
    validate_data(d)
    got = vmodel._eta_monomial(d)
    assert got == eta_monomial_oracle(d)
    assert all(type(x) is int for part in got for x in part)


def _twist_error(make_twist, d):
    with pytest.raises((VModelError, CrossCheckError)) as err:
        make_twist(d)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("section_of", [
    # s(beta) lifts beta + 1: delta leaves the ideal (twist-data)
    lambda d, beta: d.lift(((beta[0] + 1) % 3,)),
    # s(0) = e_0 lies in the ideal but is not 0 (twist-beta0)
    lambda d, beta: d.ring.add(d.lift(beta), (1, 0)),
    # s(1) = s(2) lifts 2: the beta = 0 slice holds, then delta leaves
    # the ideal at alpha = beta = 1
    lambda d, beta: d.lift((2,) if beta == (1,) else beta),
    # and with s(0) = e_0 too, the beta = 0 slice fails first
    lambda d, beta: (1, 2) if beta == (1,) else d.ring.add(d.lift(beta),
                                                           (1, 0)),
], ids=["twist-data", "twist-beta0", "twist-data-later", "twist-beta0-first"])
def test_eta_monomial_errors_match_scalar_oracle(section_of):
    d0 = build_hyperbolic(3, 1, 1)
    d = VModelData(d0.ring, d0.a, d0.metric, section={
        beta: section_of(d0, beta) for beta in d0.b_elements})
    want = _twist_error(eta_monomial_oracle, d)
    assert _twist_error(vmodel._eta_monomial, d) == want


def test_action_check_catches_one_wrong_exponent():
    d = build_hyperbolic(3, 1, 2)
    validate_data(d)
    g = (1, 2, 1, 0)  # neither 0 nor a generator e_t
    r = element_index(d.ring, [g])[0]
    perm, expo = vmodel._gamma_arrays(d)
    expo[r, 5] = (expo[r, 5] + 1) % d.metric.modulus
    report = verify_ribbon(d)
    assert not report["pass"]
    action = report["checks"][0]
    assert (action["check"], action["status"]) == ("action", "FAIL")
    (witness,) = [c["witness"] for c in report["counterexamples"]
                  if c["check"] == "action"]
    e_t, h = witness
    assert all(type(c) is int for c in e_t + h)
    assert e_t in [d.ring.basis(t) for t in range(d.ring.rank)]
    assert g in (h, exp_mul(d.ring, e_t, h))


@pytest.mark.parametrize("corrupt", ["exponent", "permutation"])
def test_action_check_catches_gamma_of_zero_not_identity(monkeypatch, corrupt):
    # gamma(0) = id is a theorem for valid data, so only a corrupted row 0
    # of the gamma arrays reaches the ("unit",) witness; the permutation
    # swaps two basis vectors of one coset, so gu keeps its support
    d = build_hyperbolic(3, 1, 1)
    validate_data(d)
    perm, expo = (a.copy() for a in vmodel._gamma_arrays(d))
    if corrupt == "exponent":
        expo[0, 0] = 1
    else:
        nb = len(d.b_elements)
        perm[0, [0, nb]] = perm[0, [nb, 0]]
    monkeypatch.setattr(vmodel, "_gamma_arrays", lambda d: (perm, expo))
    report = verify_ribbon(d)
    action = report["checks"][0]
    assert (action["check"], action["status"]) == ("action", "FAIL")
    assert action["detail"] == (
        "unit and composition, exhaustive (2 generators x 9 elements)")
    assert report["counterexamples"][0] == {"check": "action",
                                            "witness": ("unit",)}


def _dict_u(d):
    """u = sum_alpha 1_{alpha,0} as a dict over basis pairs."""
    one = CycNumber.one(d.metric.p, d.metric.level)
    return {(alpha, d.b.zero()): one for alpha in d.b_elements}


def _dict_gu_rank(d):
    """gu-rank on the dict path: gamma(g) u one g at a time, the rank of
    each target coset's block by exact elimination over Q(zeta)."""
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    u, blocks = _dict_u(d), {beta: [] for beta in d.b_elements}
    for g in map(tuple, all_elements(d.ring).tolist()):
        gu = gamma_act(d, g, u)
        (beta,) = {pair[1] for pair in gu}
        blocks[beta].append([gu.get((alpha, beta), zero)
                             for alpha in d.b_elements])
    return sum(cyc_rank(rows) for rows in blocks.values())


def _dict_h_beta(d):
    """The first beta0, on the dict path, with h_{beta0} u != 1_{beta0,
    beta0}, or None."""
    ring, m = d.ring, d.metric
    zero, u = CycNumber.zero(m.p, m.level), _dict_u(d)
    for beta0 in d.b_elements:
        lifted, acc = d.s[beta0], {}
        for x in d.a.elements():
            g = ring.add(lifted, x)
            shift = m.q_num(lifted) - m.q_num(g)
            for pair, c in gamma_act(d, g, u).items():
                acc[pair] = acc.get(pair, zero) + c.mul_root(shift)
        acc = {pair: c.scale(Fraction(1, isqrt(ring.size())))
               for pair, c in acc.items() if not c.is_zero()}
        if acc != basis_vector(d, beta0, beta0):
            return beta0
    return None


def _copy_exponent_across_coset(d, coset, alpha):
    """Give every g whose gu lands in b_elements[coset] the first such
    g's exponent in column (alpha, 0)."""
    perm, expo = vmodel._gamma_arrays(d)
    nb = len(d.b_elements)
    rows = np.flatnonzero(perm[:, 0] % nb == coset)
    expo[rows, alpha * nb] = expo[rows[0], alpha * nb]


@pytest.mark.parametrize("args, seed, coset, alpha, rank, beta0", [
    ((3, 1, 1), None, 1, 1, 8, (1,)),
    ((3, 1, 1), 17, 0, 2, 8, (0,)),
    ((3, 1, 1), None, 1, 2, 8, None),
    ((3, 1, 1), None, 2, 0, 9, None),
    ((5, 1, 1), 3, 2, 2, 24, (2,)),
], ids=["hyp311", "hyp311s17", "hyp311-h-beta-holds", "hyp311-no-change",
        "hyp511s3"])
def test_gamma_mutation_gives_dict_path_witnesses(args, seed, coset, alpha,
                                                  rank, beta0):
    # gu-rank and h-beta read the gamma arrays; on a broken copy they must
    # report what the dict path (gamma_act, exact Q(zeta) elimination)
    # computes from the same arrays
    d = build_hyperbolic(*args, section_seed=seed)
    validate_data(d)
    _copy_exponent_across_coset(d, coset, alpha)
    assert (_dict_gu_rank(d), _dict_h_beta(d)) == (rank, beta0)
    report = verify_ribbon(d)
    status = {c["check"]: c["status"] for c in report["checks"]}
    witness = {c["check"]: c["witness"] for c in report["counterexamples"]}
    n = d.dim()
    assert witness.get("gu-rank") == (
        None if rank == n else {"rank": rank, "dim": n})
    assert status["gu-rank"] == ("PASS" if rank == n else "FAIL")
    assert witness.get("h-beta") == beta0
    assert status["h-beta"] == ("PASS" if beta0 is None else "FAIL")


@pytest.mark.parametrize("args, seed", [((3, 1, 1), None), ((5, 1, 1), 3)],
                         ids=["hyp311", "hyp511s3"])
def test_gu_rank_pads_unequal_blocks(monkeypatch, args, seed):
    # gamma(g) copied from an element of another coset leaves the beta
    # blocks of unequal sizes; the zero-padded stack must give the rank
    # that the dict path computes from the same arrays
    d = build_hyperbolic(*args, section_seed=seed)
    validate_data(d)
    perm, expo = vmodel._gamma_arrays(d)
    nb = len(d.b_elements)
    src, dst = (np.flatnonzero(perm[:, 0] % nb == beta)[0] for beta in (1, 0))
    perm[dst], expo[dst] = perm[src], expo[src]
    stacks = []
    ranks = vmodel.cyc_rank
    monkeypatch.setattr(vmodel, "cyc_rank", lambda h, p, m: (
        stacks.append(h) or ranks(h, p, m)))
    report = verify_ribbon(d)
    (stack,) = stacks
    sizes = stack.any(axis=(2, 3)).sum(axis=1)
    assert sizes[0] < sizes[1] == len(stack[0])
    witness = {c["check"]: c["witness"] for c in report["counterexamples"]}
    rank = _dict_gu_rank(d)
    assert rank < d.dim()
    assert witness["gu-rank"] == {"rank": rank, "dim": d.dim()}


def test_eta_closed_form_with_linear_section():
    d = build_hyperbolic(5, 1, 1)
    validate_data(d)
    for alpha, beta in d.pairs:
        v = eta(d, basis_vector(d, alpha, beta))
        target = (alpha, ((alpha[0] + beta[0]) % 5,))
        assert v == {target: CycNumber.one(5, 1)}


def test_eta_with_noisy_section_still_monomial():
    d = build_hyperbolic(3, 1, 1, section_seed=5)
    validate_data(d)
    for alpha, beta in d.pairs:
        v = eta(d, basis_vector(d, alpha, beta))
        (target, coeff), = v.items()
        assert target == (alpha, ((alpha[0] + beta[0]) % 3,))
        # the coefficient is a root of unity
        assert (coeff * coeff.conj()).rational_value() == 1


def test_verify_ribbon_passes_default_and_seeded():
    for seed in (None, 11):
        d = build_hyperbolic(3, 1, 1, section_seed=seed)
        report = verify_ribbon(d)
        assert report["pass"]
        assert [c["check"] for c in report["checks"]] == [
            "action", "equivariance", "gu-rank", "h-beta", "gauss-card",
            "theorem1"]
        assert all(c["status"] == "PASS" for c in report["checks"])
        assert report["counterexamples"] == []
        assert report["dim"] == 9


def _qhat_rows_oracle(d):
    """q-hat's matrix on the dense CycNumber route, one add per group
    element and basis vector: the entrywise form of Theorem 1 that
    verify_ribbon reduces to the vector u."""
    coeffs = ribbon_qhat(d.metric)
    n, N = d.dim(), d.metric.modulus
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    rows = [[zero] * n for _ in range(n)]
    for g, c in coeffs.items():
        perm, expo = _gamma_op(d, g)
        turned = [c.mul_root(e) for e in range(N)]
        for i in range(n):
            j = perm[i]
            rows[j][i] = rows[j][i] + turned[expo[i]]
    return rows


def test_verify_ribbon_matrices_agree():
    # eta's matrix equals the dense q-hat matrix on hyp(3,1,1), and
    # verify_ribbon accepts that q-hat matrix as an eta override
    d = build_hyperbolic(3, 1, 1)
    qhat = _qhat_rows_oracle(d)
    assert eta_matrix(d) == qhat
    report = verify_ribbon(d, eta_override=qhat)
    assert report["pass"]
    assert report["counterexamples"] == []


@pytest.mark.parametrize("make", [
    lambda: build_hyperbolic(3, 1, 1),
    lambda: build_hyperbolic(5, 1, 1, section_seed=3),
    lambda: build_hyperbolic(3, 2, 1, section_seed=5),
    cotangent_h3,
], ids=["hyp311", "hyp511s3", "hyp321s5", "cotangent_h3"])
def test_eta_matrix_matches_qhat_oracle(make):
    d = make()
    assert verify_ribbon(d)["pass"]
    assert eta_matrix(d) == _qhat_rows_oracle(d)


@pytest.mark.parametrize("args, seed", [((3, 1, 1), 1), ((5, 1, 1), 2),
                                        ((3, 2, 1), 3)],
                         ids=["hyp311s1", "hyp511s2", "hyp321s3"])
def test_forged_half_gives_exact_witness(args, seed):
    # eta_override has denominators 1, 2 and 3; the witness is the first
    # mismatch in row-major order, printed as the dense route prints it
    d = build_hyperbolic(*args, section_seed=seed)
    rng = random.Random(seed)
    n, p, level = d.dim(), d.metric.p, d.metric.level
    i, j = rng.randrange(n - 1), rng.randrange(n)
    forged = eta_matrix(d)
    forged[i][j] = forged[i][j] + CycNumber.rational(p, level, Fraction(1, 2))
    forged[n - 1][0] = forged[n - 1][0] + CycNumber.rational(
        p, level, Fraction(1, 3))
    report = verify_ribbon(d, eta_override=forged)
    want = _qhat_rows_oracle(d)[i][j]
    assert report["counterexamples"] == [{"check": "theorem1", "witness": {
        "row": d.pairs[i], "col": d.pairs[j],
        "eta": forged[i][j].serialize(), "qhat": want.serialize()}}]


def _without_seconds(report):
    return {**report, "checks": [{k: v for k, v in c.items() if k != "seconds"}
                                 for c in report["checks"]]}


def test_override_of_fresh_equal_numbers_passes():
    # equal values in objects of their own: rows compare by value, not
    # by identity with the shared constants
    d = build_hyperbolic(3, 2, 1, section_seed=4)
    p, level = d.metric.p, d.metric.level
    fresh = [[CycNumber(p, level, v.coeffs) for v in row]
             for row in eta_matrix(d)]
    assert fresh[0][0] is not eta_matrix(d)[0][0]
    report = verify_ribbon(d, eta_override=fresh)
    assert report["pass"] and report["counterexamples"] == []
    assert _without_seconds(report) == _without_seconds(
        verify_ribbon(d, eta_override=eta_matrix(d)))


def test_override_rows_may_be_tuples():
    d = build_hyperbolic(5, 1, 1, section_seed=2)
    forged = eta_matrix(d)
    forged[7][3] = forged[7][3] + CycNumber.rational(5, 1, Fraction(1, 2))
    as_lists = verify_ribbon(d, eta_override=forged)
    as_tuples = verify_ribbon(d, eta_override=[tuple(r) for r in forged])
    assert as_tuples["counterexamples"] == as_lists["counterexamples"]
    assert as_lists["counterexamples"][0]["witness"]["row"] == d.pairs[7]


def test_override_of_another_conductor_after_the_mismatch_raises():
    # the first row that differs is read whole, as before
    d = build_hyperbolic(3, 1, 1)
    forged = eta_matrix(d)
    forged[2][0] = forged[2][0] + CycNumber.one(3, 1)
    forged[2][5] = CycNumber.one(5, 1)
    with pytest.raises(ValueError, match="mixed conductors"):
        verify_ribbon(d, eta_override=forged)


def test_forged_eta_detected_with_witness():
    d = build_hyperbolic(3, 1, 1)
    forged = [row[:] for row in eta_matrix(d)]
    forged[0][0] = forged[0][0] + CycNumber.one(3, 1)
    report = verify_ribbon(d, eta_override=forged)
    assert not report["pass"]
    statuses = {c["check"]: c["status"] for c in report["checks"]}
    assert statuses["theorem1"] == "FAIL"
    assert all(v == "PASS" for k, v in statuses.items() if k != "theorem1")
    (ce,) = [c for c in report["counterexamples"] if c["check"] == "theorem1"]
    assert ce["witness"]["row"] == d.pairs[0]
    assert ce["witness"]["eta"] != ce["witness"]["qhat"]


def _moved_coefficients(monkeypatch, g, m):
    """move_qhat_coefficient at g, and the moved c as {element: c_g}."""
    moved = move_qhat_coefficient(monkeypatch, g)
    return dict(zip(m.elements(), from_rows(*moved(m), m.p, m.level)))


def _theorem1_witness(report):
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert status.pop("theorem1") == "FAIL"
    assert set(status.values()) == {"PASS"}
    (ce,) = report["counterexamples"]
    assert ce["check"] == "theorem1"
    return ce["witness"]


def test_theorem1_catches_one_moved_coefficient(monkeypatch):
    # abelian, so c stays a class function: eta u = q-hat u must fail, at
    # the first entry the dict path finds
    d = build_hyperbolic(5, 1, 1)
    g = (2, 3)
    coeffs = _moved_coefficients(monkeypatch, g, d.metric)
    u = _dict_u(d)
    zero = CycNumber.zero(d.metric.p, d.metric.level)
    eta_u, qhat_u = eta(d, u), {}
    for h, c in coeffs.items():
        for pair, v in gamma_act(d, h, u).items():
            qhat_u[pair] = qhat_u.get(pair, zero) + c * v
    entry = next(pair for pair in d.pairs
                 if eta_u.get(pair, zero) != qhat_u.get(pair, zero))
    witness = _theorem1_witness(verify_ribbon(d))
    assert witness == {"entry": entry,
                       "eta_u": eta_u.get(entry, zero).serialize(),
                       "qhat_u": qhat_u.get(entry, zero).serialize()}
    assert all(type(x) is int for part in entry for x in part)


def test_theorem1_catches_non_class_coefficients(monkeypatch):
    # e0 is not central in T*h3, so moving c at e0 alone breaks the class
    # function; the witness is the first (e_t, g) the scalar conjugate
    # finds with c(Exp(e_t) g Exp(e_t)^-1) != c(g)
    d = cotangent_h3()
    coeffs = _moved_coefficients(monkeypatch, (1, 0, 0, 0, 0, 0), d.metric)
    want = next(
        {"generator": e_t, "element": g}
        for e_t in map(d.ring.basis, range(d.ring.rank))
        for g in d.ring.elements()
        if coeffs[conjugate(d.ring, e_t, g)] != coeffs[g])
    witness = _theorem1_witness(verify_ribbon(d))
    assert witness == want
    assert all(type(x) is int for part in witness.values() for x in part)


def _count_conjugates(monkeypatch):
    """The row counts of every vmodel._conjugates call, in call order."""
    conjugates, rows = vmodel._conjugates, []

    def counted(ring, G, X):
        rows.append(len(G))
        return conjugates(ring, G, X)

    monkeypatch.setattr(vmodel, "_conjugates", counted)
    return rows


@pytest.mark.parametrize("model", [lambda: build_hyperbolic(5, 1, 1),
                                   cotangent_h3], ids=["hyp511", "T*h3"])
def test_conjugation_table_is_built_once(monkeypatch, model):
    # validate_data's invariance axiom builds the table that theorem1's
    # class-function check reads; verify_ribbon adds only the b x b table
    d = model()
    rows = _count_conjugates(monkeypatch)
    validate_data(d)
    assert rows == [d.ring.rank * d.ring.size()]
    rows.clear()
    assert verify_ribbon(d)["pass"]
    assert rows == [len(d.b_elements) ** 2]


def test_conjugation_table_builds_without_validation(monkeypatch):
    # a model marked valid without validate_data still gets its table
    d = cotangent_h3()
    rows = _count_conjugates(monkeypatch)
    d._validated = True
    assert verify_ribbon(d)["pass"]
    assert sorted(rows) == sorted([len(d.b_elements) ** 2,
                                   d.ring.rank * d.ring.size()])


def test_equivariance_catches_eta_changed_outside_u(monkeypatch):
    # one column with beta != 0 is outside u's support: eta u = q-hat u
    # still holds, and only equivariance sees the change
    d = build_hyperbolic(3, 1, 1, section_seed=2)
    eta_monomial = vmodel._eta_monomial
    col = d.index[((1,), (2,))]

    def changed(d):
        perm, expo = eta_monomial(d)
        expo = list(expo)
        expo[col] = (expo[col] + 1) % d.metric.modulus
        return perm, tuple(expo)

    monkeypatch.setattr(vmodel, "_eta_monomial", changed)
    report = verify_ribbon(d)
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert status["equivariance"] == "FAIL" and status["theorem1"] == "PASS"
    (ce,) = report["counterexamples"]
    assert ce["check"] == "equivariance"
    assert all(type(x) is int for x in ce["witness"])


def test_batched_axioms_name_the_first_witness():
    # the texts the one-element-at-a-time loops over the ideal's members
    # and the group, with scalar conjugate, reported
    d0 = build_hyperbolic(3, 1, 1)
    z, v = QpModZp(3, 0, 1), QpModZp(3, 1, 1)
    perturbed = MetricGroup(3, (1, 1), [v, z], [[v.scale(2), v], [v, z]])
    for d, text in [
            (VModelData(d0.ring, d0.a, perturbed),
             "isotropic: q((1, 0)) = 1/3 != 0 on the ideal"),
            (cotangent_h3(q_e2=1),
             "invariance: q(Exp(e_0) (0, 1, 0, 0, 0, 0) Exp(e_0)^-1) = 1/3 "
             "!= q((0, 1, 0, 0, 0, 0)) = 0/1")]:
        with pytest.raises(VModelError) as e:
            validate_data(d)
        assert str(e.value) == text


def test_serialize_round_trip_default_section():
    d = build_hyperbolic(3, 1, 1)
    text = serialize_vmodel(d)
    back = parse_vmodel(text)
    assert serialize_vmodel(back) == text
    assert verify_ribbon(back)["pass"]


def test_serialize_round_trip_custom_section():
    d0 = build_hyperbolic(3, 1, 1)
    section = {beta: d0.lift(beta) for beta in d0.b_elements}
    section[(1,)] = (2, 1)  # same coset, nondefault representative
    d = VModelData(d0.ring, d0.a, d0.metric, section=section, name="custom")
    text = serialize_vmodel(d)
    assert "\ns " in text  # the nondefault section is spelled out
    back = parse_vmodel(text)
    assert back.s == d.s
    assert serialize_vmodel(back) == text
    assert verify_ribbon(back)["pass"]


def test_nonsplit_ideal_rejected():
    ring = LieRing(3, 2, 2, {}, name="a2_z9")
    a = Subring(ring, [(3, 0)])
    with pytest.raises(Exception):
        VModelData(ring, a, hyperbolic_metric(3, 2, 1))
