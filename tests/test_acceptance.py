"""Acceptance gate: ten end-to-end criteria, one test each.

Every check is exact (Fraction / residue / cyclotomic arithmetic); the only
tolerances are the per-criterion wall-clock budgets, asserted at the end of
each test so a correctness failure is never masked by a slow run.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, isqrt

import pytest

from conftest import cotangent_h3, hyperbolic_metric, quadratic_metric
from orbitlab.cyclotomic import CycNumber
from orbitlab.freelie import (
    LiePoly,
    bch,
    certify,
    check_bch_associativity,
    check_lambda_identity,
    check_lemma1,
    check_phi_identity,
    hall_basis,
)
from orbitlab.lazard import (
    bracket_span,
    catalog,
    check_exp_associative,
    exp_mul,
    log_group,
)
from orbitlab.metric import fourier, gauss_sum, ribbon_qhat
from orbitlab.orbits import (
    SkewForm,
    all_characters,
    enumerate_orbits,
    generic_character,
    kernel_lemma_all,
    kernel_lemma_check,
    orbit_histogram,
    sample_characters,
)
from orbitlab.polarizations import polarize
from orbitlab.vmodel import (
    VModelData,
    VModelError,
    build_hyperbolic,
    eta_matrix,
    validate_data,
    verify_ribbon,
)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds}s"


def contained(a, b):
    return all(b.contains(g) for g in a.generators())


def test_criterion_01_bch_series_and_certificates():
    with budget(5):
        basis = hall_basis(2, 3)
        x = LiePoly.generator(basis, 0)
        y = LiePoly.generator(basis, 1)
        xy = x.bracket(y)
        series = (x + y + xy.scale(Fraction(1, 2))
                  + x.bracket(xy).scale(Fraction(1, 12))
                  + y.bracket(y.bracket(x)).scale(Fraction(1, 12)))
        assert bch(3) == series
        # in the fixed Hall order the magnitudes read 1, 1, 1/2, 1/12, 1/12
        mags = tuple(abs(bch(3).coeffs.get(t, Fraction(0)))
                     for t in basis.elements)
        assert mags == (1, 1, Fraction(1, 2), Fraction(1, 12),
                        Fraction(1, 12))
        cert = certify("bch", 6)
        assert set(cert.bounds) == {1, 2, 3, 4, 5, 6}
        for d, (lcm, e) in cert.bounds.items():
            # degree-d denominators divide a power of d!, i.e. lie in
            # Z[1/d!]; the exponent is part of the certificate
            assert factorial(d) ** e % lcm == 0


def test_criterion_02_symbolic_identities():
    with budget(10):
        assert check_lemma1(4)
        assert check_phi_identity(4)
        assert check_lambda_identity(4)


def test_criterion_03_lazard_round_trip():
    with budget(30):
        for name, ring in catalog().items():
            recovered, _ = log_group(
                lambda x, y: exp_mul(ring, x, y),
                ring.p, ring.k, ring.rank)
            assert recovered.table == ring.table, name
        checked, exhaustive = check_exp_associative(catalog()["h3_p3"])
        assert exhaustive and checked == 27**3
        checked, exhaustive = check_exp_associative(
            catalog()["u4_p5"], samples=10**4, seed=0)
        assert not exhaustive and checked == 10**4
        assert check_bch_associativity(4)


def test_criterion_04_kernel_equals_stabilizer():
    with budget(60):
        rings = catalog()
        h3 = rings["h3_p5"]
        count = 0
        for chi in all_characters(h3):
            report = kernel_lemma_check(h3, chi)
            assert report["equal"]
            count += 1
        assert count == 125
        u4 = rings["u4_p5"]
        rng = random.Random(0)
        sampled = 0
        for chi in sample_characters(u4, 500, rng):
            report = kernel_lemma_check(u4, chi, rng=rng)
            assert report["equal"]
            sampled += 1
        assert sampled >= 500
        # every character, from the orbit labels and batched radicals
        for ring, orbit_count in ((u4, 265), (h3, 29),
                                  (rings["h3_z9"], 105)):
            report = kernel_lemma_all(ring)
            assert report["characters"] == ring.size()
            assert report["orbits"] == orbit_count


def test_criterion_05_orbit_census():
    with budget(60):
        rings = catalog()
        for p in (3, 5, 7):
            ring = rings[f"h3_p{p}"]
            orbits = enumerate_orbits(ring)
            assert len(orbits) == p * p + (p - 1)
            assert orbit_histogram(orbits) == {1: p * p, p * p: p - 1}
            for o in orbits:
                assert o.size * o.stabilizer.size() == ring.size()


def test_criterion_06_polarization_chain():
    with budget(30):
        for name, ring in catalog().items():
            form = SkewForm(generic_character(ring))
            steps, final, lag = polarize(form)
            radical_size = steps[0].radical.size()
            for step in steps:
                assert (step.perp.size() * step.h.size()
                        == ring.size() * radical_size), name
            for before, after in zip(steps, steps[1:]):
                assert after.h.size() > before.h.size(), name
                assert contained(bracket_span(before.perp, before.perp),
                                 after.perp), name
                assert contained(after.perp, before.perp), name
            # the chain's own postcondition: the final h is Heisenberg
            assert contained(bracket_span(final.perp, final.h), final.h), \
                name
            assert final.heisenberg and final.heisenberg_strong, name
            quot = ring.size() // radical_size
            if isqrt(quot) ** 2 == quot:
                assert lag is not None, name
                assert lag.h.rows == lag.perp.rows, name
            else:
                assert lag is None, name
            if name.startswith(("h3_", "u4_")):
                assert lag is not None, name


def test_criterion_07_gauss_sums():
    with budget(10):
        for p in (3, 5, 7):
            g = gauss_sum(quadratic_metric(p))
            assert (g * g.conj()).rational_value() == p
        for args, card in (((3, 1, 1), 3), ((5, 1, 1), 5),
                           ((3, 2, 1), 9), ((3, 1, 2), 9)):
            g = gauss_sum(hyperbolic_metric(*args))
            assert g.rational_value() == card


def test_criterion_08_qhat_two_paths():
    with budget(10):
        groups = [quadratic_metric(p) for p in (3, 5, 7)]
        groups += [hyperbolic_metric(*args)
                   for args in ((3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2))]
        for m in groups:
            # ribbon_qhat recomputes the Fourier-preimage route internally
            # and raises on any disagreement with the closed form
            qhat = ribbon_qhat(m)
            g = gauss_sum(m)
            zero = tuple([0] * m.rank)
            assert qhat[zero] == g.scale(Fraction(1, m.size()))
            # independent restatement: the transform of q-hat is q-tilde
            # pushed through the B-isomorphism
            transform = fourier(m, qhat)
            for a in m.elements():
                b = tuple(m.b_num(gi, a) // m.p ** (m.level - k) % m.p ** k
                          for gi, k in zip(
                              ([int(i == j) for j in range(m.rank)]
                               for i in range(m.rank)), m.exponents))
                assert transform[b] == m.qt(a)


def test_criterion_09_theorem1_ribbon():
    with budget(120):
        instances = [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 1, 2)]
        models = [build_hyperbolic(*args, section_seed=seed)
                  for args in instances for seed in (None, 17)]
        # the non-abelian T*h3/Z3: gamma is not a plain translation there
        models.append(cotangent_h3())
        for d in models:
            validate_data(d)
            report = verify_ribbon(d)
            names = [c["check"] for c in report["checks"]]
            assert names == ["action", "equivariance", "gu-rank",
                             "h-beta", "gauss-card", "theorem1"]
            assert report["pass"], (d.name, report["checks"])
            assert report["counterexamples"] == []
            assert report["dim"] == d.ring.size()


def test_criterion_10_negative_controls(tmp_path, capsys):
    # (a) q perturbed on the ideal: the Lagrangian/isotropy axiom rejects it
    from orbitlab.arith import QpModZp
    from orbitlab.lazard import LieRing, Subring
    from orbitlab.metric import MetricGroup

    d0 = build_hyperbolic(3, 1, 1)
    z, v = QpModZp(3, 0, 1), QpModZp(3, 1, 1)
    perturbed = MetricGroup(3, (1, 1), [v, z], [[v.scale(2), v], [v, z]])
    with pytest.raises(VModelError) as err:
        validate_data(VModelData(d0.ring, d0.a, perturbed))
    assert err.value.axiom == "isotropic"

    # (b) q that is not conjugation invariant
    ring = LieRing(3, 1, 4, {(0, 1): (0, 0, 1, 0)}, name="h3xa1")
    ideal = Subring(ring, [(0, 0, 1, 0), (0, 0, 0, 1)])
    gram = [[z] * 4 for _ in range(4)]
    gram[0][2] = gram[2][0] = v
    gram[1][3] = gram[3][1] = v
    pairing = MetricGroup(3, (1,) * 4, [z] * 4, gram)
    with pytest.raises(VModelError) as err:
        validate_data(VModelData(ring, ideal, pairing))
    assert err.value.axiom == "invariance"
    # and on the non-abelian T*h3/Z3, q(e2) = 1/3 (B_22 = 2/3): e2 is a
    # bracket, so conjugation moves q
    with pytest.raises(VModelError) as err:
        validate_data(cotangent_h3(q_e2=1))
    assert err.value.axiom == "invariance"

    # (c) forged eta entry: report fails with an entry-level witness, and
    # the CLI exits 1 with a counterexample block
    d = build_hyperbolic(3, 1, 1)
    forged = [row[:] for row in eta_matrix(d)]
    forged[0][0] = forged[0][0] + CycNumber.one(3, 1)
    report = verify_ribbon(d, eta_override=forged)
    assert not report["pass"]
    assert any(c["check"] == "theorem1" for c in report["counterexamples"])

    from orbitlab import cli
    from orbitlab.vmodel import serialize_vmodel

    path = tmp_path / "hyp.vm"
    path.write_text(serialize_vmodel(d))
    code = cli.main(["ribbon", str(path), "--forge-eta",
                     "--format", "records"])
    out = capsys.readouterr().out
    assert code == 1
    assert any(ln.startswith("counterexample check=theorem1")
               for ln in out.splitlines())
