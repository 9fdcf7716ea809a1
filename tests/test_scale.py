"""Checks at sizes beyond the other test modules'.  CI also runs this
module on its own under one timeout, with -s for the prints.  Each check
holds a wall-clock budget and prints its CPU seconds, and some the
process's peak RSS so far."""

import itertools
import resource
import time
import timeit

import numpy as np
import pytest

from conftest import (budget, cotangent_h3, count_subring_builds,
                      eta_monomial_oracle, fl_rank, hyperbolic_metric,
                      zero_metric)
from orbitlab.cyclotomic import rank
from orbitlab.lazard import (LieRing, batch_conjugate, batch_exp_mul, catalog,
                             exp_mul, log_group)
from orbitlab.metric import lagrangians, st_matrices
from orbitlab.orbits import enumerate_orbits, kernel_lemma_all
from orbitlab.vmodel import (_eta_monomial, build_hyperbolic, validate_data,
                             verify_ribbon)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_modular_data_of_hyperbolic_forms_with_625_and_729_elements():
    with budget(90):
        for args, n in (((5, 1, 2), 625), ((3, 1, 3), 729)):
            start = time.process_time()
            s, t = st_matrices(hyperbolic_metric(*args))
            seconds = time.process_time() - start
            assert len(s) == len(t) == n, (args, len(s))
            print(f"st_matrices on hyperbolic {args} ({n} elements): "
                  f"{seconds:.2f} s CPU, peak RSS {_peak_rss_mb():.0f} MB")


def test_lagrangians_of_the_zero_form_on_f3_6(monkeypatch):
    # every 3-dimensional subspace of F_3^6, grown through the 45,256
    # subspaces of dimension at most 3, each built as one Subring
    with budget(30):
        builds = count_subring_builds(monkeypatch)
        start = time.process_time()
        lags = lagrangians(zero_metric(3, (1,) * 6))
        seconds = time.process_time() - start
        assert len(lags) == 33880, len(lags)
        assert len(builds) == 45256, len(builds)
        print(f"lagrangians of the zero form on F_3^6: {seconds:.2f} s CPU, "
              f"peak RSS {_peak_rss_mb():.0f} MB")


def test_theorem1_on_hyperbolic_712_and_cotangent_h3():
    # dim V = 2,401 and the non-abelian T*h3/Z3
    with budget(60):
        big = build_hyperbolic(7, 1, 2)
        for d, dim in ((big, 2401), (cotangent_h3(), 729)):
            validate_data(d)
            report = verify_ribbon(d)
            assert report["pass"] and report["dim"] == dim, report["checks"]
            print(d.name, [(c["check"], c["seconds"])
                           for c in report["checks"]])
        # the batched twist against the scalar loop, beyond test_vmodel's
        # sizes (which include T*h3/Z3)
        assert _eta_monomial(big) == eta_monomial_oracle(big)


def test_ranks_of_a_125_block_stack():
    # T*h3/Z5-sized: 125 blocks of 125 x 125, conductor 5
    with budget(60):
        h = np.random.default_rng(22).integers(-1, 2, size=(125, 125, 125, 5))
        start = time.process_time()
        ranks = rank(h, 5, 1)
        seconds = time.process_time() - start
        # the first three blocks against the per-block Howell route
        assert ranks[:3] == [fl_rank(block, 5, 1) for block in h[:3]], \
            ranks[:3]
        print(f"ranks {min(ranks)}-{max(ranks)} of 125 blocks, "
              f"{seconds:.2f} s CPU")


def test_census_and_kernel_lemma_on_every_character_of_u4_p7():
    # 117,649 characters; test_cli pins the census at 721 orbits
    with budget(60):
        # the census on a fresh ring builds the orbit permutations at the cap
        start = time.process_time()
        orbits = enumerate_orbits(catalog()["u4_p7"])
        seconds = time.process_time() - start
        assert sum(o.size for o in orbits) == 117649
        print(f"census of u4_p7: {len(orbits)} orbits, {seconds:.2f} s CPU")
        start = time.process_time()
        report = kernel_lemma_all(catalog()["u4_p7"])
        seconds = time.process_time() - start
        assert report["characters"] == 117649, report
        assert report["orbits"] == 721, report
        print(report, f"{seconds:.2f} s CPU, "
              f"peak RSS {_peak_rss_mb():.0f} MB")


def _int64_rows(x, y):
    return (np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lazard_round_trip_and_batch_kernel_timings():
    # abelian3_p5 and h3_p5 exhaustive, u4_p7 on 20,000 pairs, h3 over
    # 2^31 - 1 on np.int64 inputs; test_lazard covers np.int64 outputs and
    # batch against scalar on u4 edge rows over 2^31 - 1
    with budget(60):
        cat = catalog()
        seconds_of = {}
        for name, samples in (("abelian3_p5", 2000), ("h3_p5", 2000),
                              ("u4_p7", 20000)):
            ring = cat[name]
            start = time.process_time()
            recovered, report = log_group(lambda x, y: exp_mul(ring, x, y),
                                          ring.p, ring.k, ring.rank,
                                          samples=samples)
            seconds_of[name] = seconds = time.process_time() - start
            assert recovered.table == ring.table, name
            assert report["exhaustive"] == (name != "u4_p7"), report
            print(name, report, f"{seconds:.2f} s CPU")
        # the same exhaustive h3_p5 pairs through the law alone: how much
        # of log_group is its black box (printed, not gated)
        ring = cat["h3_p5"]
        start = time.process_time()
        for x, y in itertools.product(ring.elements(), repeat=2):
            exp_mul(ring, x, y)
        law = time.process_time() - start
        print(f"h3_p5: law {law:.3f} s of log_group "
              f"{seconds_of['h3_p5']:.3f} s")
        # the law passes np.int64 rows, which exp_mul must convert with
        # int(): at p = 2^31 - 1 their products overflow int64
        big = LieRing(2147483647, 1, 3, {(0, 1): (0, 0, 1)})

        def law(x, y):
            out = exp_mul(big, *_int64_rows(x, y))
            assert all(type(v) is int for v in out), out
            return out

        recovered, report = log_group(law, big.p, big.k, big.rank)
        assert recovered.table == big.table
        assert not report["exhaustive"], report
        print("h3 over 2^31 - 1, np.int64 inputs", report)
        ring = cat["u4_p5"]
        x, y = (1, 2, 3, 4, 0, 1), (4, 3, 2, 1, 0, 4)
        for kind, (a, b) in (("int tuples", (x, y)),
                             ("np.int64 rows", _int64_rows(x, y))):
            n = 20000
            ns = min(timeit.repeat(lambda: exp_mul(ring, a, b), number=n,
                                   repeat=3)) / n * 1e9
            print(f"u4_p5 exp_mul on {kind}: {ns:.0f} ns per call")
        # the batch kernels on u4_p5 (printed, not gated): 4,000 random
        # pairs, and the coadjoint action's 3,125 representatives (the
        # central coordinate e14 zero)
        X, Y = np.random.default_rng(0).integers(0, 5, size=(2, 4000, 6))
        reps = np.indices((5,) * 5 + (1,)).reshape(6, -1).T
        e12 = np.zeros_like(reps)
        e12[:, 0] = 1
        for label, call in (
                ("batch_exp_mul on 4,000 rows",
                 lambda: batch_exp_mul(ring, X, Y)),
                ("batch_conjugate on 3,125 representatives",
                 lambda: batch_conjugate(ring, -reps, e12))):
            us = min(timeit.repeat(call, number=20, repeat=5)) / 20 * 1e6
            print(f"u4_p5 {label}: {us:.0f} us per call")
