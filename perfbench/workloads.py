"""The four workloads: each function fills one Pass with jobs from the seed.

A job is one call into orbitlab's public API (the timed part) and a check
of its verdict against an answer from known.py (untimed, after the pass).
Every pass builds its rings, models and files afresh, so no per-ring cache
survives from one pass to the next: each pass pays cache fills the way a
fresh orbitlab process does.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from math import factorial, isqrt

import inputs
import known

# Jobs whose wrong verdict is a known, filed defect.  They stay in the
# workload and count as failed; they do not make the run incorrect.
KNOWN_DEFECTS = {
    f"assoc/h3_p{inputs.BIG_PRIME}":
        "int64 overflow in batch_exp_mul reports a false associativity "
        "defect on h3 over p = 2^31 - 1 (ROADMAP open item 3)",
}


class Job:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


class Pass:
    """One pass of a workload: its jobs and the per-run memo of answers."""

    def __init__(self, ol, workload, seed, tiny, workdir, memo):
        self.ol = ol
        self.rng = inputs.rng_for(workload, seed)
        self.rings_rng = inputs.rng_for(f"{workload}/rings", seed)
        self.tiny = tiny
        self.workdir = workdir
        self.memo = memo
        self.jobs = []

    def class2_specs(self):
        """The seeded class-2 brackets, drawn once per run from a stream of
        their own: the redraws until the isomorphism type fits are the
        benchmark's work, not orbitlab's, and their number varies with the
        seed.  Each pass still builds its rings from them."""
        return self.known("class2-specs",
                          lambda: inputs.class2_specs(self.rings_rng))

    def add(self, name, call, check):
        self.jobs.append(Job(name, call, check))

    def known(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


# -- shared checks ------------------------------------------------------------

def _census_ok(ring, want):
    def check(orbits):
        return (len(orbits) == want
                and sum(o.size for o in orbits) == ring.pk ** ring.rank)
    return check


def _kernel_ok(ring, nums):
    def check(report):
        rad = known.radical_size(ring.table, nums, ring.pk)
        return (report["equal"] and report["stabilizer_size"] == rad
                and report["radical_size"] == rad)
    return check


def _lagrangian_size(ring, nums):
    """sqrt(|g| |rad B_chi|), or None when that is not a square."""
    prod = ring.pk ** ring.rank * known.radical_size(ring.table, nums, ring.pk)
    root = isqrt(prod)
    return root if root * root == prod else None


def _polarize_ok(ring, nums):
    def check(result):
        steps, final, lag = result
        want = _lagrangian_size(ring, nums)
        if not (steps and final.heisenberg_strong):
            return False
        if want is None:
            return lag is None
        gens = lag.h.generators()
        return (lag is not None
                and known.span_size(gens, ring.pk) == want
                and known.isotropic_for(ring.table, nums, gens, ring.pk))
    return check


def _gauss_known(m):
    total = None
    for x in m.elements():
        term = m.qt(x)
        total = term if total is None else total + term
    return total


def _class2_orbits(spec):
    return known.class2_orbits(spec["p"], spec["dv"], spec["dz"],
                               spec["brackets"])


def _catalog_orbits(name):
    stem, _, p = name.rpartition("_p")
    return {"h3": known.h3_orbits, "h3xa1": known.h3xa1_orbits,
            "u4": known.u4_orbits}[stem](int(p))


# -- census -------------------------------------------------------------------

def census(ps):
    """Orbit censuses, then kernel = stabilizer on stratified characters."""
    ol, rng, tiny = ps.ol, ps.rng, ps.tiny
    cat = ol.lazard.catalog()
    specs = ps.class2_specs()
    seeded = [(spec, inputs.build_class2(ol, spec)) for spec in specs]
    censused = [(cat[name], _catalog_orbits(name))
                for name in ("h3_p7", "h3xa1_p7", "u4_p5")]
    censused.append((cat["h3_z9"], known.h3_orbits(3, 2)))
    censused += [(ring, _class2_orbits(spec)) for spec, ring in seeded]
    for ring, want in censused:
        ps.add(f"census/{ring.name}",
               lambda ring=ring: ol.orbits.enumerate_orbits(ring),
               _census_ok(ring, want))

    checked = [(cat["u4_p5"], inputs.u4_strata(18, 5, 1)),
               (cat["h3_z9"], inputs.h3_z9_strata())]
    checked += [(ring, inputs.class2_strata(spec, 19, 1))
                for spec, ring in seeded]
    for ring, strata in checked:
        chars = inputs.characters(rng, ring.p, ring.pk,
                                  inputs.scaled(strata, tiny))
        for nums in chars:
            chi = ol.orbits.Character(ring, nums)
            ps.add(f"kernel/{ring.name}",
                   lambda ring=ring, chi=chi:
                       ol.orbits.kernel_lemma_check(ring, chi),
                   _kernel_ok(ring, nums))


# -- ribbon -------------------------------------------------------------------

def _verify_ok(d):
    def check(result):
        cert, report = result
        return (cert["dim"] == d.dim()
                and cert["ideal_order"] ** 2 == cert["order"]
                and len(cert["axioms"]) == 7
                and report["pass"] and report["counterexamples"] == []
                and [c["check"] for c in report["checks"]] == RIBBON_CHECKS
                and report["dim"] == d.ring.size())
    return check


def _forged_ok(d, i, j):
    def check(report):
        ces = report["counterexamples"]
        status = {c["check"]: c["status"] for c in report["checks"]}
        return (not report["pass"] and len(ces) == 1
                and ces[0]["check"] == "theorem1"
                and ces[0]["witness"]["row"] == d.pairs[i]
                and ces[0]["witness"]["col"] == d.pairs[j]
                and all(s == "PASS" for c, s in status.items() if c != "theorem1")
                and status["theorem1"] == "FAIL")
    return check


def _forge(ol, d, i, j):
    """The twist matrix with one entry moved by 1, as ribbon --forge-eta
    does at (0, 0)."""
    forged = [row[:] for row in ol.vmodel.eta_matrix(d)]
    forged[i][j] = forged[i][j] + ol.cyclotomic.CycNumber.one(
        d.metric.p, d.metric.level)
    return forged


RIBBON_CHECKS = ["action", "equivariance", "gu-rank", "h-beta", "gauss-card",
                 "theorem1"]


def _metric_jobs(ps, m, label, p=None):
    """The metric layer on one group: gauss_sum with lagrangians (as the
    gauss subcommand runs them), then ribbon_qhat.  p is set for the
    rank-one x^2/p groups, whose Gauss sum squares to +-p."""
    ol = ps.ol
    n = m.size()

    def gauss_ok(result):
        g, lags = result
        want = ps.known(("lagrangians", label),
                        lambda: known.lagrangian_subgroups(m))
        if not (len(lags) == len(want) and set(lags) == want):
            return False
        if p is not None:
            sq = g * g
            return sq.is_rational() and sq.rational_value() == (
                p if p % 4 == 1 else -p)
        return g.is_rational() and g.rational_value() == isqrt(n)

    def qhat_ok(qhat):
        g = _gauss_known(m)
        return (set(qhat) == set(m.elements())
                and all(qhat[a] == g.mul_root(-m.q_num(a)).scale(Fraction(1, n))
                        for a in qhat))

    ps.add(f"gauss/{label}",
           lambda: (ol.metric.gauss_sum(m), ol.metric.lagrangians(m)),
           gauss_ok)
    ps.add(f"qhat/{label}", lambda: ol.metric.ribbon_qhat(m), qhat_ok)


def _st_ok(m):
    def check(result):
        s_rows, t_rows = result
        elems = list(m.elements())
        card = isqrt(len(elems))
        return (len(s_rows) == len(elems)
                and all(t_rows[i][i] == m.qt(a) for i, a in enumerate(elems))
                and s_rows[0][0].is_rational()
                and s_rows[0][0].rational_value() == Fraction(1, card))
    return check


def _quadratic_metric(ol, p):
    return ol.metric.MetricGroup(p, (1,), [f"1/{p}"], [[f"2/{p}"]],
                                 name=f"x^2/{p}")


def ribbon(ps):
    """Theorem 1 on hyperbolic bundles with seeded sections, forged-eta
    controls, and the metric layer on the same groups."""
    ol, rng, tiny = ps.ol, ps.rng, ps.tiny
    # (5,1,1) runs with SECTIONS_511 sections, which must not change a
    # verdict; its 70 ms jobs also put the median job among jobs of one
    # size, where the smallest metric jobs would make it jump.
    shapes = inputs.hyperbolic_shapes(tiny)
    sections = [((5, 1, 1), i) for i in range(1 if tiny else SECTIONS_511)]
    sections += [(shape, 0) for shape in shapes if shape != (5, 1, 1)]
    for (p, k, r), i in sections:
        seed = rng.randrange(2 ** 31)
        d = ol.vmodel.build_hyperbolic(p, k, r, section_seed=seed)
        label = f"hyp{p}^{k}x{r}"
        ps.add(f"verify/{label}",
               lambda d=d: (ol.vmodel.validate_data(d),
                            ol.vmodel.verify_ribbon(d)),
               _verify_ok(d))
        # (3,2,1) is left out of the forged controls: it doubles the
        # costliest verify_ribbon call and adds no code path.
        if i == 0 and (p, k, r) != (3, 2, 1):
            # its own model object, so it shares no cache with the verify
            # job, whichever of the two runs first
            twin = ol.vmodel.build_hyperbolic(p, k, r, section_seed=seed)
            a, b = rng.randrange(d.dim()), rng.randrange(d.dim())
            ps.add(f"forged/{label}",
                   lambda d=twin, a=a, b=b: ol.vmodel.verify_ribbon(
                       d, eta_override=_forge(ol, d, a, b)),
                   _forged_ok(twin, a, b))
        if i == 0:
            _metric_jobs(ps, d.metric, label)
    for p in ((5,) if tiny else (3, 5, 7)):
        _metric_jobs(ps, _quadratic_metric(ol, p), f"x2_{p}", p=p)
    # S and T at dim 9 and 25; dim 49 and 81 take 32 s and 114 s per call,
    # longer than a whole run.
    for p in ((3,) if tiny else (3, 5)):
        m = ol.vmodel.build_hyperbolic(p, 1, 1).metric
        ps.add(f"st/dim{p * p}", lambda m=m: ol.metric.st_matrices(m), _st_ok(m))


SECTIONS_511 = 12


# -- roundtrip ----------------------------------------------------------------

def _log_group_ok(ring):
    def check(result):
        recovered, report = result
        return recovered.table == ring.table and report["class"] == ring.cls
    return check


def _assoc_ok(samples):
    return lambda result: result == (samples, False)


def _certify_ok(series):
    def check(cert):
        want = known.CERTIFICATE_LCMS[series]
        return ({d: lcm for d, (lcm, _) in cert.bounds.items()} == want
                and all(factorial(d) ** e % lcm == 0
                        and (e == 0 or factorial(d) ** (e - 1) % lcm != 0)
                        for d, (lcm, e) in cert.bounds.items()))
    return check


def roundtrip(ps):
    """The group law and back: log_group on the catalog with scalar exp_mul
    as the black box, sampled associativity of the batch law, polarizations
    and the series certificates."""
    ol, rng, tiny = ps.ol, ps.rng, ps.tiny
    cat = ol.lazard.catalog()
    names = sorted(cat)
    if tiny:
        names = ["abelian2_p3", "h3_p5", "h3_z9"]
    for name in names:
        ring = cat[name]
        ps.add(f"log_group/{name}",
               lambda ring=ring, seed=rng.randrange(2 ** 31): ol.lazard.log_group(
                   lambda x, y: ol.lazard.exp_mul(ring, x, y),
                   ring.p, ring.k, ring.rank, seed=seed),
               _log_group_ok(ring))

    samples = 500 if tiny else 4000
    big = ol.lazard.LieRing(inputs.BIG_PRIME, 1, 3, {(0, 1): (0, 0, 1)},
                            name=f"h3_p{inputs.BIG_PRIME}")
    specs = ps.class2_specs()
    seeded = [(spec, inputs.build_class2(ol, spec)) for spec in specs]
    for ring in (cat["u4_p5"], seeded[1][1], big):
        ps.add(f"assoc/{ring.name}",
               lambda ring=ring, seed=rng.randrange(2 ** 31):
                   ol.lazard.check_exp_associative(ring, samples=samples,
                                                   seed=seed),
               _assoc_ok(samples))

    for name in names:
        ring = cat[name]
        _polarize_job(ps, ring, [ol.orbits.generic_character(ring).nums],
                      f"polarize/{name}")
    # One job per ring for the seeded characters: their costs depend on the
    # character, and single jobs would move the median from seed to seed.
    seeded_chars = [(cat["u4_p5"], inputs.u4_strata(5, 5, 1))]
    seeded_chars += [(ring, inputs.class2_strata(spec, 5, 1))
                     for spec, ring in seeded]
    for ring, strata in seeded_chars:
        chars = inputs.characters(rng, ring.p, ring.pk,
                                  inputs.scaled(strata, tiny))
        _polarize_job(ps, ring, chars, f"polarize/{ring.name}/seeded")

    for series in ("bch", "exp_ad", "phi", "lambda"):
        ps.add(f"certify/{series}",
               lambda series=series: ol.freelie.certify(series, 6),
               _certify_ok(series))


def _polarize_job(ps, ring, chars, name):
    ol = ps.ol
    checks = [_polarize_ok(ring, nums) for nums in chars]
    ps.add(name,
           lambda: [ol.polarizations.polarize(
               ol.orbits.SkewForm(ol.orbits.Character(ring, nums)))
               for nums in chars],
           lambda results: all(check(r) for check, r in zip(checks, results)))


# -- cli ----------------------------------------------------------------------

def _records(text):
    return [line.split() for line in text.splitlines()]


def _record(recs, kind, **want):
    """First record of this kind whose fields include want."""
    for rec in recs:
        if rec[0] != kind:
            continue
        fields = dict(part.split("=", 1) for part in rec[1:] if "=" in part)
        if all(fields.get(k) == str(v) for k, v in want.items()):
            return fields
    return None


def cli(ps):
    """orbitlab.cli.main in-process, --format records, on files written
    from the seed; every call re-parses its input."""
    ol, rng, tiny = ps.ol, ps.rng, ps.tiny
    cat = ol.lazard.catalog()
    specs = ps.class2_specs()
    workdir = ps.workdir
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    rings = {name: cat[name] for name in ("h3_p5", "h3_p7", "h3xa1_p5",
                                          "u4_p5", "h3_z9")}
    for spec in specs:
        rings[spec["name"]] = inputs.build_class2(ol, spec)
    files = {name: write(f"{name}.ring", ol.lazard.serialize_ring(ring))
             for name, ring in rings.items()}
    if tiny:
        rings = {name: rings[name] for name in ("h3_p5", "h3_z9")}

    def run(argv, expect_rc, check):
        argv = list(argv) + ["--format", "records"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = ol.cli.main(argv)
            return rc, out.getvalue()

        def verdict(result):
            rc, text = result
            key = ("cli-output", tuple(argv))
            first = ps.known(key, lambda: result)
            return (rc == expect_rc and result == first
                    and check(_records(text)))

        ps.add(f"cli/{argv[0]}/" + "/".join(a.rsplit("/", 1)[-1] for a in argv[1:-2]),
               call, verdict)

    for name, ring in rings.items():
        run(["validate", files[name]], 0,
            lambda recs, ring=ring: _record(
                recs, "ring", name=ring.name, order=ring.size(),
                cls=ring.cls) is not None)
    for c in ((3,) if tiny else (2, 3, 4, 5, 6)):
        run(["bch", "--class", str(c)], 0,
            lambda recs, c=c: all(
                _record(recs, "certificate", degree=d, lcm=lcm) is not None
                for d, lcm in known.CERTIFICATE_LCMS["bch"].items() if d <= c))

    for name in rings:
        if name == "u4_p5":
            continue  # its census is on the census workload
        ring = rings[name]
        want = (_class2_orbits(next(s for s in specs if s["name"] == name))
                if name.startswith("c2_") else
                known.h3_orbits(3, 2) if name == "h3_z9" else
                _catalog_orbits(name))
        run(["orbits", files[name]], 0,
            lambda recs, want=want, ring=ring: _record(
                recs, "census", ring=ring.name, orbits=want) is not None)

    kernel_runs = [("h3_p5", 500), ("h3_z9", 40), ("u4_p5", 8),
                   ("c2_v3z1_p5", 10)]
    for name, samples in kernel_runs:
        if name not in rings:
            continue
        ring = rings[name]
        count = min(samples, ring.pk ** ring.rank)
        run(["kernel-check", files[name], "--samples", str(samples),
             "--seed", str(rng.randrange(2 ** 31))], 0,
            lambda recs, ring=ring, count=count: _record(
                recs, "kernel", ring=ring.name, characters=count) is not None)

    for name, ring in rings.items():
        nums = ol.orbits.generic_character(ring).nums
        _cli_polarize(run, files[name], ring, nums, None)
    for name in ("u4_p5", "c2_h5_p5"):
        if name not in rings:
            continue
        ring = rings[name]
        strata = (inputs.u4_strata(1, 0, 0) if name == "u4_p5"
                  else inputs.class2_strata(specs[0], 1, 0))
        nums = inputs.characters(rng, ring.p, ring.pk, strata)[0]
        _cli_polarize(run, files[name], ring, nums,
                      ",".join(f"{a}/{ring.pk}" for a in nums))

    shapes = [(5, 1, 1)] if tiny else [(5, 1, 1), (3, 1, 2), (3, 2, 1)]
    for p, k, r in shapes:
        m = ol.vmodel.build_hyperbolic(p, k, r).metric
        path = write(f"hyp{p}_{k}_{r}.metric", ol.metric.serialize_metric(m))
        run(["gauss", path], 0,
            lambda recs, card=isqrt(m.size()): _record(
                recs, "identity", card=card) is not None)
    m = _quadratic_metric(ol, 5)
    path = write("x2_5.metric", ol.metric.serialize_metric(m))
    run(["gauss", path], 0,
        lambda recs: _record(recs, "lagrangian", size=0) is not None
        and _record(recs, "identity") is None)

    for p, k, r in ([(3, 1, 1)] if tiny else [(3, 1, 1), (5, 1, 1)]):
        d = ol.vmodel.build_hyperbolic(p, k, r,
                                       section_seed=rng.randrange(2 ** 31))
        path = write(f"hyp{p}_{k}_{r}.vm", ol.vmodel.serialize_vmodel(d))
        run(["ribbon", path], 0,
            lambda recs, n=d.dim(): recs[-1][:3] == ["theorem1", "status=PASS",
                                                   f"dim={n}"])
        run(["ribbon", path, "--forge-eta"], 1,
            lambda recs: recs[-1][:2] == ["theorem1", "status=FAIL"]
            and _record(recs, "counterexample", check="theorem1") is not None)


def _cli_polarize(run, path, ring, nums, chi):
    want = _lagrangian_size(ring, nums)
    argv = ["polarize", path] + (["--chi", chi] if chi else [])
    run(argv, 0,
        lambda recs: _record(recs, "lagrangian",
                             size=want if want is not None else 0) is not None)


WORKLOADS = {"census": census, "ribbon": ribbon, "roundtrip": roundtrip,
             "cli": cli}
