"""orbitlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

A single caller runs the workload's jobs one after another (closed loop,
one job in flight, no threads), repeating whole passes while another pass
fits in --seconds, and until at least MIN_JOBS jobs have run.  Timings are
CPU seconds of this process, scaled to a reference host speed (see
REFERENCE_PROBE_S).  Every verdict is checked after its pass against an
answer known independently of orbitlab.  The last line
of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced passes; only traced passes have wrappers installed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy

from tracer import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_JOBS = 100          # p90 then has at least ten jobs beyond it
HARD_STOP_S = 150       # no new pass after this, whatever --seconds says
# Timings are CPU time, since on a shared host wall time also counts the
# stretches in which others run on its cores.  CPU time still drifts by
# 20-40% over tens of seconds with the load of the other tenants.  So
# speed_probe() runs between jobs, at most every PROBE_EVERY_S, and each
# job's CPU time is scaled by REFERENCE_PROBE_S over the mean of the probes
# just before and after it: timings read as CPU seconds at the host speed
# at which the probe takes REFERENCE_PROBE_S, its usual time on this host.
REFERENCE_PROBE_S = 2.5e-3
PROBE_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s", "pass_cpu_s": "s", "jobs_per_cpu_s": "1/s",
    "job_p50_cpu_s": "s", "job_p90_cpu_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# per-layer metric -> (unit, source); sources: ("calls"|"self_s", span),
# or a counter read from the job results, the tracer or the run.
PER_LAYER = {
    "orbits.kernel_check.calls": ("count", ("calls", "orbits.kernel_check")),
    "orbits.kernel_check.self_s": ("s", ("self_s", "orbits.kernel_check")),
    "orbits.stabilizer.self_s": ("s", ("self_s", "orbits.stabilizer")),
    "orbits.radical.calls": ("count", ("calls", "orbits.radical")),
    "orbits.radical.self_s": ("s", ("self_s", "orbits.radical")),
    "orbits.coadjoint_act.calls": ("count", ("calls", "orbits.coadjoint_act")),
    "orbits.perp_cases": ("count", ("result", "perp_cases")),
    "orbits.census.self_s": ("s", ("self_s", "orbits.census")),
    "orbits.census.characters": ("count", ("result", "census_characters")),
    "arith.howell.calls": ("count", ("calls", "arith.howell")),
    "arith.howell.self_s": ("s", ("self_s", "arith.howell")),
    "arith.member.calls": ("count", ("calls", "arith.member")),
    "arith.member.self_s": ("s", ("self_s", "arith.member")),
    "arith.kernel.calls": ("count", ("calls", "arith.kernel")),
    "arith.kernel.self_s": ("s", ("self_s", "arith.kernel")),
    "lazard.batch.rows": ("count", ("trace", "batch_rows")),
    "lazard.batch.self_s": ("s", ("self_s", "lazard.batch")),
    "lazard.exp_mul.calls": ("count", ("calls", "lazard.exp_mul")),
    "lazard.exp_mul.self_s": ("s", ("self_s", "lazard.exp_mul")),
    "lazard.conjugate.calls": ("count", ("calls", "lazard.conjugate")),
    "lazard.conjugate.self_s": ("s", ("self_s", "lazard.conjugate")),
    "lazard.log_group.self_s": ("s", ("self_s", "lazard.log_group")),
    "lazard.ring_build.calls": ("count", ("calls", "lazard.ring_build")),
    "lazard.ring_build.self_s": ("s", ("self_s", "lazard.ring_build")),
    "cyclotomic.mul.calls": ("count", ("calls", "cyclotomic.mul")),
    "cyclotomic.add.calls": ("count", ("calls", "cyclotomic.add")),
    "cyclotomic.inverse.calls": ("count", ("calls", "cyclotomic.inverse")),
    "cyclotomic.self_s": ("s", ("self_s", ("cyclotomic.mul", "cyclotomic.add",
                                           "cyclotomic.inverse"))),
    "vmodel.validate.self_s": ("s", ("self_s", "vmodel.validate")),
    "vmodel.verify_ribbon.self_s": ("s", ("self_s", "vmodel.verify_ribbon")),
    **{f"vmodel.check.{c}_s": ("s", ("result", f"check:{c}"))
       for c in ("action", "equivariance", "gu-rank", "h-beta", "gauss-card",
                 "theorem1")},
    "metric.gauss_sum.self_s": ("s", ("self_s", "metric.gauss_sum")),
    "metric.ribbon_qhat.self_s": ("s", ("self_s", "metric.ribbon_qhat")),
    "metric.st_matrices.self_s": ("s", ("self_s", "metric.st_matrices")),
    "metric.lagrangians.self_s": ("s", ("self_s", "metric.lagrangians")),
    "polarizations.polarize.calls": ("count", ("calls", "polarizations.polarize")),
    "polarizations.polarize.self_s": ("s", ("self_s", "polarizations.polarize")),
    "polarizations.chain_steps": ("count", ("result", "chain_steps")),
    "freelie.self_s": ("s", ("self_s", "freelie")),
    "cli.main.calls": ("count", ("calls", "cli.main")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "cli.records_bytes": ("B", ("result", "records_bytes")),
    "trace.spans": ("count", ("trace", "spans")),
    "trace.overhead_s": ("s", ("run", "overhead_s")),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per pass and no job minimum (self-test)")
    return ap.parse_args(argv)


def import_orbitlab():
    """orbitlab from this checkout's src/, or None."""
    src = ROOT / "src"
    if not (src / "orbitlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import orbitlab
    import orbitlab.cli  # noqa: F401  (not imported by the package)
    if not Path(orbitlab.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return orbitlab


def result_counters(job_results):
    """Counters read off the verdicts of one pass."""
    c = {"perp_cases": 0, "census_characters": 0, "chain_steps": 0,
         "records_bytes": 0}
    for job, ok, value, _ in job_results:
        if not ok:
            continue
        kind = job.name.split("/", 1)[0]
        if kind == "kernel":
            c["perp_cases"] += value["perp_cases"]
        elif kind == "census":
            c["census_characters"] += sum(o.size for o in value)
        elif kind == "polarize":
            c["chain_steps"] += sum(len(steps) for steps, _, _ in value)
        elif kind == "cli":
            text = value[1]
            c["records_bytes"] += len(text.encode())
            for line in text.splitlines():
                if line.startswith("step "):
                    c["chain_steps"] += 1
                elif line.startswith("census "):
                    c["census_characters"] += int(line.rsplit("dual=", 1)[1])
        elif kind in ("verify", "forged"):
            report = value[1] if kind == "verify" else value
            for check in report["checks"]:
                key = f"check:{check['check']}"
                c[key] = c.get(key, 0.0) + check["seconds"]
    return c


_PROBE_TABLE = {(i, i * 7 % 1009): i for i in range(40000)}
_PROBE_MATRIX = numpy.arange(36, dtype=numpy.int64).reshape(6, 6)


def speed_probe():
    """CPU seconds of a fixed computation independent of orbitlab, mixing
    the kinds of work orbitlab does: lookups in a large dict, Fraction
    sums, small numpy products mod p, and sorting and hashing tuples."""
    t = time.process_time()
    acc, total = 0, Fraction(0)
    for i in range(0, 40000, 40):
        acc += _PROBE_TABLE[(i, i * 7 % 1009)]
    for i in range(1, 60):
        total += Fraction(1, i)
    for i in range(150):
        acc += int(((_PROBE_MATRIX * i) % 7).sum())
    rows = sorted(tuple(j * i % 11 for j in range(6)) for i in range(300))
    len(set(rows))
    return time.process_time() - t


def run_pass(ol, build, args, memo, workdir, tracer):
    t0 = time.process_time()
    ps = Pass(ol, args.workload, args.seed, args.tiny, workdir, memo)
    build(ps)
    # Jobs of one kind are spread over the pass, so that a statistic of one
    # kind (the median job is often of a single kind) samples the whole
    # pass and not one stretch of this machine's varying speed.  The order
    # is the same in every pass of a run.
    random.Random(args.seed).shuffle(ps.jobs)
    setup_s = time.process_time() - t0
    # the last pass's garbage is not collected on this pass's clock
    gc.collect()

    job_results = []
    if tracer is not None:
        tracer.install()
        mark = tracer.mark()
    # probe_at[k] is the index of the job that probes[k] ran before
    probes, probe_at, next_probe = [], [], 0.0
    first, first_wall = time.process_time(), time.perf_counter()
    for i, job in enumerate(ps.jobs):
        if time.perf_counter() >= next_probe:
            probes.append(speed_probe())
            probe_at.append(i)
            next_probe = time.perf_counter() + PROBE_EVERY_S
        span = tracer.enter(0) if tracer is not None else None
        t = time.process_time()
        try:
            value, ok = job.call(), True
        except Exception as exc:  # a raised job is a failed verdict
            value, ok = exc, False
        dt = time.process_time() - t
        if span is not None:
            tracer.exit(span)
        job_results.append((job, ok, value, dt))
    cpu = time.process_time() - first - sum(probes)
    wall = time.perf_counter() - first_wall
    probes.append(speed_probe())
    probe_at.append(len(ps.jobs))
    # each job at the speed measured by the probes just before and after it
    scale = []
    for i in range(len(ps.jobs)):
        k = bisect.bisect_right(probe_at, i)
        scale.append(2 * REFERENCE_PROBE_S / (probes[k - 1] + probes[k]))
    latencies = [r[3] * f for r, f in zip(job_results, scale)]
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary(mark)

    failures = []
    for job, ok, value, _ in job_results:
        if ok:
            try:
                ok = bool(job.check(value))
            except Exception as exc:
                ok, value = False, exc
        if not ok:  # keep text only: a traceback would pin the whole pass
            failures.append((job.name, str(value)[:160]))
    return {"setup_s": setup_s * REFERENCE_PROBE_S / probes[0],
            "scaled_s": sum(latencies), "cpu_s": cpu, "wall_s": wall,
            "speed": statistics.fmean(scale), "jobs": len(job_results),
            "latencies": latencies, "failures": failures,
            "counters": result_counters(job_results), "layers": layers}


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density over their
    ranks.  The jobs of a workload differ in size by orders of magnitude,
    and the plain sample quantile jumps between neighbouring jobs when two
    of them swap places; this estimate moves smoothly instead."""
    x = numpy.sort(numpy.asarray(values, dtype=float))
    n, cells = len(x), 32
    t = (numpy.arange(n * cells) + 0.5) / (n * cells)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_pdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    w = numpy.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(w @ x / w.sum())


def end_to_end(passes, import_s):
    lat = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    p90 = quantile(lat, 0.9)
    print(f"# orbitlab imported after {import_s:.3f} s of CPU")
    print(f"# job latencies: {len(lat)} jobs, "
          f"{sum(1 for x in lat if x > p90)} beyond p90; unscaled pass: "
          f"cpu {statistics.median(p['cpu_s'] for p in passes):.3f} s, "
          f"wall {statistics.median(p['wall_s'] for p in passes):.3f} s")
    return {
        # the import is scaled at the speed of the pass that follows it
        "setup_s": import_s * passes[0]["speed"]
        + statistics.median(p["setup_s"] for p in passes),
        "pass_cpu_s": statistics.median(p["scaled_s"] for p in passes),
        "jobs_per_cpu_s": statistics.median(p["jobs"] / p["scaled_s"]
                                            for p in passes),
        "job_p50_cpu_s": quantile(lat, 0.5),
        "job_p90_cpu_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(passes):
    traced = [p for p in passes if p["layers"] is not None]
    untraced = [p for p in passes if p["layers"] is None]
    run = {"overhead_s": statistics.median(p["scaled_s"] for p in traced)
           - statistics.median(p["scaled_s"] for p in untraced)}
    out = {}
    for name, (_, (kind, key)) in PER_LAYER.items():
        values = []
        for p in traced:
            spans, nspans, rows = p["layers"]
            if kind == "calls":
                values.append(spans[key][0])
            elif kind == "self_s":
                keys = key if isinstance(key, tuple) else (key,)
                values.append(sum(spans[k][1] for k in keys))
            elif kind == "result":
                values.append(p["counters"].get(key, 0))
            elif kind == "trace":
                values.append(nspans if key == "spans" else rows)
            else:
                values.append(run[key])
        out[name] = statistics.median(values)
    return out


def main(argv=None):
    args = parse_args(argv)
    ol = import_orbitlab()
    if ol is None:
        print(f"perfbench: no orbitlab package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.process_time()
    build = WORKLOADS[args.workload]
    tracer = Tracer(ol) if args.trace else None
    workdir = OUT / f"work-{os.getpid()}"
    memo = {}
    passes = []
    # the job minimum serves the p90 of untraced runs only
    min_jobs = 1 if args.tiny or tracer is not None else MIN_JOBS
    t0 = time.perf_counter()
    try:
        while True:
            t_pass = time.perf_counter()
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(ol, build, args, memo, workdir,
                                   tracer if traced else None))
            p = passes[-1]
            print(f"# pass {len(passes)}{' traced' if traced else ''}: "
                  f"{p['jobs']} jobs, setup {p['setup_s']:.3f} s, "
                  f"cpu {p['cpu_s']:.3f} s, wall {p['wall_s']:.3f} s, "
                  f"speed scale {p['speed']:.3f}, "
                  f"{len(p['failures'])} failed")
            now = time.perf_counter()
            if tracer is not None and not traced:
                continue  # a traced run ends on a traced pass
            # stop when the next pass, as long as this one, would not fit
            if now - t0 >= HARD_STOP_S or (
                    2 * now - t_pass - t0 > args.seconds
                    and sum(q["jobs"] for q in passes) >= min_jobs):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = dict(f for p in passes for f in p["failures"])
    for name, text in failures.items():
        print(f"# failed {name}: {KNOWN_DEFECTS.get(name, 'unexpected')}: {text}")
    correct = set(failures) <= set(KNOWN_DEFECTS)
    print(f"# env: python {platform.python_version()}, numpy "
          f"{numpy.__version__}, nproc {os.cpu_count()}")
    if tracer is not None:
        metrics = per_layer(passes)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        tracer.write(OUT / f"spans-{args.workload}.npz",
                     {"workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end(passes, import_s)
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
