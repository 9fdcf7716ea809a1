"""Command-line front end: parse input files, run verification pipelines,
emit reports.

Exit codes: 0 all assertions pass, 1 a verification assertion failed (a
counterexample record is emitted), 2 input or usage error, or an
exhaustive scan above its --cap (no verdict, so no counterexample).  The
records format is line-delimited "kind key=value ..." with a stable field
order and no timing fields, so fixed seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .freelie import bch, certify, tree_degree, tree_str
from .lazard import CrossCheckError, LazardError, parse_ring, validate
from .metric import MetricError, gauss_sum, lagrangians, parse_metric
from .orbits import (DUAL_CAP, CapError, Character, OrbitError, SkewForm,
                     dual_size, enumerate_orbits, generic_character,
                     kernel_lemma_all, kernel_lemma_check, orbit_histogram,
                     sample_characters)
from .polarizations import PolarizationError, polarize
from .vmodel import (VModelError, eta_matrix, parse_vmodel, validate_data,
                     verify_ribbon)
from .cyclotomic import CycNumber


class InputError(Exception):
    """Bad file, flag, or value; maps to exit 2."""


class Reporter:
    def __init__(self, fmt):
        self.records = fmt == "records"

    def emit(self, kind, human, **fields):
        if self.records:
            parts = [kind]
            for key, val in fields.items():
                parts.append(f"{key}={_field(val)}")
            print(" ".join(parts))
        else:
            print(human)


def _field(val):
    if isinstance(val, (tuple, list)):
        val = ",".join(str(v) for v in val)
    elif isinstance(val, bool):
        val = "true" if val else "false"
    else:
        val = str(val)
    if " " in val:
        val = '"' + val.replace('"', "'") + '"'
    return val


def _counterexample(rep, check, err):
    """Report a verification failure raised as an exception; exit code 1."""
    rep.emit("counterexample", f"counterexample ({check}): {err}",
             check=check, witness=str(err))
    return 1


def _pair(pair):
    alpha, beta = pair
    return ";".join((",".join(str(c) for c in alpha),
                     ",".join(str(c) for c in beta)))


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")


def _load_ring(path):
    text = _read(path)
    try:
        return parse_ring(text)
    except (ValueError, LazardError) as e:
        raise InputError(f"{path}: {e}")


# -- subcommands --------------------------------------------------------------

def cmd_validate(args, rep):
    ring = _load_ring(args.file)
    cert = validate(ring)
    rep.emit("ring",
             f"{cert['name']}: Z/{ring.p}^{ring.k} rank {cert['rank']}, "
             f"class {cert['class']}, order {cert['order']}",
             name=cert["name"], p=cert["p"], k=ring.k, rank=cert["rank"],
             cls=cert["class"], order=cert["order"])
    for i, size in enumerate(cert["lcs_sizes"]):
        rep.emit("lcs", f"  lower central term {i}: size {size}",
                 term=i, size=size)
    rep.emit("condition", f"Lazard condition: {cert['condition']}",
             value=cert["condition"])
    return 0


def cmd_bch(args, rep):
    if args.cls < 1 or args.cls > 6:
        raise InputError("--class must be between 1 and 6")
    series = bch(args.cls)
    items = sorted(series.coeffs.items(),
                   key=lambda it: (tree_degree(it[0]), str(it[0])))
    for tree, coeff in items:
        rep.emit("coeff",
                 f"degree {tree_degree(tree)}  {tree_str(tree):24s} {coeff}",
                 degree=tree_degree(tree), term=tree_str(tree), value=coeff)
    cert = certify("bch", args.cls)
    for degree in sorted(cert.bounds):
        lcm, exp = cert.bounds[degree]
        rep.emit("certificate",
                 f"degree {degree}: denominator lcm {lcm} divides "
                 f"({degree}!)^{exp}",
                 degree=degree, lcm=lcm, exponent=exp)
    return 0


def _at_least_one(flag, value):
    if value < 1:
        raise InputError(f"--{flag} must be at least 1, not {value}")


def cmd_orbits(args, rep):
    _at_least_one("cap", args.cap)
    ring = _load_ring(args.file)
    orbits = enumerate_orbits(ring, cap=args.cap)
    hist = orbit_histogram(orbits)
    total = sum(size * count for size, count in hist.items())
    sizes = ", ".join(f"{size}x{count}" for size, count in sorted(hist.items()))
    rep.emit("census",
             f"{len(orbits)} orbits; sizes {sizes}",
             ring=ring.name, orbits=len(orbits), dual=total)
    for size, count in sorted(hist.items()):
        rep.emit("orbitclass", f"  size {size}: {count} orbits",
                 size=size, count=count, stabilizer=ring.size() // size)
    if total != dual_size(ring):
        rep.emit("counterexample",
                 f"counterexample (census): orbit sizes sum to {total}, "
                 f"dual has {dual_size(ring)}",
                 check="census", sum=total, dual=dual_size(ring))
        return 1
    return 0


def cmd_kernel_check(args, rep):
    _at_least_one("samples", args.samples)
    _at_least_one("cap", args.cap)
    ring = _load_ring(args.file)
    if dual_size(ring) <= args.samples:
        count = kernel_lemma_all(ring, cap=args.cap)["characters"]
        mode = f"all {count}"
    else:
        count = 0
        for chi in sample_characters(ring, args.samples,
                                     random.Random(args.seed)):
            kernel_lemma_check(ring, chi, cap=args.cap)
            count += 1
        mode = f"{args.samples} sampled (seed {args.seed})"
    rep.emit("kernel",
             f"kernel = stabilizer for {count} characters of {ring.name} "
             f"({mode})",
             ring=ring.name, characters=count,
             mode="all" if mode.startswith("all") else "sampled",
             seed=args.seed)
    return 0


def cmd_polarize(args, rep):
    ring = _load_ring(args.file)
    if args.chi:
        try:
            chi = Character.from_values(ring, args.chi.split(","))
        except ValueError as e:
            raise InputError(f"--chi: {e}")
    else:
        chi = generic_character(ring)
    rep.emit("character",
             f"chi = ({', '.join(str(v) for v in chi.covector())}) "
             f"on {ring.name}",
             ring=ring.name, chi=chi.covector())
    steps, final, lag = polarize(SkewForm(chi))
    for i, pol in enumerate(steps):
        rep.emit("step",
                 f"  step {i}: |h| = {pol.h.size()}, |perp| = "
                 f"{pol.perp.size()}, heisenberg = {pol.heisenberg}",
                 index=i, h=pol.h.size(), perp=pol.perp.size(),
                 heisenberg=pol.heisenberg, strong=pol.heisenberg_strong)
    if lag is not None:
        gens = [",".join(str(c) for c in g) for g in lag.h.generators()]
        rep.emit("lagrangian",
                 f"lagrangian of size {lag.h.size()}: generators "
                 + " ".join(gens),
                 size=lag.h.size(), generators=";".join(gens))
    else:
        rep.emit("lagrangian",
                 "no Lagrangian at this level (|g|/|c| is not a square)",
                 size=0, generators="none")
    return 0


def cmd_gauss(args, rep):
    text = _read(args.file)
    try:
        m = parse_metric(text)
    except (ValueError, MetricError) as e:
        raise InputError(f"{args.file}: {e}")
    g = gauss_sum(m)
    norm = g * g.conj()
    rep.emit("metric",
             f"{m!r}: G = {g}, G conj(G) = {norm}",
             name=m.name, order=m.size(), nondegenerate=m.nondegenerate,
             gauss=g.serialize(), norm=norm.serialize())
    lags = lagrangians(m)
    for i, sub in enumerate(lags):
        members = sorted(sub)
        rep.emit("lagrangian",
                 f"  lagrangian {i}: size {len(sub)}, members "
                 + " ".join(",".join(str(c) for c in x) for x in members),
                 index=i, size=len(sub),
                 members=";".join(",".join(str(c) for c in x)
                                  for x in members))
    if not lags:
        rep.emit("lagrangian", "  no Lagrangian subgroup", index=-1, size=0,
                 members="none")
    if lags and m.nondegenerate:
        card = len(lags[0])
        if not (g.is_rational() and g.rational_value() == card):
            rep.emit("counterexample",
                     f"counterexample (gauss-card): G = {g} but a "
                     f"Lagrangian of size {card} exists",
                     check="gauss-card", gauss=g.serialize(), card=card)
            return 1
        rep.emit("identity", f"G = Card(a) = {card}", card=card)
    return 0


def cmd_ribbon(args, rep):
    text = _read(args.file)
    try:
        d = parse_vmodel(text)
    except (ValueError, LazardError, MetricError) as e:
        raise InputError(f"{args.file}: {e}")
    validate_data(d)
    override = None
    if args.forge_eta:
        override = eta_matrix(d)
        override[0][0] = override[0][0] + CycNumber.one(
            d.metric.p, d.metric.level)
    report = verify_ribbon(d, eta_override=override)
    for check in report["checks"]:
        rep.emit("check",
                 f"{check['check']:13s} {check['status']}  {check['detail']} "
                 f"({check['seconds']}s)",
                 name=check["check"], status=check["status"])
    for ce in report["counterexamples"]:
        witness = ce["witness"]
        if isinstance(witness, dict) and "row" in witness:
            rep.emit("counterexample",
                     f"counterexample ({ce['check']}): entry at row "
                     f"{witness['row']}, col {witness['col']}: eta = "
                     f"{witness['eta']}, qhat = {witness['qhat']}",
                     check=ce["check"], row=_pair(witness["row"]),
                     col=_pair(witness["col"]), eta=witness["eta"],
                     qhat=witness["qhat"])
        else:
            rep.emit("counterexample",
                     f"counterexample ({ce['check']}): {witness}",
                     check=ce["check"], witness=witness)
    verdict = "PASS" if report["pass"] else "FAIL"
    rep.emit("theorem1",
             f"Theorem 1: {verdict} (dim V = {report['dim']})",
             status=verdict, dim=report["dim"], model=report["name"])
    return 0 if report["pass"] else 1


# -- argument plumbing ---------------------------------------------------------

@functools.cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "records"),
                        default="human", help="report format")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=DUAL_CAP,
                        help=f"enumeration cap (default {DUAL_CAP})")

    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Exact verification for the orbit method on finite "
                    "nilpotent Lie rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="Lie-ring axioms and Lazard condition")
    p.add_argument("file", help="ring file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("bch", parents=[common],
                       help="Campbell-Hausdorff coefficient table")
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.set_defaults(run=cmd_bch)

    p = sub.add_parser("orbits", parents=[capped], help="coadjoint census")
    p.add_argument("file", help="ring file")
    p.set_defaults(run=cmd_orbits, check="orbits")

    p = sub.add_parser("kernel-check", parents=[capped],
                       help="kernel = stabilizer suite")
    p.add_argument("file", help="ring file")
    p.add_argument("--samples", type=int, default=500,
                   help="characters to sample when there are more")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(run=cmd_kernel_check, check="kernel")

    p = sub.add_parser("polarize", parents=[common],
                       help="polarization chain report")
    p.add_argument("file", help="ring file")
    p.add_argument("--chi", help="character values a/p^m, comma separated "
                   "(default: a generic character)")
    p.set_defaults(run=cmd_polarize, check="polarize")

    p = sub.add_parser("gauss", parents=[common], help="metric-group report")
    p.add_argument("file", help="metric file")
    p.set_defaults(run=cmd_gauss, check="gauss")

    p = sub.add_parser("ribbon", parents=[common],
                       help="twist = ribbon element suite")
    p.add_argument("file", help="v-model file")
    p.add_argument("--forge-eta", action="store_true",
                   help="perturb one twist entry (negative control)")
    p.set_defaults(run=cmd_ribbon, check="metric")
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.  The parser is built
    once per process, on the first call; each call parses into a fresh
    namespace, so no flag carries over from one call to the next."""
    args = _build_parser().parse_args(argv)
    rep = Reporter(args.format)
    try:
        return args.run(args, rep)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CapError as e:
        print(f"cap exceeded: {e}; raise --cap", file=sys.stderr)
        return 2
    except CrossCheckError as e:
        return _counterexample(rep, e.check, e)
    except VModelError as e:
        return _counterexample(rep, e.axiom, e)
    except (OrbitError, PolarizationError, MetricError) as e:
        # the subcommand names the check a bare verification error fails
        return _counterexample(rep, getattr(args, "check", args.command), e)


if __name__ == "__main__":
    sys.exit(main())
