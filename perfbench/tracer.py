"""Spans recorded from outside orbitlab, for the traced run only.

install() wraps the public functions listed in TARGETS wherever an
orbitlab module binds them (modules import by name, so vmodel.exp_mul and
lazard.exp_mul are separate bindings of one function) and uninstall() puts
the originals back.  Each call becomes a span (name, start, end, parent)
kept in flat arrays in memory; self time is a span's duration minus its
children's, and the arrays are written out once, at exit.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("arith", "howell", "arith.howell"),
    ("arith", "member", "arith.member"),
    ("arith", "kernel", "arith.kernel"),
    ("cyclotomic", "CycNumber.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycNumber.mul_root", "cyclotomic.mul"),
    ("cyclotomic", "CycNumber.__add__", "cyclotomic.add"),
    ("cyclotomic", "CycNumber.__sub__", "cyclotomic.add"),
    ("cyclotomic", "CycNumber.inverse", "cyclotomic.inverse"),
    ("freelie", "bch", "freelie"),
    ("freelie", "exp_ad", "freelie"),
    ("freelie", "phi_series", "freelie"),
    ("freelie", "lambda_series", "freelie"),
    ("freelie", "certify", "freelie"),
    ("lazard", "LieRing.__init__", "lazard.ring_build"),
    ("lazard", "exp_mul", "lazard.exp_mul"),
    ("lazard", "conjugate", "lazard.conjugate"),
    ("lazard", "batch_exp_mul", "lazard.batch"),
    ("lazard", "batch_conjugate", "lazard.batch"),
    ("lazard", "log_group", "lazard.log_group"),
    ("orbits", "enumerate_orbits", "orbits.census"),
    ("orbits", "kernel_lemma_check", "orbits.kernel_check"),
    ("orbits", "stabilizer_oracle", "orbits.stabilizer"),
    ("orbits", "radical", "orbits.radical"),
    ("orbits", "coadjoint_act", "orbits.coadjoint_act"),
    ("polarizations", "polarize", "polarizations.polarize"),
    ("metric", "gauss_sum", "metric.gauss_sum"),
    ("metric", "ribbon_qhat", "metric.ribbon_qhat"),
    ("metric", "st_matrices", "metric.st_matrices"),
    ("metric", "lagrangians", "metric.lagrangians"),
    ("vmodel", "validate_data", "vmodel.validate"),
    ("vmodel", "verify_ribbon", "vmodel.verify_ribbon"),
    ("cli", "main", "cli.main"),
)

# Rows handed to the batch kernels: the second argument of both.
ROW_COUNTED = "lazard.batch"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = ["job"] + sorted({span for _, _, span in TARGETS})
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rows = 0
        self._undo = []

    # span recording ---------------------------------------------------------

    def enter(self, span_id):
        idx = len(self.name)
        self.name.append(span_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span):
        span_id = self.ids[span]
        enter, exit_ = self.enter, self.exit
        if span == ROW_COUNTED:
            def wrapper(*args, **kwargs):
                self.rows += len(args[1])
                idx = enter(span_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = enter(span_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    # patching ---------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "orbitlab"
                                         or name.startswith("orbitlab."))]
        for mod_name, attr, span in TARGETS:
            owner = getattr(self.package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, span))
                self._undo.append((setattr, cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, orig))
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapper
                                self._undo.append((dict.__setitem__, val, k, orig))

    def uninstall(self):
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    # analysis ---------------------------------------------------------------

    def mark(self):
        return len(self.name), self.rows

    def summary(self, since):
        """calls and self seconds per span name for spans recorded after
        since = mark(), plus the batch rows counted in between."""
        lo, rows0 = since
        names = np.frombuffer(self.name, dtype=np.uint16)[lo:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:]
               - np.frombuffer(self.start, dtype=np.float64)[lo:])
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        out = {name: (int(calls[i]), float(self_s[i]))
               for i, name in enumerate(self.names)}
        return out, len(dur), self.rows - rows0

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(self.names), meta=np.array(repr(meta)))
