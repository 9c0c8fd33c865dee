"""Span tracer installed by the benchmark at symrank's module boundaries.

Each wrapped function records one span (name, start, end, parent) per call,
kept in memory and written out when the child ends.  Self time is a span's
duration minus the time covered by its child spans, accumulated per name as
calls finish, so the totals need no second pass over the spans.

Wrappers replace every name a symrank module binds to a wrapped function
(``symrank.prob.pochhammer``, ``symrank.oracle.det_mod`` ...), so calls that
cross a module boundary are counted wherever they come from; no file of the
program is changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("arith", "prob", "genfun", "symmat", "oracle", "cli")

# (metric prefix, module that defines it, attribute).  SymMatrix is a class
# whose classmethods symmat itself uses, so only oracle's binding (the
# per-matrix constructor call in the exhaustive sweep) is wrapped.
TARGETS = (
    ("arith.pochhammer", "arith", "pochhammer"),
    ("arith.pochhammer_infinite", "arith", "pochhammer_infinite"),
    ("arith.factorize", "arith", "factorize"),
    ("arith.is_prime", "arith", "is_prime"),
    ("prob.probability", "prob", "probability"),
    ("prob.p_recurrence5", "prob", "p_recurrence5"),
    ("prob.p_recurrence3", "prob", "p_recurrence3"),
    ("prob.q_explicit", "prob", "q_explicit"),
    ("prob.r_term", "prob", "r_term"),
    ("prob.q_limit", "prob", "q_limit"),
    ("prob.monotonicity_check", "prob", "monotonicity_check"),
    ("genfun.coefficient", "genfun", "coefficient"),
    ("genfun.gf", "genfun", "gf"),
    ("genfun.series", "genfun", "series"),
    ("genfun.verify_functional_eq", "genfun", "verify_functional_eq"),
    ("symmat.det_mod", "symmat", "det_mod"),
    ("symmat.m_rank", "symmat", "m_rank"),
    ("symmat.classify_case", "symmat", "classify_case"),
    ("symmat.random_symmetric", "symmat", "random_symmetric"),
    ("oracle.exhaustive", "oracle", "exhaustive"),
    ("oracle.monte_carlo", "oracle", "monte_carlo"),
    ("oracle.rank_histogram_mc", "oracle", "rank_histogram_mc"),
    ("cli.main", "cli", "main"),
    ("cli.dec12", "cli", "dec12"),
)
ORACLE_ONLY = (("symmat.SymMatrix", "oracle", "SymMatrix"),)


def _value_bits(result) -> int:
    v = result.value_P
    return v.numerator.bit_length() + v.denominator.bit_length()


# Work counters taken from a call's arguments or result, keyed by span name.
COUNTERS = {
    "prob.probability": ("prob.value_bits", "max", lambda args, res: _value_bits(res)),
    "oracle.exhaustive": ("oracle.exhaustive.matrices", "sum", lambda args, res: res.total),
    "oracle.monte_carlo": ("oracle.monte_carlo.matrices", "sum", lambda args, res: res.trials),
}


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                key, how, get = counter
                val = get(args, res)
                old = self.counters.get(key, 0)
                self.counters[key] = max(old, val) if how == "max" else old + val
            return res

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"symrank.{m}") for m in MODULES}
        for name, home, attr in TARGETS:
            fn = getattr(mods[home], attr)
            wrapper = self.wrap(name, fn)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        for name, home, attr in ORACLE_ONLY:
            setattr(mods[home], attr, self.wrap(name, getattr(mods[home], attr)))

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": len(self.span_start),
        }

    def write(self, path: str) -> None:
        """Write every span as four parallel columns plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
