"""Spans around calls into gapforge's public functions, taken from outside.

The program is not changed: each listed function is replaced, in every
gapforge module that binds its name, by a wrapper that records one span
(name, start, end, parent span, request).  ``cli`` and ``covering`` import
functions by name, so wrapping only the defining module would miss their
calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# span name -> (defining module, attribute)
SPANS = {
    "sieve.prime_count_ap": ("sieve", "prime_count_ap"),
    "sieve.primes_up_to": ("sieve", "primes_up_to"),
    "sieve.max_prime_gap": ("sieve", "max_prime_gap"),
    "sieve.rough_gap_scan": ("sieve", "rough_gap_scan"),
    "sieve.primes_in_range": ("sieve", "primes_in_range"),
    "covering.build_certificate": ("covering", "build_certificate"),
    "covering.compute_u": ("covering", "compute_u"),
    "covering.forced_classes": ("covering", "forced_classes"),
    "covering.sieve_survivors": ("covering", "sieve_survivors"),
    "covering.greedy_cover": ("covering", "greedy_cover"),
    "covering.match_large_primes": ("covering", "match_large_primes"),
    "covering.verify_certificate": ("covering", "verify_certificate"),
    "covering.crt_witness": ("covering", "crt_witness"),
    "arith.is_prime": ("arith", "is_prime"),
    "arith.crt_combine": ("arith", "crt_combine"),
    "arith.multi_mod": ("arith", "multi_mod"),
    "arith.factorize": ("arith", "factorize"),
    "jacobsthal.jacobsthal_exact": ("jacobsthal", "jacobsthal_exact"),
    "jacobsthal.bound_from_certificate": ("jacobsthal", "jacobsthal_bound_from_certificate"),
    "model.certificate_to_json": ("model", "certificate_to_json"),
    "model.certificate_from_dict": ("model", "certificate_from_dict"),
    "cli.main": ("cli", "main"),
}

# per-layer metric -> (span name, statistic); statistic is busy "s",
# "self_s" (busy minus child spans) or "calls"
LAYER_METRICS = {
    "sieve.prime_count_ap_s": ("sieve.prime_count_ap", "s"),
    "sieve.prime_count_ap_calls": ("sieve.prime_count_ap", "calls"),
    "sieve.primes_up_to_s": ("sieve.primes_up_to", "s"),
    "sieve.max_prime_gap_s": ("sieve.max_prime_gap", "s"),
    "sieve.rough_gap_scan_s": ("sieve.rough_gap_scan", "s"),
    "sieve.primes_in_range_s": ("sieve.primes_in_range", "s"),
    "covering.build_certificate_self_s": ("covering.build_certificate", "self_s"),
    "covering.compute_u_s": ("covering.compute_u", "s"),
    "covering.forced_classes_s": ("covering.forced_classes", "s"),
    "covering.sieve_survivors_s": ("covering.sieve_survivors", "s"),
    "covering.greedy_cover_s": ("covering.greedy_cover", "s"),
    "covering.match_large_primes_s": ("covering.match_large_primes", "s"),
    "covering.verify_certificate_self_s": ("covering.verify_certificate", "self_s"),
    "covering.verify_certificate_calls": ("covering.verify_certificate", "calls"),
    "covering.crt_witness_self_s": ("covering.crt_witness", "self_s"),
    "covering.crt_witness_calls": ("covering.crt_witness", "calls"),
    "arith.is_prime_s": ("arith.is_prime", "s"),
    "arith.is_prime_calls": ("arith.is_prime", "calls"),
    "arith.crt_combine_self_s": ("arith.crt_combine", "self_s"),
    "arith.multi_mod_s": ("arith.multi_mod", "s"),
    "arith.multi_mod_calls": ("arith.multi_mod", "calls"),
    "arith.factorize_s": ("arith.factorize", "s"),
    "jacobsthal.jacobsthal_exact_s": ("jacobsthal.jacobsthal_exact", "s"),
    "jacobsthal.bound_from_certificate_self_s": ("jacobsthal.bound_from_certificate", "self_s"),
    "model.certificate_to_json_s": ("model.certificate_to_json", "s"),
    "model.certificate_from_dict_s": ("model.certificate_from_dict", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}

MODULES = ("gapforge", "gapforge.arith", "gapforge.sieve", "gapforge.covering",
           "gapforge.jacobsthal", "gapforge.model", "gapforge.cli")


class Tracer:
    """Records spans of wrapped calls.

    ``op`` tags each span with the request that caused it: the operation's
    index in the plan plus the round times the plan's length.
    """

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = -1
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every listed function in every module that binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for span, (mod, attr) in SPANS.items():
            original = getattr(importlib.import_module(f"gapforge.{mod}"), attr, None)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        start, end, name, parent, op_of, stack = (
            self.start, self.end, self.name, self.parent, self.op_of, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            sel = a["name"] == nid
            out[span] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out
