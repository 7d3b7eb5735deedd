"""Timed closed loop for one workload; run by run.py in a process of its own.

Usage: python3 perfbench/worker.py RUNDIR SECONDS TRACE

Reads RUNDIR/plan.json, repeats the whole round of operations until SECONDS
have passed (finishing the round in progress), and writes RUNDIR/result.json.
One operation starts when the previous one returns.  Each operation goes
through ``gapforge.cli.main`` with stdout and stderr captured, or through the
public library call where no command exists.  Only the calls are timed;
deriving hostile certificates and hashing outputs happen between them.
Before each operation the reference kernel (reference.py) runs and is timed
on its own, so that the run records how fast the host was meanwhile.
The outputs of the first round are kept whole for run.py to check; later
rounds keep a hash, which must equal the first round's.

This process runs nothing but the timed loop, so its peak resident set is
the peak over the timed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import reference_s  # noqa: E402
from workloads import derive_certificate  # noqa: E402


def _import_gapforge():
    import gapforge
    import gapforge.cli  # noqa: F401  (the package does not import the CLI)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gapforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"gapforge imported from {gapforge.__file__}, not from {src}")
    return gapforge


def _run_op(gf, op: dict) -> tuple[float, dict]:
    """Run one operation; return (seconds, output record)."""
    out, err = io.StringIO(), io.StringIO()
    record: dict = {}
    if op["kind"] == "cli":
        main = gf.cli.main
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                record["rc"] = main(op["argv"])
            except Exception as exc:  # a traceback the command would print
                record["raised"] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if op["check"] == "cover" and record.get("rc") == 0:
            with open(op["cert"], encoding="utf-8") as fh:
                record["file"] = fh.read()
    else:
        t0 = time.perf_counter()
        try:
            if op["kind"] == "bound":
                with open(op["cert"], encoding="utf-8") as fh:
                    cert, _ = gf.model.certificate_from_dict(json.load(fh))
                val = gf.jacobsthal.jacobsthal_bound_from_certificate(cert)
            else:
                rec = gf.sieve.rough_gap_scan(op["u"], op["lo"], op["hi"])
        except Exception as exc:
            record["raised"] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if "raised" not in record and op["kind"] == "bound":
            # hex: the flanks are far past Python's 4300-digit int/str limit
            record.update(rc=0, u=val.u, value=val.value, exact=val.exact,
                          gap=val.witness.gap, lo=hex(val.witness.lo),
                          hi=hex(val.witness.hi))
        elif "raised" not in record:
            record.update(rc=0, gap=rec.gap, lo=rec.lo, hi=rec.hi)
    record["stdout"] = out.getvalue()
    record["stderr"] = err.getvalue()
    return elapsed, record


def main() -> int:
    rundir, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    root = os.getcwd()
    with open(os.path.join(rundir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    gf = _import_gapforge()
    os.chdir(rundir)
    # warm-up outside the timing: first-call costs a user pays once
    with contextlib.redirect_stdout(io.StringIO()):
        gf.cli.main(["gaps", "--limit", "1000"])
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    elapsed = [[] for _ in plan]
    hashes = [[] for _ in plan]
    reference = []
    first: list = [None] * len(plan)
    rounds = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < seconds:
        for i, op in enumerate(plan):
            derive = op.get("derive")
            if derive:
                with open(derive["from"], encoding="utf-8") as fh:
                    text = derive_certificate(fh.read(), derive)
                with open(derive["to"], "w", encoding="utf-8") as fh:
                    fh.write(text)
            reference.append(reference_s())
            if tracer is not None:
                tracer.op = rounds * len(plan) + i
            dt, record = _run_op(gf, op)
            elapsed[i].append(dt)
            blob = json.dumps(record, sort_keys=True)
            hashes[i].append(hashlib.sha256(blob.encode()).hexdigest())
            if rounds == 0:
                first[i] = record
        rounds += 1
    loop_s = time.perf_counter() - loop_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    os.chdir(root)
    result = {"rounds": rounds, "loop_s": loop_s, "peak_rss_kb": peak_kb,
              "elapsed": elapsed, "reference": reference, "hashes": hashes,
              "first": first}
    if tracer is not None:
        import numpy as np

        np.savez(os.path.join(rundir, "spans.npz"), **tracer.arrays())
        result["spans"] = tracer.summary()
        result["absent"] = tracer.absent
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
