"""gapforge benchmark: one workload per call, outputs checked independently.

Usage, from the root of a gapforge checkout:

    python3 perfbench/run.py --workload certify|hypothesis|explore \
        --seed N --seconds S --trace 0|1

Measures set-up (a fresh interpreter importing gapforge and building its
Config, median of several starts, half before the timed loop and half after
it), runs the workload's seeded round of operations in a closed loop for S
seconds in a worker process of its own (perfbench/worker.py), then checks
every output here, outside the timing and outside the worker's resident
set.  The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics
are end-to-end (wall_ref, setup_s, peak_rss_mb); with --trace 1 the worker
wraps gapforge's public functions and the metrics are per layer, per round.
The time of one round (wall_s; trace.wall_s when traced) is the sum over
operations of each operation's median over the rounds of the run; wall_ref
is that time divided by the median time of the reference kernel
(perfbench/reference.py), which the worker runs before every operation.
Results and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import PLANS, make_plan  # noqa: E402

SETUP_REPEATS = 5  # timed starts before the loop, and as many after it
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import gapforge; "
              "gapforge.from_env()")
WORKER_TIMEOUT_S = 150


def measure_setup(warm: bool) -> list[float]:
    """Seconds for fresh interpreters to import gapforge and build Config."""
    times = []
    for i in range(SETUP_REPEATS + (not warm)):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE])
        # a blocking wait: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would round the measured time up
        guard = threading.Timer(60, proc.kill)
        guard.start()
        rc = proc.wait()
        elapsed = time.perf_counter() - t0
        guard.cancel()
        if rc != 0:
            raise RuntimeError(f"importing gapforge failed with exit code {rc}")
        if warm or i:  # the first start compiles bytecode, which users pay once
            times.append(elapsed)
    return times


def check_op(op: dict, rec: dict, outputs: dict) -> list[str]:
    """Problems with one operation's first-round output."""
    kind = op["check"]
    if kind == "cover":
        obj = json.loads(rec["file"])
        outputs[op["cert"]] = obj
        if op["delta"] is None:
            x, q, b = op["x"], op["q"], op["b"]
            delta = Fraction(checks.count_ap(x, q, b) * checks.totient(q), x)
        else:
            delta = Fraction(op["delta"])
        return (checks.check_certificate(obj, op["x"], op["q"], op["b"], delta)
                + checks.check_cover_output(rec["stdout"], obj))
    if kind == "verify":
        return checks.check_report(rec["stdout"], op["strict"])
    if kind == "mutant":
        return checks.check_rejection(rec["stdout"])
    if kind == "malformed":
        return [] if "Traceback" not in rec["stderr"] else ["traceback printed"]
    if kind == "bound":
        return checks.check_bound(rec, outputs[op["cert"]])
    if kind == "gaps":
        return checks.check_gaps(rec["stdout"], op["limit"])
    if kind == "jacobsthal":
        return checks.check_jacobsthal(rec["stdout"], op["u"])
    if kind == "scan":
        return checks.check_scan(rec["stdout"], op["x"], op["qmin"], op["qmax"], op["top"])
    if kind == "rough":
        return checks.check_rough(rec, op["u"], op["lo"], op["hi"])
    raise ValueError(f"unknown check {kind}")


def judge(plan: list[dict], result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every round of the run."""
    rounds = result["rounds"]
    failed, problems, outputs = 0, [], {}
    for i, op in enumerate(plan):
        rec = result["first"][i]
        if len(set(result["hashes"][i])) != 1:
            problems.append(f"{op['id']}: output differs between rounds")
        ok = "raised" not in rec and rec.get("rc") in op["expect"]
        if not ok:
            failed += rounds
            if not op.get("known_fault"):
                print(f"FAILED {op['id']}: {rec.get('raised', rec.get('rc'))} "
                      f"{rec['stderr'].strip()[:200]}", file=sys.stderr)
            continue
        problems += [f"{op['id']}: {p}" for p in check_op(op, rec, outputs)]
    return rounds * len(plan), failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gapforge", "__init__.py")):
        print("run from the root of a gapforge checkout (no src/gapforge here)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(out_dir, f"run-{tag}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        setups = measure_setup(warm=False) if args.trace == 0 else []
        plan = make_plan(args.workload, args.seed)
        with open(os.path.join(rundir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), rundir,
                        str(args.seconds), str(args.trace)],
                       check=True, timeout=WORKER_TIMEOUT_S)
        if args.trace == 0:
            setups += measure_setup(warm=True)
        with open(os.path.join(rundir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        attempted, failed, problems = judge(plan, result)
        if args.trace:
            shutil.move(os.path.join(rundir, "spans.npz"),
                        os.path.join(out_dir, f"spans-{tag}.npz"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    rounds = result["rounds"]
    per_op = {op["id"]: statistics.median(t) for op, t in zip(plan, result["elapsed"])}
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(plan)} operations "
          f"in {result['loop_s']:.2f} s")
    for op_id, t in per_op.items():
        print(f"  {op_id:<24} {t:9.4f} s (median of {rounds})")
    wall_s = sum(per_op.values())
    reference_s = statistics.median(result["reference"])
    print(f"  round {wall_s:.4f} s, reference kernel {reference_s * 1000:.3f} ms "
          f"(median of {len(result['reference'])})")
    if args.trace == 0:
        metrics = {
            "wall_ref": {"value": wall_s / reference_s, "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    else:
        spans = result["spans"]
        metrics = {"trace.wall_s": {"value": wall_s, "unit": "s"}}
        for name, (span, stat) in LAYER_METRICS.items():
            value = spans.get(span, {}).get(stat, 0) / rounds
            metrics[name] = {"value": value, "unit": "count" if stat == "calls" else "s"}
        if result["absent"]:
            print(f"absent from gapforge (reported as 0): {', '.join(result['absent'])}")
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**line, "wall_s": wall_s, "reference_s": reference_s,
                   "per_op_s": per_op, "rounds": rounds,
                   "elapsed": dict(zip(per_op, result["elapsed"]))}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
