"""Seeded operation plans for the three workloads, and the hostile
certificates derived from a workload's own output.

A plan is one round of operations, repeated unchanged for the whole run.
Every input comes from ``random.Random(f"{workload}:{seed}")``, except the
anchor progression of ``certify``, which carries the two malformed
certificates and must not depend on the seed.  Sizes are fixed per slot so
that a round costs about the same whatever the seed: the seed moves the
progression (``q``, ``b``) or the window, not the amount of work.

This module is plain stdlib and never imports gapforge.
"""

from __future__ import annotations

import json
import math
import random

# certify: (x, kind of q) per seeded slot; the exact count is whole-line,
# so its cost depends on x and not on q.
CERTIFY_ANCHOR = (10_000_000, 10_007, 3)
CERTIFY_SLOTS = ((10_000_000, "composite"), (30_000_000, "composite"),
                 (100_000_000, "prime"))
# hypothesis: y = (x - b) // q is fixed, so u (and the class count) depends
# only on the assumed deficit d.
HYPOTHESIS_Y = 20_000
HYPOTHESIS_SLOTS = (("1/50", "prime"), ("1/30", "smooth"),
                    ("1/20", "prime"), ("1/10", "smooth"))
MUTATIONS = ("drop", "shift", "swap")
MALFORMED = ("p_zero", "y_negative")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pick_q(rng: random.Random, lo: int, hi: int, kind: str) -> int:
    while True:
        q = rng.randrange(lo, hi + 1)
        factors = _prime_factors(q)
        if kind == "prime" and factors == [q]:
            return q
        # phi(q)/q >= 0.45 keeps the fresh-prime supply of (u/2, u] well above
        # the survivors left to match, so cover never runs out of primes.
        if kind == "composite" and factors != [q] and \
                math.prod(p - 1 for p in factors) * 100 >= 45 * math.prod(factors):
            return q
        if kind == "smooth" and len(factors) >= 3:
            return q


def _pick_b(rng: random.Random, q: int) -> int:
    while True:
        b = rng.randrange(1, q)
        if math.gcd(b, q) == 1:
            return b


def _cli(op_id: str, argv: list[str], expect=(0,), **extra) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "expect": list(expect), **extra}


def _certify(rng: random.Random) -> list[dict]:
    progressions = [("anchor", CERTIFY_ANCHOR)]
    for i, (x, kind) in enumerate(CERTIFY_SLOTS, 1):
        q = _pick_q(rng, 10_000, 100_000, kind)
        progressions.append((f"p{i}", (x, q, _pick_b(rng, q))))
    ops = []
    for name, (x, q, b) in progressions:
        cert = f"{name}.json"
        ops.append(_cli(f"{name}.cover",
                        ["cover", "--x", str(x), "--q", str(q), "--b", str(b),
                         "--out", cert],
                        check="cover", x=x, q=q, b=b, delta=None, cert=cert))
        ops.append(_cli(f"{name}.verify",
                        ["verify", cert, "--strict", "--witness", "--format", "json"],
                        check="verify", strict=True, cert=cert))
        if name == "anchor":
            for fault in MALFORMED:
                path = f"{name}.{fault}.json"
                ops.append(_cli(f"{name}.{fault}",
                                ["verify", path, "--strict", "--format", "json"],
                                expect=(5, 6), check="malformed", known_fault=True,
                                derive={"from": cert, "malformed": fault, "to": path}))
        if name == "p1":
            for mutation in MUTATIONS:
                path = f"{name}.{mutation}.json"
                ops.append(_cli(f"{name}.{mutation}",
                                ["verify", path, "--strict", "--format", "json"],
                                expect=(5,), check="mutant",
                                derive={"from": cert, "mutation": mutation,
                                        "pick": rng.random(), "to": path}))
    return ops


def _hypothesis(rng: random.Random) -> list[dict]:
    ops = []
    for i, (d, kind) in enumerate(HYPOTHESIS_SLOTS, 1):
        q = _pick_q(rng, 100, 1_000, kind)
        b = _pick_b(rng, q)
        x = q * HYPOTHESIS_Y + b
        cert = f"h{i}.json"
        ops.append(_cli(f"h{i}.cover",
                        ["cover", "--x", str(x), "--q", str(q), "--b", str(b),
                         "--delta", d, "--out", cert],
                        check="cover", x=x, q=q, b=b, delta=d, cert=cert))
        ops.append(_cli(f"h{i}.verify", ["verify", cert, "--witness", "--format", "json"],
                        check="verify", strict=False, cert=cert))
        ops.append({"id": f"h{i}.bound", "kind": "bound", "expect": [0],
                    "check": "bound", "cert": cert})
    return ops


def _explore(rng: random.Random) -> list[dict]:
    limit = 50_000_000 - rng.randrange(1_000_000)
    ops = [_cli("gaps", ["gaps", "--limit", str(limit), "--format", "json"],
                check="gaps", limit=limit)]
    for u in (19, 23):
        ops.append(_cli(f"jacobsthal{u}", ["jacobsthal", "--u", str(u), "--format", "json"],
                        check="jacobsthal", u=u))
    # (x, number of moduli): a wide range of q over few primes, then a
    # narrow range over the 10^7 prime list that scan materializes.  scan
    # keeps a count per residue of each q, so its time grows with q: qmin
    # moves within a narrow band, or the seed would change the work.
    for name, x0, width in (("scan_wide", 1_000_000, 60), ("scan_deep", 10_000_000, 10)):
        x = x0 - rng.randrange(x0 // 50)
        qmin = rng.randrange(200, 210)
        qmax = qmin + width - 1
        ops.append(_cli(name, ["scan", "--x", str(x), "--qmin", str(qmin),
                               "--qmax", str(qmax), "--top", "10", "--format", "json"],
                        check="scan", x=x, qmin=qmin, qmax=qmax, top=10))
    for u in (19, 23):
        lo = rng.randrange(1, 100_000_000)
        ops.append({"id": f"rough{u}", "kind": "rough", "expect": [0], "check": "rough",
                    "u": u, "lo": lo, "hi": lo + 4_000_000})
    return ops


PLANS = {"certify": _certify, "hypothesis": _hypothesis, "explore": _explore}


def make_plan(workload: str, seed: int) -> list[dict]:
    """One round of operations for the workload, from the seed alone."""
    return PLANS[workload](random.Random(f"{workload}:{seed}"))


def derive_certificate(src_text: str, spec: dict) -> str:
    """A hostile certificate built from a valid one (JSON text in, JSON text out)."""
    obj = json.loads(src_text)
    classes = obj["classes"]
    if "malformed" in spec:
        if spec["malformed"] == "p_zero":
            classes[0]["p"] = 0
        else:
            obj["y"] = -5
    else:
        i = int(spec["pick"] * len(classes))
        mutation = spec["mutation"]
        if mutation == "drop":
            del classes[i]
        elif mutation == "shift":
            classes[i]["a"] = (classes[i]["a"] + 1) % classes[i]["p"]
        else:
            # swapping two moduli with equal residues changes nothing, so the
            # partner is the next class with another residue
            j = next(k % len(classes) for k in range(i + 1, i + len(classes))
                     if classes[k % len(classes)]["a"] != classes[i]["a"])
            classes[i]["p"], classes[j]["p"] = classes[j]["p"], classes[i]["p"]
    return json.dumps(obj, indent=2) + "\n"
