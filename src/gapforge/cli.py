"""Command-line front end: every pipeline stage behind one binary.

Human output goes to stdout as sentences or small tables; with
``--format json`` stdout carries machine-readable JSON only and diagnostics
move to stderr.  Exit codes are stable: 0 success, 1 invalid parameters,
2 resource limit or a usage error argparse refuses, 3 primorial period past
the scan budget, 4 insufficient fresh primes, 5 verification failed, 6 I/O
or parse failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys

from . import config as config_mod
from .covering import (
    build_certificate,
    scenario_bound,
    verify_certificate,
    witness_of_verified,
)
from .errors import (
    DomainError,
    GapforgeError,
    InsufficientPrimes,
    InvalidCertificate,
    PeriodTooLarge,
    ResourceLimit,
)
from .jacobsthal import jacobsthal_exact
from .model import Rational, certificate_from_text, certificate_to_json
from .sieve import least_prime_ap, max_prime_gap, prime_count_ap, scan_deficits

EXIT_OK = 0
EXIT_ARGS = 1
EXIT_RESOURCE = 2
EXIT_PERIOD = 3
EXIT_MATCHING = 4
EXIT_VERIFY = 5
EXIT_IO = 6


def _emit(fmt, table_lines, payload, csv_header, csv_rows):
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        for line in table_lines:
            print(line)


def _cmd_gaps(args, cfg) -> int:
    rec = max_prime_gap(args.limit, config=cfg)
    _emit(
        args.format,
        [f"G({args.limit}) = {rec.gap} ({rec.lo} → {rec.hi})"],
        rec.to_json(),
        ["gap", "lo", "hi"],
        [[rec.gap, rec.lo, rec.hi]],
    )
    return EXIT_OK


def _cmd_jacobsthal(args, cfg) -> int:
    val = jacobsthal_exact(args.u, config=cfg)
    _emit(
        args.format,
        [f"J({args.u}) = {val.value}"],
        val.to_json(),
        ["u", "value", "witness_lo", "witness_hi"],
        [[val.u, val.value, val.witness.lo, val.witness.hi]],
    )
    return EXIT_OK


def _cmd_pi_ap(args, cfg) -> int:
    stats = prime_count_ap(args.x, args.q, args.b, config=cfg)
    d = stats.delta
    _emit(
        args.format,
        [
            f"pi({args.x}; {args.q}, {args.b}) = {stats.count}"
            f"   (delta = {d} ≈ {float(d):.6g})"
        ],
        stats.to_json(),
        ["x", "q", "b", "count", "delta_num", "delta_den"],
        [[stats.x, stats.q, stats.b, stats.count, d.num, d.den]],
    )
    return EXIT_OK


def _cmd_least_prime(args, cfg) -> int:
    p = least_prime_ap(args.q, args.b, args.limit)
    if p is None:
        line = f"L({args.q}, {args.b}) > {args.limit} (no prime up to the limit)"
    else:
        line = f"L({args.q}, {args.b}) = {p}"
    _emit(
        args.format,
        [line],
        {"q": args.q, "b": args.b, "limit": args.limit,
         "found": p is not None, "prime": p},
        ["q", "b", "limit", "prime"],
        [[args.q, args.b, args.limit, "" if p is None else p]],
    )
    return EXIT_OK


# --delta in Fraction's grammar: an optional sign, then a/b or a decimal
# with an optional exponent, digits grouped by underscores or not
_DELTA = re.compile(r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>(?:\d+(?:_\d+)*)?)
    (?:/(?P<den>\d+(?:_\d+)*)
      |(?:\.(?P<frac>(?:\d+(?:_\d+)*)?))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*""",
    re.VERBOSE)


def _parse_delta(text: str) -> Rational:
    """The --delta text as an exact Rational in [0, 1], as Fraction reads it.

    The numerator and denominator are written out from the text as digit
    strings, the exponent's zeros capped one past the interpreter's int/str
    digit limit, and refused past that limit before any int is built, so
    1e-1000000 builds no million-digit power of 10.  Messages quote the
    text, cut short, never the value.
    """
    shown = repr(text if len(text) <= 40 else text[:40] + "...")
    m = _DELTA.fullmatch(text)
    if m is None:
        raise DomainError(f"delta {shown} is neither a fraction a/b nor a decimal")
    # 0 means no limit, and Python before 3.10.7 has none: 4300, the default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    num, den, frac, exp = (
        (m[g] or "").replace("_", "") for g in ("num", "den", "frac", "exp"))
    if m["den"] is None:  # num.frac * 10**exp
        mag = exp.lstrip("+-").lstrip("0") or "0"
        e = int(mag) if len(mag) < 10 else limit + 1  # past the limit either way
        e = -e if exp.startswith("-") else e
        den = "1" + "0" * min(len(frac) + max(-e, 0), limit)
        num = num + frac or "0"
        if num.strip("0"):  # zero times 10**e stays zero
            num += "0" * min(max(e, 0), limit)
    if max(len(num), len(den)) > limit:
        raise DomainError(f"delta {shown} has more than {limit} digits")
    n, d = int(num or "0"), int(den)
    if d == 0:
        raise DomainError(f"delta {shown} has a zero denominator")
    if n > d or (n and m["sign"] == "-"):
        raise DomainError(f"delta {shown} must lie in [0, 1]")
    return Rational(n, d)


def _cmd_cover(args, cfg) -> int:
    override = _parse_delta(args.delta) if args.delta is not None else None
    # build_certificate has verified cert before returning it
    cert = build_certificate(args.x, args.q, args.b, override, config=cfg)
    if cert.survivors_after_greedy * 5 * math.log(cert.u) > cert.u:
        print(f"matching {cert.survivors_after_greedy} survivors at u={cert.u}: "
              "the sufficient condition |N'| <= u/(5 ln u) fails, proceeding on "
              "the actual prime supply", file=sys.stderr)
    witness = witness_of_verified(cert)[0] if args.witness else None
    if args.out or args.format == "json":
        text = certificate_to_json(cert, witness)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        _emit(
            args.format,
            [f"J({cert.u}) ≥ {cert.x - cert.b}/{cert.q}"],
            None,
            ["u", "y", "bound_num", "bound_den"],
            [[cert.u, cert.y, cert.bound_rational().num, cert.bound_rational().den]],
        )
    return EXIT_OK


def _cmd_verify(args, cfg) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            text = fh.read()
        cert, stored = certificate_from_text(text)
    # RecursionError is json's answer to nesting past the stack limit
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        print(f"cannot load certificate: {exc}", file=sys.stderr)
        return EXIT_IO
    report = verify_certificate(cert, strict=args.strict, config=cfg)
    if args.witness:
        if report.ok:
            try:
                w = witness_of_verified(cert)[0]
                report.add("witness_validates", True, f"T covers all {cert.y + 1} offsets")
                if stored is not None:
                    same = stored.T == w.T and stored.P == w.P
                    report.add(
                        "witness_matches_stored",
                        same,
                        "" if same else "stored T/P differ from recomputation",
                    )
            except GapforgeError as exc:
                report.add("witness_validates", False, str(exc))
        else:
            report.add("witness_validates", False, "skipped: structural checks failed")
    _emit(
        args.format,
        [
            f"[{'PASS' if e.passed else 'FAIL'}] {e.check}"
            + (f": {e.detail}" if e.detail and not e.passed else "")
            for e in report.entries
        ],
        report.to_json(),
        ["check", "pass", "detail"],
        [[e.check, e.passed, e.detail] for e in report.entries],
    )
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_scan(args, cfg) -> int:
    rows = scan_deficits(args.x, args.qmin, args.qmax, args.top, config=cfg)
    table = [f"{'q':>6} {'b':>6} {'count':>8}  delta"]
    table += [f"{r.q:>6} {r.b:>6} {r.count:>8}  {r.delta} ≈ {float(r.delta):.6g}"
              for r in rows]
    _emit(
        args.format,
        table,
        [{"q": r.q, "b": r.b, "count": r.count, "delta": r.delta.to_json()}
         for r in rows],
        ["q", "b", "count", "delta_num", "delta_den"],
        [[r.q, r.b, r.count, r.delta.num, r.delta.den] for r in rows],
    )
    return EXIT_OK


def _sweep_point(log_q: float, k: float, B: float):
    """scenario_bound at delta = log_q**(-k), where that power is a real float."""
    if not log_q > 0:
        raise DomainError(f"log_q must be positive, got {log_q}")
    try:
        delta = log_q ** (-k)
    except OverflowError:
        raise DomainError(f"delta = {log_q:g}^(-{k:g}) overflows a float") from None
    return scenario_bound(log_q, delta, B)


def _cmd_scenario(args, cfg) -> int:
    header = ["log_q", "delta", "B", "log_x", "log_u", "log_gap_bound"]
    if args.sweep:
        points = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
        results = [_sweep_point(lq, args.delta_exponent, args.B) for lq in points]
        table = ["  ".join(header)]
        table += [
            f"{r.log_q:g}  {r.delta:.6g}  {r.B:g}  {r.log_x:.4f}  "
            f"{r.log_u:.4f}  {r.log_gap_bound:.4f}"
            for r in results
        ]
        payload = [r.to_json() for r in results]
    elif args.log_q is None or args.delta is None:
        print("scenario needs --log-q and --delta (or --sweep)", file=sys.stderr)
        return EXIT_ARGS
    else:
        res = scenario_bound(args.log_q, args.delta, args.B)
        results, payload = [res], res.to_json()
        table = [
            f"log_q = {res.log_q:g}",
            f"delta = {res.delta:g}",
            f"B = {res.B:g}",
            f"log_x = {res.log_x:.6f}",
            f"log_u = {res.log_u:.6f}",
            f"log_gap_bound = {res.log_gap_bound:.6f}",
        ]
    _emit(
        args.format,
        table,
        payload,
        header,
        [[r.log_q, r.delta, r.B, r.log_x, r.log_u, r.log_gap_bound] for r in results],
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh Namespace each
    # call, and help text wraps to the terminal width when it is printed.
    # Shared flags live in a parent parser with SUPPRESS defaults so they are
    # accepted both before and after the subcommand without the subparser
    # clobbering a value parsed earlier.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", "-f", choices=("table", "json", "csv"),
                        default=argparse.SUPPRESS,
                        help="output format (default: table)")
    common.add_argument("--memory-budget", type=int, default=argparse.SUPPRESS,
                        help="memory budget in bytes")

    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Covering-system certificates for prime-gap lower bounds, "
        "plus the sieving tools to check every step.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaps", parents=[common],
                       help="maximal gap between primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("jacobsthal", parents=[common],
                       help="exact maximal rough-number gap at u")
    p.add_argument("--u", type=int, required=True)
    p.set_defaults(func=_cmd_jacobsthal)

    p = sub.add_parser("pi-ap", parents=[common],
                       help="count primes <= x in the class b mod q")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_pi_ap)

    p = sub.add_parser("least-prime", parents=[common],
                       help="least prime == b (mod q) up to a limit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_least_prime)

    p = sub.add_parser("cover", parents=[common],
                       help="build a covering certificate for (x, q, b)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--delta", type=str, default=None,
                   help="hypothetical deficit (rational like 13/50 or 0.26); "
                   "measured exactly when omitted")
    p.add_argument("--out", type=str, default=None, help="write certificate JSON here")
    p.add_argument("--witness", action="store_true",
                   help="include the CRT witness in the certificate")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", parents=[common],
                       help="re-check a certificate file")
    p.add_argument("cert", help="path to certificate JSON")
    p.add_argument("--strict", action="store_true",
                   help="re-derive every pipeline stage, not just structure")
    p.add_argument("--witness", action="store_true",
                   help="also recompute and validate the CRT witness")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", parents=[common],
                       help="progressions with the smallest prime deficit")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--qmin", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("scenario", parents=[common],
                       help="log-space gap bound for hypothetical (q, delta, B)")
    p.add_argument("--log-q", dest="log_q", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--B", dest="B", type=float, required=True)
    p.add_argument("--sweep", type=str, default=None,
                   help="comma-separated log_q grid; delta taken as log_q^(-k)")
    p.add_argument("--delta-exponent", dest="delta_exponent", type=float, default=2.0,
                   help="the k in delta = log_q^(-k) for --sweep")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.format = getattr(args, "format", "table")  # a SUPPRESS default
    try:
        cfg = config_mod.from_env(getattr(args, "memory_budget", None))
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_ARGS
    try:
        return args.func(args, cfg)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PeriodTooLarge as exc:
        print(f"period too large: {exc}", file=sys.stderr)
        return EXIT_PERIOD
    except InsufficientPrimes as exc:
        print(f"matching impossible: {exc}", file=sys.stderr)
        return EXIT_MATCHING
    except InvalidCertificate as exc:
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GapforgeError, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_ARGS


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
