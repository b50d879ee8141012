"""Command-line front end: evaluate primitives, run identity checks, run suites.

Exit codes: 0 pass, 1 identity failure, 2 numeric error (convergence,
window, pole or division; for eval also domain errors and a value with a
NaN or infinite part), 64 usage (any missing, foreign or bad flag), 65
domain violation of a check, 66 I/O (an unreadable spec, an unwritable
report or a closed stdout).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import os
import sys

from . import __version__
from .context import DomainError, QawError, QContext
from . import qcore, qops
from .identities import IDENTITY_REGISTRY, run_check, run_suite, valid_tolerance
from .suite import default_suite, expand_suite, param_fields

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_IO = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    """Parse a decimal or 're+imi' complex literal; only a trailing i is the
    imaginary unit, so inf, -inf and Infinity are real."""
    s = text.strip().replace(" ", "")
    try:
        if s.endswith("i"):
            return complex(s[:-1] + "j")
        return complex(float(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from exc


def _fmt(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:.17g}"
    return f"{v.real:.17g}{v.imag:+.17g}i"


def _complex_obj(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def _tolerance(text: str) -> float:
    """An argparse type: a float that :func:`valid_tolerance` accepts."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if not valid_tolerance(value):
        raise argparse.ArgumentTypeError(f"need a finite float above 0, got {text!r}")
    return value


def _parse_list(text: str):
    if not text.strip():
        return []
    return [parse_complex(tok) for tok in text.split(",")]


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls.
    # abbreviations off: a flag must be spelled out, so that a prefix never
    # names another flag.  An option left out of the command line is left
    # out of the namespace when its default is SUPPRESS.
    parser = _Parser(prog="qaw", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"qaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a scalar primitive", allow_abbrev=False)
    subjects = ev.add_subparsers(dest="subject", required=True)
    # every subject takes --q, and only its own further flags
    poch, gamma, phi, hcos, hsinh, qint, fracint = (
        subjects.add_parser(name, allow_abbrev=False)
        for name in ("poch", "gamma", "phi", "hcos", "hsinh", "qint", "fracint")
    )
    for sp in subjects.choices.values():
        sp.add_argument("--q", type=float, required=True)
    poch.add_argument("--a", type=parse_complex, required=True)
    order = poch.add_mutually_exclusive_group(required=True)
    order.add_argument("--n", dest="order", type=int, help="finite order")
    order.add_argument("--alpha", dest="order", type=float, help="fractional order")
    order.add_argument("--inf", dest="order", action="store_const", const=qcore.INFINITE,
                       help="infinite order")
    gamma.add_argument("--x", type=float, required=True)
    for flag in ("--numer", "--denom"):
        phi.add_argument(flag, type=_parse_list, default=[], help="comma-separated list")
    phi.add_argument("--z", type=parse_complex, default=1.0)
    phi.add_argument("--terminating-k", type=int, default=None)
    hcos.add_argument("--theta", type=float, required=True)
    hcos.add_argument("--params", type=_parse_list, default=[], help="comma-separated list")
    hsinh.add_argument("--x", type=float, required=True)
    hsinh.add_argument("--t", type=parse_complex, required=True)
    fracint.add_argument("--x", type=float, required=True)
    fracint.add_argument("--mu", type=float, required=True)
    for sp in (qint, fracint):
        sp.add_argument("--a", type=float, default=0.0, help="lower limit")
        sp.add_argument("--power", type=float, default=0.0, help="integrand t^power")
    qint.add_argument("--b", type=float, default=1.0, help="upper limit")

    ck = sub.add_parser("check", help="run a single identity check", allow_abbrev=False)
    identities = ck.add_subparsers(dest="identity", required=True)
    for name in sorted(IDENTITY_REGISTRY):
        ip = identities.add_parser(name, allow_abbrev=False)
        ip.add_argument("--tol", type=_tolerance, default=None)
        # one flag per params field; the dataclass supplies an absent one
        for f in param_fields(name):
            ip.add_argument(
                f"--{f.name.replace('_', '-')}",
                type=float if f.type in (float, "float") else parse_complex,
                required=f.default is dataclasses.MISSING,
                default=argparse.SUPPRESS,
            )

    st = sub.add_parser("suite", help="run a suite of checks, write a JSON report", allow_abbrev=False)
    st.add_argument("--spec", type=str, default=None,
                    help="suite spec file (JSON); default: the shipped suite")
    st.add_argument("--out", type=str, default=None,
                    help="report output path; default: stdout")
    return parser


def _cmd_eval(args) -> int:
    sub = args.subject
    try:
        ctx = QContext(q=args.q)
        if sub == "poch":
            value = qcore.q_pochhammer(args.a, args.order, ctx)
        elif sub == "gamma":
            value = complex(qcore.q_gamma(args.x, ctx))
        elif sub == "phi":
            spec = qcore.HypergeometricSpec(
                numer=tuple(args.numer),
                denom=tuple(args.denom),
                z=args.z,
                terminating_k=args.terminating_k,
            )
            value = qcore.phi_series(spec, ctx)
        elif sub == "hcos":
            value = qcore.h_cos(args.theta, args.params, ctx)
        elif sub == "hsinh":
            value = qcore.h_sinh(args.x, args.t, ctx)
        elif sub == "qint":
            p = args.power
            value = qops.jackson_q_integral(lambda t: t**p, args.a, args.b, ctx)
        else:  # fracint
            p = args.power
            value = qops.fractional_q_integral(lambda t: t**p, args.x, args.a, args.mu, ctx)
    except (QawError, OverflowError) as exc:
        # the prefix of each outcome: the table in qaw.context
        skipped = getattr(exc, "outcome", "diverged") == "skipped"
        print(f"{'domain' if skipped else 'convergence'} error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if not cmath.isfinite(value):
        print("numeric error: value is not finite", file=sys.stderr)
        return EXIT_NUMERIC
    print(_fmt(value))
    return EXIT_PASS


def _json_value(value):
    """Complex numbers as {re, im}, at any depth of dicts and lists."""
    if isinstance(value, complex):
        return _complex_obj(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _report_obj(report) -> dict:
    return {
        "identity": report.identity_name,
        "params": _json_value(report.params),
        "lhs": _complex_obj(report.lhs),
        "rhs": _complex_obj(report.rhs),
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "diagnostics": {"lhs": report.lhs_diag, "rhs": report.rhs_diag},
        "wall_time": report.wall_time,
        **({"failure": report.failure} if report.failure else {}),
    }


def _cmd_check(args) -> int:
    params = {f.name: getattr(args, f.name) for f in param_fields(args.identity)
              if hasattr(args, f.name)}
    try:
        report = run_check(args.identity, params, args.tol)
    except DomainError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (QawError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(_report_obj(report), indent=2, sort_keys=True))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _outcome_obj(outcome) -> dict:
    obj = {"identity": outcome.identity_name, "status": outcome.status}
    if outcome.reason is not None:
        obj["reason"] = outcome.reason
    if outcome.report is not None:
        obj["report"] = _report_obj(outcome.report)
    elif outcome.params is not None:
        obj["params"] = _json_value(outcome.params)
    if outcome.details is not None:
        obj["details"] = _json_value(outcome.details)
    return obj


def _cmd_suite(args) -> int:
    if args.spec is None:
        spec = default_suite()
    else:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read suite spec: {exc}", file=sys.stderr)
            return EXIT_IO
    try:
        entries = expand_suite(spec)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"bad suite spec: {exc}", file=sys.stderr)
        return EXIT_USAGE

    outcomes = []
    interrupted = False
    try:
        for entry in entries:
            outcomes.extend(run_suite([entry]))
    except KeyboardInterrupt:
        interrupted = True

    summary = {"total": len(outcomes), "passed": 0, "failed": 0, "skipped": 0,
               "diverged": 0}
    for oc in outcomes:
        summary[oc.status] += 1
    document = {
        "tool": "qaw",
        "version": __version__,
        "seed": spec.get("seed"),
        "reports": [_outcome_obj(oc) for oc in outcomes],
        "summary": summary,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    for oc in outcomes:
        marker = {"passed": "ok", "failed": "FAIL", "skipped": "skip",
                  "diverged": "DIVERGED"}[oc.status]
        print(f"{marker:9s} {oc.identity_name}", file=sys.stderr)
    if interrupted:
        print("interrupted; partial results written", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS if summary["failed"] == 0 and summary["diverged"] == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"eval": _cmd_eval, "check": _cmd_check, "suite": _cmd_suite}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at shutdown raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return code


if __name__ == "__main__":
    raise SystemExit(main())
