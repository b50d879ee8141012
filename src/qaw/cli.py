"""Command-line front end: evaluate primitives, run identity checks, run suites.

Exit codes: 0 pass, 1 identity failure, 2 numeric error (convergence,
window, pole or division; for eval also domain errors), 64 usage,
65 domain violation of a check, 66 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import __version__
from .context import (
    DivisionByZero,
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QContext,
    WindowFailure,
)
from . import qcore, qops
from .identities import IDENTITY_REGISTRY, run_check, run_suite
from .suite import default_suite, expand_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_IO = 66

_CONVERGENCE_ERRORS = (NonConvergence, KSumDivergence, WindowFailure, OverflowError)
_SINGULAR_ERRORS = (PoleError, DivisionByZero)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    """Parse a decimal or 're+imi' complex literal."""
    s = text.strip().replace(" ", "")
    try:
        if "i" in s:
            return complex(s.replace("i", "j"))
        return complex(float(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from exc


def _fmt(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:.17g}"
    return f"{v.real:.17g}{v.imag:+.17g}i"


def _complex_obj(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls.
    # abbreviations off: the short parameter flags (--a, --b, ...) must never
    # prefix-match the global --ctx-* options
    parser = _Parser(prog="qaw", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"qaw {__version__}")
    parser.add_argument(
        "--ctx-eps", type=float, default=None, help="override QContext eps_term"
    )
    parser.add_argument(
        "--ctx-max-terms", type=int, default=None, help="override QContext max_terms"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a scalar primitive", allow_abbrev=False)
    ev.add_argument(
        "subject",
        choices=["poch", "gamma", "phi", "hcos", "hsinh", "qint", "fracint"],
    )
    ev.add_argument("--q", type=float, required=True)
    ev.add_argument("--a", type=parse_complex, default=None)
    ev.add_argument("--b", type=parse_complex, default=None)
    ev.add_argument("--n", type=int, default=None, help="finite Pochhammer order")
    ev.add_argument("--alpha", type=float, default=None, help="fractional order")
    ev.add_argument("--inf", action="store_true", help="infinite order")
    ev.add_argument("--x", type=float, default=None)
    ev.add_argument("--z", type=parse_complex, default=None)
    ev.add_argument("--t", type=parse_complex, default=None)
    ev.add_argument("--theta", type=float, default=None)
    ev.add_argument("--mu", type=float, default=None)
    ev.add_argument("--power", type=float, default=0.0,
                    help="integrand t^power for qint/fracint")
    ev.add_argument("--numer", type=str, default="", help="comma-separated list")
    ev.add_argument("--denom", type=str, default="", help="comma-separated list")
    ev.add_argument("--params", type=str, default="", help="comma-separated list")
    ev.add_argument("--terminating-k", type=int, default=None)
    ev.add_argument("--verbose", action="store_true")

    ck = sub.add_parser("check", help="run a single identity check", allow_abbrev=False)
    ck.add_argument("identity", choices=sorted(IDENTITY_REGISTRY))
    ck.add_argument("--tol", type=float, default=None)
    for flag in ["q", "a", "x", "mu", "alpha-g"]:
        ck.add_argument(f"--{flag}", type=float, default=None)
    for flag in ["b", "c", "d", "r", "s", "t", "u", "z"]:
        ck.add_argument(f"--{flag}", type=parse_complex, default=None)

    st = sub.add_parser("suite", help="run a suite of checks, write a JSON report", allow_abbrev=False)
    st.add_argument("--spec", type=str, default=None,
                    help="suite spec file (JSON); default: the shipped suite")
    st.add_argument("--out", type=str, default=None,
                    help="report output path; default: stdout")
    return parser


def _ctx_options(args) -> dict:
    opts = {}
    if args.ctx_eps is not None:
        opts["eps_term"] = args.ctx_eps
    if args.ctx_max_terms is not None:
        opts["max_terms"] = args.ctx_max_terms
    return opts


def _parse_list(text: str):
    if not text.strip():
        return []
    return [parse_complex(tok) for tok in text.split(",")]


def _cmd_eval(args) -> int:
    ctx = QContext(q=args.q, **_ctx_options(args))
    sub = args.subject
    try:
        if sub == "poch":
            if args.a is None:
                raise DomainError("poch requires --a")
            given = [args.n is not None, args.alpha is not None, args.inf]
            if sum(given) != 1:
                raise DomainError("poch requires exactly one of --n, --alpha, --inf")
            if args.inf:
                order = qcore.INFINITE
            elif args.n is not None:
                order = args.n
            else:
                order = args.alpha
            value = qcore.q_pochhammer(args.a, order, ctx)
        elif sub == "gamma":
            if args.x is None:
                raise DomainError("gamma requires --x")
            value = complex(qcore.q_gamma(args.x, ctx))
        elif sub == "phi":
            spec = qcore.HypergeometricSpec(
                numer=tuple(_parse_list(args.numer)),
                denom=tuple(_parse_list(args.denom)),
                z=args.z if args.z is not None else 1.0,
                terminating_k=args.terminating_k,
            )
            value = qcore.phi_series(spec, ctx)
        elif sub == "hcos":
            if args.theta is None:
                raise DomainError("hcos requires --theta")
            value = qcore.h_cos(args.theta, _parse_list(args.params), ctx)
        elif sub == "hsinh":
            if args.x is None or args.t is None:
                raise DomainError("hsinh requires --x and --t")
            value = qcore.h_sinh(args.x, args.t, ctx)
        elif sub == "qint":
            a = args.a.real if args.a is not None else 0.0
            b = args.b.real if args.b is not None else 1.0
            p = args.power
            value = qops.jackson_q_integral(lambda t: t**p, a, b, ctx)
        else:  # fracint
            if args.x is None or args.mu is None:
                raise DomainError("fracint requires --x and --mu")
            a = args.a.real if args.a is not None else 0.0
            p = args.power
            value = qops.fractional_q_integral(lambda t: t**p, args.x, a, args.mu, ctx)
    except (DomainError, *_SINGULAR_ERRORS) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONVERGENCE_ERRORS as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(_fmt(value))
    if args.verbose:
        print(f"# q={ctx.q} eps_term={ctx.eps_term} max_terms={ctx.max_terms}",
              file=sys.stderr)
    return EXIT_PASS


def _params_obj(params) -> dict:
    return {k: (_complex_obj(v) if isinstance(v, complex) else v)
            for k, v in params.items()}


def _report_obj(report) -> dict:
    return {
        "identity": report.identity_name,
        "params": _params_obj(report.params),
        "lhs": _complex_obj(report.lhs),
        "rhs": _complex_obj(report.rhs),
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "diagnostics": {"lhs": report.lhs_diag, "rhs": report.rhs_diag},
        "wall_time": report.wall_time,
    }


def _collect_check_params(args, identity) -> dict:
    cls, _ = IDENTITY_REGISTRY[identity]
    fields = {f.name for f in dataclasses.fields(cls)}
    params = {}
    for name in fields:
        flag = name.replace("_", "-")
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            params[name] = value
    missing = []
    for f in dataclasses.fields(cls):
        if f.name not in params and f.default is dataclasses.MISSING:
            missing.append(f.name)
    if missing:
        raise DomainError(
            f"{identity} requires --" + ", --".join(m.replace("_", "-") for m in missing)
        )
    return params


def _cmd_check(args) -> int:
    try:
        params = _collect_check_params(args, args.identity)
        report = run_check(args.identity, params, _ctx_options(args), args.tol)
    except DomainError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (*_CONVERGENCE_ERRORS, *_SINGULAR_ERRORS) as exc:
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
        obj["params"] = _params_obj(outcome.params)
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

    ctx_options = _ctx_options(args)
    outcomes = []
    interrupted = False
    try:
        for entry in entries:
            outcomes.extend(run_suite([entry], ctx_options))
    except KeyboardInterrupt:
        interrupted = True

    summary = {"total": len(outcomes), "passed": 0, "failed": 0, "skipped": 0,
               "diverged": 0}
    for oc in outcomes:
        summary[oc.status] += 1
    document = {
        "tool": "qaw",
        "version": __version__,
        "context": {
            "eps_term": ctx_options.get("eps_term", QContext(0.5).eps_term),
            "max_terms": ctx_options.get("max_terms", QContext(0.5).max_terms),
        },
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
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
