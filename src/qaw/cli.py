"""Command-line front end: evaluate primitives, run identity checks, run suites.

Exit codes: 0 pass, 1 identity failure, 2 numeric error (convergence,
window, pole or division; for eval also domain errors and a value with a
NaN or infinite part), 64 usage (any missing, foreign or bad flag), 65
domain violation of a check, 66 I/O (an unreadable spec, an unwritable
report or a closed stdout).

The table ``_EVAL`` declares each ``qaw eval`` subject once, with its flags
and its call, and one compact encoder, ``_dumps``, writes every JSON
document as one line with its keys sorted, a complex number as ``{"re",
"im"}`` at any depth.  ``qaw eval`` checks every flag of its subject, each
entry of ``--numer``, ``--denom`` and ``--params`` included, before it
evaluates anything, and names each NaN or infinite one in one domain error
(``flags must be finite, got --x=nan``); ``--alpha inf`` is the infinite
order, as ``--inf`` is.

The parser tree of ``_build_parser`` (``qaw``, then a command, then a subject
or identity) declares every help text and message, and every flag but a
check's: ``_check_flags`` declares those, ``--tol`` and one flag per field of
the identity's params class, for the tree and for ``_check_line`` alike.
Lines take one of two routes:

- a well-formed check line, ``check <identity>`` followed by known flags,
  each with one value that does not begin with ``-`` and converts, every
  required flag among them, is parsed by ``_check_line`` from that table
  alone, and never builds the tree (argparse took a quarter of a cheap
  check's time, and the tree ~5 ms per process);
- every other line is parsed by the tree.

So ``-h``, ``--version``, a ``--flag=value`` word, a value that begins with
``-``, each usage error and every ``eval`` and ``suite`` line read as
argparse writes them, and a check line reaches the same namespace by either
route.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
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
        # argparse reads a value such as -0.1+0.1i as an option, not as the
        # value of the flag before it
        if message.endswith("expected one argument"):
            message += " (a value that begins with '-' takes the form --flag=value)"
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


def _tolerance(text: str) -> float:
    """An argparse type: a float that :func:`valid_tolerance` accepts."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if not valid_tolerance(value):
        raise argparse.ArgumentTypeError(f"need a finite float above 0, got {text!r}")
    return value


def _parse_list(text: str) -> tuple:
    return tuple(parse_complex(tok) for tok in text.split(",")) if text.strip() else ()


_FLOAT, _COMPLEX = ({"type": t, "required": True} for t in (float, parse_complex))
_LIST = {"type": _parse_list, "default": (), "help": "comma-separated list"}
_LOWER = {"type": float, "default": 0.0, "help": "lower limit"}
_POWER = {"type": float, "default": 0.0, "help": "integrand t^power"}

# each qaw eval subject, declared once: its flags besides --q, as the options
# of add_argument in usage order, and its value on (args, ctx).  poch also
# takes its order, one of --n, --alpha and --inf, after its flags.
_EVAL = {
    "poch": ({"--a": _COMPLEX}, lambda args, ctx: qcore.q_pochhammer(args.a, args.order, ctx)),
    "gamma": ({"--x": _FLOAT}, lambda args, ctx: qcore.q_gamma(args.x, ctx)),
    "phi": ({"--numer": _LIST, "--denom": _LIST, "--z": {"type": parse_complex, "default": 1.0},
             "--terminating-k": {"type": int, "default": None}},
            lambda args, ctx: qcore.phi_series(qcore.HypergeometricSpec(
                args.numer, args.denom, args.z, args.terminating_k), ctx)),
    "hcos": ({"--theta": _FLOAT, "--params": _LIST},
             lambda args, ctx: qcore.h_cos(args.theta, args.params, ctx)),
    "hsinh": ({"--x": _FLOAT, "--t": _COMPLEX},
              lambda args, ctx: qcore.h_sinh(args.x, args.t, ctx)),
    "qint": ({"--a": _LOWER, "--power": _POWER,
              "--b": {"type": float, "default": 1.0, "help": "upper limit"}},
             lambda args, ctx: qops.jackson_q_integral(
                 lambda t: t**args.power, args.a, args.b, ctx)),
    "fracint": ({"--x": _FLOAT, "--mu": _FLOAT, "--a": _LOWER, "--power": _POWER},
                lambda args, ctx: qops.fractional_q_integral(
                    lambda t: t**args.power, args.x, args.a, args.mu, ctx)),
}


@functools.cache
def _check_flags(name) -> dict:
    """The flags of ``qaw check <name>``, as the options of add_argument:
    ``--tol``, then one per params field.  A field's flag is left out of the
    namespace when absent (the dataclass supplies its default) and required
    when the field has no default."""
    flags = {"--tol": {"dest": "tol", "type": _tolerance, "default": None}}
    for f in param_fields(name):
        flags[f"--{f.name.replace('_', '-')}"] = {
            "dest": f.name,
            "type": float if f.type in (float, "float") else parse_complex,
            "required": f.default is dataclasses.MISSING,
            "default": argparse.SUPPRESS,
        }
    return flags


def _check_line(argv):
    """The namespace of a well-formed ``check <identity>`` line, the
    namespace the parser tree builds, or None for any other line.

    Well-formed: every word after the identity is a flag of
    :func:`_check_flags` followed by one value that does not begin with
    ``-`` and that its type converts, a later flag overriding an earlier
    one, and every required flag is given.
    """
    if argv[:1] != ["check"] or len(argv) % 2 or argv[1] not in IDENTITY_REGISTRY:
        return None
    flags = _check_flags(argv[1])
    values = {o["dest"]: o["default"] for o in flags.values()
              if o["default"] is not argparse.SUPPRESS}
    for flag, text in zip(argv[2::2], argv[3::2]):
        options = flags.get(flag)
        if options is None or text.startswith("-"):
            return None
        try:
            values[options["dest"]] = options["type"](text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
    if any(o.get("required") and o["dest"] not in values for o in flags.values()):
        return None
    return argparse.Namespace(command="check", identity=argv[1], **values)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls.
    # abbreviations off: a flag must be spelled out, so that a prefix never
    # names another flag.  An option left out of the command line is left
    # out of the namespace when its default is SUPPRESS.
    parser = _Parser(
        prog="qaw", allow_abbrev=False,
        description="Evaluate q-calculus primitives and check Askey-Wilson-type identities.")
    parser.add_argument("--version", action="version", version=f"qaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a scalar primitive", allow_abbrev=False)
    subjects = ev.add_subparsers(dest="subject", required=True)
    # every subject takes --q, and only its own further flags
    for name, (flags, _) in _EVAL.items():
        sp = subjects.add_parser(name, allow_abbrev=False)
        for flag, options in {"--q": _FLOAT, **flags}.items():
            sp.add_argument(flag, **options)
    order = subjects.choices["poch"].add_mutually_exclusive_group(required=True)
    order.add_argument("--n", dest="order", type=int, help="finite order")
    order.add_argument("--alpha", dest="order", type=float, help="fractional order")
    order.add_argument("--inf", dest="order", action="store_const", const=qcore.INFINITE,
                       help="infinite order")

    ck = sub.add_parser("check", help="run a single identity check", allow_abbrev=False)
    identities = ck.add_subparsers(dest="identity", required=True)
    for name in sorted(IDENTITY_REGISTRY):
        ip = identities.add_parser(name, allow_abbrev=False)
        for flag, options in _check_flags(name).items():
            ip.add_argument(flag, **options)

    st = sub.add_parser("suite", help="run a suite of checks, write a JSON report", allow_abbrev=False)
    st.add_argument("--spec", type=str, default=None,
                    help="suite spec file (JSON); default: the shipped suite")
    st.add_argument("--out", type=str, default=None,
                    help="report output path; default: stdout")
    return parser


def _cmd_eval(args) -> int:
    flags, value_of = _EVAL[args.subject]
    try:
        ctx = QContext(q=args.q)
        given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in flags}
        bad = [f"{flag}={_fmt(v)}" for flag, g in given.items()
               for v in (g if isinstance(g, tuple) else (g,))
               if v is not None and not cmath.isfinite(v)]
        # poch's order: --alpha inf is the infinite order, as --inf is
        if not -math.inf < getattr(args, "order", 0) <= math.inf:
            bad.append(f"--alpha={_fmt(args.order)}")
        if bad:
            raise DomainError(f"flags must be finite, got {', '.join(bad)}")
        value = value_of(args, ctx)
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


def _complex_json(value) -> dict:
    """json's hook for a value it cannot write itself: a complex number as
    {re, im}; any other type is an error, not a silent string."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"cannot write a {type(value).__name__} as JSON")


# the CLI's one JSON encoder: every document as one compact line, keys
# sorted, complex numbers as {re, im} at any depth.  No indent: an indent
# switches json from its C encoder to its pure-Python one, and `python -m
# json.tool` indents a document for a reader.
_dumps = functools.partial(json.dumps, sort_keys=True, default=_complex_json)


def _report_obj(report) -> dict:
    return {
        "identity": report.identity_name,
        "params": report.params,
        "lhs": report.lhs,
        "rhs": report.rhs,
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
    print(_dumps(_report_obj(report)))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _outcome_obj(outcome) -> dict:
    obj = {"identity": outcome.identity_name, "status": outcome.status}
    if outcome.reason is not None:
        obj["reason"] = outcome.reason
    if outcome.report is not None:
        obj["report"] = _report_obj(outcome.report)
    elif outcome.params is not None:
        obj["params"] = outcome.params
    if outcome.details is not None:
        obj["details"] = outcome.details
    return obj


# each suite status, in summary order, and its stderr marker
_MARKERS = {"passed": "ok", "failed": "FAIL", "skipped": "skip", "diverged": "DIVERGED"}


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

    summary = {"total": len(outcomes), **dict.fromkeys(_MARKERS, 0)}
    for oc in outcomes:
        summary[oc.status] += 1
    document = {
        "tool": "qaw",
        "version": __version__,
        "seed": spec.get("seed"),
        "reports": [_outcome_obj(oc) for oc in outcomes],
        "summary": summary,
    }
    text = _dumps(document)
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
        print(f"{_MARKERS[oc.status]:9s} {oc.identity_name}", file=sys.stderr)
    if interrupted:
        print("interrupted; partial results written", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS if summary["failed"] == 0 and summary["diverged"] == 0 else EXIT_FAIL


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _check_line(argv) or _build_parser().parse_args(argv)
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
