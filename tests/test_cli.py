"""Tests for the command-line front end: exit codes, output, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qaw
from qaw import cli, identities, qcore
from test_identities import FIXED_POINTS


# a fractional Gaussian point whose k-sum, at the ratio x * (ab/q) / a =
# 0.995, is not settled at 4096 rows
SLOW_KSUM_GAUSSIAN = {"alpha_g": 1.0, "a": 0.15, "b": 0.224431, "c": 0.02, "d": 0.02,
                      "x": 0.6, "mu": 1.5}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compact(text):
    """A JSON document as one line with its keys sorted, and a newline."""
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


def usage_error(capsys, *argv):
    """The stderr of a command line that must end as a usage error (64)."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    return captured.err


# each identity's parameter flags; the required ones, with valid values
_GENERATING = ({"--q", "--a", "--x", "--mu", "--b", "--r", "--s", "--t", "--u", "--z"},
               ["--q", "0.5", "--a", "0.2", "--x", "0.6", "--mu", "1.5"])
# the u = 0 form, where r enters only through r u: neither is a flag
_GENERATING_3PHI2 = (_GENERATING[0] - {"--r", "--u"}, _GENERATING[1])
_PLAIN_AW = ({"--q", "--a", "--b", "--c", "--d"}, ["--q", "0.5", "--a", "0.2"])
_AW = (_PLAIN_AW[0] | {"--x", "--mu"}, _PLAIN_AW[1])
_PLAIN_GAUSSIAN = ({"--alpha-g", "--a", "--b", "--c", "--d"}, ["--alpha-g", "1"])
_GAUSSIAN = (_PLAIN_GAUSSIAN[0] | {"--x", "--mu"}, _PLAIN_GAUSSIAN[1])
CHECK_FLAGS = {
    "lemma-three-term": _GENERATING,
    "fractional-generating": _GENERATING,
    "fractional-generating-3phi2": _GENERATING_3PHI2,
    "askey-wilson": _PLAIN_AW,
    "fractional-askey-wilson": _AW,
    "fractional-askey-wilson-3phi2": _AW,
    "reversal-askey-wilson": _PLAIN_AW,
    "fractional-reversal-askey-wilson": _AW,
    "fractional-reversal-askey-wilson-3phi2": _AW,
    "atakishiyev": _PLAIN_GAUSSIAN,
    "fractional-atakishiyev": _GAUSSIAN,
    "fractional-atakishiyev-3phi2": _GAUSSIAN,
}
ALL_FLAGS = set().union(*(flags for flags, _ in CHECK_FLAGS.values()))
COMPLEX_FLAGS = {"--b", "--c", "--d", "--r", "--s", "--t", "--u", "--z"}


# each eval subject's flags besides --q, and the required ones; poch's order
# is a required group of --n, --alpha and --inf
EVAL_FLAGS = {
    "poch": ({"--a", "--n", "--alpha", "--inf"}, {"--a"}),
    "gamma": ({"--x"}, {"--x"}),
    "phi": ({"--numer", "--denom", "--z", "--terminating-k"}, set()),
    "hcos": ({"--theta", "--params"}, {"--theta"}),
    "hsinh": ({"--x", "--t"}, {"--x", "--t"}),
    "qint": ({"--a", "--b", "--power"}, set()),
    "fracint": ({"--x", "--mu", "--a", "--power"}, {"--x", "--mu"}),
}


def _subparser(parser, name):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestEval:
    def test_poch_finite(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "poch", "--a", "0.5", "--q", "0.5",
                               "--n", "2")
        assert code == 0 and out.strip() == "0.375"

    def test_poch_requires_one_order(self, capsys):
        err = usage_error(capsys, "eval", "poch", "--a", "0.5", "--q", "0.5")
        assert "one of the arguments --n --alpha --inf is required" in err

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--q", "0.5", "--x", "2.5", "--theta", "9"], "unrecognized arguments: --theta"),
        (["gamma", "--q", "0.5"], "required: --x"),
        (["hsinh", "--q", "0.5", "--x", "0.3"], "required: --t"),
        (["fracint", "--q", "0.5", "--x", "0.6"], "required: --mu"),
        (["hcos", "--q", "0.5"], "required: --theta"),
        (["qint", "--q", "0.5", "--a", "0.2+0.3i"], "argument --a: invalid float value"),
        (["qint", "--q", "0.5", "--x", "0.6"], "unrecognized arguments: --x"),
        (["phi", "--q", "0.5", "--numer", "0.2,abc"], "cannot parse number 'abc'"),
        (["poch", "--a", "0.5", "--n", "2"], "required: --q"),
        (["poch", "--q", "0.5", "--a", "0.5", "--n", "2", "--inf"],
         "argument --inf: not allowed with argument --n"),
        (["gamma", "--q", "0.5", "--x", "2.5", "--verbose"], "unrecognized arguments: --verbose"),
    ])
    def test_foreign_missing_or_bad_flag_is_a_usage_error(self, capsys, argv, message):
        assert message in usage_error(capsys, "eval", *argv)

    def test_base_outside_the_domain_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "gamma", "--q", "1.5", "--x", "2.5")
        assert code == 2 and out == "" and err.startswith("domain error: q must lie")

    def test_hcos_at_real_parameters_prints_a_real_number(self, capsys):
        # h(cos theta; a) = |(a e^{i theta};q)_inf|^2 is real to the bit
        code, out, _ = run_cli(capsys, "eval", "hcos", "--q", "0.5", "--theta", "1.0",
                               "--params", "0.3,0.2,0.1,0.4")
        assert code == 0 and "i" not in out
        assert float(out) == pytest.approx(0.14802098651913803, rel=1e-15)

    def test_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "--x", "1", "--q", "0.3")
        assert code == 0 and float(out.strip()) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_pole(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "--x=-1", "--q", "0.3")
        assert code == 2 and "pole" in err

    @pytest.mark.parametrize("x, message", [
        # q^x rounds to 1, so (1 - q^x) is 0: x names no pole itself
        ("1e-300", "x=1e-300 is within 1e-12 of the pole at 0"),
        ("-2.0000000000001", "x=-2.0000000000001 is within 1e-12 of the pole at -2"),
        # the pole in 17 significant digits, not as a 301-digit integer
        ("-1e300", "x=-1e+300 is within 1e-12 of the pole at -1.0000000000000001e+300"),
    ])
    def test_gamma_pole_error_names_the_pole(self, capsys, x, message):
        code, out, err = run_cli(capsys, "eval", "gamma", "--q", "0.5", f"--x={x}")
        assert (code, out, err) == (2, "", f"domain error: q-gamma: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["poch", "--q", "0.5", "--a", "1e300", "--n", "3"],
        ["poch", "--q", "0.5", "--a", "1e200", "--alpha", "2.5"],
        ["poch", "--q", "0.5", "--a", "1e300", "--inf"],
    ])
    def test_non_finite_value_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out, err) == (2, "", "numeric error: value is not finite\n")

    # each subject with a NaN or infinite flag, and the flags it names: the
    # flags are checked before any evaluation, so none runs into a factor cap
    @pytest.mark.parametrize("argv, named", [
        (["poch", "--a", "inf", "--n", "3"], "--a=inf"),
        (["poch", "--a", "0.5", "--alpha", "nan"], "--alpha=nan"),
        (["poch", "--a", "0.5", "--alpha=-inf"], "--alpha=-inf"),
        (["gamma", "--x", "nan"], "--x=nan"),
        (["gamma", "--x", "inf"], "--x=inf"),
        (["phi", "--numer", "0.3,nan", "--denom", "0.2,inf", "--z", "0.5"],
         "--numer=nan, --denom=inf"),
        (["hcos", "--theta", "nan"], "--theta=nan"),
        (["hcos", "--theta", "1", "--params", "0.1,-inf"], "--params=-inf"),
        (["hsinh", "--x", "nan", "--t", "0.1+nani"], "--x=nan, --t=0.10000000000000001+nani"),
        (["qint", "--a", "nan"], "--a=nan"),
        (["qint", "--b", "inf"], "--b=inf"),
        (["fracint", "--x", "0.6", "--mu", "nan"], "--mu=nan"),
    ])
    def test_non_finite_flag_is_a_domain_error(self, capsys, argv, named):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", argv[0], "--q", "0.5", *argv[1:])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, err) == (2, "", f"domain error: flags must be finite, got {named}\n")

    def test_infinite_alpha_is_the_infinite_order(self, capsys):
        argv = ["eval", "poch", "--q", "0.5", "--a", "0.5"]
        assert run_cli(capsys, *argv, "--alpha", "inf") == run_cli(capsys, *argv, "--inf")

    # the terms of a long terminating series pass the double range, or at
    # q = 0.5 the factor q^(n - k) of its first ratio does
    @pytest.mark.parametrize("argv, n", [
        (["--q", "0.5", "--terminating-k", "2000"], 1),
        (["--q", "0.9", "--terminating-k", "800"], 9),
        (["--q", "0.99", "--terminating-k", "10000"], 7),
    ])
    def test_phi_overflow_is_a_convergence_error(self, capsys, argv, n):
        code, out, err = run_cli(capsys, "eval", "phi", "--z", "0.5", *argv)
        assert (code, out, err) == (
            2, "", f"convergence error: phi series: term {n} or the partial sum through it "
                   "is not finite\n")

    @pytest.mark.parametrize("argv", [
        ["--numer", "0.3,nan", "--denom", "0.2", "--z", "0.5"],
        ["--numer", "0.3", "--denom", "0.2", "--z", "nan"],
        ["--numer", "0.3", "--denom", "inf", "--z", "0.5"],
    ])
    def test_phi_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", "phi", "--q", "0.5", *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and "must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        # 2.0 is q^-k for k of about 6.9e12, which used to be summed term by term
        (["phi", "--q", "0.9999999999999", "--numer", "2", "--z", "0.5"], "term cap"),
        # q^mu rounds to 1, where Gamma_q(mu) is not finite
        (["fracint", "--q", "0.5", "--x", "0.6", "--mu", "1e-17"], "rounds to 1"),
    ])
    def test_out_of_reach_input_is_a_quick_domain_error(self, capsys, argv, message):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and message in err

    def test_phi_terminating(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "phi", "--q", "0.5", "--numer", "0.3",
            "--denom", "0.2", "--z", "0.5", "--terminating-k", "0"
        )
        assert code == 0 and float(out.strip()) == 1.0

    def test_complex_output_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "poch", "--a", "0.2+0.3i", "--q", "0.5", "--n", "1"
        )
        assert code == 0 and "i" in out

    def test_qint_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "qint", "--q", "0.5", "--b", "1", "--power", "1"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_fracint_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "fracint", "--q", "0.5", "--x", "0.6", "--a", "0.2",
            "--mu", "1.0"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["poch", "--q", "0.5", "--a", "4", "--alpha", "1"],
        ["phi", "--q", "0.5", "--numer", "0.3", "--denom", "4", "--z", "0.2"],
    ])
    def test_vanishing_factor_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["qint", "--q", "0.5", "--power", "-1"],
        ["fracint", "--q", "0.5", "--x", "0.5", "--mu", "1.5", "--power", "-2"],
    ])
    def test_overflowing_integrand_exits_2(self, capsys, argv):
        # t^power overflows once q^n underflows: the sum stops at the first
        # non-finite term, and no numpy warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err.startswith("convergence error:") and "Traceback" not in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "nonsense", "--q", "0.5"])
        assert exc.value.code == 64
        capsys.readouterr()

    def test_every_subject_has_a_subcommand(self):
        assert set(EVAL_FLAGS) == set(cli._EVAL)

    @pytest.mark.parametrize("name", sorted(EVAL_FLAGS))
    def test_subject_takes_exactly_q_and_its_flags(self, name):
        flags, required = EVAL_FLAGS[name]
        parser = _subparser(_subparser(cli._build_parser(), "eval"), name)
        options = {s for a in parser._actions for s in a.option_strings}
        assert options == {"-h", "--help", "--q"} | flags
        assert {s for a in parser._actions if a.required
                for s in a.option_strings} == {"--q"} | required


class TestCheck:
    def test_askey_wilson_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3",
            "--b", "0.2", "--c", "0.1", "--d", "0.4", "--tol", "1e-8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["rel_err"] < 1e-8

    @pytest.mark.filterwarnings("error")  # any warning, as PYTHONWARNINGS=error
    @pytest.mark.parametrize("argv", [
        ["askey-wilson", "--q", "0.5", "--a", "0.3", "--b", "0.2", "--c", "0.1", "--d", "0.4"],
        ["reversal-askey-wilson", "--q", "0.5", "--a", "0.2", "--b=-0.1+0.1i"],
        ["lemma-three-term", "--q", "0.5", "--a", "0.2", "--x", "0.6", "--mu", "1.5", "--b",
         "0.3", "--s", "0.25", "--t", "0.15", "--z", "0.2", "--r", "0.4", "--u", "0.1"],
    ])
    def test_report_is_one_compact_line(self, capsys, argv):
        code, out, err = run_cli(capsys, "check", *argv)
        assert (code, err) == (0, "")
        assert out == compact(out) and out.count("\n") == 1
        doc = json.loads(out)
        assert sorted(doc["lhs"]) == ["im", "re"]
        if "--b=-0.1+0.1i" in argv:
            assert doc["params"]["b"] == {"re": -0.1, "im": 0.1}

    @pytest.mark.parametrize("argv", [
        ["check", "reversal-askey-wilson", "--q", "0.5", "--a", "0.2", "--b", "-0.1+0.1i"],
        ["eval", "hsinh", "--q", "0.5", "--x", "1.0", "--t", "-0.5i"],
    ])
    def test_leading_minus_value_names_the_equals_form(self, capsys, argv):
        err = usage_error(capsys, *argv)
        assert err.endswith(f"error: argument {argv[-2]}: expected one argument "
                            "(a value that begins with '-' takes the form --flag=value)\n")

    @pytest.mark.parametrize("identity, argv, message", [
        ("askey-wilson", ["--q", "0.5", "--a", "1.2"], "need max(|a|,|b|,|c|,|d|) < 1"),
        # a -3phi2 form with a nonzero value of the parameter it drops
        ("fractional-askey-wilson-3phi2",
         ["--q", "0.5", "--a", "0.2", "--b", "0.3", "--c", "0.1", "--d", "0.15",
          "--x", "0.6", "--mu", "1.5"], "needs d = 0"),
        # |qabcd| is about 5e497, but its product is NaN (inf * 0 inside the
        # complex multiply), which used to pass the rule and end diverged
        ("reversal-askey-wilson",
         ["--q", "0.1", "--a=-1e300", "--b", "1e200i", "--c", "0.3+0.4i", "--d", "0.1"],
         "need |qabcd| < 1, got nan"),
    ])
    def test_invariant_violation_exits_65(self, capsys, identity, argv, message):
        code, out, err = run_cli(capsys, "check", identity, *argv)
        assert code == 65 and out == ""
        assert err.startswith("invariant violation:") and message in err

    @pytest.mark.parametrize("extra", [
        ["--alpha-g", "11.2"],
        ["--alpha-g", "12"],
        ["--alpha-g", "11.2", "--a", "0.1", "--b", "0.1", "--c", "0.1", "--d", "0.1"],
    ])
    def test_underflowing_gaussian_base_exits_65(self, capsys, extra):
        code, out, err = run_cli(capsys, "check", "atakishiyev", *extra)
        assert code == 65 and out == ""
        assert "Traceback" not in err and "underflow" in err

    @pytest.mark.parametrize("identity, extra", [
        ("atakishiyev", []),
        ("fractional-atakishiyev", ["--a", "0.15", "--x", "0.6", "--mu", "1.5"]),
    ])
    def test_gaussian_base_past_the_square_range_exits_65(self, capsys, identity, extra):
        # alpha_g^2 is past the double range: q = 0, not an errno OverflowError
        code, out, err = run_cli(capsys, "check", identity, "--alpha-g", "1e155", *extra)
        assert (code, out, err) == (65, "", "invariant violation: q^3 = exp(-6 alpha_g^2) "
                                            "underflows to 0 at alpha_g=1e+155\n")

    @pytest.mark.parametrize("identity, extra", [
        ("atakishiyev", []),
        ("fractional-atakishiyev", ["--a", "0.15", "--x", "0.6", "--mu", "1.5"]),
    ])
    def test_gaussian_base_rounding_to_one_exits_65(self, capsys, identity, extra):
        code, out, err = run_cli(capsys, "check", identity, "--alpha-g", "1e-9", *extra)
        assert (code, out, err) == (65, "", "invariant violation: q = exp(-2 alpha_g^2) "
                                            "rounds to 1 at alpha_g=1e-09\n")

    def test_missing_required_param_exits_64(self, capsys):
        err = usage_error(capsys, "check", "askey-wilson", "--a", "0.3")
        assert "the following arguments are required: --q" in err

    def test_every_identity_has_a_subcommand(self):
        assert set(CHECK_FLAGS) == set(identities.IDENTITY_REGISTRY)

    @pytest.mark.parametrize("name", sorted(CHECK_FLAGS))
    def test_subcommand_takes_exactly_tol_and_its_fields(self, name):
        flags, required = CHECK_FLAGS[name]
        parser = _subparser(_subparser(cli._build_parser(), "check"), name)
        options = {s for a in parser._actions for s in a.option_strings}
        assert options == {"-h", "--help", "--tol"} | flags
        assert {s for a in parser._actions if a.required
                for s in a.option_strings} == set(required[::2])

    @pytest.mark.parametrize("name", sorted(CHECK_FLAGS))
    def test_flags_parse_to_the_field_types(self, name):
        flags, _ = CHECK_FLAGS[name]
        argv = [tok for flag in sorted(flags) for tok in (flag, "0.25")]
        args = cli._build_parser().parse_args(["check", name, *argv, "--tol", "1e-9"])
        assert args.identity == name and args.tol == 1e-9
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            assert value == 0.25
            assert type(value) is (complex if flag in COMPLEX_FLAGS else float)

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in sorted(CHECK_FLAGS)
        for flag in sorted(ALL_FLAGS - CHECK_FLAGS[name][0])
    ])
    def test_foreign_flag_exits_64(self, capsys, name, flag):
        err = usage_error(capsys, "check", name, *CHECK_FLAGS[name][1], flag, "0.1")
        assert f"unrecognized arguments: {flag} 0.1" in err

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in sorted(CHECK_FLAGS) for flag in CHECK_FLAGS[name][1][::2]
    ])
    def test_missing_required_flag_exits_64(self, capsys, name, flag):
        argv = CHECK_FLAGS[name][1]
        i = argv.index(flag)
        err = usage_error(capsys, "check", name, *argv[:i], *argv[i + 2:])
        assert f"the following arguments are required: {flag}" in err

    def test_converging_gaussian_point_passes(self, capsys):
        # b = c = d = 0.06: the outer terms peak near 1e11 at k = 20, then decay
        code, out, _ = run_cli(
            capsys, "check", "fractional-atakishiyev", "--alpha-g", "1", "--a", "0.15",
            "--b", "0.06", "--c", "0.06", "--d", "0.06", "--x", "0.6", "--mu", "1.5"
        )
        assert code == 0 and json.loads(out)["rel_err"] < 1e-13

    def test_three_term_lemma_ignores_the_fractional_domain(self, capsys):
        # a > x and mu do not matter: x and mu do not enter the relation
        code, out, _ = run_cli(
            capsys, "check", "lemma-three-term", "--q", "0.5", "--a", "0.7",
            "--x", "0.6", "--mu", "1.0", "--b", "0.3", "--s", "0.25", "--t", "0.15",
            "--u", "0.1", "--r", "0.4", "--z", "0.2"
        )
        assert code == 0 and json.loads(out)["rel_err"] < 1e-12

    @pytest.mark.parametrize("identity", ["fractional-generating",
                                          "fractional-generating-3phi2"])
    def test_generating_checks_keep_the_fractional_domain(self, capsys, identity):
        code, _, err = run_cli(
            capsys, "check", identity, "--q", "0.5", "--a", "0.7", "--x", "0.6",
            "--mu", "1.0"
        )
        assert code == 65 and "0 < a < x < 1" in err

    def test_atakishiyev_gaussian_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "check", "atakishiyev", "--alpha-g", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_failing_tolerance_exits_1(self, capsys):
        # q = 0.4: at q = 0.5 the sides agree to the bit, and only est_error fails
        code, out, _ = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.4", "--a", "0.3",
            "--b", "0.2", "--c", "0.1", "--d", "0.4", "--tol", "1e-30"
        )
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert doc["failure"].startswith("rel_err") and "tol 1.000e-30" in doc["failure"]

    def test_cancelling_reversal_near_q_one_exits_1(self, capsys):
        # both sides near 1e-80: the error estimate, far above tol * |rhs|,
        # fails the check along with the relative error
        code, out, _ = run_cli(
            capsys, "check", "reversal-askey-wilson", "--q", "0.99", "--a", "0.3",
            "--b", "0.2", "--c", "0.1", "--d", "0.4"
        )
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False and "est_error" in doc["failure"]

    def test_passed_report_has_no_failure(self, capsys):
        code, out, _ = run_cli(capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3")
        assert code == 0 and "failure" not in json.loads(out)

    @pytest.mark.parametrize("identity, argv", [
        ("askey-wilson", ["--q", "0.5", "--a", "0.3", "--b", "nan"]),
        # complex flags: only a trailing i is the imaginary unit
        ("askey-wilson", ["--q", "0.5", "--a", "0.3", "--b", "inf"]),
        ("askey-wilson", ["--q", "0.5", "--a", "0.3", "--b=-inf"]),
        ("askey-wilson", ["--q", "inf", "--a", "0.3"]),
        ("fractional-askey-wilson", ["--q", "0.5", "--a", "0.2", "--x", "0.6", "--mu=-inf"]),
        ("atakishiyev", ["--alpha-g", "nan"]),
    ])
    def test_non_finite_flag_exits_65(self, capsys, identity, argv):
        code, out, err = run_cli(capsys, "check", identity, *argv)
        assert code == 65 and out == "" and "must be finite" in err

    def test_order_with_q_power_one_exits_65(self, capsys):
        code, out, err = run_cli(capsys, "check", "fractional-generating", "--q", "0.5",
                                 "--a", "0.2", "--x", "0.6", "--mu", "1e-17", "--b", "0.3",
                                 "--s", "0.25", "--t", "0.15", "--z", "0.2")
        assert code == 65 and out == ""
        assert err.startswith("invariant violation:") and "rounds to 1" in err

    def test_vanishing_factor_exits_0(self, capsys, zero_factor_scale):
        # a weight factor is exactly 0 at the window probe t = 1: the weight
        # is 0 there, and h_sinh at that point prints 0
        code, out, err = run_cli(
            capsys, "check", "reversal-askey-wilson", "--q", "0.5", "--a", "0.2",
            f"--b=-{zero_factor_scale!r}i"
        )
        assert code == 0 and err == "" and json.loads(out)["passed"]
        code, out, err = run_cli(capsys, "eval", "hsinh", "--q", "0.5", "--x", "1",
                                 f"--t=-{zero_factor_scale!r}i")
        assert code == 0 and err == "" and out == "0\n"

    def test_complex_real_line_parameter_exits_0(self, capsys):
        # the integrand is complex and not conjugate-symmetric in t
        code, out, err = run_cli(capsys, "check", "reversal-askey-wilson", "--q", "0.5",
                                 "--a", "0.2", "--b", "0.1i")
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["lhs"]["im"] != 0

    @pytest.mark.parametrize("identity, argv", [
        ("fractional-askey-wilson",
         ["--q", "0.5", "--b", "0.3", "--c", "0.1", "--d", "0.15", "--x", "0.6", "--mu", "1.5"]),
        ("fractional-generating",
         ["--q", "0.5", "--x", "0.6", "--mu", "1.5", "--b", "0.3", "--s", "0.25",
          "--t", "0.15", "--z", "0.2", "--r", "0.4", "--u", "0.1"]),
    ])
    @pytest.mark.parametrize("a, want", [("1e-310", 65), ("5e-324", 65), ("4e-309", 0),
                                         ("1e-308", 0)])
    def test_subnormal_lower_limit_exits_cleanly(self, capsys, identity, argv, a, want):
        code, out, err = run_cli(capsys, "check", identity, "--a", a, *argv)
        assert code == want, err
        assert "Traceback" not in err and "OverflowError" not in err
        if want == 65:
            assert "x/a" in err and out == ""
        else:
            assert json.loads(out)["passed"]

    @pytest.mark.parametrize("argv", [
        ["reversal-askey-wilson", "--q", "0.5", "--a", "1e100", "--b", "1e-100"],
        ["atakishiyev", "--alpha-g", "1", "--a", "1e100", "--b", "1e-100"],
    ])
    def test_overflowing_weight_exits_2(self, capsys, argv):
        # the weight is past the double range at every window probe, and no
        # numpy warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2 and out == "" and err.startswith("WindowFailure: ")

    def test_overflow_inside_a_check_exits_2(self, capsys, monkeypatch):
        def overflowing(p, tol=None):
            raise OverflowError("math range error")

        monkeypatch.setitem(identities.IDENTITY_REGISTRY, "askey-wilson",
                            (identities.AWParams, overflowing))
        code, out, err = run_cli(capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3")
        assert code == 2 and out == "" and err.startswith("OverflowError: math range error")

    def test_unknown_identity_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "bogus-identity", "--q", "0.5"])
        assert exc.value.code == 64
        capsys.readouterr()


class TestNumericOptions:
    @pytest.mark.parametrize("argv, message", [
        (["--ctx-eps", "1e-14", "suite"], "invalid choice: '1e-14'"),
        (["--ctx-max-terms", "500", "eval", "gamma", "--q", "0.5", "--x", "1"],
         "invalid choice: '500'"),
    ])
    def test_truncation_policy_has_no_option(self, capsys, argv, message):
        assert message in usage_error(capsys, *argv)

    @pytest.mark.parametrize("argv, message", [
        (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--tol", "inf"],
         "argument --tol: need a finite float above 0, got 'inf'"),
        (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--tol", "nan"], "got 'nan'"),
        (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--tol=-1e-8"],
         "got '-1e-8'"),
        (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--tol", "0"], "got '0'"),
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv, message):
        assert message in usage_error(capsys, *argv)


class TestSuite:
    def test_empty_checks_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": []}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["reports", "seed", "summary", "tool", "version"]
        assert doc["summary"] == {
            "total": 0, "passed": 0, "failed": 0, "skipped": 0, "diverged": 0
        }

    def test_document_is_one_compact_line(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "suite")
        assert code == 0 and out == compact(out) and out.count("\n") == 1
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "suite", "--out", str(out_path))
        text = out_path.read_text()
        assert code == 0 and text == compact(text) and text.count("\n") == 1
        doc = json.loads(out)
        assert sorted(doc["reports"][0]["report"]["lhs"]) == ["im", "re"]

    def test_unknown_identity_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"seed": 1, "checks": [{"identity": "bogus"}]})
        )
        code, _, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and "askey-wilson" in err

    def test_unknown_parameter_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.1, "e": 0.5}}
        ]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == "" and "unknown parameter" in err

    @pytest.mark.parametrize("name, base", [
        ("askey-wilson", {"q": 0.5, "a": 0.1}),
        ("reversal-askey-wilson", {"q": 0.5, "a": 0.1}),
        ("atakishiyev", {"alpha_g": 1.0}),
    ])
    def test_plain_row_spec_with_x_exits_64(self, capsys, tmp_path, name, base):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": name, "params": {**base, "x": 0.6}}]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == ""
        assert f"unknown parameter(s) x for {name}" in err

    def test_generating_3phi2_spec_with_r_exits_64(self, capsys, tmp_path):
        name = "fractional-generating-3phi2"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [{"identity": name, "params": {
            "q": 0.5, "a": 0.2, "x": 0.6, "mu": 1.5, "r": 0.4}}]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == ""
        assert f"unknown parameter(s) r for {name}" in err

    @pytest.mark.parametrize("key, value, message", [
        # a string used to end in a TypeError traceback, true to pass as 1,
        # 2.7 draws to give 2
        ("tolerance", "abc", "tolerance of askey-wilson must be a finite real > 0"),
        ("tolerance", True, "got True"),
        ("draws", 2.7, "draws of askey-wilson must be an integer >= 1, got 2.7"),
    ])
    def test_bad_tolerance_or_draws_spec(self, capsys, tmp_path, key, value, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3}, key: value}
        ]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == "" and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("params, message", [
        ({"q": 0.5}, "missing parameter(s) a"),
        ({"q": 0.5, "a": "0.2"}, "must be a real number"),
        # {"re", "im"} of reals fixes a complex field only; in a float field,
        # with a draw range or a string part or a foreign key, it is no value
        ({"q": 0.5, "a": {"re": 0.2, "im": 0.0}}, "parameter a of askey-wilson must be a real "
                                                  "number or a [lo, hi] pair of reals"),
        ({"q": 0.5, "a": 0.2, "b": {"re": [0.1, 0.2], "im": 0.0}}, "parameter b"),
        ({"q": 0.5, "a": 0.2, "b": {"re": "0.1", "im": 0.0}}, "parameter b"),
        ({"q": 0.5, "a": 0.2, "b": {"re": 0.1, "im": 0.0, "abs": 0.1}}, "parameter b"),
    ])
    def test_malformed_params_spec(self, capsys, tmp_path, params, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": params}
        ]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == "" and message in err

    def test_check_report_params_rerun_as_a_spec(self, capsys, tmp_path):
        # a report writes each complex field as {"re", "im"}, which a spec
        # takes: the params of a check report, as a one-entry spec, give the
        # same report but for wall_time.  The non-real b takes the two rows
        # b e^{+-i theta} of the Askey-Wilson weight
        code, out, _ = run_cli(capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3",
                               "--b", "0.2+0.1i", "--c", "0.1", "--d", "0.4")
        assert code == 0
        report = json.loads(out)
        assert report["params"]["b"] == {"re": 0.2, "im": 0.1}
        assert report["lhs"]["im"] != 0.0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": report["params"]}]}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 0
        (entry,) = json.loads(out)["reports"]
        assert entry["status"] == "passed"
        rerun = entry["report"]
        for r in (report, rerun):
            r.pop("wall_time")
        assert rerun == report

    def test_suite_report_entries_rerun_as_specs(self, capsys, tmp_path):
        # every entry of the shipped suite's report, its params and
        # tolerance as a one-entry spec, gives the same entry but for
        # wall_time: the params round-trip through the params classes
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        entries = json.loads(out)["reports"]
        spec = tmp_path / "spec.json"
        for entry in entries:
            report = entry.get("report", {})
            spec.write_text(json.dumps({"seed": 1, "checks": [{
                "identity": entry["identity"], "params": report.get("params", entry.get("params")),
                **({"tolerance": report["tolerance"]} if report else {})}]}))
            code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
            (rerun,) = json.loads(out)["reports"]
            for e in (entry, rerun):
                e.get("report", {}).pop("wall_time", None)
            assert rerun == entry

    def test_failed_entries_keep_their_params(self, capsys, tmp_path):
        diverging = SLOW_KSUM_GAUSSIAN
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "fractional-atakishiyev", "params": diverging},
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 1.5}},
        ]}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 1
        diverged, skipped = json.loads(out)["reports"]
        assert diverged["status"] == "diverged" and diverged["params"] == diverging
        assert skipped["status"] == "skipped"
        assert skipped["params"] == {"q": 0.5, "a": 1.5}

    def test_diverged_entry_reports_its_failure_data(self, capsys, tmp_path):
        diverging = SLOW_KSUM_GAUSSIAN
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "fractional-atakishiyev", "params": diverging},
            {"identity": "atakishiyev", "params": {"alpha_g": 12.0}},
        ]}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 1
        diverged, skipped = json.loads(out)["reports"]
        details = diverged["details"]
        assert details["k"] == 4096
        assert 1e-9 < details["term_magnitude"] < 1e-8
        assert set(details["partial"]) == {"re", "im"}
        assert skipped["status"] == "skipped" and "details" not in skipped
        assert skipped["params"] == {"alpha_g": 12.0}

    def test_subnormal_lower_limits_are_reported(self, capsys, tmp_path):
        point = {"q": 0.5, "b": 0.3, "c": 0.1, "d": 0.15, "x": 0.6, "mu": 1.5}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "fractional-askey-wilson", "params": {**point, "a": a}}
            for a in (1e-310, 4e-309, 5e-324, 1e-308)
        ]}))
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "suite", "--spec", str(spec), "--out", str(out_path))
        assert code == 0 and "Traceback" not in err
        doc = json.loads(out_path.read_text())
        statuses = [r["status"] for r in doc["reports"]]
        assert statuses == ["skipped", "passed", "skipped", "passed"]

    def test_nan_parameter_is_skipped(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "checks": [{"identity": "askey-wilson", '
                        '"params": {"q": 0.5, "a": 0.3, "b": NaN}}]}')
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        (entry,) = json.loads(out)["reports"]
        assert code == 0 and entry["status"] == "skipped" and "finite" in entry["reason"]

    def test_int_past_the_double_range_is_skipped(self, capsys, tmp_path):
        # a 401-digit literal, in a float field and in a complex one:
        # cmath.isfinite raised OverflowError for it, so the entry ended
        # diverged and the suite exited 1
        big = "1" + "0" * 400
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "checks": ['
                        '{"identity": "askey-wilson", "params": {"q": 0.5, "a": %s}}, '
                        '{"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3, "b": -%s}}]}'
                        % (big, big))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        reports = json.loads(out)["reports"]
        assert code == 0 and err == "skip      askey-wilson\n" * 2
        assert [(r["status"], r["reason"]) for r in reports] == [
            ("skipped", "parameters must be finite, got a=1.000e+400"),
            ("skipped", "parameters must be finite, got b=-1.000e+400")]
        assert reports[0]["params"]["a"] == 10**400

    def test_unreadable_spec(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "suite", "--spec", str(tmp_path / "missing.json")
        )
        assert code == 66

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": 1, "checks": [', "Expecting value"),
        (b'{"seed": 1, "checks": [], "x": "\xff"}', "can't decode byte 0xff"),
        # json.load raised this ValueError out of main, with a traceback
        (b'{"seed": 1, "checks": [], "x": 1' + b"0" * 5000 + b"}", "Exceeds the limit"),
    ], ids=["json", "utf-8", "5001 digits"])
    def test_spec_that_does_not_load_exits_66(self, capsys, tmp_path, content, message):
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert (code, out) == (66, "") and err.startswith("cannot read suite spec: ")
        assert message in err and err.count("\n") == 1

    def test_skipped_entries_do_not_fail_suite(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": 1,
            "checks": [{"identity": "askey-wilson",
                        "params": {"q": 0.5, "a": 1.5}}],
        }))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["skipped"] == 1

    @pytest.mark.parametrize("spec, message", [
        # the misspelt keys were ignored: the check ran at the default
        # tolerance 1e-6 and passed
        ({"seed": 1, "sead": 5, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3, "b": 0.2},
             "tolerence": 1e-30}]},
         "unknown key(s) sead in the suite spec; known: checks, seed"),
        ({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3, "b": 0.2},
             "tolerence": 1e-30}]},
         "unknown key(s) tolerence in checks[0]; known: draws, identity, params, tolerance"),
        # these leaked Python's own messages
        (5, "suite spec must be a mapping, got int"),
        ({"seed": 1, "checks": None},
         "checks of a suite spec must be a list of mappings"),
        ({"seed": 1, "checks": [{"params": {"q": 0.5}}]},
         "checks[0] needs an identity name, got None"),
        # a null seed drew from OS entropy, so the report could not reproduce the run
        ({"seed": None, "checks": []}, "seed of a suite spec must be an integer, got None"),
        ({"seed": True, "checks": []}, "seed of a suite spec must be an integer, got True"),
    ])
    def test_malformed_spec_is_a_named_usage_error(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "suite", "--spec", str(path))
        assert (code, out, err) == (64, "", f"bad suite spec: {message}\n")

    def test_report_written_to_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        out_path = tmp_path / "report.json"
        spec.write_text(json.dumps({
            "seed": 2,
            "checks": [{"identity": "askey-wilson",
                        "params": {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.1,
                                   "d": 0.4}}],
        }))
        code, _, _ = run_cli(
            capsys, "suite", "--spec", str(spec), "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["passed"] == 1
        assert doc["seed"] == 2


class _Stalled(qaw.QawError):
    """A diverging failure that only its own class declares."""

    fields = ("steps", "partial")


class _OutOfReach(qaw.QawError):
    """A skipped failure that only its own class declares."""

    outcome = "skipped"


EXPORTED_ERRORS = sorted(
    (obj for obj in vars(qaw).values() if isinstance(obj, type) and issubclass(obj, qaw.QawError)),
    key=lambda cls: cls.__name__,
)

# each error class, the suite status and details, and the qaw eval prefix of
# a failure it raises
LOCAL_FAILURES = [
    (_Stalled("stalled at 7", steps=7, partial=0.5 + 1j), "diverged",
     {"steps": 7, "partial": 0.5 + 1j}, "convergence error"),
    (_OutOfReach("beyond the double range"), "skipped", None, "domain error"),
]


def _raising(exc):
    def failing(*args, **kwargs):
        raise exc

    return failing


class TestFailureTable:
    """Each error class declares its outcome and fields once, and every
    front end reads them from the class."""

    @pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
    def test_exported_error_declares_its_row(self, cls):
        assert cls.outcome in ("skipped", "diverged")
        assert set(cls.fields) <= set(vars(cls("message")))
        # its row of the table in the qaw.context docstring
        (row,) = [line for line in qaw.context.__doc__.splitlines()
                  if line.startswith(f"``{cls.__name__}``")]
        prefix = "domain" if cls.outcome == "skipped" else "convergence"
        assert row.split()[1] == cls.outcome
        assert (", ".join(cls.fields) or "(none)") in row
        assert f"2, ``{prefix} error:``" in row
        assert row.split()[-1] == ("65" if cls is qaw.DomainError else "2")

    @pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
    def test_exported_error_takes_its_fields(self, cls):
        values = [f"value {i}" for i in range(len(cls.fields))]
        for exc in (cls("message", *values), cls("message", **dict(zip(cls.fields, values)))):
            assert [getattr(exc, f) for f in cls.fields] == values
            assert exc.args == ("message",) and str(exc) == "message"
        assert all(getattr(cls("message"), f) is None for f in cls.fields)
        with pytest.raises(TypeError):
            cls("message", undeclared=1)
        with pytest.raises(TypeError):
            cls("message", *values, "one value too many")
        if cls.fields:
            with pytest.raises(TypeError):
                cls("message", *values, **{cls.fields[0]: "given twice"})

    @pytest.mark.parametrize("exc, status, details, prefix", LOCAL_FAILURES)
    def test_local_error_in_a_suite(self, monkeypatch, exc, status, details, prefix):
        monkeypatch.setitem(identities.IDENTITY_REGISTRY, "askey-wilson",
                            (identities.AWParams, _raising(exc)))
        params = {"q": 0.5, "a": 0.3}
        (oc,) = identities.run_suite([{"identity": "askey-wilson", "params": params}])
        assert (oc.status, oc.details, oc.params) == (status, details, params)
        assert oc.reason == f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("exc, status, details, prefix", LOCAL_FAILURES)
    def test_local_error_in_eval(self, capsys, monkeypatch, exc, status, details, prefix):
        monkeypatch.setattr(qcore, "q_gamma", _raising(exc))
        code, out, err = run_cli(capsys, "eval", "gamma", "--q", "0.5", "--x", "2.5")
        assert (code, out, err) == (2, "", f"{prefix}: {exc}\n")

    @pytest.mark.parametrize("exc, status, details, prefix", LOCAL_FAILURES)
    def test_local_error_in_check(self, capsys, monkeypatch, exc, status, details, prefix):
        monkeypatch.setitem(identities.IDENTITY_REGISTRY, "askey-wilson",
                            (identities.AWParams, _raising(exc)))
        code, out, err = run_cli(capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3")
        assert (code, out, err) == (2, "", f"{type(exc).__name__}: {exc}\n")


_GEN = ["--q", "0.5", "--a", "0.2", "--x", "0.6", "--mu", "1.5", "--b", "0.3", "--s", "0.25",
        "--t", "0.15", "--z", "0.2"]
_FRAC_AW = ["--q", "0.5", "--a", "0.2", "--b", "0.3", "--c", "0.1", "--x", "0.6", "--mu", "1.5"]
_FRAC_GAUSSIAN = ["--alpha-g", "1", "--a", "0.15", "--b", "0.02", "--x", "0.6", "--mu", "1.5"]
# command lines at the edges of the double range, each with its exit code;
# a later flag overrides an earlier one
EDGE_ARGV = [
    (["check", "askey-wilson", "--q", "0.5", "--a", "nan"], 65),
    (["check", "fractional-askey-wilson", *_FRAC_AW, "--b", "nan"], 65),
    (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--b", "1e308"], 65),
    (["check", "fractional-generating", *_GEN, "--b", "1e308"], 2),
    # x max|numerator| / a overflows: the k-sum's ratio rule skips it
    (["check", "fractional-atakishiyev", *_FRAC_GAUSSIAN, "--b", "1e308"], 65),
    (["check", "askey-wilson", "--q", "1e-300", "--a", "0.3"], 0),
    (["check", "fractional-generating", *_GEN, "--q", "1e-300"], 0),
    (["check", "reversal-askey-wilson", "--q", "1e-300", "--a", "0.2", "--b", "0.1"], 2),
    # x^mu underflows to 0, where both sides were 0 (or the generating row
    # overflowed)
    (["check", "fractional-askey-wilson", *_FRAC_AW, "--mu", "1e308"], 65),
    (["check", "fractional-generating", *_GEN, "--mu", "1e308"], 65),
    (["check", "fractional-atakishiyev", *_FRAC_GAUSSIAN, "--mu", "1500"], 65),
    (["check", "fractional-askey-wilson", *_FRAC_AW, "--mu", "1e-300"], 0),
    # q^mu rounds to 1
    (["check", "fractional-generating", *_GEN, "--mu", "1e-300"], 65),
    (["check", "atakishiyev", "--alpha-g", "1e-200"], 65),
    (["check", "atakishiyev", "--alpha-g", "30"], 65),
    (["eval", "poch", "--q", "1e-300", "--a", "0.5", "--inf"], 0),
    (["eval", "poch", "--q", "nan", "--a", "0.5", "--inf"], 2),
    (["eval", "poch", "--q", "0.5", "--a", "1e308", "--inf"], 2),
    (["eval", "gamma", "--q", "0.5", "--x", "1e308"], 2),
    (["eval", "poch", "--q", "0.5", "--a", "0.3", "--alpha=-2000"], 2),
    (["eval", "poch", "--q", "0.5", "--a", "0.3", "--alpha=-1e308"], 2),
    (["eval", "fracint", "--q", "0.5", "--x", "0.6", "--mu", "1e308"], 2),
    (["eval", "fracint", "--q", "0.5", "--x", "0.5", "--mu", "1e308"], 2),
    (["eval", "fracint", "--q", "0.5", "--x", "0.6", "--mu", "1e-300"], 2),
    # e^x is 0 or not finite
    (["eval", "hsinh", "--q", "0.5", "--x=-800", "--t", "0.2"], 2),
    (["eval", "hsinh", "--q", "0.5", "--x=-1e308", "--t", "0.2"], 2),
    (["eval", "hsinh", "--q", "0.5", "--x", "800", "--t", "0.2"], 2),
    # |t e^x| / LOG_RADIUS, and for the complex t |t e^x| itself, overflows
    (["eval", "hsinh", "--q", "0.5", "--x", "0.3", "--t", "1e308"], 2),
    (["eval", "hsinh", "--q", "0.5", "--x", "0.3", "--t=-1e308+1e308i"], 2),
    # log-magnitude 709.4, above 709 but a finite value
    (["eval", "hsinh", "--q", "0.5", "--x", "31.00075150058043", "--t", "1"], 0),
    # |b| overflows with both parts finite: the domain rule reads it as inf
    (["check", "askey-wilson", "--q", "0.5", "--a", "0.1", "--b", "1.5e308+1.5e308i",
      "--c", "0.1", "--d", "0.1"], 65),
    # so does |z| in the unit-disk rule of a 1phi0
    (["eval", "phi", "--q", "0.5", "--numer", "0.1", "--z", "1.5e308+1.5e308i"], 2),
]

# checks at overflowing parameters, with their one stderr line: an h_sinh
# argument past the double range at a single-rung window probe, and a first
# trapezoid level whose sum is inf - inf.  Each once ended in a traceback
# under an error filter, and the last in "OverflowError: absolute value too
# large" under an ignore filter.
_CAPPED = "NonConvergence: log (a;q)_inf with a=-infj did not converge in 10000 factors\n"
OVERFLOW_CHECKS = [
    (["atakishiyev", "--alpha-g", "10", "--a=-1e300", "--b=-0.5"], _CAPPED),
    (["reversal-askey-wilson", "--q", "0.1", "--a", "0.1", "--b=-1e300"], _CAPPED),
    (["reversal-askey-wilson", "--q", "0.9", "--a", "1.5", "--b", "1e10"],
     "NonConvergence: quadrature level with 65 new nodes is not finite: "
     "integrand not finite at node -28.83251953125\n"),
]

# a fractional reversal check whose first window batch raises, so each
# half-width is probed alone, where the integrand overflows
OVERFLOWING_PROBE = [
    "check", "fractional-reversal-askey-wilson", "--q=0.9284139782729063",
    "--a=0.00017237455643122373", "--b=0.004507113759592137+19.675949669306728i",
    "--c=293.9581256364541", "--d=0.6735508070384623", "--x=0.0005039593371292322"]


class TestEdgeArguments:
    @pytest.mark.parametrize("argv, want", EDGE_ARGV, ids=[" ".join(a) for a, _ in EDGE_ARGV])
    def test_ends_in_its_exit_code(self, capsys, argv, want):
        # a numpy warning here fails the test (filterwarnings); stderr holds
        # one message line or nothing
        code, out, err = run_cli(capsys, *argv)
        assert code == want, err
        assert "Traceback" not in err and err.count("\n") == (code != 0)
        assert (out != "") == (code in (0, 1))

    @pytest.mark.parametrize("argv, message", [
        # a power of q or of 1 - q past the double range names its inputs
        (["gamma", "--x", "1e308"],
         "q_gamma: (1-q)^(1-x) is past the double range at q=0.5, x=1e+308"),
        (["gamma", "--x=-2000.5"], "q_gamma: q^x is past the double range at q=0.5, x=-2000.5"),
        (["fracint", "--x", "0.5", "--mu", "1e308"],
         "fractional_q_integral: x^(mu-1) / (1-q)^(1-mu) is past the double range "
         "at q=0.5, x=0.5, mu=1e+308"),
        (["poch", "--a", "0.3", "--alpha=-2000"],
         "q_pochhammer: q^alpha is past the double range at q=0.5, a=(0.3+0j), "
         "alpha=-2000.0"),
        (["poch", "--a", "0.3", "--alpha=-1e308"],
         "q_pochhammer: q^alpha is past the double range at q=0.5, a=(0.3+0j), "
         "alpha=-1e+308"),
        (["hsinh", "--x=-800", "--t", "0.2"], "h_sinh: e^x is 0 or not finite at x=-800.0"),
        (["hsinh", "--x=-1e308", "--t", "0.2"], "h_sinh: e^x is 0 or not finite at x=-1e+308"),
        (["hsinh", "--x", "800", "--t", "0.2"], "h_sinh: e^x is 0 or not finite at x=800.0"),
        (["hsinh", "--x", "0.3", "--t", "1e308"],
         "h_sinh log-magnitude 726327.5 exceeds the double range; use h_sinh_log"),
        (["hsinh", "--x", "0.3", "--t=-1e308+1e308i"],
         "log (a;q)_inf with a=(-1.3498588075760033e+308-1.3498588075760033e+308j) "
         "did not converge in 10000 factors"),
        # |a| overflows, so a is capped
        (["poch", "--a=-1.5e308+1.5e308i", "--inf"],
         "(a;q)_inf with a=(-1.5e+308+1.5e+308j) did not converge in 10000 factors"),
    ])
    def test_past_the_double_range_names_its_cause(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "eval", argv[0], "--q", "0.5", *argv[1:])
        assert (code, out, err) == (2, "", f"convergence error: {message}\n")

    def test_unit_disk_rule_reads_an_overflowing_modulus_as_inf(self, capsys):
        code, out, err = run_cli(capsys, "eval", "phi", "--q", "0.5", "--numer", "0.1",
                                 "--z", "1.5e308+1.5e308i")
        assert (code, out, err) == (
            2, "", "domain error: 1phi0 requires |z| < 1 for convergence, got |z|=inf\n")

    @pytest.mark.parametrize("argv, message", OVERFLOW_CHECKS)
    def test_overflowing_check_names_its_cause(self, capsys, argv, message):
        # under tier-1's filter a numpy warning here raises
        assert run_cli(capsys, "check", *argv) == (2, "", message)

    @pytest.mark.parametrize("action", ["default", "error", "ignore"])
    def test_window_probe_past_the_range_under_any_filter(self, capsys, action):
        # the weight times the k-sum overflows at a single-rung probe; that
        # product printed two RuntimeWarnings under the default filter and
        # raised one out of main under an error filter
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            got = run_cli(capsys, *OVERFLOWING_PROBE)
        assert got == (2, "", "KSumDivergence: outer k-sum is not finite past 43 Taylor "
                              "coefficients (|term|=4.203e+18, x*max|numerator|/a=0.138)\n")
        assert caught == []

    def test_overflowing_check_ignoring_warnings(self):
        # under an ignore filter abs() of the level's complex NaN sum read a
        # stale ERANGE and raised OverflowError: absolute value too large
        argv, message = OVERFLOW_CHECKS[-1]
        src = os.path.dirname(os.path.dirname(qaw.__file__))
        proc = subprocess.run([sys.executable, "-W", "ignore", "-m", "qaw.cli", "check", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


class TestInProcessReuse:
    def test_consecutive_calls_behave_like_fresh_ones(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3",
            "--b", "0.2", "--c", "0.1", "--d", "0.4"
        )
        assert code == 0 and json.loads(out)["passed"] is True
        # --b of the check above must not leak: qint integrates over [0, 1]
        code, out, _ = run_cli(
            capsys, "eval", "qint", "--q", "0.5", "--power", "1"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0 / 1.5, rel=1e-12)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "nonsense", "--q", "0.5"])
        assert exc.value.code == 64
        _, err = capsys.readouterr()
        assert "invalid choice" in err


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["eval", "gamma", "--q", "0.5", "--x", "1"],
        ["check", "askey-wilson", "--q", "0.5", "--a", "0.3"],
        ["suite"],
    ])
    def test_closed_stdout_exits_66_without_a_traceback(self, argv):
        # the read end is closed before the command starts, so its first
        # write to stdout fails however short the output is
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(qaw.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run([sys.executable, "-m", "qaw.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 66
        assert "Traceback" not in proc.stderr.decode()
        assert "Exception ignored" not in proc.stderr.decode()


def _run_fresh(script, *args):
    """``python -c script args`` in a fresh interpreter that imports qaw from
    this tree and has not imported numpy."""
    src = os.path.dirname(os.path.dirname(qaw.__file__))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})


def _masked(text):
    return re.sub(r'"wall_time": [^,}]+', '"wall_time": 0', text)


# runs one command line, then writes the class of sys.modules["numpy"], any
# numpy core module loaded (numpy.core in 1.x, numpy._core in 2.x) and
# dataclasses or inspect if loaded (_STARTUP_FREE) as the last stderr line
_NUMPY_STATE = """
import sys
from qaw import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
core = [m for m in sys.modules if m.startswith(("numpy.core", "numpy._core"))]
loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(type(sys.modules["numpy"]).__name__, *core, *loaded, file=sys.stderr)
sys.exit(code)
"""

# writes the modules of the start-up that importing the CLI must not load:
# dataclasses (and the inspect, ast, dis and tokenize it imports) cost a
# third of qaw's own import
_STARTUP_FREE = """
import sys
import qaw.cli
print(*[m for m in ("dataclasses", "inspect") if m in sys.modules])
"""

# command lines that compute nothing with numpy, with their exit codes
NUMPY_FREE_LINES = [
    (["--version"], 0),
    (["-h"], 0),
    (["check", "lemma-three-term", *_GEN, "--r", "0.4", "--u", "0.1"], 0),
    (["eval", "poch", "--q", "0.5", "--a", "0.3", "--inf"], 0),
    (["eval", "gamma", "--q", "0.5", "--x", "2.5"], 0),
    (["eval", "phi", "--q", "0.5", "--numer", "0.2,0.3", "--denom", "0.1", "--z", "0.4"], 0),
    (["eval", "hcos", "--q", "0.5", "--theta", "1.0", "--params", "0.1,0.2"], 0),
    (["eval", "hsinh", "--q", "0.5", "--x", "0.3", "--t", "0.2"], 0),
    (["check", "askey-wilson", "--q", "0.5", "--a", "1.5"], 65),
]

# repeats each check at its fixed point, after one unmeasured call, and
# prints the minor page faults per call of each as a JSON list
_FAULTS_PER_CALL = """
import sys
from qaw import cli  # before numpy, which loads at the first check
import contextlib, io, json, resource

CALLS = 50
per_call = []
for line in sys.argv[1:]:
    argv = line.split()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(CALLS):
            cli.main(argv)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    per_call.append((after - before) / CALLS)
print(json.dumps(per_call))
"""


# runs one check on the parameters given as JSON, loading numpy just before
# it where the third argument is "numpy", and prints the report's wall_time
_FIRST_CHECK = """
import json, sys
from qaw.identities import run_check
if sys.argv[3] == "numpy":
    import numpy
    numpy.ndarray  # the lazy handle loads numpy here
print(run_check(sys.argv[1], json.loads(sys.argv[2])).wall_time)
"""


# runs one check with a clock that writes, at its first reading, the class
# of sys.modules["numpy"]: _LazyModule until numpy has loaded
_NUMPY_AT_CLOCK = """
import json, sys, time, types
from qaw import identities
seen = []

def perf_counter():
    seen.append(type(sys.modules["numpy"]).__name__)
    return time.perf_counter()

identities.time = types.SimpleNamespace(perf_counter=perf_counter)
identities.run_check(sys.argv[1], json.loads(sys.argv[2]))
print(seen[0])
"""


class TestLazyNumpy:
    @pytest.mark.parametrize("name", ["fractional-askey-wilson", "fractional-generating"])
    def test_numpy_loads_before_the_first_check_starts_its_clock(self, name):
        # the deterministic half of the timing test below
        proc = _run_fresh(_NUMPY_AT_CLOCK, name, json.dumps(FIXED_POINTS[name]))
        assert (proc.returncode, proc.stdout) == (0, "module\n"), proc.stderr

    @pytest.mark.parametrize("name", ["fractional-askey-wilson", "fractional-generating"])
    def test_first_check_does_not_time_numpy_load(self, name):
        # numpy, some 100 ms to load, loads in the first check of the
        # process, before its clock starts.  So that check reads about the
        # first check of a process that loaded numpy just before it: both
        # warm the heap and caches, and only a timed load, 50-100x, tells
        # them apart.  A timing spike in one pair (a process descheduled
        # for a few ms on a busy host) takes another pair of fresh
        # interpreters
        runs = []
        for _ in range(3):
            runs.append([float(_run_fresh(_FIRST_CHECK, name, json.dumps(FIXED_POINTS[name]),
                                          first).stdout) for first in ("qaw", "numpy")])
            if runs[-1][0] <= 2 * runs[-1][1]:
                return
        pytest.fail(f"first wall_time without and with numpy loaded beforehand: {runs}")

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        proc = _run_fresh(_STARTUP_FREE)
        assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr

    @pytest.mark.parametrize("argv, want", NUMPY_FREE_LINES,
                             ids=[" ".join(a) for a, _ in NUMPY_FREE_LINES])
    def test_line_leaves_numpy_unloaded(self, capsys, monkeypatch, argv, want):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps -h to the terminal
        proc = _run_fresh(_NUMPY_STATE, *argv)
        assert proc.stderr.splitlines()[-1] == "_LazyModule", proc.stderr
        # the same exit code and stdout as in this process, which has numpy
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (proc.returncode, _masked(proc.stdout)) == (want, _masked(out))

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
    def test_quadrature_checks_reuse_their_pages(self):
        # numpy loads after qaw's modules here, so without the allocator
        # priming in qaw/__init__.py the kernels' blocks sit at the heap
        # top, go back to the system at each free and fault in again: about
        # 150 faults per call, against under 1 with it
        proc = _run_fresh(
            _FAULTS_PER_CALL,
            "check reversal-askey-wilson --q 0.5 --a 0.2 --b 0.1 --c 0.1 --d 0.05",
            "check fractional-askey-wilson --q 0.5 --a 0.2 --b 0.3 --c 0.1 --d 0.15 "
            "--x 0.6 --mu 1.5",
        )
        assert proc.returncode == 0, proc.stderr
        assert all(faults < 10 for faults in json.loads(proc.stdout)), proc.stdout


def _readme_cli_lines():
    """The qaw eval and qaw check lines of the README's CLI block."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith(("qaw eval ", "qaw check "))]


README_CLI_LINES = _readme_cli_lines()


class TestReadme:
    def test_cli_block_has_every_eval_subject(self):
        assert {argv[1] for argv in README_CLI_LINES if argv[0] == "eval"} == set(EVAL_FLAGS)

    @pytest.mark.parametrize("argv", README_CLI_LINES, ids=" ".join)
    def test_cli_block_line_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out


class TestParsing:
    def test_parse_complex_forms(self):
        assert cli.parse_complex("0.5") == 0.5
        assert cli.parse_complex("1+2i") == 1 + 2j
        assert cli.parse_complex("-0.3i") == -0.3j
        assert cli.parse_complex("Infinity") == cli.parse_complex("inf") == math.inf
        assert cli.parse_complex("-inf+1i") == complex(-math.inf, 1.0)

    def test_parse_complex_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("forty-two")

    def test_fmt_round_trips_doubles(self):
        for v in (1.0 / 3.0, 0.375, 1e-15, 123456.789012345):
            assert float(cli._fmt(complex(v, 0.0))) == v


# a line for each leaf of the parser tree, check <identity> and eval
# <subject>, with only its required flags
LEAF_LINES = (
    [["check", name, *required] for name, (_, required) in sorted(CHECK_FLAGS.items())]
    + [["eval", name, "--q", "0.5", *(s for flag in sorted(required) for s in (flag, "0.5")),
        *(["--inf"] if name == "poch" else [])]
       for name, (_, required) in sorted(EVAL_FLAGS.items())]
)
_TOP_USAGE = "usage: qaw [-h] [--version] {eval,check,suite} ...\n"


# lines that end in argparse's own exit, each with its exit code and the
# start of the stream it writes: help and version print to stdout
TREE_LINES = [
    (["--version"], 0, "out", f"qaw {qaw.__version__}\n"),
    (["-h"], 0, "out", _TOP_USAGE),
    (["check", "-h"], 0, "out", "usage: qaw check [-h]"),
    (["check", "askey-wilson", "-h"], 0, "out", "usage: qaw check askey-wilson [-h]"),
    (["eval", "poch", "-h"], 0, "out", "usage: qaw eval poch [-h]"),
    # a flag that the identity does not take is the tree's error, under its usage
    (["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--bogus", "1"], 64, "err",
     f"{_TOP_USAGE}qaw: error: unrecognized arguments: --bogus 1\n"),
]


class TestRoutes:
    def test_top_help_is_one_line_of_description(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        # usage, then the description as one paragraph of one line
        description = out.split("\n\n")[1]
        assert description and "\n" not in description
        for name in ("_EVAL", "_dumps", "_build_parser", "``"):
            assert name not in out

    @pytest.mark.parametrize("argv", LEAF_LINES, ids=" ".join)
    def test_line_reaches_its_command_with_the_tree_namespace(self, monkeypatch, argv):
        seen = []
        tree_args = vars(cli._build_parser().parse_args(argv))
        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: seen.append(args) or 0)
        assert cli.main(argv) == 0
        assert vars(seen[0]) == tree_args

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["qaw", "check", "askey-wilson", "--q", "0.5",
                                          "--a", "0.3"])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("argv, want, stream, start", TREE_LINES,
                             ids=[" ".join(a) for a, *_ in TREE_LINES])
    def test_help_version_and_leftover_lines(self, capsys, argv, want, stream, start):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == want
        assert getattr(captured, stream).startswith(start)
        assert getattr(captured, "err" if stream == "out" else "out") == ""


# the fixed points of the identity tests as --flag value lines, and two lines
# whose non-real parameters take two rows each in their weight
TABLE_LINES = [
    ["check", name,
     *(w for k, v in sorted(p.items()) for w in (f"--{k.replace('_', '-')}", str(v)))]
    for name, p in sorted(FIXED_POINTS.items())
] + [argv for argv in LEAF_LINES if argv[0] == "check"] + [line.split() for line in [
    "check askey-wilson --q 0.5 --a 0.3 --b 0.2+0.1i --c 0.1-0.2i --d 0.4",
    "check reversal-askey-wilson --q 0.5 --a 0.2 --b 0.1+0.05i --c 0.1 --d 0.05",
]]

# lines that the table leaves to argparse: help, the = form, a value that
# begins with -, a flag the identity does not take, a missing or bad value
ARGPARSE_CHECK_LINES = [
    ["check", "askey-wilson", "-h"],
    ["check", "askey-wilson", "--q=0.5", "--a", "0.3"],
    ["check", "askey-wilson", "--q", "0.5", "--a", "-0.3"],
    ["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--bogus", "1"],
    ["check", "askey-wilson", "--q", "0.5", "--a"],
    ["check", "askey-wilson", "--q", "0.5"],
    ["check", "askey-wilson", "--q", "0.5", "--a", "0.3i"],
    ["check", "askey-wilson", "--q", "0.5", "--a", "0.3", "--tol", "0"],
    ["check", "lemma-three-term", *_GEN, "--r", "0.4", "--u=-0.1"],
]


def _namespace_text(args):
    """A namespace's values by repr, so that NaNs compare equal and 0.0 and
    -0.0, or a float and a complex, do not."""
    return {k: repr(v) for k, v in vars(args).items()}


def _tree_parse(argv):
    """The parser tree's (namespace, unparsed words) of a line, or None where
    it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_known_args(argv)
        except SystemExit:
            return None


# values that every flag's type converts (a complex one only a complex flag)
_VALUES = st.one_of(
    st.sampled_from(["0.5", "0.2+0.1i", "inf", "Infinity", "nan", "1e308", "1e-300", "0",
                     " 0.25", "1_0", "1e999"]),
    st.floats(min_value=0.0).map(repr),
)


@st.composite
def _check_lines(draw):
    """A check line: the identity's required flags, each most often given,
    and further flags, each with a value, with up to two words or values
    that the table must decline among them, in any order."""
    name = draw(st.sampled_from(sorted(CHECK_FLAGS)))
    known, required = CHECK_FLAGS[name]
    flags = st.sampled_from(sorted(known | {"--tol"}))
    items = [[flag, draw(_VALUES)] for flag in required[::2] if draw(st.integers(0, 9))]
    items += [[draw(flags), draw(_VALUES)] for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        flag, value = draw(flags), draw(_VALUES)
        items.append(draw(st.sampled_from([
            [flag, "-" + value.lstrip()],  # a negative number, or a - before one
            [flag, draw(st.sampled_from(["abc", "", "0x10", "1+2j", "0.3i", "i", "-"]))],
            [f"{flag}={value}"],
            [draw(st.sampled_from(["--bogus", "--x", "--r", "-q", "--Q", "--al"])), value],
            [draw(st.sampled_from(["-h", "--help"]))],
            [flag],  # with no value
        ])))
    return ["check", name, *(w for item in draw(st.permutations(items)) for w in item)]


class TestTableRoute:
    @given(_check_lines())
    @settings(max_examples=400)
    def test_table_equals_the_tree_or_declines(self, argv):
        table = cli._check_line(argv)
        tree = _tree_parse(argv)
        flags, values = argv[2::2], argv[3::2]
        well_formed = (tree is not None and tree[1] == [] and len(argv) % 2 == 0
                       and all(f in CHECK_FLAGS[argv[1]][0] | {"--tol"} for f in flags)
                       and not any(v.startswith("-") for v in values))
        assert (table is not None) == well_formed, (argv, tree)
        if table is not None:
            assert _namespace_text(table) == _namespace_text(tree[0])

    @pytest.mark.parametrize("argv", TABLE_LINES, ids=" ".join)
    def test_well_formed_line_builds_no_parser(self, capsys, monkeypatch, argv):
        # the tree's route: the tree's namespace, run by the same command
        tree_code = cli._cmd_check(cli._build_parser().parse_args(argv))
        tree = capsys.readouterr()

        def refuse():
            raise AssertionError("a well-formed check line built the parser tree")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, _masked(out), err) == (tree_code, _masked(tree.out), tree.err)
        assert out or err

    @pytest.mark.parametrize("argv", ARGPARSE_CHECK_LINES, ids=" ".join)
    def test_other_check_lines_take_argparse(self, capsys, monkeypatch, argv):
        assert cli._check_line(argv) is None
        built = []
        monkeypatch.setattr(cli, "_build_parser",
                            lambda real=cli._build_parser: built.append(1) or real())
        try:
            cli.main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert built
