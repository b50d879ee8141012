"""Tests for the command-line front end: exit codes, output, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import qaw
from qaw import cli, identities, qcore


# a fractional Gaussian point whose outer k-series truly diverges: ab/q = 0.33
# gives x * 0.33 / a = 1.33 > 1
DIVERGENT_GAUSSIAN = {"alpha_g": 1.0, "a": 0.15, "b": 0.3, "c": 0.3, "d": 0.01,
                      "x": 0.6, "mu": 1.5}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
_AW = ({"--q", "--a", "--b", "--c", "--d", "--x", "--mu"}, ["--q", "0.5", "--a", "0.2"])
_GAUSSIAN = ({"--alpha-g", "--a", "--b", "--c", "--d", "--x", "--mu"}, ["--alpha-g", "1"])
CHECK_FLAGS = {
    "lemma-three-term": _GENERATING,
    "fractional-generating": _GENERATING,
    "fractional-generating-3phi2": _GENERATING,
    "askey-wilson": _AW,
    "fractional-askey-wilson": _AW,
    "fractional-askey-wilson-3phi2": _AW,
    "reversal-askey-wilson": _AW,
    "fractional-reversal-askey-wilson": _AW,
    "fractional-reversal-askey-wilson-3phi2": _AW,
    "atakishiyev": _GAUSSIAN,
    "fractional-atakishiyev": _GAUSSIAN,
    "fractional-atakishiyev-3phi2": _GAUSSIAN,
}
ALL_FLAGS = set().union(*(flags for flags, _ in CHECK_FLAGS.values()))
COMPLEX_FLAGS = {"--b", "--c", "--d", "--r", "--s", "--t", "--u", "--z"}


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

    def test_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "--x", "1", "--q", "0.3")
        assert code == 0 and float(out.strip()) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_pole(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "--x=-1", "--q", "0.3")
        assert code == 2 and "pole" in err

    @pytest.mark.parametrize("argv", [
        ["poch", "--q", "0.5", "--a", "1e300", "--n", "3"],
        ["poch", "--q", "0.5", "--a", "1e200", "--alpha", "2.5"],
        ["poch", "--q", "0.5", "--a", "1e300", "--inf"],
        ["poch", "--q", "0.5", "--a", "inf", "--n", "3"],
        ["gamma", "--q", "0.5", "--x", "inf"],
    ])
    def test_non_finite_value_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out, err) == (2, "", "numeric error: value is not finite\n")

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
            2, "", f"convergence error: phi series is not finite from term n={n}\n")

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


class TestCheck:
    def test_askey_wilson_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3",
            "--b", "0.2", "--c", "0.1", "--d", "0.4", "--tol", "1e-8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["rel_err"] < 1e-8

    @pytest.mark.parametrize("identity, argv, message", [
        ("askey-wilson", ["--q", "0.5", "--a", "1.2"], "need max(|a|,|b|,|c|,|d|) < 1"),
        # a -3phi2 form with a nonzero value of the parameter it drops
        ("fractional-askey-wilson-3phi2",
         ["--q", "0.5", "--a", "0.2", "--b", "0.3", "--c", "0.1", "--d", "0.15",
          "--x", "0.6", "--mu", "1.5"], "needs d = 0"),
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
        code, out, _ = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.5", "--a", "0.3",
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
    ])
    def test_malformed_params_spec(self, capsys, tmp_path, params, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": params}
        ]}))
        code, out, err = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 64 and out == "" and message in err

    def test_failed_entries_keep_their_params(self, capsys, tmp_path):
        diverging = DIVERGENT_GAUSSIAN
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
        diverging = DIVERGENT_GAUSSIAN
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": [
            {"identity": "fractional-atakishiyev", "params": diverging},
            {"identity": "atakishiyev", "params": {"alpha_g": 12.0}},
        ]}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 1
        diverged, skipped = json.loads(out)["reports"]
        details = diverged["details"]
        assert details["k"] == 2458
        assert 1e300 < details["term_magnitude"] < float("inf")
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

    def test_unreadable_spec(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "suite", "--spec", str(tmp_path / "missing.json")
        )
        assert code == 66

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

    def __init__(self, message, steps=None, partial=None):
        super().__init__(message)
        self.steps = steps
        self.partial = partial


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
    # s b overflows in the k-sum, which then diverges without a numpy warning
    (["check", "fractional-atakishiyev", *_FRAC_GAUSSIAN, "--b", "1e308"], 2),
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
    (["eval", "fracint", "--q", "0.5", "--x", "0.6", "--mu", "1e308"], 2),
    (["eval", "fracint", "--q", "0.5", "--x", "0.6", "--mu", "1e-300"], 2),
]


class TestEdgeArguments:
    @pytest.mark.parametrize("argv, want", EDGE_ARGV, ids=[" ".join(a) for a, _ in EDGE_ARGV])
    def test_ends_in_its_exit_code(self, capsys, argv, want):
        # a numpy warning here fails the test (filterwarnings); stderr holds
        # one message line or nothing
        code, out, err = run_cli(capsys, *argv)
        assert code == want, err
        assert "Traceback" not in err and err.count("\n") == (code != 0)
        assert (out != "") == (code in (0, 1))


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
