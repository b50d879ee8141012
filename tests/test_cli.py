"""Tests for the command-line front end: exit codes, output, determinism."""

import json

import pytest

from qaw import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_poch_finite(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "poch", "--a", "0.5", "--q", "0.5",
                               "--n", "2")
        assert code == 0 and out.strip() == "0.375"

    def test_poch_requires_one_order(self, capsys):
        code, _, err = run_cli(capsys, "eval", "poch", "--a", "0.5", "--q", "0.5")
        assert code == 2 and "exactly one" in err

    def test_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "--x", "1", "--q", "0.3")
        assert code == 0 and float(out.strip()) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_pole(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "--x=-1", "--q", "0.3")
        assert code == 2 and "pole" in err

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

    def test_invariant_violation_exits_65(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "askey-wilson", "--q", "0.5", "--a", "1.2"
        )
        assert code == 65 and "invariant" in err

    def test_missing_required_param_exits_65(self, capsys):
        code, _, err = run_cli(capsys, "check", "askey-wilson", "--a", "0.3")
        assert code == 65 and "--q" in err

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
        assert code == 1 and json.loads(out)["passed"] is False

    def test_vanishing_factor_exits_2(self, capsys, zero_factor_scale):
        code, out, err = run_cli(
            capsys, "check", "reversal-askey-wilson", "--q", "0.5", "--a", "0.2",
            f"--b=-{zero_factor_scale!r}i"
        )
        assert code == 2 and out == ""
        assert "Traceback" not in err and err.startswith("DivisionByZero")

    def test_unknown_identity_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "bogus-identity", "--q", "0.5"])
        assert exc.value.code == 64
        capsys.readouterr()


class TestSuite:
    def test_empty_checks_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "checks": []}))
        code, out, _ = run_cli(capsys, "suite", "--spec", str(spec))
        assert code == 0
        doc = json.loads(out)
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

    def test_failed_entries_keep_their_params(self, capsys, tmp_path):
        diverging = {"alpha_g": 1.0, "a": 0.15, "b": 0.06, "c": 0.06, "d": 0.06,
                     "x": 0.6, "mu": 1.5}
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


class TestParsing:
    def test_parse_complex_forms(self):
        assert cli.parse_complex("0.5") == 0.5
        assert cli.parse_complex("1+2i") == 1 + 2j
        assert cli.parse_complex("-0.3i") == -0.3j

    def test_parse_complex_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("forty-two")

    def test_fmt_round_trips_doubles(self):
        for v in (1.0 / 3.0, 0.375, 1e-15, 123456.789012345):
            assert float(cli._fmt(complex(v, 0.0))) == v
