import json
import subprocess
import sys

import pytest

import twingap.identities
from twingap import WIDOM_DYSON_C0
from twingap.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_asymp_json_schema(capsys):
    code, out, _ = run_cli(["asymp", "--s", "6", "--v1", "-0.5",
                            "--v2", "0.3", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "twin-gap/1"
    for key in ("leading_s2", "log_s_term", "theta_term", "constant_term",
                "total", "regime"):
        assert key in doc
    assert doc["total"] == pytest.approx(
        doc["leading_s2"] + doc["log_s_term"] + doc["theta_term"]
        + doc["constant_term"])


def test_asymp_rejects_swapped_endpoints(capsys):
    code, _, err = run_cli(["asymp", "--s", "6", "--v1", "0.3",
                            "--v2", "-0.5"], capsys)
    assert code == 2
    assert "v1 must be < v2" in err


def test_asymp_one_gap_total(capsys):
    code, out, _ = run_cli(["asymp", "--s", "1", "--onegap", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(WIDOM_DYSON_C0 - 0.5, abs=1e-14)


def test_compare_two_gap_differences_shrink(capsys):
    code, out, _ = run_cli(["compare", "--s-values", "4,6,8",
                            "--v1", "-0.5", "--v2", "0.3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("s,asym_total,oracle_logdet,difference,"
                        "oracle_error_estimate,unreliable_flag")
    rows = [line.split(",") for line in lines[1:]]
    diffs = [abs(float(r[3])) for r in rows]
    assert diffs[0] > diffs[1] > diffs[2]
    assert all(r[5] == "0" for r in rows)


def test_compare_oracle_refusal_exits_1(capsys):
    code, out, err = run_cli(["compare", "--s-values", "48,64",
                              "--v1", "-0.5", "--v2", "0.3"], capsys)
    assert code == 1
    assert "nan" not in out.lower()
    assert "s=64" in err


def test_compare_empty_range_is_usage_error(capsys):
    code, _, _ = run_cli(["compare", "--s-values", " ", "--onegap"], capsys)
    assert code == 2


@pytest.mark.parametrize("bad", ["inf", "nan", "abc"])
def test_compare_bad_s_value_is_usage_error(bad, capsys):
    code, out, err = run_cli(["compare", "--s-values", f"4,{bad}",
                              "--v1", "-0.5", "--v2", "0.3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("bad", ["0", "-3", "49"])
def test_compare_max_nodes_below_first_pass_is_usage_error(bad, capsys,
                                                           monkeypatch):
    # refused before any oracle call, like a bad --s-values
    import twingap.oracle

    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(twingap.oracle, "fredholm_logdet", no_oracle)
    code, out, err = run_cli(["compare", "--s-values", "4", "--v1", "-0.5",
                              "--v2", "0.3", "--max-nodes", bad], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-nodes")


def test_compare_single_pass_is_flagged(capsys):
    # --max-nodes 50 allows one Nystrom pass: no two values can agree
    code, out, _ = run_cli(["compare", "--s-values", "4", "--v1", "-0.5",
                            "--v2", "0.3", "--max-nodes", "50"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",1")


def test_compare_deterministic_output(capsys):
    args = ["compare", "--s-values", "2,3", "--v1", "-0.5", "--v2", "0.3"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_validate_g1hat_suite(capsys):
    code, out, _ = run_cli(["validate", "--suite", "g1hat"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["identities"]["g1hat"]["worst_residual"] < 1e-8


def test_validate_forced_failure(capsys):
    code, out, _ = run_cli(["validate", "--suite", "g1hat",
                            "--tol", "1e-300"], capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_validate_unknown_suite(capsys):
    code, _, _ = run_cli(["validate", "--suite", "nonsense"], capsys)
    assert code == 2


def test_console_script_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "twingap.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_validate_rejects_bad_tolerance(tol, capsys, monkeypatch):
    # a usage error before any suite runs: exit 2, nothing on stdout
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before --tol was checked")

    monkeypatch.setattr(twingap.identities, "run_suite", no_suite)
    code, out, err = run_cli(["validate", "--suite", "all", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert "--tol" in err
