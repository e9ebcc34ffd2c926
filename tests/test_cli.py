import json
import math

import numpy as np
import pytest

import evpricing.policy
from evpricing import (
    Frechet,
    empirical_competition_complexity,
    fixed_price_value_exact,
    phi_k,
    prophet_value,
    sqrt_bound,
    Pareto,
    Uniform,
)
from evpricing.cli import main

from conftest import GOLDEN, philox_uniforms


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGuaranteesCmd:
    def test_table_rows_and_floor(self, capsys):
        code, out, err = run_cli(capsys, "guarantees", "--k-max", "10")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "k,phi_k_alpha2,sqrt_bound"
        assert len(lines) == 11
        for line in lines[1:]:
            k, phi, bound = line.split(",")
            assert float(phi) >= float(bound)

    def test_single_row_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "guarantees", "--k-max", "1")
        assert code == 0
        _, phi, bound = out.strip().split("\n")[1].split(",")
        assert float(phi) == pytest.approx(phi_k(2.0, 1).value, abs=1e-9)
        assert float(bound) == pytest.approx(sqrt_bound(1), abs=1e-9)

    def test_zero_kmax_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "guarantees", "--k-max", "0")
        assert code == 2
        assert out == ""
        assert "k-max" in err

    def test_alpha_grid_columns(self, capsys):
        code, out, _ = run_cli(capsys, "guarantees", "--k-max", "2",
                               "--alpha-grid", "1.5,3")
        assert code == 0
        header = out.split("\n")[0]
        assert header.endswith("phi_k_alpha_1.5,phi_k_alpha_3")

    def test_alpha2_column_is_phi_k(self, capsys):
        # phi_k_alpha2 and the --alpha-grid 2 column take one route, row by row
        code, out, _ = run_cli(capsys, "guarantees", "--k-max", "50", "--alpha-grid", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,phi_k_alpha2,sqrt_bound,phi_k_alpha_2"
        assert len(lines) == 51
        for line in lines[1:]:
            _, phi, _, phi_grid = line.split(",")
            assert phi == phi_grid

    def test_infinite_shape_is_computation_error(self, capsys):
        # the k = 1 column used to fail inside W_{-1}, with a message that named no shape
        code, out, err = run_cli(capsys, "guarantees", "--k-max", "2", "--alpha-grid", "inf")
        assert code == 1
        assert err == "error: guarantee requires 1 < alpha < inf, got alpha=inf\n"
        assert out == ""


class TestScalarCmds:
    def test_phi1_min(self, capsys):
        code, out, _ = run_cli(capsys, "phi1-min")
        assert code == 0
        payload = json.loads(out)
        assert 1.6 < payload["alpha"] < 1.7
        assert 0.71 < payload["value"] < 0.72

    def test_adaptivity_gap(self, capsys):
        code, out, _ = run_cli(capsys, "adaptivity-gap")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] >= 1.0

    def test_deterministic_across_runs(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "phi1-min")
            outs.add(out)
        assert len(outs) == 1


class TestEvaluateCmd:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--dist", "pareto:alpha=2",
                               "--n", "10", "--k", "2", "--t", "2.5")
        assert code == 0
        payload = json.loads(out)
        d = Pareto(2.0)
        assert payload["fp_value"] == pytest.approx(
            fixed_price_value_exact(d, 10, 2, 2.5), rel=1e-9)
        assert payload["prophet_value"] == pytest.approx(
            prophet_value(d, 10, 2), rel=1e-9)

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--dist", "pareto:alpha=2", "--n", "10",
                  "--k", "2", "--t", "2.5", "--bogus", "1"])
        assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["evaluate", "--dist", "exp:rate=1", "--n", "100", "--k", "1", "--t", "2"],
    ["converge", "--dist", "exp:rate=1", "--k", "1", "--n-grid", "10,100"],
    ["converge", "--dist", "exp:rate=1", "--k", "1", "--n-grid", "10,100",
     "--mode", "theory", "--u", "0"],
])
def test_zero_prophet_value_is_computation_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(evpricing.policy, "prophet_value", lambda d, n, k: 0.0)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: prophet value 0.0 is not positive and finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--dist", "pareto:alpha=2", "--n", "20", "--k", "3", "--t", "nan",
      "--reps", "1000"), "threshold T is NaN"),
    (("evaluate", "--dist", "pareto:alpha=2", "--n", "20", "--k", "3", "--t", "nan"),
     "threshold T is NaN"),
    (("converge", "--dist", "pareto:alpha=2", "--k", "1", "--n-grid", "10,100",
      "--mode", "theory", "--u", "nan"), "limit ratio U is NaN"),
], ids=["simulate", "evaluate", "converge"])
def test_nan_threshold_is_computation_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("t", ["inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ("simulate", "--dist", "pareto:alpha=2", "--n", "20", "--k", "3", "--reps", "1000"),
    ("evaluate", "--dist", "pareto:alpha=2", "--n", "20", "--k", "3"),
], ids=["simulate", "evaluate"])
def test_infinite_threshold_is_usage_error(capsys, argv, t):
    # JSON has no infinity; the flag is named before anything is computed
    code, out, err = run_cli(capsys, *argv, f"--t={t}")
    assert (code, out) == (2, "")
    assert err == f"usage error: --t must be finite, got {float(t)}\n"


def test_threshold_far_below_the_support(capsys):
    # E(X | X > T) = E X = 2 below the support, and all 3 units sell
    code, out, err = run_cli(capsys, "evaluate", "--dist", "pareto:alpha=2", "--n", "20",
                             "--k", "3", "--t=-1e300")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["threshold"] == -1e300
    assert payload["fp_value"] == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_result_is_computation_error(capsys, monkeypatch, bad):
    monkeypatch.setattr(evpricing.policy, "monte_carlo_evaluate",
                        lambda d, n, k, t, cfg: (bad, 0.0))
    code, out, err = run_cli(capsys, "simulate", "--dist", "pareto:alpha=2", "--n", "20",
                             "--k", "3", "--t", "2", "--reps", "100")
    assert (code, out) == (1, "")
    assert err == f"error: mean is {bad}, which JSON cannot represent\n"


class TestConvergeCmd:
    def test_three_rows(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--dist", "pareto:alpha=2",
                               "--k", "1", "--n-grid", "10,100,1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        ratios = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(0.7 < r < 0.75 for r in ratios)

    def test_exponential_rising(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--dist", "exp:rate=1",
                               "--k", "1", "--n-grid", "10,100,1000")
        assert code == 0
        ratios = [float(line.split(",")[-1])
                  for line in out.strip().split("\n")[1:]]
        assert ratios == sorted(ratios)

    def test_header_and_digits(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--dist", "uniform:a=0,b=1",
                               "--k", "1", "--n-grid", "5,10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,threshold,fp_value,prophet_value,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "1"
        assert all(len(f) <= 18 for f in first)

    def test_bad_dist_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "converge", "--dist", "pareto:beta=2",
                                 "--k", "1", "--n-grid", "10,100")
        assert code == 2
        assert "'beta'" in err
        assert out == ""

    def test_frechet_theory_at_one_bidder(self, capsys):
        # a_1 = F^{-1}(0) = m: the threshold is 0 and the one bidder always buys
        code, out, err = run_cli(capsys, "converge", "--dist", "frechet:m=0,s=1,alpha=2",
                                 "--k", "1", "--n-grid", "1,10", "--mode", "theory",
                                 "--u", "0.5")
        assert code == 0, err
        n, k, threshold, fp, prophet, ratio = out.strip().split("\n")[1].split(",")
        assert (n, k, threshold, ratio) == ("1", "1", "0", "1")
        assert float(fp) == pytest.approx(np.sqrt(np.pi), rel=1e-9)

    @pytest.mark.parametrize("spec,key", [
        ("frechet:m=-inf,s=1,alpha=2", "m"),
        ("uniform:a=0,b=inf", "b"),
        ("gumbel:loc=nan,scale=1", "loc"),
    ])
    def test_non_finite_location_usage_error(self, capsys, spec, key):
        code, out, err = run_cli(capsys, "evaluate", "--dist", spec,
                                 "--n", "10", "--k", "1", "--t", "1")
        assert code == 2
        assert f"parameter {key} must be a finite real" in err
        assert out == ""


class TestCompetitionCmd:
    def test_uniform_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "competition", "--dist", "uniform:a=0,b=1",
                               "--n", "200")
        assert code == 0
        payload = json.loads(out)
        rec = empirical_competition_complexity(Uniform(0.0, 1.0), 200)
        assert payload["m_star"] == rec.m_star
        assert payload["theoretical"] == pytest.approx(2.0, rel=1e-9)

    def test_single_buyer_ties_at_one(self, capsys):
        code, out, err = run_cli(capsys, "competition", "--dist", "pareto:alpha=2",
                                 "--n", "1")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert (payload["m_star"], payload["empirical_ratio"]) == (1, 1.0)

    def test_infinite_mean_is_computation_error(self, capsys):
        code, out, err = run_cli(capsys, "competition", "--dist",
                                 "pareto:alpha=0.9", "--n", "10")
        assert code == 1
        assert err.startswith("error:")
        assert "\n" not in err.strip()
        assert out == ""


class TestSimulateCmd:
    def test_byte_identical_with_seed(self, capsys):
        argv = ("simulate", "--dist", "exp:rate=1", "--n", "10", "--k", "1",
                "--t", "1.5", "--reps", "2000", "--seed", "99")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_default_seed_is_the_library_default(self, capsys):
        argv = ("simulate", "--dist", "exp:rate=1", "--n", "10", "--k", "1",
                "--t", "1.5", "--reps", "2000")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert '"seed": 20250214' in out
        assert run_cli(capsys, *argv, "--seed", "20250214")[1] == out


class TestFitCmd:
    @pytest.fixture
    def synthetic_csv(self, tmp_path):
        u = philox_uniforms(20240817, 10 ** 4)
        values = np.asarray(Frechet(0.0, 300.0, 2.24).quantile(u))
        path = tmp_path / "bids.csv"
        rows = "\n".join(f"b{i},{v:.6f}" for i, v in enumerate(values))
        path.write_text("bidder_id,bid\n" + rows + "\n")
        return path

    def test_recovers_shape_within_fifteen_percent(self, capsys, synthetic_csv):
        code, out, _ = run_cli(capsys, "fit", "--input", str(synthetic_csv),
                               "--k-hill", "500")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["alpha_hat"] - 2.24) / 2.24 <= 0.15
        assert payload["n"] == 10 ** 4

    def test_report_with_realized_max(self, capsys, synthetic_csv):
        code, out, _ = run_cli(capsys, "fit", "--input", str(synthetic_csv),
                               "--k-hill", "500", "--realized-max", "5400")
        assert code == 0
        payload = json.loads(out)
        assert payload["k_hill"] == 500
        assert payload["alpha_margin"] == pytest.approx(payload["alpha_hat"] - 2.0, abs=1e-9)
        assert set(payload) >= {"m_hat", "s_hat", "alpha_hat", "loss", "n",
                                "U", "T_n", "guarantee", "realized_ratio"}

    def test_report_without_realized_max(self, capsys, synthetic_csv):
        code, out, _ = run_cli(capsys, "fit", "--input", str(synthetic_csv),
                               "--k-hill", "500")
        assert code == 0
        assert not [key for key in json.loads(out) if key.startswith("realized_")]

    def test_failure_leaves_no_side_output(self, capsys, tmp_path):
        # the fit at k=5 succeeds; the Hill scan then reaches the zero bids
        bids = tmp_path / "bids.csv"
        rows = [f"z{i},0" for i in range(20)] + [f"p{i},{100 + 10 * i}" for i in range(10)]
        bids.write_text("bidder_id,bid\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(bids), "--k-hill", "5",
                                 "--histogram-output", str(tmp_path / "hist.csv"),
                                 "--scan-output", str(tmp_path / "scan.csv"))
        assert code == 1
        assert err.startswith("error:") and out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bids.csv"]

    @pytest.mark.parametrize("target,reason", [
        ("nodir/out.json", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_failed_write_leaves_no_side_output(self, capsys, tmp_path, synthetic_csv,
                                                target, reason):
        # every file is renamed into place only after all writes succeeded
        target = tmp_path / target
        code, out, err = run_cli(capsys, "--output", str(target), "fit",
                                 "--input", str(synthetic_csv), "--k-hill", "500",
                                 "--histogram-output", str(tmp_path / "hist.csv"))
        assert code == 1 and out == ""
        assert err == f"error: cannot write {target}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bids.csv"]

    @pytest.mark.parametrize("first,second", [
        ("--output", "--histogram-output"),
        ("--output", "--scan-output"),
        ("--histogram-output", "--scan-output"),
    ])
    def test_repeated_output_path_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                 synthetic_csv, first, second):
        # one file named two ways: absolute, and relative to the working directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "fit", "--input", str(synthetic_csv),
                                 "--k-hill", "500", first, str(tmp_path / "same.txt"),
                                 second, "./same.txt")
        assert code == 2 and out == ""
        assert err == f"usage error: {first} and {second} name the same file ./same.txt\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bids.csv"]

    def test_byte_order_mark_is_read(self, capsys, tmp_path, synthetic_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + synthetic_csv.read_bytes())
        plain = run_cli(capsys, "fit", "--input", str(synthetic_csv), "--k-hill", "500")
        assert run_cli(capsys, "fit", "--input", str(bom), "--k-hill", "500") == plain

    def test_non_utf8_input_is_computation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"bidder_id,bid\na,1\n\xff,2\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(bad))
        assert code == 1 and out == ""
        assert err == "error: input is not UTF-8 text: invalid start byte\n"

    def test_missing_input_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["fit"])
        assert info.value.code == 2

    def test_bin_count_over_the_cap_is_computation_error(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, out, err = run_cli(capsys, "fit", "--input", str(GOLDEN / "bids.csv"),
                                 "--k-hill", "97", "--bin-width", "1e-3",
                                 "--histogram-output", str(hist))
        assert code == 1 and out == "" and not hist.exists()
        assert err == ("error: histogram_export needs more than 1000000 bins of width "
                       "0.001 to reach 3801.4\n")

    def test_side_outputs_written(self, capsys, tmp_path, synthetic_csv):
        hist = tmp_path / "hist.csv"
        code, out, _ = run_cli(capsys, "fit", "--input", str(synthetic_csv),
                               "--k-hill", "500", "--bin-width", "200",
                               "--histogram-output", str(hist))
        assert code == 0
        lines = hist.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,relative_frequency"
        freq_total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert freq_total == pytest.approx(1.0, abs=1e-9)


class TestOutputHandling:
    def test_output_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "--output", str(target), "phi1-min")
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert "alpha" in payload
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []

    def test_failure_leaves_no_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _, err = run_cli(capsys, "--output", str(target), "competition",
                               "--dist", "pareto:alpha=0.9", "--n", "10")
        assert code == 1
        assert not target.exists()

    def test_output_flag_accepted_after_subcommand(self, capsys, tmp_path):
        target = tmp_path / "after.json"
        code, out, _ = run_cli(capsys, "phi1-min", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["alpha"] == pytest.approx(1.6566, abs=1e-3)
