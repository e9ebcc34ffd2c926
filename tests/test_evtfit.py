import io
import math

import numpy as np
import pytest
from scipy import special

from evpricing import (
    DomainError,
    Frechet,
    IngestError,
    fit_pipeline,
    fit_scale,
    guarantee_report,
    hill_estimate,
    hill_stability_scan,
    histogram_export,
    ingest_bids,
    per_bidder_max,
)
from evpricing.evtfit import FitResult, suggest_hill_k

from conftest import ebay_csv_path, philox_uniforms, requires_ebay

THREE_ROWS = "bidder_id,bid\nalice,10\nbob,22.5\ncarol,3\n"


def frechet_values(n: int, s: float, alpha: float, seed: int) -> list[float]:
    u = philox_uniforms(seed, n)
    model = Frechet(0.0, s, alpha)
    return sorted(float(x) for x in np.asarray(model.quantile(u)))


class TestIngest:
    def test_three_rows(self):
        records = ingest_bids(io.StringIO(THREE_ROWS))
        assert len(records) == 3
        assert records[1].bidder_id == "bob"
        assert records[1].amount == 22.5

    def test_non_numeric_amount_names_line(self):
        text = "bidder_id,bid\nalice,10\nbob,abc\n"
        with pytest.raises(IngestError, match="line 3"):
            ingest_bids(io.StringIO(text))

    def test_missing_column(self):
        with pytest.raises(IngestError, match="missing column"):
            ingest_bids(io.StringIO("id,amount\nx,1\n"))

    def test_empty_file(self):
        with pytest.raises(IngestError):
            ingest_bids(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(IngestError, match="no bid rows"):
            ingest_bids(io.StringIO("bidder_id,bid\n"))

    def test_negative_amount_rejected(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest_bids(io.StringIO("bidder_id,bid\nalice,-4\n"))

    def test_custom_column_names(self):
        text = "who,how_much\na,5\n"
        records = ingest_bids(io.StringIO(text), id_col="who", bid_col="how_much")
        assert records[0].amount == 5.0

    def test_path_input(self, tmp_path):
        path = tmp_path / "bids.csv"
        path.write_text(THREE_ROWS)
        assert len(ingest_bids(path)) == 3

    def test_byte_order_mark_dropped(self, tmp_path):
        expected = ingest_bids(io.StringIO(THREE_ROWS))
        path = tmp_path / "bids.csv"
        for header in ("bidder_id,bid", '"bidder_id",bid'):
            rows = THREE_ROWS.replace("bidder_id,bid", header, 1)
            data = b"\xef\xbb\xbf" + rows.encode()
            path.write_bytes(data)
            # decoded by ingest_bids, or already decoded with the mark kept
            for source in (path, io.BytesIO(data), io.StringIO("\ufeff" + rows)):
                assert ingest_bids(source) == expected
            with open(path, encoding="utf-8", newline="") as handle:
                assert ingest_bids(handle) == expected

    def test_only_one_byte_order_mark_dropped(self):
        with pytest.raises(IngestError, match="missing column"):
            ingest_bids(io.StringIO("\ufeff\ufeff" + THREE_ROWS))

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(IngestError, match="not UTF-8 text: invalid start byte"):
            ingest_bids(io.BytesIO(b"bidder_id,bid\nalice,10\n\xff,2\n"))


class TestPerBidderMax:
    def test_dedup_keeps_highest(self):
        records = ingest_bids(io.StringIO("bidder_id,bid\na,1\na,5\nb,2\n"))
        assert per_bidder_max(records) == [2.0, 5.0]

    def test_empty(self):
        assert per_bidder_max([]) == []

    def test_one_value_per_distinct_bidder(self):
        records = ingest_bids(io.StringIO(
            "bidder_id,bid\na,1\nb,9\na,3\nc,5\nb,2\n"))
        values = per_bidder_max(records)
        assert len(values) == 3
        amounts = {r.amount for r in records}
        assert all(v in amounts for v in values)
        assert values == sorted(values)


class TestHillEstimate:
    def test_exact_pareto_quantile_grid(self):
        # plug-in quantiles F^{-1}((i - 0.5)/n) of a shape-2 power law
        n, k = 10 ** 4, 500
        qs = (np.arange(1, n + 1) - 0.5) / n
        values = (1.0 - qs) ** -0.5
        assert 1.9 <= hill_estimate(values, k) <= 2.1

    def test_equal_values_rejected(self):
        with pytest.raises(DomainError, match="zero tail index"):
            hill_estimate([3.0] * 50, 10)

    def test_scale_invariance(self):
        values = frechet_values(2000, 300.0, 2.24, seed=11)
        base = hill_estimate(values, 150)
        scaled = hill_estimate([7.25 * v for v in values], 150)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_k_bounds(self):
        with pytest.raises(DomainError):
            hill_estimate([1.0, 2.0, 3.0], 1)
        with pytest.raises(DomainError):
            hill_estimate([1.0, 2.0, 3.0], 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            hill_estimate([0.0, 0.0, 1.0, 2.0], 2)


class TestStabilityScan:
    def test_two_rows(self):
        values = frechet_values(50, 300.0, 2.24, seed=5)
        scan = hill_stability_scan(values, (2, 3))
        assert [k for k, _ in scan] == [2, 3]

    def test_seeded_power_law_spread(self):
        # seeded sample; the bound was validated once against an oracle run
        u = philox_uniforms(2024, 5000)
        values = sorted((1.0 - u) ** -0.5)
        scan = hill_stability_scan(values, (50, 500))
        alphas = [a for _, a in scan]
        assert max(alphas) - min(alphas) <= 0.4

    def test_suggestion_inside_range(self):
        u = philox_uniforms(2024, 3000)
        values = sorted((1.0 - u) ** -0.5)
        scan = hill_stability_scan(values, (20, 200))
        k = suggest_hill_k(scan)
        assert 20 <= k <= 200


class TestFitScale:
    def test_zero_loss_point_recovered(self):
        # a two-point sample with the model's exact mean and variance
        s0, alpha = 340.0, 2.24
        g1 = special.gamma(1.0 - 1.0 / alpha)
        g_var = special.gamma(1.0 - 2.0 / alpha) - g1 * g1
        m = s0 * g1
        d = s0 * math.sqrt(g_var / 2.0)
        s_hat, loss = fit_scale([m - d, m + d], alpha)
        assert s_hat == pytest.approx(s0, abs=1e-6)
        assert loss <= 1e-6

    def test_synthetic_sample_band(self):
        values = frechet_values(10 ** 4, 300.0, 2.24, seed=20240817)
        alpha_hat = hill_estimate(values, 500)
        s_hat, _ = fit_scale(values, alpha_hat)
        assert 270.0 <= s_hat <= 330.0

    def test_local_minimum_certificate(self):
        values = frechet_values(3000, 250.0, 2.5, seed=77)
        alpha_hat = hill_estimate(values, 200)
        s_hat, loss = fit_scale(values, alpha_hat)
        g1 = special.gamma(1.0 - 1.0 / alpha_hat)
        g_var = special.gamma(1.0 - 2.0 / alpha_hat) - g1 * g1
        xbar = float(np.mean(values))
        s2 = float(np.var(values, ddof=1))

        def loss_at(s):
            return (s * g1 - xbar) ** 2 + (s * s * g_var - s2) ** 2

        assert loss <= loss_at(s_hat * 1.01) + 1e-9
        assert loss <= loss_at(s_hat * 0.99) + 1e-9

    def test_shape_at_most_two_rejected(self):
        with pytest.raises(DomainError, match="variance"):
            fit_scale([1.0, 2.0, 3.0], 2.0)


class TestGuaranteeReport:
    def test_case_study_parameters(self):
        fit = FitResult(m_hat=0.0, s_hat=289.0, alpha_hat=2.24, k_hill=97,
                        loss=0.0, n_valuations=509)
        report = guarantee_report(fit, 509, realized_max=5400.0)
        assert 0.845 <= report.u <= 0.853
        assert 3950.0 <= report.threshold <= 3975.0
        assert report.guarantee == pytest.approx(0.73, abs=0.005)
        assert 0.73 <= report.realized_ratio <= 0.735

    def test_optimizer_satisfies_first_order_condition(self):
        fit = FitResult(0.0, 289.0, 2.24, 97, 0.0, 509)
        report = guarantee_report(fit, 509)
        u, a = report.u, fit.alpha_hat
        assert abs(u ** a + a - u ** a * math.exp(u ** -a)) <= 1e-9

    def test_worst_shape_guarantee(self):
        fit = FitResult(0.0, 100.0, 1.656, 50, 0.0, 400)
        report = guarantee_report(fit, 400)
        assert report.guarantee == pytest.approx(0.7128, abs=5e-4)

    def test_heavy_shape_rejected(self):
        fit = FitResult(0.0, 100.0, 0.9, 50, 0.0, 400)
        with pytest.raises(DomainError):
            guarantee_report(fit, 400)


class TestHistogram:
    def test_two_bins(self):
        rows = histogram_export([100.0, 150.0, 350.0], 200.0)
        assert rows == [(0.0, 200.0, pytest.approx(2.0 / 3.0)),
                        (200.0, 400.0, pytest.approx(1.0 / 3.0))]

    def test_empty(self):
        assert histogram_export([], 200.0) == []

    def test_frequencies_sum_to_one(self):
        values = frechet_values(700, 300.0, 2.24, seed=3)
        rows = histogram_export(values, 150.0)
        assert sum(f for _, _, f in rows) == pytest.approx(1.0, abs=1e-12)

    def test_bad_width(self):
        with pytest.raises(DomainError):
            histogram_export([1.0], 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        # numpy's cast of inf or NaN to a bin index warned and raised ValueError
        with pytest.raises(DomainError, match="finite"):
            histogram_export([1.0, bad], 1.0)


class TestPipeline:
    def test_deterministic_for_identical_bytes(self):
        values = frechet_values(600, 280.0, 2.6, seed=8)
        rows = "\n".join(f"b{i},{v}" for i, v in enumerate(values))
        text = "bidder_id,bid\n" + rows + "\n"
        fits = []
        for _ in range(2):
            records = ingest_bids(io.StringIO(text))
            fits.append(fit_pipeline(per_bidder_max(records), k_hill=60))
        assert fits[0] == fits[1]

    def test_location_defaults_to_zero(self):
        values = frechet_values(600, 280.0, 2.6, seed=8)
        fit = fit_pipeline(values, k_hill=60)
        assert fit.m_hat == 0.0
        assert fit.n_valuations == 600

    def test_location_override(self):
        values = [v + 50.0 for v in frechet_values(600, 280.0, 2.6, seed=8)]
        fit = fit_pipeline(values, k_hill=60, m_hat=50.0)
        assert fit.m_hat == 50.0

    def test_default_scan_names_its_sample_floor(self):
        # the default scan starts at k = 10, so 5-10 valuations need k_hill
        values = frechet_values(8, 280.0, 2.6, seed=8)
        with pytest.raises(DomainError, match="needs n >= 11 valuations, got 8; pass k_hill"):
            fit_pipeline(values)
        assert fit_pipeline(values, k_hill=4).k_hill == 4

    def test_default_scan_at_its_sample_floor(self):
        fit = fit_pipeline(frechet_values(11, 280.0, 2.6, seed=8))
        assert fit.k_hill == 10


@requires_ebay
class TestCaseStudyDataset:
    def _values(self):
        records = ingest_bids(ebay_csv_path())
        return per_bidder_max(records), records

    def test_record_and_valuation_counts(self):
        values, records = self._values()
        assert len(records) == 1348
        assert len(values) == 509

    def test_hill_at_97(self):
        values, _ = self._values()
        assert hill_estimate(values, 97) == pytest.approx(2.24, abs=0.005)

    def test_scale_fit(self):
        values, _ = self._values()
        s_hat, _ = fit_scale(values, hill_estimate(values, 97))
        assert abs(s_hat - 289.0) <= 1.0

    def test_full_report(self):
        values, _ = self._values()
        fit = fit_pipeline(values, k_hill=97)
        report = guarantee_report(fit, 509, realized_max=max(values))
        assert 0.845 <= report.u <= 0.853
        assert 3950.0 <= report.threshold <= 3975.0
        assert 0.73 <= report.realized_ratio <= 0.735
