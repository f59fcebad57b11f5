"""Tests for the Cell vs WiFi measurement-app state machine."""

import pytest

from repro.crowd.app import CellVsWifiApp
from repro.crowd.dataset import Dataset
from repro.crowd.world import TABLE1_SITES


class TestCollection:
    def test_site_collection_hits_table1_count(self):
        app = CellVsWifiApp(seed=1)
        site = TABLE1_SITES[5]  # Orlando: 92 runs
        runs = app.collect_site(site)
        usable = [r for r in runs if r.complete and r.is_high_speed_cell]
        assert len(usable) == site.runs

    def test_collection_includes_partial_runs(self):
        app = CellVsWifiApp(seed=1)
        site = TABLE1_SITES[1]  # Israel: 276 runs
        runs = app.collect_site(site)
        assert any(not r.complete or not r.is_high_speed_cell for r in runs)

    def test_deterministic(self):
        site = TABLE1_SITES[6]
        app = CellVsWifiApp(seed=9)
        a = app.collect_site(site)
        b = CellVsWifiApp(seed=9).collect_site(site)
        assert len(a) == len(b)
        assert a[0].wifi_down_mbps == b[0].wifi_down_mbps
        # Collecting the site again on the same app repeats it exactly.
        assert Dataset(app.collect_site(site)).to_csv() == Dataset(a).to_csv()

    def test_measured_throughput_below_link_rate(self):
        app = CellVsWifiApp(seed=1)
        site = TABLE1_SITES[0]
        conditions = app.world.draw_run(site, 0)
        run = app.collect_run(site, 0, user_id=1)
        if run.measured_wifi:
            # Measurement noise is ~12 %; allow some headroom above
            # the analytic estimate but never above the raw link rate.
            assert run.wifi_down_mbps < conditions.wifi_down_mbps * 1.5

    def test_multiple_users_per_site(self):
        app = CellVsWifiApp(seed=1)
        runs = app.collect_site(TABLE1_SITES[0])
        assert len({r.user_id for r in runs}) > 5

    def test_full_collection_aggregates(self):
        app = CellVsWifiApp(seed=20141105)
        dataset = app.collect_all(TABLE1_SITES[:4])
        analysis = dataset.analysis_set()
        expected = sum(s.runs for s in TABLE1_SITES[:4])
        assert len(analysis) == expected


class TestDataCap:
    def test_budget_limits_cellular_measurements(self):
        site = TABLE1_SITES[6]
        capped = CellVsWifiApp(
            seed=3, cellular_budget_bytes=3 * CellVsWifiApp.CELL_BYTES_PER_RUN)
        runs = capped.collect_site(site)
        per_user = {}
        for run in runs:
            if run.measured_cell:
                per_user[run.user_id] = per_user.get(run.user_id, 0) + 1
        # Nobody exceeds their 3-run cellular budget.
        assert all(count <= 3 for count in per_user.values())

    def test_capped_runs_become_partial(self):
        site = TABLE1_SITES[6]
        capped = CellVsWifiApp(
            seed=3, cellular_budget_bytes=CellVsWifiApp.CELL_BYTES_PER_RUN)
        uncapped = CellVsWifiApp(seed=3)
        capped_runs = capped.collect_site(site)
        uncapped_runs = uncapped.collect_site(site)
        capped_partial = sum(1 for r in capped_runs if not r.complete)
        uncapped_partial = sum(1 for r in uncapped_runs if not r.complete)
        assert capped_partial > uncapped_partial

    def test_no_budget_means_unlimited(self):
        app = CellVsWifiApp(seed=3)
        assert app.cellular_budget_bytes is None
        runs = app.collect_site(TABLE1_SITES[6])
        assert sum(1 for r in runs if r.measured_cell) > 50


class TestCalibration:
    """End-to-end calibration against the paper's §2 aggregates."""

    @pytest.fixture(scope="class")
    def analysis(self):
        dataset = CellVsWifiApp(seed=20141105).collect_all()
        return dataset.analysis_set()

    def test_combined_lte_win_near_40_percent(self, analysis):
        assert analysis.lte_win_fraction_combined() == pytest.approx(
            0.40, abs=0.07
        )

    def test_uplink_wins_exceed_downlink(self, analysis):
        assert (analysis.lte_win_fraction_uplink()
                > analysis.lte_win_fraction_downlink())

    def test_lte_rtt_lower_near_20_percent(self, analysis):
        diffs = analysis.rtt_diffs()
        fraction = sum(1 for d in diffs if d > 0) / len(diffs)
        assert fraction == pytest.approx(0.20, abs=0.07)

    def test_throughput_diff_tails_reach_10_mbps(self, analysis):
        diffs = analysis.downlink_diffs()
        assert min(diffs) < -10.0
        assert max(diffs) > 10.0
