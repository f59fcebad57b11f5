"""Tests for the heterogeneity axes (layer 1: operators, diurnal, apps)."""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.crowd.operators import (
    AppProfile,
    DEFAULT_APP_MIX,
    DEFAULT_CELL_DIURNAL,
    DEFAULT_OPERATORS,
    DEFAULT_WIFI_DIURNAL,
    DiurnalCurve,
    OperatorProfile,
)
from repro.core.rng import DEFAULT_SEED
from repro.crowd.world import CrowdWorld, TABLE1_SITES, WorldModel


#: ``CrowdWorld(DEFAULT_SEED).site_medians`` for every Table-1 site, as
#: (wifi_mbps, lte_mbps, wifi_rtt_ms, lte_rtt_ms).  Pinned so a change to
#: how the world calibrates cannot move the crowd population unnoticed.
PINNED_SITE_MEDIANS = {
    "US (Boston, MA)": (
        11.820726045468328, 4.598387358335404,
        62.01695442257056, 112.8372204973453,
    ),
    "Israel": (
        6.235021978690557, 8.01500320399181,
        57.82386713307215, 85.82023637069588,
    ),
    "US (Portland)": (
        5.602952584179519, 5.37481419926057,
        31.780304538076933, 49.66758845524257,
    ),
    "Estonia": (
        8.49728469592894, 14.885439528772356,
        25.22706649432166, 37.82184877852403,
    ),
    "South Korea": (
        7.501623616744141, 12.994053691243048,
        32.941317643660675, 59.95899351818219,
    ),
    "US (Orlando)": (
        13.167948870957233, 9.840563974929003,
        32.95304853987242, 43.095969319926304,
    ),
    "US (Miami)": (
        7.672085893565354, 9.960280433882971,
        68.88014643711671, 105.3293582907045,
    ),
    "Malaysia": (
        12.338349540915942, 167.79144043527106,
        46.565860560731394, 80.79208971431997,
    ),
    "Brazil": (
        8.03343427205008, 2.0367866084902295,
        38.19545348616175, 61.10827187456533,
    ),
    "Germany": (
        12.739923061590451, 7.5485474322570845,
        75.62777062491875, 109.6876360729552,
    ),
    "Spain": (
        5.7470094824979725, 12.704259439859616,
        26.923945951319855, 47.69275992230758,
    ),
    "Thailand (Phichit)": (
        8.273585788413861, 156.98654680576132,
        78.91148273021872, 101.36409852165771,
    ),
    "US (New York)": (
        11.010861541308008, 8.210207158884717,
        30.036123468257955, 44.34279774172439,
    ),
    "Japan": (
        12.463425369925437, 9.303667808020625,
        47.32349068135332, 80.80654991675524,
    ),
    "Sweden": (
        4.233245772743215, 0.020988968721255816,
        34.31683754609405, 52.2891595266854,
    ),
    "Thailand (Chiang Mai)": (
        12.012604625492546, 238.0334367191341,
        65.52747312860166, 85.04175472306366,
    ),
    "US (Chicago)": (
        11.751481959983735, 7.363000573865471,
        44.07471500796828, 56.99256803775271,
    ),
    "Hungary": (
        11.614193487626917, 0.05758464235740493,
        38.474479970260376, 56.37072495843003,
    ),
    "Italy": (
        13.694499618320293, 0.0678990636435249,
        42.06179474865411, 64.95992281283112,
    ),
    "US (Salt Lake City)": (
        6.752542988130699, 0.0334799634075977,
        60.780217410101294, 93.88688447099845,
    ),
    "Colombia": (
        9.123998552302494, 0.045237940461690454,
        34.9560985959404, 51.31673934933306,
    ),
    "US (Santa Fe)": (
        9.327102100880658, 0.04624495358049662,
        26.27769299272755, 41.030890067084535,
    ),
}


class TestOperatorProfiles:
    def test_default_shares_sum_to_one(self):
        assert sum(op.share for op in DEFAULT_OPERATORS) == pytest.approx(1.0)

    def test_default_offsets_are_share_weighted_neutral(self):
        # Heterogeneity must not shift the calibrated medians: the
        # share-weighted mean log offset is ~0 on both axes.
        tput = sum(op.share * op.tput_log_offset for op in DEFAULT_OPERATORS)
        rtt = sum(op.share * op.rtt_log_offset for op in DEFAULT_OPERATORS)
        assert tput == pytest.approx(0.0, abs=0.01)
        assert rtt == pytest.approx(0.0, abs=0.01)

    def test_round_trip(self):
        op = OperatorProfile("op-X", 0.5, 0.1, -0.05)
        assert OperatorProfile.from_dict(op.to_dict()) == op


class TestDiurnalCurves:
    def test_capacity_dips_at_peak(self):
        curve = DiurnalCurve(amplitude=0.2, peak_hour=19.0)
        assert curve.capacity_mult(19.0) == pytest.approx(math.exp(-0.2))
        assert curve.capacity_mult(7.0) == pytest.approx(math.exp(0.2))

    def test_rtt_rises_with_load(self):
        curve = DiurnalCurve(amplitude=0.2, peak_hour=19.0, rtt_coupling=0.5)
        assert curve.rtt_mult(19.0) > 1.0 > curve.rtt_mult(7.0)

    def test_log_mean_neutral_over_day(self):
        # The cosine shape integrates to zero in log space, so the
        # daily geometric-mean capacity multiplier is 1.
        for curve in (DEFAULT_WIFI_DIURNAL, DEFAULT_CELL_DIURNAL):
            mean_log = sum(
                curve.log_load(h / 4.0) for h in range(96)
            ) / 96.0
            assert mean_log == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self):
        curve = DiurnalCurve(amplitude=0.3, peak_hour=12.0, rtt_coupling=0.7)
        assert DiurnalCurve.from_dict(curve.to_dict()) == curve


class TestAppProfiles:
    def test_default_mix_sums_to_one(self):
        assert sum(app.weight for app in DEFAULT_APP_MIX) == pytest.approx(1.0)

    def test_round_trip(self):
        app = AppProfile("game", 0.1, 65536, 4096)
        assert AppProfile.from_dict(app.to_dict()) == app


class TestCrowdWorld:
    def test_pick_distributions_follow_weights(self, crowd_world):
        picks = [crowd_world.pick_operator(i / 10_000.0)
                 for i in range(10_000)]
        for idx, op in enumerate(crowd_world.operators):
            got = picks.count(idx) / len(picks)
            assert got == pytest.approx(op.share, abs=0.01)

    def test_modifiers_positive_and_deterministic(self, crowd_world):
        for hour in (0.0, 6.5, 13.0, 19.0, 23.9):
            for op in range(len(crowd_world.operators)):
                mods = crowd_world.modifiers(op, hour)
                assert len(mods) == 4
                assert all(m > 0 for m in mods)
                assert mods == crowd_world.modifiers(op, hour)

    def test_profile_round_trip_preserves_calibration(self, crowd_world):
        clone = CrowdWorld.from_profile_dict(
            crowd_world.profile_dict(), seed=crowd_world.seed
        )
        for site in TABLE1_SITES:
            assert clone.site_medians(site.name) == (
                crowd_world.site_medians(site.name)
            )

    def test_site_medians_pinned(self, crowd_world):
        assert crowd_world.seed == DEFAULT_SEED
        assert {
            site.name: crowd_world.site_medians(site.name)
            for site in TABLE1_SITES
        } == PINNED_SITE_MEDIANS

    def test_unknown_site_rejected(self, crowd_world):
        with pytest.raises(ConfigurationError):
            crowd_world.site_medians("Atlantis")

    def test_crowd_calibration_leaves_wifi_untouched(self, crowd_world):
        # The second calibration pass only moves the LTE knobs; WiFi
        # medians and the zero-win sites' ordering stay put.
        base = WorldModel(seed=crowd_world.seed)
        for site in TABLE1_SITES:
            wifi, lte, wifi_rtt, lte_rtt = crowd_world.site_medians(site.name)
            base_wifi, base_lte, base_wrtt, base_lrtt = (
                base.site_params(site.name)
            )
            assert wifi == base_wifi
            assert wifi_rtt == base_wrtt
            assert lte > 0 and lte_rtt > 0

    def test_legacy_draw_run_unaffected_by_crowd_layer(self, crowd_world):
        # CrowdWorld extends WorldModel without perturbing the
        # original per-site reference path.
        site = TABLE1_SITES[0]
        assert crowd_world.draw_run(site, 3) == WorldModel(
            seed=crowd_world.seed
        ).draw_run(site, 3)
