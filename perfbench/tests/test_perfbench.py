"""Tests of the benchmark itself: metric catalog, tiny passes, the gate.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def clean_env():
    """``run.run`` pins ``REPRO_*``; give the environment back after."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_catalog():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    for workload in spec["workloads"]:
        assert workload["why"] == catalog.WORKLOADS[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in catalog.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER
    ]


def test_catalog_names_units_and_bounds_are_well_formed():
    metrics = catalog.END_TO_END + catalog.PER_LAYER
    names = [m.name for m in metrics] + list(catalog.WORKLOADS)
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME_RE.match(metric.name), metric.name
        assert UNIT_RE.match(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    e2e = {m.name for m in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        if metric.target is not None:
            target, workload = metric.target
            assert target in e2e and workload in catalog.WORKLOADS
    for meanings in catalog.RATE_MEANING.values():
        assert set(meanings) == {"primary_rate", "secondary_rate"}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace,
                                                    clean_env):
    result = run.run(workload, seed=5, seconds=0.0, trace=trace, tiny=True,
                     log=lambda line: None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert set(result["metrics"]) == {m.name for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
    if not trace:
        for name in ("setup_s", "peak_rss_mb", "ops_ok_ratio",
                     "primary_rate", "secondary_rate"):
            assert result["metrics"][name]["value"] > 0


def test_gate_compares_every_digest():
    same = [common.Rep(traced=False, digests={"a": "1", "b": "2"}),
            common.Rep(traced=True, digests={"a": "1", "b": "2", "c": "3"})]
    assert common.digest_mismatches(same) == []
    altered = [same[0], common.Rep(traced=True,
                                   digests={"a": "1", "b": "X"})]
    errors = common.digest_mismatches(altered)
    assert len(errors) == 1 and "'b'" in errors[0]


def test_gate_fails_a_run_whose_digest_is_altered(monkeypatch, clean_env):
    import packet

    calls = []
    honest = packet.digest_json

    def altered(obj):
        calls.append(obj)
        digest = honest(obj)
        # The third digest is the second repetition's report digest.
        return digest[::-1] if len(calls) == 3 else digest

    monkeypatch.setattr(packet, "digest_json", altered)
    result = run.run("packet", seed=5, seconds=0.0, trace=False, tiny=True,
                     log=lambda line: None)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok_ratio"]["value"] < 1.0
