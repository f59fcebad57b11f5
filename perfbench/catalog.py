"""The benchmark's metric catalog: names, units, directions, targets.

Every run of a workload emits every end-to-end metric (untraced run)
or every per-layer metric (traced run), so the three workloads share
one metric namespace.  The end-to-end rates are therefore named by
role (``primary_rate``/``secondary_rate``) and :data:`RATE_MEANING`
says what each one counts on each workload.  A per-layer metric of a
layer the workload bypasses reads 0: the workload did no work there,
which is the bypass prediction itself.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds; ``perfbench/tests`` keeps the two equal.
"""

from typing import Dict, List, NamedTuple, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "packet": "packet-fidelity TCP 1/4/16 MB ladder + MPTCP 4 MB over the "
              "four validation conditions, serial in-process: event loop "
              "and TCP/MPTCP only",
    "sweep": "Fig. 9/10-class flow-fidelity MPTCP grid on a 2-worker "
             "socket fleet (cold, then warm cache passes) and serially "
             "in-process: coordinator, cache, wire and flow engine",
    "crowd": "legacy Table-1 dataset path plus crowd simulate() into the "
             "sketch sink on a 2-worker process pool: both crowd samplers, "
             "no transfer engine, no cache",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median a metric may worsen (end-to-end only).
    bound: Optional[float] = None
    #: Per-layer only: (end-to-end metric, workload) it should move.
    target: Optional[Tuple[str, str]] = None


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("ops_ok_ratio", "fraction", "higher", 0.01),
    Metric("primary_rate", "units/s", "higher", 0.25),
    Metric("secondary_rate", "units/s", "higher", 0.25),
]

#: What ``primary_rate``/``secondary_rate`` count per workload, as the
#: issue-level metric name and its unit.
RATE_MEANING: Dict[str, Dict[str, Tuple[str, str]]] = {
    "packet": {
        "primary_rate": ("packet_sim_mb_per_s", "MB/s"),
        "secondary_rate": ("packet_sim_segments_per_s", "segments/s"),
    },
    "sweep": {
        "primary_rate": ("sweep_warm_tasks_per_s", "tasks/s"),
        "secondary_rate": ("sweep_inprocess_tasks_per_s", "tasks/s"),
    },
    "crowd": {
        "primary_rate": ("crowd_users_per_s", "users/s"),
        "secondary_rate": ("crowd_dataset_runs_per_s", "runs/s"),
    },
}

_PKT = ("primary_rate", "packet")
_WARM = ("primary_rate", "sweep")
_INPROC = ("secondary_rate", "sweep")
_USERS = ("primary_rate", "crowd")
_RUNS = ("secondary_rate", "crowd")

PER_LAYER: List[Metric] = [
    # repro.workload
    Metric("workload.build_ms", "ms", "lower", target=_PKT),
    Metric("workload.report_ms", "ms", "lower", target=_PKT),
    # packet engine (repro.core/net/tcp/mptcp behind Scenario.run_transfer)
    Metric("engine.loop_s", "s", "lower", target=_PKT),
    Metric("engine.us_per_segment.1MB", "us", "lower", target=_PKT),
    Metric("engine.us_per_segment.4MB", "us", "lower", target=_PKT),
    Metric("engine.us_per_segment.16MB", "us", "lower", target=_PKT),
    Metric("engine.s_per_mb_tail", "s/MB", "lower", target=_PKT),
    Metric("tcp.segments_sent", "count", "lower", target=_PKT),
    Metric("tcp.retransmits", "count", "lower", target=_PKT),
    Metric("tcp.timeouts", "count", "lower", target=_PKT),
    Metric("net.queue_drops", "count", "lower", target=_PKT),
    Metric("tcp.retransmit_ratio", "fraction", "lower", target=_PKT),
    # repro.flow
    Metric("flow.transfer_ms_p50", "ms", "lower", target=_INPROC),
    Metric("flow.transfer_ms_tail", "ms", "lower", target=_INPROC),
    # repro.parallel.  The cold pass (every task misses and writes) has
    # no end-to-end bound: it waits on fsync and file creation, which
    # swing by a third between runs on a shared disk.  Its rate and the
    # layers only it exercises carry no end-to-end target.
    Metric("sweep.cold_tasks_per_s", "tasks/s", "higher"),
    Metric("cache.put_us", "us", "lower"),
    Metric("cache.lock_us", "us", "lower"),
    Metric("cache.key_us", "us", "lower", target=_WARM),
    Metric("cache.get_us", "us", "lower", target=_WARM),
    Metric("cache.hit_ratio.cold", "fraction", "lower"),
    Metric("cache.hit_ratio.warm", "fraction", "higher", target=_WARM),
    Metric("cache.entry_bytes", "B", "lower", target=_WARM),
    Metric("executor.shard_roundtrip_ms", "ms", "lower"),
    Metric("wire.frame_roundtrip_us", "us", "lower"),
    Metric("wire.bytes_per_report", "B", "lower"),
    Metric("coordinator.overhead_ms_per_task", "ms", "lower", target=_WARM),
    Metric("sweep.worker_busy_ratio", "fraction", "higher"),
    Metric("sweep.retried", "count", "lower", target=_WARM),
    Metric("sweep.failed", "count", "lower", target=_WARM),
    # repro.crowd
    Metric("crowd.sample_users_per_s", "users/s", "higher", target=_USERS),
    Metric("crowd.aggregate_users_per_s", "users/s", "higher",
           target=_USERS),
    Metric("crowd.merge_ms", "ms", "lower", target=_USERS),
    Metric("crowd.shard_s_p50", "s", "lower", target=_USERS),
    Metric("crowd.shard_s_max", "s", "lower", target=_USERS),
    Metric("crowd.world_build_s", "s", "lower",
           target=("setup_s", "crowd")),
    Metric("crowd.legacy_world_build_s", "s", "lower", target=_RUNS),
    Metric("crowd.legacy_collect_runs_per_s", "runs/s", "higher",
           target=_RUNS),
    # the benchmark's own tracing cost
    Metric("obs.trace_overhead", "ratio", "lower"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
TARGETS: Dict[str, Tuple[str, str]] = {
    m.name: m.target for m in PER_LAYER if m.target is not None
}
