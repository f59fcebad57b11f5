"""``packet``: packet-fidelity transfers, serial and in-process.

TCP over LTE at a 1/4/16 MB ladder plus MPTCP (WiFi primary, coupled)
at 4 MB, over the four ``validation_conditions()`` (clean and lossy
paths), through ``Session.run_many(workers=1, cache off)``.  Nearly all
of the time is in the event loop and TCP/MPTCP; the flow engine, the
cache, the fleet and the crowd code are bypassed.
"""

import contextlib
import dataclasses
import time
from typing import Dict, List, Optional

from common import Rep, derive_seed, digest_json
from spans import Tracer, median, patched, tail

MB = 1 << 20
LADDER = {"1MB": 1 * MB, "4MB": 4 * MB, "16MB": 16 * MB}
MPTCP_BYTES = 4 * MB
#: Test-sized stand-ins for the ladder (same labels, same mix shape).
TINY_LADDER = {"1MB": 16 * 1024, "4MB": 32 * 1024, "16MB": 64 * 1024}


def _counter_total(metrics: Dict[str, float], name: str) -> int:
    prefix = name + "{"
    return int(sum(v for k, v in metrics.items() if k.startswith(prefix)))


class PacketWorkload:
    name = "packet"
    workers = 1
    executor_spec = "inprocess"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.specs: List = []
        #: Parallel to ``specs``: ladder label, or "mptcp".
        self.labels: List[str] = []

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        from repro.flow.validate import validation_conditions
        from repro.workload import Session, TransferSpec

        ladder = TINY_LADDER if self.tiny else LADDER
        mptcp_bytes = TINY_LADDER["4MB"] if self.tiny else MPTCP_BYTES
        conditions = validation_conditions()[:2 if self.tiny else 4]
        specs, labels = [], []
        for index, condition in enumerate(conditions):
            for label, nbytes in ladder.items():
                specs.append(TransferSpec(
                    kind="tcp", condition=condition, nbytes=nbytes,
                    path="lte",
                    seed=derive_seed(self.seed, f"tcp.{index}.{label}"),
                ))
                labels.append(label)
            specs.append(TransferSpec(
                kind="mptcp", condition=condition, nbytes=mptcp_bytes,
                primary="wifi", cc="coupled",
                seed=derive_seed(self.seed, f"mptcp.{index}"),
            ))
            labels.append("mptcp")
        self.specs, self.labels = specs, labels
        self.session = Session()
        # Warm-up: first-call costs of both stacks, outside the timing.
        for spec in (specs[0], specs[len(ladder)]):
            self.session.run(dataclasses.replace(spec, nbytes=64 * 1024))

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- one repetition --------------------------------------------------
    def _trace_targets(self):
        from repro.scenario import Scenario
        from repro.workload import session as session_module
        from repro.workload.report import TransferReport

        return [
            (session_module.Session, "run", "workload.run"),
            (session_module.Session, "open", "workload.build"),
            (Scenario, "run_transfer", "engine.run_transfer"),
            (TransferReport, "from_result", "workload.report"),
            (session_module, "collect_transfer_metrics", "workload.metrics"),
        ]

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        rep = Rep(traced=tracer is not None)
        guard = (patched(tracer, self._trace_targets()) if tracer
                 else contextlib.nullcontext())
        started = time.perf_counter()
        with guard:
            reports = self.session.run_many(
                self.specs, workers=1, cache=False, executor="inprocess",
            )
        rep.wall_s = time.perf_counter() - started

        rep.attempted = len(reports)
        counts = {"segments_sent": 0, "retransmits": 0, "timeouts": 0,
                  "queue_drops": 0}
        segments = []
        for spec, report in zip(self.specs, reports):
            if not report.completed:
                rep.fail(f"transfer {spec.key()} did not complete")
            seg = _counter_total(report.metrics, "segments_sent")
            segments.append(seg)
            counts["segments_sent"] += seg
            counts["retransmits"] += report.retransmits
            counts["timeouts"] += report.timeouts
            counts["queue_drops"] += _counter_total(report.metrics,
                                                    "queue_drops")
        rep.digests["reports"] = digest_json([r.to_dict() for r in reports])
        rep.digests["counts"] = digest_json(counts)
        rep.data.update(
            counts=counts,
            segments=segments,
            sim_mb=[r.total_bytes / MB for r in reports],
            host_s=[m.wall_time_s for m in self.session.last_manifests],
        )
        return rep

    # -- metrics ---------------------------------------------------------
    def rates(self, reps: List[Rep]) -> Dict[str, float]:
        # Host seconds per transfer are the median over repetitions, so
        # a burst of load on a shared machine that slows one repetition
        # of a transfer does not move the rate.
        host_s = sum(median([r.data["host_s"][i] for r in reps])
                     for i in range(len(self.specs)))
        return {
            "primary_rate": sum(reps[0].data["sim_mb"]) / host_s,
            "secondary_rate": sum(reps[0].data["segments"]) / host_s,
        }

    def per_layer(self, reps: List[Rep], tracer: Tracer) -> Dict[str, float]:
        traced = [r for r in reps if r.traced]
        engine = tracer.named("engine.run_transfer")
        runs_per_rep = len(self.specs)
        out: Dict[str, float] = {
            "workload.build_ms": 1e3 * median(
                tracer.durations("workload.build")),
            "workload.report_ms": 1e3 * median([
                a + b for a, b in zip(tracer.durations("workload.report"),
                                      tracer.durations("workload.metrics"))
            ]),
        }
        self_times = tracer.self_times()
        out["engine.loop_s"] = median([
            sum(self_times[s.index]
                for s in engine[k * runs_per_rep:(k + 1) * runs_per_rep])
            for k in range(len(traced))
        ])
        # Spans arrive in spec order (serial, in-process), so span k of
        # the traced repetitions is spec k % len(specs).  Segment counts
        # repeat exactly, so one repetition's counts serve all of them.
        segments = traced[0].data["segments"]
        engine_s: Dict[str, float] = {}
        s_per_mb = []
        for k, span in enumerate(engine):
            i = k % runs_per_rep
            s_per_mb.append(span.duration / (self.specs[i].nbytes / MB))
            label = self.labels[i]
            engine_s[label] = engine_s.get(label, 0.0) + span.duration
        for label in LADDER:
            sent = sum(n for n, lab in zip(segments, self.labels)
                       if lab == label)
            out[f"engine.us_per_segment.{label}"] = (
                1e6 * engine_s[label] / max(1, sent * len(traced))
            )
        out["engine.s_per_mb_tail"] = tail(s_per_mb)
        counts = traced[0].data["counts"]
        out["tcp.segments_sent"] = counts["segments_sent"]
        out["tcp.retransmits"] = counts["retransmits"]
        out["tcp.timeouts"] = counts["timeouts"]
        out["net.queue_drops"] = counts["queue_drops"]
        out["tcp.retransmit_ratio"] = (
            counts["retransmits"] / max(1, counts["segments_sent"])
        )
        return out
