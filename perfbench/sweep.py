"""``sweep``: the Fig. 9/10-class flow-fidelity grid on a socket fleet.

``MPTCP_VARIANTS`` x 3 sizes x 4 validation conditions x seeds, on a
2-worker localhost fleet started with ``FleetSupervisor``.  Each
repetition runs the grid against one fresh cache directory: a cold
pass where every task misses and writes, then warm passes where every
task hits and reads; then once serially in-process without a cache,
the reference the fleet's reports must equal.  A task takes about a
millisecond, so the coordinator, the cache, the socket executor, the
wire and the flow engine dominate; the packet engine and the crowd
code are bypassed.
"""

import contextlib
import os
import shutil
import socket
import time
from typing import Dict, List, Optional

from common import Rep, derive_seed, digest_json
from spans import Tracer, maybe_span, median, patched, tail

GRID_SEEDS = 20
TINY_GRID_SEEDS = 1
WORKERS = 2
#: Warm passes per repetition.  One warm pass takes a few tenths of a
#: second, short enough that a single stall of a shared machine moves
#: it, so the warm rate is the median over several.
WARM_PASSES = 3
#: Reports pushed through a socketpair per traced repetition.
WIRE_SAMPLES = 96


def _timed_executor(inner):
    """An Executor that delegates to ``inner`` and times its calls."""
    from repro.parallel import Executor

    class TimedExecutor(Executor):
        name = inner.name
        inline_when_serial = inner.inline_when_serial

        def __init__(self) -> None:
            self.tracer: Optional[Tracer] = None
            #: Seconds from ``run_shards`` to each shard's arrival.
            self.roundtrips: List[float] = []

        def shard_count(self, workers, nmisses):
            return inner.shard_count(workers, nmisses)

        def run_shards(self, shards, task_timeout_s=None):
            shards_iter = inner.run_shards(shards, task_timeout_s)
            if self.tracer is None:
                yield from shards_iter
                return
            started = time.perf_counter()
            while True:
                with self.tracer.span("executor.run_shards"):
                    item = next(shards_iter, None)
                if item is None:
                    return
                self.roundtrips.append(time.perf_counter() - started)
                yield item

        def run_one(self, task, task_timeout_s=None):
            return inner.run_one(task, task_timeout_s)

        def close(self):
            inner.close()

    return TimedExecutor()


def _trace_cache(cache, tracer: Tracer) -> None:
    """Time this cache instance's public calls as spans."""
    for attribute in ("key_for", "get", "put", "acquire", "release"):
        setattr(cache, attribute,
                tracer.wrap(f"cache.{attribute}", getattr(cache, attribute)))


class SweepWorkload:
    name = "sweep"
    workers = WORKERS

    def __init__(self, seed: int, scratch: str, tiny: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tiny = tiny
        self.supervisor = None
        self.executor = None
        #: The fleet's ``socket:HOST:PORT,...`` spec, known after set-up.
        self.executor_spec = None
        self._reps = 0

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        from repro.experiments.common import MPTCP_VARIANTS
        from repro.flow.validate import VALIDATION_SIZES, validation_conditions
        from repro.parallel import FleetSpec, FleetSupervisor, ResultCache
        from repro.parallel.executors import make_executor
        from repro.workload import Session, TransferSpec

        nseeds = TINY_GRID_SEEDS if self.tiny else GRID_SEEDS
        self.specs = [
            TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                         primary=primary, cc=cc, fidelity="flow",
                         seed=derive_seed(self.seed, f"grid.{k}"))
            for _, primary, cc in MPTCP_VARIANTS
            for nbytes in VALIDATION_SIZES.values()
            for condition in validation_conditions()
            for k in range(nseeds)
        ]
        self.session = Session()
        self.supervisor = FleetSupervisor(FleetSpec(workers=WORKERS))
        self.supervisor.up()
        self.executor_spec = self.supervisor.executor_spec
        self.executor = _timed_executor(make_executor(self.executor_spec))
        # Warm-up: worker imports, first wire round trips and the
        # source fingerprint behind cache keys, outside the timing.
        warm_dir = os.path.join(self.scratch, "warm-cache")
        self.session.run_many(self.specs[:16], workers=WORKERS,
                              cache=ResultCache(root=warm_dir),
                              executor=self.executor)
        shutil.rmtree(warm_dir, ignore_errors=True)

    def reset(self) -> None:
        self.close()

    def close(self) -> None:
        try:
            if self.executor is not None:
                self.executor.close()
                self.executor = None
        finally:
            if self.supervisor is not None:
                self.supervisor.down()
                self.supervisor = None

    # -- one repetition --------------------------------------------------
    def _pass(self, rep: Rep, cache, tracer, phase: str):
        """One pass over the grid; returns its reports and a record."""
        started = time.perf_counter()
        with maybe_span(tracer, f"sweep.{phase}_pass"):
            reports = self.session.run_many(
                self.specs, workers=WORKERS, cache=cache,
                executor=self.executor,
            )
        wall = time.perf_counter() - started
        stats = self.session.last_stats
        n = len(self.specs)
        rep.attempted += n
        if stats.failed:
            rep.fail(f"{phase} pass: {stats.failed} tasks failed")
        incomplete = sum(1 for r in reports if not r.completed)
        if incomplete:
            rep.fail(f"{phase} pass: {incomplete} transfers incomplete")
        hits_wanted = 0 if phase == "cold" else n
        if stats.cache_hits != hits_wanted:
            rep.fail(f"{phase} pass: {stats.cache_hits} cache hits, "
                     f"expected {hits_wanted}")
        return reports, {
            "wall_s": wall,
            "hit_ratio": stats.cache_hits / n,
            "retried": stats.retried,
            "failed": stats.failed,
            "busy_s": sum(m.wall_time_s
                          for m in self.session.last_manifests),
        }

    def rep(self, tracer: Optional[Tracer]) -> Rep:
        from repro.parallel import ResultCache

        rep = Rep(traced=tracer is not None)
        self._reps += 1
        cache_dir = os.path.join(self.scratch, f"cache-{self._reps}")
        cache = ResultCache(root=cache_dir)
        if tracer is not None:
            _trace_cache(cache, tracer)
        self.executor.tracer = tracer
        self.executor.roundtrips = []
        try:
            cold, rep.data["cold"] = self._pass(rep, cache, tracer, "cold")
            rep.digests["reports"] = digest_json([r.to_dict() for r in cold])
            rep.data["warm"] = []
            for _ in range(WARM_PASSES):
                warm, record = self._pass(rep, cache, tracer, "warm")
                rep.data["warm"].append(record)
                if digest_json([r.to_dict() for r in warm]) != \
                        rep.digests["reports"]:
                    rep.fail("warm pass reports differ from the cold pass")
        finally:
            self.executor.tracer = None
        rep.data["inprocess_s"] = self._inprocess_pass(rep, tracer)
        rep.wall_s = rep.data["inprocess_s"] + sum(
            p["wall_s"] for p in [rep.data["cold"]] + rep.data["warm"])
        if tracer is not None:
            rep.data["roundtrips"] = list(self.executor.roundtrips)
            stats = cache.stats()
            rep.data["entry_bytes"] = (stats["total_bytes"]
                                       / max(1, stats["entries"]))
            rep.data["wire_bytes"] = self._wire_probe(rep, cold, tracer)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return rep

    def _wire_probe(self, rep: Rep, reports, tracer: Tracer) -> float:
        """Median frame size of sweep reports sent over a socketpair.

        Send and receive share one thread: a flow report pickles to
        tens of kilobytes, well inside the socket buffer.
        """
        import pickle

        from repro.parallel import wire

        sizes = []
        left, right = socket.socketpair()
        try:
            for report in reports[::max(1, len(reports) // WIRE_SAMPLES)]:
                with tracer.span("wire.frame_roundtrip"):
                    wire.send_pickle(left, wire.MSG_RESULT, report)
                    _, payload = wire.recv_frame(right)
                    echoed = pickle.loads(payload)
                if echoed != report:
                    rep.fail(f"wire round trip altered report {report.label}")
                sizes.append(len(payload))
        finally:
            left.close()
            right.close()
        return median(sizes)

    def _inprocess_pass(self, rep: Rep, tracer: Optional[Tracer]) -> float:
        """The grid serially in-process, no cache: the fleet's reference.

        Every task is one ``Session.run``; a traced repetition times
        each call as a ``flow.run`` span.
        """
        from repro.workload.session import Session

        guard = (patched(tracer, [(Session, "run", "flow.run")]) if tracer
                 else contextlib.nullcontext())
        started = time.perf_counter()
        with guard:
            reports = self.session.run_many(self.specs, workers=1,
                                            cache=False, executor="inprocess")
        wall = time.perf_counter() - started
        rep.attempted += len(reports)
        if digest_json([r.to_dict() for r in reports]) != \
                rep.digests["reports"]:
            rep.fail("fleet reports differ from the in-process reference")
        return wall

    # -- metrics ---------------------------------------------------------
    def rates(self, reps: List[Rep]) -> Dict[str, float]:
        n = len(self.specs)
        return {
            "primary_rate": median([n / p["wall_s"] for r in reps
                                    for p in r.data["warm"]]),
            "secondary_rate": median([n / r.data["inprocess_s"]
                                      for r in reps]),
        }

    def per_layer(self, reps: List[Rep], tracer: Tracer) -> Dict[str, float]:
        traced = [r for r in reps if r.traced]
        n = len(self.specs)
        us = lambda name: 1e6 * median(tracer.durations(name))
        flow_ms = [1e3 * d for d in tracer.durations("flow.run")]
        self_times = tracer.self_times()
        overhead = []
        for phase in ("cold", "warm"):
            overhead.extend(self_times[s.index]
                            for s in tracer.named(f"sweep.{phase}_pass"))
        acquires = tracer.durations("cache.acquire")
        releases = tracer.durations("cache.release")
        return {
            "sweep.cold_tasks_per_s": median([
                n / r.data["cold"]["wall_s"] for r in reps if not r.traced
            ]),
            "flow.transfer_ms_p50": median(flow_ms),
            "flow.transfer_ms_tail": tail(flow_ms),
            "cache.put_us": us("cache.put"),
            "cache.lock_us": 1e6 * (sum(acquires) + sum(releases))
            / max(1, len(acquires)),
            "cache.key_us": us("cache.key_for"),
            "cache.get_us": 1e6 * median([
                s.duration for s in tracer.named("cache.get")
                if tracer.spans[s.parent].name == "sweep.warm_pass"
            ]),
            "cache.hit_ratio.cold": median([r.data["cold"]["hit_ratio"]
                                            for r in traced]),
            "cache.hit_ratio.warm": median([p["hit_ratio"] for r in traced
                                            for p in r.data["warm"]]),
            "cache.entry_bytes": median([r.data["entry_bytes"]
                                         for r in traced]),
            "executor.shard_roundtrip_ms": 1e3 * median([
                t for r in traced for t in r.data["roundtrips"]
            ]),
            "wire.frame_roundtrip_us": us("wire.frame_roundtrip"),
            "wire.bytes_per_report": median([r.data["wire_bytes"]
                                             for r in traced]),
            # Pass self time: the pass wall minus executor and cache time.
            "coordinator.overhead_ms_per_task":
                1e3 * sum(overhead)
                / max(1, (1 + WARM_PASSES) * n * len(traced)),
            "sweep.worker_busy_ratio": median([
                r.data["cold"]["busy_s"] / (WORKERS * r.data["cold"]["wall_s"])
                for r in traced
            ]),
            "sweep.retried": sum(p["retried"] for r in traced
                                 for p in [r.data["cold"]] + r.data["warm"]),
            "sweep.failed": sum(p["failed"] for r in traced
                                for p in [r.data["cold"]] + r.data["warm"]),
        }
