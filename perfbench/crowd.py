"""``crowd``: both crowd samplers on a 2-worker process pool, cache off.

Two parts per repetition, both on the default process executor:

* the Table-1 dataset through the legacy
  ``experiments.common.crowd_dataset`` path (``CellVsWifiApp`` over a
  ``WorldModel``, one task per site) for the first eight Table-1
  sites, which keeps the four site tasks per worker even;
* ``crowd.pipeline.simulate()`` of a population into the sketch sink.
  Set-up builds the ``CrowdWorld``; the warm-up ``simulate()`` leaves
  it in the pipeline's world cache, which the forked pool workers
  inherit.

CPU-bound Python with coarse shards, so pool overhead is diluted; both
transfer engines and the result cache are bypassed.
"""

import time
from typing import Dict, List, Optional

from common import Rep, digest_json, digest_text
from spans import Tracer, maybe_span, median

WORKERS = 2
LEGACY_SITES = 8
USERS = 100_000
#: In-process sampler probe of a traced repetition: batches x users.
PROBE_BATCHES = 4
PROBE_BATCH_USERS = 4096

TINY_LEGACY_SITES = 2
TINY_USERS = 4_000
TINY_PROBE_BATCH_USERS = 256


class CrowdWorkload:
    name = "crowd"
    workers = WORKERS
    executor_spec = "process"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.world_builds: List[float] = []

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        from repro.crowd.pipeline import simulate
        from repro.crowd.sampling import PopulationSpec
        from repro.crowd.world import TABLE1_SITES, CrowdWorld

        self.sites = TABLE1_SITES[:TINY_LEGACY_SITES if self.tiny
                                  else LEGACY_SITES]
        self.population = PopulationSpec(
            users=TINY_USERS if self.tiny else USERS, seed=self.seed,
        )
        started = time.perf_counter()
        self.world = CrowdWorld.from_profile_dict(None, seed=self.seed)
        self.world_builds.append(time.perf_counter() - started)
        simulate(self.world, PopulationSpec(users=64, seed=self.seed),
                 workers=1, executor="inprocess", cache=False)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- one repetition --------------------------------------------------
    def rep(self, tracer: Optional[Tracer]) -> Rep:
        from repro.core.errors import SweepTaskError
        from repro.crowd.pipeline import simulate
        from repro.experiments.common import crowd_dataset

        rep = Rep(traced=tracer is not None)

        rep.attempted += len(self.sites)
        started = time.perf_counter()
        try:
            with maybe_span(tracer, "crowd.legacy_dataset"):
                dataset = crowd_dataset(self.sites, seed=self.seed,
                                        workers=WORKERS)
        except SweepTaskError as exc:
            rep.fail(f"legacy dataset: {exc}")
            return rep
        legacy_s = time.perf_counter() - started

        started = time.perf_counter()
        with maybe_span(tracer, "crowd.simulate"):
            result = simulate(self.world, self.population, workers=WORKERS,
                              cache=False)
        simulate_s = time.perf_counter() - started
        rep.attempted += result.stats.tasks
        if result.stats.failed:
            rep.fail(f"simulate: {result.stats.failed} shards failed")

        rep.wall_s = legacy_s + simulate_s
        rep.digests["legacy_csv"] = digest_text(dataset.to_csv())
        rep.digests["sketch"] = digest_json(result.sketch.to_dict())
        rep.data.update(
            legacy_runs=len(dataset), legacy_s=legacy_s,
            simulate_s=simulate_s,
            shard_walls=[s.wall_s for s in result.fleet.shards],
        )
        if tracer is not None:
            self._probe(rep, tracer)
        return rep

    def _probe(self, rep: Rep, tracer: Tracer) -> None:
        """Time the crowd layers in-process, after the timed work."""
        from repro.crowd.aggregate import CrowdSketch, SketchSink
        from repro.crowd.app import CellVsWifiApp
        from repro.crowd.dataset import Dataset
        from repro.crowd.sampling import CrowdSampler
        from repro.crowd.world import WorldModel

        batch = TINY_PROBE_BATCH_USERS if self.tiny else PROBE_BATCH_USERS
        sampler = CrowdSampler(self.world, self.population)
        merged = CrowdSketch()
        for k in range(PROBE_BATCHES):
            with tracer.span("crowd.sample"):
                cols = sampler.sample_batch(k * batch, batch)
            sink = SketchSink(self.world, self.population)
            with tracer.span("crowd.aggregate"):
                sink.consume(cols)
            with tracer.span("crowd.merge"):
                merged.merge(sink.sketch)
        rep.data["probe_users"] = PROBE_BATCHES * batch
        rep.digests["probe_sketch"] = digest_json(merged.to_dict())

        # The legacy path's two costs, with the world built once: the
        # collected runs must equal the dataset the site tasks produced.
        with tracer.span("crowd.legacy_world_build"):
            world = WorldModel(self.seed)
        app = CellVsWifiApp(world=world, seed=self.seed)
        runs = []
        for site in self.sites:
            with tracer.span("crowd.legacy_collect"):
                runs.extend(app.collect_site(site))
        if digest_text(Dataset(runs).to_csv()) != rep.digests["legacy_csv"]:
            rep.fail("prebuilt-world collection differs from crowd_dataset")

    # -- metrics ---------------------------------------------------------
    def rates(self, reps: List[Rep]) -> Dict[str, float]:
        return {
            "primary_rate": median([self.population.users
                                    / r.data["simulate_s"] for r in reps]),
            "secondary_rate": median([r.data["legacy_runs"]
                                      / r.data["legacy_s"] for r in reps]),
        }

    def per_layer(self, reps: List[Rep], tracer: Tracer) -> Dict[str, float]:
        traced = [r for r in reps if r.traced]
        users = sum(r.data["probe_users"] for r in traced)
        shard_walls = [w for r in traced for w in r.data["shard_walls"]]
        runs = sum(r.data["legacy_runs"] for r in traced)
        return {
            "crowd.sample_users_per_s":
                users / sum(tracer.durations("crowd.sample")),
            "crowd.aggregate_users_per_s":
                users / sum(tracer.durations("crowd.aggregate")),
            "crowd.merge_ms": 1e3 * median(tracer.durations("crowd.merge")),
            "crowd.shard_s_p50": median(shard_walls),
            "crowd.shard_s_max": max(shard_walls),
            "crowd.world_build_s": median(self.world_builds),
            "crowd.legacy_world_build_s":
                median(tracer.durations("crowd.legacy_world_build")),
            "crowd.legacy_collect_runs_per_s":
                runs / sum(tracer.durations("crowd.legacy_collect")),
        }

