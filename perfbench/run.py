"""The repository benchmark: ``packet``, ``sweep`` and ``crowd`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload packet --seed 1 --seconds 30 --trace 0

One run sets the workload up several times (``setup_s`` is the median,
plus the one-time import cost), then repeats the workload's unit of
work until ``--seconds`` have passed, and checks every output.

``--trace 0`` times untraced repetitions and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced repetitions of
the same work and reports the per-layer metrics, taken from spans the
benchmark records around calls into each layer's public functions,
plus ``obs.trace_overhead`` (traced wall / untraced wall).  The spans
are written to ``.perfbench/`` when the run ends.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a human-readable account, each starting with ``#``:
the machine stamp, every metric by name and unit, and for ``--trace 1``
the self time of each span.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: A run makes at least this many repetitions, whatever ``--seconds``.
MIN_REPS = 2
#: Iterations of the pure-Python calibration loop.
CALIBRATION_LOOP = 200_000

# The program is imported from this checkout's source tree.
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
from common import digest_mismatches  # noqa: E402
from spans import Tracer, median  # noqa: E402


def hermetic_env(scratch: str) -> None:
    """Clear every ``REPRO_*`` knob, then pin the ones runs depend on.

    The default result cache must never be read or written: it is
    disabled and pointed into this run's scratch directory.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "default-cache")
    os.environ["REPRO_PROGRESS"] = "0"


def calibration_rate() -> float:
    """Iterations per second of a fixed pure-Python loop (median of 5)."""
    rates = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc = (acc + i * i) % 1000003
        rates.append(CALIBRATION_LOOP / (time.perf_counter() - started))
    return median(rates)


def environment_stamp(workload, loadavg) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from _harness import bench_environment

    stamp = bench_environment(workload.workers, workload.executor_spec)
    stamp.update(
        python=sys.version.split()[0],
        nproc=len(os.sched_getaffinity(0)),
        loadavg_start=[round(x, 2) for x in loadavg],
        calibration_loops_per_s=calibration_rate(),
    )
    return stamp


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def make_workload(name: str, seed: int, scratch: str, tiny: bool):
    if name == "packet":
        from packet import PacketWorkload
        return PacketWorkload(seed, tiny=tiny)
    if name == "sweep":
        from sweep import SweepWorkload
        return SweepWorkload(seed, scratch, tiny=tiny)
    from crowd import CrowdWorkload
    return CrowdWorkload(seed, tiny=tiny)


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    loadavg = os.getloadavg()
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    hermetic_env(scratch)
    started = time.perf_counter()
    import repro.experiments.common  # noqa: F401  (import cost)
    import_s = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from this checkout")
    os.makedirs(scratch, exist_ok=True)

    workload = make_workload(name, seed, scratch, tiny)
    try:
        setups = []
        for index in range(SETUPS):
            if index:
                workload.reset()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        stamp = environment_stamp(workload, loadavg)
        log(f"# env {json.dumps(stamp, sort_keys=True)}")

        tracer = Tracer() if trace else None
        reps = []
        started = time.perf_counter()
        while (len(reps) < MIN_REPS
               or time.perf_counter() - started < seconds):
            if tracer is not None:
                tracer.run_id = f"{name}-{seed}-rep{len(reps)}"
            # Traced runs alternate: untraced, traced, untraced, ...
            reps.append(workload.rep(tracer if len(reps) % 2 else None))
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [e for rep in reps for e in rep.errors]
    gate = digest_mismatches(reps)
    errors += gate
    attempted = sum(rep.attempted for rep in reps) + len(reps)
    failed = sum(rep.failed for rep in reps) + len(gate)
    for message in errors:
        log(f"# FAILED {message}")

    untraced = [rep for rep in reps if not rep.traced]
    if trace:
        traced = [rep for rep in reps if rep.traced]
        metrics = {m.name: 0.0 for m in catalog.PER_LAYER}
        metrics.update(workload.per_layer(reps, tracer))
        metrics["obs.trace_overhead"] = (
            median([r.wall_s for r in traced])
            / median([r.wall_s for r in untraced])
        )
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path)
        log(f"# spans written to {os.path.relpath(path, ROOT)}")
        for span_name, total in sorted(tracer.self_time_by_name().items()):
            log(f"# self_time {span_name} {total:.6f} s")
    else:
        metrics = {
            "setup_s": import_s + median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "ops_ok_ratio": 1.0 - failed / attempted,
        }
        metrics.update(workload.rates(untraced))
        log(f"# import_s {import_s:.4f} s; set-ups "
            + ", ".join(f"{s:.4f}" for s in setups) + " s")
        log(f"# ops_failed_ratio {failed / attempted:.6f} fraction")
    log(f"# repetitions {len(reps)}: wall "
        + ", ".join(f"{r.wall_s:.4f}" for r in reps) + " s")
    for metric_name in sorted(metrics):
        unit = catalog.UNITS[metric_name]
        alias = catalog.RATE_MEANING[name].get(metric_name)
        target = catalog.TARGETS.get(metric_name)
        note = (f" ({alias[0]}, {alias[1]})" if alias
                else f" -> {target[0]} on {target[1]}" if target else "")
        log(f"# {metric_name} {metrics[metric_name]:.6g} {unit}{note}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": catalog.UNITS[key]}
            for key, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
