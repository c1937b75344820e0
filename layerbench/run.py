#!/usr/bin/env python3
"""Layer-ledger benchmark: per-query CPU and latency of the stream engine.

Plain run (end-to-end metrics, tracing off)::

    python3 layerbench/run.py --workload small --seed 1 --seconds 20 --trace 0

Traced run (per-layer ledger)::

    python3 layerbench/run.py --workload small --seed 1 --seconds 20 --trace 1

Steadiness mode (fresh process per seed; prints median, quartiles and
spread of every end-to-end metric against its bound)::

    python3 layerbench/run.py --workload small --seconds 20 --steadiness 10

Run from the repository root.  The last line of a run is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any query failed or mismatched its reference.
See ``layerbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("small", "bulk", "powerlist", "serve")

#: Fresh interpreters a plain run sets up in, its own included;
#: ``setup_s`` is the median of their set-up CPU.  ``bulk`` sets up in
#: about 6 CPU-seconds, so it takes fewer to keep a run within a minute.
SETUP_SAMPLES = {"small": 5, "bulk": 3, "powerlist": 5, "serve": 5}

#: Layers only one workload reaches: metric-name prefix -> workload.  A
#: traced run of another workload reports them as 0 and says so.
LAYER_OWNERS = {"process": "bulk", "power.": "powerlist", "serve.": "serve"}

#: End-to-end metrics (plain run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "seq_cpu_vs_hand": "x",
    "threads_cpu_vs_hand": "x",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "seq_cpu_us": "us",
    "threads_cpu_us": "us",
    "seq_p50_us": "us",
    "threads_p50_us": "us",
    "process_p50_us": "us",
    "floor.hand_us": "us",
    "stream.build_us": "us",
    "fusion.plan_us": "us",
    "fusion.compiled_per_query": "count",
    "fusion.memo_hit_ratio": "ratio",
    "ops.select_mode_us": "us",
    "ops.chunked_ratio": "ratio",
    "adaptive.decide_us": "us",
    "pool.invoke_noop_us": "us",
    "pool.tasks_per_query": "count",
    "pool.steals_per_query": "count",
    "parallel.leaves_per_query": "count",
    "parallel.split_us": "us",
    "parallel.leaf_us": "us",
    "parallel.combine_us": "us",
    "shm.share_us": "us",
    "process.batches_per_query": "count",
    "process.leaves_per_query": "count",
    "power.split_us": "us",
    "power.leaf_us": "us",
    "power.combine_us": "us",
    "serve.p50_us": "us",
    "serve.p90_us": "us",
    "serve.admit_us": "us",
    "serve.queue_wait_us": "us",
    "serve.run_us": "us",
    "serve.notify_us": "us",
    "serve.gen_late_us": "us",
    "serve.rejected": "count",
    "serve.shed": "count",
    "obs.trace_overhead_pct": "%",
    "failed_frac": "ratio",
}


def width() -> int:
    """Pool and serve-runner width: 2, capped at the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def environment(seed: int) -> dict:
    from repro.streams import process_backend

    load = os.getloadavg()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "width": width(),
        # The process backend sizes its shared workers from cpu_count
        # (largest power of two at or below it); no public call sets it.
        "process_width": process_backend.default_process_count(),
        "python": platform.python_version(),
        "seed": seed,
        "loadavg_1m": round(load[0], 2),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


class Session:
    """One workload's live objects: pool, plan or service.

    ``bulk`` starts, checks and stops its process workers here: they are
    reaped inside set-up so ``bench.cpu_s`` counts their CPU, and plain
    runs never use them (a traced run forks fresh ones on its first
    process-leg query).
    """

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        import measure
        import workloads
        from repro.forkjoin.pool import ForkJoinPool
        from repro.streams import process_backend

        self.name = name
        self.plan = None
        self.serve = None
        if name == "bulk":
            # The process workers start inside set-up, not in the first query.
            process_backend.shutdown_shared_executor()
        self.pool = ForkJoinPool(parallelism=width(), name=f"bench-{name}")
        try:
            if name == "serve":
                self.serve = workloads.build_serve(
                    seed, self.pool, width(), measure.serve_jobs(seconds))
            else:
                self.plan = workloads.BUILDERS[name](seed, self.pool)
                for query in self.plan.queries:
                    for leg, thunk in query.legs.items():
                        if not query.check(thunk()):
                            raise RuntimeError(
                                f"set-up call {query.label}/{leg} mismatched")
                if name == "bulk":
                    process_backend.shutdown_shared_executor()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.serve is not None:
            self.serve.service.shutdown()
            self.serve.floor.shutdown()
        self.pool.shutdown()
        self.pool.await_termination(timeout=30.0, _raise=False)


def cold_setup(name: str, seed: int, seconds: float) -> float:
    """CPU seconds from interpreter start until ``name`` is ready to time.

    Called first thing in a fresh interpreter, so it counts the
    interpreter's start, the imports and the first-call work a warm
    process would not repeat.
    """
    session = Session(name, seed, seconds)
    cpu = bench.cpu_s()
    tear_down(session)
    return cpu


def setup_samples(name: str, seed: int, seconds: float,
                  count: int) -> list[float]:
    """:func:`cold_setup` in ``count`` fresh interpreters, one at a time."""
    code = (
        f"import sys; sys.path[:0] = {[str(HERE), str(SRC)]!r}; import run; "
        f"print(run.cold_setup({name!r}, {seed}, {seconds!r}))"
    )
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.splitlines()[-1]))
    return samples


def tear_down(session: Session) -> None:
    session.close()
    release_processes()


def release_processes() -> None:
    """Stop every process this interpreter started, and reap each.

    The process backend's workers are joined by its shutdown.  Unlinking
    a shared-memory segment starts multiprocessing's resource tracker as
    a child of this process; left alone it outlives us (as an orphan, or
    a zombie under an init that does not reap), so it is stopped and
    waited for here.  Idempotent.
    """
    from multiprocessing import resource_tracker

    from repro.powerlist import shm
    from repro.streams import process_backend

    process_backend.shutdown_shared_executor()
    shm.release_all()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #


def plain(session: Session, seconds: float) -> tuple[dict, int, int, list]:
    import measure

    if session.serve is not None:
        tally = measure.measure_serve(session.serve, seconds)
        seq, threads = "sequential", "threads"
    else:
        # The process leg feeds no gated metric; it is checked at set-up
        # and timed in the traced run, so plain rounds stay short and
        # many (bulk fits about eight in 20 s instead of five).
        tally = measure.measure(session.plan, seconds,
                                legs=("seq", "threads", "hand"))
        seq, threads = "seq", "threads"
    metrics = {
        "seq_cpu_vs_hand": tally.cpu_vs_hand(seq),
        "threads_cpu_vs_hand": tally.cpu_vs_hand(threads),
    }
    return metrics, tally.attempted, tally.failed, tally.failures


def ledger_of(session: Session, seconds: float) -> tuple[dict, int, int, list]:
    import ledger
    import workloads

    if session.serve is not None:
        data = session.serve.datasets["small"]
        return ledger.serve_ledger(
            session.serve, session.pool, seconds,
            probe_stream=lambda: workloads.probe_stream(data),
            probe_array=workloads.as_array(data),
        )
    return ledger.batch_ledger(session.name, session.plan, session.pool,
                               seconds)


def run(args) -> int:
    # This interpreter started cold too: its set-up is the first sample.
    session = Session(args.workload, args.seed, args.seconds)
    setup_cpu = bench.cpu_s()
    notes = []
    # Set-up objects never become garbage: keep them out of every
    # collection so gc.collect() before a batch is cheap and batches do
    # not rescan them.
    gc.freeze()
    try:
        if args.trace:
            metrics, attempted, failed, failures = ledger_of(
                session, args.seconds)
            metrics["failed_frac"] = failed / max(attempted, 1)
            notes += [
                f"not reached by {args.workload} (reported as 0; measured "
                f"by {owner}): {', '.join(keys)}"
                for owner, keys in unreached(args.workload, metrics).items()
            ]
            catalog = PER_LAYER
        else:
            metrics, attempted, failed, failures = plain(session, args.seconds)
            samples = [setup_cpu] + setup_samples(
                args.workload, args.seed, args.seconds,
                SETUP_SAMPLES[args.workload] - 1)
            metrics["setup_s"] = statistics.median(samples)
            metrics["peak_rss_mb"] = peak_rss_mb()
            notes.append("setup_s samples (CPU s): "
                         + " ".join(f"{x:.3f}" for x in samples))
            catalog = END_TO_END
    finally:
        tear_down(session)
    missing = [key for key in catalog if key not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for key in catalog:
        bench.check_metric_name(key)
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print("# env " + json.dumps(environment(args.seed)))
    for note in notes:
        print("# " + note)
    for key, unit in catalog.items():
        print(f"{key:28s} {metrics[key]:14.4f} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in catalog.items()
        },
    }))
    return 0 if correct else 1


def unreached(workload: str, metrics: dict) -> dict[str, list[str]]:
    """Fill in, as 0, the layers ``workload`` never reaches.

    Returns owner workload -> the metrics filled.  A missing metric that
    ``workload`` itself owns is a bug, not an unreached layer.
    """
    filled: dict[str, list[str]] = {}
    for key in PER_LAYER:
        if key in metrics:
            continue
        owner = next((o for prefix, o in LAYER_OWNERS.items()
                      if key.startswith(prefix)), None)
        if owner is None or owner == workload:
            continue  # reported as missing by run()
        metrics[key] = 0.0
        filled.setdefault(owner, []).append(key)
    return filled


# --------------------------------------------------------------------------- #
# Steadiness mode
# --------------------------------------------------------------------------- #


def bounds() -> dict[str, float]:
    """End-to-end bounds from BENCHMARK.json (empty when absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(args) -> int:
    """Repeat the workload in fresh processes with seeds seed..seed+n-1."""
    limits = bounds()
    values: dict[str, list[float]] = {}
    status = 0
    for i in range(args.steadiness):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        env = next((ln for ln in lines if ln.startswith("# env ")), "# env {}")
        print(f"seed {seed}: exit {proc.returncode} {env[6:]}")
        for line in lines:
            if line.startswith("# setup_s"):
                print("  " + line[2:])
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-2000:], file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print("  " + " ".join(f"{key}={metric['value']:.4g}"
                              for key, metric in result["metrics"].items()))
    print(f"workload {args.workload}: {args.steadiness} runs, "
          f"{args.seconds}s each, cpu_count {os.cpu_count()}, "
          f"python {platform.python_version()}, "
          f"loadavg {os.getloadavg()[0]:.2f}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for key, vals in values.items():
        s = bench.spread(vals)
        bound = limits.get(key)
        flag = ""
        if bound is not None and s["iqr_frac"] > bound:
            flag = "  OVER BOUND"
        print(f"{key:28s} {s['median']:12.4f} {s['q1']:12.4f} "
              f"{s['q3']:12.4f} {s['iqr_frac']:8.3f} {s['range_frac']:9.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="repeat in N fresh processes and summarize")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run(args)


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: engine sources not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        status = main()
    finally:
        # Also on a failed set-up, which never reaches tear_down().
        if "repro" in sys.modules:
            release_processes()
    sys.exit(status)
