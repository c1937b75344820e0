"""The per-layer ledger of a traced run.

Every number is taken from outside the engine: stats snapshots around
each timed batch, the spans the engine already emits under
``repro.obs.tracing``, and small probes that time one layer's public
function on the workload's own input.
"""

from __future__ import annotations

import statistics

from repro.forkjoin.pool import ForkJoinPool
from repro.forkjoin.task import RecursiveTask
from repro.obs import tracing
from repro.powerlist import shm
from repro.streams import process_backend
from repro.streams.adaptive import decide_threshold
from repro.streams.fusion import fusion_stats, maybe_fuse
from repro.streams.ops import bulk_stats, select_mode

import bench
import measure

#: Span kinds whose self time the ledger reports.
PHASES = ("split", "leaf", "combine")


class _Noop(RecursiveTask):
    def compute(self):
        return None


class Counters:
    """Per-leg deltas of the engine's counters and spans, batch by batch."""

    def __init__(self, pool: ForkJoinPool, tracer, with_process: bool) -> None:
        self.pool = pool
        self.tracer = tracer
        self.with_process = with_process
        self.per_leg: dict[str, dict[str, float]] = {}
        self.last = self._snapshot()
        tracer.clear()

    def _snapshot(self) -> dict[str, float]:
        snap: dict[str, float] = {}
        for key, value in fusion_stats().items():
            snap[f"fusion.{key}"] = value
        for key, value in bulk_stats().items():
            snap[f"ops.{key}"] = value
        stats = self.pool.stats()
        snap["pool.tasks"] = stats["tasks_executed"]
        snap["pool.steals"] = stats["steals"]
        if self.with_process:
            workers = process_backend.shared_executor().stats()["workers"]
            snap["process.batches"] = sum(
                w.get("worker_batches", 0) for w in workers.values())
            snap["process.leaves"] = sum(
                w.get("worker_leaves", 0) for w in workers.values())
        return snap

    def after_batch(self, leg: str, calls: int) -> None:
        now = self._snapshot()
        row = self.per_leg.setdefault(leg, {"calls": 0})
        row["calls"] += calls
        for key, value in now.items():
            row[key] = row.get(key, 0) + value - self.last.get(key, 0)
        spans = self.tracer.spans()
        self.tracer.clear()
        for kind, ns in bench.self_times(spans).items():
            row[f"span.{kind}"] = row.get(f"span.{kind}", 0) + ns
        row["span.leaves"] = row.get("span.leaves", 0) + sum(
            1 for s in spans if s.kind == "leaf")
        self.last = self._snapshot()

    def per_call(self, leg: str, key: str) -> float:
        row = self.per_leg.get(leg)
        if not row or not row["calls"]:
            return 0.0
        return row.get(key, 0) / row["calls"]

    def total(self, legs, key: str) -> float:
        return sum(self.per_leg.get(leg, {}).get(key, 0) for leg in legs)


def _probe(thunk, calls: int, batches: int = 5) -> float:
    """Median over batches of wall microseconds per call of ``thunk``."""
    return statistics.median(
        bench.time_batch(thunk, calls)[0].wall_us for _ in range(batches)
    )


def probe_layers(probe_stream, probe_array, pool: ForkJoinPool) -> dict:
    """Time each layer's public entry point once per call, from outside.

    ``probe_stream`` builds the workload's representative unterminated
    stream; its op list is what the fusion and mode probes rewrite.
    """
    calls = 200
    out = {"stream.build_us": _probe(probe_stream, calls)}
    fresh = iter([probe_stream()._ops for _ in range(calls * 5)])
    out["fusion.plan_us"] = _probe(lambda: maybe_fuse(next(fresh)), calls)
    fused = maybe_fuse(probe_stream()._ops)
    out["ops.select_mode_us"] = _probe(lambda: select_mode(fused), calls)
    size = len(probe_array)
    out["adaptive.decide_us"] = _probe(
        lambda: decide_threshold(size, pool.parallelism, record=False),
        calls,
    )
    out["pool.invoke_noop_us"] = _probe(lambda: pool.invoke(_Noop()), 50)
    shared: list = []

    def share():
        shared.append(shm.share_array(probe_array))

    try:
        out["shm.share_us"] = _probe(share, 10)
    finally:
        for view in shared:
            shm.release(view)
    return out


def _counter_metrics(counters: Counters, legs, compiled_leg: str) -> dict:
    """Fusion, traversal, pool and span metrics from per-leg deltas."""

    def share(part: str, *keys: str) -> float:
        whole = sum(counters.total(legs, key) for key in keys)
        return counters.total(legs, part) / whole if whole else 0.0

    m = {
        "fusion.compiled_per_query": counters.per_call(
            compiled_leg, "fusion.kernels"),
        "fusion.memo_hit_ratio": share(
            "fusion.memo_hits", "fusion.memo_hits", "fusion.pipelines_fused",
            "fusion.unfused"),
        "ops.chunked_ratio": share("ops.chunked", "ops.chunked", "ops.element"),
        "pool.tasks_per_query": counters.per_call("threads", "pool.tasks"),
        "pool.steals_per_query": counters.per_call("threads", "pool.steals"),
        "parallel.leaves_per_query": counters.per_call(
            "threads", "span.leaves"),
    }
    for phase in PHASES:
        m[f"parallel.{phase}_us"] = counters.per_call(
            "threads", f"span.{phase}") / 1e3
    return m


def batch_ledger(name: str, plan, pool: ForkJoinPool, seconds: float):
    """Untraced then traced phase of a batch workload; return
    (metrics, attempted, failed, failures)."""
    plain = measure.measure(plan, seconds / 2)
    with_process = "process" in plan.calls
    with tracing() as tracer:
        counters = Counters(pool, tracer, with_process)
        traced = measure.measure(plan, seconds / 2, counters.after_batch)
    m = {
        "floor.hand_us": plain.cpu_us("hand"),
        "seq_cpu_us": plain.cpu_us("seq"),
        "threads_cpu_us": plain.cpu_us("threads"),
        "seq_p50_us": plain.p50_us("seq"),
        "threads_p50_us": plain.p50_us("threads"),
    }
    stream_legs = [leg for leg in plan.calls if leg != "hand"]
    m.update(_counter_metrics(counters, stream_legs, compiled_leg="seq"))
    if name == "powerlist":
        for phase in PHASES:
            m[f"power.{phase}_us"] = m[f"parallel.{phase}_us"]
    if with_process:
        m["process_p50_us"] = plain.p50_us("process")
        m["process.batches_per_query"] = counters.per_call(
            "process", "process.batches")
        m["process.leaves_per_query"] = counters.per_call(
            "process", "process.leaves")
    legs = ("seq", "threads")
    m["obs.trace_overhead_pct"] = 100.0 * (
        sum(traced.cpu_us(leg) for leg in legs)
        / sum(plain.cpu_us(leg) for leg in legs) - 1.0
    )
    m.update(probe_layers(plan.probe_stream, plan.probe_array, pool))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return m, attempted, failed, plain.failures + traced.failures


def serve_ledger(setup, pool: ForkJoinPool, seconds: float, probe_stream,
                 probe_array):
    """Untraced phase of all backends, then a traced threads-only phase.

    Serve timings come from the untraced phase's ticket timestamps, span
    self times and counters from the traced phase.
    """
    before = _service_totals(setup.service)
    plain = measure.measure_serve(setup, seconds / 2)
    after = _service_totals(setup.service)
    with tracing() as tracer:
        counters = Counters(pool, tracer, with_process=False)
        traced = measure.measure_serve(setup, seconds / 2, ("threads",),
                                       counters.after_batch)
    records = [r for r in plain.records("threads") if r.error is None]

    def median_us(values):
        return statistics.median(values) / 1e3

    latencies = plain.latencies_us("threads")
    tail = bench.tail_percentile(len(latencies)) or 50.0
    m = {
        "floor.hand_us": plain.cpu_us("floor"),
        "seq_cpu_us": plain.cpu_us("sequential"),
        "threads_cpu_us": plain.cpu_us("threads"),
        "seq_p50_us": plain.p50_us("sequential"),
        "threads_p50_us": plain.p50_us("threads"),
        "serve.p50_us": bench.percentile(latencies, 50.0),
        "serve.p90_us": bench.percentile(latencies, min(90.0, tail)),
        "serve.admit_us": median_us(
            [r.submit_end_ns - r.submit_start_ns for r in records]),
        "serve.queue_wait_us": median_us(
            [r.handle.dispatched_ns - r.handle.submitted_ns for r in records]),
        "serve.run_us": median_us(
            [r.handle.completed_ns - r.handle.dispatched_ns for r in records]),
        "serve.notify_us": median_us(
            [r.notified_ns - r.handle.completed_ns for r in records]),
        "serve.gen_late_us": median_us(
            [r.submit_start_ns - r.due_ns for r in records]),
        "serve.rejected": after["rejected"] - before["rejected"],
        "serve.shed": after["shed"] - before["shed"],
    }
    m.update(_counter_metrics(counters, ("threads",), compiled_leg="threads"))
    m["obs.trace_overhead_pct"] = 100.0 * (
        traced.cpu_us("threads") / plain.cpu_us("threads") - 1.0)
    m.update(probe_layers(probe_stream, probe_array, pool))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return m, attempted, failed, plain.failures + traced.failures


def _service_totals(service) -> dict[str, int]:
    tenants = service.stats()["tenants"].values()
    return {
        "rejected": sum(t["rejected"] for t in tenants),
        "shed": sum(t["shed"] for t in tenants),
    }
