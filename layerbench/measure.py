"""Drive a workload for a fixed time and tally its timings and failures."""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import bench
import workloads


@dataclass
class Outcomes:
    """Queries attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)


@dataclass
class Tally(Outcomes):
    """Timings and outcomes of one measured batch phase."""

    #: One dict per round: leg -> [cpu_ns, wall_ns, calls]; the hand leg's
    #: CPU is its own thread's (see ``bench.Batch``).
    rounds: list[dict[str, list[int]]] = field(default_factory=list)
    #: Leg -> wall microseconds per call, one value per batch.
    walls: dict[str, list[float]] = field(default_factory=dict)

    def cpu_us(self, leg: str) -> float:
        """Median over rounds of CPU microseconds per call."""
        return statistics.median(
            r[leg][0] / r[leg][2] / 1e3 for r in self.rounds if r[leg][2]
        )

    def cpu_vs_hand(self, leg: str) -> float:
        """Median over rounds of CPU per call relative to the hand-written
        loop's CPU per call on the same queries in the same round."""
        return statistics.median(
            (r[leg][0] / r[leg][2]) / (r["hand"][0] / r["hand"][2])
            for r in self.rounds if r[leg][2] and r["hand"][2]
        )

    def p50_us(self, leg: str) -> float:
        """Median over batches of wall microseconds per call."""
        return statistics.median(self.walls[leg])


def measure(plan: workloads.Plan, seconds: float,
            after_batch: Callable[[str, int], None] | None = None,
            legs: tuple[str, ...] | None = None) -> Tally:
    """Run rounds over every query and leg until ``seconds`` have passed.

    A round times one batch per (query, leg), legs interleaved per query
    so that drift in machine speed hits every leg alike; ``legs`` limits
    the legs timed.  Every result of every batch is checked against the
    query's reference after the batch.  At least one round always runs.
    """
    tally = Tally()
    for query in plan.queries:
        for leg in query.legs:
            if legs is None or leg in legs:
                tally.walls.setdefault(leg, [])
    end = time.perf_counter() + seconds
    while not tally.rounds or time.perf_counter() < end:
        totals = {leg: [0, 0, 0] for leg in tally.walls}
        for query in plan.queries:
            for leg, thunk in query.legs.items():
                if leg not in totals:
                    continue
                calls = plan.calls[leg]
                tally.attempted += calls
                try:
                    batch, results = bench.time_batch(thunk, calls)
                except Exception:  # a failing query is a result, not a crash
                    tally.fail(calls, f"{query.label}/{leg}: "
                               + traceback.format_exc(limit=3))
                    continue
                finally:
                    if after_batch is not None:
                        after_batch(leg, calls)
                bad = sum(1 for r in results if not query.check(r))
                if bad:
                    tally.fail(bad, f"{query.label}/{leg}: wrong result")
                total = totals[leg]
                total[0] += batch.thread_ns if leg == "hand" else batch.cpu_ns
                total[1] += batch.wall_ns
                total[2] += calls
                tally.walls[leg].append(batch.wall_us)
        tally.rounds.append(totals)
    return tally


@dataclass
class Segment:
    """One open-loop segment: the jobs of one backend and the CPU spent."""

    backend: str
    records: list
    cpu_ns: int

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.error is None)


@dataclass
class ServeTally(Outcomes):
    """One open-loop serve phase of alternating backend segments."""

    segments: list[Segment] = field(default_factory=list)

    def _of(self, backend: str) -> list[Segment]:
        return [s for s in self.segments if s.backend == backend]

    def cpu_us(self, backend: str) -> float:
        """Process CPU microseconds per completed job."""
        segments = self._of(backend)
        return (sum(s.cpu_ns for s in segments)
                / max(sum(s.completed for s in segments), 1) / 1e3)

    def cpu_vs_hand(self, backend: str) -> float:
        """CPU per job over the floor's CPU per job on the same job mix
        at the same rate."""
        return self.cpu_us(backend) / self.cpu_us("floor")

    def records(self, backend: str) -> list:
        return [r for s in self._of(backend) for r in s.records]

    def latencies_us(self, backend: str) -> list[float]:
        """Due time to caller notification, per completed job."""
        return [
            (r.notified_ns - r.due_ns) / 1e3
            for r in self.records(backend) if r.error is None
        ]

    def p50_us(self, backend: str) -> float:
        return statistics.median(self.latencies_us(backend))


#: Segments per backend; segments alternate so drift hits all alike.
SERVE_SEGMENTS = 12
#: The service's two job backends and the hand-written floor.
SERVE_BACKENDS = ("sequential", "threads", "floor")


def serve_jobs(seconds: float) -> int:
    """Jobs in a serve phase of ``seconds`` at the fixed offered rate,
    rounded so every segment holds whole blocks of the job mix."""
    segments = SERVE_SEGMENTS * len(SERVE_BACKENDS)
    blocks = int(workloads.SERVE_RATE * seconds / segments
                 / workloads.SERVE_BLOCK)
    return max(blocks, 1) * workloads.SERVE_BLOCK * segments


def measure_serve(setup: workloads.ServeSetup, seconds: float,
                  backends: tuple[str, ...] = SERVE_BACKENDS,
                  after_segment: Callable[[str, int], None] | None = None,
                  ) -> ServeTally:
    """Offer ``serve_jobs(seconds)`` jobs of the schedule at the fixed
    rate, in segments that alternate between ``backends``;
    ``after_segment(backend, jobs)`` runs after each segment."""
    tally = ServeTally()
    per_segment = serve_jobs(seconds) // (SERVE_SEGMENTS * len(backends))
    index = 0
    for _ in range(SERVE_SEGMENTS):
        for backend in backends:
            jobs = range(index, index + per_segment)
            index += per_segment
            window = bench.Window()
            records = workloads.run_serve(
                setup, backend, jobs, workloads.SERVE_RATE, timeout=60.0,
            )
            window.close()
            if after_segment is not None:
                after_segment(backend, len(records))
            tally.attempted += len(records)
            for r in records:
                if r.error is not None:
                    tally.fail(1, f"{backend}: {r.error}")
            tally.segments.append(Segment(backend, records, window.cpu_ns))
    return tally
