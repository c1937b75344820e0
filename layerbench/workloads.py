"""The four workloads: inputs from the seed, legs, oracles.

A batch workload (``small``, ``bulk``, ``powerlist``) is a list of
:class:`Query` objects.  Each query carries one thunk per *leg* -- the
same computation through the sequential stream, the ``.parallel()``
threads stream, the process backend, or the hand-written floor -- and a
check that compares a leg's result with the reference computed at
set-up.  ``serve`` is an open loop instead; see :func:`run_serve`.

Sizes and mixes are fixed; the seed only chooses element values, query
targets and (for ``serve``) which job goes to which tenant, so a run's
cost does not depend on the seed.  ``any_match`` looks for a value that
is present on every other input and for :data:`ABSENT` on the rest, so
both answers are checked on every leg.
"""

from __future__ import annotations

import functools
import operator
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.fft import fft, fft_sequential
from repro.core.polynomial import PolynomialValue, horner, polynomial_value
from repro.core.power_collector import power_stream
from repro.forkjoin.pool import ForkJoinPool
from repro.serve import AdmissionError, ExecutionService
from repro.streams import Collectors, Stream

import bench
from stages import bucket, coarse, fold, job_pipeline, keep, pair, scramble

#: The JEDI-style query shapes shared by ``small`` and ``bulk``.
SHAPES = (
    "map_filter", "map_limit", "group_by", "reduce", "any_match",
    "distinct_sorted", "zip_with",
)

SMALL_SIZES = (8, 16, 24, 32, 40, 48, 56, 64)
#: An ``any_match`` target no input holds: elements are 20-bit values.
ABSENT = 1 << 20
BULK_SIZE = 1 << 18
POLY_SIZE = 1 << 16
FFT_SIZE = 1 << 12

#: Calls per timed batch, per leg: long enough (>= ~2 ms) to swamp timer
#: and wake-up jitter, fixed so set-up never depends on measured noise.
CALLS = {
    "small": {"seq": 40, "threads": 4, "hand": 400},
    "bulk": {"seq": 1, "threads": 1, "process": 1, "hand": 1},
    "powerlist": {"seq": 1, "threads": 1, "hand": 1},
}


@dataclass
class Query:
    """One query: a thunk per leg and a check against the reference."""

    label: str
    legs: dict[str, Callable[[], Any]]
    check: Callable[[Any], bool]


@dataclass
class Plan:
    """A batch workload ready to time."""

    queries: list[Query]
    calls: dict[str, int]
    #: Representative op-chain builder for the layer probes: returns an
    #: unterminated stream over the workload's own input.
    probe_stream: Callable[[], Stream]
    probe_array: np.ndarray


# --------------------------------------------------------------------------- #
# Shapes: one stream form and one hand-written loop each
# --------------------------------------------------------------------------- #


@dataclass
class Inputs:
    data: list
    data2: list
    target: int
    limit: int


def run_shape(shape: str, src: Stream, src2: Stream, q: Inputs) -> Any:
    """``shape`` as a stream pipeline over ``src`` (``src2`` for zip)."""
    if shape == "map_filter":
        return src.map(scramble).filter(keep).to_list()
    if shape == "map_limit":
        return src.map(scramble).limit(q.limit).to_list()
    if shape == "group_by":
        return src.collect(Collectors.grouping_by(bucket))
    if shape == "reduce":
        return src.map(scramble).reduce(0, fold)
    if shape == "any_match":
        return src.any_match(functools.partial(operator.eq, q.target))
    if shape == "distinct_sorted":
        return src.map(coarse).distinct().sorted().to_list()
    if shape == "zip_with":
        return src.map(scramble).zip_with(src2, pair).to_list()
    raise ValueError(f"unknown shape {shape!r}")


def hand_shape(shape: str, q: Inputs) -> Any:
    """The hand-written loop computing the same result as ``run_shape``."""
    data = q.data
    if shape == "map_filter":
        out = []
        for x in data:
            y = scramble(x)
            if keep(y):
                out.append(y)
        return out
    if shape == "map_limit":
        out = []
        for x in data:
            if len(out) == q.limit:
                break
            out.append(scramble(x))
        return out
    if shape == "group_by":
        groups: dict = {}
        for x in data:
            groups.setdefault(bucket(x), []).append(x)
        return groups
    if shape == "reduce":
        acc = 0
        for x in data:
            acc = fold(acc, scramble(x))
        return acc
    if shape == "any_match":
        for x in data:
            if x == q.target:
                return True
        return False
    if shape == "distinct_sorted":
        seen = set()
        out = []
        for x in data:
            y = coarse(x)
            if y not in seen:
                seen.add(y)
                out.append(y)
        out.sort()
        return out
    if shape == "zip_with":
        out = []
        for a, b in zip(data, q.data2):
            out.append(pair(scramble(a), b))
        return out
    raise ValueError(f"unknown shape {shape!r}")


def leg_configs(pool: ForkJoinPool, legs: tuple[str, ...]) -> dict:
    """Leg name -> function giving a source stream that leg's settings."""
    configs = {
        "seq": lambda s: s,
        "threads": lambda s: s.parallel().with_pool(pool),
        "process": lambda s: s.parallel().with_backend("process"),
    }
    return {leg: configs[leg] for leg in legs}


def _shape_query(label: str, shape: str, q: Inputs, configs: dict,
                 range_source: bool = False) -> Query:
    want = hand_shape(shape, q)
    n = len(q.data)
    legs: dict[str, Callable[[], Any]] = {}
    for leg, configure in configs.items():
        def run(configure=configure):
            src = Stream.range(0, n) if range_source else Stream.of_iterable(q.data)
            other = Stream.of_iterable(q.data2)
            return run_shape(shape, configure(src), configure(other), q)
        legs[leg] = run
    legs["hand"] = functools.partial(hand_shape, shape, q)
    return Query(label, legs, lambda got: got == want)


def probe_stream(data: list) -> Stream:
    """The representative unterminated pipeline the layer probes time."""
    return Stream.of_iterable(data).map(scramble).filter(keep)


def as_array(data: list) -> np.ndarray:
    return np.asarray(data, dtype=np.int64)


def hand_job(data: list) -> int:
    """The serve job pipeline as a hand-written loop."""
    acc = 0
    for x in data:
        y = scramble(x)
        if keep(y):
            acc = fold(acc, y)
    return acc


def _inputs(rng: random.Random, n: int, present: bool = True) -> Inputs:
    data = [rng.getrandbits(20) for _ in range(n)]
    data2 = [rng.getrandbits(20) for _ in range(n)]
    target = data[(3 * n) // 4] if present else ABSENT
    return Inputs(data, data2, target, n // 2)


# --------------------------------------------------------------------------- #
# Workload builders
# --------------------------------------------------------------------------- #


def build_small(seed: int, pool: ForkJoinPool) -> Plan:
    """Seven shapes x eight sizes (8..64): fixed cost dominates."""
    rng = random.Random(seed)
    configs = leg_configs(pool, ("seq", "threads"))
    queries = []
    for shape in SHAPES:
        for i, n in enumerate(SMALL_SIZES):
            q = _inputs(rng, n, present=i % 2 == 0)
            queries.append(_shape_query(f"{shape}/{n}", shape, q, configs))
    probe = _inputs(rng, SMALL_SIZES[-1]).data
    return Plan(queries, CALLS["small"],
                lambda: probe_stream(probe), as_array(probe))


def build_bulk(seed: int, pool: ForkJoinPool) -> Plan:
    """The shapes at 2^18 over a list (``any_match`` for a present and an
    absent value), two over a range, one ufunc chain."""
    rng = random.Random(seed)
    q = _inputs(rng, BULK_SIZE)
    configs = leg_configs(pool, ("seq", "threads", "process"))
    queries = [_shape_query(f"{s}/list", s, q, configs) for s in SHAPES]
    absent = Inputs(q.data, q.data2, ABSENT, q.limit)
    queries.append(
        _shape_query("any_match/list-absent", "any_match", absent, configs))
    ranged = Inputs(list(range(BULK_SIZE)), q.data2, q.target, q.limit)
    for shape in ("map_filter", "reduce"):
        queries.append(
            _shape_query(f"{shape}/range", shape, ranged, configs,
                         range_source=True)
        )
    queries.append(_ufunc_query(rng, configs))
    return Plan(queries, CALLS["bulk"],
                lambda: probe_stream(q.data), as_array(q.data))


def _ufunc_query(rng: random.Random, configs: dict) -> Query:
    """square/abs/sqrt over a float ndarray, summed: the whole-array kernel.

    numpy ufuncs do not pickle as stage functions, so there is no process
    leg; the reference is the same numpy expression.
    """
    arr = np.array([rng.uniform(-1.0, 1.0) for _ in range(BULK_SIZE)])
    want = float(np.sqrt(np.abs(np.square(arr))).sum())
    scale = float(np.abs(arr).sum())

    def run(configure):
        src = configure(Stream.of_iterable(arr))
        return src.map(np.square).map(np.abs).map(np.sqrt).sum()

    legs = {
        leg: functools.partial(run, configure)
        for leg, configure in configs.items() if leg != "process"
    }
    legs["hand"] = lambda: float(np.sqrt(np.abs(np.square(arr))).sum())
    return Query(
        "ufunc_chain/ndarray", legs,
        lambda got: bench.close_float(float(got), want, scale,
                                      bench.SUM_REL_TOL),
    )


def build_powerlist(seed: int, pool: ForkJoinPool) -> Plan:
    """polynomial_value at 2^16 and fft at 2^12, against horner/fft_sequential."""
    rng = random.Random(seed)
    queries = []
    for i in range(2):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(POLY_SIZE)]
        x = rng.choice((-1.0, 1.0)) * rng.uniform(0.9, 0.999)
        want = horner(coeffs, x)
        scale = horner([abs(c) for c in coeffs], abs(x))
        queries.append(Query(
            f"polynomial_value/{i}",
            {
                "seq": functools.partial(polynomial_value, coeffs, x, False),
                "threads": functools.partial(
                    polynomial_value, coeffs, x, True, pool),
                "hand": functools.partial(horner, coeffs, x),
            },
            lambda got, want=want, scale=scale: bench.close_float(
                got, want, scale, bench.POLY_REL_TOL),
        ))
    for i in range(2):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(FFT_SIZE)]
        want = fft_sequential(values)
        scale = sum(abs(v) for v in values)
        queries.append(Query(
            f"fft/{i}",
            {
                "seq": functools.partial(fft, values, False),
                "threads": functools.partial(fft, values, True, pool),
                "hand": functools.partial(fft_sequential, values),
            },
            lambda got, want=want, scale=scale: bench.close_vector(
                got, want, scale, bench.FFT_REL_TOL),
        ))
    probe = [rng.uniform(-1.0, 1.0) for _ in range(POLY_SIZE)]
    return Plan(
        queries, CALLS["powerlist"],
        probe_stream=lambda: power_stream(PolynomialValue(0.5), probe, True, pool),
        probe_array=np.asarray(probe),
    )


#: Batch workload name -> plan builder.
BUILDERS = {
    "small": build_small,
    "bulk": build_bulk,
    "powerlist": build_powerlist,
}


# --------------------------------------------------------------------------- #
# serve: an open loop
# --------------------------------------------------------------------------- #

SERVE_SMALL = 64
SERVE_LARGE = 1 << 14
#: One job in every block of SERVE_BLOCK runs over the 2^14-element
#: dataset, at a seeded position: every block has the same work.
SERVE_BLOCK = 10
#: Offered load in jobs per second: about half the sustainable rate.  On
#: a 2-core box, threads-backend p50 latency held near 2.3-2.6 ms from 50
#: to 300 jobs/s and jumped to 27 ms at 400 jobs/s.
SERVE_RATE = 150.0
TENANTS = ("tenant-a", "tenant-b")


@dataclass
class ServeSetup:
    service: ExecutionService
    #: The floor: a plain thread pool of the service's width.
    floor: ThreadPoolExecutor
    datasets: dict[str, list]
    #: Per job: (tenant, dataset), fixed by the seed.
    schedule: list[tuple[str, str]]
    expected: dict[str, int]


def build_serve(seed: int, pool: ForkJoinPool, workers: int,
                jobs: int) -> ServeSetup:
    rng = random.Random(seed)
    datasets = {
        "small": [rng.getrandbits(20) for _ in range(SERVE_SMALL)],
        "large": [rng.getrandbits(20) for _ in range(SERVE_LARGE)],
    }
    service = ExecutionService(
        max_workers=workers, pool=pool, global_queue_limit=4096,
    )
    expected = {}
    for name, data in datasets.items():
        service.register_dataset(name, data)
        expected[name] = hand_job(data)
    for tenant in TENANTS:
        service.register_tenant(tenant, queue_limit=2048)
    floor = ThreadPoolExecutor(max_workers=workers)
    try:
        # One untimed, checked job per dataset and backend.
        for name, data in datasets.items():
            for backend in ("sequential", "threads"):
                got = service.submit(
                    TENANTS[0], name, job_pipeline, backend=backend
                ).result(timeout=60)
                if got != expected[name]:
                    raise RuntimeError(f"serve warm-up mismatch on {name}")
            if floor.submit(hand_job, data).result(timeout=60) != expected[name]:
                raise RuntimeError(f"floor warm-up mismatch on {name}")
    except BaseException:
        service.shutdown()
        floor.shutdown()
        raise
    schedule = []
    for _ in range(0, jobs, SERVE_BLOCK):
        large = rng.randrange(SERVE_BLOCK)
        schedule.extend(
            (rng.choice(TENANTS), "large" if i == large else "small")
            for i in range(SERVE_BLOCK)
        )
    return ServeSetup(service, floor, datasets, schedule, expected)


@dataclass
class JobRecord:
    due_ns: int
    dataset: str
    submit_start_ns: int = 0
    submit_end_ns: int = 0
    notified_ns: int = 0
    #: The service's Ticket, or the floor's Future.
    handle: Any = None
    error: str | None = None


def run_serve(setup: ServeSetup, backend: str, jobs: range,
              rate: float, timeout: float) -> list[JobRecord]:
    """Submit ``jobs`` of the schedule at ``rate`` per second; wait for all.

    ``backend`` is a service job backend (``sequential``, ``threads``) or
    ``floor``: the hand-written job on the plain thread pool of
    :class:`ServeSetup`, the least a caller could write to serve the same
    jobs.  The generator thread sleeps until each job's due time; a job is
    timed from when it was due, so a stalled generator shows as latency
    and as ``gen_late``.
    """
    if backend == "floor":
        def submit(tenant, dataset):
            return setup.floor.submit(hand_job, setup.datasets[dataset])
    else:
        def submit(tenant, dataset):
            return setup.service.submit(
                tenant, dataset, job_pipeline, backend=backend)
    records: list[JobRecord] = []
    done = threading.Semaphore(0)
    start = time.perf_counter_ns() + 1_000_000
    period = 1e9 / rate
    for i, index in enumerate(jobs):
        tenant, dataset = setup.schedule[index]
        record = JobRecord(start + int(i * period), dataset)
        records.append(record)
        now = time.perf_counter_ns()
        if record.due_ns > now:
            time.sleep((record.due_ns - now) / 1e9)
        record.submit_start_ns = time.perf_counter_ns()
        try:
            handle = submit(tenant, dataset)
        except AdmissionError as exc:
            record.submit_end_ns = time.perf_counter_ns()
            record.error = f"rejected: {exc}"
            done.release()
            continue
        record.submit_end_ns = time.perf_counter_ns()
        record.handle = handle

        def notify(_handle, record=record):
            record.notified_ns = time.perf_counter_ns()
            done.release()

        handle.add_done_callback(notify)
    deadline = time.monotonic() + timeout
    for _ in records:
        if not done.acquire(timeout=max(0.0, deadline - time.monotonic())):
            break
    for record in records:
        if record.handle is None:
            continue
        try:
            got = record.handle.result(timeout=0)
        except TimeoutError:
            record.error = "unsettled"
        except Exception as exc:  # the job's own failure, shed or cancel
            record.error = repr(exc)
        else:
            if got != setup.expected[record.dataset]:
                record.error = "mismatch"
    return records
